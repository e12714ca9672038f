//! Session registry: many concurrent broadcasts keyed by stream id.

use crate::broadcast::Broadcast;
use crate::stats::ServeStats;
use pcc_core::PccCodec;
use pcc_edge::Device;
use pcc_stream::StreamConfig;
use std::collections::HashMap;

/// Hosts concurrent [`Broadcast`] sessions, each on its own stream id.
///
/// The registry is bookkeeping, not I/O: sessions stay independent
/// (their own encoder, frame history, subscribers), the registry only enforces
/// stream-id uniqueness and owns their lifetimes.
#[derive(Default)]
pub struct Registry<'d> {
    sessions: HashMap<u32, Broadcast<'d>>,
}

impl std::fmt::Debug for Registry<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("sessions", &self.ids()).finish()
    }
}

impl<'d> Registry<'d> {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Opens a broadcast session under `config.stream_id`. Returns
    /// `None` (and opens nothing) when that id already hosts a session —
    /// two live broadcasts must never stamp the same stream id.
    pub fn create(
        &mut self,
        codec: &PccCodec,
        depth: u8,
        device: &'d Device,
        config: &StreamConfig,
    ) -> Option<u32> {
        if self.sessions.contains_key(&config.stream_id) {
            return None;
        }
        let session = Broadcast::new(codec, depth, device, config);
        self.sessions.insert(config.stream_id, session);
        Some(config.stream_id)
    }

    /// The session on `stream_id`, if any.
    pub fn session(&self, stream_id: u32) -> Option<&Broadcast<'d>> {
        self.sessions.get(&stream_id)
    }

    /// Mutable access to the session on `stream_id` — subscribe, push
    /// frames, unsubscribe.
    pub fn session_mut(&mut self, stream_id: u32) -> Option<&mut Broadcast<'d>> {
        self.sessions.get_mut(&stream_id)
    }

    /// Ends the session on `stream_id`: seals every subscriber stream
    /// and returns the session's final counters. The id becomes free
    /// for reuse.
    pub fn finish(&mut self, stream_id: u32) -> Option<ServeStats> {
        self.sessions.remove(&stream_id).map(Broadcast::finish)
    }

    /// Live session ids, ascending.
    pub fn ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.sessions.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no session is live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_core::Design;
    use pcc_edge::{Device, PowerMode};

    #[test]
    fn stream_ids_are_exclusive_until_finished() {
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let codec = PccCodec::new(Design::IntraInterV1);
        let mut registry = Registry::new();
        assert!(registry.is_empty());

        let config = StreamConfig { stream_id: 7, ..StreamConfig::default() };
        assert_eq!(registry.create(&codec, 6, &device, &config), Some(7));
        assert_eq!(registry.create(&codec, 6, &device, &config), None);
        let other = StreamConfig { stream_id: 9, ..StreamConfig::default() };
        assert_eq!(registry.create(&codec, 6, &device, &other), Some(9));
        assert_eq!(registry.ids(), vec![7, 9]);
        assert_eq!(registry.len(), 2);
        assert!(registry.session(7).is_some());
        assert!(registry.session_mut(9).is_some());
        assert!(registry.session(8).is_none());

        let stats = registry.finish(7).expect("live session must finish");
        assert_eq!(stats.frames_encoded, 0);
        assert_eq!(registry.finish(7), None);
        // A finished id is free again.
        assert_eq!(registry.create(&codec, 6, &device, &config), Some(7));
    }

    #[test]
    fn stream_ids_stay_exclusive_across_subscriber_churn() {
        use pcc_fault::MortalTransport;
        use pcc_types::{Point3, PointCloud, Rgb};

        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let codec = PccCodec::new(Design::IntraInterV1);
        let mut registry = Registry::new();
        let config = StreamConfig { stream_id: 3, ..StreamConfig::default() };
        registry.create(&codec, 5, &device, &config).unwrap();

        let mut cloud = PointCloud::new();
        cloud.push(Point3::new(1.0, 2.0, 3.0), Rgb::gray(128));

        // Kill, resubscribe, and unsubscribe subscribers repeatedly:
        // none of it frees the stream id — only finish does.
        let session = registry.session_mut(3).unwrap();
        let churned =
            session.subscribe(MortalTransport::new(Vec::new(), 2), Default::default()).unwrap();
        let leaver = session.subscribe(Vec::new(), Default::default()).unwrap();
        for _ in 0..3 {
            registry.session_mut(3).unwrap().push_frame(&cloud);
        }
        assert!(!registry.session(3).unwrap().is_alive(churned), "lives exhausted");
        assert_eq!(registry.create(&codec, 5, &device, &config), None);

        let session = registry.session_mut(3).unwrap();
        assert!(session.resubscribe(churned, Vec::new()).unwrap());
        assert!(session.is_alive(churned));
        assert!(session.unsubscribe(leaver).is_some());
        assert_eq!(registry.create(&codec, 5, &device, &config), None, "id still taken");

        let stats = registry.finish(3).expect("session finishes");
        assert_eq!(stats.resubscribes, 1);
        assert_eq!(stats.subscribers_failed, 1);
        // The id is free exactly once the session is gone.
        assert_eq!(registry.create(&codec, 5, &device, &config), Some(3));
    }
}
