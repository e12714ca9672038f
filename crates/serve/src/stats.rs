//! Broadcast-level accounting on top of per-subscriber [`StreamStats`].

use pcc_stream::StreamStats;

pcc_stream::counters! {
    /// Counters for one broadcast session.
    ///
    /// The encode-side facts (`frames_encoded`) are properties of the
    /// shared source; the fan-out facts are sums over subscribers. The
    /// `aggregate` field merges every subscriber's [`StreamStats`] — its
    /// `frames_sent` is therefore the *fan-out* total (frames × reachable
    /// subscribers), which is exactly the number the encode-once claim is
    /// checked against: `frames_encoded` stays flat while `aggregate`
    /// scales with the audience.
    pub struct ServeStats {
        /// Frames the shared encoder coded — exactly one per pushed frame,
        /// no matter how many subscribers received it.
        frames_encoded: u64 => sum,
        /// Subscribers that ever attached to the session.
        subscribers_joined: usize => sum,
        /// Subscribers detached cleanly via unsubscribe.
        subscribers_left: usize => sum,
        /// Subscribers dropped after a transport error (the broadcast keeps
        /// serving everyone else).
        subscribers_failed: usize => sum,
        /// Subscribers cut by the liveness policy after consecutive missed
        /// send deadlines.
        subscribers_evicted: usize => sum,
        /// Dead slots resumed on a fresh transport
        /// ([`Broadcast::resubscribe`](crate::Broadcast::resubscribe)).
        resubscribes: usize => sum,
        /// Subscribers that attached after the first frame and were
        /// resynced from the frame history.
        late_joins: usize => sum,
        /// Frame payloads replayed to late joiners in total.
        replayed_frames: usize => sum,
        /// I-frames sent with the refinement attribute layer stripped
        /// (counted per subscriber per frame).
        sheds_refinement: usize => sum,
        /// P-frames withheld from strided subscribers (counted per
        /// subscriber per frame).
        sheds_p_stride: usize => sum,
        /// Every subscriber's [`StreamStats`] merged (live subscribers
        /// included when sampled mid-session via
        /// [`Broadcast::serve_stats`](crate::Broadcast::serve_stats)).
        aggregate: StreamStats => nested,
    }
}

impl ServeStats {
    /// Subscribers currently being served: every join and resume, minus
    /// every way a slot stops being served.
    pub fn subscribers_active(&self) -> usize {
        (self.subscribers_joined + self.resubscribes).saturating_sub(
            self.subscribers_left + self.subscribers_failed + self.subscribers_evicted,
        )
    }

    /// Mean number of wires each encoded frame was stamped onto — the
    /// fan-out amplification the single encode bought.
    pub fn fanout_ratio(&self) -> f64 {
        if self.frames_encoded == 0 {
            0.0
        } else {
            self.aggregate.frames_sent as f64 / self.frames_encoded as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_stream::{RecoveryRequest, SharedStats};

    #[test]
    fn fanout_ratio_measures_amplification() {
        let mut stats = ServeStats::default();
        assert_eq!(stats.fanout_ratio(), 0.0);
        stats.frames_encoded = 10;
        stats.aggregate.frames_sent = 30;
        assert!((stats.fanout_ratio() - 3.0).abs() < 1e-12);
        stats.subscribers_joined = 5;
        stats.subscribers_failed = 1;
        stats.subscribers_left = 1;
        assert_eq!(stats.subscribers_active(), 3);
        stats.subscribers_evicted = 2;
        assert_eq!(stats.subscribers_active(), 1);
        stats.resubscribes = 3;
        assert_eq!(stats.subscribers_active(), 4, "resumes rejoin the audience");
    }

    #[test]
    fn the_counter_table_drives_fields_merge_and_export() {
        // Every serve counter nonzero. The aggregate sets one count and
        // the flag: its own table is pinned by `pcc-stream`'s twin test,
        // so here it only has to show that `nested` merges and exports
        // through it.
        let x = ServeStats {
            frames_encoded: 1,
            subscribers_joined: 2,
            subscribers_left: 3,
            subscribers_failed: 4,
            subscribers_evicted: 5,
            resubscribes: 6,
            late_joins: 7,
            replayed_frames: 8,
            sheds_refinement: 9,
            sheds_p_stride: 10,
            aggregate: StreamStats { frames_sent: 11, clean_shutdown: true, ..Default::default() },
        };
        let export = |s: &ServeStats| -> Vec<(String, String)> {
            let text = s.to_string();
            let pairs = text.lines().filter_map(|l| l.split_once(' '));
            pairs.map(|(k, v)| (k.into(), v.into())).collect()
        };
        let lines = export(&x);
        // The derived `Debug` lists the fields in declaration order; the
        // nested struct's lines follow under the `aggregate.` prefix.
        let debug = format!("{x:#?}");
        let mut fields: Vec<String> = debug
            .lines()
            .filter_map(|l| Some(l.strip_prefix("    ")?.split_once(": ")?.0))
            .filter(|k| !k.starts_with(' ') && *k != "aggregate")
            .map(String::from)
            .collect();
        let nested = x.aggregate.to_string();
        let nested = nested.lines().filter_map(|l| l.split_once(' '));
        fields.extend(nested.map(|(k, _)| format!("aggregate.{k}")));
        let keys: Vec<&str> = lines.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, fields, "one export line per field, in declaration order");
        assert_eq!(keys.iter().collect::<std::collections::BTreeSet<_>>().len(), keys.len());
        let mut own = lines.iter().filter(|(k, _)| !k.starts_with("aggregate."));
        assert!(own.all(|(_, v)| v != "0"), "{x}");

        let mut doubled = x.clone();
        doubled.merge(&x);
        for ((key, before), (_, after)) in lines.iter().zip(export(&doubled)) {
            let want = before.parse::<u64>().map_or("true".into(), |n| (2 * n).to_string());
            assert_eq!(after, want, "{key}: counts sum, the flag ANDs");
        }
        let mut dirty = x.clone();
        dirty.aggregate.clean_shutdown = false;
        dirty.merge(&x);
        assert!(!dirty.aggregate.clean_shutdown, "one dirty side makes the merged view dirty");

        // A feedback slot's overflow count, overlaid on its snapshot,
        // reaches the session export through the aggregate.
        let fb = SharedStats::new();
        for at_frame in 0..64 {
            fb.push_recovery(RecoveryRequest::IntraRefresh { at_frame });
        }
        let mut stats = ServeStats::default();
        stats.aggregate.merge(&fb.snapshot());
        let overlay = format!("aggregate.recovery_dropped {}", fb.recovery_dropped());
        assert!(fb.recovery_dropped() > 0 && stats.to_string().lines().any(|l| l == overlay));
    }
}
