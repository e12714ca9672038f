//! The record contract between the chunk layer and byte transports:
//! every `write` call a session makes is exactly one whole chunk.
//!
//! `pcc-fault` models each `write` as one record it may drop, corrupt,
//! reorder or duplicate, so its loss rates are chunk loss rates only
//! while this holds. A change that splits a chunk over several writes
//! (a header write plus a payload write, or `write_vectored`, whose
//! default implementation writes only the first buffer) fails here.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use pcc::core::{Design, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::serve::{Broadcast, SubscriberConfig};
use pcc::stream::{
    decode_chunk, stream_video, ChunkKind, Sender, SharedRing, StreamConfig, Supervisor,
};
use pcc::types::Video;

const FRAMES: usize = 7;

fn device() -> Device {
    Device::jetson_agx_xavier(PowerMode::W15)
}

fn clip() -> Video {
    catalog::by_name("Loot").unwrap().generate_scaled(FRAMES, 600)
}

/// Keeps every `write` call as its own record. With a write budget it
/// accepts that many writes and fails the rest (a dead peer).
#[derive(Clone, Default)]
struct Recorder {
    records: Arc<Mutex<Vec<Vec<u8>>>>,
    budget: Option<usize>,
}

impl Recorder {
    fn dying_after(writes: usize) -> Self {
        Recorder { budget: Some(writes), ..Recorder::default() }
    }

    /// Asserts every record is one intact chunk and returns the chunk
    /// kinds in write order.
    fn kinds(&self, what: &str) -> Vec<ChunkKind> {
        let records = self.records.lock().unwrap();
        assert!(!records.is_empty(), "{what}: nothing was written");
        records
            .iter()
            .enumerate()
            .map(|(i, record)| {
                decode_chunk(record)
                    .unwrap_or_else(|| {
                        panic!(
                            "{what}: write {i} ({} bytes) is not exactly one chunk",
                            record.len()
                        )
                    })
                    .kind
            })
            .collect()
    }
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut records = self.records.lock().unwrap();
        if self.budget.is_some_and(|b| records.len() >= b) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"));
        }
        records.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `[header, frames × n, end]`.
fn session(frames: usize) -> Vec<ChunkKind> {
    let mut kinds = vec![ChunkKind::StreamHeader];
    kinds.extend(std::iter::repeat_n(ChunkKind::Frame, frames));
    kinds.push(ChunkKind::End);
    kinds
}

#[test]
fn every_write_is_exactly_one_chunk() {
    let video = clip();
    let d = device();
    let codec = PccCodec::new(Design::IntraInterV1);
    let config = StreamConfig::default();

    // The 1:1 sender, with an ARQ ring parking every chunk.
    let wire = Recorder::default();
    let mut tx =
        Sender::new(&codec, 6, &d, wire.clone(), &config).unwrap().with_arq(SharedRing::new(4));
    for frame in video.iter() {
        tx.send_frame(&frame.cloud).unwrap();
    }
    tx.finish().unwrap();
    assert_eq!(wire.kinds("sender"), session(FRAMES));

    // The pipelined whole-video sender.
    let wire = Recorder::default();
    let mut supervisor = Supervisor::default();
    stream_video(&codec, &video, 6, &d, wire.clone(), &config, &mut supervisor).unwrap();
    assert_eq!(wire.kinds("stream_video"), session(FRAMES));

    // A broadcast: on-time subscribers with and without ARQ share each
    // frame's stamp; a late joiner gets a cache replay; a subscriber
    // whose transport dies after the header and two frames resumes on a
    // fresh transport with a replay. Frames 0 and 3 are I-frames.
    let mut bc = Broadcast::new(&codec, 6, &d, &config);
    let plain = Recorder::default();
    let arq = Recorder::default();
    let dying = Recorder::dying_after(3);
    let late = Recorder::default();
    let back = Recorder::default();
    bc.subscribe(plain.clone(), SubscriberConfig::default()).unwrap();
    let arq_config = SubscriberConfig { arq_ring: Some(SharedRing::new(4)), ..Default::default() };
    bc.subscribe(arq.clone(), arq_config).unwrap();
    let dying_id = bc.subscribe(dying.clone(), SubscriberConfig::default()).unwrap();
    for (i, frame) in video.iter().enumerate() {
        if i == 5 {
            // Frames 3 and 4 of the current GOF are replayed.
            bc.subscribe(late.clone(), SubscriberConfig::default()).unwrap();
            assert!(bc.resubscribe(dying_id, back.clone()).unwrap());
        }
        bc.push_frame(&frame.cloud);
    }
    bc.finish();
    assert_eq!(plain.kinds("broadcast"), session(FRAMES));
    assert_eq!(arq.kinds("broadcast with ARQ"), session(FRAMES));
    assert_eq!(dying.kinds("dead transport"), session(2)[..3].to_vec());
    assert_eq!(late.kinds("late joiner"), session(2 + FRAMES - 5));
    assert_eq!(back.kinds("resubscribed"), session(2 + FRAMES - 5));
}
