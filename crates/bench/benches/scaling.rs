//! Thread scaling of the intra hot path (Morton → sort → octree →
//! attribute) on one frame.
//!
//! Sweeps the host thread count over {1, 2, 4, max} so `cargo bench
//! scaling` prints per-count wall times; the speedup is the ratio of the
//! `threads/1` line to the others. Every count produces byte-identical
//! streams (asserted in the workspace determinism tests), so this measures
//! pure execution-layer scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcc_bench::Scale;
use pcc_datasets::catalog;
use pcc_edge::{Device, PowerMode};
use pcc_intra::{IntraCodec, IntraConfig};
use pcc_types::VoxelizedCloud;
use std::hint::black_box;
use std::num::NonZeroUsize;

const POINTS: usize = 100_000;

fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, 4, max];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn bench_intra_scaling(c: &mut Criterion) {
    let scale = Scale { points: POINTS, frames: 1 };
    let video = scale.video(catalog::by_name("Longdress").unwrap());
    let vox = VoxelizedCloud::from_cloud(&video.frame(0).unwrap().cloud, scale.depth());
    let codec = IntraCodec::new(IntraConfig::default());

    let mut g = c.benchmark_group("scaling/intra_encode");
    g.sample_size(15);
    g.throughput(Throughput::Elements(vox.len() as u64));
    for t in thread_counts() {
        let device =
            Device::jetson_agx_xavier(PowerMode::W15).with_host_threads(NonZeroUsize::new(t));
        g.bench_with_input(BenchmarkId::new("threads", t), &vox, |b, vox| {
            b.iter(|| {
                device.reset();
                black_box(codec.encode(black_box(vox), &device))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_intra_scaling);
criterion_main!(benches);
