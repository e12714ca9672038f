//! Octree construction: the paper's core geometry claim — sequential
//! point-by-point insertion vs Morton-sorted parallel construction
//! (Fig. 5, Fig. 8a geometry bars).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcc_bench::Scale;
use pcc_datasets::catalog;
use pcc_edge::{Device, PowerMode};
use pcc_octree::{decode_occupancy_with, ParallelOctree, SequentialOctree};
use pcc_types::{Limits, VoxelCoord, VoxelizedCloud};
use std::hint::black_box;

fn frame_coords(points: usize) -> (Vec<VoxelCoord>, u8) {
    let scale = Scale { points, frames: 1 };
    let video = scale.video(catalog::by_name("Redandblack").unwrap());
    let depth = scale.depth();
    let vox = VoxelizedCloud::from_cloud(&video.frame(0).unwrap().cloud, depth);
    (vox.coords().to_vec(), depth)
}

fn bench_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("octree/construction");
    g.sample_size(20);
    for n in [10_000usize, 40_000] {
        let (coords, depth) = frame_coords(n);
        g.throughput(Throughput::Elements(coords.len() as u64));
        g.bench_with_input(BenchmarkId::new("sequential", n), &coords, |b, coords| {
            b.iter(|| black_box(SequentialOctree::from_coords(black_box(coords), depth)))
        });
        g.bench_with_input(BenchmarkId::new("parallel", n), &coords, |b, coords| {
            b.iter(|| black_box(ParallelOctree::from_coords(black_box(coords), depth)))
        });
    }
    g.finish();
}

fn bench_occupancy_and_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("octree/streams");
    g.sample_size(20);
    let (coords, depth) = frame_coords(40_000);
    let tree = ParallelOctree::from_coords(&coords, depth);
    let threads = Device::jetson_agx_xavier(PowerMode::W15).host_threads();
    g.bench_function("occupancy", |b| {
        let mut occupancy = Vec::new();
        b.iter(|| {
            tree.occupancy_into(threads, &mut occupancy);
            black_box(&occupancy);
        })
    });
    let stream = tree.serialize();
    let limits = Limits::default();
    g.bench_function("decode", |b| {
        b.iter(|| {
            black_box(decode_occupancy_with(black_box(&stream), &limits).expect("valid stream"))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_construction, bench_occupancy_and_decode);
criterion_main!(benches);
