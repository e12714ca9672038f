//! Morton-code kernels: encode throughput and sorting strategies.
//!
//! Supports Fig. 4c/8a's geometry stage: code generation is the cheap
//! parallel pre-pass, the sort the first heavy step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcc_edge::{Device, PowerMode};
use pcc_morton::{encode, sort_codes_into, MortonCode, SortScratch, SortedCodes};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_coords(n: usize) -> Vec<pcc_types::VoxelCoord> {
    let mut rng = SmallRng::seed_from_u64(42);
    (0..n)
        .map(|_| {
            pcc_types::VoxelCoord::new(
                rng.random_range(0..1024),
                rng.random_range(0..1024),
                rng.random_range(0..1024),
            )
        })
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("morton/encode");
    for n in [10_000usize, 100_000] {
        let coords = random_coords(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &coords, |b, coords| {
            b.iter(|| {
                let codes: Vec<MortonCode> =
                    coords.iter().map(|&c| encode(black_box(c))).collect();
                black_box(codes)
            })
        });
    }
    g.finish();
}

fn bench_sort(c: &mut Criterion) {
    let threads = Device::jetson_agx_xavier(PowerMode::W15).host_threads();
    let mut g = c.benchmark_group("morton/sort");
    for n in [10_000usize, 100_000] {
        let codes: Vec<MortonCode> = random_coords(n).iter().map(|&c| encode(c)).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("radix", n), &codes, |b, codes| {
            b.iter(|| {
                let mut out = SortedCodes::default();
                sort_codes_into(black_box(codes), threads, &mut SortScratch::new(), &mut out);
                black_box(out)
            })
        });
        g.bench_with_input(BenchmarkId::new("std_unstable", n), &codes, |b, codes| {
            b.iter(|| {
                let mut v: Vec<u64> = codes.iter().map(|c| c.value()).collect();
                v.sort_unstable();
                black_box(v)
            })
        });
        // Frame-loop shape: the encoder sorts every frame, so the scratch
        // (ping-pong buffers + histogram matrix) and the output are reused
        // across calls instead of reallocated. Compare against the `radix`
        // case above, which allocates fresh buffers per sort.
        g.bench_with_input(BenchmarkId::new("radix_reused_scratch", n), &codes, |b, codes| {
            let mut scratch = SortScratch::new();
            let mut out = SortedCodes::default();
            b.iter(|| {
                sort_codes_into(black_box(codes), threads, &mut scratch, &mut out);
                black_box(&out.perm);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_encode, bench_sort);
criterion_main!(benches);
