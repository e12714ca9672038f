//! Attribute compression: RAHT (the paper's 2-second bottleneck) vs the
//! proposed sort+segment Mid+Residual scheme (Fig. 6, Fig. 8a attribute
//! bars).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcc_bench::Scale;
use pcc_datasets::catalog;
use pcc_edge::{Device, PowerMode};
use pcc_intra::{
    decode_layer_threaded, encode_layer_with_starts_into, segment_starts_into, LayerEncoded,
};
use pcc_morton::MortonCode;
use pcc_types::VoxelizedCloud;
use std::hint::black_box;
use std::num::NonZeroUsize;

struct Workload {
    codes: Vec<MortonCode>,
    attrs: Vec<[f64; 3]>,
    values: Vec<[i32; 3]>,
    weights: Vec<f64>,
    depth: u8,
}

fn workload(points: usize) -> Workload {
    let scale = Scale { points, frames: 1 };
    let video = scale.video(catalog::by_name("Longdress").unwrap());
    let depth = scale.depth();
    let vox = VoxelizedCloud::from_cloud(&video.frame(0).unwrap().cloud, depth);
    let sorted = pcc_morton::sorted_permutation(&vox);
    let gathered = vox.gather(&sorted.perm);
    let mut codes = sorted.codes;
    codes.dedup();
    // One attribute per unique code (drop duplicate voxels' extras).
    let mut attrs = Vec::with_capacity(codes.len());
    let mut values = Vec::with_capacity(codes.len());
    let mut last = None;
    for (rank, c) in sorted
        .perm
        .iter()
        .enumerate()
        .map(|(rank, _)| (rank, gathered.colors()[rank]))
    {
        let code = pcc_morton::encode(gathered.coords()[rank]);
        if last != Some(code) {
            attrs.push([c.r as f64, c.g as f64, c.b as f64]);
            values.push(c.to_i32());
            last = Some(code);
        }
    }
    let weights = vec![1.0; codes.len()];
    Workload { codes, attrs, values, weights, depth }
}

/// The Mid+Residual layer over the paper's ~33 points per segment, at
/// `layer.quant_step`, through the caller's reused buffers.
fn mid_residual(values: &[[i32; 3]], threads: NonZeroUsize, layer: &mut LayerEncoded) {
    let LayerEncoded { bases, residuals, starts, quant_step } = layer;
    segment_starts_into(values.len(), (values.len() / 33).max(1), starts);
    encode_layer_with_starts_into(
        values,
        starts,
        *quant_step,
        threads,
        bases,
        residuals,
        &mut Vec::new(),
    );
}

fn bench_transforms(c: &mut Criterion) {
    let threads = Device::jetson_agx_xavier(PowerMode::W15).host_threads();
    let mut g = c.benchmark_group("attribute/transform");
    g.sample_size(15);
    for n in [10_000usize, 40_000] {
        let w = workload(n);
        g.throughput(Throughput::Elements(w.codes.len() as u64));
        g.bench_with_input(BenchmarkId::new("raht_forward", n), &w, |b, w| {
            b.iter(|| {
                black_box(pcc_raht::forward(
                    black_box(&w.codes),
                    &w.attrs,
                    &w.weights,
                    w.depth,
                    1.0,
                ))
            })
        });
        g.bench_with_input(BenchmarkId::new("mid_residual", n), &w, |b, w| {
            let mut layer =
                LayerEncoded { bases: vec![], residuals: vec![], starts: vec![], quant_step: 4 };
            b.iter(|| {
                mid_residual(black_box(&w.values), threads, &mut layer);
                black_box(&layer.residuals);
            })
        });
        // G-PCC's other attribute methods (paper Sec. II-B3): hierarchical
        // nearest-neighbor prediction across LODs, without and with the
        // wavelet-style update step.
        g.bench_with_input(BenchmarkId::new("predicting", n), &w, |b, w| {
            b.iter(|| {
                black_box(pcc_raht::predicting_forward(black_box(&w.codes), &w.attrs, 1.0))
            })
        });
        g.bench_with_input(BenchmarkId::new("lifting", n), &w, |b, w| {
            b.iter(|| {
                black_box(pcc_raht::lifting_forward(black_box(&w.codes), &w.attrs, 1.0))
            })
        });
    }
    g.finish();
}

fn bench_inverse(c: &mut Criterion) {
    let mut g = c.benchmark_group("attribute/inverse");
    g.sample_size(15);
    let w = workload(20_000);
    let raht = pcc_raht::forward(&w.codes, &w.attrs, &w.weights, w.depth, 1.0);
    g.bench_function("raht_inverse", |b| {
        b.iter(|| {
            black_box(
                pcc_raht::inverse(black_box(&w.codes), &w.weights, &raht, w.depth)
                    .expect("coeffs match"),
            )
        })
    });
    let threads = Device::jetson_agx_xavier(PowerMode::W15).host_threads();
    let mut layer =
        LayerEncoded { bases: vec![], residuals: vec![], starts: vec![], quant_step: 4 };
    mid_residual(&w.values, threads, &mut layer);
    g.bench_function("mid_residual_decode", |b| {
        b.iter(|| black_box(decode_layer_threaded(black_box(&layer), threads)))
    });
    g.finish();
}

criterion_group!(benches, bench_transforms, bench_inverse);
criterion_main!(benches);
