//! Entropy-coding throughput — quantifies the ≈100 ms cost that led the
//! paper to discard entropy coding from its intra pipeline (Sec. IV-B3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcc_entropy::{ByteModel, RangeDecoder, RangeEncoder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn occupancy_like(n: usize) -> Vec<u8> {
    // Occupancy bytes are highly skewed: a few dense values dominate.
    let mut rng = SmallRng::seed_from_u64(9);
    (0..n)
        .map(|_| {
            if rng.random_ratio(4, 5) {
                *[0x03u8, 0x0c, 0x30, 0xc0, 0xff].get(rng.random_range(0..5usize)).unwrap()
            } else {
                rng.random()
            }
        })
        .collect()
}

fn bench_range_coder(c: &mut Criterion) {
    let mut g = c.benchmark_group("entropy/range_coder");
    for n in [16_384usize, 131_072] {
        let data = occupancy_like(n);
        g.throughput(Throughput::Bytes(n as u64));
        g.bench_with_input(BenchmarkId::new("encode", n), &data, |b, data| {
            b.iter(|| {
                let mut model = ByteModel::new();
                let mut enc = RangeEncoder::new();
                for &byte in data {
                    enc.encode_byte(&mut model, black_box(byte));
                }
                black_box(enc.finish())
            })
        });
        let mut model = ByteModel::new();
        let mut enc = RangeEncoder::new();
        for &byte in &data {
            enc.encode_byte(&mut model, byte);
        }
        let coded = enc.finish();
        g.bench_with_input(BenchmarkId::new("decode", n), &coded, |b, coded| {
            b.iter(|| {
                let mut model = ByteModel::new();
                let mut dec = RangeDecoder::new(black_box(coded));
                let out: Vec<u8> = (0..n).map(|_| dec.decode_byte(&mut model)).collect();
                black_box(out)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_range_coder);
criterion_main!(benches);
