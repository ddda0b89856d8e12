//! Criterion micro-benchmarks of the core LUT data structures: build and
//! lookup throughput of the canonical/reordering/packed LUTs, multiset
//! ranking, and the streaming kernel's functional path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use localut::canonical::CanonicalLut;
use localut::kernels::KernelSpec;
use localut::multiset;
use localut::packed::OpPackedLut;
use localut::reorder::ReorderLut;
use localut::{GemmConfig, Method};
use quant::{NumericFormat, Quantizer};
use std::hint::black_box;
use std::time::Duration;

const W1: NumericFormat = NumericFormat::Bipolar;
const A3: NumericFormat = NumericFormat::Int(3);

fn bench_lut_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("lut-build");
    g.bench_function("op-packed-w1a3-p3", |b| {
        b.iter(|| OpPackedLut::<i32>::build(W1, A3, black_box(3), 1 << 24).unwrap())
    });
    g.bench_function("canonical-w1a3-p5", |b| {
        b.iter(|| CanonicalLut::<i32>::build(W1, A3, black_box(5), 1 << 24).unwrap())
    });
    g.bench_function("reorder-w1-p5", |b| {
        b.iter(|| ReorderLut::build(1, black_box(5), 1 << 24).unwrap())
    });
    g.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let canon = CanonicalLut::<i32>::build(W1, A3, 5, 1 << 24).unwrap();
    let reorder = ReorderLut::build(1, 5, 1 << 24).unwrap();
    let mut g = c.benchmark_group("lut-lookup");
    g.bench_function("canonical+reorder-chain", |b| {
        b.iter(|| {
            let mut acc = 0i32;
            for row in 0..32u64 {
                for perm in 0..8u64 {
                    let r = reorder.lookup(row, perm);
                    acc = acc.wrapping_add(canon.lookup(r, (row * 7 + perm) % canon.cols()));
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("multiset-rank-roundtrip", |b| {
        b.iter(|| {
            for r in 0..120u64 {
                let codes = multiset::unrank(r, 8, 3).unwrap();
                black_box(multiset::rank(&codes, 8).unwrap());
            }
        })
    });
    g.finish();
}

fn bench_streaming_kernel(c: &mut Criterion) {
    let wq = Quantizer::symmetric(W1);
    let aq = Quantizer::symmetric(A3);
    let wdata: Vec<f32> = (0..64 * 60).map(|i| ((i % 7) as f32) - 3.0).collect();
    let adata: Vec<f32> = (0..60 * 16).map(|i| ((i % 9) as f32) - 4.0).collect();
    let w = wq.quantize_matrix(&wdata, 64, 60).unwrap();
    let a = aq.quantize_matrix(&adata, 60, 16).unwrap();
    let kernel = KernelSpec::with_p(&GemmConfig::upmem(), Method::LoCaLut, W1, A3, 6).unwrap();
    c.bench_function("streaming-kernel-64x60x16", |b| {
        b.iter_batched(
            || (w.clone(), a.clone()),
            |(w, a)| kernel.run(&w, &a, None, None).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    targets = bench_lut_build, bench_lookup, bench_streaming_kernel
}
criterion_main!(benches);
