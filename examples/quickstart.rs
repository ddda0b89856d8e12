//! Quickstart: quantize a small GEMM and serve it through the unified
//! `engine` API — every method verified bit-exact against the
//! reference, repeated requests hitting the LUT cache, and simulated
//! times compared.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use engine::{Engine, GemmRequest, ServeRecorder};
use localut::gemm::{reference_gemm, GemmDims, Method};
use quant::{BitConfig, Quantizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("LoCaLUT quickstart: W1A3 GEMM served by the engine session API\n");

    // 1. Make some fp32 data and quantize it to W1A3.
    let cfg: BitConfig = "W1A3".parse()?;
    let dims = GemmDims {
        m: 48,
        k: 64,
        n: 12,
    };
    let mut rng = StdRng::seed_from_u64(42);
    let wdata: Vec<f32> = (0..dims.m * dims.k)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let adata: Vec<f32> = (0..dims.k * dims.n)
        .map(|_| rng.random_range(-4.0..4.0))
        .collect();
    let w = Quantizer::symmetric(cfg.weight_format()).quantize_matrix(&wdata, dims.m, dims.k)?;
    let a =
        Quantizer::symmetric(cfg.activation_format()).quantize_matrix(&adata, dims.k, dims.n)?;

    let scale = w.scale() * a.scale();

    // 2. Build one engine and serve every method, recording each verdict
    //    the way the serving scheduler does; all must agree exactly with
    //    the reference GEMM.
    let engine = Engine::builder().threads(2).banks(4).build();
    let mut served = ServeRecorder::new();
    let mut submit = |request: &GemmRequest| {
        let result = engine.submit(request);
        served.record_gemm(&result);
        result
    };
    let reference: Vec<i32> = reference_gemm(&w, &a)?;
    println!(
        "  {:<10}  {:>14}  {:>9}",
        "method", "sim time (s)", "exact?"
    );
    let naive = submit(&GemmRequest::new(w.clone(), a.clone()).with_method(Method::NaivePim))?;
    let naive_seconds = naive.stats.total_seconds();
    for method in Method::ALL {
        let response = submit(&GemmRequest::new(w.clone(), a.clone()).with_method(method))?;
        let exact = response.values == reference;
        println!(
            "  {:<10}  {:>14.6e}  {:>9}  ({:.2}x vs naive)",
            method.label(),
            response.stats.total_seconds(),
            if exact { "yes" } else { "NO" },
            naive_seconds / response.stats.total_seconds(),
        );
        assert!(exact, "{method} diverged from the reference!");
    }
    let summary = served.summary();
    println!(
        "\n  session: {} requests, {:.3e} J modeled, {} LUT-cache hits / {} misses",
        summary.requests,
        summary.energy_pj as f64 * 1e-12,
        engine.lut_cache_stats().hits,
        engine.lut_cache_stats().misses,
    );

    // 3. A repeated request is served from the cached LUT images and is
    //    bitwise identical.
    let first = engine.submit(&GemmRequest::new(w.clone(), a.clone()))?;
    let again = engine.submit(&GemmRequest::new(w, a))?;
    assert_eq!(first.values, again.values);
    assert_eq!(first.checksum, again.checksum);
    assert_eq!(again.lut_cache, Some(engine::CacheOutcome::Hit));

    // 4. Dequantized outputs approximate the fp32 GEMM.
    let mut fp32 = vec![0.0f32; dims.m * dims.n];
    for m in 0..dims.m {
        for n in 0..dims.n {
            for k in 0..dims.k {
                fp32[m * dims.n + n] += wdata[m * dims.k + k] * adata[k * dims.n + n];
            }
        }
    }
    let rms: f32 = fp32.iter().map(|x| x * x).sum::<f32>().sqrt();
    let rms_err: f32 = reference
        .iter()
        .zip(&fp32)
        .map(|(&q, &f)| (q as f32 * scale - f).powi(2))
        .sum::<f32>()
        .sqrt();
    println!(
        "\n  dequantized output relative RMS error vs fp32: {:.3} at W1A3",
        rms_err / rms
    );
    // For contrast: the same pipeline at W4A4 is much tighter — the error
    // comes from quantization, not from the LUT machinery. Same engine,
    // different formats (they key separately in the LUT cache).
    let cfg4: BitConfig = "W4A4".parse()?;
    let w4 = Quantizer::symmetric(cfg4.weight_format()).quantize_matrix(&wdata, dims.m, dims.k)?;
    let a4 =
        Quantizer::symmetric(cfg4.activation_format()).quantize_matrix(&adata, dims.k, dims.n)?;
    let scale4 = w4.scale() * a4.scale();
    let out4 = engine.submit(&GemmRequest::new(w4, a4))?;
    let err4: f32 = out4
        .values
        .iter()
        .zip(&fp32)
        .map(|(&q, &f)| (q as f32 * scale4 - f).powi(2))
        .sum::<f32>()
        .sqrt();
    println!(
        "  dequantized output relative RMS error vs fp32: {:.3} at W4A4",
        err4 / rms
    );
    Ok(())
}
