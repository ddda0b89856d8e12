//! Two extension features in one walkthrough:
//!
//! 1. **Elementwise packed LUTs** (§VII-A) — LUT reconfigurability beyond
//!    inner products: packed bitwise XOR and saturating add.
//! 2. **Serving-session aggregation** — repeated requests rolled up by the
//!    `engine`'s `ServeRecorder`: one merged ledger, one LUT build.
//!
//! ```sh
//! cargo run --release --example elementwise
//! ```

use engine::{Engine, GemmRequest, ServeRecorder};
use localut::elementwise::ElementwiseLut;
use quant::{NumericFormat, QMatrix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Elementwise packed LUTs (§VII-A) ==\n");
    // Packed XOR: 4 bitwise XORs of 2-bit codes per lookup.
    let xor = ElementwiseLut::xor(2, 4, 1 << 20)?;
    let a = [0u16, 1, 2, 3, 3, 2, 1, 0];
    let b = [3u16, 3, 3, 3, 1, 1, 1, 1];
    println!("  a        = {a:?}");
    println!("  b        = {b:?}");
    println!(
        "  a XOR b  = {:?} ({} entries, {} ops/lookup)",
        xor.apply(&a, &b),
        xor.entry_count(),
        xor.p()
    );

    let sat = ElementwiseLut::saturating_add(3, 2, 1 << 20)?;
    let x = [5u16, 7, 1, 6];
    let y = [4u16, 4, 2, 0];
    println!("  x        = {x:?}");
    println!("  y        = {y:?}");
    println!("  x sat+ y = {:?} (saturates at 7)", sat.apply(&x, &y));

    println!("\n== Serving-session aggregation ==\n");
    // Every charge a kernel issues ends up, in aggregate, on a recorder's
    // merged ledger when requests go through the engine — and repeated
    // requests reuse one cached LUT image.
    let engine = Engine::builder().threads(2).banks(2).build();
    let mut served = ServeRecorder::new();
    for seed in 0..4u64 {
        let w = QMatrix::pseudo_random(16, 24, NumericFormat::Int(2), seed);
        let a = QMatrix::pseudo_random(24, 8, NumericFormat::Int(3), seed + 50);
        served.record_gemm(&engine.submit(&GemmRequest::new(w, a)));
    }
    let summary = served.summary();
    let cache = engine.lut_cache_stats();
    println!(
        "  {} requests: {:.4e} simulated s, {:.3e} J, LUT cache {} hit(s) / {} miss(es)",
        summary.requests,
        summary.stats.total_seconds(),
        summary.energy_pj as f64 * 1e-12,
        cache.hits,
        cache.misses,
    );
    Ok(())
}
