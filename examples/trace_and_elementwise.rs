//! Three extension features in one walkthrough:
//!
//! 1. **Event tracing** — watch the simulated DPU execute a slice-streaming
//!    pass event by event (the first few events of a kernel-shaped charge
//!    sequence).
//! 2. **Elementwise packed LUTs** (§VII-A) — LUT reconfigurability beyond
//!    inner products: packed bitwise XOR and saturating add.
//! 3. **Serving-session aggregation** — the same event machinery rolled up
//!    by the `engine`'s `ServeRecorder`: repeated requests, one LUT build.
//!
//! ```sh
//! cargo run --release --example trace_and_elementwise
//! ```

use engine::{Engine, GemmRequest, ServeRecorder};
use localut::elementwise::ElementwiseLut;
use pim_sim::{Category, Dpu, DpuConfig};
use quant::{NumericFormat, QMatrix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Event trace of a slice-streaming pass ==\n");
    let mut dpu = Dpu::new(DpuConfig::upmem());
    dpu.enable_trace(64);
    // One K-block with k=2 slices, 8 weight rows: the charge sequence a
    // streaming kernel issues.
    dpu.charge_lut_pair_stream(2 * 64, 2 * 128); // two slice pairs (p=6)
    dpu.charge_dram_stream(8 * 6 / 8 + 1, Category::DataTransfer); // weight block
    dpu.charge_lookup_accum(8 * 2); // 8 rows x 2 groups
    dpu.charge_dram_writeback(8 * 4, Category::OutputWriteback);
    let trace = dpu.take_trace().expect("tracing enabled");
    for event in trace.events() {
        println!("  {event}");
    }
    println!("\n  total simulated time: {:.4e} s", dpu.elapsed_seconds());

    println!("\n== Elementwise packed LUTs (§VII-A) ==\n");
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
    // Every event the trace above showed one at a time ends up, in
    // aggregate, on a recorder's merged ledger when requests go through
    // the engine — and repeated requests reuse one cached LUT image.
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
