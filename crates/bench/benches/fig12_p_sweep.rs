//! Fig. 12: packing-degree sensitivity at W2A2 (K=768, N=128).
//!
//! For M ∈ {192, 768, 3072} and p = 1..6: speedup over Naive PIM and the
//! LUT capacity. Performance rises with p; beyond the buffer-fit degree
//! the design switches to slice streaming, whose benefit depends on M
//! (slice reuse) — at p = 6, larger M recovers the streaming overhead.

use bench::{banner, Table};
use localut::capacity::{localut_bytes, max_p_localut};
use localut::kernels::KernelSpec;
use localut::plan::Placement;
use localut::tiling::TileGrid;
use localut::{GemmConfig, GemmDims, Method};
use pim_sim::DpuConfig;
use quant::{BitConfig, NumericFormat};

fn main() {
    banner(
        "Fig 12",
        "Packing degree (p) sensitivity (K=768, N=128, W2A2)",
    );
    let cfg: BitConfig = "W2A2".parse().expect("valid");
    let (wf, af): (NumericFormat, NumericFormat) = (cfg.weight_format(), cfg.activation_format());
    let dpu = DpuConfig::upmem();
    let p_local = max_p_localut(wf, af, dpu.wram_lut_budget());

    for m in [192usize, 768, 3072] {
        let dims = GemmDims { m, k: 768, n: 128 };
        let grid = TileGrid::choose(dims, 2048);
        let tile = grid.tile_dims(dims);
        let naive = KernelSpec::with_p(&GemmConfig::upmem(), Method::NaivePim, wf, af, 1)
            .expect("integer formats")
            .cost(tile)
            .total_seconds();
        println!("\n  M = {m} (per-DPU tile {tile})");
        let mut table = Table::new(&["p", "placement", "speedup", "capacity (B)"]);
        for p in 1..=6u32 {
            let (label, placement) = if p <= p_local {
                ("buffer", Placement::BufferResident)
            } else {
                ("stream", Placement::Streaming)
            };
            let Ok(kernel) = KernelSpec::placed(&dpu, wf, af, p, placement, 2) else {
                table.row(vec![
                    p.to_string(),
                    "infeasible".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            };
            let seconds = kernel.cost(tile).total_seconds();
            let capacity = localut_bytes(wf, af, p).expect("within range");
            table.row(vec![
                p.to_string(),
                label.into(),
                format!("{:.2}", naive / seconds),
                capacity.to_string(),
            ]);
        }
        table.print();
    }
    println!("\n  buffer-fit p_local = {p_local}; beyond it the design streams slices.");
    println!("  Expected shape: speedup grows with p; at p=6 the streaming overhead is");
    println!("  recovered only for larger M (more slice reuse), as in the paper.");
}
