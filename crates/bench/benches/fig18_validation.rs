//! Fig. 18: validating the §IV-D cost model against the simulated system.
//!
//! For W4A4 (p = 1..3) and W2A2 (p = 4..6) at (768, 768, 768) and
//! (3072, 768, 768): the model's "LUT access" and "LUT load" terms (Eq. 2 /
//! Eq. 4) against the full kernel simulation, which additionally charges
//! operand movement — the gap the paper attributes to "factors such as
//! input value loading". The model's argmin should match the simulated
//! argmin (the paper notes one near-tie misprediction at W2A2,
//! (768,768,768): p=5 picked over p=4 with a small difference).

use bench::{banner, Table};
use localut::capacity::max_p_localut;
use localut::kernels::KernelSpec;
use localut::model::PerfModel;
use localut::plan::Placement;
use localut::tiling::TileGrid;
use localut::GemmDims;
use pim_sim::{Category, DpuConfig};
use quant::BitConfig;

fn main() {
    banner("Fig 18", "Cost model validation: predicted vs simulated");
    let dpu = DpuConfig::upmem();
    let model = PerfModel::upmem();
    let cases: [(&str, Vec<u32>); 2] = [("W4A4", vec![1, 2, 3]), ("W2A2", vec![4, 5, 6])];
    let shapes = [
        GemmDims {
            m: 768,
            k: 768,
            n: 768,
        },
        GemmDims {
            m: 3072,
            k: 768,
            n: 768,
        },
    ];

    for (cfg_str, ps) in cases {
        let cfg: BitConfig = cfg_str.parse().expect("valid");
        let (wf, af) = (cfg.weight_format(), cfg.activation_format());
        let p_local = max_p_localut(wf, af, dpu.wram_lut_budget());
        for dims in shapes {
            let grid = TileGrid::choose(dims, 2048);
            let tile = grid.tile_dims(dims);
            println!("\n  {cfg_str}, (M,K,N) = {dims}, per-DPU tile {tile}, p_local = {p_local}");
            let mut table = Table::new(&[
                "p",
                "model LUT access (s)",
                "model LUT load (s)",
                "model total (s)",
                "sim exec time (s)",
            ]);
            let mut best_model = (f64::INFINITY, 0u32);
            let mut best_sim = (f64::INFINITY, 0u32);
            for &p in &ps {
                let (access, load) = if p <= p_local {
                    (model.buffer_seconds(tile, p), 0.0)
                } else {
                    let groups = PerfModel::groups(tile, p) as f64;
                    (
                        tile.m as f64 * groups * model.l_local,
                        2f64.powi(i32::from(cfg.bw) * p as i32) * groups * model.l_d,
                    )
                };
                let placement = if p <= p_local {
                    Placement::BufferResident
                } else {
                    Placement::Streaming
                };
                let Ok(kernel) = KernelSpec::placed(&dpu, wf, af, p, placement, 2) else {
                    table.row(vec![
                        p.to_string(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "infeasible".into(),
                    ]);
                    continue;
                };
                let sim_time = kernel.cost(tile).total_seconds();
                let total = access + load;
                if total < best_model.0 {
                    best_model = (total, p);
                }
                if sim_time < best_sim.0 {
                    best_sim = (sim_time, p);
                }
                table.row(vec![
                    p.to_string(),
                    format!("{access:.4e}"),
                    format!("{load:.4e}"),
                    format!("{total:.4e}"),
                    format!("{sim_time:.4e}"),
                ]);
            }
            table.print();
            println!(
                "  model picks p = {}, simulation picks p = {} {}",
                best_model.1,
                best_sim.1,
                if best_model.1 == best_sim.1 {
                    "[match]"
                } else {
                    "[mispredict — see paper's note]"
                }
            );
        }
    }
    let _ = Category::LutLoad; // categories documented in fig16
}
