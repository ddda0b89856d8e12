//! Ablation: the LUT capacity budget fraction.
//!
//! §V-A devotes "approximately half" of each memory to LUTs; §VII-B names
//! managing this capacity–performance tradeoff an open challenge. This
//! ablation sweeps the fraction and reports (a) the feasible packing
//! degrees and (b) the resulting LoCaLUT GEMM speedup over Naive PIM —
//! showing where the returns flatten and how much capacity a deployment
//! could give back to model storage. A second table ablates the
//! reordering LUT itself: software reordering (OP+LC) vs the reordering
//! LUT (OP+LC+RC) per packing degree.

use bench::{banner, Table};
use localut::capacity::max_p_localut;
use localut::kernels::KernelSpec;
use localut::tiling::DistributedGemm;
use localut::{GemmConfig, GemmDims, Method};
use pim_sim::DpuConfig;
use quant::BitConfig;

fn main() {
    banner(
        "Ablation A",
        "LUT budget fraction vs feasible p and speedup (W1A3)",
    );
    let cfg: BitConfig = "W1A3".parse().expect("valid");
    let (wf, af) = (cfg.weight_format(), cfg.activation_format());
    let dims = GemmDims {
        m: 3072,
        k: 768,
        n: 128,
    };

    let mut table = Table::new(&["budget fraction", "p_local", "p_DRAM", "speedup vs naive"]);
    for fraction in [0.1f64, 0.2, 0.3, 0.4, 0.5, 0.55, 0.7, 0.9] {
        let mut dpu = DpuConfig::upmem();
        dpu.lut_budget_fraction = fraction;
        let p_local = max_p_localut(wf, af, dpu.wram_lut_budget());
        let p_dram = max_p_localut(wf, af, dpu.bank_lut_budget());
        let mut dist = DistributedGemm::upmem_server();
        dist.gemm.dpu = dpu;
        let speedup = dist
            .speedup_over(Method::LoCaLut, Method::NaivePim, dims, wf, af)
            .map_or("infeasible".to_owned(), |s| format!("{s:.2}"));
        table.row(vec![
            format!("{fraction:.2}"),
            p_local.to_string(),
            p_dram.to_string(),
            speedup,
        ]);
    }
    table.print();
    println!("\n  Expected shape: speedup saturates once p_DRAM stops growing — the");
    println!("  marginal LUT byte buys exponentially less packing (Eq. 1's growth).");

    banner(
        "Ablation B",
        "Reordering LUT vs software reordering per packing degree (W1A3)",
    );
    let gemm = GemmConfig::upmem();
    let tile = GemmDims {
        m: 192,
        k: 768,
        n: 1,
    };
    let seconds = |method, p| {
        KernelSpec::with_p(&gemm, method, wf, af, p)
            .expect("valid p")
            .cost(tile)
            .total_seconds()
    };
    let naive = seconds(Method::NaivePim, 1);
    let mut table = Table::new(&["p", "OP+LC (sw reorder)", "OP+LC+RC", "RC gain"]);
    for p in 1..=5u32 {
        let lc = seconds(Method::OpLc, p);
        let rc = seconds(Method::OpLcRc, p);
        table.row(vec![
            p.to_string(),
            format!("{:.2}x", naive / lc),
            format!("{:.2}x", naive / rc),
            format!("{:.2}x", lc / rc),
        ]);
    }
    table.print();
    println!("\n  Expected shape: the software-reordering penalty grows with p (8p+6");
    println!("  instructions per lookup), so the reordering LUT's advantage widens —");
    println!("  exactly why §IV-B introduces it before raising p further.");
}
