//! The paper's evaluation, as one checked registry.
//!
//! Every figure of DESIGN.md §9 (Fig. 3, 6, 9–21) plus the LUT-budget
//! ablation is a plain function here. Each reruns its experiment on the
//! simulator and fills a [`Report`]: the [`Table`]s the paper plots, and
//! the [`Claim`]s that hold a number the paper states against the number
//! this tree simulates. `bench-runner --figures` prints the reports and
//! writes [`fidelity_markdown`] to the checked-in `FIGURES.md`;
//! `tests/paper_figures.rs` runs the whole registry and fails when a
//! claim leaves its recorded band.
//!
//! A claim the paper makes only in words ("beats the CPU everywhere") is
//! held as a count — *how many of the N plotted points agree* — with the
//! paper's side being the count its sentence implies.

use crate::{pq_model_cost, Table};
use dnn::tasks::SyntheticTask;
use dnn::{InferenceSim, ModelConfig, Phase, Workload};
use localut::capacity::{
    canonical_lut_bytes, entry_bytes, localut_bytes, max_p_localut, max_p_op, op_lut_bytes,
    reorder_lut_bytes,
};
use localut::kernels::KernelSpec;
use localut::model::PerfModel;
use localut::plan::{Placement, Planner};
use localut::tiling::{DistributedGemm, TileGrid};
use localut::{GemmConfig, GemmDims, Method};
use pim_sim::banklevel::BankLevelPim;
use pim_sim::{Category, DpuConfig, DpuTimings, EnergyModel};
use pq::{PqConfig, PqCostModel, PqEngine, PqVariant};
use quant::{BitConfig, NumericFormat};
use std::fmt;
use xpu::XpuModel;

/// What a figure function can fail with: a rejected claim or series, or
/// any layer's own error (an arm the evaluation needs turned infeasible).
pub type Error = Box<dyn std::error::Error>;

/// The DESIGN.md §10 substitution a simulated number passes through.
/// `None` on a [`Claim`] means closed-form arithmetic that depends on no
/// substitution (capacities, feasible packing degrees).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caveat {
    /// UPMEM server (and the Ramulator bank-level setup) → `pim-sim`'s
    /// profiled constants and first-order estimates.
    PimSim,
    /// Undisclosed energy meter → published per-event energies and TDPs.
    EnergyConstants,
    /// GLUE / ImageNet accuracy → synthetic linear-teacher tasks.
    SyntheticTasks,
    /// Measured CPU/GPU → roofline models (`crates/xpu`).
    Roofline,
}

impl fmt::Display for Caveat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Caveat::PimSim => "pim-sim timing",
            Caveat::EnergyConstants => "energy constants",
            Caveat::SyntheticTasks => "synthetic tasks",
            Caveat::Roofline => "CPU/GPU roofline",
        })
    }
}

/// Why a fidelity number was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimError {
    /// A summary over no points.
    EmptySeries,
    /// A value that is not a usable number where one is required.
    BadValue {
        /// Which quantity.
        what: String,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ClaimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClaimError::EmptySeries => f.write_str("summary over an empty series"),
            ClaimError::BadValue { what, value } => write!(f, "{what} is {value}"),
        }
    }
}

impl std::error::Error for ClaimError {}

/// Geometric mean of a series of positive finite values.
///
/// # Errors
///
/// [`ClaimError::EmptySeries`] on no values; [`ClaimError::BadValue`] on a
/// NaN, infinite, zero or negative one (an infeasible arm, say) — a
/// summary must not fold those into a plausible-looking number.
pub fn geomean(xs: &[f64]) -> Result<f64, ClaimError> {
    if xs.is_empty() {
        return Err(ClaimError::EmptySeries);
    }
    if let Some(i) = xs.iter().position(|x| !(x.is_finite() && *x > 0.0)) {
        return Err(ClaimError::BadValue {
            what: format!("geomean input #{i}"),
            value: xs[i],
        });
    }
    Ok((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// How a claim's two numbers print: the precision and suffix the figure
/// has always used for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    digits: usize,
    suffix: &'static str,
}

impl Unit {
    /// `digits` decimals followed by `suffix`.
    #[must_use]
    pub const fn new(digits: usize, suffix: &'static str) -> Self {
        Unit { digits, suffix }
    }

    fn show(self, value: f64) -> String {
        format!("{value:.prec$}{}", self.suffix, prec = self.digits)
    }
}

/// One number the paper states, held against the simulated one. Fields
/// are readable, but the private `unit` leaves [`Claim::new`] — which
/// refuses a non-finite number — the only way to make one.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Registry name of the figure the claim belongs to.
    pub figure: &'static str,
    /// What is being compared.
    pub what: String,
    /// The paper's number.
    pub paper: f64,
    /// This tree's simulated number.
    pub measured: f64,
    /// The closed interval `measured` was recorded to lie in.
    pub band: (f64, f64),
    /// The §10 substitution the simulated number passes through.
    pub caveat: Option<Caveat>,
    unit: Unit,
}

impl Claim {
    /// Builds a claim.
    ///
    /// # Errors
    ///
    /// [`ClaimError::BadValue`] when `paper`, `measured` or a band edge is
    /// not finite, or the band is inverted.
    pub fn new(
        figure: &'static str,
        what: &str,
        unit: Unit,
        paper: f64,
        measured: f64,
        band: (f64, f64),
        caveat: Option<Caveat>,
    ) -> Result<Self, ClaimError> {
        let bad = |name: &str, value| ClaimError::BadValue {
            what: format!("{figure}: {what}: {name}"),
            value,
        };
        for (name, value) in [
            ("paper", paper),
            ("measured", measured),
            ("band low", band.0),
            ("band high", band.1),
        ] {
            if !value.is_finite() {
                return Err(bad(name, value));
            }
        }
        if band.0 > band.1 {
            return Err(bad("band low above band high", band.0));
        }
        Ok(Claim {
            figure,
            what: what.to_owned(),
            paper,
            measured,
            band,
            caveat,
            unit,
        })
    }

    /// Whether the simulated number is still inside its recorded band.
    #[must_use]
    pub fn holds(&self) -> bool {
        (self.band.0..=self.band.1).contains(&self.measured)
    }

    /// `measured / paper` (`None` when the paper's number is zero).
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        (self.paper != 0.0).then(|| self.measured / self.paper)
    }
}

/// The line a failed band check reports.
impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (Claim { figure, what, .. }, (lo, hi)) = (self, self.band);
        let (paper, measured) = (self.unit.show(self.paper), self.measured);
        write!(
            f,
            "{figure}: {what}: simulated {measured} (paper {paper}), recorded band [{lo}, {hi}]"
        )
    }
}

/// One `(what, unit, paper, measured, band, caveat)` line of a figure.
type ClaimRow<'a> = (&'a str, Unit, f64, f64, (f64, f64), Option<Caveat>);

/// What one figure produced: captioned tables and fidelity claims.
#[derive(Debug)]
pub struct Report {
    /// The registry entry that produced it.
    pub figure: &'static Figure,
    /// `(caption, table)` in print order; a lone table's caption is empty.
    pub tables: Vec<(String, Table)>,
    /// The figure's paper-vs-simulated rows.
    pub claims: Vec<Claim>,
}

impl Report {
    fn table(&mut self, caption: impl Into<String>, table: Table) {
        self.tables.push((caption.into(), table));
    }

    fn claims(&mut self, rows: &[ClaimRow]) -> Result<(), Error> {
        for &(what, unit, paper, measured, band, caveat) in rows {
            let name = self.figure.name;
            let claim = Claim::new(name, what, unit, paper, measured, band, caveat)?;
            self.claims.push(claim);
        }
        Ok(())
    }
}

/// One entry of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Registry name (`fig09`, `ablation_budget`); the function's name.
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    body: fn(&mut Report) -> Result<(), Error>,
}

impl Figure {
    /// Reruns the experiment.
    ///
    /// # Errors
    ///
    /// A rejected claim or series, or an arm the figure needs turning
    /// infeasible.
    pub fn run(&'static self) -> Result<Report, Error> {
        let mut report = Report {
            figure: self,
            tables: Vec::new(),
            claims: Vec::new(),
        };
        (self.body)(&mut report)?;
        Ok(report)
    }
}

/// Every figure, in paper order.
#[must_use]
pub fn registry() -> &'static [Figure] {
    macro_rules! figures {
        ($($body:ident: $title:literal,)*) => {
            &[$(Figure { name: stringify!($body), title: $title, body: $body }),*]
        };
    }
    figures! {
        fig03: "Fig 3(c): DRAM- vs buffer-sized operation-packed LUT (512x512x512, W1A3, 1 DPU)",
        fig06: "Fig 6: LUT capacity vs packing degree (W1A3)",
        fig09: "Fig 9: GEMM speedup over Naive PIM (2048 DPUs)",
        fig10: "Fig 10: End-to-end DNN speedup over Naive PIM",
        fig11: "Fig 11: Speedup over Naive PIM vs weight matrix size (N=128)",
        fig12: "Fig 12: Packing degree (p) sensitivity (K=768, N=128, W2A2)",
        fig13: "Fig 13: Sensitivity to the k slice count (normalized to k=1)",
        fig14: "Fig 14: Inference energy (J) by method",
        fig15: "Fig 15: Speedup vs accuracy: LoCaLUT vs PQ-based LUT methods",
        fig16: "Fig 16: Execution-time breakdowns (BERT phases; the LoCaLUT kernel)",
        fig17: "Fig 17: GEMM vs CPU/GPU (M=12288, K=192, N=65536)",
        fig18: "Fig 18: Cost model validation: predicted vs simulated",
        fig19: "Fig 19: Serving scenarios: prefill/decode phases and batch sweep",
        fig20: "Fig 20: Bank-level PIM: LUT units vs 16-lane SIMD (speedup)",
        fig21: "Fig 21: Floating-point support: speedup over HBM-PIM, accuracy vs p",
        ablation_budget: "Ablation (§V-A, §VII-B): LUT budget fraction; reordering LUT (W1A3)",
    }
}

/// The figures whose name contains `filter` (all of them on `None`).
#[must_use]
pub fn select(filter: Option<&str>) -> Vec<&'static Figure> {
    registry()
        .iter()
        .filter(|f| filter.is_none_or(|s| f.name.contains(s)))
        .collect()
}

/// The paper-fidelity table over `reports`: one row per claim.
#[must_use]
pub fn fidelity_table(reports: &[Report]) -> Table {
    let mut table = Table::new(&["figure", "claim", "paper", "simulated", "ratio", "caveat"]);
    for claim in reports.iter().flat_map(|r| &r.claims) {
        table.row(vec![
            claim.figure.to_owned(),
            claim.what.clone(),
            claim.unit.show(claim.paper),
            claim.unit.show(claim.measured),
            claim.ratio().map_or("-".into(), |r| format!("{r:.2}")),
            claim.caveat.map_or("-".into(), |c| c.to_string()),
        ]);
    }
    table
}

/// The text of the checked-in `FIGURES.md`: the fidelity table, then
/// every table of every figure, so a change to any reproduced cell shows
/// up as a diff of that file.
#[must_use]
pub fn fidelity_markdown(reports: &[Report]) -> String {
    let mut text = format!(
        "# FIGURES — the paper's numbers against this tree's\n\
         \n\
         Generated by `bench-runner --figures --out FIGURES.md`; do not edit by hand.\n\
         `tests/paper_figures.rs` regenerates it byte for byte and holds every\n\
         *simulated* value to the band recorded beside it in\n\
         `crates/bench/src/figures.rs` (the value below ± 5 %).\n\
         \n\
         One row per number the paper states. *ratio* is simulated ÷ paper. A row\n\
         that quotes a sentence rather than a number counts the plotted points that\n\
         agree with it. *caveat* names the DESIGN.md §10 substitution the simulated\n\
         value passes through (`-`: closed-form arithmetic, none applies); every\n\
         ratio outside 0.80–1.25 carries one.\n\
         \n\
         {:#}\n\
         # The reproduced series\n",
        fidelity_table(reports)
    );
    for report in reports {
        text += &format!("\n## {}: {}\n", report.figure.name, report.figure.title);
        for (caption, table) in &report.tables {
            if !caption.is_empty() {
                text += &format!("\n{caption}\n");
            }
            text += &format!("\n{table:#}");
        }
    }
    text
}

// ---------------------------------------------------------------------
// Setup the figures share.
// ---------------------------------------------------------------------

const W1: NumericFormat = NumericFormat::Bipolar;
const A3: NumericFormat = NumericFormat::Int(3);
/// A ratio, `2.95x`.
const X: Unit = Unit::new(2, "x");
/// A count or a packing degree, `6`.
const N: Unit = Unit::new(0, "");
const PIM: Option<Caveat> = Some(Caveat::PimSim);
const ENERGY: Option<Caveat> = Some(Caveat::EnergyConstants);
const TASKS: Option<Caveat> = Some(Caveat::SyntheticTasks);
const ROOFLINE: Option<Caveat> = Some(Caveat::Roofline);
const PLOTTED_METHODS: [Method; 4] = [Method::NaivePim, Method::Ltc, Method::Op, Method::LoCaLut];
const W1A3: BitConfig = BitConfig { bw: 1, ba: 3 };
const W1A4: BitConfig = BitConfig { bw: 1, ba: 4 };
const W2A2: BitConfig = BitConfig { bw: 2, ba: 2 };
const W4A4: BitConfig = BitConfig { bw: 4, ba: 4 };

/// The band of a value recorded as `recorded`: ± 5 %.
fn near(recorded: f64) -> (f64, f64) {
    (recorded * 0.95, recorded * 1.05)
}

/// A bit configuration's weight and activation formats.
fn formats(cfg: BitConfig) -> (NumericFormat, NumericFormat) {
    (cfg.weight_format(), cfg.activation_format())
}

/// The seven model × bitwidth cases of Fig. 10, 13 and 14.
fn model_cases() -> [(ModelConfig, BitConfig); 7] {
    let (bert, vit, opt) = (
        ModelConfig::bert_base,
        ModelConfig::vit_base,
        ModelConfig::opt_125m,
    );
    [
        (bert(), W1A3),
        (bert(), W1A4),
        (bert(), W2A2),
        (bert(), W4A4),
        (vit(), W2A2),
        (vit(), W4A4),
        (opt(), W4A4),
    ]
}

fn dims(m: usize, k: usize, n: usize) -> GemmDims {
    GemmDims { m, k, n }
}

/// The per-DPU tile of `dims` on the 2048-DPU server.
fn dpu_tile(dims: GemmDims) -> GemmDims {
    TileGrid::choose(dims, 2048).tile_dims(dims)
}

/// Naive-PIM kernel seconds on one tile: the per-tile sweeps' normaliser.
fn naive_tile_seconds(tile: GemmDims, wf: NumericFormat, af: NumericFormat) -> Result<f64, Error> {
    let naive = KernelSpec::with_p(&GemmConfig::upmem(), Method::NaivePim, wf, af, 1)?;
    Ok(naive.cost(tile).total_seconds())
}

/// The kernel a `p` sweep prices at degree `p` with `k = 2` slices:
/// buffer-resident up to `p_local`, streaming beyond (`None`: infeasible).
fn placed(
    dpu: &DpuConfig,
    (wf, af): (NumericFormat, NumericFormat),
    p: u32,
    p_local: u32,
) -> (&'static str, Option<KernelSpec>) {
    let (label, placement) = if p <= p_local {
        ("buffer", Placement::BufferResident)
    } else {
        ("stream", Placement::Streaming)
    };
    (label, KernelSpec::placed(dpu, wf, af, p, placement, 2).ok())
}

/// How many adjacent pairs of `xs` strictly increase.
fn rises(xs: &[f64]) -> f64 {
    xs.windows(2).filter(|w| w[1] > w[0]).count() as f64
}

/// How many of `xs` satisfy `pred`.
fn count<T>(xs: &[T], pred: impl Fn(&T) -> bool) -> f64 {
    xs.iter().filter(|x| pred(x)).count() as f64
}

fn peak(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

// ---------------------------------------------------------------------
// The figures.
// ---------------------------------------------------------------------

/// Fig. 3(c): a 512×512×512 W1A3 GEMM on one DPU, `p = 1..6`. The
/// DRAM-sized LUT pays a row activation + DMA setup per lookup; the
/// buffer-sized LUT pays WRAM accesses but is capacity-capped (§V-A).
fn fig03(out: &mut Report) -> Result<(), Error> {
    let cfg = DpuConfig::upmem();
    let t = DpuTimings::upmem();
    let dram_lookup_s = (t.row_activate_cycles + t.dma_setup_cycles + 2.0 / t.dram_bytes_per_cycle)
        * t.cycle_seconds();
    let buf_lookup_s = t.instruction_seconds(u64::from(cfg.processor.costs.op_lookup));
    let p_dram_max = max_p_op(W1, A3, cfg.bank_lut_budget());
    let p_buf_max = max_p_op(W1, A3, cfg.wram_lut_budget());

    let mut table = Table::new(&[
        "p",
        "DRAM-sized LUT (s)",
        "Buffer-sized LUT (s)",
        "DRAM LUT bytes",
    ]);
    for p in 1..=6u32 {
        let lookups = 512 * 512u64.div_ceil(u64::from(p)) * 512;
        let seconds = |per_lookup: f64, p_max: u32| {
            if p <= p_max {
                format!("{:.3}", lookups as f64 * per_lookup)
            } else {
                "infeasible".into()
            }
        };
        table.row(vec![
            p.to_string(),
            seconds(dram_lookup_s, p_dram_max),
            seconds(buf_lookup_s, p_buf_max),
            op_lut_bytes(W1, A3, p).map_or("overflow".into(), |b| b.to_string()),
        ]);
    }
    out.table("", table);
    // Both curves scale with the same lookup count, so wherever both fit
    // the per-lookup cost decides.
    let both_fit = f64::from(p_dram_max.min(p_buf_max));
    let buffer_wins = if buf_lookup_s < dram_lookup_s {
        both_fit
    } else {
        0.0
    };
    let (p_dram_max, p_buf_max) = (f64::from(p_dram_max), f64::from(p_buf_max));
    #[rustfmt::skip]
    let rows = [
        ("largest feasible p, DRAM-sized LUT", N, 6.0, p_dram_max, near(6.0), None),
        ("largest feasible p, buffer-sized LUT", N, 3.0, p_buf_max, near(3.0), None),
        ("degrees both fit where the buffer-sized LUT is faster", N, 3.0, buffer_wins, near(3.0), PIM),
    ];
    out.claims(&rows)
}

/// Fig. 6: the four capacity curves and the total reduction rate, which
/// the paper reports as 1.68× (p = 2) rising to ~358× (p = 8).
fn fig06(out: &mut Report) -> Result<(), Error> {
    let mut table = Table::new(&[
        "p",
        "op-packed (B)",
        "canonical (B)",
        "reordering (B)",
        "canonical+reordering (B)",
        "reduction rate",
    ]);
    let mut reductions = Vec::new();
    for p in 2..=8u32 {
        let closed_form = |bytes: Option<u128>| bytes.ok_or("Fig. 6 footprint overflowed");
        let op = closed_form(op_lut_bytes(W1, A3, p))?;
        let total = closed_form(localut_bytes(W1, A3, p))?;
        let reduction = op as f64 / total as f64;
        reductions.push(reduction);
        table.row(vec![
            p.to_string(),
            op.to_string(),
            closed_form(canonical_lut_bytes(W1, A3, p))?.to_string(),
            closed_form(reorder_lut_bytes(W1, p))?.to_string(),
            total.to_string(),
            format!("{reduction:.2}x"),
        ]);
    }
    out.table("", table);
    let x1 = Unit::new(1, "x");
    #[rustfmt::skip]
    let rows = [
        ("total reduction at p=2", X, 1.68, reductions[0], near(1.68), None),
        ("total reduction at p=8", x1, 358.0, reductions[6], near(358.8), None),
    ];
    out.claims(&rows)
}

/// Fig. 9: the six methods × four bit configs × two shapes, normalised to
/// Naive PIM on the 2048-DPU system.
fn fig09(out: &mut Report) -> Result<(), Error> {
    let dist = DistributedGemm::upmem_server();
    let (mut over_naive, mut over_ltc) = (Vec::new(), Vec::new());
    for shape in [dims(768, 768, 128), dims(3072, 768, 128)] {
        let mut table = Table::new(&[
            "config",
            "Naive PIM",
            "LTC (PIM)",
            "OP",
            "OP+LC",
            "OP+LC+RC",
            "LoCaLUT",
        ]);
        for cfg in BitConfig::paper_integer_configs() {
            let (wf, af) = formats(cfg);
            let naive = dist.cost(Method::NaivePim, shape, wf, af)?.total_seconds();
            // An infeasible arm prints as such, and its NaN makes geomean
            // refuse any summary that would fold it.
            let speedups = Method::ALL.map(|method| {
                dist.cost(method, shape, wf, af)
                    .map_or(f64::NAN, |c| naive / c.total_seconds())
            });
            let mut cells = vec![cfg.to_string()];
            cells.extend(speedups.map(|s| match s.is_nan() {
                true => "infeasible".into(),
                false => format!("{s:.2}"),
            }));
            table.row(cells);
            let (ltc, localut) = (speedups[1], speedups[5]);
            over_naive.push(localut);
            over_ltc.push(localut / ltc);
        }
        out.table(format!("(M, K, N) = {shape}"), table);
    }
    let (g_naive, g_ltc) = (geomean(&over_naive)?, geomean(&over_ltc)?);
    #[rustfmt::skip]
    let rows = [
        ("geomean LoCaLUT over Naive PIM", X, 2.87, g_naive, near(2.95), PIM),
        ("geomean LoCaLUT over LTC", X, 1.77, g_ltc, near(1.84), PIM),
        ("peak LoCaLUT over Naive PIM", X, 4.73, peak(&over_naive), near(4.74), PIM),
        ("peak LoCaLUT over LTC", X, 1.93, peak(&over_ltc), near(2.16), PIM),
    ];
    out.claims(&rows)
}

/// Fig. 10: BERT / ViT / OPT prefill at batch 32, the four plotted
/// methods normalised to Naive PIM.
fn fig10(out: &mut Report) -> Result<(), Error> {
    let sim = InferenceSim::upmem_server();
    let mut table = Table::new(&["model", "config", "Naive PIM", "LTC (PIM)", "OP", "LoCaLUT"]);
    let (mut over_naive, mut over_ltc, mut over_op) = (Vec::new(), Vec::new(), Vec::new());
    for (model, cfg) in model_cases() {
        let mut cells = vec![model.name.to_owned(), cfg.to_string()];
        let wl = Workload::prefill(model, 32);
        let naive = sim.run(Method::NaivePim, cfg, &wl)?.total_seconds();
        let mut speeds = Vec::new();
        for method in PLOTTED_METHODS {
            speeds.push(naive / sim.run(method, cfg, &wl)?.total_seconds());
        }
        cells.extend(speeds.iter().map(|s| format!("{s:.2}")));
        table.row(cells);
        over_naive.push(speeds[3]);
        over_ltc.push(speeds[3] / speeds[1]);
        over_op.push(speeds[3] / speeds[2]);
    }
    out.table("", table);
    let (g_naive, g_ltc) = (geomean(&over_naive)?, geomean(&over_ltc)?);
    let gain = (geomean(&over_op)? - 1.0) * 100.0;
    let pct = Unit::new(0, "%");
    #[rustfmt::skip]
    let rows = [
        ("geomean LoCaLUT over Naive PIM", X, 1.77, g_naive, near(2.45), PIM),
        ("geomean LoCaLUT over LTC", X, 1.82, g_ltc, near(1.99), PIM),
        ("LoCaLUT optimizations over OP, gain", pct, 22.0, gain, near(44.0), PIM),
    ];
    out.claims(&rows)
}

/// Fig. 11: LoCaLUT speedup over Naive PIM as a heat map over
/// M, K ∈ {128..1024} at N = 128, for W1A3 and W2A2.
fn fig11(out: &mut Report) -> Result<(), Error> {
    let dist = DistributedGemm::upmem_server();
    let sizes = [128usize, 256, 384, 512, 640, 768, 896, 1024];
    for (cfg, recorded) in [(W1A3, 2.96), (W2A2, 2.31)] {
        let (wf, af) = formats(cfg);
        let mut header = vec!["M\\K".to_owned()];
        header.extend(sizes.map(|k| k.to_string()));
        let header: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(&header);
        let mut all = Vec::new();
        for m in sizes {
            let mut cells = vec![m.to_string()];
            for k in sizes {
                let shape = dims(m, k, 128);
                let s = dist.speedup_over(Method::LoCaLut, Method::NaivePim, shape, wf, af)?;
                all.push(s);
                cells.push(format!("{s:.2}"));
            }
            table.row(cells);
        }
        out.table(format!("{cfg} (rows: M, cols: K)"), table);
        let (mean, above_one) = (geomean(&all)?, count(&all, |s| *s > 1.0));
        let mean_of = format!("{cfg} geomean over the 8x8 sizes");
        let above_of = format!("{cfg} sizes (of 64) above 1x");
        out.claims(&[
            (&mean_of, X, 2.86, mean, near(recorded), PIM),
            (&above_of, N, 64.0, above_one, near(64.0), PIM),
        ])?;
    }
    Ok(())
}

/// Fig. 12: W2A2 at K = 768, N = 128 for M ∈ {192, 768, 3072}, `p = 1..6`.
/// Beyond the buffer-fit degree the design streams slices, whose benefit
/// depends on M (slice reuse).
fn fig12(out: &mut Report) -> Result<(), Error> {
    let (wf, af) = formats(W2A2);
    let dpu = DpuConfig::upmem();
    let p_local = max_p_localut(wf, af, dpu.wram_lut_budget());
    let mut buffer_rises = 0.0;
    let mut at_p6 = Vec::new();
    for m in [192usize, 768, 3072] {
        let tile = dpu_tile(dims(m, 768, 128));
        let naive = naive_tile_seconds(tile, wf, af)?;
        let mut table = Table::new(&["p", "placement", "speedup", "capacity (B)"]);
        let mut speedups = Vec::new();
        for p in 1..=6u32 {
            let (label, kernel) = placed(&dpu, (wf, af), p, p_local);
            let (Some(kernel), Some(capacity)) = (kernel, localut_bytes(wf, af, p)) else {
                let cells = [&p.to_string(), "infeasible", "-", "-"];
                table.row(cells.map(str::to_owned).to_vec());
                continue;
            };
            let speedup = naive / kernel.cost(tile).total_seconds();
            speedups.push(speedup);
            table.row(vec![
                p.to_string(),
                label.into(),
                format!("{speedup:.2}"),
                capacity.to_string(),
            ]);
        }
        out.table(format!("M = {m} (per-DPU tile {tile})"), table);
        buffer_rises += rises(&speedups[..speedups.len().min(p_local as usize)]);
        at_p6.push(*speedups.last().ok_or(ClaimError::EmptySeries)?);
    }
    let p6_rises = rises(&at_p6);
    #[rustfmt::skip]
    let rows = [
        ("buffer-resident steps p -> p+1 (of 9) that speed up", N, 9.0, buffer_rises, near(9.0), PIM),
        ("steps in M (of 2) where p=6 streaming recovers more", N, 2.0, p6_rises, near(2.0), PIM),
    ];
    out.claims(&rows)
}

/// Fig. 13: k ∈ {1, 2, 4, 8} co-resident slices, normalised to k = 1.
/// Batch 128 gives each DPU an 8-column N-tile, enough for the k-slice
/// weight-stream reuse to keep paying off through k = 8 (at batch 32 the
/// per-DPU tile is ~2 columns and W1Ax saturates at k = 2).
fn fig13(out: &mut Report) -> Result<(), Error> {
    let mut table = Table::new(&["model", "config", "k=1", "k=2", "k=4", "k=8"]);
    let (mut w1, mut wider) = (Vec::new(), Vec::new());
    for (model, cfg) in model_cases() {
        let mut cells = vec![model.name.to_owned(), cfg.to_string()];
        let wl = Workload::prefill(model, 128);
        let mut times = Vec::new();
        for k in [1u32, 2, 4, 8] {
            let mut sim = InferenceSim::upmem_server();
            sim.dist.gemm.k_slices = k;
            times.push(sim.run(Method::LoCaLut, cfg, &wl)?.total_seconds());
        }
        let speedups: Vec<f64> = times.iter().map(|t| times[0] / t).collect();
        cells.extend(speedups.iter().map(|s| format!("{s:.3}")));
        table.row(cells);
        match cfg.bw {
            1 => w1.push(speedups),
            _ => wider.push(speedups),
        }
    }
    out.table("", table);
    let climbing = count(&w1, |s| rises(s) == 3.0);
    let k4_below_k2 = count(&wider, |s| s[2] < s[1]);
    let k4_below_k1 = count(&wider, |s| s[2] < 1.0);
    #[rustfmt::skip]
    let rows = [
        ("W1Ax cases (of 2) still climbing through k=8", N, 2.0, climbing, near(2.0), PIM),
        ("W2A2/W4A4 cases (of 5): k=4 slower than k=2", N, 5.0, k4_below_k2, near(5.0), PIM),
        ("W2A2/W4A4 cases (of 5): k=4 a slowdown vs k=1", N, 5.0, k4_below_k1, near(3.0), PIM),
    ];
    out.claims(&rows)
}

/// Fig. 14: full-model inference energy by method. Absolute Joules depend
/// on the meter; ratios are the reproduction target.
fn fig14(out: &mut Report) -> Result<(), Error> {
    let sim = InferenceSim::upmem_server();
    let energy_model = EnergyModel::upmem();
    let sys = sim.dist.system.config().clone();
    let mut table = Table::new(&[
        "model",
        "config",
        "Naive-PIM",
        "LTC",
        "OP-LUT",
        "LoCaLUT",
        "Naive/LoCaLUT",
    ]);
    let (mut w1_naive, mut w1_ltc, mut w2_op, mut w4_naive) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (model, cfg) in model_cases() {
        let mut cells = vec![model.name.to_owned(), cfg.to_string()];
        let wl = Workload::prefill(model, 32);
        let mut joules = Vec::new();
        for method in PLOTTED_METHODS {
            let report = sim.run(method, cfg, &wl)?;
            joules.push(energy_model.system_energy(&sys, &report.profile).total_j());
        }
        let ratio = joules[0] / joules[3];
        cells.extend(joules.iter().map(|j| format!("{j:.2}")));
        cells.push(format!("{ratio:.2}x"));
        table.row(cells);
        match cfg.bw {
            2 => w2_op.push(joules[2] / joules[3]),
            4 => w4_naive.push(ratio),
            _ => {
                w1_naive.push(ratio);
                w1_ltc.push(joules[1] / joules[3]);
            }
        }
    }
    out.table("", table);
    let (w1_naive, w1_ltc) = (geomean(&w1_naive)?, geomean(&w1_ltc)?);
    let (w2_op, w4_naive) = (geomean(&w2_op)?, geomean(&w4_naive)?);
    #[rustfmt::skip]
    let rows = [
        ("W1Ax: energy reduction vs Naive PIM", X, 3.37, w1_naive, near(3.38), ENERGY),
        ("W1Ax: energy reduction vs LTC", X, 1.88, w1_ltc, near(1.49), ENERGY),
        ("W2A2: energy reduction vs OP (paper: parity)", X, 1.0, w2_op, near(1.12), ENERGY),
        ("W4A4: energy reduction vs Naive PIM", X, 1.16, w4_naive, near(1.71), ENERGY),
    ];
    out.claims(&rows)
}

/// Fig. 15: for four GLUE-stand-in tasks, LoCaLUT at four bit configs
/// (quantized-pipeline accuracy, BERT speedup over Naive PIM) against
/// PIM-DL and LUT-DLA (real PQ approximation accuracy, PQ system speedup).
/// Speedups are task-independent, as the paper notes.
fn fig15(out: &mut Report) -> Result<(), Error> {
    let sim = InferenceSim::upmem_server();
    let pq_cost = PqCostModel::upmem_server();
    let model = ModelConfig::bert_base();
    let wl = Workload::prefill(model.clone(), 32);
    let naive = sim.run(Method::NaivePim, W1A3, &wl)?.total_seconds();
    let mut localut_speed = Vec::new();
    for cfg in BitConfig::paper_integer_configs() {
        let t = sim.run(Method::LoCaLut, cfg, &wl)?.total_seconds();
        localut_speed.push((cfg, naive / t));
    }
    let pq_speed = [PqVariant::PimDl, PqVariant::LutDlaL1, PqVariant::LutDlaL2].map(|variant| {
        let cost = pq_model_cost(&model, 32, &PqConfig::standard(variant), &pq_cost);
        (variant, naive / cost.total_seconds())
    });

    let mut dominated = 0.0;
    for task in SyntheticTask::glue_suite() {
        let data = task.generate(512);
        let mut table = Table::new(&["method", "accuracy (%)", "speedup"]);
        let mut ours = Vec::new();
        for &(cfg, speed) in &localut_speed {
            let acc = data.quantized_accuracy(cfg)?;
            ours.push((acc, speed));
            table.row(vec![
                format!("LoCaLUT {cfg}"),
                format!("{:.1}", 100.0 * acc),
                format!("{speed:.2}"),
            ]);
        }
        for &(variant, speed) in &pq_speed {
            let engine = PqEngine::fit(
                PqConfig::standard(variant),
                &data.teacher,
                data.classes,
                data.dim,
                &data.features,
                data.samples,
            )?;
            let scores = engine.gemm(&data.features, data.samples)?;
            let acc = data.accuracy_of_scores(&scores);
            table.row(vec![
                variant.label().to_owned(),
                format!("{:.1}", 100.0 * acc),
                format!("{speed:.2}"),
            ]);
            if ours.iter().any(|&(a, s)| a >= acc && s > speed) {
                dominated += 1.0;
            }
        }
        let ceiling = 100.0 * data.fp32_accuracy();
        out.table(
            format!("task {} (fp32 ceiling {ceiling:.1}%)", task.name),
            table,
        );
    }
    let what = "PQ points (of 12) a LoCaLUT point beats on both axes";
    out.claims(&[(what, N, 12.0, dominated, near(11.0), TASKS)])
}

/// Fig. 16: (a) BERT end-to-end phases for PIM-DL vs LoCaLUT — PIM-DL pays
/// a large host centroid-selection phase, LoCaLUT's host work is lighter;
/// (b) the LoCaLUT kernel itself, where reordering-LUT index calculation
/// dominates and the reordering access is ≈ 6.9 % in the paper.
fn fig16(out: &mut Report) -> Result<(), Error> {
    let sim = InferenceSim::upmem_server();
    let model = ModelConfig::bert_base();
    let wl = Workload::prefill(model.clone(), 32);
    let pct = |seconds: f64, total: f64| format!("{:.1}", 100.0 * seconds / total);

    let mut table = Table::new(&[
        "system",
        "GEMM on PIM",
        "Matrix Transfer",
        "Centroid Selection",
        "Data reordering",
        "Quantization",
        "Packing & Sorting",
        "Others",
    ]);
    let pq_cfg = PqConfig::standard(PqVariant::PimDl);
    let pq = pq_model_cost(&model, 32, &pq_cfg, &PqCostModel::upmem_server());
    let pq_total = pq.total_seconds();
    let mut cells = vec!["PIM-DL".to_owned(), pct(pq.pim.total_seconds(), pq_total)];
    cells.extend(
        [
            Category::HostTransfer,
            Category::HostCentroid,
            Category::Other,
            Category::HostQuantize,
            Category::HostSortPack,
            Category::HostCompute,
        ]
        .map(|cat| pct(pq.host.seconds(cat), pq_total)),
    );
    table.row(cells);
    for cfg in [W2A2, W1A3] {
        let report = sim.run(Method::LoCaLut, cfg, &wl)?;
        let mut cells = vec![format!("LoCaLUT ({cfg})")];
        cells.extend(
            [
                Phase::GemmOnPim,
                Phase::MatrixTransfer,
                Phase::CentroidSelection,
                Phase::DataReordering,
                Phase::Quantization,
                Phase::PackingSorting,
                Phase::Others,
            ]
            .map(|phase| pct(report.phase_seconds(phase), report.total_seconds())),
        );
        table.row(cells);
    }
    out.table("(a) BERT execution breakdown (% of total)", table);

    let dpu = DpuConfig::upmem();
    let shape = dims(3072, 768, 128);
    let plan = Planner::new(dpu.clone()).plan(shape, W1, A3, Some(2))?;
    let cost = plan.kernel(&dpu)?.cost(shape);
    let total = cost.total_seconds();
    let mut table = Table::new(&["category", "share (%)"]);
    for cat in [
        Category::CanonicalLookup,
        Category::ReorderLookup,
        Category::IndexCalc,
        Category::Accumulate,
        Category::LutLoad,
        Category::DataTransfer,
        Category::OutputWriteback,
    ] {
        table.row(vec![cat.label().to_owned(), pct(cost.seconds(cat), total)]);
    }
    out.table(
        "(b) LoCaLUT GEMM kernel breakdown (W1A3, % of kernel)",
        table,
    );
    let reorder = 100.0 * cost.seconds(Category::ReorderLookup) / total;
    let what = "reordering-LUT access share of the kernel";
    out.claims(&[(what, Unit::new(1, "%"), 6.9, reorder, near(7.6), PIM)])
}

/// Fig. 17: one large GEMM on the Xeon Gold 5215 roofline, the RTX 2080 Ti
/// roofline, and LoCaLUT on the 2048-DPU system. The paper's shape:
/// LoCaLUT always beats the CPU; it beats the GPU at low bitwidths but
/// loses at W4A4 (a native sub-8-bit GPU datapath).
fn fig17(out: &mut Report) -> Result<(), Error> {
    let dist = DistributedGemm::upmem_server();
    let energy_model = EnergyModel::upmem();
    let sys = dist.system.config().clone();
    let cpu = XpuModel::xeon_gold_5215();
    let gpu = XpuModel::rtx_2080ti();
    let (m, k, n) = (12288u64, 192u64, 65536u64);

    let mut time = Table::new(&["config", "CPU (s)", "GPU (s)", "LoCaLUT (s)"]);
    let mut energy = Table::new(&["config", "CPU (J)", "GPU (J)", "LoCaLUT (J)"]);
    let mut speedup = Table::new(&["config", "vs CPU", "vs GPU"]);
    let (mut vs_cpu, mut vs_gpu) = (Vec::new(), Vec::new());
    for cfg in BitConfig::paper_integer_configs() {
        let (wf, af) = formats(cfg);
        let cpu_t = cpu.gemm_seconds(m, k, n, cfg.bw, cfg.ba);
        let gpu_t = gpu.gemm_seconds(m, k, n, cfg.bw, cfg.ba);
        let shape = dims(m as usize, k as usize, n as usize);
        let profile = dist.cost(Method::LoCaLut, shape, wf, af)?;
        let lut_t = profile.total_seconds();
        let lut_j = energy_model.system_energy(&sys, &profile).total_j();
        time.row(vec![
            cfg.to_string(),
            format!("{cpu_t:.3}"),
            format!("{gpu_t:.3}"),
            format!("{lut_t:.3}"),
        ]);
        energy.row(vec![
            cfg.to_string(),
            format!("{:.1}", cpu.gemm_energy_j(m, k, n, cfg.bw, cfg.ba)),
            format!("{:.1}", gpu.gemm_energy_j(m, k, n, cfg.bw, cfg.ba)),
            format!("{lut_j:.1}"),
        ]);
        speedup.row(vec![
            cfg.to_string(),
            format!("{:.1}x", cpu_t / lut_t),
            format!("{:.2}x", gpu_t / lut_t),
        ]);
        vs_cpu.push(cpu_t / lut_t);
        vs_gpu.push(gpu_t / lut_t);
    }
    out.table("(a) execution time", time);
    out.table("(b) energy", energy);
    out.table("LoCaLUT speedup", speedup);
    let beats_cpu = count(&vs_cpu, |s| *s > 1.0);
    let beats_gpu = count(&vs_gpu, |s| *s > 1.0);
    #[rustfmt::skip]
    let rows = [
        ("configs (of 4) faster than the CPU", N, 4.0, beats_cpu, near(4.0), ROOFLINE),
        ("configs (of 4) faster than the GPU (all but W4A4)", N, 3.0, beats_gpu, near(3.0), ROOFLINE),
    ];
    out.claims(&rows)
}

/// Fig. 18: the §IV-D model's "LUT access" and "LUT load" terms (Eq. 2 /
/// Eq. 4) against the full kernel simulation, which additionally charges
/// operand movement. The model's argmin should match the simulated one;
/// the paper notes one near-tie misprediction (W2A2 at (768, 768, 768):
/// p = 5 picked over p = 4).
fn fig18(out: &mut Report) -> Result<(), Error> {
    let dpu = DpuConfig::upmem();
    let model = PerfModel::upmem();
    let mut picks = Table::new(&["config", "(M, K, N)", "model p*", "simulated p*"]);
    let mut matches = 0.0;
    for (cfg, ps) in [(W4A4, [1u32, 2, 3]), (W2A2, [4, 5, 6])] {
        let (wf, af) = formats(cfg);
        let p_local = max_p_localut(wf, af, dpu.wram_lut_budget());
        for shape in [dims(768, 768, 768), dims(3072, 768, 768)] {
            let tile = dpu_tile(shape);
            let mut table = Table::new(&[
                "p",
                "model LUT access (s)",
                "model LUT load (s)",
                "model total (s)",
                "sim exec time (s)",
            ]);
            let mut best_model = (f64::INFINITY, 0u32);
            let mut best_sim = (f64::INFINITY, 0u32);
            for p in ps {
                let Some(kernel) = placed(&dpu, (wf, af), p, p_local).1 else {
                    let cells = [&p.to_string(), "-", "-", "-", "infeasible"];
                    table.row(cells.map(str::to_owned).to_vec());
                    continue;
                };
                let (access, load) = if p <= p_local {
                    (model.buffer_seconds(tile, p), 0.0)
                } else {
                    let groups = PerfModel::groups(tile, p) as f64;
                    (
                        tile.m as f64 * groups * model.l_local,
                        2f64.powi(i32::from(cfg.bw) * p as i32) * groups * model.l_d,
                    )
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
            let caption =
                format!("{cfg}, (M,K,N) = {shape}, per-DPU tile {tile}, p_local = {p_local}");
            out.table(caption, table);
            picks.row(vec![
                cfg.to_string(),
                shape.to_string(),
                best_model.1.to_string(),
                best_sim.1.to_string(),
            ]);
            if best_model.1 == best_sim.1 {
                matches += 1.0;
            }
        }
    }
    out.table("argmin p: model vs simulation", picks);
    let what = "shapes (of 4) where the model picks the simulated argmin p";
    out.claims(&[(what, N, 3.0, matches, near(4.0), PIM)])
}

/// Fig. 19: (a) prefill-only (BERT, W1A3) vs prefill + decode (OPT, W4A4,
/// 4/8/16 output tokens), OP vs LoCaLUT, phase-decomposed; (b) batch sweep
/// 32..512 of LoCaLUT over OP.
fn fig19(out: &mut Report) -> Result<(), Error> {
    let sim = InferenceSim::upmem_server();
    let mut table = Table::new(&[
        "workload",
        "method",
        "prefill (s)",
        "decode (s)",
        "total (s)",
    ]);
    let (mut prefill, mut decode) = (Vec::new(), Vec::new());
    let bert = Workload::prefill(ModelConfig::bert_base(), 32);
    let opt = |tokens| Workload::with_decode(ModelConfig::opt_125m(), 32, tokens);
    for (label, cfg, wl) in [
        ("BERT (prefill)", W1A3, bert),
        ("OPT (out 4)", W4A4, opt(4)),
        ("OPT (out 8)", W4A4, opt(8)),
        ("OPT (out 16)", W4A4, opt(16)),
    ] {
        let decodes = wl.decode_tokens > 0;
        let mut runs = Vec::new();
        for method in [Method::Op, Method::LoCaLut] {
            let r = sim.run(method, cfg, &wl)?;
            table.row(vec![
                label.into(),
                method.label().into(),
                format!("{:.4}", r.prefill_seconds),
                match decodes {
                    true => format!("{:.4}", r.decode_seconds),
                    false => "-".into(),
                },
                format!("{:.4}", r.total_seconds()),
            ]);
            runs.push(r);
        }
        prefill.push(runs[0].prefill_seconds / runs[1].prefill_seconds);
        if decodes {
            decode.push(runs[0].decode_seconds / runs[1].decode_seconds);
        }
    }
    out.table("(a) prefill/decode phases: OP vs LoCaLUT", table);

    let mut table = Table::new(&["model", "config", "b=32", "b=64", "b=128", "b=256", "b=512"]);
    let mut sweep = Vec::new();
    for (model, cfg) in [
        (ModelConfig::bert_base(), W1A3),
        (ModelConfig::vit_base(), W2A2),
        (ModelConfig::opt_125m(), W4A4),
    ] {
        let mut cells = vec![model.name.to_owned(), cfg.to_string()];
        for batch in [32usize, 64, 128, 256, 512] {
            let wl = Workload::prefill(model.clone(), batch);
            let s = sim.speedup_over(Method::LoCaLut, Method::Op, cfg, &wl)?;
            sweep.push(s);
            cells.push(format!("{s:.2}"));
        }
        table.row(cells);
    }
    out.table("(b) batch-size sweep: LoCaLUT speedup over OP", table);

    let (prefill, decode) = (geomean(&prefill)?, geomean(&decode)?);
    let above_one = count(&sweep, |s| *s > 1.0);
    #[rustfmt::skip]
    let rows = [
        ("prefill speedup over OP", X, 1.34, prefill, near(1.63), PIM),
        ("decode speedup over OP", X, 1.27, decode, near(1.39), PIM),
        ("batch points (of 15) above 1x over OP", N, 15.0, above_one, near(15.0), PIM),
    ];
    out.claims(&rows)
}

/// Fig. 20: LoCaLUT on accelerator-style bank-level PIM vs a SIMD design
/// (HBM-PIM class), matrix sizes 1K/2K/4K cubed. The paper keeps 1.17× at
/// W4A4, where the 512 B LUT units limit the packing degree.
fn fig20(out: &mut Report) -> Result<(), Error> {
    let pim = BankLevelPim::default();
    let mut table = Table::new(&["config", "1K", "2K", "4K", "chosen p"]);
    let (mut all, mut w4a4) = (Vec::new(), Vec::new());
    for cfg in BitConfig::paper_integer_configs() {
        let (wf, af) = formats(cfg);
        let bo = entry_bytes(wf, af, 4);
        let mut cells = vec![cfg.to_string()];
        let mut chosen_p = 0;
        for s in [1024u64, 2048, 4096] {
            let plan = pim
                .lut_gemm(s, s, s, u32::from(cfg.bw), u32::from(cfg.ba), bo)
                .ok_or("no bank-level LUT plan")?;
            let speedup = pim.simd_gemm_seconds(s, s, s, false) / plan.total_seconds();
            chosen_p = plan.p;
            all.push(speedup);
            if cfg == W4A4 {
                w4a4.push(speedup);
            }
            cells.push(format!("{speedup:.2}"));
        }
        cells.push(chosen_p.to_string());
        table.row(cells);
    }
    out.table("", table);
    let (all, w4a4) = (geomean(&all)?, geomean(&w4a4)?);
    #[rustfmt::skip]
    let rows = [
        ("geomean over configs and sizes", X, 2.04, all, near(1.97), PIM),
        ("W4A4 geomean", X, 1.17, w4a4, near(1.15), PIM),
    ];
    out.claims(&rows)
}

/// Fig. 21: (a) quantized-float GEMM on the bank-level PIM vs native-fp16
/// HBM-PIM — W1A16 is a slowdown (HBM-PIM is native fp16 and the slices
/// must be host-generated); (b) ViT-like accuracy at W4A4-float across
/// packing degrees with and without the reordering LUT, which changes the
/// fp accumulation order: the impact must be negligible.
fn fig21(out: &mut Report) -> Result<(), Error> {
    let pim = BankLevelPim::default();
    // (label, bw, ba, simd-native?, the paper's statistic, paper, recorded);
    // entries are fp16. The paper quotes W1A4 as "up to".
    let cases = [
        ("W1A4 (fp4)", 1, 4, false, "peak", 2.99, 2.41),
        ("W1A8 (fp8)", 1, 8, false, "geomean", 1.22, 1.49),
        ("W1A16 (fp16)", 1, 16, true, "geomean", 0.62, 0.95),
        ("W4A4 (fp4)", 4, 4, false, "geomean", 1.17, 1.15),
    ];
    let mut table = Table::new(&["config", "1K", "2K", "4K", "p", "bank-resident", "geomean"]);
    for (label, bw, ba, native, statistic, paper, recorded) in cases {
        let mut cells = vec![label.to_owned()];
        let mut plan_info = (0u32, true);
        let mut speeds = Vec::new();
        for s in [1024u64, 2048, 4096] {
            let plan = pim
                .lut_gemm(s, s, s, bw, ba, 2)
                .ok_or("no bank-level LUT plan")?;
            plan_info = (plan.p, plan.bank_resident);
            speeds.push(pim.simd_gemm_seconds(s, s, s, native) / plan.total_seconds());
        }
        let mean = geomean(&speeds)?;
        cells.extend(speeds.iter().map(|s| format!("{s:.2}")));
        cells.push(plan_info.0.to_string());
        cells.push(plan_info.1.to_string());
        cells.push(format!("{mean:.2}x"));
        table.row(cells);
        let measured = match statistic {
            "peak" => peak(&speeds),
            _ => mean,
        };
        let what = format!("{label} {statistic} over HBM-PIM");
        out.claims(&[(&what, X, paper, measured, near(recorded), PIM)])?;
    }
    out.table(
        "(a) floating-point GEMM speedup over HBM-PIM (native fp16)",
        table,
    );

    let data = SyntheticTask::imagenet_like().generate(600);
    let fp32 = data.fp32_accuracy();
    let mut table = Table::new(&["p", "FP32 (%)", "OP (%)", "LoCaLUT (%)", "delta (pp)"]);
    let mut worst_delta = 0.0f64;
    for p in 1..=5u32 {
        let op = data.float_lut_accuracy(NumericFormat::Fp4, p, false)?;
        let localut = data.float_lut_accuracy(NumericFormat::Fp4, p, true)?;
        let delta = 100.0 * (localut - op).abs();
        worst_delta = worst_delta.max(delta);
        table.row(vec![
            p.to_string(),
            format!("{:.1}", 100.0 * fp32),
            format!("{:.1}", 100.0 * op),
            format!("{:.1}", 100.0 * localut),
            format!("{delta:.2}"),
        ]);
    }
    out.table(
        "(b) ViT-like accuracy vs packing degree (W4A4 float, fp4)",
        table,
    );
    // "Negligible" in the paper; anything under 2 pp counts here.
    let what = "worst accuracy change from the reordering LUT, p=1..5";
    let pp = Unit::new(2, " pp");
    out.claims(&[(what, pp, 0.0, worst_delta, (0.0, 2.0), TASKS)])
}

/// Ablations. (A) §V-A devotes "approximately half" of each memory to
/// LUTs and §VII-B names that tradeoff an open challenge: sweep the
/// fraction, report the feasible degrees and the LoCaLUT GEMM speedup.
/// (B) Software reordering (OP+LC) vs the reordering LUT (OP+LC+RC) per
/// packing degree: the software penalty grows with p (8p+6 instructions
/// per lookup), which is why §IV-B introduces the LUT first.
fn ablation_budget(out: &mut Report) -> Result<(), Error> {
    let shape = dims(3072, 768, 128);
    let mut table = Table::new(&["budget fraction", "p_local", "p_DRAM", "speedup vs naive"]);
    let mut at_half = (0, 0);
    for fraction in [0.1f64, 0.2, 0.3, 0.4, 0.5, 0.55, 0.7, 0.9] {
        let mut dist = DistributedGemm::upmem_server();
        dist.gemm.dpu.lut_budget_fraction = fraction;
        let dpu = &dist.gemm.dpu;
        let p_local = max_p_localut(W1, A3, dpu.wram_lut_budget());
        let p_dram = max_p_localut(W1, A3, dpu.bank_lut_budget());
        if fraction == 0.5 {
            at_half = (p_local, p_dram);
        }
        let speedup = dist
            .speedup_over(Method::LoCaLut, Method::NaivePim, shape, W1, A3)
            .map_or("infeasible".to_owned(), |s| format!("{s:.2}"));
        table.row(vec![
            format!("{fraction:.2}"),
            p_local.to_string(),
            p_dram.to_string(),
            speedup,
        ]);
    }
    out.table(
        "(A) LUT budget fraction vs feasible p and speedup (W1A3)",
        table,
    );

    let gemm = GemmConfig::upmem();
    let tile = dims(192, 768, 1);
    let naive = naive_tile_seconds(tile, W1, A3)?;
    let mut table = Table::new(&["p", "OP+LC (sw reorder)", "OP+LC+RC", "RC gain"]);
    let mut gains = Vec::new();
    for p in 1..=5u32 {
        let lc = KernelSpec::with_p(&gemm, Method::OpLc, W1, A3, p)?.cost(tile);
        let rc = KernelSpec::with_p(&gemm, Method::OpLcRc, W1, A3, p)?.cost(tile);
        let (lc, rc) = (lc.total_seconds(), rc.total_seconds());
        gains.push(lc / rc);
        table.row(vec![
            p.to_string(),
            format!("{:.2}x", naive / lc),
            format!("{:.2}x", naive / rc),
            format!("{:.2}x", lc / rc),
        ]);
    }
    out.table(
        "(B) reordering LUT vs software reordering per packing degree (W1A3)",
        table,
    );
    let (p_local, p_dram) = (f64::from(at_half.0), f64::from(at_half.1));
    let widening = rises(&gains);
    #[rustfmt::skip]
    let rows = [
        ("p_local with half the WRAM budgeted (§V-A)", N, 5.0, p_local, near(5.0), None),
        ("p_DRAM with half the bank budgeted (§V-A)", N, 8.0, p_dram, near(8.0), None),
        ("steps p -> p+1 (of 4) widening the reordering LUT's gain", N, 4.0, widening, near(4.0), PIM),
    ];
    out.claims(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn an_empty_or_poisoned_series_is_an_error_not_a_one() {
        assert_eq!(geomean(&[]), Err(ClaimError::EmptySeries));
        for bad in [f64::NAN, f64::INFINITY, 0.0, -2.0] {
            let err = geomean(&[2.0, bad]).unwrap_err();
            assert!(
                matches!(&err, ClaimError::BadValue { what, .. } if what.contains("#1")),
                "{err}"
            );
        }
    }

    fn blank_report() -> Report {
        Report {
            figure: &registry()[0],
            tables: Vec::new(),
            claims: Vec::new(),
        }
    }

    #[test]
    fn claim_construction_rejects_non_finite_numbers_and_inverted_bands() {
        let build =
            |paper, measured, band| Claim::new("figXX", "cell", X, paper, measured, band, None);
        assert!(build(1.0, 1.0, (0.9, 1.1)).unwrap().holds());
        assert!(!build(1.0, 1.2, (0.9, 1.1)).unwrap().holds());
        assert!(build(1.0, f64::NAN, (0.9, 1.1)).is_err());
        assert!(build(f64::INFINITY, 1.0, (0.9, 1.1)).is_err());
        assert!(build(1.0, 1.0, (f64::NAN, 1.1)).is_err());
        assert!(build(1.0, 1.0, (1.1, 0.9)).is_err());
        // The figure-side door is the same door: a NaN cell never lands.
        let mut report = blank_report();
        let nan_cell = [("cell", X, 1.0, f64::NAN, near(1.0), None)];
        assert!(report.claims(&nan_cell).is_err());
        assert!(report.claims.is_empty());
    }

    #[test]
    fn the_fidelity_table_prints_each_claim_at_its_units_precision() {
        let mut report = blank_report();
        report
            .claims(&[
                ("gain", Unit::new(0, "%"), 22.0, 43.6, (40.0, 46.0), PIM),
                ("delta", Unit::new(2, " pp"), 0.0, 0.0, (0.0, 2.0), None),
            ])
            .unwrap();
        let table = fidelity_table(&[report]);
        assert_eq!(
            table.rows()[0],
            ["fig03", "gain", "22%", "44%", "1.98", "pim-sim timing"]
        );
        // A zero paper value has no ratio, and prints as such.
        assert_eq!(
            table.rows()[1],
            ["fig03", "delta", "0.00 pp", "0.00 pp", "-", "-"]
        );
    }

    #[test]
    fn select_filters_by_substring() {
        assert_eq!(select(None).len(), registry().len());
        assert_eq!(select(Some("fig1")).len(), 10);
        assert_eq!(select(Some("ablation")).len(), 1);
        assert!(select(Some("nope")).is_empty());
    }
}
