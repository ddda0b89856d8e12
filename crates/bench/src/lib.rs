//! The evaluation: the paper's figures and the perf harness.
//!
//! * [`figures`] is the paper's §VI as a registry of plain functions, one
//!   per figure. Each reruns its experiment on the simulator and returns
//!   the tables the paper plots plus the claims that hold the paper's
//!   numbers against the simulated ones. `bench-runner --figures` prints
//!   them and writes the checked-in `FIGURES.md`; the root test
//!   `tests/paper_figures.rs` fails when a claim leaves its band.
//! * [`scenario`] is the perf harness: a registry of deterministic
//!   workloads whose simulated ledgers [`report::render`] writes as
//!   `BENCH_baseline.json`. The root test `tests/bench_harness.rs` runs
//!   the whole registry at 1 and 4 workers and requires the committed
//!   file byte for byte; `bench-runner --out` regenerates it. The JSON
//!   layer is the dependency-free [`json`] module (the build environment
//!   has no registry access, so no `serde`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The dependency-free JSON tree the reports serialize through. The
/// implementation lives in the `netserve` crate (the wire protocol is
/// built on the same writer); re-exported here so report code keeps
/// saying `bench::json`.
pub use netserve::json;
pub mod figures;
pub mod report;
pub mod scenario;

use dnn::hostops::HostOpModel;
use dnn::layer::{layer_gemms, layer_host_ops};
use dnn::ModelConfig;
use pim_sim::{Category, CycleLedger, Profile, SystemProfile};
use pq::{PqConfig, PqCostModel};

/// Joules → integer picojoules: the canonical conversion lives with the
/// serving engine's response types; re-exported here so the perf reports
/// and the engine price energy through one function.
pub use engine::picojoules;

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// The rows appended so far, cell by cell.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        print!("{self}");
    }
}

/// `{}` renders right-aligned text columns under a dashed rule; `{:#}`
/// renders the same padded cells as Markdown pipe rows.
impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // A Markdown rule cell is `--:` at its narrowest, which also
        // keeps the rendered columns right-aligned.
        let (open, sep, close, min_width, rule_end) = if f.alternate() {
            ("| ", " | ", " |", 3, ":")
        } else {
            ("  ", "  ", "", 0, "-")
        };
        let mut widths: Vec<usize> = self
            .header
            .iter()
            .map(|h| h.chars().count().max(min_width))
            .collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.chars().count());
            }
        }
        let rule: Vec<String> = widths
            .iter()
            .map(|w| "-".repeat(w.saturating_sub(1)) + rule_end)
            .collect();
        for cells in [&self.header, &rule].into_iter().chain(&self.rows) {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect();
            writeln!(f, "{open}{}{close}", padded.join(sep))?;
        }
        Ok(())
    }
}

/// End-to-end BERT-style system cost under a PQ baseline: the per-layer
/// GEMM stream through [`PqCostModel`] plus the same host "Others" ops the
/// LoCaLUT inference model charges (attention, softmax, norms, GELU).
#[must_use]
pub fn pq_model_cost(
    model: &ModelConfig,
    batch: usize,
    pq_cfg: &PqConfig,
    cost_model: &PqCostModel,
) -> SystemProfile {
    let tokens = batch * model.seq_len;
    let mut total = SystemProfile::default();
    for gemm in layer_gemms(model, tokens) {
        let one = cost_model.gemm_cost(pq_cfg, gemm.dims.m, gemm.dims.k, gemm.dims.n);
        total = total.merged(&one.scaled(u64::from(gemm.count)));
    }
    let host_model = HostOpModel::xeon();
    let counts = layer_host_ops(model, tokens, model.seq_len);
    let ops = host_model.other_ops(&counts);
    let mut others = CycleLedger::new();
    others.charge(
        Category::HostCompute,
        cost_model.system.host_ops_seconds(ops),
    );
    others.host_ops = ops;
    total = total.merged(&SystemProfile {
        host: Profile::from_ledger(others),
        pim: Profile::new(),
    });
    total.scaled(u64::from(model.layers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq::PqVariant;

    #[test]
    fn one_renderer_two_shapes() {
        let mut t = Table::new(&["name", "x"]);
        t.row(vec!["a".into(), "1.50".into()]);
        assert_eq!(t.to_string(), "  name     x\n  ----  ----\n     a  1.50\n");
        assert_eq!(
            format!("{t:#}"),
            "| name |    x |\n| ---: | ---: |\n|    a | 1.50 |\n"
        );
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["1".into()]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn pq_model_cost_is_positive_and_centroid_heavy() {
        let cost = pq_model_cost(
            &ModelConfig::bert_base(),
            8,
            &PqConfig::standard(PqVariant::PimDl),
            &PqCostModel::upmem_server(),
        );
        assert!(cost.total_seconds() > 0.0);
        assert!(cost.host.seconds(Category::HostCentroid) > cost.pim.total_seconds());
    }
}
