//! Tolerance-based regression verdicts between two [`BenchReport`]s.
//!
//! The gated metric is **simulated time** (integer femtoseconds), not host
//! wall-clock: simulated time is machine-independent and exactly
//! reproducible, so a shared-runner CI box can enforce a tight threshold
//! without noise — the same lesson as deterministic-metric performance
//! pipelines on shared infrastructure. The functional `values_checksum` is
//! compared exactly: an "optimization" that changes results is a failure
//! even if it is faster.

use crate::report::BenchReport;
use std::fmt;

/// How one scenario moved against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Simulated time within tolerance of the baseline.
    Unchanged,
    /// Simulated time more than `tolerance` below the baseline.
    Improved,
    /// Simulated time more than `tolerance` above the baseline — fails
    /// the gate.
    Regressed,
    /// Functional output fingerprint differs from the baseline — fails
    /// the gate regardless of timing.
    ChecksumMismatch,
    /// Present in the baseline but not in this run — fails the gate (a
    /// silently dropped scenario is not a passing scenario).
    Missing,
    /// Present in this run but not in the baseline — informational; it
    /// starts being gated once a new baseline is committed.
    New,
}

impl Verdict {
    /// Whether this verdict fails the regression gate.
    #[must_use]
    pub fn fails_gate(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::ChecksumMismatch | Verdict::Missing
        )
    }

    /// Short label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::ChecksumMismatch => "CHECKSUM-MISMATCH",
            Verdict::Missing => "MISSING",
            Verdict::New => "new",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One scenario's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Scenario name.
    pub name: String,
    /// Baseline simulated femtoseconds (0 when the scenario is new).
    pub baseline_femtos: u128,
    /// Current simulated femtoseconds (0 when the scenario is missing).
    pub current_femtos: u128,
    /// `current / baseline` (1.0 when both are zero; `f64::INFINITY`
    /// when only the baseline is zero).
    pub ratio: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares `current` against `baseline` scenario-by-scenario.
///
/// `tolerance` is the relative slack on simulated time (0.10 = ±10%): a
/// scenario regresses when `current > baseline * (1 + tolerance)` and
/// improves when `current < baseline * (1 - tolerance)`. The comparison
/// is computed in exact integer arithmetic — no float rounding at the
/// threshold. Baseline rows are compared in baseline order, then new
/// scenarios in current-report order.
#[must_use]
pub fn compare(baseline: &BenchReport, current: &BenchReport, tolerance: f64) -> Vec<Comparison> {
    // Integer threshold: tolerance expressed in parts-per-million.
    let ppm = (tolerance * 1e6).round().max(0.0) as u128;
    let mut out = Vec::new();
    for base in &baseline.scenarios {
        let Some(cur) = current.scenario(&base.name) else {
            out.push(Comparison {
                name: base.name.clone(),
                baseline_femtos: base.sim_femtos,
                current_femtos: 0,
                ratio: 0.0,
                verdict: Verdict::Missing,
            });
            continue;
        };
        let ratio = if base.sim_femtos == 0 {
            if cur.sim_femtos == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            cur.sim_femtos as f64 / base.sim_femtos as f64
        };
        let verdict = if cur.values_checksum != base.values_checksum {
            Verdict::ChecksumMismatch
        } else if cur.sim_femtos * 1_000_000 > base.sim_femtos * (1_000_000 + ppm) {
            Verdict::Regressed
        } else if cur.sim_femtos * 1_000_000 < base.sim_femtos * (1_000_000 - ppm.min(1_000_000)) {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        out.push(Comparison {
            name: base.name.clone(),
            baseline_femtos: base.sim_femtos,
            current_femtos: cur.sim_femtos,
            ratio,
            verdict,
        });
    }
    for cur in &current.scenarios {
        if baseline.scenario(&cur.name).is_none() {
            out.push(Comparison {
                name: cur.name.clone(),
                baseline_femtos: 0,
                current_femtos: cur.sim_femtos,
                ratio: f64::INFINITY,
                verdict: Verdict::New,
            });
        }
    }
    out
}

/// Whether the comparison set passes the gate (no regression, no missing
/// scenario, no checksum drift).
#[must_use]
pub fn passes_gate(comparisons: &[Comparison]) -> bool {
    comparisons.iter().all(|c| !c.verdict.fails_gate())
}

/// Restricts a baseline to the scenarios a partial run deliberately
/// selected, so `--filter`/`--profile` subsets don't flag everything else
/// as `MISSING`.
///
/// A baseline row is dropped only when its scenario is still `registered`
/// but not in `selected` — i.e. this invocation *chose* not to run it. A
/// row whose name is registered nowhere is kept and will compare as
/// [`Verdict::Missing`]: deleting a scenario from the registry must fail
/// the gate until the baseline is regenerated.
#[must_use]
pub fn restrict_to_selected(
    baseline: &BenchReport,
    selected: &[&str],
    registered: &[&str],
) -> BenchReport {
    let mut restricted = baseline.clone();
    restricted
        .scenarios
        .retain(|s| selected.contains(&s.name.as_str()) || !registered.contains(&s.name.as_str()));
    restricted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BenchReport, ScenarioReport};

    fn row(name: &str, femtos: u128, checksum: u64) -> ScenarioReport {
        ScenarioReport {
            name: name.to_owned(),
            sim_femtos: femtos,
            categories: vec![],
            banks: 1,
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            wram_accesses: 0,
            instructions: 0,
            host_bytes: 0,
            host_ops: 0,
            energy_pj: 0,
            values_checksum: checksum,
        }
    }

    fn report(rows: Vec<ScenarioReport>) -> BenchReport {
        BenchReport {
            tag: "t".into(),
            profile: "smoke".into(),
            threads: 1,
            scenarios: rows,
        }
    }

    fn sole_verdict(base_femtos: u128, cur_femtos: u128, tolerance: f64) -> Verdict {
        let cmp = compare(
            &report(vec![row("s", base_femtos, 7)]),
            &report(vec![row("s", cur_femtos, 7)]),
            tolerance,
        );
        assert_eq!(cmp.len(), 1);
        cmp[0].verdict
    }

    #[test]
    fn threshold_edges_are_exact_at_ten_percent() {
        // 10% over a 1_000_000 fs baseline: 1_100_000 is the last pass.
        assert_eq!(sole_verdict(1_000_000, 1_100_000, 0.10), Verdict::Unchanged);
        assert_eq!(sole_verdict(1_000_000, 1_100_001, 0.10), Verdict::Regressed);
        // Symmetric on the improvement side: 900_000 is the last "unchanged".
        assert_eq!(sole_verdict(1_000_000, 900_000, 0.10), Verdict::Unchanged);
        assert_eq!(sole_verdict(1_000_000, 899_999, 0.10), Verdict::Improved);
        // Identical is always unchanged, even at zero tolerance.
        assert_eq!(sole_verdict(1_000_000, 1_000_000, 0.0), Verdict::Unchanged);
        assert_eq!(sole_verdict(1_000_000, 1_000_001, 0.0), Verdict::Regressed);
    }

    #[test]
    fn zero_baseline_edge_cases() {
        assert_eq!(sole_verdict(0, 0, 0.10), Verdict::Unchanged);
        // Any time charged against a zero baseline is a regression.
        assert_eq!(sole_verdict(0, 1, 0.10), Verdict::Regressed);
        let cmp = compare(
            &report(vec![row("s", 0, 7)]),
            &report(vec![row("s", 1, 7)]),
            0.10,
        );
        assert!(cmp[0].ratio.is_infinite());
    }

    #[test]
    fn tolerance_above_one_never_flags_improvement_spuriously() {
        // tolerance 1.5: lower bound clamps at zero — only an exact 0 can
        // "improve" from a positive baseline, which 0 < anything satisfies
        // trivially; anything positive is unchanged up to 2.5x.
        assert_eq!(sole_verdict(1_000, 2_500, 1.5), Verdict::Unchanged);
        assert_eq!(sole_verdict(1_000, 2_501, 1.5), Verdict::Regressed);
        assert_eq!(sole_verdict(1_000, 1, 1.5), Verdict::Unchanged);
    }

    #[test]
    fn checksum_mismatch_fails_even_when_faster() {
        let cmp = compare(
            &report(vec![row("s", 1_000_000, 7)]),
            &report(vec![row("s", 500_000, 8)]),
            0.10,
        );
        assert_eq!(cmp[0].verdict, Verdict::ChecksumMismatch);
        assert!(!passes_gate(&cmp));
    }

    #[test]
    fn missing_fails_and_new_passes() {
        let base = report(vec![row("kept", 10, 0), row("dropped", 10, 0)]);
        let cur = report(vec![row("kept", 10, 0), row("added", 10, 0)]);
        let cmp = compare(&base, &cur, 0.10);
        let by_name = |n: &str| cmp.iter().find(|c| c.name == n).unwrap();
        assert_eq!(by_name("kept").verdict, Verdict::Unchanged);
        assert_eq!(by_name("dropped").verdict, Verdict::Missing);
        assert_eq!(by_name("added").verdict, Verdict::New);
        assert!(!passes_gate(&cmp));
        // Without the drop, a new scenario alone passes the gate.
        let cmp2 = compare(&report(vec![row("kept", 10, 0)]), &cur, 0.10);
        assert!(passes_gate(&cmp2));
    }

    #[test]
    fn restricting_distinguishes_filtered_out_from_deleted() {
        let baseline = report(vec![
            row("ran", 10, 0),
            row("filtered_out", 10, 0),
            row("deleted_from_registry", 10, 0),
        ]);
        let registered = ["ran", "filtered_out"];
        let restricted = restrict_to_selected(&baseline, &["ran"], &registered);
        // "filtered_out" is registered but unselected → dropped from the
        // comparison; "deleted_from_registry" survives and fails the gate.
        let cmp = compare(&restricted, &report(vec![row("ran", 10, 0)]), 0.10);
        let names: Vec<&str> = cmp.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["ran", "deleted_from_registry"]);
        assert_eq!(cmp[0].verdict, Verdict::Unchanged);
        assert_eq!(cmp[1].verdict, Verdict::Missing);
        assert!(!passes_gate(&cmp));
        // Selecting everything is the identity.
        assert_eq!(
            restrict_to_selected(&baseline, &["ran", "filtered_out"], &registered),
            baseline
        );
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let r = report(vec![row("a", 123, 1), row("b", 0, 0)]);
        let cmp = compare(&r, &r, 0.10);
        assert!(passes_gate(&cmp));
        assert!(cmp.iter().all(|c| c.verdict == Verdict::Unchanged));
    }
}
