//! End-to-end tests for the perf-harness subsystem: scenario execution →
//! report → JSON → comparison, wired exactly the way `bench-runner` and
//! the CI `perf-gate` job use it.
//!
//! The expensive scenarios (the full fig09 shapes) are exercised by the
//! release-profile `bench-runner` run in CI; here we drive the cheap
//! subset so the properties — schema round-trip, determinism modulo
//! wall-clock, threshold edges — are pinned in the debug test suite too.

use bench::regress::{compare, passes_gate, Verdict};
use bench::report::{BenchReport, SCHEMA_VERSION};
use bench::scenario::{run_scenarios, select, RunProfile, ScenarioCtx};

/// The cheap scenario subset (analytic + the small functional ones,
/// including the concurrent serving scheduler) that keeps this test fast
/// under the debug profile.
fn cheap_measured(threads: usize) -> Vec<bench::scenario::MeasuredScenario> {
    let scenarios: Vec<_> = select(RunProfile::Smoke, None)
        .into_iter()
        .filter(|s| {
            [
                "fig03_placement",
                "fig14_energy",
                "fig16_breakdown",
                "serve_mixed",
            ]
            .contains(&s.name)
        })
        .collect();
    assert_eq!(
        scenarios.len(),
        4,
        "expected the four cheap smoke scenarios"
    );
    run_scenarios(&scenarios, &ScenarioCtx { threads })
}

#[test]
fn report_roundtrips_through_json_and_an_old_wall_key_still_loads() {
    let measured = cheap_measured(2);
    let report = BenchReport::new("e2e", "smoke", 2, &measured);

    // What this binary writes carries no wall-clock key and round-trips.
    let text = report.to_json();
    assert!(!text.contains("wall_nanos"));
    assert!(text.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
    assert_eq!(BenchReport::from_json(&text).expect("valid JSON"), report);

    // A report from before host time moved to `benchmark/` carries a
    // `wall_nanos` per scenario; it still loads, to the same rows.
    let old = text.replace(
        "\"values_checksum\":",
        "\"wall_nanos\": 123456789,\n      \"values_checksum\":",
    );
    assert_eq!(old.matches("wall_nanos").count(), measured.len());
    assert_eq!(BenchReport::from_json(&old).expect("valid JSON"), report);
}

#[test]
fn two_runs_produce_identical_reports_modulo_wall_clock() {
    // Different thread counts on purpose: the runtime's determinism
    // guarantee means worker count must not change a single byte of the
    // deterministic report surface.
    let first = BenchReport::new("run", "smoke", 1, &cheap_measured(1));
    let second = BenchReport::new("run", "smoke", 1, &cheap_measured(3));
    assert_eq!(first.to_json(), second.to_json());
    // And the regression gate sees them as exactly unchanged at zero
    // tolerance.
    let comparisons = compare(&first, &second, 0.0);
    assert!(comparisons.iter().all(|c| c.verdict == Verdict::Unchanged));
    assert!(passes_gate(&comparisons));
}

#[test]
fn committed_baseline_layout_matches_what_this_binary_writes() {
    // Guards the committed BENCH_baseline.json against schema drift: it
    // must parse, be the smoke profile, cover every smoke scenario in
    // registry order, and contain no wall-clock fields.
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_baseline.json"))
        .expect("BENCH_baseline.json is committed at the repo root");
    let baseline = BenchReport::from_json(&text).expect("committed baseline parses");
    assert_eq!(baseline.profile, "smoke");
    let smoke: Vec<&str> = select(RunProfile::Smoke, None)
        .iter()
        .map(|s| s.name)
        .collect();
    let recorded: Vec<&str> = baseline.scenarios.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        recorded, smoke,
        "baseline must cover the smoke registry in order"
    );
    assert!(
        !text.contains("wall_nanos"),
        "committed baselines must not contain wall-clock fields"
    );
    assert!(baseline.scenarios.iter().all(|s| s.sim_femtos > 0));
    // Round-trip through this binary's writer is byte-stable.
    assert_eq!(baseline.to_json(), text);
}

#[test]
fn cheap_scenarios_match_the_committed_baseline() {
    // The debug-profile twin of the CI perf gate: the cheap scenarios'
    // simulated metrics must match the committed baseline *exactly* —
    // femtosecond ledgers and functional checksums are profile- and
    // machine-independent.
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_baseline.json"))
        .expect("BENCH_baseline.json is committed at the repo root");
    let baseline = BenchReport::from_json(&text).expect("parses");
    let current = BenchReport::new("test", "smoke", 2, &cheap_measured(2));
    for row in &current.scenarios {
        let base = baseline
            .scenario(&row.name)
            .unwrap_or_else(|| panic!("{} missing from baseline", row.name));
        assert_eq!(
            row.sim_femtos, base.sim_femtos,
            "{} simulated time",
            row.name
        );
        assert_eq!(
            row.values_checksum, base.values_checksum,
            "{} checksum",
            row.name
        );
        assert_eq!(
            row.instructions, base.instructions,
            "{} instructions",
            row.name
        );
        assert_eq!(row.energy_pj, base.energy_pj, "{} energy", row.name);
    }
}

#[test]
fn fig09_wide_metrics_are_pinned_bitwise() {
    // The blocked-kernel refactor's contract: loop order, gather batching,
    // and panel resolution may change host wall-clock only. The W1A3 wide
    // fig. 9 shape is the tentpole scenario, so its deterministic metrics
    // are pinned here as literals — any drift in the packed-code walk, the
    // canonical/reorder gather, or the analytic charge model fails this
    // test before the CI perf gate ever sees it.
    let scenarios = select(RunProfile::Full, Some("fig09_gemm_wide"));
    assert_eq!(scenarios.len(), 1, "fig09_gemm_wide is one full scenario");
    let measured = run_scenarios(&scenarios, &ScenarioCtx { threads: 2 });
    let row = &BenchReport::new("pin", "full", 2, &measured).scenarios[0];
    assert_eq!(row.sim_femtos, 1_356_778_794_422_864);
    assert_eq!(row.values_checksum, 581_077_194_180_245_941);
    assert_eq!(row.instructions, 452_984_832);
}

#[test]
fn verdict_thresholds_gate_the_way_ci_relies_on() {
    let measured = cheap_measured(1);
    let baseline = BenchReport::new("base", "smoke", 1, &measured);
    // A 10% regression tolerance must tolerate exactly +10% and fail
    // beyond it, on real report data.
    let mut slower = baseline.clone();
    for s in &mut slower.scenarios {
        s.sim_femtos += s.sim_femtos / 10; // +10% (floored, so at most the threshold)
    }
    assert!(passes_gate(&compare(&baseline, &slower, 0.10)));
    for s in &mut slower.scenarios {
        s.sim_femtos += s.sim_femtos / 100;
    }
    let comparisons = compare(&baseline, &slower, 0.10);
    assert!(!passes_gate(&comparisons));
    assert!(comparisons.iter().any(|c| c.verdict == Verdict::Regressed));
}
