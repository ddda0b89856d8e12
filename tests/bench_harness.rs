//! The one gate on the deterministic trajectory: the **whole** scenario
//! registry — the 3072-row shape, the 2048-bank machine and the serving
//! batch included — regenerates the committed `BENCH_baseline.json` byte
//! for byte, at 1 and at 4 host workers.
//!
//! Everything the deleted comparator, the CI `cmp` steps and the nightly
//! full-profile run checked is one of these equalities: a moved simulated
//! number, a drifted checksum, a dropped or reordered scenario, a writer
//! change, an un-regenerated baseline, or a worker count that changes a
//! byte all fail here, inside `cargo test`. To accept a deliberate change,
//! `cargo run --release --bin bench-runner -- --out BENCH_baseline.json`
//! and read it with `git diff`.

use bench::report::render;
use bench::scenario::{run_scenarios, select, ScenarioCtx, ScenarioOutcome};
use std::sync::OnceLock;

const BASELINE: &str = include_str!("../BENCH_baseline.json");

/// One pass over the whole registry per worker count, shared by every
/// test that reads it (a debug-build pass is ≈ 12 s).
fn pass(threads: usize) -> &'static [(&'static str, ScenarioOutcome)] {
    static PASSES: [OnceLock<Vec<(&'static str, ScenarioOutcome)>>; 2] =
        [OnceLock::new(), OnceLock::new()];
    let slot = match threads {
        1 => 0,
        4 => 1,
        other => panic!("no pass is kept for {other} worker(s)"),
    };
    PASSES[slot].get_or_init(|| run_scenarios(&select(None), &ScenarioCtx { threads }))
}

/// `assert_eq!` on two 300-line strings prints both; name the first line
/// that moved instead.
fn assert_is_the_baseline(threads: usize) {
    let rendered = render(pass(threads));
    let moved = rendered
        .lines()
        .zip(BASELINE.lines())
        .position(|(got, want)| got != want)
        .map_or_else(
            || "one is a prefix of the other".to_owned(),
            |i| format!("first at line {}", i + 1),
        );
    assert!(
        rendered == BASELINE,
        "{threads} worker(s): this tree's report ({} lines) differs from the committed \
         BENCH_baseline.json ({} lines), {moved}",
        rendered.lines().count(),
        BASELINE.lines().count(),
    );
}

#[test]
fn whole_registry_regenerates_the_committed_baseline_with_one_worker() {
    assert_is_the_baseline(1);
}

#[test]
fn whole_registry_regenerates_the_committed_baseline_with_four_workers() {
    assert_is_the_baseline(4);
}

#[test]
fn fig09_wide_metrics_are_pinned_bitwise() {
    // The blocked-kernel refactor's contract: loop order, gather batching,
    // and panel resolution may change host wall-clock only. The W1A3 wide
    // fig. 9 shape is the tentpole scenario, so its deterministic metrics
    // are pinned here as literals — any drift in the packed-code walk, the
    // canonical/reorder gather, or the analytic charge model fails this
    // test even if the baseline file is regenerated along with it.
    // (Reads the 1-worker pass: libtest starts tests in name order, so this
    // one and the 4-worker gate compute the two passes side by side.)
    let (_, outcome) = pass(1)
        .iter()
        .find(|(name, _)| *name == "fig09_gemm_wide")
        .expect("fig09_gemm_wide is registered");
    assert_eq!(outcome.stats.total_femtos(), 1_356_778_794_422_864);
    assert_eq!(outcome.checksum, 581_077_194_180_245_941);
    assert_eq!(outcome.stats.instructions, 452_984_832);
}
