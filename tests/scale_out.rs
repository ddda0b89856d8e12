//! Full-machine scale-out battery: 2048-bank hierarchical plans through
//! the public API. Pins the three contracts the scale-out runtime makes:
//!
//! 1. A 2048-shard ranked run is **bit-identical** for worker counts
//!    {1, 4, 16} — values, per-bank profiles, merged stats, rank stats,
//!    and the contention phase.
//! 2. The shared work cursor is **deterministic**: repeated ragged runs
//!    land on the same bytes every time, regardless of which worker
//!    claimed which shard.
//! 3. The rank merge tree is **exact**: per-rank ledgers fold to the same
//!    `Stats` as the flat shard-order fold, bit for bit, and the engine's
//!    ranked topology only adds the rank-bus phase on top of it.

use localut_repro::engine::{Engine, GemmRequest, Topology};
use localut_repro::localut::{GemmConfig, GemmDims, Method};
use localut_repro::pim_sim::Stats;
use localut_repro::quant::{NumericFormat, QMatrix};
use localut_repro::runtime::{ParallelExecutor, ShardPlan};

/// A GEMM shape whose ranked plan populates the paper's full machine with
/// exactly 2048 one-cell shards (grid 64 × 32), while staying cheap
/// enough for debug-profile test runs.
const FULL: GemmDims = GemmDims { m: 64, k: 8, n: 32 };

fn operands(dims: GemmDims, seed: u64) -> (QMatrix, QMatrix) {
    (
        QMatrix::pseudo_random(dims.m, dims.k, NumericFormat::Int(2), seed),
        QMatrix::pseudo_random(dims.k, dims.n, NumericFormat::Int(3), seed + 1),
    )
}

/// Contract 1: the full-machine plan executes bit-identically at worker
/// counts {1, 4, 16}, and matches the serial (unsharded) kernel's values.
#[test]
fn full_machine_2048_banks_bit_identical_across_worker_counts() {
    let (w, a) = operands(FULL, 20_48);
    let cfg = GemmConfig::upmem();
    let plan = ShardPlan::for_ranks(FULL, 32, 64);
    assert_eq!(plan.len(), 2048, "shape must populate the full machine");
    assert_eq!(plan.rank_plan().unwrap().populated(), 32);

    let serial = cfg.run(Method::OpLcRc, &w, &a).unwrap();
    let reference = ParallelExecutor::with_config(1, cfg.clone())
        .execute_plan(&plan, Method::OpLcRc, &w, &a)
        .unwrap();
    assert_eq!(reference.values, serial.values, "sharding changed values");
    assert_eq!(reference.per_bank.len(), 2048);
    assert_eq!(reference.rank_stats.len(), 32);
    assert!(
        reference.link_phase.is_some(),
        "ranked plans charge the bus"
    );

    for workers in [4usize, 16] {
        let par = ParallelExecutor::with_config(workers, cfg.clone())
            .execute_plan(&plan, Method::OpLcRc, &w, &a)
            .unwrap();
        // One assert covers everything: ParallelGemm compares values,
        // per-bank profiles, the profile fold, merged stats, rank stats,
        // and the link phase.
        assert_eq!(par, reference, "{workers}-worker run diverged");
    }
}

/// Contract 2: repeated runs of a ragged near-full-machine plan (uneven
/// edge tiles make the claim order vary wildly) produce the same bytes
/// every time on a many-worker executor.
#[test]
fn shared_cursor_runs_are_deterministic_under_raggedness() {
    // 65 × 33 does not divide the machine evenly: the edge tiles are
    // half the size of the interior tiles (65 rows in 2-row tiles leave a
    // 1-row remainder), so workers finish out of sync and which worker
    // claims which shard off the cursor differs run to run.
    let dims = GemmDims { m: 65, k: 9, n: 33 };
    let (w, a) = operands(dims, 7);
    let cfg = GemmConfig::upmem();
    let plan = ShardPlan::for_ranks(dims, 32, 64);
    assert!(
        plan.len() > 1000,
        "want a big ragged plan, got {}",
        plan.len()
    );
    assert!(
        plan.shards().iter().any(|s| s.rows.len() != 2),
        "want ragged edge tiles"
    );

    let reference = ParallelExecutor::with_config(1, cfg.clone())
        .execute_plan(&plan, Method::OpLcRc, &w, &a)
        .unwrap();
    let executor = ParallelExecutor::with_config(16, cfg);
    for run in 0..5 {
        let par = executor
            .execute_plan(&plan, Method::OpLcRc, &w, &a)
            .unwrap();
        assert_eq!(par, reference, "run {run} diverged from the reference");
        assert_eq!(par.checksum(), reference.checksum());
    }
}

/// Contract 3: the rank merge tree is exactly the flat fold. Each rank's
/// ledger equals the serial fold of its banks, the fold of the rank
/// ledgers equals the flat shard-order fold over all banks, and the
/// merged stats are that fold plus the (bank-countless) link phase.
#[test]
fn rank_tree_merge_equals_flat_fold_exactly() {
    let (w, a) = operands(FULL, 4842);
    let cfg = GemmConfig::upmem();
    let plan = ShardPlan::for_ranks(FULL, 32, 64);
    let par = ParallelExecutor::with_config(8, cfg.clone())
        .execute_plan(&plan, Method::LoCaLut, &w, &a)
        .unwrap();

    let bank_stats: Vec<Stats> = par
        .per_bank
        .iter()
        .map(|b| Stats::from_profile(&b.profile))
        .collect();
    let rank_plan = plan.rank_plan().unwrap();

    // Middle level: each rank ledger is the fold of its banks.
    for (rank, range) in rank_plan.assignments().iter().enumerate() {
        let mut fold = Stats::default();
        for stats in &bank_stats[range.clone()] {
            fold.merge(stats);
        }
        assert_eq!(par.rank_stats[rank], fold, "rank {rank} ledger drifted");
    }

    // Root: rank ledgers fold to the flat fold, bit for bit.
    let mut tree = Stats::default();
    for rank in &par.rank_stats {
        tree.merge(rank);
    }
    let mut flat = Stats::default();
    for stats in &bank_stats {
        flat.merge(stats);
    }
    assert_eq!(tree, flat, "rank tree != flat fold");

    // Total: the merged stats are the fold plus the link phase, which
    // adds simulated time but no bank profiles.
    let link = par.link_phase.as_ref().unwrap();
    let mut expect = flat.clone();
    expect.merge(&Stats::from_phase_ledger(link.ledger()));
    assert_eq!(par.stats, expect);
    assert_eq!(par.stats.banks(), 2048, "phase must not count as a bank");

    // Cross-check against a flat 2048-bank plan of the same GEMM: same
    // banks, same fold; only the contention phase separates the two.
    let flat_run = ParallelExecutor::with_config(8, cfg)
        .execute_plan(&ShardPlan::for_banks(FULL, 2048), Method::LoCaLut, &w, &a)
        .unwrap();
    assert_eq!(flat_run.values, par.values);
    assert_eq!(flat_run.per_bank, par.per_bank);
    assert_eq!(flat_run.stats, flat);
    assert!(flat_run.rank_stats.is_empty());
    assert_eq!(flat_run.link_phase, None);
}

/// The engine surface honors the same contracts: a ranked engine's
/// response is worker-count invariant and differs from the flat engine's
/// only by the contention phase.
#[test]
fn ranked_engine_responses_are_worker_count_invariant() {
    let (w, a) = operands(FULL, 99);
    let reference = Engine::builder()
        .threads(1)
        .ranks(32, 64)
        .build()
        .submit(&GemmRequest::new(w.clone(), a.clone()))
        .unwrap();
    assert_eq!(reference.per_bank.len(), 2048);
    for workers in [4usize, 16] {
        let engine = Engine::builder().threads(workers).ranks(32, 64).build();
        assert_eq!(
            engine.topology(),
            Topology::Ranked {
                ranks: 32,
                banks_per_rank: 64
            }
        );
        let par = engine
            .submit(&GemmRequest::new(w.clone(), a.clone()))
            .unwrap();
        assert_eq!(par.values, reference.values);
        assert_eq!(par.stats, reference.stats);
        assert_eq!(par.per_bank, reference.per_bank);
        assert_eq!(par.energy_pj, reference.energy_pj);
        assert_eq!(par.checksum, reference.checksum);
    }
}
