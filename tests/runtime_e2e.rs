//! End-to-end tests for the bank-parallel execution runtime, through the
//! facade: quantize → plan → shard → execute on N workers → merge, asserting
//! bit-exactness against the serial path, profile/stats invariance under
//! the worker count, and determinism from a fixed seed.

use localut_repro::dnn;
use localut_repro::localut::{GemmConfig, GemmDims, Method};
use localut_repro::pim_sim::Stats;
use localut_repro::quant::{NumericFormat, QMatrix, Quantizer};
use localut_repro::runtime::{ParallelExecutor, ShardPlan};

/// Deterministic pseudo-random operands from a seed.
fn qmatrix(rows: usize, cols: usize, format: NumericFormat, seed: u64) -> QMatrix {
    QMatrix::pseudo_random(rows, cols, format, seed)
}

/// The tentpole acceptance path: a quantized GEMM through the full §V-A
/// planner, sharded across ≥4 workers, must be bit-identical to the serial
/// path in values and — for the same shard plan — in merged cost profile.
#[test]
fn four_workers_match_serial_bit_for_bit() {
    let wq = Quantizer::symmetric(NumericFormat::Bipolar);
    let aq = Quantizer::symmetric(NumericFormat::Int(3));
    let wdata: Vec<f32> = (0..48 * 60)
        .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
        .collect();
    let adata: Vec<f32> = (0..60 * 12)
        .map(|i| ((i * 7 + 3) % 15) as f32 - 7.0)
        .collect();
    let w = wq.quantize_matrix(&wdata, 48, 60).unwrap();
    let a = aq.quantize_matrix(&adata, 60, 12).unwrap();

    let cfg = GemmConfig::upmem();
    let serial = cfg.run(Method::LoCaLut, &w, &a).unwrap();

    let dims = GemmDims::of(&w, &a).unwrap();
    let plan = ShardPlan::for_banks(dims, 8);
    let reference = ParallelExecutor::with_config(1, cfg.clone())
        .execute_plan(&plan, Method::LoCaLut, &w, &a)
        .unwrap();
    let parallel = ParallelExecutor::with_config(4, cfg.clone())
        .execute_plan(&plan, Method::LoCaLut, &w, &a)
        .unwrap();

    assert_eq!(parallel.values, serial.values, "values diverged");
    assert_eq!(
        parallel.profile, reference.profile,
        "merged profile diverged"
    );
    assert_eq!(parallel.stats, reference.stats, "merged stats diverged");
    assert_eq!(parallel.per_bank, reference.per_bank);
    assert!(parallel.per_bank.len() >= 4, "want a real multi-bank plan");
    assert!(parallel.critical_path_seconds() < serial.profile.total_seconds());
}

/// Determinism: the same seed and shard plan produce identical outputs and
/// merged profiles for every worker count, and repeated runs are stable.
#[test]
fn same_seed_any_thread_count_is_identical() {
    let w = qmatrix(24, 36, NumericFormat::Int(2), 99);
    let a = qmatrix(36, 10, NumericFormat::Int(3), 100);
    let dims = GemmDims::of(&w, &a).unwrap();
    let plan = ShardPlan::for_banks(dims, 12);
    let cfg = GemmConfig::upmem();

    let baseline = ParallelExecutor::with_config(1, cfg.clone())
        .execute_plan(&plan, Method::LoCaLut, &w, &a)
        .unwrap();
    for threads in [2usize, 3, 4, 6, 8, 16] {
        let pool = ParallelExecutor::with_config(threads, cfg.clone());
        let first = pool.execute_plan(&plan, Method::LoCaLut, &w, &a).unwrap();
        let second = pool.execute_plan(&plan, Method::LoCaLut, &w, &a).unwrap();
        assert_eq!(first, baseline, "threads = {threads} diverged from serial");
        assert_eq!(first, second, "threads = {threads} not reproducible");
    }
}

/// Per-bank profiles must merge (via associative `Stats`) to the same
/// aggregate for any bank count's own plan, when the plan itself is held
/// fixed — and the critical path shrinks as banks are added.
#[test]
fn more_banks_shrink_the_critical_path() {
    let w = qmatrix(32, 24, NumericFormat::Int(2), 1);
    let a = qmatrix(24, 16, NumericFormat::Int(3), 2);
    let dims = GemmDims::of(&w, &a).unwrap();
    let pool = ParallelExecutor::new(4);
    let mut last_cp = f64::INFINITY;
    for banks in [1u32, 4, 16] {
        let plan = ShardPlan::for_banks(dims, banks);
        let out = pool.execute_plan(&plan, Method::OpLcRc, &w, &a).unwrap();
        let cp = out.critical_path_seconds();
        assert!(cp <= last_cp, "critical path grew at {banks} banks");
        last_cp = cp;
        // Stats equal the shard-order fold of per-bank profiles.
        let mut expect = Stats::default();
        for bank in &out.per_bank {
            expect.merge(&Stats::from_profile(&bank.profile));
        }
        assert_eq!(out.stats, expect);
    }
}

/// Batched multi-request inference through the facade: reports are
/// identical for every worker count and match the serial per-request runs.
#[test]
fn batched_inference_is_worker_count_invariant() {
    let sim = dnn::InferenceSim::upmem_server();
    let cfg: localut_repro::quant::BitConfig = "W2A2".parse().unwrap();
    let requests = vec![
        dnn::Workload::prefill(dnn::ModelConfig::bert_base(), 4),
        dnn::Workload::prefill(dnn::ModelConfig::vit_base(), 2),
        dnn::Workload::with_decode(dnn::ModelConfig::opt_125m(), 2, 2),
        dnn::Workload::prefill(dnn::ModelConfig::bert_base(), 8),
    ];
    let serial: Vec<_> = requests
        .iter()
        .map(|wl| sim.run(Method::LoCaLut, cfg, wl).unwrap())
        .collect();
    let baseline = sim
        .run_batch(&ParallelExecutor::new(1), Method::LoCaLut, cfg, &requests)
        .unwrap();
    assert_eq!(baseline.reports, serial);
    for threads in [2usize, 3, 8] {
        let batch = sim
            .run_batch(
                &ParallelExecutor::new(threads),
                Method::LoCaLut,
                cfg,
                &requests,
            )
            .unwrap();
        assert_eq!(batch, baseline, "threads = {threads}");
    }
}
