//! Integration suite for the unified `engine` session API.
//!
//! Pins the three guarantees the serving layer makes on top of the
//! layers below it:
//!
//! 1. **Cache transparency** — a request served from the LUT cache is
//!    bitwise identical to the same request served cold.
//! 2. **Legacy parity** — engine responses are bit-exact against the
//!    hand-wired `GemmConfig::run` / `ParallelExecutor` /
//!    `InferenceSim` paths every consumer used before the engine.
//! 3. **Worker-count invariance** — a 1-thread engine and an N-thread
//!    engine return identical responses for every request kind.

use localut_repro::dnn::{InferenceSim, ModelConfig, Workload};
use localut_repro::engine::{
    BatchGemmRequest, CacheOutcome, Engine, EngineError, GemmRequest, InferenceRequest, PlanPin,
};
use localut_repro::localut::kernels::KernelSpec;
use localut_repro::localut::plan::Placement;
use localut_repro::localut::{GemmConfig, GemmDims, Method};
use localut_repro::pim_sim::EnergyModel;
use localut_repro::quant::{BitConfig, NumericFormat, QMatrix};
use localut_repro::runtime::{values_checksum, ParallelExecutor, ShardPlan};

fn operands(m: usize, k: usize, n: usize, seed: u64) -> (QMatrix, QMatrix) {
    (
        QMatrix::pseudo_random(m, k, NumericFormat::Int(2), seed),
        QMatrix::pseudo_random(k, n, NumericFormat::Int(3), seed.wrapping_add(1)),
    )
}

/// Acceptance pin: a repeated request served from the LUT cache returns
/// bit-identical values **and** statistics to the uncached run.
#[test]
fn cache_hit_is_bitwise_identical_to_cache_miss() {
    let engine = Engine::builder().threads(4).banks(8).build();
    let (w, a) = operands(24, 36, 10, 40);
    let request = GemmRequest::new(w, a);
    let cold = engine.submit(&request).unwrap();
    assert_eq!(cold.lut_cache, Some(CacheOutcome::Miss));
    for _ in 0..2 {
        let warm = engine.submit(&request).unwrap();
        assert_eq!(warm.lut_cache, Some(CacheOutcome::Hit));
        assert_eq!(warm.values, cold.values);
        assert_eq!(warm.stats, cold.stats);
        assert_eq!(warm.profile, cold.profile);
        assert_eq!(warm.per_bank, cold.per_bank);
        assert_eq!(warm.energy_pj, cold.energy_pj);
        assert_eq!(warm.checksum, cold.checksum);
    }
    let stats = engine.lut_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (1, 2, 1));
}

/// Engine responses are bit-exact against the legacy hand-wired path:
/// `GemmConfig::run` for values, `ParallelExecutor::execute_plan` for the
/// sharded profile/stats/checksum, for every method.
#[test]
fn engine_matches_legacy_hand_wired_path_for_all_methods() {
    let engine = Engine::builder().threads(3).banks(4).build();
    let (w, a) = operands(12, 18, 8, 7);
    let dims = GemmDims::of(&w, &a).unwrap();
    let cfg = GemmConfig::upmem();
    let plan = ShardPlan::for_banks(dims, 4);
    let pool = ParallelExecutor::with_config(3, cfg.clone());
    for method in Method::ALL {
        let serial = cfg.run(method, &w, &a).unwrap();
        let legacy = pool.execute_plan(&plan, method, &w, &a).unwrap();
        let response = engine
            .submit(&GemmRequest::new(w.clone(), a.clone()).with_method(method))
            .unwrap();
        assert_eq!(response.values, serial.values, "{method} vs serial");
        assert_eq!(response.values, legacy.values, "{method} values");
        assert_eq!(response.stats, legacy.stats, "{method} stats");
        assert_eq!(response.profile, legacy.profile, "{method} profile");
        assert_eq!(response.per_bank, legacy.per_bank, "{method} per-bank");
        assert_eq!(response.checksum, legacy.checksum(), "{method} checksum");
        assert_eq!(
            response.energy_pj,
            localut_repro::engine::picojoules(legacy.energy(&EnergyModel::upmem()).total_j()),
            "{method} energy"
        );
        assert_eq!(response.checksum, values_checksum(&response.values));
        assert_eq!(response.method, method);
    }
}

/// 1-thread and N-thread engines agree bitwise on every request kind.
#[test]
fn thread_count_does_not_change_any_response() {
    let (w, a) = operands(16, 24, 9, 21);
    let gemm_request = GemmRequest::new(w.clone(), a.clone());
    let batch_request = BatchGemmRequest::new(vec![
        GemmRequest::new(w.clone(), a.clone()),
        GemmRequest::new(w, a).with_method(Method::OpLcRc),
    ]);
    let infer_request = InferenceRequest::serving(vec![
        Workload::prefill(ModelConfig::bert_base(), 4),
        Workload::with_decode(ModelConfig::opt_125m(), 2, 2),
    ])
    .with_bits("W4A4".parse().unwrap());

    let baseline = Engine::builder().threads(1).banks(6).build();
    let base_gemm = baseline.submit(&gemm_request).unwrap();
    let base_batch = baseline.submit_batch(&batch_request).unwrap();
    let base_infer = baseline.infer(&infer_request).unwrap();
    for threads in [2usize, 4, 7] {
        let engine = Engine::builder().threads(threads).banks(6).build();
        assert_eq!(
            engine.submit(&gemm_request).unwrap(),
            base_gemm,
            "submit @{threads}"
        );
        assert_eq!(
            engine.submit_batch(&batch_request).unwrap(),
            base_batch,
            "submit_batch @{threads}"
        );
        assert_eq!(
            engine.infer(&infer_request).unwrap(),
            base_infer,
            "infer @{threads}"
        );
    }
}

/// A batch is bitwise identical to submitting its requests one by one
/// (modulo the recorded cache outcome of the warm-up order).
#[test]
fn batch_matches_individual_submissions() {
    let requests: Vec<GemmRequest> = (0..5)
        .map(|seed| {
            let (w, a) = operands(10, 15, 6, 60 + seed);
            GemmRequest::new(w, a)
        })
        .collect();
    let engine = Engine::builder().threads(4).banks(3).build();
    let batch = engine
        .submit_batch(&BatchGemmRequest::new(requests.clone()))
        .unwrap();
    assert_eq!(batch.requests(), 5);

    let solo_engine = Engine::builder().threads(4).banks(3).build();
    let mut stats = localut_repro::pim_sim::Stats::default();
    let mut energy = 0u128;
    for (request, from_batch) in requests.iter().zip(&batch.responses) {
        let solo = solo_engine.submit(request).unwrap();
        assert_eq!(solo.values, from_batch.values);
        assert_eq!(solo.stats, from_batch.stats);
        assert_eq!(solo.checksum, from_batch.checksum);
        assert_eq!(solo.energy_pj, from_batch.energy_pj);
        stats.merge(&solo.stats);
        energy += solo.energy_pj;
    }
    assert_eq!(batch.stats, stats);
    assert_eq!(batch.energy_pj, energy);
    // All five requests share one format/plan: one miss, four hits.
    let cache = engine.lut_cache_stats();
    assert_eq!((cache.misses, cache.hits), (1, 4));
    // The batch fingerprint folds the per-response checksums.
    assert_ne!(batch.checksum(), 0);
}

/// Pinned placement requests execute the exact kernels the Fig. 3
/// placement arms hand-constructed before the engine existed.
#[test]
fn pinned_requests_match_direct_kernel_construction() {
    let wf = NumericFormat::Bipolar;
    let af = NumericFormat::Int(3);
    let w = QMatrix::pseudo_random(20, 30, wf, 3);
    let a = QMatrix::pseudo_random(30, 6, af, 4);
    let engine = Engine::builder().threads(2).banks(1).build();
    let dpu = engine.gemm_config().dpu.clone();

    let buffer = engine
        .submit(&GemmRequest::new(w.clone(), a.clone()).with_pin(PlanPin {
            placement: Placement::BufferResident,
            p: 5,
        }))
        .unwrap();
    let direct = KernelSpec::placed(&dpu, wf, af, 5, Placement::BufferResident, 1)
        .unwrap()
        .run(&w, &a, None, None)
        .unwrap();
    assert_eq!(buffer.values, direct.values);
    assert_eq!(buffer.profile, direct.profile);
    assert_eq!(buffer.method, Method::OpLcRc);

    let streaming = engine
        .submit(&GemmRequest::new(w.clone(), a.clone()).with_pin(PlanPin {
            placement: Placement::Streaming,
            p: 5,
        }))
        .unwrap();
    let k_slices = engine.gemm_config().k_slices;
    let direct = KernelSpec::placed(&dpu, wf, af, 5, Placement::Streaming, k_slices)
        .unwrap()
        .run(&w, &a, None, None)
        .unwrap();
    assert_eq!(streaming.values, direct.values);
    assert_eq!(streaming.profile, direct.profile);
    assert_eq!(streaming.method, Method::LoCaLut);

    // The cost twin of the pinned request agrees with its execution.
    let dims = GemmDims::of(&w, &a).unwrap();
    let cost = engine
        .pinned_kernel_cost(
            PlanPin {
                placement: Placement::BufferResident,
                p: 5,
            },
            BitConfig { bw: 1, ba: 3 },
            dims,
        )
        .unwrap();
    assert_eq!(cost, buffer.profile);
}

/// `Engine::infer` is the typed face of `InferenceSim::run_batch`.
#[test]
fn infer_matches_legacy_inference_sim() {
    let cfg: BitConfig = "W4A4".parse().unwrap();
    let workloads = vec![
        Workload::prefill(ModelConfig::bert_base(), 8),
        Workload::prefill(ModelConfig::vit_base(), 4),
    ];
    let engine = Engine::builder().threads(2).build();
    let response = engine
        .infer(
            &InferenceRequest::serving(workloads.clone())
                .with_method(Method::LoCaLut)
                .with_bits(cfg),
        )
        .unwrap();
    let sim = InferenceSim::upmem_server();
    let legacy = sim
        .run_batch(&ParallelExecutor::new(2), Method::LoCaLut, cfg, &workloads)
        .unwrap();
    assert_eq!(response.reports, legacy.reports);
    assert_eq!(response.merged, legacy.merged);
    assert_eq!(response.stats, legacy.stats);
    assert_eq!(response.requests(), 2);
    assert!((response.total_seconds() - legacy.total_seconds()).abs() < 1e-15);
}

/// The single error surface: every layer's error arrives as the matching
/// `EngineError` variant with a walkable source chain.
#[test]
fn engine_error_wraps_every_layer() {
    use std::error::Error;

    let engine = Engine::upmem();
    // 16-bit formats: no LUT fits → a planning (Gemm) error.
    let w = QMatrix::pseudo_random(4, 4, NumericFormat::Int(16), 1);
    let a = QMatrix::pseudo_random(4, 2, NumericFormat::Int(16), 2);
    let err = engine.submit(&GemmRequest::new(w, a)).unwrap_err();
    assert!(matches!(err, EngineError::Gemm(_)));
    assert!(err.source().is_some() || !err.to_string().is_empty());

    // Mismatched shapes: also a Gemm error, displayed losslessly.
    let (w, _) = operands(4, 6, 2, 1);
    let (_, a) = operands(4, 9, 2, 2);
    let err = engine.submit(&GemmRequest::new(w, a)).unwrap_err();
    let rendered = err.to_string();
    assert!(rendered.contains("dimension mismatch"), "got '{rendered}'");

    // Infeasible inference config propagates through `infer`.
    let err = engine
        .infer(
            &InferenceRequest::single(Workload::prefill(ModelConfig::bert_base(), 4))
                .with_bits(BitConfig { bw: 16, ba: 16 }),
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::Gemm(_)));
}
