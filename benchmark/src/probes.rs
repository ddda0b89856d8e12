//! Fixed-shape probes: one public call of one layer each, timed alone.
//!
//! They run the same way in every workload's traced pass, on operands made
//! from the seed, at the shapes the GEMM workloads use (`gemm_wide`'s
//! 3072x768x128 on 16 banks, `gemm_ranked`'s 6x768x8 tile, the W1A3 `p = 8`
//! LUT image). A change to a layer moves its probe on every workload; which
//! end-to-end number it should move, and where, is in the README's table.

use crate::schema::Metrics;
use crate::spans::Tracer;
use crate::stats::{median, mix_seed};
use crate::walk::LutPool;
use dnn::{ModelConfig, Workload as ModelWorkload};
use engine::cachelife::store;
use engine::{Engine, GemmRequest, InferenceRequest, PlanPin, SessionRequest};
use localut::canonical::CanonicalLut;
use localut::codes::PackedCodes;
use localut::kernels::{BankKernel, SharedLuts};
use localut::plan::{Placement, Planner};
use localut::reorder::ReorderLut;
use localut::{GemmConfig, GemmDims, Method};
use netserve::frame::{read_frame, write_frame, DEFAULT_MAX_PAYLOAD};
use netserve::wire::{self, WireRequest};
use pim_sim::Stats;
use quant::{BitConfig, NumericFormat, QMatrix, Quantizer};
use runtime::{ParallelExecutor, ShardPlan};
use std::path::Path;
use std::time::Instant;

const WF: NumericFormat = NumericFormat::Bipolar;
const AF: NumericFormat = NumericFormat::Int(3);

/// Packing degree of the W1A3 image the planner streams for large GEMMs.
const P: u32 = 8;

/// The kernels' own guard on materialized LUT entries.
const MAX_LUT_ENTRIES: u64 = 1 << 26;

const WIDE: GemmDims = GemmDims {
    m: 3072,
    k: 768,
    n: 128,
};

const PAPER: GemmDims = GemmDims {
    m: 768,
    k: 768,
    n: 128,
};

/// Times `call` `reps` times under one span each; the median in seconds,
/// with the last result.
fn probe<R>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut call: impl FnMut() -> R,
) -> (f64, R) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        tracer.span(name, rep as u64, |_| {
            let start = Instant::now();
            let result = std::hint::black_box(call());
            secs.push(start.elapsed().as_secs_f64());
            last = Some(result);
        });
    }
    (median(&secs), last.expect("at least one repetition"))
}

/// Runs every probe. `scratch` is a directory of the benchmark's own for
/// the LUT store; it is created here and removed before returning.
pub fn run(
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    // quant
    let (secs, w) = probe(tracer, "quant.pseudo_random", 3, || {
        QMatrix::pseudo_random(WIDE.m, WIDE.k, WF, mix_seed(seed, 1))
    });
    metrics.set(
        "quant.pseudo_random_ns_per_code",
        secs * 1e9 / (WIDE.m * WIDE.k) as f64,
    );
    let a = QMatrix::pseudo_random(WIDE.k, WIDE.n, AF, mix_seed(seed, 2));
    let reals: Vec<f32> = (0..WIDE.k * WIDE.n)
        .map(|i| (mix_seed(seed, 100 + i as u64) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect();
    let (secs, quantized) = probe(tracer, "quant.quantize_matrix", 5, || {
        Quantizer::symmetric(AF).quantize_matrix(&reals, WIDE.k, WIDE.n)
    });
    quantized.map_err(|e| e.to_string())?;
    metrics.set(
        "quant.quantize_ns_per_elem",
        secs * 1e9 / reals.len() as f64,
    );

    // localut: packing, LUT builds, planning
    let (secs, _) = probe(tracer, "localut.pack_weight_rows", 5, || {
        PackedCodes::pack_weight_rows(&w, P as usize)
    });
    metrics.set("localut.pack_w_ms", secs * 1e3);
    let (secs, _) = probe(tracer, "localut.pack_activation_columns", 9, || {
        PackedCodes::pack_activation_columns(&a, P as usize, 0)
    });
    metrics.set("localut.pack_a_ms", secs * 1e3);
    let (secs, canonical) = probe(tracer, "localut.canonical_build", 3, || {
        CanonicalLut::<i32>::build(WF, AF, P, MAX_LUT_ENTRIES)
    });
    metrics.set("localut.canonical_build_ms", secs * 1e3);
    let (secs, reorder) = probe(tracer, "localut.reorder_build", 3, || {
        ReorderLut::build(WF.bits(), P, MAX_LUT_ENTRIES)
    });
    metrics.set("localut.reorder_build_ms", secs * 1e3);
    let luts = SharedLuts::from_parts(
        canonical.map_err(|e| e.to_string())?,
        reorder.map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    metrics.set("localut.lut_bytes", luts.resident_bytes() as f64);
    let config = GemmConfig::upmem();
    let planner = Planner::new(config.dpu.clone());
    let (secs, plan) = probe(tracer, "localut.plan", 9, || {
        planner.plan(WIDE, WF, AF, Some(config.k_slices))
    });
    plan.map_err(|e| e.to_string())?;
    metrics.set("localut.plan_us", secs * 1e6);

    // localut: the kernel on one of gemm_wide's sixteen tiles, and on one
    // of gemm_ranked's 2048
    let mut pool = LutPool::holding(luts);
    let mut tile_probe = |dims: GemmDims,
                          plan: ShardPlan,
                          w: &QMatrix,
                          a: &QMatrix,
                          reps: usize,
                          tracer: &mut Tracer| {
        let bank =
            BankKernel::build_with(&config, Method::LoCaLut, WF, AF, dims, |wf, af, p, _| {
                pool.get(wf, af, p)
            })
            .map_err(|e| e.to_string())?;
        let shard = &plan.shards()[0];
        let w_tile = w.submatrix(shard.rows.clone(), 0..dims.k);
        let a_tile = a.submatrix(0..dims.k, shard.cols.clone());
        let (panel_secs, panel) = probe(tracer, "localut.resolve_panel", reps, || {
            bank.resolve_panel(&a_tile)
        });
        let panel = panel.map_err(|e| e.to_string())?;
        let (kernel_secs, tile) = probe(tracer, "localut.run_panel", reps, || {
            bank.run_panel(&w_tile, &a_tile, panel.as_ref())
        });
        tile.map_err(|e| e.to_string())?;
        let cost_secs = probe(tracer, "pim-sim.cost", 9, || bank.cost(dims)).0;
        Ok::<_, String>((
            panel_secs,
            kernel_secs,
            shard.dims(dims.k).macs(),
            cost_secs,
        ))
    };
    let (panel_secs, kernel_secs, macs, cost_secs) =
        tile_probe(WIDE, ShardPlan::for_banks(WIDE, 16), &w, &a, 5, tracer)?;
    metrics.set("localut.panel_resolve_ms", panel_secs * 1e3);
    metrics.set("localut.kernel_shard_ms", kernel_secs * 1e3);
    metrics.set("localut.kernel_gmacs_s", macs as f64 / kernel_secs / 1e9);
    metrics.set("pim-sim.cost_us", cost_secs * 1e6);
    let w_paper = w.submatrix(0..PAPER.m, 0..PAPER.k);
    let (secs, ranked) = probe(tracer, "runtime.shard_plan", 9, || {
        ShardPlan::for_ranks(PAPER, 32, 64)
    });
    metrics.set("runtime.shard_plan_us", secs * 1e6);
    let (_, tiny_secs, _, _) = tile_probe(PAPER, ranked, &w_paper, &a, 31, tracer)?;
    metrics.set("localut.kernel_tiny_us", tiny_secs * 1e6);

    // runtime: the paper shape through the executor on both shard plans —
    // the same kernel and the same MACs; what differs is paid per shard
    let bank = BankKernel::build_with(&config, Method::LoCaLut, WF, AF, PAPER, |wf, af, p, _| {
        pool.get(wf, af, p)
    })
    .map_err(|e| e.to_string())?;
    let executor = ParallelExecutor::with_config(2, config.clone());
    for (metric, plan) in [
        (
            "runtime.execute_paper_flat_ms",
            ShardPlan::for_banks(PAPER, 16),
        ),
        (
            "runtime.execute_paper_ranked_ms",
            ShardPlan::for_ranks(PAPER, 32, 64),
        ),
    ] {
        let (secs, result) = probe(tracer, "runtime.execute", 5, || {
            executor.execute_plan_with(&plan, &bank, &w_paper, &a)
        });
        result.map_err(|e| e.to_string())?;
        metrics.set(metric, secs * 1e3);
    }

    // pim-sim: folding one bank's ledger into an aggregate
    let ledger = Stats::from_profile(
        &BankKernel::build(&config, Method::NaivePim, WF, AF, PAPER)
            .map_err(|e| e.to_string())?
            .cost(PAPER),
    );
    const MERGES: usize = 2048;
    let (secs, _) = probe(tracer, "pim-sim.stats_merge", 9, || {
        let mut total = Stats::default();
        for _ in 0..MERGES {
            total.merge(std::hint::black_box(&ledger));
        }
        total
    });
    metrics.set("pim-sim.stats_merge_ns", secs * 1e9 / MERGES as f64);

    // engine: memoized planning and the two inference entry points
    let engine = Engine::builder().threads(2).banks(16).build();
    let bits = BitConfig { bw: 1, ba: 3 };
    engine.plan(WIDE, bits).map_err(|e| e.to_string())?;
    const PLANS: usize = 1000;
    let (secs, _) = probe(tracer, "engine.plan", 9, || {
        for _ in 0..PLANS {
            let _ = std::hint::black_box(engine.plan(WIDE, bits));
        }
    });
    metrics.set("engine.plan_memo_hit_ns", secs * 1e9 / PLANS as f64);
    let prefill = InferenceRequest::single(ModelWorkload::prefill(ModelConfig::bert_base(), 2));
    let (secs, response) = probe(tracer, "engine.infer", 9, || engine.infer(&prefill));
    response.map_err(|e| e.to_string())?;
    metrics.set("engine.infer_us", secs * 1e6);
    let session = SessionRequest::new(ModelWorkload::with_decode(ModelConfig::opt_125m(), 1, 16));
    let (secs, response) = probe(tracer, "engine.infer_session", 9, || {
        engine.infer_session(&session)
    });
    let steps = response.map_err(|e| e.to_string())?.steps();
    metrics.set("engine.session_step_us", secs * 1e6 / steps as f64);

    // engine: the LUT store on real disk, and what a restart costs with
    // and without it. One save and one load: 89 MB each.
    let small = GemmRequest::new(
        QMatrix::pseudo_random(32, 24, WF, mix_seed(seed, 3)),
        QMatrix::pseudo_random(24, 8, AF, mix_seed(seed, 4)),
    )
    .with_pin(PlanPin {
        placement: Placement::Streaming,
        p: P,
    });
    let store_result = store_probes(&small, scratch, tracer, metrics);
    let _ = std::fs::remove_dir_all(scratch);
    store_result?;

    // netserve: one frame written to and read back from memory
    let payload = wire::encode_request(&WireRequest::Gemm(small));
    let mut buffer = Vec::with_capacity(payload.len() + 16);
    const FRAMES: usize = 1000;
    let (secs, read_back) = probe(tracer, "netserve.frame", 9, || {
        let mut last = None;
        for _ in 0..FRAMES {
            buffer.clear();
            write_frame(&mut buffer, payload.as_bytes()).expect("writing to memory cannot fail");
            last = read_frame(&mut buffer.as_slice(), DEFAULT_MAX_PAYLOAD)
                .expect("the frame just written is valid");
        }
        last
    });
    if read_back.as_deref() != Some(payload.as_bytes()) {
        return Err("a frame did not survive the round trip through memory".to_owned());
    }
    metrics.set("netserve.frame_rt_us", secs * 1e6 / FRAMES as f64);
    Ok(())
}

fn store_probes(
    request: &GemmRequest,
    dir: &Path,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let first_answer = |engine: Engine| engine.submit(request).map(|r| r.checksum);

    let (cold_secs, cold) = probe(tracer, "engine.restart_cold", 1, || {
        first_answer(Engine::builder().threads(2).banks(16).build())
    });
    let writer = Engine::builder()
        .threads(2)
        .banks(16)
        .cache_dir(dir)
        .build();
    writer.submit(request).map_err(|e| e.to_string())?;
    let (save_secs, saved) = probe(tracer, "engine.persist_cache", 1, || writer.persist_cache());
    saved.map_err(|e| e.to_string())?;
    drop(writer);
    let stored: u64 = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    let (load_secs, loaded) = probe(tracer, "engine.store_load", 1, || store::load(dir));
    if loaded.map_err(|e| e.to_string())?.len() != 1 {
        return Err("the LUT store did not hold the one image that was saved".to_owned());
    }
    let (warm_secs, warm) = probe(tracer, "engine.restart_warm", 1, || {
        first_answer(
            Engine::builder()
                .threads(2)
                .banks(16)
                .cache_dir(dir)
                .build(),
        )
    });
    if cold.map_err(|e| e.to_string())? != warm.map_err(|e| e.to_string())? {
        return Err("a warm restart answered differently from a cold one".to_owned());
    }
    metrics.set("engine.store_save_ms", save_secs * 1e3);
    metrics.set("engine.store_load_ms", load_secs * 1e3);
    metrics.set("engine.store_bytes", stored as f64);
    metrics.set("engine.restart_cold_ms", cold_secs * 1e3);
    metrics.set("engine.restart_warm_ms", warm_secs * 1e3);
    Ok(())
}
