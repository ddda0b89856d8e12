//! `cache_lifecycle`: the LUT cache as a writer.
//!
//! The other five workloads only ever hit the cache. This one streams small
//! GEMMs of three bit formats, twice over, through a fresh engine whose LUT
//! byte budget holds about one image, so every key is built, evicted, and
//! built again: `CanonicalLut` / `ReorderLut` construction and the LRU's
//! insert and evict are the work. A faster hit path paid for by costlier
//! builds or evictions shows here and nowhere else.

use super::{CacheCounts, Round, Verification, Workload};
use crate::schema::Metrics;
use crate::spans::Tracer;
use crate::stats::mix_seed;
use crate::walk::{step, walk_gemm, LutPool, Shares};
use engine::{CacheOutcome, CacheStats, Engine, GemmRequest};
use localut::kernels::SharedLuts;
use localut::plan::Planner;
use localut::GemmDims;
use quant::{NumericFormat, QMatrix};
use std::time::{Duration, Instant};

/// LUT byte budget of the engine under test.
const BUDGET: u64 = 192 * 1024;

/// Times the format list is streamed per round; the second pass finds
/// every key evicted.
const PASSES: u64 = 2;

const FORMATS: [(NumericFormat, NumericFormat); 3] = [
    (NumericFormat::Bipolar, NumericFormat::Int(3)),
    (NumericFormat::Bipolar, NumericFormat::Int(2)),
    (NumericFormat::Int(2), NumericFormat::Int(2)),
];

const DIMS: GemmDims = GemmDims {
    m: 48,
    k: 40,
    n: 12,
};

fn engine(budget: Option<u64>) -> Engine {
    let builder = Engine::builder().threads(2).banks(2);
    match budget {
        Some(bytes) => builder.cache_budget(bytes),
        None => builder,
    }
    .build()
}

pub struct CacheLifecycle {
    stream: Vec<GemmRequest>,
    /// Per round: every response's checksum and simulated time, and the
    /// engine's cache counters when the round ended.
    rounds: Vec<(Vec<(u64, u128)>, CacheStats)>,
    latest: CacheCounts,
}

impl CacheLifecycle {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let stream: Vec<GemmRequest> = (0..PASSES)
            .flat_map(|pass| {
                FORMATS.iter().enumerate().map(move |(index, &(wf, af))| {
                    let index = index as u64;
                    GemmRequest::new(
                        QMatrix::pseudo_random(DIMS.m, DIMS.k, wf, mix_seed(seed, 10 + index)),
                        QMatrix::pseudo_random(
                            DIMS.k,
                            DIMS.n,
                            af,
                            mix_seed(seed, 20 + 10 * pass + index),
                        ),
                    )
                })
            })
            .collect();
        engine(Some(BUDGET))
            .submit(&stream[0])
            .map_err(|e| e.to_string())?;
        Ok(CacheLifecycle {
            stream,
            rounds: Vec::new(),
            latest: CacheCounts::default(),
        })
    }
}

impl Workload for CacheLifecycle {
    fn round(&mut self, latencies_ns: &mut Vec<u64>, tracer: &mut Tracer) -> Round {
        let engine = engine(Some(BUDGET));
        let mut round = Round {
            ops: 0,
            failed: 0,
            wall: Duration::ZERO,
            sim_femtos: 0,
        };
        let mut outputs = Vec::with_capacity(self.stream.len());
        let start = Instant::now();
        for (op, request) in self.stream.iter().enumerate() {
            let sent = Instant::now();
            let result = tracer.span("engine.submit", op as u64, |_| engine.submit(request));
            latencies_ns.push(sent.elapsed().as_nanos() as u64);
            round.ops += 1;
            match result {
                Ok(response) => {
                    let sim = response.stats.snapshot().total_femtos;
                    round.sim_femtos += sim;
                    outputs.push((response.checksum, sim));
                }
                Err(_) => round.failed += 1,
            }
        }
        round.wall = start.elapsed();
        self.latest = CacheCounts::of(&engine);
        self.rounds.push((outputs, engine.lut_cache_stats()));
        round
    }

    fn verify(&mut self) -> Verification {
        let mut verdict = Verification::default();
        // The same stream with no budget: eviction may move host time and
        // counters, never an output.
        let unbudgeted = engine(None);
        let reference: Vec<(u64, u128)> = self
            .stream
            .iter()
            .map(|request| {
                let response = unbudgeted
                    .submit(request)
                    .expect("the stream's shapes are feasible");
                (response.checksum, response.stats.snapshot().total_femtos)
            })
            .collect();
        let ops = self.stream.len() as u64;
        for (index, (outputs, cache)) in self.rounds.iter().enumerate() {
            verdict.expect(*outputs == reference, ops, || {
                format!("round {index}: outputs differ from the unbudgeted engine's")
            });
            verdict.expect(cache.evictions > 0, ops, || {
                format!("round {index}: the starved budget evicted nothing ({cache:?})")
            });
            verdict.expect(cache.misses > FORMATS.len() as u64, ops, || {
                format!("round {index}: an evicted key was not rebuilt ({cache:?})")
            });
            verdict.expect(cache.failed_builds == 0, cache.failed_builds, || {
                format!("round {index}: {} LUT build(s) failed", cache.failed_builds)
            });
        }
        verdict
    }

    fn cache_counts(&self) -> CacheCounts {
        self.latest
    }

    fn layers(
        &mut self,
        round: &Round,
        _latencies_ns: &[u64],
        tracer: &mut Tracer,
        metrics: &mut Metrics,
    ) -> Result<Shares, String> {
        // One more round by hand: each submit, then the same request walked
        // warm, then — where the submit missed — the plan and the image
        // build it had to do, timed on their own.
        let engine = engine(Some(BUDGET));
        // The walk needs every request warm, which the starved engine
        // never is.
        let warm = self::engine(None);
        for request in &self.stream {
            warm.submit(request).map_err(|e| e.to_string())?;
        }
        let planner = Planner::new(engine.gemm_config().dpu.clone());
        let mut pool = LutPool::default();
        let mut total = Shares::default();
        let mut checksum_ok = true;
        let mut first_walk = None;
        for (op, request) in self.stream.iter().enumerate() {
            let op = op as u64;
            let response = engine.submit(request).map_err(|e| e.to_string())?;
            let walk = walk_gemm(&warm, request, &mut pool, tracer, op, 1)?;
            checksum_ok &= walk.checksum_ok;
            let mut shares = walk.shares();
            if response.lut_cache == Some(CacheOutcome::Miss) {
                let (wf, af) = (request.w.format(), request.a.format());
                let k_slices = Some(engine.gemm_config().k_slices);
                let (built, ns) = step(tracer, "localut.plan_and_build", op, |_| {
                    planner
                        .plan(DIMS, wf, af, k_slices)
                        .and_then(|plan| SharedLuts::build(wf, af, plan.p))
                });
                built.map_err(|e| e.to_string())?;
                shares.localut_build = ns;
            }
            first_walk.get_or_insert(walk);
            total.add(&shares);
        }
        first_walk.expect("the stream is not empty").report(metrics);
        metrics.set("walk.checksum_ok", f64::from(u8::from(checksum_ok)));
        // What the timed round spent beyond the parts above is the engine's
        // own: LRU insert and evict, key hashing, the cache lock.
        let rest = (round.wall.as_nanos() as f64 - total.total()).max(0.0);
        total.engine += rest;
        total.unattributed += rest;
        Ok(total)
    }
}
