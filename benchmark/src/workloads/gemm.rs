//! `gemm_wide` and `gemm_ranked`: one warm `Engine::submit` per round.
//!
//! The same W1A3 LoCaLUT kernel on two shard plans. Sixteen flat banks
//! give sixteen large tiles, so the blocked gather loop is where the time
//! goes; the ranked 32 x 64 machine cuts the paper shape into 2048 tiny
//! tiles, so the executor's per-shard costs are. An inner-loop gain should
//! show on the first and barely on the second; an executor gain the other
//! way round.

use super::{CacheCounts, Round, Verification, Workload};
use crate::schema::Metrics;
use crate::spans::Tracer;
use crate::stats::mix_seed;
use crate::walk::{walk_gemm, LutPool, Shares};
use engine::{Engine, GemmRequest, Topology};
use localut::gemm::reference_gemm;
use localut::GemmDims;
use quant::{NumericFormat, QMatrix};
use std::time::Instant;

/// Host threads of the engine's pool.
const POOL_THREADS: usize = 2;

/// Repetitions of the layer walk in the traced pass.
const WALK_REPS: usize = 5;

pub struct GemmSpec {
    dims: GemmDims,
    topology: Topology,
}

pub const WIDE: GemmSpec = GemmSpec {
    dims: GemmDims {
        m: 3072,
        k: 768,
        n: 128,
    },
    topology: Topology::Flat(16),
};

pub const RANKED: GemmSpec = GemmSpec {
    dims: GemmDims {
        m: 768,
        k: 768,
        n: 128,
    },
    topology: Topology::Ranked {
        ranks: 32,
        banks_per_rank: 64,
    },
};

pub struct Gemm {
    engine: Engine,
    request: GemmRequest,
    /// The first response's values, checked against `reference_gemm`.
    first_values: Vec<i32>,
    /// `(checksum, simulated femtoseconds)` of every response.
    seen: Vec<(u64, u128)>,
    latest: CacheCounts,
}

impl Gemm {
    pub fn setup(spec: &GemmSpec, seed: u64) -> Result<Self, String> {
        let GemmDims { m, k, n } = spec.dims;
        let request = GemmRequest::new(
            QMatrix::pseudo_random(m, k, NumericFormat::Bipolar, mix_seed(seed, 1)),
            QMatrix::pseudo_random(k, n, NumericFormat::Int(3), mix_seed(seed, 2)),
        );
        let engine = Engine::builder()
            .threads(POOL_THREADS)
            .topology(spec.topology)
            .build();
        let first = engine.submit(&request).map_err(|e| e.to_string())?;
        Ok(Gemm {
            latest: CacheCounts::default(),
            engine,
            request,
            seen: vec![(first.checksum, first.stats.snapshot().total_femtos)],
            first_values: first.values,
        })
    }
}

impl Workload for Gemm {
    fn round(&mut self, latencies_ns: &mut Vec<u64>, tracer: &mut Tracer) -> Round {
        let before = CacheCounts::of(&self.engine);
        let op = self.seen.len() as u64;
        let start = Instant::now();
        let result = tracer.span("engine.submit", op, |_| self.engine.submit(&self.request));
        let wall = start.elapsed();
        latencies_ns.push(wall.as_nanos() as u64);
        self.latest = CacheCounts::of(&self.engine).since(before);
        let (failed, sim_femtos) = match result {
            Ok(response) => {
                let sim = response.stats.snapshot().total_femtos;
                self.seen.push((response.checksum, sim));
                (0, sim)
            }
            Err(_) => (1, 0),
        };
        Round {
            ops: 1,
            failed,
            wall,
            sim_femtos,
        }
    }

    fn verify(&mut self) -> Verification {
        let mut verdict = Verification::default();
        let reference: Vec<i32> = reference_gemm(&self.request.w, &self.request.a)
            .expect("operands were accepted by the engine");
        let expected = runtime::values_checksum(&reference);
        verdict.expect(self.first_values == reference, 1, || {
            "first response's values differ from reference_gemm".to_owned()
        });
        let sim = self.seen[0].1;
        let wrong = self
            .seen
            .iter()
            .filter(|&&(checksum, femtos)| checksum != expected || femtos != sim)
            .count() as u64;
        verdict.expect(wrong == 0, wrong, || {
            format!("{wrong} response(s) differ from reference_gemm's checksum {expected:016x} or the first simulated time")
        });
        verdict
    }

    fn cache_counts(&self) -> CacheCounts {
        self.latest
    }

    fn layers(
        &mut self,
        _round: &Round,
        _latencies_ns: &[u64],
        tracer: &mut Tracer,
        metrics: &mut Metrics,
    ) -> Result<Shares, String> {
        let walk = walk_gemm(
            &self.engine,
            &self.request,
            &mut LutPool::default(),
            tracer,
            0,
            WALK_REPS,
        )?;
        walk.report(metrics);
        metrics.set("walk.checksum_ok", f64::from(u8::from(walk.checksum_ok)));
        Ok(walk.shares())
    }
}
