//! The six workloads. Each is a fixed amount of work per round, generated
//! from the seed, whose outputs are checked against an independent
//! reference after the clock has stopped.

mod cache;
mod gemm;
mod net;
mod serve;

use crate::schema::Metrics;
use crate::spans::Tracer;
use crate::walk::Shares;
use std::time::Duration;

/// Client threads (and connections) every serving workload drives. Fixed,
/// not `available_parallelism`, so results from different hosts describe
/// the same load; the host's parallelism is recorded beside them.
pub const CLIENTS: usize = 2;

/// What one round of a workload did.
#[derive(Debug, Clone)]
pub struct Round {
    /// Operations attempted (one request, or one `Engine::submit`).
    pub ops: u64,
    /// Operations that came back as an error or a refusal.
    pub failed: u64,
    /// Host time from the first op's submission to the last response.
    pub wall: Duration,
    /// Merged simulated time of the round's ops.
    pub sim_femtos: u128,
}

/// What checking a workload's recorded outputs found.
#[derive(Debug, Default)]
pub struct Verification {
    /// Operations whose output differs from the reference.
    pub wrong_ops: u64,
    /// One line per disagreement, for the operator.
    pub notes: Vec<String>,
}

impl Verification {
    pub fn expect(&mut self, holds: bool, ops: u64, note: impl FnOnce() -> String) {
        if !holds {
            self.wrong_ops += ops;
            self.notes.push(note());
        }
    }
}

/// Cache and memo lookups of one round, from the engine's own counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub restored: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

impl CacheCounts {
    pub fn of(engine: &engine::Engine) -> Self {
        let (lut, memo) = (engine.lut_cache_stats(), engine.plan_memo_stats());
        CacheCounts {
            hits: lut.hits,
            misses: lut.misses,
            evictions: lut.evictions,
            restored: lut.restored,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
        }
    }

    pub fn since(self, earlier: CacheCounts) -> Self {
        CacheCounts {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            restored: self.restored - earlier.restored,
            memo_hits: self.memo_hits - earlier.memo_hits,
            memo_misses: self.memo_misses - earlier.memo_misses,
        }
    }
}

pub trait Workload {
    /// Runs one round, appending each op's host latency in nanoseconds.
    /// Outputs are kept for [`Workload::verify`]; nothing is checked while
    /// the clock runs.
    fn round(&mut self, latencies_ns: &mut Vec<u64>, tracer: &mut Tracer) -> Round;

    /// Checks every recorded round against the workload's reference.
    fn verify(&mut self) -> Verification;

    /// Cache and memo lookups of the most recent round.
    fn cache_counts(&self) -> CacheCounts;

    /// Traced pass only: sets the workload's own layer metrics and returns
    /// where one round's host time went, in nanoseconds by layer.
    /// `round` and `latencies_ns` are the best untraced round's.
    fn layers(
        &mut self,
        round: &Round,
        latencies_ns: &[u64],
        tracer: &mut Tracer,
        metrics: &mut Metrics,
    ) -> Result<Shares, String>;
}

/// One cold set-up of `name`: inputs from `seed`, a fresh engine, and the
/// first request answered. `None` for an unknown name.
pub fn setup(name: &str, seed: u64) -> Option<Result<Box<dyn Workload>, String>> {
    Some(match name {
        "gemm_wide" => gemm::Gemm::setup(&gemm::WIDE, seed).map(boxed),
        "gemm_ranked" => gemm::Gemm::setup(&gemm::RANKED, seed).map(boxed),
        "serve_chat" => serve::Serve::setup(&serve::CHAT, seed).map(boxed),
        "serve_burst" => serve::Serve::setup(&serve::BURST, seed).map(boxed),
        "net_mixed" => net::Net::setup(seed).map(boxed),
        "cache_lifecycle" => cache::CacheLifecycle::setup(seed).map(boxed),
        _ => return None,
    })
}

fn boxed<W: Workload + 'static>(workload: W) -> Box<dyn Workload> {
    Box::new(workload)
}
