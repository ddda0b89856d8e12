//! # engine — the unified serving surface of the LoCaLUT reproduction
//!
//! Every consumer used to hand-wire `quant → localut::Planner →
//! runtime::ParallelExecutor → dnn::InferenceSim` and juggle four disjoint
//! error enums. This crate redesigns that surface around one typed entry
//! point:
//!
//! * [`EngineBuilder`] — profile, worker threads, sharding [`Topology`]
//!   (a flat bank fleet, or the paper's full 32 × 64 ranked machine),
//!   bit-config and method defaults → [`Engine`].
//! * [`Engine`] — accepts typed requests ([`GemmRequest`],
//!   [`BatchGemmRequest`], [`InferenceRequest`]) and returns typed
//!   responses carrying values, merged [`pim_sim::Stats`], picojoule
//!   energy, and checksums, all through a single [`EngineError`].
//! * **LUT caching** — the engine owns a keyed cache
//!   (`(formats, p, placement) → SharedLuts`), so repeated requests skip
//!   the expensive canonical/reordering rebuild: the first real step
//!   toward request-serving throughput. Cache behavior is observable via
//!   [`Engine::lut_cache_stats`] and per-response [`CacheOutcome`]s.
//! * [`serve`] — the **concurrent serving scheduler**: a thread-safe
//!   [`Server`] frontend (admission queue + worker pool + dynamic GEMM
//!   batching) over one shared engine, with deterministic merged
//!   summaries and simulated-latency percentiles; [`traffic`] generates
//!   the seeded request logs the scheduler, the `loadgen` binary, and the
//!   tests share.
//! * [`sessions`] — **continuous batching** for decoder serving: a
//!   [`SessionRequest`] decomposes into one prefill step plus one step
//!   per decode token, each re-entering the admission queue as its own
//!   schedulable unit (new prefills interleave between decode waves),
//!   with deterministic TTFT/per-step latency digests in the
//!   [`ServeSummary`]. Sessions are timed analytically and touch no LUT
//!   image.
//!
//! Determinism is inherited from the layers below: for a fixed request,
//! every response is bitwise identical at any worker count, with or
//! without a warm cache — pinned by the workspace test suites.
//!
//! ## Quickstart
//!
//! ```
//! use engine::{Engine, GemmRequest};
//! use quant::{NumericFormat, QMatrix};
//!
//! let engine = Engine::builder().threads(2).banks(4).build();
//! let w = QMatrix::pseudo_random(16, 24, NumericFormat::Int(2), 1);
//! let a = QMatrix::pseudo_random(24, 8, NumericFormat::Int(3), 2);
//!
//! // First request builds the LUT images; the repeat reuses them and is
//! // bitwise identical (only the recorded cache outcome differs).
//! let first = engine.submit(&GemmRequest::new(w.clone(), a.clone()))?;
//! let again = engine.submit(&GemmRequest::new(w, a))?;
//! assert_eq!(first.values, again.values);
//! assert_eq!(first.stats, again.stats);
//! assert_eq!((first.checksum, first.energy_pj), (again.checksum, again.energy_pj));
//! assert_eq!(engine.lut_cache_stats().hits, 1);
//! # Ok::<(), engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cachelife;
mod error;
pub mod request;
pub mod response;
pub mod serve;
pub mod sessions;
pub mod traffic;

pub use cachelife::lru::{CacheOutcome, CacheStats, LutKey, MemoStats};
pub use cachelife::store::StoreError;
pub use error::{EngineError, FrameError, NetError, Rejection};
pub use request::{BatchGemmRequest, GemmRequest, InferenceRequest, PlanPin};
pub use response::{picojoules, BatchGemmResponse, GemmResponse, InferenceResponse};
pub use serve::{
    LatencyDigest, ServeConfig, ServeConfigBuilder, ServeRecorder, ServeReport, ServeSummary,
    Server, Ticket,
};
pub use sessions::{SessionRequest, SessionResponse};
pub use traffic::{Mix, TrafficConfig, TrafficRequest};

use cachelife::lru::{LutCache, PlanKey, PlanMemo};
use dnn::InferenceSim;
use localut::kernels::{BankKernel, KernelSpec};
use localut::plan::{ExecutionPlan, Planner};
use localut::{GemmConfig, GemmDims, LocaLutError, Method};
use pim_sim::{DpuConfig, EnergyModel, Profile, Stats, SystemProfile};
use quant::{BitConfig, NumericFormat};
use runtime::{ParallelExecutor, ShardPlan};
use std::path::PathBuf;

/// How an engine shards GEMM requests across the machine by default.
///
/// The paper's server is hierarchical — 32 ranks × 64 DPU banks — and the
/// topology decides whether requests see that hierarchy:
///
/// * [`Topology::Flat`] shards across `n` interchangeable banks with a
///   flat statistics fold and **no** rank-bus contention term (the
///   pre-scale-out behavior, and still the default).
/// * [`Topology::Ranked`] shards across `ranks × banks_per_rank` banks
///   grouped under a [`runtime::RankPlan`]: statistics merge through the
///   per-rank tree and the busiest rank's host-link occupancy is charged
///   as an extra serving phase.
///
/// A per-request bank override ([`GemmRequest::with_banks`]) always
/// shards flat — it is an explicit "just use n banks" escape hatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A flat fleet of `n` interchangeable banks.
    Flat(u32),
    /// The two-level machine: `ranks` ranks of `banks_per_rank` banks.
    Ranked {
        /// Number of ranks (the paper's server has 32).
        ranks: u32,
        /// DPU banks per rank (the paper's server has 64).
        banks_per_rank: u32,
    },
}

impl Topology {
    /// Total bank count the topology shards across.
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        match *self {
            Topology::Flat(banks) => banks,
            Topology::Ranked {
                ranks,
                banks_per_rank,
            } => ranks.saturating_mul(banks_per_rank),
        }
    }
}

/// Configures and constructs an [`Engine`].
///
/// Defaults model the paper's serving setup: the UPMEM DPU profile with
/// `k = 2` co-resident slice pairs, 4 worker threads, 16-bank GEMM
/// sharding, [`Method::LoCaLut`] and `W1A3`.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    gemm: GemmConfig,
    threads: usize,
    topology: Topology,
    method: Method,
    bits: BitConfig,
    energy: EnergyModel,
    cache_budget: Option<u64>,
    cache_dir: Option<PathBuf>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            gemm: GemmConfig::upmem(),
            threads: 4,
            topology: Topology::Flat(16),
            method: Method::LoCaLut,
            bits: BitConfig { bw: 1, ba: 3 },
            energy: EnergyModel::upmem(),
            cache_budget: None,
            cache_dir: None,
        }
    }
}

impl EngineBuilder {
    /// Host worker threads for the bank-parallel runtime (≥ 1; never
    /// changes a simulated number, only host wall-clock).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Default number of banks a GEMM request's output is sharded across
    /// (≥ 1; overridable per request). Selects a flat
    /// [`Topology`] — the pre-scale-out behavior.
    #[must_use]
    pub fn banks(mut self, banks: u32) -> Self {
        self.topology = Topology::Flat(banks.max(1));
        self
    }

    /// Shards GEMM requests across the two-level machine: `ranks` ranks
    /// of `banks_per_rank` banks each (≥ 1 each; the paper's server is
    /// `ranks(32, 64)`). Ranked engines merge statistics through the
    /// per-rank tree and charge the rank-bus contention phase; a
    /// per-request bank override still shards flat.
    #[must_use]
    pub fn ranks(mut self, ranks: u32, banks_per_rank: u32) -> Self {
        self.topology = Topology::Ranked {
            ranks: ranks.max(1),
            banks_per_rank: banks_per_rank.max(1),
        };
        self
    }

    /// Sets the sharding topology directly.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = match topology {
            Topology::Flat(banks) => Topology::Flat(banks.max(1)),
            Topology::Ranked {
                ranks,
                banks_per_rank,
            } => Topology::Ranked {
                ranks: ranks.max(1),
                banks_per_rank: banks_per_rank.max(1),
            },
        };
        self
    }

    /// Default execution method (overridable per request).
    #[must_use]
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Default bit configuration for inference requests (overridable per
    /// request; GEMM requests carry their formats in the operands).
    #[must_use]
    pub fn bits(mut self, bits: BitConfig) -> Self {
        self.bits = bits;
        self
    }

    /// Number of co-resident LUT slice pairs (`k` of §IV-C), applied to
    /// both the kernel configuration and the inference simulator.
    #[must_use]
    pub fn k_slices(mut self, k_slices: u32) -> Self {
        self.gemm.k_slices = k_slices;
        self
    }

    /// The DPU hardware profile kernels run on.
    #[must_use]
    pub fn dpu(mut self, dpu: DpuConfig) -> Self {
        self.gemm.dpu = dpu;
        self
    }

    /// The energy model responses are priced under.
    #[must_use]
    pub fn energy_model(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Byte budget for resident LUT images: when the cache grows past it,
    /// least-recently-used images are evicted (deterministically; see
    /// [`cachelife`]). `None` (the default) keeps the cache
    /// unbounded. Eviction never changes a simulated metric — an evicted
    /// key rebuilds its identical image on refetch.
    #[must_use]
    pub fn cache_budget(mut self, bytes: u64) -> Self {
        self.cache_budget = Some(bytes);
        self
    }

    /// Directory for on-disk LUT persistence: [`EngineBuilder::build`]
    /// warm-restores any images a previous process saved there
    /// ([`Engine::persist_cache`]), skipping their multi-hundred-
    /// millisecond rebuilds. A missing directory is a cold start; a
    /// corrupt one falls back to a cold start with the typed error kept
    /// observable via [`Engine::cache_restore_error`].
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Builds the engine (infallible: defaults are always valid,
    /// request-dependent failures surface per request, and a failed
    /// warm restore degrades to a cold cache instead of failing the
    /// build — the error stays readable via
    /// [`Engine::cache_restore_error`]).
    #[must_use]
    pub fn build(self) -> Engine {
        let mut sim = InferenceSim::upmem_server();
        sim.dist.gemm = self.gemm.clone();
        let cache = LutCache::with_budget(self.cache_budget);
        let cache_restore_error = match &self.cache_dir {
            Some(dir) => match cachelife::store::load(dir) {
                Ok(entries) => {
                    cache.restore(entries);
                    None
                }
                Err(e) => Some(e),
            },
            None => None,
        };
        Engine {
            pool: ParallelExecutor::with_config(self.threads, self.gemm.clone())
                .with_system(sim.dist.system.clone()),
            gemm: self.gemm,
            sim,
            topology: self.topology,
            method: self.method,
            bits: self.bits,
            energy: self.energy,
            cache,
            cache_dir: self.cache_dir,
            cache_restore_error,
            plan_memo: PlanMemo::new(),
        }
    }
}

/// The serving engine: one typed entry point over the planner, the
/// bank-parallel runtime, and the inference simulator, with a keyed cache
/// of the expensive canonical/reordering LUT images.
///
/// An engine is `Sync`: it serves requests from `&self`, so one instance
/// can be shared across application threads (the LUT cache is internally
/// locked).
#[derive(Debug)]
pub struct Engine {
    gemm: GemmConfig,
    pool: ParallelExecutor,
    sim: InferenceSim,
    topology: Topology,
    method: Method,
    bits: BitConfig,
    energy: EnergyModel,
    cache: LutCache,
    cache_dir: Option<PathBuf>,
    cache_restore_error: Option<StoreError>,
    plan_memo: PlanMemo,
}

/// A kernel prepared for execution: built once, LUTs possibly from cache.
struct PreparedGemm {
    bank: BankKernel,
    plan: ShardPlan,
    method: Method,
    lut_cache: Option<CacheOutcome>,
}

impl Engine {
    /// Starts configuring an engine.
    #[must_use]
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An engine with all defaults (see [`EngineBuilder`]).
    #[must_use]
    pub fn upmem() -> Self {
        EngineBuilder::default().build()
    }

    /// The worker count of the underlying pool.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The kernel configuration requests run under.
    #[must_use]
    pub fn gemm_config(&self) -> &GemmConfig {
        &self.gemm
    }

    /// The engine's default execution method.
    #[must_use]
    pub fn default_method(&self) -> Method {
        self.method
    }

    /// The engine's default bit configuration.
    #[must_use]
    pub fn default_bits(&self) -> BitConfig {
        self.bits
    }

    /// The engine's default bank count for GEMM requests (the topology's
    /// total).
    #[must_use]
    pub fn default_banks(&self) -> u32 {
        self.topology.total_banks()
    }

    /// The sharding topology GEMM requests default to.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The inference simulator requests are timed on.
    #[must_use]
    pub fn sim(&self) -> &InferenceSim {
        &self.sim
    }

    /// The worker pool (for consumers that need the ordered parallel map
    /// directly).
    #[must_use]
    pub fn pool(&self) -> &ParallelExecutor {
        &self.pool
    }

    /// Running LUT-cache counters.
    #[must_use]
    pub fn lut_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Running plan-memo counters.
    #[must_use]
    pub fn plan_memo_stats(&self) -> MemoStats {
        self.plan_memo.stats()
    }

    /// The cache directory warm restores and [`Engine::persist_cache`]
    /// use, when one was configured.
    #[must_use]
    pub fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cache_dir.as_deref()
    }

    /// The typed error of a failed warm restore, if construction fell
    /// back to a cold cache (`None` after a clean restore or without a
    /// cache directory).
    #[must_use]
    pub fn cache_restore_error(&self) -> Option<&StoreError> {
        self.cache_restore_error.as_ref()
    }

    /// Persists every resident LUT image to the configured cache
    /// directory (checksummed manifest + image files; see
    /// [`cachelife::store`]), returning how many images were written. The
    /// natural call site is a drain — `serve-daemon` and `loadgen` save
    /// on exit so the next process warm-starts.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] when no cache directory was
    /// configured; [`EngineError::Cache`] on a store failure.
    pub fn persist_cache(&self) -> Result<usize, EngineError> {
        let Some(dir) = &self.cache_dir else {
            return Err(EngineError::InvalidRequest(
                "persist_cache on an engine without a cache directory".to_owned(),
            ));
        };
        let snapshot = self.cache.snapshot();
        cachelife::store::save(dir, &snapshot)?;
        Ok(snapshot.len())
    }

    /// Plans through the bounded memo: repeated shapes return a clone of
    /// the memoized plan (bitwise equal to a recompute — planning is
    /// deterministic) instead of re-running the §V-A search.
    pub(crate) fn memo_plan(
        &self,
        dims: GemmDims,
        wf: NumericFormat,
        af: NumericFormat,
        k_slices: Option<u32>,
    ) -> Result<ExecutionPlan, LocaLutError> {
        let key = PlanKey {
            dims,
            wf,
            af,
            k_slices,
        };
        self.plan_memo.get_or_plan(key, || {
            Planner::new(self.gemm.dpu.clone()).plan(dims, wf, af, k_slices)
        })
    }

    /// Executes one GEMM request functionally on the bank-parallel
    /// runtime.
    ///
    /// # Errors
    ///
    /// Shape, format, budget, or planning errors ([`EngineError`]).
    pub fn submit(&self, request: &GemmRequest) -> Result<GemmResponse, EngineError> {
        let prepared = self.prepare(request)?;
        self.execute(request, &prepared, &self.pool)
    }

    /// Serves a batch of GEMM requests: the LUT cache is warmed in
    /// request order, then the requests fan out across the worker pool
    /// (each request's bank merge runs inside one worker). Responses are
    /// bitwise identical to submitting the requests one by one.
    ///
    /// # Errors
    ///
    /// The error of the lowest-index failing request.
    pub fn submit_batch(&self, batch: &BatchGemmRequest) -> Result<BatchGemmResponse, EngineError> {
        // Deterministic cache warm-up: kernels build serially in request
        // order, so recorded hit/miss outcomes do not depend on worker
        // scheduling.
        let prepared = batch
            .requests
            .iter()
            .map(|request| self.prepare(request))
            .collect::<Result<Vec<_>, _>>()?;
        let items: Vec<(&GemmRequest, &PreparedGemm)> =
            batch.requests.iter().zip(&prepared).collect();
        // Inside a worker, each request executes its shard merge serially
        // (1-thread executor): outputs are worker-count invariant by
        // construction, so this only chooses where host parallelism goes.
        let serial = ParallelExecutor::with_config(1, self.gemm.clone())
            .with_system(self.sim.dist.system.clone());
        let results = self.pool.map(&items, |(request, prepared)| {
            self.execute(request, prepared, &serial)
        });
        let mut responses = Vec::with_capacity(results.len());
        for result in results {
            responses.push(result?);
        }
        let mut stats = Stats::default();
        let mut energy_pj = 0u128;
        for response in &responses {
            stats.merge(&response.stats);
            energy_pj += response.energy_pj;
        }
        Ok(BatchGemmResponse {
            responses,
            stats,
            energy_pj,
        })
    }

    /// Times an inference serving request end-to-end on the worker pool.
    ///
    /// # Errors
    ///
    /// Kernel feasibility errors, reported for the lowest-index failing
    /// workload; [`EngineError::InvalidRequest`] for an empty request.
    pub fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, EngineError> {
        if request.workloads.is_empty() {
            return Err(EngineError::InvalidRequest(
                "inference request with no workloads".to_owned(),
            ));
        }
        let method = request.method.unwrap_or(self.method);
        let bits = request.bits.unwrap_or(self.bits);
        let batch = self
            .sim
            .run_batch(&self.pool, method, bits, &request.workloads)?;
        let energy = self
            .energy
            .system_energy(self.sim.dist.system.config(), &batch.merged)
            .total_j();
        Ok(InferenceResponse {
            reports: batch.reports,
            merged: batch.merged,
            stats: batch.stats,
            energy_pj: picojoules(energy),
            method,
        })
    }

    /// Plans one GEMM with the engine's configured slice count (§V-A).
    ///
    /// # Errors
    ///
    /// [`EngineError::Gemm`] when no feasible configuration exists.
    pub fn plan(&self, dims: GemmDims, bits: BitConfig) -> Result<ExecutionPlan, EngineError> {
        self.plan_with_k(dims, bits, Some(self.gemm.k_slices))
    }

    /// Plans one GEMM with an explicit slice count (`None` searches
    /// `k ∈ {1, 2, 4, 8}`).
    ///
    /// # Errors
    ///
    /// [`EngineError::Gemm`] when no feasible configuration exists.
    pub fn plan_with_k(
        &self,
        dims: GemmDims,
        bits: BitConfig,
        k_slices: Option<u32>,
    ) -> Result<ExecutionPlan, EngineError> {
        Ok(self.memo_plan(
            dims,
            bits.weight_format(),
            bits.activation_format(),
            k_slices,
        )?)
    }

    /// Analytic system-level cost of `method` at `dims` on the paper's
    /// 2048-DPU server (host + PIM phases; no data touched).
    ///
    /// # Errors
    ///
    /// Kernel feasibility errors.
    pub fn system_cost(
        &self,
        method: Method,
        dims: GemmDims,
        bits: BitConfig,
    ) -> Result<SystemProfile, EngineError> {
        Ok(self
            .sim
            .dist
            .cost(method, dims, bits.weight_format(), bits.activation_format())?)
    }

    /// Analytic per-DPU cost of a **pinned** kernel at `dims` — the cost
    /// twin of a pinned [`GemmRequest`]. Purely analytic: no LUT image is
    /// built or cached, since cost depends on dimensions alone.
    ///
    /// # Errors
    ///
    /// Budget or format errors for the pinned configuration.
    pub fn pinned_kernel_cost(
        &self,
        pin: PlanPin,
        bits: BitConfig,
        dims: GemmDims,
    ) -> Result<Profile, EngineError> {
        Ok(self
            .pinned_spec(pin, bits.weight_format(), bits.activation_format())?
            .cost(dims))
    }

    /// One-time initialization cost of `method` at `bits` (§V-A LUT build
    /// + broadcast), amortized across a serving session.
    ///
    /// # Errors
    ///
    /// Kernel feasibility errors.
    pub fn init_cost(&self, method: Method, bits: BitConfig) -> Result<SystemProfile, EngineError> {
        Ok(self.sim.init_cost(method, bits)?)
    }

    /// The energy model responses are priced under.
    #[must_use]
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    fn prepare(&self, request: &GemmRequest) -> Result<PreparedGemm, EngineError> {
        let dims = GemmDims::of(&request.w, &request.a)?;
        // A request-level bank override always shards flat; otherwise the
        // engine topology decides (ranked engines build two-level plans).
        let plan = match request.banks {
            Some(0) => {
                return Err(EngineError::InvalidRequest(
                    "GEMM request with zero banks".to_owned(),
                ));
            }
            Some(banks) => ShardPlan::for_banks(dims, banks),
            None => match self.topology {
                Topology::Flat(banks) => ShardPlan::for_banks(dims, banks),
                Topology::Ranked {
                    ranks,
                    banks_per_rank,
                } => ShardPlan::for_ranks(dims, ranks, banks_per_rank),
            },
        };
        let wf = request.w.format();
        let af = request.a.format();
        let (bank, method, lut_cache) = if let Some(pin) = request.pin {
            // A pin chooses among the LUT kernels; combining it with an
            // explicitly LUT-free method is contradictory, not a default
            // to silently override.
            if let Some(method) = request.method {
                if !matches!(method, Method::OpLcRc | Method::LoCaLut) {
                    return Err(EngineError::InvalidRequest(format!(
                        "plan pin on LUT-free method {method}"
                    )));
                }
            }
            let (bank, outcome) = self.pinned_kernel(pin, wf, af)?;
            let method = bank.method();
            (bank, method, Some(outcome))
        } else {
            let method = request.method.unwrap_or(self.method);
            let (bank, outcome) = self.bank_kernel(method, wf, af, dims)?;
            (bank, method, outcome)
        };
        Ok(PreparedGemm {
            bank,
            plan,
            method,
            lut_cache,
        })
    }

    fn execute(
        &self,
        request: &GemmRequest,
        prepared: &PreparedGemm,
        executor: &ParallelExecutor,
    ) -> Result<GemmResponse, EngineError> {
        let par =
            executor.execute_plan_with(&prepared.plan, &prepared.bank, &request.w, &request.a)?;
        let energy_pj = picojoules(par.energy(&self.energy).total_j());
        let checksum = par.checksum();
        Ok(GemmResponse {
            values: par.values,
            dims: par.dims,
            method: prepared.method,
            stats: par.stats,
            profile: par.profile,
            per_bank: par.per_bank,
            energy_pj,
            checksum,
            lut_cache: prepared.lut_cache,
        })
    }

    /// Builds the kernel `method` would use, sourcing shared LUT images
    /// from the cache and §V-A plans from the memo —
    /// [`BankKernel::build_planned`] keeps the method dispatch identical
    /// to the serial path's [`BankKernel::build`]; only the LUT and plan
    /// sources differ, and both are deterministic.
    fn bank_kernel(
        &self,
        method: Method,
        wf: NumericFormat,
        af: NumericFormat,
        dims: GemmDims,
    ) -> Result<(BankKernel, Option<CacheOutcome>), EngineError> {
        let mut recorded = None;
        let bank = BankKernel::build_planned(
            &self.gemm,
            method,
            wf,
            af,
            dims,
            |wf, af, p, placement| {
                let (luts, outcome) = self.cache.get_or_build(LutKey {
                    wf,
                    af,
                    p,
                    placement,
                })?;
                recorded = Some(outcome);
                Ok(luts)
            },
            |dims, wf, af, k_slices| self.memo_plan(dims, wf, af, k_slices),
        )?;
        Ok((bank, recorded))
    }

    /// The kernel a pin describes, at the engine's slice count.
    fn pinned_spec(
        &self,
        pin: PlanPin,
        wf: NumericFormat,
        af: NumericFormat,
    ) -> Result<KernelSpec, EngineError> {
        let GemmConfig { dpu, k_slices } = &self.gemm;
        Ok(KernelSpec::placed(
            dpu,
            wf,
            af,
            pin.p,
            pin.placement,
            *k_slices,
        )?)
    }

    fn pinned_kernel(
        &self,
        pin: PlanPin,
        wf: NumericFormat,
        af: NumericFormat,
    ) -> Result<(BankKernel, CacheOutcome), EngineError> {
        let (luts, outcome) = self.cache.get_or_build(LutKey {
            wf,
            af,
            p: pin.p,
            placement: pin.placement,
        })?;
        let spec = self.pinned_spec(pin, wf, af)?;
        Ok((BankKernel::with_shared_luts(spec, luts), outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant::QMatrix;

    fn operands(seed: u64) -> (QMatrix, QMatrix) {
        (
            QMatrix::pseudo_random(10, 18, NumericFormat::Int(2), seed),
            QMatrix::pseudo_random(18, 6, NumericFormat::Int(3), seed + 7),
        )
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let engine = Engine::builder()
            .threads(0) // clamped
            .banks(0) // clamped
            .method(Method::Op)
            .k_slices(4)
            .build();
        assert_eq!(engine.threads(), 1);
        assert_eq!(engine.default_method(), Method::Op);
        assert_eq!(engine.gemm_config().k_slices, 4);
        // The inference simulator inherits the kernel configuration.
        assert_eq!(engine.sim().dist.gemm.k_slices, 4);
    }

    #[test]
    fn lut_free_methods_record_no_cache_outcome() {
        let engine = Engine::builder().threads(1).banks(2).build();
        let (w, a) = operands(3);
        let response = engine
            .submit(&GemmRequest::new(w, a).with_method(Method::NaivePim))
            .unwrap();
        assert_eq!(response.lut_cache, None);
        assert_eq!(engine.lut_cache_stats().lookups(), 0);
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let engine = Engine::builder().threads(2).banks(4).build();
        let (w, a) = operands(5);
        let first = engine
            .submit(&GemmRequest::new(w.clone(), a.clone()))
            .unwrap();
        let second = engine.submit(&GemmRequest::new(w, a)).unwrap();
        assert_eq!(first.lut_cache, Some(CacheOutcome::Miss));
        assert_eq!(second.lut_cache, Some(CacheOutcome::Hit));
        let (f, s) = (first, second);
        // Bitwise identical response, modulo the recorded cache outcome.
        assert_eq!(f.values, s.values);
        assert_eq!(f.stats, s.stats);
        assert_eq!(f.profile, s.profile);
        assert_eq!(f.energy_pj, s.energy_pj);
        assert_eq!(f.checksum, s.checksum);
        let stats = engine.lut_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.resident_bytes > 0, "cached LUTs occupy bytes");
    }

    #[test]
    fn pin_on_lut_free_method_is_rejected() {
        use localut::plan::Placement;
        let engine = Engine::upmem();
        let (w, a) = operands(13);
        let pin = PlanPin {
            placement: Placement::BufferResident,
            p: 3,
        };
        let err = engine
            .submit(
                &GemmRequest::new(w.clone(), a.clone())
                    .with_method(Method::NaivePim)
                    .with_pin(pin),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidRequest(_)));
        // The LUT methods compose with a pin.
        assert!(engine
            .submit(
                &GemmRequest::new(w, a)
                    .with_method(Method::OpLcRc)
                    .with_pin(pin)
            )
            .is_ok());
    }

    #[test]
    fn pinned_cost_is_analytic_and_touches_no_cache() {
        use localut::plan::Placement;
        let engine = Engine::upmem();
        let profile = engine
            .pinned_kernel_cost(
                PlanPin {
                    placement: Placement::BufferResident,
                    p: 3,
                },
                BitConfig { bw: 2, ba: 3 },
                GemmDims { m: 8, k: 12, n: 4 },
            )
            .unwrap();
        assert!(profile.total_seconds() > 0.0);
        assert_eq!(engine.lut_cache_stats().lookups(), 0);
    }

    #[test]
    fn ranked_engines_shard_hierarchically_and_charge_the_link() {
        let flat = Engine::builder().threads(2).banks(12).build();
        let ranked = Engine::builder().threads(2).ranks(3, 4).build();
        assert_eq!(ranked.default_banks(), 12);
        assert_eq!(
            ranked.topology(),
            Topology::Ranked {
                ranks: 3,
                banks_per_rank: 4
            }
        );
        let (w, a) = operands(21);
        let f = flat
            .submit(&GemmRequest::new(w.clone(), a.clone()))
            .unwrap();
        let r = ranked
            .submit(&GemmRequest::new(w.clone(), a.clone()))
            .unwrap();
        // Same math, same shards: values and checksum are bit-identical.
        assert_eq!(f.values, r.values);
        assert_eq!(f.checksum, r.checksum);
        assert_eq!(f.per_bank.len(), r.per_bank.len());
        // The ranked engine additionally charges the rank-bus phase, so
        // its merged statistics strictly dominate the flat fold.
        assert_eq!(f.stats.banks(), r.stats.banks());
        assert!(r.stats.total_seconds() > f.stats.total_seconds());
        // A per-request bank override shards flat even on a ranked
        // engine: the response matches the flat engine's bitwise.
        let overridden = ranked
            .submit(&GemmRequest::new(w, a).with_banks(12))
            .unwrap();
        assert_eq!(overridden.stats, f.stats);
        assert_eq!(overridden.values, f.values);
    }

    #[test]
    fn topology_arguments_are_clamped() {
        let engine = Engine::builder().ranks(0, 0).build();
        assert_eq!(
            engine.topology(),
            Topology::Ranked {
                ranks: 1,
                banks_per_rank: 1
            }
        );
        let direct = Engine::builder().topology(Topology::Flat(0)).build();
        assert_eq!(direct.topology(), Topology::Flat(1));
        assert_eq!(direct.default_banks(), 1);
    }

    #[test]
    fn zero_bank_override_is_rejected() {
        let engine = Engine::upmem();
        let (w, a) = operands(9);
        let err = engine
            .submit(&GemmRequest::new(w, a).with_banks(0))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidRequest(_)));
    }

    #[test]
    fn empty_inference_request_is_rejected() {
        let engine = Engine::upmem();
        let err = engine
            .infer(&InferenceRequest::serving(vec![]))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidRequest(_)));
    }

    #[test]
    fn infeasible_formats_error_through_engine_error() {
        let engine = Engine::upmem();
        let w = QMatrix::pseudo_random(4, 4, NumericFormat::Int(16), 1);
        let a = QMatrix::pseudo_random(4, 2, NumericFormat::Int(16), 2);
        let err = engine.submit(&GemmRequest::new(w, a)).unwrap_err();
        assert!(matches!(err, EngineError::Gemm(_)));
    }
}
