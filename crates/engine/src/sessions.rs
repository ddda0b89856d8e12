//! Decoder sessions for continuous batching: one inference request,
//! many schedulable steps.
//!
//! A monolithic decoder request ([`crate::InferenceRequest`] with
//! `decode_tokens > 0`) occupies a serving worker for its whole
//! prefill-plus-decode lifetime, head-of-line blocking every request
//! behind it. A [`SessionRequest`] decomposes the same workload into the
//! paper's serving units instead — one prefill step plus one step per
//! generated token ([`dnn::Workload::session_steps`]) — and the
//! scheduler re-enqueues the session after *every* step, so freshly
//! arrived prefills interleave between decode waves (continuous
//! batching).
//!
//! Decode steps are skinny GEMMs (`n = batch`, one token per sample),
//! and the paper's fig. 13/fig. 19 sweeps show skinny shapes prefer a
//! different packing degree and placement than prefill-sized shapes. A
//! decode-marked step therefore plans on the measured per-phase path
//! ([`localut::plan::Planner::plan_measured`]), while prefill keeps the
//! closed-form fixed-`k` plan — the two phases resolve to *different*
//! LUT-cache keys, observable via [`crate::Engine::session_plans`].
//!
//! ## Determinism
//!
//! [`crate::Engine::infer_session`] advances the session's steps
//! serially and folds them exactly the way
//! [`dnn::InferenceSim::run_batch`] folds independent workloads: the
//! response's `stats`, `merged` profile, and picojoule energy are
//! bitwise identical to `engine.infer()` over
//! `workload.session_steps()`. The scheduler executes one step per
//! dispatch through the *same* `SessionJob::advance` state machine, so
//! any interleaving, worker count, and arrival mode produces the same
//! [`SessionResponse`] — and the same per-step femtosecond latencies —
//! as the serial path.
//!
//! ## Example
//!
//! ```
//! use engine::sessions::SessionRequest;
//! use engine::{Engine, InferenceRequest};
//! use dnn::{ModelConfig, Workload};
//!
//! let engine = Engine::builder().threads(1).banks(4).build();
//! // A 3-token OPT decode session: 1 prefill step + 3 decode steps.
//! let workload = Workload::with_decode(ModelConfig::opt_125m(), 1, 3);
//! let session = engine.infer_session(&SessionRequest::new(workload.clone()))?;
//! assert_eq!(session.reports.len(), 4);
//! assert_eq!(session.decode_step_femtos.len(), 3);
//! assert!(session.ttft_femtos > 0);
//!
//! // Bitwise identical to serving the decomposed steps monolithically.
//! let steps = engine.infer(&InferenceRequest::serving(workload.session_steps()))?;
//! assert_eq!(session.stats, steps.stats);
//! assert_eq!(session.energy_pj, steps.energy_pj);
//! # Ok::<(), engine::EngineError>(())
//! ```

use crate::cachelife::lru::{CacheOutcome, LutKey};
use crate::response::picojoules;
use crate::{Engine, EngineError};
use dnn::inference::InferenceReport;
use dnn::layer::layer_gemms;
use dnn::Workload;
use localut::plan::ExecutionPlan;
use localut::tiling::TileGrid;
use localut::{GemmDims, Method};
use pim_sim::{Stats, SystemProfile};
use quant::BitConfig;

/// One decoder serving session: a workload the scheduler decomposes into
/// independently schedulable steps (see the [module docs](self)).
///
/// Sessions are opt-in: a plain [`crate::InferenceRequest`] still runs
/// monolithically, bitwise identical to every release before sessions
/// existed.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// The decoder workload to decompose
    /// ([`dnn::Workload::session_steps`] defines the step list).
    pub workload: Workload,
    /// Execution method override (`None` uses the engine default).
    pub method: Option<Method>,
    /// Bit-configuration override (`None` uses the engine default).
    pub bits: Option<BitConfig>,
}

impl SessionRequest {
    /// A session over `workload` with engine-default method and bits.
    #[must_use]
    pub fn new(workload: Workload) -> Self {
        SessionRequest {
            workload,
            method: None,
            bits: None,
        }
    }

    /// Overrides the execution method.
    #[must_use]
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = Some(method);
        self
    }

    /// Overrides the bit configuration.
    #[must_use]
    pub fn with_bits(mut self, bits: BitConfig) -> Self {
        self.bits = Some(bits);
        self
    }
}

/// The completed outcome of one session: per-step reports plus the exact
/// aggregate [`crate::Engine::infer`] would produce over the decomposed
/// step list, extended with the per-step latencies continuous batching
/// reports (TTFT and per-decode-step femtoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResponse {
    /// Per-step reports in step order (prefill first, then each decode
    /// step at its exact KV context).
    pub reports: Vec<InferenceReport>,
    /// Step-order fold of the per-step profiles (the energy basis).
    pub merged: SystemProfile,
    /// Associative + commutative merge of per-step statistics — one
    /// ingest per step, so `stats.banks()` counts steps.
    pub stats: Stats,
    /// Modeled energy over the merged profile, picojoules.
    pub energy_pj: u128,
    /// The method that executed.
    pub method: Method,
    /// Time to first token: the prefill step's simulated femtoseconds
    /// (0 for a session that begins mid-decode).
    pub ttft_femtos: u128,
    /// Each decode step's simulated femtoseconds, in step order.
    pub decode_step_femtos: Vec<u128>,
}

impl SessionResponse {
    /// Total simulated seconds across every step.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.merged.total_seconds()
    }

    /// Number of steps the session executed.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.reports.len()
    }
}

/// The per-phase execution plans a session resolves to — the paper's
/// fig. 13/fig. 19 observation made concrete: prefill (token-parallel,
/// wide `n`) and decode (one token per sample, skinny `n`) pick their
/// own packing degree and placement, hence their own LUT-cache keys.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlans {
    /// Plan for the representative prefill-phase tile (closed-form
    /// fixed-`k` path, matching the monolithic prefill).
    pub prefill: ExecutionPlan,
    /// Plan for the representative decode-step tile (measured per-phase
    /// path, [`localut::plan::Planner::plan_measured`]).
    pub decode: ExecutionPlan,
}

impl SessionPlans {
    /// The LUT-cache key the prefill-phase plan resolves to.
    #[must_use]
    pub fn prefill_key(&self) -> LutKey {
        plan_key(&self.prefill)
    }

    /// The LUT-cache key the decode-phase plan resolves to.
    #[must_use]
    pub fn decode_key(&self) -> LutKey {
        plan_key(&self.decode)
    }
}

fn plan_key(plan: &ExecutionPlan) -> LutKey {
    LutKey {
        wf: plan.wf,
        af: plan.af,
        p: plan.p,
        placement: plan.placement,
    }
}

/// What one [`SessionJob::advance`] call produced.
pub(crate) enum StepOutcome {
    /// The step completed; the session has more steps and must re-enter
    /// the admission queue.
    Continue,
    /// The final step completed; the session is finished.
    Done(Box<SessionResponse>),
}

/// The in-flight state machine of one session: which step runs next and
/// the accumulated aggregates. The scheduler advances it one step per
/// dispatch; [`Engine::infer_session`] advances it in a tight loop —
/// both paths share this code, which is what makes them bitwise equal.
pub(crate) struct SessionJob {
    method: Method,
    bits: BitConfig,
    steps: Vec<Workload>,
    next: usize,
    reports: Vec<InferenceReport>,
    merged: SystemProfile,
    stats: Stats,
    ttft_femtos: u128,
    decode_step_femtos: Vec<u128>,
}

impl SessionJob {
    /// Decomposes `request` against `engine`'s defaults.
    pub(crate) fn new(engine: &Engine, request: &SessionRequest) -> SessionJob {
        SessionJob {
            method: request.method.unwrap_or(engine.method),
            bits: request.bits.unwrap_or(engine.bits),
            steps: request.workload.session_steps(),
            next: 0,
            reports: Vec::new(),
            merged: SystemProfile::default(),
            stats: Stats::default(),
            ttft_femtos: 0,
            decode_step_femtos: Vec::new(),
        }
    }

    /// Executes the next step and folds it into the aggregates, exactly
    /// as [`dnn::InferenceSim::run_batch`] folds independent workloads.
    pub(crate) fn advance(&mut self, engine: &Engine) -> Result<StepOutcome, EngineError> {
        let step = &self.steps[self.next];
        let report = engine.sim.run(self.method, self.bits, step)?;
        let mut ledger = report.profile.host.ledger().clone();
        ledger.merge(report.profile.pim.ledger());
        let step_stats = Stats::from_ledger(&ledger);
        let femtos = step_stats.snapshot().total_femtos;
        if step.step.is_some() {
            self.decode_step_femtos.push(femtos);
        } else {
            self.ttft_femtos = femtos;
        }
        self.merged = self.merged.merged(&report.profile);
        self.stats.merge(&step_stats);
        self.reports.push(report);
        self.next += 1;
        if self.next < self.steps.len() {
            return Ok(StepOutcome::Continue);
        }
        let energy = engine
            .energy
            .system_energy(engine.sim.dist.system.config(), &self.merged)
            .total_j();
        Ok(StepOutcome::Done(Box::new(SessionResponse {
            reports: std::mem::take(&mut self.reports),
            merged: std::mem::take(&mut self.merged),
            stats: std::mem::take(&mut self.stats),
            energy_pj: picojoules(energy),
            method: self.method,
            ttft_femtos: self.ttft_femtos,
            decode_step_femtos: std::mem::take(&mut self.decode_step_femtos),
        })))
    }
}

impl std::fmt::Debug for SessionJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionJob")
            .field("next", &self.next)
            .field("steps", &self.steps.len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Runs one session to completion on the calling thread: every step
    /// in order through the same state machine the scheduler advances
    /// one dispatch at a time, so the two paths are bitwise equal by
    /// construction — and both equal [`Engine::infer`] over
    /// [`dnn::Workload::session_steps`].
    ///
    /// # Errors
    ///
    /// Kernel feasibility errors of the failing step;
    /// [`EngineError::InvalidRequest`] for a workload that decomposes to
    /// no steps (impossible for the public constructors).
    pub fn infer_session(&self, request: &SessionRequest) -> Result<SessionResponse, EngineError> {
        let mut job = SessionJob::new(self, request);
        if job.steps.is_empty() {
            return Err(EngineError::InvalidRequest(
                "session workload decomposes to no steps".to_owned(),
            ));
        }
        loop {
            if let StepOutcome::Done(response) = job.advance(self)? {
                return Ok(*response);
            }
        }
    }

    /// Resolves the session's per-phase execution plans: the plan of the
    /// representative (largest) layer GEMM tile of each phase, sharded
    /// across the engine's full DPU fleet. Purely analytic — no LUT
    /// image is built or cached (see [`Engine::warm_session`] for that),
    /// though repeated shapes return memoized plans
    /// ([`crate::cachelife::lru`]; bitwise equal to a recompute).
    ///
    /// # Errors
    ///
    /// [`EngineError::Gemm`] when no feasible plan exists for a phase at
    /// the session's bit configuration.
    pub fn session_plans(&self, request: &SessionRequest) -> Result<SessionPlans, EngineError> {
        let bits = request.bits.unwrap_or(self.bits);
        let (wf, af) = (bits.weight_format(), bits.activation_format());
        let model = &request.workload.model;
        let n_dpus = self.sim.dist.system.config().n_dpus();
        let tile = |tokens: usize| -> GemmDims {
            let dims = layer_gemms(model, tokens.max(1))
                .into_iter()
                .max_by_key(|g| g.dims.m * g.dims.k * g.dims.n)
                .map(|g| g.dims)
                .unwrap_or(GemmDims { m: 1, k: 1, n: 1 });
            TileGrid::choose(dims, n_dpus).tile_dims(dims)
        };
        let prefill_tile = tile(request.workload.batch * model.seq_len);
        let decode_tile = tile(request.workload.batch);
        Ok(SessionPlans {
            prefill: self.memo_plan(prefill_tile, wf, af, Some(self.gemm.k_slices))?,
            decode: self.memo_plan_measured(decode_tile, wf, af)?,
        })
    }

    /// Builds (or fetches) the two per-phase LUT images a session's
    /// plans resolve to — the software twin of the paper's §V-A one-time
    /// broadcast, applied per phase. Explicit because a prefill-phase
    /// image can run to millions of entries: callers opt into the build
    /// cost instead of every session paying it.
    ///
    /// Returns `None` for LUT-free methods (nothing to warm).
    ///
    /// # Errors
    ///
    /// Plan-resolution or LUT-construction errors.
    pub fn warm_session(
        &self,
        request: &SessionRequest,
    ) -> Result<Option<(CacheOutcome, CacheOutcome)>, EngineError> {
        let method = request.method.unwrap_or(self.method);
        if !matches!(method, Method::LoCaLut | Method::OpLcRc) {
            return Ok(None);
        }
        let plans = self.session_plans(request)?;
        let (_, prefill) = self.cache.get_or_build(plans.prefill_key())?;
        let (_, decode) = self.cache.get_or_build(plans.decode_key())?;
        Ok(Some((prefill, decode)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::InferenceRequest;
    use dnn::ModelConfig;

    #[test]
    fn session_matches_monolithic_decomposition_bitwise() {
        let engine = Engine::builder().threads(2).banks(4).build();
        let workload = Workload::with_decode(ModelConfig::opt_125m(), 2, 3);
        let session = engine
            .infer_session(&SessionRequest::new(workload.clone()))
            .unwrap();
        let steps = engine
            .infer(&InferenceRequest::serving(workload.session_steps()))
            .unwrap();
        assert_eq!(session.reports, steps.reports);
        assert_eq!(session.merged, steps.merged);
        assert_eq!(session.stats, steps.stats);
        assert_eq!(session.energy_pj, steps.energy_pj);
        assert_eq!(session.method, steps.method);
        // Step accounting: 1 prefill + 3 decode steps, TTFT + decode
        // latencies partition the total.
        assert_eq!(session.steps(), 4);
        assert_eq!(session.decode_step_femtos.len(), 3);
        assert!(session.ttft_femtos > 0);
        assert_eq!(
            session.ttft_femtos + session.decode_step_femtos.iter().sum::<u128>(),
            session.stats.snapshot().total_femtos
        );
        // Later decode steps attend over more KV context, so cost is
        // monotone nondecreasing along the wave.
        assert!(session.decode_step_femtos[2] >= session.decode_step_femtos[0]);
    }

    #[test]
    fn prefill_only_session_has_no_decode_steps() {
        let engine = Engine::builder().threads(1).banks(2).build();
        let session = engine
            .infer_session(&SessionRequest::new(Workload::prefill(
                ModelConfig::bert_base(),
                4,
            )))
            .unwrap();
        assert_eq!(session.steps(), 1);
        assert!(session.decode_step_femtos.is_empty());
        assert_eq!(session.ttft_femtos, session.stats.snapshot().total_femtos);
    }

    #[test]
    fn session_plans_separate_prefill_from_decode() {
        // At the engine default (W1A3, OPT-125M), the prefill tile is
        // wide (batch × seq_len tokens split across 2048 DPUs) while the
        // decode tile is one token per sample — the phases resolve to
        // different plans, hence different LUT-cache keys.
        let engine = Engine::upmem();
        let request = SessionRequest::new(Workload::with_decode(ModelConfig::opt_125m(), 2, 4));
        let plans = engine.session_plans(&request).unwrap();
        assert_ne!(
            plans.prefill_key(),
            plans.decode_key(),
            "prefill {:?} vs decode {:?}",
            plans.prefill,
            plans.decode
        );
        // Purely analytic: resolving plans touched no cache entry.
        assert_eq!(engine.lut_cache_stats().lookups(), 0);
        // Deterministic: re-resolving yields the identical plans.
        assert_eq!(engine.session_plans(&request).unwrap(), plans);
    }

    #[test]
    fn warm_session_builds_both_phase_images() {
        // W2A3 keeps both phase images small (prefill plans Streaming
        // p = 4, decode BufferResident p = 3 at int2 weights), so the
        // warming path is testable without a multi-second build.
        let engine = Engine::builder().bits(BitConfig { bw: 2, ba: 3 }).build();
        let request = SessionRequest::new(Workload::with_decode(ModelConfig::opt_125m(), 2, 2));
        let plans = engine.session_plans(&request).unwrap();
        assert_ne!(plans.prefill_key(), plans.decode_key());
        let first = engine.warm_session(&request).unwrap().unwrap();
        assert_eq!(first, (CacheOutcome::Miss, CacheOutcome::Miss));
        let again = engine.warm_session(&request).unwrap().unwrap();
        assert_eq!(again, (CacheOutcome::Hit, CacheOutcome::Hit));
        assert_eq!(engine.lut_cache_stats().entries, 2);
        // LUT-free methods have nothing to warm.
        assert_eq!(
            engine
                .warm_session(&request.clone().with_method(Method::NaivePim))
                .unwrap(),
            None
        );
    }

    #[test]
    fn session_overrides_resolve_like_infer_overrides() {
        let engine = Engine::builder().threads(1).banks(2).build();
        let workload = Workload::with_decode(ModelConfig::opt_125m(), 1, 2);
        let request = SessionRequest::new(workload.clone())
            .with_method(Method::Op)
            .with_bits(BitConfig { bw: 4, ba: 4 });
        let session = engine.infer_session(&request).unwrap();
        assert_eq!(session.method, Method::Op);
        let monolithic = engine
            .infer(
                &InferenceRequest::serving(workload.session_steps())
                    .with_method(Method::Op)
                    .with_bits(BitConfig { bw: 4, ba: 4 }),
            )
            .unwrap();
        assert_eq!(session.stats, monolithic.stats);
        assert_eq!(session.energy_pj, monolithic.energy_pj);
    }
}
