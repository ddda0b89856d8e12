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
//! closed-form fixed-`k` plan (pinned by `localut::plan`'s
//! `measured_plan_separates_decode_from_prefill`). Sessions are timed
//! **analytically** ([`dnn::InferenceSim::run`]): no step builds, reads
//! or keys a LUT image, so a session never touches the engine's LUT
//! cache.
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

use crate::response::picojoules;
use crate::{Engine, EngineError};
use dnn::inference::InferenceReport;
use dnn::{ModelKind, Workload};
use localut::Method;
use pim_sim::{Stats, SystemProfile};
use quant::BitConfig;

/// The most steps (one prefill plus one per decode token) a session may
/// decompose into; a longer one is an [`EngineError::InvalidRequest`] at
/// submission. `decode_tokens` is a client-chosen `u32` off the wire, so
/// the bound is checked before anything proportional to it exists, and
/// steps are generated one at a time, never materialised as a list.
/// (OPT's position table ends at 2048 tokens; 4096 is past anything the
/// modelled decoders generate.)
pub const MAX_SESSION_STEPS: usize = 4096;

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
    workload: Workload,
    steps: usize,
    next: usize,
    reports: Vec<InferenceReport>,
    merged: SystemProfile,
    stats: Stats,
    ttft_femtos: u128,
    decode_step_femtos: Vec<u128>,
}

impl SessionJob {
    /// Decomposes `request` against `engine`'s defaults. The step count
    /// mirrors [`Workload::session_steps`] without building the list.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for a session longer than
    /// [`MAX_SESSION_STEPS`].
    pub(crate) fn new(
        engine: &Engine,
        request: &SessionRequest,
    ) -> Result<SessionJob, EngineError> {
        let workload = &request.workload;
        let decodes = if workload.step.is_none() && workload.model.kind == ModelKind::Opt {
            workload.decode_tokens as usize
        } else {
            0
        };
        if decodes >= MAX_SESSION_STEPS {
            return Err(EngineError::InvalidRequest(format!(
                "session of {decodes} decode tokens exceeds the {MAX_SESSION_STEPS}-step bound"
            )));
        }
        Ok(SessionJob {
            method: request.method.unwrap_or(engine.method),
            bits: request.bits.unwrap_or(engine.bits),
            workload: workload.clone(),
            steps: 1 + decodes,
            next: 0,
            reports: Vec::new(),
            merged: SystemProfile::default(),
            stats: Stats::default(),
            ttft_femtos: 0,
            decode_step_femtos: Vec::new(),
        })
    }

    /// Step `self.next` of [`Workload::session_steps`], generated on
    /// demand: a step-marked workload is its own only step; otherwise the
    /// prefill, then one decode step per token over a growing KV context.
    fn next_step(&self) -> Workload {
        let Workload { model, batch, .. } = &self.workload;
        match self.next {
            0 if self.workload.step.is_some() => self.workload.clone(),
            0 => Workload::prefill(model.clone(), *batch),
            i => Workload::decode_step(model.clone(), *batch, model.seq_len + i - 1),
        }
    }

    /// Executes the next step and folds it into the aggregates, exactly
    /// as [`dnn::InferenceSim::run_batch`] folds independent workloads.
    pub(crate) fn advance(&mut self, engine: &Engine) -> Result<StepOutcome, EngineError> {
        let step = self.next_step();
        let report = engine.sim.run(self.method, self.bits, &step)?;
        let mut ledger = report.profile.host.ledger().clone();
        ledger.merge(report.profile.pim.ledger());
        let step_stats = Stats::from_ledger(&ledger);
        let femtos = step_stats.total_femtos();
        if step.step.is_some() {
            self.decode_step_femtos.push(femtos);
        } else {
            self.ttft_femtos = femtos;
        }
        self.merged = self.merged.merged(&report.profile);
        self.stats.merge(&step_stats);
        self.reports.push(report);
        self.next += 1;
        if self.next < self.steps {
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
    /// [`EngineError::InvalidRequest`] for a session longer than
    /// [`MAX_SESSION_STEPS`].
    pub fn infer_session(&self, request: &SessionRequest) -> Result<SessionResponse, EngineError> {
        let mut job = SessionJob::new(self, request)?;
        loop {
            if let StepOutcome::Done(response) = job.advance(self)? {
                return Ok(*response);
            }
        }
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
            session.stats.total_femtos()
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
        assert_eq!(session.ttft_femtos, session.stats.total_femtos());
    }

    #[test]
    fn sessions_past_the_step_bound_are_rejected_before_any_step_runs() {
        let engine = Engine::builder().threads(1).banks(2).build();
        let session = |tokens: usize| {
            SessionRequest::new(Workload::with_decode(
                ModelConfig::opt_125m(),
                1,
                u32::try_from(tokens).unwrap(),
            ))
        };
        // The bound counts the prefill: MAX - 1 decode tokens still fit.
        let longest = SessionJob::new(&engine, &session(MAX_SESSION_STEPS - 1)).unwrap();
        assert_eq!(longest.steps, MAX_SESSION_STEPS);
        for tokens in [MAX_SESSION_STEPS, u32::MAX as usize] {
            let err = engine.infer_session(&session(tokens)).unwrap_err();
            assert!(matches!(err, EngineError::InvalidRequest(_)), "{tokens}");
        }
        // Only decoders decode: a BERT "session" of any length is one step.
        let bert = Workload::with_decode(ModelConfig::bert_base(), 1, u32::MAX);
        assert_eq!(
            SessionJob::new(&engine, &SessionRequest::new(bert))
                .unwrap()
                .steps,
            1
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
