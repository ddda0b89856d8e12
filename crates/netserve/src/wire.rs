//! Versioned, typed wire DTOs shared by the in-process and network paths.
//!
//! [`WireRequest`] and [`WireResponse`] mirror the engine's typed API
//! ([`GemmRequest`], [`InferenceRequest`] and their responses) so a remote
//! caller works with exactly the objects an in-process caller does — the
//! network layer adds an encoding, not a second API. Payloads are compact
//! JSON ([`crate::json`]) with sorted keys, so encoding is deterministic:
//! the same request always serializes to the same bytes, which is what
//! lets the server's request log be both human-greppable and bitwise
//! replayable.
//!
//! Every type that crosses the wire has exactly one description from
//! which both directions are derived (the private `Codec` trait; plain
//! structs are one line of the `record!` table, whose field names *are*
//! the JSON keys), so a field cannot be encoded without being decoded;
//! `tests/wire_golden.rs` pins the resulting bytes. DESIGN.md §7 has the
//! contract and the recipe for adding a field.
//!
//! Every number that matters is integer-exact on the wire (`u128`
//! femtoseconds and picojoules, `i32` GEMM values via [`Json::Int`]).
//! The only floats are model seconds and quantization scales, written in
//! shortest-roundtrip form (`{:?}`), which re-parses to the identical
//! bit pattern — so a decoded response compares equal to the original.
//!
//! Decoding is strict and total: every malformed payload maps to
//! [`NetError::Decode`] with a message naming the offending field; an
//! unknown request/response `kind` or model name is an error, never a
//! panic or a silent default.

use crate::json::Json;
use dnn::{DecodeStep, InferenceReport, ModelConfig, Workload};
use engine::serve::{gemm_latency_femtos, LatencyDigest};
use engine::traffic::TrafficRequest;
use engine::{
    CacheOutcome, CacheStats, EngineError, GemmRequest, GemmResponse, InferenceRequest,
    InferenceResponse, MemoStats, NetError, PlanPin, Rejection, ServeRecorder, ServeSummary,
    SessionRequest, SessionResponse,
};
use localut::plan::Placement;
use localut::{GemmDims, Method};
use pim_sim::{Category, CounterSnapshot, Stats};
use quant::{BitConfig, NumericFormat, QMatrix};

/// Version stamped into every payload (`"v"`); bumped on any schema
/// change. The frame envelope carries its own version — this one guards
/// the *DTO* schema, so a logged request stays self-describing.
pub const WIRE_VERSION: u128 = 1;

/// A request as it travels over the wire — the same typed request the
/// in-process API takes, plus the two control verbs only a remote caller
/// needs.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Execute one GEMM ([`engine::Engine::submit`] semantics).
    Gemm(GemmRequest),
    /// Execute one inference request ([`engine::Engine::infer`] semantics).
    Infer(InferenceRequest),
    /// Execute one decoder session ([`engine::Engine::infer_session`]
    /// semantics; served remotely with continuous batching).
    Session(SessionRequest),
    /// Liveness probe; answered immediately with [`WireResponse::Pong`].
    Ping,
    /// Ask the server to drain: stop accepting, flush in-flight tickets,
    /// exit. Answered with [`WireResponse::Drained`].
    Drain,
}

/// A generated traffic request is already a wire request: the three
/// executable kinds map one to one.
impl From<TrafficRequest> for WireRequest {
    fn from(request: TrafficRequest) -> Self {
        match request {
            TrafficRequest::Gemm(r) => WireRequest::Gemm(r),
            TrafficRequest::Infer(r) => WireRequest::Infer(r),
            TrafficRequest::Session(r) => WireRequest::Session(r),
        }
    }
}

/// The GEMM response fields that cross the wire: everything deterministic
/// from [`GemmResponse`] plus the request's serving latency (which a
/// remote client cannot derive — it lives in the per-bank profiles that
/// stay server-side).
#[derive(Debug, Clone, PartialEq)]
pub struct WireGemmResponse {
    /// Row-major `M×N` integer outputs, bit-identical to the server's.
    pub values: Vec<i32>,
    /// Full GEMM dimensions.
    pub dims: GemmDims,
    /// The method that executed.
    pub method: Method,
    /// Merged per-bank statistics.
    pub stats: Stats,
    /// Modeled energy, picojoules.
    pub energy_pj: u128,
    /// FNV-1a fingerprint of `values`.
    pub checksum: u64,
    /// Simulated serving latency ([`gemm_latency_femtos`]).
    pub latency_femtos: u128,
    /// LUT-cache outcome (`None` for LUT-free methods).
    pub lut_cache: Option<CacheOutcome>,
}

/// The inference response fields that cross the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireInferResponse {
    /// Per-workload `(prefill_seconds, decode_seconds)` in request order.
    pub reports: Vec<(f64, f64)>,
    /// Merged per-request statistics.
    pub stats: Stats,
    /// Modeled energy, picojoules.
    pub energy_pj: u128,
    /// The method that executed.
    pub method: Method,
}

/// The session response fields that cross the wire: the deterministic
/// aggregate plus the per-step latency observables continuous batching
/// reports (TTFT and per-decode-step femtoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct WireSessionResponse {
    /// Per-step `(prefill_seconds, decode_seconds)` in step order.
    pub reports: Vec<(f64, f64)>,
    /// Merged per-session statistics.
    pub stats: Stats,
    /// Modeled energy, picojoules.
    pub energy_pj: u128,
    /// The method that executed.
    pub method: Method,
    /// Time to first token, integer femtoseconds.
    pub ttft_femtos: u128,
    /// Each decode step's simulated femtoseconds, in step order.
    pub decode_step_femtos: Vec<u128>,
}

fn phase_seconds(reports: &[InferenceReport]) -> Vec<(f64, f64)> {
    reports
        .iter()
        .map(|rep| (rep.prefill_seconds, rep.decode_seconds))
        .collect()
}

/// Projects a served GEMM onto the wire.
impl From<&GemmResponse> for WireResponse {
    fn from(r: &GemmResponse) -> Self {
        WireResponse::Gemm(WireGemmResponse {
            values: r.values.clone(),
            dims: r.dims,
            method: r.method,
            stats: r.stats.clone(),
            energy_pj: r.energy_pj,
            checksum: r.checksum,
            latency_femtos: gemm_latency_femtos(r),
            lut_cache: r.lut_cache,
        })
    }
}

/// Projects a served inference request onto the wire.
impl From<&InferenceResponse> for WireResponse {
    fn from(r: &InferenceResponse) -> Self {
        WireResponse::Infer(WireInferResponse {
            reports: phase_seconds(&r.reports),
            stats: r.stats.clone(),
            energy_pj: r.energy_pj,
            method: r.method,
        })
    }
}

/// Projects a completed session onto the wire.
impl From<&SessionResponse> for WireResponse {
    fn from(r: &SessionResponse) -> Self {
        WireResponse::Session(WireSessionResponse {
            reports: phase_seconds(&r.reports),
            stats: r.stats.clone(),
            energy_pj: r.energy_pj,
            method: r.method,
            ttft_femtos: r.ttft_femtos,
            decode_step_femtos: r.decode_step_femtos.clone(),
        })
    }
}

/// A response as it travels over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// A served GEMM.
    Gemm(WireGemmResponse),
    /// A served inference request.
    Infer(WireInferResponse),
    /// A completed decoder session.
    Session(WireSessionResponse),
    /// Typed backpressure: the request was *not* admitted (queue full,
    /// quota exhausted, or the server is draining) and may be retried
    /// where the variant says so.
    Rejected(Rejection),
    /// The request was admitted but failed; `kind` names the
    /// [`EngineError`] variant.
    Error {
        /// The [`EngineError`] variant name (e.g. `"Gemm"`).
        kind: String,
        /// The rendered error chain.
        message: String,
    },
    /// Answer to [`WireRequest::Ping`].
    Pong {
        /// Requests this connection has had admitted so far.
        served: u64,
    },
    /// Answer to [`WireRequest::Drain`]: the summary at the moment the
    /// drain began (final numbers come from the server's own report).
    Drained {
        /// The deterministic summary snapshot.
        summary: Box<ServeSummary>,
        /// Host-side cache lifecycle counters at drain time. `None` when
        /// the peer predates the field — decoding tolerates its absence
        /// so old acks still parse.
        cache: Option<WireCacheStats>,
    },
}

/// Host-side cache lifecycle counters piggybacked on a drain ack. These
/// are observability numbers (wall-clock class), never part of the
/// deterministic [`ServeSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireCacheStats {
    /// LUT cache counters ([`engine::Engine::lut_cache_stats`]).
    pub lut: CacheStats,
    /// Planner-memo counters ([`engine::Engine::plan_memo_stats`]).
    pub memo: MemoStats,
}

/// Records a wire response into a client-side [`ServeRecorder`] exactly
/// as the server records the underlying result — the mechanism by which
/// a remote client reconstructs the server's [`ServeSummary`] bit for
/// bit. Rejections record nothing: a rejected request was never executed.
pub fn record_response(recorder: &mut ServeRecorder, response: &WireResponse) {
    match response {
        WireResponse::Gemm(g) => {
            recorder.record_gemm_parts(&g.stats, g.energy_pj, g.latency_femtos, g.checksum);
        }
        WireResponse::Infer(i) => recorder.record_infer_parts(&i.stats, i.energy_pj),
        WireResponse::Session(s) => recorder.record_session_parts(
            &s.stats,
            s.energy_pj,
            s.ttft_femtos,
            &s.decode_step_femtos,
        ),
        WireResponse::Error { .. } => recorder.record_failure(),
        WireResponse::Rejected(_) | WireResponse::Pong { .. } | WireResponse::Drained { .. } => {}
    }
}

/// Wraps a served result of any kind (GEMM, inference, session) as the
/// wire response the client expects.
#[must_use]
pub fn result_response<R>(result: &Result<R, EngineError>) -> WireResponse
where
    for<'a> &'a R: Into<WireResponse>,
{
    match result {
        Ok(r) => r.into(),
        Err(e) => error_response(e),
    }
}

/// Maps a server-side error to the wire: typed rejections stay typed;
/// everything else becomes [`WireResponse::Error`] with the variant name.
#[must_use]
pub fn error_response(error: &EngineError) -> WireResponse {
    match error {
        EngineError::Rejected(r) => WireResponse::Rejected(*r),
        other => WireResponse::Error {
            kind: error_kind(other).to_owned(),
            message: other.to_string(),
        },
    }
}

fn error_kind(error: &EngineError) -> &'static str {
    match error {
        EngineError::Quant(_) => "Quant",
        EngineError::Gemm(_) => "Gemm",
        EngineError::Sim(_) => "Sim",
        EngineError::Pq(_) => "Pq",
        EngineError::InvalidRequest(_) => "InvalidRequest",
        EngineError::Serve(_) => "Serve",
        EngineError::Rejected(_) => "Rejected",
        EngineError::Net(_) => "Net",
        EngineError::Cache(_) => "Cache",
    }
}

// The codec: one description per type, both directions derived from it.

/// The `(key, value)` pairs of an object under construction.
type Pairs = Vec<(&'static str, Json)>;

/// A value with one JSON form. Writing and reading live in one impl, so
/// neither direction can change alone. `what` is the field key the value
/// sits under, for decode errors.
trait Codec: Sized {
    fn to_json(&self) -> Json;
    fn from_json(value: &Json, what: &str) -> Result<Self, NetError>;
}

/// A keyed slot of an object: required for every [`Codec`] value, and for
/// `Option<T>` an absent key (never `null`) in both directions.
trait Field: Sized {
    fn put(&self, key: &'static str, pairs: &mut Pairs);
    fn get(obj: &Json, key: &str) -> Result<Self, NetError>;
}

/// An object of [`Field`]s. Its pairs stay reachable so the `v`/`kind`
/// envelope can sit beside them in the same object.
trait Record: Sized {
    fn pairs(&self) -> Pairs;
    fn from_object(obj: &Json) -> Result<Self, NetError>;
}

fn decode_err(what: impl Into<String>) -> NetError {
    NetError::Decode(what.into())
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, NetError> {
    obj.get(key)
        .ok_or_else(|| decode_err(format!("missing field '{key}'")))
}

fn token<'a>(value: &'a Json, what: &str) -> Result<&'a str, NetError> {
    value
        .as_str()
        .ok_or_else(|| decode_err(format!("field '{what}' must be a string")))
}

fn text(s: &str) -> Json {
    Json::Str(s.to_owned())
}

fn array<T: Codec>(items: &[T]) -> Json {
    Json::Array(items.iter().map(Codec::to_json).collect())
}

impl<T: Codec> Field for T {
    fn put(&self, key: &'static str, pairs: &mut Pairs) {
        pairs.push((key, self.to_json()));
    }
    fn get(obj: &Json, key: &str) -> Result<Self, NetError> {
        T::from_json(field(obj, key)?, key)
    }
}

impl<T: Codec> Field for Option<T> {
    fn put(&self, key: &'static str, pairs: &mut Pairs) {
        if let Some(value) = self {
            value.put(key, pairs);
        }
    }
    fn get(obj: &Json, key: &str) -> Result<Self, NetError> {
        obj.get(key).map(|v| T::from_json(v, key)).transpose()
    }
}

impl<T: Record> Codec for T {
    fn to_json(&self) -> Json {
        Json::object(self.pairs())
    }
    fn from_json(value: &Json, _what: &str) -> Result<Self, NetError> {
        T::from_object(value)
    }
}

macro_rules! int_codec {
    ($($ty:ident)+) => {$(
        impl Codec for $ty {
            fn to_json(&self) -> Json {
                match u128::try_from(*self) {
                    Ok(v) => Json::UInt(v),
                    Err(_) => Json::Int(*self as i128),
                }
            }
            fn from_json(value: &Json, what: &str) -> Result<Self, NetError> {
                match value {
                    Json::UInt(v) => $ty::try_from(*v).ok(),
                    Json::Int(v) => $ty::try_from(*v).ok(),
                    _ => None,
                }
                .ok_or_else(|| decode_err(format!("field '{what}' must be a {}", stringify!($ty))))
            }
        }
    )+};
}

int_codec!(u128 u64 u32 u16 usize i32);

impl Codec for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
    fn from_json(value: &Json, what: &str) -> Result<Self, NetError> {
        match value {
            Json::Float(v) => Ok(*v),
            Json::UInt(v) => Ok(*v as f64),
            Json::Int(v) => Ok(*v as f64),
            _ => Err(decode_err(format!("field '{what}' must be a number"))),
        }
    }
}

impl Codec for String {
    fn to_json(&self) -> Json {
        text(self)
    }
    fn from_json(value: &Json, what: &str) -> Result<Self, NetError> {
        token(value, what).map(str::to_owned)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn to_json(&self) -> Json {
        array(self)
    }
    fn from_json(value: &Json, what: &str) -> Result<Self, NetError> {
        value
            .as_array()
            .ok_or_else(|| decode_err(format!("field '{what}' must be an array")))?
            .iter()
            .map(|item| T::from_json(item, what))
            .collect()
    }
}

impl Codec for BitConfig {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
    fn from_json(value: &Json, what: &str) -> Result<Self, NetError> {
        let token = token(value, what)?;
        token
            .parse()
            .map_err(|e| decode_err(format!("bad bit config '{token}': {e}")))
    }
}

/// String tokens: parsing is derived from rendering — the token is looked
/// up among every value the type can take, so the two directions cannot
/// drift and each range is stated once.
macro_rules! token_codec {
    ($($ty:ty, $what:literal: $all:expr => $render:expr;)+) => {$(
        impl Codec for $ty {
            fn to_json(&self) -> Json {
                Json::Str($render(self))
            }
            fn from_json(value: &Json, what: &str) -> Result<Self, NetError> {
                let token = token(value, what)?;
                $all.into_iter()
                    .find(|candidate| $render(candidate) == token)
                    .ok_or_else(|| decode_err(format!("unknown {} '{token}'", $what)))
            }
        }
    )+};
}

token_codec! {
    Method, "method": Method::ALL => |m: &Method| m.flag_name().to_owned();
    Placement, "placement": [Placement::BufferResident, Placement::Streaming]
        => Placement::to_string;
    CacheOutcome, "cache outcome": [CacheOutcome::Hit, CacheOutcome::Miss]
        => |o: &CacheOutcome| match o {
            CacheOutcome::Hit => "hit".to_owned(),
            CacheOutcome::Miss => "miss".to_owned(),
        };
    // Models travel by name; only the paper's three are known.
    ModelConfig, "model": ModelConfig::paper_models() => |m: &ModelConfig| m.name.to_owned();
    NumericFormat, "numeric format": [
            NumericFormat::Bipolar,
            NumericFormat::Fp4,
            NumericFormat::Fp8,
            NumericFormat::Fp16,
        ]
        .into_iter()
        .chain((2..=16).map(NumericFormat::Int))
        .chain((1..=16).map(NumericFormat::Uint))
        => |f: &NumericFormat| match f {
            NumericFormat::Int(b) => format!("int{b}"),
            NumericFormat::Uint(b) => format!("uint{b}"),
            NumericFormat::Bipolar => "bipolar".to_owned(),
            NumericFormat::Fp4 => "fp4".to_owned(),
            NumericFormat::Fp8 => "fp8".to_owned(),
            NumericFormat::Fp16 => "fp16".to_owned(),
        };
}

// The field tables: a struct's field names are its JSON keys, and the
// struct literal in `from_object` makes a field missing from its line a
// compile error.

macro_rules! record {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Record for $ty {
            fn pairs(&self) -> Pairs {
                let mut pairs = Pairs::new();
                $(self.$field.put(stringify!($field), &mut pairs);)+
                pairs
            }
            fn from_object(obj: &Json) -> Result<Self, NetError> {
                Ok($ty { $($field: Field::get(obj, stringify!($field))?),+ })
            }
        }
    )+};
}

record! {
    LatencyDigest { p50, p95, p99, max, total }
    ServeSummary {
        requests, gemm_requests, infer_requests, session_requests, decode_steps,
        failed_requests, stats, energy_pj, latency, ttft, decode, checksum
    }
    GemmDims { m, k, n }
    PlanPin { placement, p }
    GemmRequest { w, a, method, banks, pin }
    InferenceRequest { workloads, method, bits }
    SessionRequest { workload, method, bits }
    WireGemmResponse {
        values, dims, method, stats, energy_pj, checksum, latency_femtos, lut_cache
    }
    WireInferResponse { reports, stats, energy_pj, method }
    WireSessionResponse { reports, stats, energy_pj, method, ttft_femtos, decode_step_femtos }
}

// The irregular shapes: one hand-written impl each.

/// One report's `(prefill_seconds, decode_seconds)`.
impl Codec for (f64, f64) {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("prefill_seconds", self.0.to_json()),
            ("decode_seconds", self.1.to_json()),
        ])
    }
    fn from_json(value: &Json, _what: &str) -> Result<Self, NetError> {
        Ok((
            Field::get(value, "prefill_seconds")?,
            Field::get(value, "decode_seconds")?,
        ))
    }
}

/// Decoded through [`QMatrix::from_codes`], so a peer cannot smuggle in a
/// shape/code mismatch or an out-of-range code.
impl Codec for QMatrix {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("rows", self.rows().to_json()),
            ("cols", self.cols().to_json()),
            ("format", self.format().to_json()),
            ("scale", f64::from(self.scale()).to_json()),
            ("codes", array(self.codes())),
        ])
    }
    fn from_json(value: &Json, what: &str) -> Result<Self, NetError> {
        QMatrix::from_codes(
            Field::get(value, "codes")?,
            Field::get(value, "rows")?,
            Field::get(value, "cols")?,
            Field::get(value, "format")?,
            f64::get(value, "scale")? as f32,
        )
        .map_err(|e| decode_err(format!("matrix '{what}' is invalid: {e}")))
    }
}

/// Travels as its [`CounterSnapshot`]: per-category femtoseconds keyed by
/// label (zero categories omitted), counters flat beside them.
impl Codec for Stats {
    fn to_json(&self) -> Json {
        let snap = self.snapshot();
        let categories = snap
            .category_femtos
            .iter()
            .map(|&(c, f)| (c.label().to_owned(), f.to_json()))
            .collect();
        Json::object(vec![
            ("banks", snap.banks.to_json()),
            ("category_femtos", Json::Object(categories)),
            ("dram_read_bytes", snap.dram_read_bytes.to_json()),
            ("dram_write_bytes", snap.dram_write_bytes.to_json()),
            ("wram_accesses", snap.wram_accesses.to_json()),
            ("instructions", snap.instructions.to_json()),
            ("host_bytes", snap.host_bytes.to_json()),
            ("host_ops", snap.host_ops.to_json()),
        ])
    }
    fn from_json(value: &Json, _what: &str) -> Result<Self, NetError> {
        let Json::Object(categories) = field(value, "category_femtos")? else {
            return Err(decode_err("field 'category_femtos' must be an object"));
        };
        let category_femtos = categories
            .iter()
            .map(|(label, femtos)| {
                let category = Category::from_label(label)
                    .ok_or_else(|| decode_err(format!("unknown cost category '{label}'")))?;
                Ok((category, u128::from_json(femtos, "category_femtos")?))
            })
            .collect::<Result<Vec<(Category, u128)>, NetError>>()?;
        // Peer-supplied u128s: the total must not wrap (or panic a debug
        // build) on a hostile or corrupt payload.
        let total_femtos = category_femtos
            .iter()
            .try_fold(0u128, |sum, &(_, f)| sum.checked_add(f))
            .ok_or_else(|| decode_err("field 'category_femtos' sums past u128"))?;
        Ok(Stats::from_snapshot(&CounterSnapshot {
            banks: Field::get(value, "banks")?,
            total_femtos,
            category_femtos,
            dram_read_bytes: Field::get(value, "dram_read_bytes")?,
            dram_write_bytes: Field::get(value, "dram_write_bytes")?,
            wram_accesses: Field::get(value, "wram_accesses")?,
            instructions: Field::get(value, "instructions")?,
            host_bytes: Field::get(value, "host_bytes")?,
            host_ops: Field::get(value, "host_ops")?,
        }))
    }
}

/// A mid-session decode step carries its KV context as the optional
/// `context` key; monolithic workloads omit it.
impl Codec for Workload {
    fn to_json(&self) -> Json {
        let mut pairs = Pairs::new();
        self.model.put("model", &mut pairs);
        self.batch.put("batch", &mut pairs);
        self.decode_tokens.put("decode_tokens", &mut pairs);
        self.step.map(|s| s.context).put("context", &mut pairs);
        Json::object(pairs)
    }
    fn from_json(value: &Json, _what: &str) -> Result<Self, NetError> {
        Ok(Workload {
            model: Field::get(value, "model")?,
            batch: Field::get(value, "batch")?,
            decode_tokens: Field::get(value, "decode_tokens")?,
            step: Option::<usize>::get(value, "context")?.map(|context| DecodeStep { context }),
        })
    }
}

/// Tagged by `reason`; the variant's fields sit flat beside the tag.
impl Record for Rejection {
    fn pairs(&self) -> Pairs {
        match *self {
            Rejection::QueueFull {
                capacity,
                retry_after_ms,
            } => vec![
                ("reason", text("queue-full")),
                ("capacity", capacity.to_json()),
                ("retry_after_ms", retry_after_ms.to_json()),
            ],
            Rejection::QuotaExhausted { limit } => vec![
                ("reason", text("quota-exhausted")),
                ("limit", limit.to_json()),
            ],
            Rejection::Draining => vec![("reason", text("draining"))],
        }
    }
    fn from_object(obj: &Json) -> Result<Self, NetError> {
        match token(field(obj, "reason")?, "reason")? {
            "queue-full" => Ok(Rejection::QueueFull {
                capacity: Field::get(obj, "capacity")?,
                retry_after_ms: Field::get(obj, "retry_after_ms")?,
            }),
            "quota-exhausted" => Ok(Rejection::QuotaExhausted {
                limit: Field::get(obj, "limit")?,
            }),
            "draining" => Ok(Rejection::Draining),
            other => Err(decode_err(format!("unknown rejection reason '{other}'"))),
        }
    }
}

/// Two counter structs flattened into one object under `lut_`/`memo_`
/// prefixes. Kept apart from [`summary_json`] so deterministic summary
/// files never embed host-varying counters.
impl Codec for WireCacheStats {
    fn to_json(&self) -> Json {
        let (lut, memo) = (&self.lut, &self.memo);
        Json::object(vec![
            ("lut_hits", lut.hits.to_json()),
            ("lut_misses", lut.misses.to_json()),
            ("lut_evictions", lut.evictions.to_json()),
            ("lut_resident_bytes", lut.resident_bytes.to_json()),
            ("lut_failed_builds", lut.failed_builds.to_json()),
            ("lut_restored", lut.restored.to_json()),
            ("lut_entries", lut.entries.to_json()),
            ("memo_hits", memo.hits.to_json()),
            ("memo_misses", memo.misses.to_json()),
            ("memo_entries", memo.entries.to_json()),
        ])
    }
    fn from_json(value: &Json, _what: &str) -> Result<Self, NetError> {
        Ok(WireCacheStats {
            lut: CacheStats {
                hits: Field::get(value, "lut_hits")?,
                misses: Field::get(value, "lut_misses")?,
                evictions: Field::get(value, "lut_evictions")?,
                resident_bytes: Field::get(value, "lut_resident_bytes")?,
                failed_builds: Field::get(value, "lut_failed_builds")?,
                restored: Field::get(value, "lut_restored")?,
                entries: Field::get(value, "lut_entries")?,
            },
            memo: MemoStats {
                hits: Field::get(value, "memo_hits")?,
                misses: Field::get(value, "memo_misses")?,
                entries: Field::get(value, "memo_entries")?,
            },
        })
    }
}

/// The canonical JSON form of a [`ServeSummary`] (used by the drain
/// response, the daemon's and `loadgen`'s `--out` files, and the
/// multi-process tests).
#[must_use]
pub fn summary_json(summary: &ServeSummary) -> Json {
    summary.to_json()
}

/// Decodes the canonical JSON form of a [`ServeSummary`] (inverse of
/// [`summary_json`]).
///
/// # Errors
///
/// [`NetError::Decode`] naming the first malformed field.
pub fn summary_from_json(value: &Json) -> Result<ServeSummary, NetError> {
    ServeSummary::from_object(value)
}

/// Closes an object with the envelope every payload carries: the schema
/// version and the `kind` tag that selects the body's type.
fn envelope(kind: &str, mut pairs: Pairs) -> String {
    pairs.push(("v", WIRE_VERSION.to_json()));
    pairs.push(("kind", text(kind)));
    Json::object(pairs).to_compact()
}

/// Parses a payload and checks the envelope; returns the object and its
/// `kind`.
fn open_envelope(payload: &[u8]) -> Result<(Json, String), NetError> {
    let body = std::str::from_utf8(payload).map_err(|_| decode_err("payload is not UTF-8"))?;
    let value = Json::parse(body).map_err(|e| decode_err(format!("payload is not JSON: {e}")))?;
    let v = u128::get(&value, "v")?;
    if v != WIRE_VERSION {
        return Err(decode_err(format!(
            "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
        )));
    }
    let kind = String::get(&value, "kind")?;
    Ok((value, kind))
}

/// Encodes a request as its canonical compact payload — the exact bytes
/// framed onto the wire and the exact line the server's request log
/// stores.
#[must_use]
pub fn encode_request(request: &WireRequest) -> String {
    match request {
        WireRequest::Gemm(r) => envelope("gemm", r.pairs()),
        WireRequest::Infer(r) => envelope("infer", r.pairs()),
        WireRequest::Session(r) => envelope("session", r.pairs()),
        WireRequest::Ping => envelope("ping", Pairs::new()),
        WireRequest::Drain => envelope("drain", Pairs::new()),
    }
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`NetError::Decode`] naming the first malformed field; unknown `kind`
/// values are errors (forward compatibility is the version field's job).
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, NetError> {
    let (value, kind) = open_envelope(payload)?;
    match kind.as_str() {
        "gemm" => Record::from_object(&value).map(WireRequest::Gemm),
        "infer" => Record::from_object(&value).map(WireRequest::Infer),
        "session" => Record::from_object(&value).map(WireRequest::Session),
        "ping" => Ok(WireRequest::Ping),
        "drain" => Ok(WireRequest::Drain),
        other => Err(decode_err(format!("unknown request kind '{other}'"))),
    }
}

/// Encodes a response as its canonical compact payload.
#[must_use]
pub fn encode_response(response: &WireResponse) -> String {
    match response {
        WireResponse::Gemm(g) => envelope("gemm", g.pairs()),
        WireResponse::Infer(i) => envelope("infer", i.pairs()),
        WireResponse::Session(s) => envelope("session", s.pairs()),
        WireResponse::Rejected(r) => envelope("rejected", r.pairs()),
        WireResponse::Error { kind, message } => envelope(
            "error",
            vec![
                ("error_kind", kind.to_json()),
                ("message", message.to_json()),
            ],
        ),
        WireResponse::Pong { served } => envelope("pong", vec![("served", served.to_json())]),
        WireResponse::Drained { summary, cache } => {
            let mut pairs = vec![("summary", summary.to_json())];
            cache.put("cache", &mut pairs);
            envelope("drained", pairs)
        }
    }
}

/// Decodes a response payload.
///
/// # Errors
///
/// [`NetError::Decode`] naming the first malformed field.
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, NetError> {
    let (value, kind) = open_envelope(payload)?;
    match kind.as_str() {
        "gemm" => Record::from_object(&value).map(WireResponse::Gemm),
        "infer" => Record::from_object(&value).map(WireResponse::Infer),
        "session" => Record::from_object(&value).map(WireResponse::Session),
        "rejected" => Record::from_object(&value).map(WireResponse::Rejected),
        "error" => Ok(WireResponse::Error {
            kind: Field::get(&value, "error_kind")?,
            message: Field::get(&value, "message")?,
        }),
        "pong" => Ok(WireResponse::Pong {
            served: Field::get(&value, "served")?,
        }),
        "drained" => Ok(WireResponse::Drained {
            summary: Box::new(Field::get(&value, "summary")?),
            cache: Field::get(&value, "cache")?,
        }),
        other => Err(decode_err(format!("unknown response kind '{other}'"))),
    }
}

/// Parses a server request log (one compact JSON request per line) back
/// into the replayable form [`engine::serve::replay_serial`] takes.
/// Control verbs (`ping`/`drain`) are never logged; finding one is an
/// error, as is any malformed line.
///
/// # Errors
///
/// [`NetError::Decode`] with the 1-based line number of the first
/// problem.
pub fn parse_request_log(text: &str) -> Result<Vec<TrafficRequest>, NetError> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            match decode_request(line.as_bytes())
                .map_err(|e| decode_err(format!("log line {}: {e}", i + 1)))?
            {
                WireRequest::Gemm(r) => Ok(TrafficRequest::Gemm(r)),
                WireRequest::Infer(r) => Ok(TrafficRequest::Infer(r)),
                WireRequest::Session(r) => Ok(TrafficRequest::Session(r)),
                WireRequest::Ping | WireRequest::Drain => Err(decode_err(format!(
                    "log line {}: control requests are never logged",
                    i + 1
                ))),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::traffic::{full_log, Mix, TrafficConfig};
    use engine::Engine;

    fn mixed_log() -> Vec<TrafficRequest> {
        full_log(&TrafficConfig {
            clients: 2,
            requests_per_client: 3,
            mix: Mix::Mixed,
            seed: 11,
            decode_tokens: 4,
        })
    }

    fn chat_log() -> Vec<TrafficRequest> {
        full_log(&TrafficConfig {
            clients: 2,
            requests_per_client: 4,
            mix: Mix::Chat,
            seed: 23,
            decode_tokens: 3,
        })
    }

    #[test]
    fn every_traffic_request_roundtrips_bitwise() {
        // The traffic generators cover all three kinds, every optional
        // field combination they emit, and negative-capable code paths.
        let log: Vec<TrafficRequest> = mixed_log().into_iter().chain(chat_log()).collect();
        assert!(log.iter().any(|r| matches!(r, TrafficRequest::Session(_))));
        for request in log {
            let wire = WireRequest::from(request);
            let encoded = encode_request(&wire);
            let decoded = decode_request(encoded.as_bytes()).unwrap();
            assert_eq!(decoded, wire);
            // Canonical form: re-encoding the decoded request is stable.
            assert_eq!(encode_request(&decoded), encoded);
        }
    }

    #[test]
    fn decode_step_workloads_roundtrip_losslessly() {
        // A step-marked workload (a mid-session decode step) carries its
        // exact KV context on the wire via the optional 'context' field.
        use dnn::Workload;
        let step = Workload::decode_step(ModelConfig::opt_125m(), 2, 100);
        let wire =
            WireRequest::Session(engine::SessionRequest::new(step).with_method(Method::LoCaLut));
        let decoded = decode_request(encode_request(&wire).as_bytes()).unwrap();
        assert_eq!(decoded, wire);
    }

    #[test]
    fn optional_gemm_fields_roundtrip() {
        let base = mixed_log()
            .iter()
            .find_map(|t| match t {
                TrafficRequest::Gemm(r) => Some(r.clone()),
                _ => None,
            })
            .expect("mixed traffic contains a GEMM");
        let pinned = base
            .clone()
            .with_method(Method::LoCaLut)
            .with_banks(3)
            .with_pin(PlanPin {
                placement: Placement::Streaming,
                p: 4,
            });
        let wire = WireRequest::Gemm(pinned);
        let decoded = decode_request(encode_request(&wire).as_bytes()).unwrap();
        assert_eq!(decoded, wire);

        for control in [WireRequest::Ping, WireRequest::Drain] {
            let decoded = decode_request(encode_request(&control).as_bytes()).unwrap();
            assert_eq!(decoded, control);
        }
    }

    #[test]
    fn responses_roundtrip_and_record_identically() {
        // Serve the log in-process, project every response onto the wire,
        // decode it back, and feed a recorder from the decoded DTOs: the
        // reconstructed summary must equal the server-side one bitwise.
        let engine = Engine::builder().threads(1).banks(2).build();
        let mut server_side = ServeRecorder::new();
        let mut client_side = ServeRecorder::new();
        for request in mixed_log().into_iter().chain(chat_log()) {
            let response = match request {
                TrafficRequest::Gemm(r) => {
                    let result = engine.submit(&r);
                    server_side.record_gemm(&result);
                    result_response(&result)
                }
                TrafficRequest::Infer(r) => {
                    let result = engine.infer(&r);
                    server_side.record_infer(&result);
                    result_response(&result)
                }
                TrafficRequest::Session(r) => {
                    let result = engine.infer_session(&r);
                    server_side.record_session(&result);
                    result_response(&result)
                }
            };
            let decoded = decode_response(encode_response(&response).as_bytes()).unwrap();
            assert_eq!(decoded, response, "response DTO must roundtrip bitwise");
            record_response(&mut client_side, &decoded);
        }
        let summary = server_side.summary();
        assert!(summary.session_requests > 0 && summary.decode_steps > 0);
        assert_eq!(client_side.summary(), summary);
    }

    #[test]
    fn control_and_failure_responses_roundtrip() {
        let summary = {
            let engine = Engine::builder().threads(1).banks(2).build();
            engine::serve::replay_serial(&engine, &mixed_log())
        };
        let cases = [
            WireResponse::Pong { served: 7 },
            WireResponse::Rejected(Rejection::QueueFull {
                capacity: 4,
                retry_after_ms: 25,
            }),
            WireResponse::Rejected(Rejection::QuotaExhausted { limit: 9 }),
            WireResponse::Rejected(Rejection::Draining),
            WireResponse::Error {
                kind: "Gemm".into(),
                message: "dimension mismatch".into(),
            },
            WireResponse::Drained {
                summary: Box::new(summary.clone()),
                cache: None,
            },
            WireResponse::Drained {
                summary: Box::new(summary),
                cache: Some(WireCacheStats {
                    lut: CacheStats {
                        hits: 3,
                        misses: 2,
                        evictions: 1,
                        resident_bytes: 4096,
                        failed_builds: 1,
                        restored: 2,
                        entries: 1,
                    },
                    memo: MemoStats {
                        hits: 5,
                        misses: 4,
                        entries: 4,
                    },
                }),
            },
        ];
        for case in cases {
            let decoded = decode_response(encode_response(&case).as_bytes()).unwrap();
            assert_eq!(decoded, case);
        }
    }

    #[test]
    fn request_log_replays_bitwise() {
        let log: Vec<TrafficRequest> = mixed_log().into_iter().chain(chat_log()).collect();
        let text: String = log
            .iter()
            .map(|r| encode_request(&r.clone().into()) + "\n")
            .collect();
        let parsed = parse_request_log(&text).unwrap();
        let engine = Engine::builder().threads(1).banks(2).build();
        let original = engine::serve::replay_serial(&engine, &log);
        let replayed = engine::serve::replay_serial(&engine, &parsed);
        assert_eq!(replayed, original);
    }

    #[test]
    fn format_tokens_are_pinned_and_ranges_enforced() {
        // The traffic generators emit only a few formats; pin the rest of
        // the token space, and the width ranges the lookup derives.
        for (token, format) in [
            ("bipolar", NumericFormat::Bipolar),
            ("fp4", NumericFormat::Fp4),
            ("fp8", NumericFormat::Fp8),
            ("fp16", NumericFormat::Fp16),
            ("int2", NumericFormat::Int(2)),
            ("int16", NumericFormat::Int(16)),
            ("uint1", NumericFormat::Uint(1)),
            ("uint16", NumericFormat::Uint(16)),
        ] {
            assert_eq!(format.to_json(), text(token));
            assert_eq!(
                NumericFormat::from_json(&text(token), "format").unwrap(),
                format
            );
        }
        for bad in ["int1", "int17", "uint0", "uint17", "int", "fp32", "INT3"] {
            let err = NumericFormat::from_json(&text(bad), "format").unwrap_err();
            assert!(err.to_string().contains("unknown numeric format"), "{err}");
        }
    }

    #[test]
    fn malformed_payloads_name_the_problem() {
        let request = |payload: &[u8]| decode_request(payload).map(drop);
        let response = |payload: &[u8]| decode_response(payload).map(drop);
        type Decoder<'a> = &'a dyn Fn(&[u8]) -> Result<(), NetError>;
        let cases: [(Decoder, &[u8], &str); 8] = [
            (&request, b"not json", "not JSON"),
            (&request, b"{\"kind\":\"gemm\"}", "missing field 'v'"),
            (&request, b"{\"v\":1}", "missing field 'kind'"),
            (
                &request,
                b"{\"v\":99,\"kind\":\"ping\"}",
                "unsupported wire version",
            ),
            (
                &request,
                b"{\"v\":1,\"kind\":\"warp\"}",
                "unknown request kind",
            ),
            (
                &request,
                b"{\"v\":1,\"kind\":\"gemm\"}",
                "missing field 'w'",
            ),
            (
                &response,
                b"{\"v\":1,\"kind\":\"warp\"}",
                "unknown response kind",
            ),
            // Two peer-supplied categories whose sum passes u128::MAX: a
            // decode error, not a debug-build panic or a wrapped total.
            (
                &response,
                b"{\"v\":1,\"kind\":\"infer\",\"energy_pj\":1,\"method\":\"localut\",\"reports\":[],\
                  \"stats\":{\"banks\":1,\"category_femtos\":{\
                  \"accumulate\":340282366920938463463374607431768211455,\"lut-load\":1},\
                  \"dram_read_bytes\":0,\"dram_write_bytes\":0,\"wram_accesses\":0,\
                  \"instructions\":0,\"host_bytes\":0,\"host_ops\":0}}",
                "category_femtos",
            ),
        ];
        for (decode, payload, needle) in cases {
            let err = decode(payload).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "payload {:?}: expected '{needle}' in '{err}'",
                String::from_utf8_lossy(payload)
            );
        }
        // A structurally valid matrix with out-of-range codes is refused
        // by QMatrix's own validation, surfaced as a decode error.
        let bad = b"{\"v\":1,\"kind\":\"gemm\",\"w\":{\"rows\":1,\"cols\":1,\"format\":\"bipolar\",\"scale\":1.0,\"codes\":[9]},\"a\":{\"rows\":1,\"cols\":1,\"format\":\"bipolar\",\"scale\":1.0,\"codes\":[0]}}";
        let err = decode_request(bad).unwrap_err();
        assert!(err.to_string().contains("matrix 'w'"), "got: {err}");
    }
}
