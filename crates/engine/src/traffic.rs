//! Deterministic seeded traffic generation for the serving scheduler.
//!
//! A [`TrafficConfig`] fully determines a request log: every byte of every
//! generated operand comes from a [SplitMix64] stream keyed on
//! `(seed, client)`, so two processes — or the `loadgen` binary at two
//! different worker counts — generate the *identical* workload. That is
//! what lets `tests/net_remote.rs` assert byte-identical summaries across
//! thread counts, and what gives [`crate::serve::replay_serial`] a
//! well-defined reference log to replay.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use crate::request::{GemmRequest, InferenceRequest};
use crate::sessions::SessionRequest;
use dnn::{ModelConfig, Workload};
use quant::{NumericFormat, QMatrix};

/// Which request kinds a generated workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// GEMM requests only.
    Gemm,
    /// Inference requests only.
    Inference,
    /// Roughly one inference request per two GEMMs, seed-determined.
    Mixed,
    /// Decoder sessions only ([`crate::Server::submit_session`]): every
    /// request is an OPT generation of seed-determined length, served
    /// with continuous batching.
    Decode,
    /// Chat-like bursty traffic: roughly half decoder sessions, the rest
    /// split between one-shot inference (prefill/embedding-style) and
    /// GEMM requests — the arrival pattern under which continuous
    /// batching pays (prefills interleave between decode waves).
    Chat,
}

impl Mix {
    /// The mix's canonical flag name
    /// (`gemm` / `infer` / `mixed` / `decode` / `chat`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mix::Gemm => "gemm",
            Mix::Inference => "infer",
            Mix::Mixed => "mixed",
            Mix::Decode => "decode",
            Mix::Chat => "chat",
        }
    }
}

impl std::str::FromStr for Mix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "gemm" => Ok(Mix::Gemm),
            "infer" => Ok(Mix::Inference),
            "mixed" => Ok(Mix::Mixed),
            "decode" => Ok(Mix::Decode),
            "chat" => Ok(Mix::Chat),
            other => Err(format!(
                "unknown mix '{other}' (gemm|infer|mixed|decode|chat)"
            )),
        }
    }
}

/// A fully deterministic traffic specification: these values pin the
/// complete request log, independent of how it is later scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client submits.
    pub requests_per_client: usize,
    /// The request-kind mix.
    pub mix: Mix,
    /// Root seed; each client derives its own independent stream.
    pub seed: u64,
    /// Upper bound on generated tokens per decoder session (session
    /// lengths draw uniformly from `1..=decode_tokens`). Only the
    /// session-bearing mixes ([`Mix::Decode`], [`Mix::Chat`]) consume
    /// it; the legacy mixes generate identical logs at any value.
    pub decode_tokens: u32,
}

impl TrafficConfig {
    /// Total requests across all clients.
    #[must_use]
    pub fn total_requests(&self) -> usize {
        self.clients * self.requests_per_client
    }
}

/// One generated request, typed for the serving entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficRequest {
    /// A GEMM request ([`crate::Engine::submit`]).
    Gemm(GemmRequest),
    /// An inference request ([`crate::Engine::infer`]).
    Infer(InferenceRequest),
    /// A decoder session ([`crate::Engine::infer_session`], served with
    /// continuous batching by [`crate::Server::submit_session`]).
    Session(SessionRequest),
}

/// SplitMix64: a tiny, high-quality, dependency-free PRNG — chosen here
/// because the vendored `rand` shim is a dev-dependency only, and because
/// its output is pinned by the reference constants (so the generated
/// traffic can never drift silently across toolchains).
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform pick from `0..n` (n ≤ a few dozen here, so modulo bias is
    /// ≈ 2⁻⁶⁰ — irrelevant, and deterministic either way).
    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The small-GEMM shape table traffic draws from (m, k, n): serving-sized
/// tiles that keep even debug-profile runs fast while still planning
/// distinct packing degrees (so the LUT cache sees several keys).
const GEMM_SHAPES: [(usize, usize, usize); 4] =
    [(32, 24, 8), (48, 40, 12), (64, 24, 16), (40, 40, 8)];

/// One client's deterministic request log. Client streams are independent:
/// reordering client *threads* never changes any client's *log*.
#[must_use]
pub fn client_log(config: &TrafficConfig, client: usize) -> Vec<TrafficRequest> {
    let mut rng = SplitMix64(
        config
            .seed
            .wrapping_add((client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    );
    (0..config.requests_per_client)
        .map(|_| match config.mix {
            // The legacy mixes draw the identical call sequence they
            // always did: adding the session mixes must not move a single
            // byte of an existing seeded log.
            Mix::Gemm => generate_gemm(&mut rng),
            Mix::Inference => generate_infer(&mut rng),
            Mix::Mixed => {
                if rng.pick(3) == 0 {
                    generate_infer(&mut rng)
                } else {
                    generate_gemm(&mut rng)
                }
            }
            Mix::Decode => generate_session(&mut rng, config.decode_tokens),
            Mix::Chat => match rng.pick(4) {
                0 | 1 => generate_session(&mut rng, config.decode_tokens),
                2 => generate_infer(&mut rng),
                _ => generate_gemm(&mut rng),
            },
        })
        .collect()
}

/// The full log in canonical order: client 0's requests, then client 1's,
/// and so on — the serial-replay reference for any concurrent schedule of
/// the same config (summaries are order-invariant, so the canonical order
/// is a convenience, not a requirement).
#[must_use]
pub fn full_log(config: &TrafficConfig) -> Vec<TrafficRequest> {
    (0..config.clients)
        .flat_map(|client| client_log(config, client))
        .collect()
}

/// Drops every GEMM's seeded per-request bank count from `log`, so the
/// serving engine's own topology governs each shard plan (what a ranked
/// machine needs; the rewrite is part of the workload's identity).
pub fn strip_bank_overrides(log: &mut [TrafficRequest]) {
    for request in log {
        if let TrafficRequest::Gemm(gemm) = request {
            gemm.banks = None;
        }
    }
}

fn generate_gemm(rng: &mut SplitMix64) -> TrafficRequest {
    let (m, k, n) = GEMM_SHAPES[rng.pick(GEMM_SHAPES.len() as u64) as usize];
    let w_seed = rng.next();
    let a_seed = rng.next();
    let banks = [2u32, 4][rng.pick(2) as usize];
    TrafficRequest::Gemm(
        GemmRequest::new(
            QMatrix::pseudo_random(m, k, NumericFormat::Bipolar, w_seed),
            QMatrix::pseudo_random(k, n, NumericFormat::Int(3), a_seed),
        )
        .with_banks(banks),
    )
}

fn generate_infer(rng: &mut SplitMix64) -> TrafficRequest {
    let batch = [2usize, 4][rng.pick(2) as usize];
    let workload = if rng.pick(2) == 0 {
        Workload::prefill(ModelConfig::bert_base(), batch)
    } else {
        Workload::with_decode(ModelConfig::opt_125m(), batch, 2)
    };
    TrafficRequest::Infer(InferenceRequest::single(workload))
}

fn generate_session(rng: &mut SplitMix64, decode_tokens: u32) -> TrafficRequest {
    let batch = [1usize, 2][rng.pick(2) as usize];
    let steps = 1 + rng.pick(u64::from(decode_tokens.max(1))) as u32;
    TrafficRequest::Session(SessionRequest::new(Workload::with_decode(
        ModelConfig::opt_125m(),
        batch,
        steps,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(mix: Mix) -> TrafficConfig {
        TrafficConfig {
            clients: 3,
            requests_per_client: 5,
            mix,
            seed: 42,
            decode_tokens: 4,
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567 from the SplitMix64 reference
        // implementation — pins the stream against silent drift.
        let mut rng = SplitMix64(1_234_567);
        assert_eq!(rng.next(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn logs_are_deterministic_and_client_independent() {
        let cfg = config(Mix::Mixed);
        assert_eq!(client_log(&cfg, 0), client_log(&cfg, 0));
        assert_ne!(client_log(&cfg, 0), client_log(&cfg, 1));
        let full = full_log(&cfg);
        assert_eq!(full.len(), cfg.total_requests());
        assert_eq!(full[..5], client_log(&cfg, 0)[..]);
        // A different seed moves every client's stream.
        let reseeded = TrafficConfig { seed: 43, ..cfg };
        assert_ne!(client_log(&reseeded, 0), client_log(&cfg, 0));
    }

    #[test]
    fn mix_controls_request_kinds() {
        let gemm_only = full_log(&config(Mix::Gemm));
        assert!(gemm_only
            .iter()
            .all(|r| matches!(r, TrafficRequest::Gemm(_))));
        let infer_only = full_log(&config(Mix::Inference));
        assert!(infer_only
            .iter()
            .all(|r| matches!(r, TrafficRequest::Infer(_))));
        let mixed = full_log(&config(Mix::Mixed));
        assert!(mixed.iter().any(|r| matches!(r, TrafficRequest::Gemm(_))));
        assert!(mixed.iter().any(|r| matches!(r, TrafficRequest::Infer(_))));
        let decode = full_log(&config(Mix::Decode));
        assert!(decode
            .iter()
            .all(|r| matches!(r, TrafficRequest::Session(_))));
        let chat = full_log(&config(Mix::Chat));
        assert!(chat.iter().any(|r| matches!(r, TrafficRequest::Session(_))));
        assert!(chat
            .iter()
            .any(|r| !matches!(r, TrafficRequest::Session(_))));
    }

    #[test]
    fn stripping_bank_overrides_touches_gemms_only() {
        let seeded = full_log(&config(Mix::Mixed));
        let mut stripped = seeded.clone();
        strip_bank_overrides(&mut stripped);
        for (before, after) in seeded.iter().zip(&stripped) {
            match (before, after) {
                (TrafficRequest::Gemm(b), TrafficRequest::Gemm(a)) => {
                    assert!(b.banks.is_some());
                    let expected = GemmRequest {
                        banks: None,
                        ..b.clone()
                    };
                    assert_eq!(a, &expected);
                }
                _ => assert_eq!(before, after),
            }
        }
    }

    #[test]
    fn decode_tokens_bounds_session_lengths_and_leaves_legacy_logs_alone() {
        let base = config(Mix::Decode);
        for request in full_log(&base) {
            let TrafficRequest::Session(session) = request else {
                panic!("decode mix generates only sessions");
            };
            assert!((1..=base.decode_tokens).contains(&session.workload.decode_tokens));
        }
        // A longer budget changes session logs...
        let longer = TrafficConfig {
            decode_tokens: 16,
            ..base
        };
        assert_ne!(full_log(&longer), full_log(&base));
        // ...but the legacy mixes generate the identical log at any
        // budget: the knob must not perturb pre-session seeded traffic.
        for mix in [Mix::Gemm, Mix::Inference, Mix::Mixed] {
            let legacy = config(mix);
            let reconfigured = TrafficConfig {
                decode_tokens: 16,
                ..legacy
            };
            assert_eq!(full_log(&reconfigured), full_log(&legacy));
        }
    }

    #[test]
    fn mix_names_roundtrip() {
        for mix in [
            Mix::Gemm,
            Mix::Inference,
            Mix::Mixed,
            Mix::Decode,
            Mix::Chat,
        ] {
            assert_eq!(mix.name().parse::<Mix>().unwrap(), mix);
        }
        assert!("everything".parse::<Mix>().is_err());
    }
}
