//! The perf-harness scenario registry: each paper figure class exposed as
//! a deterministic callable.
//!
//! A [`Scenario`] is the unit `bench-runner` measures: a named workload
//! that executes on the simulator — routed through the [`engine`] serving
//! API, the same surface the examples and binaries use (functionally
//! where the figure is functional, analytically where it is a cost
//! sweep) — and returns a
//! [`ScenarioOutcome`] — the merged [`pim_sim::Stats`] ledger (integer
//! femtoseconds + event counters), the modeled energy, and a fingerprint
//! of any functional output. Everything in the outcome is deterministic:
//! two runs on any machine, at any worker count, produce identical
//! outcomes, and the harness takes no host clock at all (`benchmark/`
//! measures host time).
//!
//! The whole registry — the 3072-row shape and the 2048-bank machine
//! included — runs in about a second in release and is held byte for byte
//! against the committed `BENCH_baseline.json` by `tests/bench_harness.rs`.

use crate::picojoules;
use dnn::{ModelConfig, Workload};
use engine::serve::{drive_client, ArrivalMode, ServeConfig, Server};
use engine::traffic::{self, client_log, Mix, TrafficConfig, TrafficRequest};
use engine::{Engine, EngineBuilder, GemmRequest, InferenceRequest, PlanPin, ServeSummary};
use localut::plan::Placement;
use localut::{GemmDims, Method};
use netserve::server::{NetConfig, NetServer};
use netserve::NetClient;
use pim_sim::Stats;
use quant::{BitConfig, NumericFormat, QMatrix};
use std::sync::Arc;

/// Execution context a scenario runs under.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioCtx {
    /// Host worker threads for the bank-parallel runtime (never changes a
    /// simulated number — the runtime is deterministic by construction).
    pub threads: usize,
}

impl Default for ScenarioCtx {
    fn default() -> Self {
        ScenarioCtx { threads: 4 }
    }
}

/// What one scenario execution measured (the deterministic part).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Merged simulated statistics (integer femtoseconds + counters).
    pub stats: Stats,
    /// Modeled energy in picojoules (rounded once from the f64 model).
    pub energy_pj: u128,
    /// Fingerprint of the functional output values (0 for analytic
    /// scenarios with no functional output).
    pub checksum: u64,
}

/// A registered, callable figure scenario.
pub struct Scenario {
    /// Unique registry name (stable across PRs — baselines key on it).
    pub name: &'static str,
    /// One-line description shown by `bench-runner --list`.
    pub title: &'static str,
    runner: fn(&ScenarioCtx) -> ScenarioOutcome,
}

impl Scenario {
    /// Executes the scenario body.
    #[must_use]
    pub fn run(&self, ctx: &ScenarioCtx) -> ScenarioOutcome {
        (self.runner)(ctx)
    }
}

/// All registered scenarios, in report order.
#[must_use]
pub fn registry() -> &'static [Scenario] {
    &[
        Scenario {
            name: "fig03_placement",
            title: "buffer vs streaming placement arms, functional (small GEMM)",
            runner: placement_scenario,
        },
        Scenario {
            name: "fig09_gemm",
            title: "LoCaLUT GEMM 768x768x128 W1A3, functional on the bank-parallel runtime",
            runner: |ctx| gemm_scenario(ctx, 768),
        },
        Scenario {
            name: "fig09_gemm_wide",
            title: "LoCaLUT GEMM 3072x768x128 W1A3, functional on the bank-parallel runtime",
            runner: |ctx| gemm_scenario(ctx, 3072),
        },
        Scenario {
            name: "fig09_huge",
            title: "LoCaLUT GEMM 768x768x128 W1A3 on the full machine: 32 ranks x 64 banks",
            runner: gemm_huge_scenario,
        },
        Scenario {
            name: "fig14_energy",
            title: "system energy, LoCaLUT vs Naive PIM at 768x768x128 W1A3 (analytic)",
            runner: energy_scenario,
        },
        Scenario {
            name: "fig16_breakdown",
            title: "per-DPU kernel category breakdown, OP+LC+RC at the paper shape (analytic)",
            runner: breakdown_scenario,
        },
        Scenario {
            name: "fig19_serving",
            title: "mixed BERT/OPT serving batch on the runtime worker pool",
            runner: serving_scenario,
        },
        Scenario {
            name: "serve_mixed",
            title:
                "concurrent scheduler: 3 clients x 4 seeded mixed requests through engine::serve",
            runner: serve_sched_scenario,
        },
        Scenario {
            name: "serve_decode",
            title:
                "continuous batching: 2 clients x 3 seeded decoder sessions through engine::serve",
            runner: serve_decode_scenario,
        },
        Scenario {
            name: "serve_net",
            title: "network front-end: 2 clients x 3 seeded mixed requests over loopback TCP",
            runner: serve_net_scenario,
        },
        Scenario {
            name: "serve_rank_scale",
            title:
                "concurrent scheduler on the ranked 32x64 machine: 2 clients x 3 seeded requests",
            runner: serve_rank_scale_scenario,
        },
        Scenario {
            name: "cache_churn",
            title: "LUT cache under a starved byte budget: format churn forces evict + rebuild",
            runner: cache_churn_scenario,
        },
    ]
}

/// Selects scenarios by optional name filter (substring match), in
/// registry order.
#[must_use]
pub fn select(filter: Option<&str>) -> Vec<&'static Scenario> {
    registry()
        .iter()
        .filter(|s| filter.is_none_or(|f| s.name.contains(f)))
        .collect()
}

/// Runs the given scenarios in order, pairing each outcome with its
/// registry name — the rows [`crate::report::render`] writes.
#[must_use]
pub fn run_scenarios(
    scenarios: &[&'static Scenario],
    ctx: &ScenarioCtx,
) -> Vec<(&'static str, ScenarioOutcome)> {
    scenarios.iter().map(|s| (s.name, s.run(ctx))).collect()
}

fn w1a3() -> (NumericFormat, NumericFormat) {
    (NumericFormat::Bipolar, NumericFormat::Int(3))
}

/// The serving engine a scenario runs on: every functional and analytic
/// path below routes through the session API, exactly like the examples
/// and the `localut-sim` binary.
fn serving_engine(ctx: &ScenarioCtx, banks: u32) -> Engine {
    Engine::builder().threads(ctx.threads).banks(banks).build()
}

/// Fig. 3 class: the two §IV-D placement arms served as pinned engine
/// requests on a small GEMM and their ledgers merged — exercises both LUT
/// kernel hot paths (and, because both pins share `p = 5`, nothing about
/// the LUT cache: the two placements key separately by design).
fn placement_scenario(ctx: &ScenarioCtx) -> ScenarioOutcome {
    let (wf, af) = w1a3();
    let eng = serving_engine(ctx, 1);
    let w = QMatrix::pseudo_random(48, 40, wf, 11);
    let a = QMatrix::pseudo_random(40, 12, af, 12);
    let buffer = eng
        .submit(&GemmRequest::new(w.clone(), a.clone()).with_pin(PlanPin {
            placement: Placement::BufferResident,
            p: 5,
        }))
        .expect("paper p_local fits");
    let streaming = eng
        .submit(&GemmRequest::new(w, a).with_pin(PlanPin {
            placement: Placement::Streaming,
            p: 5,
        }))
        .expect("slice budget fits");
    assert_eq!(buffer.values, streaming.values, "placement arms diverged");
    let model = eng.energy_model();
    let energy = model.dpu_dynamic_j(&buffer.profile) + model.dpu_dynamic_j(&streaming.profile);
    ScenarioOutcome {
        stats: buffer.stats.merged(&streaming.stats),
        energy_pj: picojoules(energy),
        checksum: buffer.checksum,
    }
}

/// Fig. 9 class: a full LoCaLUT GEMM served across a 16-bank shard plan.
/// The simulated side is the per-bank ledger merge; the host side is
/// `benchmark/`'s `gemm_wide` workload.
fn gemm_scenario(ctx: &ScenarioCtx, m: usize) -> ScenarioOutcome {
    let (wf, af) = w1a3();
    let dims = GemmDims { m, k: 768, n: 128 };
    let w = QMatrix::pseudo_random(dims.m, dims.k, wf, 1);
    let a = QMatrix::pseudo_random(dims.k, dims.n, af, 2);
    let response = serving_engine(ctx, 16)
        .submit(&GemmRequest::new(w, a))
        .expect("feasible");
    ScenarioOutcome {
        stats: response.stats,
        energy_pj: response.energy_pj,
        checksum: response.checksum,
    }
}

/// Fig. 9 at full-machine scale: the paper-shape GEMM sharded across the
/// ranked 32 × 64 topology — a 128 × 16 grid of exactly 2048 bank shards,
/// merged through the per-rank tree with the rank-bus contention phase on
/// the measured path. The host side is the executor's stress case (2048
/// ragged tiles); the simulated side pins the scale-out cost model.
fn gemm_huge_scenario(ctx: &ScenarioCtx) -> ScenarioOutcome {
    let (wf, af) = w1a3();
    let dims = GemmDims {
        m: 768,
        k: 768,
        n: 128,
    };
    let w = QMatrix::pseudo_random(dims.m, dims.k, wf, 1);
    let a = QMatrix::pseudo_random(dims.k, dims.n, af, 2);
    let response = Engine::builder()
        .threads(ctx.threads)
        .ranks(32, 64)
        .build()
        .submit(&GemmRequest::new(w, a))
        .expect("feasible");
    assert_eq!(response.per_bank.len(), 2048, "full machine must populate");
    ScenarioOutcome {
        stats: response.stats,
        energy_pj: response.energy_pj,
        checksum: response.checksum,
    }
}

/// Fig. 14 class: system energy of LoCaLUT vs Naive PIM on the 2048-DPU
/// server (analytic). The ledger records the LoCaLUT execution; the energy
/// field records its total Joules, so a cost-model regression moves both.
fn energy_scenario(ctx: &ScenarioCtx) -> ScenarioOutcome {
    let cfg: BitConfig = "W1A3".parse().expect("valid");
    let dims = GemmDims {
        m: 768,
        k: 768,
        n: 128,
    };
    let eng = serving_engine(ctx, 16);
    let localut = eng
        .system_cost(Method::LoCaLut, dims, cfg)
        .expect("feasible");
    let naive = eng
        .system_cost(Method::NaivePim, dims, cfg)
        .expect("feasible");
    assert!(
        localut.total_seconds() < naive.total_seconds(),
        "LoCaLUT must beat Naive PIM on the paper shape"
    );
    let stats = Stats::from_profile(&localut.host).merged(&Stats::from_profile(&localut.pim));
    ScenarioOutcome {
        stats,
        energy_pj: picojoules(
            eng.energy_model()
                .system_energy(eng.sim().dist.system.config(), &localut)
                .total_j(),
        ),
        checksum: 0,
    }
}

/// Fig. 16 class: the buffer-resident kernel's per-category breakdown at
/// the paper's representative shape (the pinned cost twin).
fn breakdown_scenario(ctx: &ScenarioCtx) -> ScenarioOutcome {
    let cfg: BitConfig = "W1A3".parse().expect("valid");
    let eng = serving_engine(ctx, 1);
    let profile = eng
        .pinned_kernel_cost(
            PlanPin {
                placement: Placement::BufferResident,
                p: 5,
            },
            cfg,
            GemmDims {
                m: 768,
                k: 765,
                n: 128,
            },
        )
        .expect("paper p_local fits");
    ScenarioOutcome {
        stats: Stats::from_profile(&profile),
        energy_pj: picojoules(eng.energy_model().dpu_dynamic_j(&profile)),
        checksum: 0,
    }
}

/// Fig. 19 class: a mixed serving batch (BERT prefill + OPT
/// prefill+decode) on the engine's worker pool; the batch's associative
/// stats merge is worker-count invariant by construction.
fn serving_scenario(ctx: &ScenarioCtx) -> ScenarioOutcome {
    let cfg: BitConfig = "W4A4".parse().expect("valid");
    let requests = vec![
        Workload::prefill(ModelConfig::bert_base(), 16),
        Workload::with_decode(ModelConfig::opt_125m(), 8, 4),
        Workload::prefill(ModelConfig::bert_base(), 32),
    ];
    let response = serving_engine(ctx, 16)
        .infer(
            &InferenceRequest::serving(requests)
                .with_method(Method::LoCaLut)
                .with_bits(cfg),
        )
        .expect("feasible");
    ScenarioOutcome {
        stats: response.stats,
        energy_pj: response.energy_pj,
        checksum: 0,
    }
}

/// The body the three in-process serving classes share: client threads
/// submit `traffic`'s seeded logs to the [`engine::serve`] scheduler over
/// `engine`, workers coalescing compatible GEMMs into dynamic batches and
/// running sessions one step per dispatch. The returned summary is
/// deterministic: any interleaving, worker count, and batching policy
/// merges to these exact integers (the property `tests/serve_concurrent.rs`
/// and `tests/serve_decode.rs` pin against serial replay), so the
/// baseline gate can hold serving cost to the committed bytes.
///
/// `strip_bank_overrides` drops the seeded logs' small per-request bank
/// counts so the engine's own topology governs every GEMM's shard plan.
fn serve_traffic(
    ctx: &ScenarioCtx,
    traffic: &TrafficConfig,
    engine: EngineBuilder,
    strip_bank_overrides: bool,
) -> ServeSummary {
    // Engine pool of 1: host parallelism comes from the scheduler workers
    // here, and nesting both pools would oversubscribe small CI runners.
    let engine = Arc::new(engine.threads(1).build());
    let server = Server::start(
        engine,
        &ServeConfig::builder()
            .workers(ctx.threads)
            .max_batch(4)
            .build()
            .expect("static serve config is valid"),
    );
    std::thread::scope(|scope| {
        for client in 0..traffic.clients {
            let server = &server;
            let mut log = client_log(traffic, client);
            if strip_bank_overrides {
                traffic::strip_bank_overrides(&mut log);
            }
            scope.spawn(move || drive_client(server, log, ArrivalMode::Closed));
        }
    });
    let summary = server.join().summary;
    assert_eq!(
        summary.failed_requests,
        0,
        "seeded {} traffic must be feasible",
        traffic.mix.name()
    );
    summary
}

/// A serving run's deterministic summary as a scenario outcome.
fn summary_outcome(summary: &ServeSummary) -> ScenarioOutcome {
    ScenarioOutcome {
        stats: summary.stats.clone(),
        energy_pj: summary.energy_pj,
        checksum: summary.checksum,
    }
}

/// The `serve` class: real concurrent traffic — a seeded mixed request
/// log through the scheduler on a flat 4-bank engine.
fn serve_sched_scenario(ctx: &ScenarioCtx) -> ScenarioOutcome {
    let traffic = TrafficConfig {
        clients: 3,
        requests_per_client: 4,
        mix: Mix::Mixed,
        seed: 2026,
        decode_tokens: 4,
    };
    summary_outcome(&serve_traffic(
        ctx,
        &traffic,
        Engine::builder().banks(4),
        false,
    ))
}

/// The scale-out serving class: the same concurrent scheduler as
/// `serve_mixed`, but over an engine configured as the paper's full
/// ranked machine (32 ranks × 64 banks), bank overrides stripped — each
/// request merges through the per-rank tree and pays the rank-bus
/// contention phase, so the gate holds full-machine serving cost to the
/// committed baseline.
fn serve_rank_scale_scenario(ctx: &ScenarioCtx) -> ScenarioOutcome {
    let traffic = TrafficConfig {
        clients: 2,
        requests_per_client: 3,
        mix: Mix::Mixed,
        seed: 3215,
        decode_tokens: 4,
    };
    summary_outcome(&serve_traffic(
        ctx,
        &traffic,
        Engine::builder().ranks(32, 64),
        true,
    ))
}

/// The continuous-batching class: seeded decoder sessions
/// ([`Mix::Decode`]). Each session is decomposed into one prefill step
/// plus its decode steps; workers run one step per dispatch and re-enqueue
/// the continuation, so the decode waves of concurrent sessions
/// interleave.
fn serve_decode_scenario(ctx: &ScenarioCtx) -> ScenarioOutcome {
    let traffic = TrafficConfig {
        clients: 2,
        requests_per_client: 3,
        mix: Mix::Decode,
        seed: 2608,
        decode_tokens: 4,
    };
    let summary = serve_traffic(ctx, &traffic, Engine::builder().banks(4), false);
    assert!(
        summary.decode_steps > 0,
        "decode traffic must schedule decode steps"
    );
    summary_outcome(&summary)
}

/// The network front-end class: seeded mixed traffic driven over loopback
/// TCP through [`netserve`] — frame codec, wire DTO round-trip, admission,
/// and drain all on the measured path. The outcome is the server's
/// deterministic summary, so it lands on the same integers regardless of
/// worker count, connection interleaving, or kernel socket scheduling; the
/// gate holds the wire path's simulated cost to the baseline.
fn serve_net_scenario(ctx: &ScenarioCtx) -> ScenarioOutcome {
    let traffic = TrafficConfig {
        clients: 2,
        requests_per_client: 3,
        mix: Mix::Mixed,
        seed: 4810,
        decode_tokens: 4,
    };
    // Engine pool of 1 for the same oversubscription reason as serve_mixed.
    let engine = Arc::new(Engine::builder().threads(1).banks(4).build());
    let config = ServeConfig::builder()
        .workers(ctx.threads)
        .max_batch(4)
        .build()
        .expect("static serve config is valid");
    let server = NetServer::bind(engine, &config, &NetConfig::default(), "127.0.0.1:0")
        .expect("loopback bind");
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for client in 0..traffic.clients {
            let log = client_log(&traffic, client);
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("loopback connect");
                for request in log {
                    match request {
                        TrafficRequest::Gemm(r) => {
                            client.gemm(&r).expect("seeded gemm is feasible");
                        }
                        TrafficRequest::Infer(r) => {
                            client.infer(&r).expect("seeded inference is feasible");
                        }
                        TrafficRequest::Session(r) => {
                            client.session(&r).expect("seeded session is feasible");
                        }
                    }
                }
            });
        }
    });
    let summary = server.join().serve.summary;
    assert_eq!(
        summary.failed_requests, 0,
        "seeded net traffic must be feasible"
    );
    summary_outcome(&summary)
}

/// The cache-lifecycle class: a format-churning GEMM stream against an
/// engine whose LUT byte budget is deliberately too small for the working
/// set, driven twice so evicted entries get re-requested and rebuilt. The
/// outcome — merged ledger, energy, response-checksum fold — is identical
/// to the same stream on an unbudgeted engine (eviction only ever moves
/// host wall and counters, the subsystem's core contract), so the gate
/// pins the simulated cost of a stream that really evicts and rebuilds.
/// The body asserts the churn actually happened: evictions occurred,
/// nothing failed.
fn cache_churn_scenario(ctx: &ScenarioCtx) -> ScenarioOutcome {
    // Distinct (wf, af) pairs key distinct LUT images; the budget below
    // holds roughly one of them, so cycling the list keeps the ledger
    // under continuous eviction pressure.
    let pairs = [
        (NumericFormat::Bipolar, NumericFormat::Int(3)),
        (NumericFormat::Bipolar, NumericFormat::Int(2)),
        (NumericFormat::Int(2), NumericFormat::Int(2)),
    ];
    let engine = Engine::builder()
        .threads(ctx.threads)
        .banks(2)
        .cache_budget(192 * 1024)
        .build();
    let mut stats = Stats::default();
    let mut energy_pj: u128 = 0;
    let mut checksums = Vec::new();
    for round in 0..2u64 {
        for (index, (wf, af)) in pairs.iter().enumerate() {
            let w = QMatrix::pseudo_random(48, 40, *wf, 31 + index as u64);
            let a = QMatrix::pseudo_random(40, 12, *af, 32 + round);
            let response = engine
                .submit(&GemmRequest::new(w, a))
                .expect("churn shapes are feasible");
            stats = stats.merged(&response.stats);
            energy_pj += response.energy_pj;
            checksums.extend_from_slice(&response.checksum.to_le_bytes());
        }
    }
    let cache = engine.lut_cache_stats();
    assert!(
        cache.evictions > 0,
        "the starved budget must evict (got {cache:?})"
    );
    assert!(
        cache.misses > pairs.len() as u64,
        "revisiting an evicted key must rebuild, not hit (got {cache:?})"
    );
    assert_eq!(cache.failed_builds, 0, "no churn build may fail");
    ScenarioOutcome {
        stats,
        energy_pj,
        checksum: runtime::fnv1a_64(checksums),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let mut names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        assert!(!names.is_empty());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len(), "duplicate scenario names");
    }

    #[test]
    fn filter_selects_by_substring() {
        let hits = select(Some("fig09"));
        assert_eq!(hits.len(), 3);
        assert!(select(Some("no-such-scenario")).is_empty());
        assert_eq!(select(None).len(), registry().len());
    }

    #[test]
    fn placement_scenario_fingerprints_its_output() {
        let outcome = placement_scenario(&ScenarioCtx::default());
        assert_ne!(outcome.checksum, 0);
        assert_eq!(outcome.stats.banks(), 2); // buffer arm + streaming arm
    }

    #[test]
    fn serve_scenario_fingerprints_its_gemm_traffic() {
        let outcome = serve_sched_scenario(&ScenarioCtx { threads: 2 });
        // The seeded mixed log always contains GEMMs, so the sorted-fold
        // fingerprint is never the bare FNV basis of an empty stream.
        assert_ne!(outcome.checksum, runtime::fnv1a_64([]));
        assert!(outcome.stats.banks() > 0);
        assert!(outcome.energy_pj > 0);
    }
}
