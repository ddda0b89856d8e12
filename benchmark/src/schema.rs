//! What the benchmark declares: its workloads and metrics, by name.
//!
//! `BENCHMARK.json` at the repository root states the same lists for the
//! driver; the test at the bottom holds the two together, and
//! [`Metrics::finish`] refuses to print a run whose metric set differs from
//! the declaration.

use std::collections::BTreeMap;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 6] = [
    WorkloadDecl {
        name: "gemm_wide",
        why: "3072x768x128 W1A3 GEMM on 16 flat banks: the blocked LUT-gather kernel does the work; scheduler, wire and LUT build do none",
    },
    WorkloadDecl {
        name: "gemm_ranked",
        why: "768x768x128 GEMM on 32x64 ranks: 2048 tiny shards and a per-rank merge, so what is paid per shard dominates, not the kernel inner loop",
    },
    WorkloadDecl {
        name: "serve_chat",
        why: "in-process Server, 2 closed-loop clients, chat mix with decode sessions: admission queue, step re-enqueue, plan memo and cache-hit path",
    },
    WorkloadDecl {
        name: "serve_burst",
        why: "same Server fed whole 500-request GEMM bursts: a queue always forms, so coalescing and submit_batch fan-out carry the result",
    },
    WorkloadDecl {
        name: "net_mixed",
        why: "NetServer on loopback, 2 connections, mixed traffic: frame codec, wire DTOs and JSON are most of each request",
    },
    WorkloadDecl {
        name: "cache_lifecycle",
        why: "format-churning GEMM stream under a 192 KiB LUT budget on a fresh engine per round: the cache as a writer (build, insert, evict)",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees; every workload reports all of them
/// with tracing off.
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.20),
];

/// Single-layer metrics from the traced pass; the prefix is the crate.
/// A metric whose layer is not on a workload's request path reads 0 there.
pub const PER_LAYER: [MetricDecl; 68] = [
    // Fixed-shape probes of one public call each, same on every workload.
    lower("quant.pseudo_random_ns_per_code", "ns"),
    lower("quant.quantize_ns_per_elem", "ns"),
    lower("localut.pack_w_ms", "ms"),
    lower("localut.pack_a_ms", "ms"),
    lower("localut.canonical_build_ms", "ms"),
    lower("localut.reorder_build_ms", "ms"),
    lower("localut.lut_bytes", "B"),
    lower("localut.plan_us", "us"),
    lower("localut.panel_resolve_ms", "ms"),
    lower("localut.kernel_shard_ms", "ms"),
    higher("localut.kernel_gmacs_s", "GMAC/s"),
    lower("localut.kernel_tiny_us", "us"),
    lower("pim-sim.cost_us", "us"),
    lower("pim-sim.stats_merge_ns", "ns"),
    lower("runtime.shard_plan_us", "us"),
    lower("runtime.execute_paper_flat_ms", "ms"),
    lower("runtime.execute_paper_ranked_ms", "ms"),
    lower("engine.plan_memo_hit_ns", "ns"),
    lower("engine.infer_us", "us"),
    lower("engine.session_step_us", "us"),
    lower("engine.store_save_ms", "ms"),
    lower("engine.store_load_ms", "ms"),
    lower("engine.store_bytes", "B"),
    lower("engine.restart_cold_ms", "ms"),
    lower("engine.restart_warm_ms", "ms"),
    lower("netserve.frame_rt_us", "us"),
    // The layer walk of the workload's own GEMM.
    lower("runtime.execute_ms", "ms"),
    lower("runtime.self_share", "ratio"),
    lower("engine.submit_self_us", "us"),
    // The workload's own timed section, one steady round.
    lower("pim-sim.sim_ms", "sim_ms"),
    higher("engine.cache_hits", "count"),
    lower("engine.cache_misses", "count"),
    lower("engine.cache_evictions", "count"),
    higher("engine.cache_restored", "count"),
    higher("engine.cache_hit_ratio", "ratio"),
    higher("engine.memo_hit_ratio", "ratio"),
    lower("op.latency_tail_us", "us"),
    higher("op.latency_tail_pct", "%"),
    higher("op.latency_samples", "count"),
    // Live where a Server is on the path (serve_*, net_mixed).
    lower("serve.direct_us_per_req", "us"),
    lower("serve.sched_overhead_us", "us"),
    lower("serve.dispatches_per_req", "ratio"),
    higher("serve.coalesced_share", "ratio"),
    higher("serve.largest_batch", "count"),
    lower("serve.start_join_us", "us"),
    // Live on net_mixed, on its own requests and replies.
    lower("netserve.encode_req_us", "us"),
    lower("netserve.decode_req_us", "us"),
    lower("netserve.encode_resp_us", "us"),
    lower("netserve.decode_resp_us", "us"),
    lower("netserve.req_bytes", "B"),
    lower("netserve.resp_bytes", "B"),
    higher("netserve.json_parse_mb_s", "MB/s"),
    lower("netserve.ping_rtt_us", "us"),
    lower("netserve.wire_overhead_us", "us"),
    // Where one op's host time goes, as shares that sum to 1.
    lower("walk.quant_share", "ratio"),
    lower("walk.localut_kernel_share", "ratio"),
    lower("walk.localut_build_share", "ratio"),
    lower("walk.pim-sim_share", "ratio"),
    lower("walk.runtime_share", "ratio"),
    lower("walk.dnn_share", "ratio"),
    lower("walk.engine_share", "ratio"),
    lower("walk.serve_share", "ratio"),
    lower("walk.netserve_share", "ratio"),
    lower("walk.checksum_ok", "bool"),
    // The tracer itself.
    lower("trace.overhead_share", "ratio"),
    lower("trace.unattributed_share", "ratio"),
    higher("trace.spans", "count"),
    higher("trace.ops_traced", "count"),
];

/// Metrics of layers that are on some workloads' request path only; they
/// read 0 on the others.
pub const LIVE_ON_SOME: [&str; 15] = [
    "serve.direct_us_per_req",
    "serve.sched_overhead_us",
    "serve.dispatches_per_req",
    "serve.coalesced_share",
    "serve.largest_batch",
    "serve.start_join_us",
    "netserve.encode_req_us",
    "netserve.decode_req_us",
    "netserve.encode_resp_us",
    "netserve.decode_resp_us",
    "netserve.req_bytes",
    "netserve.resp_bytes",
    "netserve.json_parse_mb_s",
    "netserve.ping_rtt_us",
    "netserve.wire_overhead_us",
];

/// The metric that carries `layer`'s share of an op's host time.
pub fn walk_share_metric(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|decl| decl.name)
        .find(|name| {
            name.strip_prefix("walk.")
                .and_then(|rest| rest.strip_suffix("_share"))
                == Some(layer)
        })
        .unwrap_or_else(|| panic!("no walk share metric is declared for layer {layer}"))
}

/// The metrics of one run, by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// Sets each of `names` that has no value yet to 0.
    pub fn zero_if_unset(&mut self, names: &[&'static str]) {
        for name in names {
            self.0.entry(name).or_insert(0.0);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The metrics in declaration order, checked against `declared`: a
    /// missing, undeclared or non-finite metric is a defect in the
    /// benchmark, not a result.
    pub fn finish(
        self,
        declared: &'static [MetricDecl],
    ) -> Result<Vec<(&'static MetricDecl, f64)>, String> {
        if let Some(extra) = self
            .0
            .keys()
            .find(|name| !declared.iter().any(|d| d.name == **name))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        declared
            .iter()
            .map(|decl| match self.0.get(decl.name) {
                Some(value) if value.is_finite() => Ok((decl, *value)),
                Some(value) => Err(format!("metric {} is {value}", decl.name)),
                None => Err(format!("metric {} was not measured", decl.name)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netserve::json::Json;
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn is_name(text: &str) -> bool {
        text.len() <= 64
            && text.starts_with(|c: char| c.is_ascii_alphanumeric())
            && text
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(text: &str) -> bool {
        !text.is_empty()
            && text.len() <= 16
            && text
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
    }

    fn keys(entry: &Json) -> Vec<&str> {
        let Json::Object(map) = entry else {
            panic!("not an object: {entry:?}");
        };
        map.keys().map(String::as_str).collect()
    }

    fn list<'a>(document: &'a Json, key: &str) -> &'a [Json] {
        document
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is not a list"))
    }

    /// `(name, unit, better)` of a metric as the file states it.
    fn stated(entry: &Json) -> (&str, &str, &str) {
        (
            text(entry, "name"),
            text(entry, "unit"),
            text(entry, "better"),
        )
    }

    fn declared(decl: &MetricDecl) -> (&str, &str, &str) {
        let better = match decl.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        (decl.name, decl.unit, better)
    }

    #[test]
    fn names_and_units_are_well_formed_unique_and_within_the_counts() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(is_name(name), "{name} is not a well-formed name");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                is_unit(metric.unit),
                "{}: unit {} is not well formed",
                metric.name,
                metric.unit
            );
        }
        for workload in &WORKLOADS {
            assert!(
                workload.why.len() <= 200 && !workload.why.contains('\n'),
                "{}",
                workload.name
            );
        }
        for metric in &END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(
                bound > 0.0 && bound <= 0.25,
                "{}: bound {bound}",
                metric.name
            );
        }
        assert!(PER_LAYER.iter().all(|metric| metric.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_program_emits() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let document = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(
            keys(&document),
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            document.get("run_seconds").and_then(Json::as_uint),
            Some(u128::from(RUN_SECONDS))
        );
        assert_eq!(
            list(&document, "paths"),
            [Json::Str("benchmark".to_owned())]
        );
        let command: Vec<&str> = list(&document, "command")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(command.first(), Some(&"cargo"));
        assert!(command.contains(&"benchmark/Cargo.toml") && command.len() <= 32);

        let workloads: Vec<(&str, &str)> = list(&document, "workloads")
            .iter()
            .map(|entry| {
                assert_eq!(keys(entry), ["name", "why"]);
                (text(entry, "name"), text(entry, "why"))
            })
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| (w.name, w.why))
                .collect::<Vec<_>>()
        );

        let end_to_end = list(&document, "end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, decl) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(keys(entry), ["better", "bound", "name", "unit"]);
            assert_eq!(stated(entry), declared(decl));
            let bound = match entry.get("bound") {
                Some(Json::Float(bound)) => *bound,
                other => panic!("{}: bound {other:?}", decl.name),
            };
            assert_eq!(Some(bound), decl.bound, "{}", decl.name);
        }

        let per_layer = list(&document, "per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, decl) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(keys(entry), ["better", "name", "unit"]);
            assert_eq!(stated(entry), declared(decl));
        }
    }

    #[test]
    fn a_run_must_emit_exactly_the_declared_set() {
        let full = || {
            let mut metrics = Metrics::default();
            for decl in &END_TO_END {
                metrics.set(decl.name, 1.5);
            }
            metrics
        };
        let emitted = full()
            .finish(&END_TO_END)
            .expect("the declared set is accepted");
        assert_eq!(
            emitted
                .iter()
                .map(|(decl, _)| decl.name)
                .collect::<Vec<_>>(),
            END_TO_END.iter().map(|decl| decl.name).collect::<Vec<_>>()
        );

        let mut missing = Metrics::default();
        missing.set("setup_s", 1.0);
        assert!(missing
            .finish(&END_TO_END)
            .unwrap_err()
            .contains("was not measured"));

        let mut extra = full();
        extra.set("walk.serve_share", 0.1);
        assert!(extra
            .finish(&END_TO_END)
            .unwrap_err()
            .contains("is not declared"));

        let mut not_a_number = Metrics::default();
        for decl in &END_TO_END {
            not_a_number.set(
                decl.name,
                if decl.name == "setup_s" {
                    f64::NAN
                } else {
                    1.0
                },
            );
        }
        assert!(not_a_number
            .finish(&END_TO_END)
            .unwrap_err()
            .contains("setup_s is NaN"));
    }

    #[test]
    fn every_layer_of_the_walk_has_a_share_metric_and_absent_layers_read_zero() {
        for (layer, _) in crate::walk::Shares::default().layers() {
            assert!(walk_share_metric(layer).contains(layer));
        }
        let mut metrics = Metrics::default();
        metrics.set("serve.largest_batch", 8.0);
        metrics.zero_if_unset(&LIVE_ON_SOME);
        assert_eq!(metrics.get("serve.largest_batch"), Some(8.0));
        assert_eq!(metrics.get("netserve.ping_rtt_us"), Some(0.0));
        assert!(LIVE_ON_SOME
            .iter()
            .all(|name| PER_LAYER.iter().any(|decl| decl.name == *name)));
    }
}
