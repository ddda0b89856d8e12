//! The repository's host-time benchmark.
//!
//! `benchmark --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload in this process and prints its result as the last line of
//! standard output: with `--trace 0` the end-to-end metrics, measured with
//! tracing off; with `--trace 1` the per-layer metrics of a traced pass.
//! Without `--workload` the program runs itself once per workload and pass
//! — a fresh process each, so caches start empty and peak memory is the
//! workload's own — prints every metric by name, and writes
//! `out/result.json`. `--repeat N` does that N times on one build and seed
//! and checks that the runs agree within the declared bounds.

mod probes;
mod report;
mod schema;
mod spans;
mod stats;
mod suite;
mod walk;
mod workloads;

use report::RunResult;
use schema::{Metrics, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use spans::Tracer;
use stats::{best_of_rounds, median, percentile, tail_percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Round, Workload};

/// Cold set-ups timed per run; `setup_s` is the fastest, for the reason
/// every timing here is taken at its best round (see `stats::best_of_rounds`).
const SETUPS: usize = 7;

/// Rounds a run measures at the least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Traced rounds kept per pass, so the span dump stays a few megabytes.
const MAX_TRACED_ROUNDS: usize = 4;

const USAGE: &str =
    "usage: benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--repeat N] [--list]";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repeat: usize,
    pub list: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: 1,
        list: false,
    };
    while let Some(flag) = raw.next() {
        let mut value = |what: &str| raw.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(&value("a number")?, "--seed")?,
            "--seconds" => args.seconds = number(&value("a number")?, "--seconds")?,
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat" => args.repeat = number(&value("a number")?, "--repeat")? as usize,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds == 0 || args.repeat == 0 {
        return Err("--seconds and --repeat must be at least 1".to_owned());
    }
    Ok(args)
}

fn number(text: &str, flag: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a whole number, not '{text}'"))
}

/// The benchmark's own output directory, inside its package.
pub fn out_dir() -> PathBuf {
    let package = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    package.join("out")
}

fn set_up(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    workloads::setup(name, seed).ok_or_else(|| format!("unknown workload '{name}' (try --list)"))?
}

/// Runs rounds until `budget` has passed and at least [`MIN_ROUNDS`] are in.
fn measure(
    workload: &mut dyn Workload,
    budget: Duration,
    latencies_ns: &mut Vec<u64>,
) -> Vec<Round> {
    let deadline = Instant::now() + budget;
    let mut rounds = Vec::new();
    let mut off = Tracer::off();
    while rounds.len() < MIN_ROUNDS || Instant::now() < deadline {
        rounds.push(workload.round(latencies_ns, &mut off));
    }
    rounds
}

/// Ops in rounds whose simulated time differs from the first round's: the
/// modelled design's result may not depend on when it was computed.
fn sim_drift(rounds: &[Round], notes: &mut Vec<String>) -> u64 {
    let drifted: u64 = rounds
        .iter()
        .filter(|round| round.sim_femtos != rounds[0].sim_femtos)
        .map(|round| round.ops)
        .sum();
    if drifted > 0 {
        notes.push(format!(
            "WRONG: simulated time differs between rounds ({drifted} ops affected)"
        ));
    }
    drifted
}

/// Verifies the workload's recorded outputs and counts the run's ops:
/// `(attempted, failed, notes)`. An op fails by coming back as an error,
/// by a wrong output, or by belonging to a round whose simulated time
/// drifted.
fn tally(workload: &mut dyn Workload, rounds: &[Round]) -> (u64, u64, Vec<String>) {
    let verdict = workload.verify();
    let mut notes: Vec<String> = verdict
        .notes
        .iter()
        .map(|note| format!("WRONG: {note}"))
        .collect();
    let attempted: u64 = rounds.iter().map(|round| round.ops).sum();
    let failed = rounds.iter().map(|round| round.failed).sum::<u64>()
        + verdict.wrong_ops
        + sim_drift(rounds, &mut notes);
    (attempted, failed.min(attempted), notes)
}

/// Ops per host second of the run's best round.
fn throughput(rounds: &[Round]) -> f64 {
    best_of_rounds(rounds, true, |round| {
        round.ops as f64 / round.wall.as_secs_f64()
    })
}

/// Median op latency within a round, in microseconds, at the run's best
/// round. `latencies_ns` holds every round's ops in order.
fn latency_p50_us(rounds: &[Round], latencies_ns: &[u64]) -> f64 {
    let mut rest = latencies_ns;
    let medians: Vec<f64> = rounds
        .iter()
        .map(|round| {
            let (own, later) = rest.split_at((round.ops as usize).min(rest.len()));
            rest = later;
            median(&own.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>())
        })
        .collect();
    best_of_rounds(&medians, false, |&us| us)
}

fn exact_values(workload: &dyn Workload, round: &Round) -> Vec<(&'static str, u128)> {
    let cache = workload.cache_counts();
    vec![
        ("sim_femtos_per_round", round.sim_femtos),
        ("ops_per_round", u128::from(round.ops)),
        ("cache_hits", u128::from(cache.hits)),
        ("cache_misses", u128::from(cache.misses)),
        ("cache_evictions", u128::from(cache.evictions)),
        ("cache_restored", u128::from(cache.restored)),
        ("memo_hits", u128::from(cache.memo_hits)),
        ("memo_misses", u128::from(cache.memo_misses)),
    ]
}

/// The end-to-end pass: tracing off, seven cold set-ups, then rounds for
/// `seconds`, then verification once the clock has stopped.
fn run_end_to_end(name: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        // The previous engine goes before the next is built: a user holds
        // one, and peak memory should say so.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(set_up(name, seed)?);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUPS is not zero");

    let mut latencies_ns = Vec::new();
    let rounds = measure(
        workload.as_mut(),
        Duration::from_secs(seconds),
        &mut latencies_ns,
    );
    // Before verification builds its reference engine.
    let peak_rss = report::peak_rss_mib()?;
    let exact = exact_values(
        workload.as_ref(),
        rounds.last().expect("MIN_ROUNDS is not zero"),
    );

    let (attempted, failed, mut notes) = tally(workload.as_mut(), &rounds);
    notes.push(format!(
        "{} rounds, {} latency samples, sim_ms {} per round",
        rounds.len(),
        latencies_ns.len(),
        rounds[0].sim_femtos as f64 / 1e12
    ));

    let mut metrics = Metrics::default();
    metrics.set("setup_s", best_of_rounds(&setup_secs, false, |&secs| secs));
    metrics.set("throughput_ops_s", throughput(&rounds));
    metrics.set("latency_p50_us", latency_p50_us(&rounds, &latencies_ns));
    metrics.set("peak_rss_mb", peak_rss);
    Ok(RunResult {
        workload: name.to_owned(),
        seed,
        traced: false,
        attempted,
        failed,
        metrics: metrics.finish(&END_TO_END)?,
        exact,
        notes,
    })
}

/// The traced pass: rounds alternate tracing off and on for half of
/// `seconds`, then the workload's layer walk and the fixed probes run, and
/// every span is written out at the end.
fn run_traced(name: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let mut workload = set_up(name, seed)?;
    let mut tracer = Tracer::on(Instant::now());
    let mut off = Tracer::off();

    let deadline = Instant::now() + Duration::from_secs(seconds) / 2;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut latencies_ns, mut traced_latencies) = (Vec::new(), Vec::new());
    while plain.len() < MIN_ROUNDS || Instant::now() < deadline {
        plain.push(workload.round(&mut latencies_ns, &mut off));
        // Beyond the kept rounds the traced side still runs, so the two
        // sides see the same machine; its spans are just not kept.
        let keep = traced.len() < MAX_TRACED_ROUNDS;
        let mut scratch = tracer.sibling();
        let round = workload.round(
            &mut traced_latencies,
            if keep { &mut tracer } else { &mut scratch },
        );
        traced.push(round);
    }
    let exact = exact_values(workload.as_ref(), &plain[0]);
    let cache = workload.cache_counts();
    let ops_traced: u64 = traced
        .iter()
        .take(MAX_TRACED_ROUNDS)
        .map(|round| round.ops)
        .sum();
    // The round the host disturbed least stands for the workload.
    let (best_at, best) = plain
        .iter()
        .enumerate()
        .min_by_key(|(_, round)| round.wall)
        .expect("MIN_ROUNDS is not zero");
    let before: usize = plain[..best_at]
        .iter()
        .map(|round| round.ops as usize)
        .sum();
    let best_latencies = &latencies_ns[before..before + best.ops as usize];

    let mut metrics = Metrics::default();
    let shares = workload.layers(best, best_latencies, &mut tracer, &mut metrics)?;
    metrics.zero_if_unset(&schema::LIVE_ON_SOME);
    probes::run(
        seed,
        &out_dir().join(format!("store-{name}-{}", std::process::id())),
        &mut tracer,
        &mut metrics,
    )?;

    let lookups = (cache.hits + cache.misses).max(1) as f64;
    let plans = (cache.memo_hits + cache.memo_misses).max(1) as f64;
    metrics.set("pim-sim.sim_ms", best.sim_femtos as f64 / 1e12);
    metrics.set("engine.cache_hits", cache.hits as f64);
    metrics.set("engine.cache_misses", cache.misses as f64);
    metrics.set("engine.cache_evictions", cache.evictions as f64);
    metrics.set("engine.cache_restored", cache.restored as f64);
    metrics.set("engine.cache_hit_ratio", cache.hits as f64 / lookups);
    metrics.set("engine.memo_hit_ratio", cache.memo_hits as f64 / plans);

    let mut latencies_us: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    latencies_us.sort_by(f64::total_cmp);
    let tail = tail_percentile(latencies_us.len()).unwrap_or(50.0);
    metrics.set("op.latency_tail_us", percentile(&latencies_us, tail));
    metrics.set("op.latency_tail_pct", tail);
    metrics.set("op.latency_samples", latencies_us.len() as f64);

    let normal = shares.normalized();
    for (layer, share) in normal.layers() {
        metrics.set(schema::walk_share_metric(layer), share);
    }
    metrics.set("trace.unattributed_share", normal.unattributed);
    // Each traced round against the plain round just before it, so a drift
    // of the host over the pass cancels.
    let slowdown: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(plain, traced)| traced.wall.as_secs_f64() / plain.wall.as_secs_f64())
        .collect();
    metrics.set("trace.overhead_share", 1.0 - 1.0 / median(&slowdown));
    metrics.set("trace.spans", tracer.spans().len() as f64);
    metrics.set("trace.ops_traced", ops_traced as f64);

    let all: Vec<Round> = plain.iter().chain(&traced).cloned().collect();
    let (attempted, mut failed, mut notes) = tally(workload.as_mut(), &all);
    if metrics.get("walk.checksum_ok") != Some(1.0) {
        notes.push("WRONG: the layer walk did not reach the engine's checksum".to_owned());
        failed = (failed + 1).min(attempted);
    }
    let (top, share) = normal.top_layer();
    notes.push(format!(
        "top layer: {top} ({:.0} % of a round's host time; {:.0} % of the round found by difference)",
        share * 100.0,
        normal.unattributed * 100.0
    ));

    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let trace_path = out.join(format!("trace-{name}.json"));
    report::write_trace(&trace_path, name, seed, tracer.spans())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    notes.push(format!("spans written to {}", trace_path.display()));

    Ok(RunResult {
        workload: name.to_owned(),
        seed,
        traced: true,
        attempted,
        failed,
        metrics: metrics.finish(&PER_LAYER)?,
        exact,
        notes,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for workload in &WORKLOADS {
            println!("{:<16} {}", workload.name, workload.why);
        }
        return ExitCode::SUCCESS;
    }
    let Some(name) = &args.workload else {
        return suite::run(&args);
    };
    let outcome = if args.trace {
        run_traced(name, args.seed, args.seconds)
    } else {
        run_end_to_end(name, args.seed, args.seconds)
    };
    match outcome {
        Ok(result) => {
            result.print_table();
            println!("{}", result.exact_line());
            println!("{}", result.result_line());
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(ops: u64, millis: u64) -> Round {
        Round {
            ops,
            failed: 0,
            wall: Duration::from_millis(millis),
            sim_femtos: 7,
        }
    }

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_drivers_arguments_parse_in_any_order() {
        let parsed =
            args("--trace 1 --seconds 3 --workload net_mixed --seed 18446744073709551615").unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("net_mixed"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (u64::MAX, 3, true)
        );
        let defaults = args("").unwrap();
        assert_eq!(
            (defaults.seconds, defaults.repeat, defaults.trace),
            (RUN_SECONDS, 1, false)
        );
        assert!(defaults.workload.is_none());
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--repeat 0",
            "--workload",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad} should be refused");
        }
    }

    #[test]
    fn unknown_workloads_are_refused_and_every_declared_one_is_known() {
        assert!(set_up("no_such_workload", 1).is_err_and(|e| e.contains("unknown workload")));
        // Set-up itself is exercised by the runs; here only the name table:
        // a declared workload must not fall through to "unknown".
        let source = include_str!("workloads/mod.rs");
        for workload in &WORKLOADS {
            assert!(
                source.contains(&format!("\"{}\" =>", workload.name)),
                "{}",
                workload.name
            );
        }
    }

    #[test]
    fn latency_is_the_best_rounds_median() {
        // Three rounds of three ops; the second round ran in a slow phase.
        let rounds = [round(3, 30), round(3, 90), round(3, 30)];
        let latencies_ns = [
            9_000, 10_000, 11_000, 29_000, 30_000, 31_000, 10_000, 10_500, 11_000,
        ];
        let p50 = latency_p50_us(&rounds, &latencies_ns);
        assert_eq!(p50, 10.0);
        assert!((throughput(&rounds) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn a_round_that_simulates_another_time_fails_its_ops() {
        let mut rounds = vec![round(5, 1), round(5, 1), round(5, 1)];
        let mut notes = Vec::new();
        assert_eq!(sim_drift(&rounds, &mut notes), 0);
        rounds[1].sim_femtos += 1;
        assert_eq!(sim_drift(&rounds, &mut notes), 5);
        assert_eq!(notes.len(), 1);
    }
}
