//! `loadgen` — deterministic traffic generator and serving-load driver.
//!
//! Generates a seeded request mix ([`engine::traffic`]) and drives it from
//! many client threads — either **in-process** through the concurrent
//! serving scheduler ([`engine::serve::Server`]) or, with `--remote ADDR`,
//! **over TCP** against a `serve-daemon` process via [`netserve::NetClient`].
//! Both paths print/write a summary whose deterministic core — request
//! counts, values checksum, merged simulated femtoseconds, latency
//! percentiles, energy — is **byte-identical for any `--threads`,
//! `--clients`-scheduling, `--max-batch`, `--mode`, or transport** over the
//! same `(--clients, --requests, --mix, --seed)` workload.
//! `tests/net_remote.rs` asserts exactly that by comparing in-process runs'
//! JSON against a remote run's.
//!
//! ```sh
//! loadgen --clients 4 --requests 8 --mix mixed --seed 42 --threads 4
//! loadgen --mix decode --decode-tokens 8 --threads 4 --verify-serial
//! loadgen --mix chat --mode open --max-batch 16 --out LOADGEN.json
//! loadgen --remote 127.0.0.1:4810 --out LOADGEN_remote.json --drain
//! loadgen --remote 127.0.0.1:4810 --client-offset 2 --client-count 2
//! ```
//!
//! The session-bearing mixes (`--mix decode`, `--mix chat`) generate
//! decoder sessions served with continuous batching: each session is one
//! prefill step plus up to `--decode-tokens` decode steps (lengths draw
//! uniformly from `1..=decode_tokens`), and the summary grows TTFT and
//! per-decode-step latency percentiles. The legacy mixes ignore
//! `--decode-tokens` entirely — their seeded logs are byte-identical at
//! any value.
//!
//! `--ranks R [--banks-per-rank B]` serves the workload on the ranked
//! machine (the paper's server is `--ranks 32 --banks-per-rank 64`): the
//! seeded logs' small per-request bank overrides are stripped so the
//! topology governs every GEMM's shard plan, and the topology joins the
//! workload identity in the JSON. A `serve-daemon` driven remotely must be
//! started with the same topology flags for summaries to compare.
//!
//! In remote mode each client thread opens its own connection; typed
//! `QueueFull` rejections are retried with the server-suggested delay, so
//! a queue-capped daemon slows the run down instead of failing it.
//! `--client-offset`/`--client-count` split one workload's client ids
//! across processes (the summary then covers only the slice this process
//! drove — the daemon's own `--out`/`--log` stay the whole-workload
//! authority). `--drain` asks the daemon to shut down after this process's
//! traffic completes.
//!
//! Exit codes: 0 success, 1 any request failed, 2 usage or I/O error.

use bench::json::Json;
use engine::serve::{drive_client, replay_serial, ArrivalMode, ServeConfig, ServeRecorder, Server};
use engine::traffic::{client_log, strip_bank_overrides, Mix, TrafficConfig, TrafficRequest};
use engine::{EngineError, Rejection, ServeSummary};
use localut_repro::cli::{self, print_cache_lines, CliError, EngineFlags, Flags};
use netserve::wire::{self, WireRequest, WireResponse};
use netserve::NetClient;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    traffic: TrafficConfig,
    threads: usize,
    engine_threads: usize,
    max_batch: usize,
    mode: ArrivalMode,
    engine: EngineFlags,
    out: Option<String>,
    verify_serial: bool,
    remote: Option<String>,
    client_offset: usize,
    client_count: Option<usize>,
    drain: bool,
}

impl Args {
    /// The client ids this process drives: `offset..offset + count`.
    fn client_range(&self) -> std::ops::Range<usize> {
        let count = self
            .client_count
            .unwrap_or(self.traffic.clients - self.client_offset);
        self.client_offset..self.client_offset + count
    }

    /// Whether this process drives the whole declared workload (the
    /// precondition for byte-comparing its summary against anything).
    fn drives_full_workload(&self) -> bool {
        self.client_range() == (0..self.traffic.clients)
    }

    /// One client's request log under this workload. With `--ranks` the
    /// seeded per-request bank overrides are stripped so the engine's
    /// ranked topology governs every GEMM's shard plan — part of the
    /// workload identity, so it is recorded in the deterministic JSON.
    fn client_requests(&self, client: usize) -> Vec<TrafficRequest> {
        let mut log = client_log(&self.traffic, client);
        if self.engine.ranks.is_some() {
            strip_bank_overrides(&mut log);
        }
        log
    }

    /// The full workload log in canonical order (the serial-replay
    /// reference), with the same topology rewrite as the driven logs.
    fn full_requests(&self) -> Vec<TrafficRequest> {
        (0..self.traffic.clients)
            .flat_map(|client| self.client_requests(client))
            .collect()
    }
}

const USAGE: &str = "usage: loadgen [--clients N] [--requests N] \
[--mix gemm|infer|mixed|decode|chat] [--decode-tokens N] \
[--seed S] [--threads N] [--engine-threads N] [--max-batch N] [--mode open|closed] \
[--ranks N [--banks-per-rank N]] [--cache-dir DIR] [--cache-budget BYTES] \
[--out FILE] [--verify-serial] \
[--remote HOST:PORT [--client-offset N] [--client-count N] [--drain]]";

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args {
        traffic: TrafficConfig {
            clients: 4,
            requests_per_client: 8,
            mix: Mix::Mixed,
            seed: 42,
            decode_tokens: 4,
        },
        threads: 4,
        engine_threads: 2,
        max_batch: 8,
        mode: ArrivalMode::Closed,
        engine: EngineFlags::default(),
        out: None,
        verify_serial: false,
        remote: None,
        client_offset: 0,
        client_count: None,
        drain: false,
    };
    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next_flag()? {
        match flag.as_str() {
            "--clients" => args.traffic.clients = flags.positive("--clients")?,
            "--requests" => args.traffic.requests_per_client = flags.positive("--requests")?,
            "--mix" => args.traffic.mix = flags.parsed("--mix")?,
            "--decode-tokens" => {
                args.traffic.decode_tokens = flags
                    .positive("--decode-tokens")?
                    .try_into()
                    .unwrap_or(u32::MAX);
            }
            "--seed" => args.traffic.seed = flags.parsed("--seed")?,
            "--threads" => args.threads = flags.positive("--threads")?,
            "--engine-threads" => args.engine_threads = flags.positive("--engine-threads")?,
            "--max-batch" => args.max_batch = flags.positive("--max-batch")?,
            "--mode" => args.mode = flags.parsed("--mode")?,
            "--out" => args.out = Some(flags.value("--out")?),
            "--verify-serial" => args.verify_serial = true,
            "--remote" => args.remote = Some(flags.value("--remote")?),
            "--client-offset" => args.client_offset = flags.parsed("--client-offset")?,
            "--client-count" => args.client_count = Some(flags.parsed("--client-count")?),
            "--drain" => args.drain = true,
            other if args.engine.accept(other, &mut flags)? => {}
            other => return Err(flags.unknown(other)),
        }
    }
    args.engine.validate(&flags)?;
    if args.remote.is_none()
        && (args.client_offset != 0 || args.client_count.is_some() || args.drain)
    {
        return Err(
            flags.usage_error("--client-offset/--client-count/--drain require --remote HOST:PORT")
        );
    }
    if args.client_offset >= args.traffic.clients && args.client_count != Some(0) {
        return Err(flags.usage_error("--client-offset must be below --clients"));
    }
    if args.client_range().end > args.traffic.clients {
        return Err(flags.usage_error("--client-offset + --client-count exceeds --clients"));
    }
    if args.client_count == Some(0) && !args.drain {
        return Err(flags.usage_error("--client-count 0 only makes sense with --drain"));
    }
    if args.remote.is_some()
        && (args.engine.cache_dir.is_some() || args.engine.cache_budget.is_some())
    {
        return Err(flags.usage_error(
            "--cache-dir/--cache-budget configure the in-process engine; set them on serve-daemon for remote runs",
        ));
    }
    if args.verify_serial && args.remote.is_some() && !args.drives_full_workload() {
        return Err(flags.usage_error(
            "--verify-serial needs the full workload: drop --client-offset/--client-count",
        ));
    }
    Ok(args)
}

/// The deterministic JSON body: workload identity + summary. Host knobs
/// (threads, arrival mode, batching, transport) are deliberately excluded —
/// they must not change a single byte here.
fn report_json(args: &Args, summary: &ServeSummary) -> Json {
    let mut workload = vec![
        ("clients", Json::UInt(args.traffic.clients as u128)),
        (
            "requests_per_client",
            Json::UInt(args.traffic.requests_per_client as u128),
        ),
        ("mix", Json::Str(args.traffic.mix.name().to_owned())),
        ("seed", Json::UInt(u128::from(args.traffic.seed))),
    ];
    // Only the session-bearing mixes consume the decode budget, so only
    // they record it as part of the workload identity.
    if matches!(args.traffic.mix, Mix::Decode | Mix::Chat) {
        workload.push((
            "decode_tokens",
            Json::UInt(u128::from(args.traffic.decode_tokens)),
        ));
    }
    // The ranked topology rewrites the workload (bank overrides are
    // stripped), so it is part of the deterministic identity.
    if let Some((ranks, banks_per_rank)) = args.engine.ranked() {
        workload.push(("ranks", Json::UInt(u128::from(ranks))));
        workload.push(("banks_per_rank", Json::UInt(u128::from(banks_per_rank))));
    }
    Json::object(vec![
        ("schema", Json::Str("loadgen-v2".to_owned())),
        ("workload", Json::object(workload)),
        // The same object `serve-daemon --out` and the drain ack carry.
        ("summary", wire::summary_json(summary)),
    ])
}

/// The shared result table; `extras` appends host-only rows the JSON
/// deliberately omits.
fn print_summary_table(summary: &ServeSummary, wall_nanos: u128, extras: &[(String, String)]) {
    let mut table = bench::Table::new(&["metric", "value"]);
    table.row(vec![
        "requests (gemm + infer + session)".into(),
        format!(
            "{} ({} + {} + {})",
            summary.requests,
            summary.gemm_requests,
            summary.infer_requests,
            summary.session_requests
        ),
    ]);
    table.row(vec!["failed".into(), summary.failed_requests.to_string()]);
    table.row(vec![
        "simulated work (ms)".into(),
        format!("{:.4}", summary.stats.total_femtos() as f64 / 1e12),
    ]);
    table.row(vec![
        "latency p50/p95/p99 (us, simulated)".into(),
        format!(
            "{:.2} / {:.2} / {:.2}",
            summary.latency.p50 as f64 / 1e9,
            summary.latency.p95 as f64 / 1e9,
            summary.latency.p99 as f64 / 1e9
        ),
    ]);
    table.row(vec![
        "throughput (req/simulated s)".into(),
        format!("{:.1}", summary.throughput_rps()),
    ]);
    if summary.session_requests > 0 {
        table.row(vec![
            "TTFT p50/p95/p99 (us, simulated)".into(),
            format!(
                "{:.2} / {:.2} / {:.2}",
                summary.ttft.p50 as f64 / 1e9,
                summary.ttft.p95 as f64 / 1e9,
                summary.ttft.p99 as f64 / 1e9
            ),
        ]);
        table.row(vec![
            format!(
                "decode step p50/p95/p99 (us, {} steps)",
                summary.decode_steps
            ),
            format!(
                "{:.2} / {:.2} / {:.2}",
                summary.decode.p50 as f64 / 1e9,
                summary.decode.p95 as f64 / 1e9,
                summary.decode.p99 as f64 / 1e9
            ),
        ]);
    }
    table.row(vec![
        "energy (J)".into(),
        format!("{:.3e}", summary.energy_pj as f64 / 1e12),
    ]);
    table.row(vec![
        "values checksum".into(),
        format!("{:016x}", summary.checksum),
    ]);
    table.row(vec![
        "host wall (ms) [not in JSON]".into(),
        format!("{:.1}", wall_nanos as f64 / 1e6),
    ]);
    for (metric, value) in extras {
        table.row(vec![metric.clone(), value.clone()]);
    }
    table.print();
}

fn write_out(args: &Args, summary: &ServeSummary) -> Result<(), String> {
    let Some(path) = &args.out else {
        return Ok(());
    };
    let text = report_json(args, summary).to_pretty();
    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "wrote {path} ({})",
        if args.drives_full_workload() {
            "deterministic: byte-identical at any thread count or transport"
        } else {
            "covers only this process's slice — not byte-reproducible"
        }
    );
    Ok(())
}

fn verify_serial_replay(args: &Args, summary: &ServeSummary) -> Result<(), String> {
    // Replays the identical log one request at a time on a fresh engine
    // (same topology as the serving engine) and cross-checks the
    // concurrent summary bit for bit.
    let reference = args.engine.build_engine(1);
    let serial = replay_serial(&reference, &args.full_requests());
    if serial == *summary {
        println!("serial replay: MATCH (summary is interleaving-invariant)");
        Ok(())
    } else {
        Err(format!(
            "serial replay diverged from the concurrent run\nserial:     {serial:?}\nconcurrent: {summary:?}"
        ))
    }
}

fn exit_by_failures(summary: &ServeSummary) -> ExitCode {
    if summary.failed_requests == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let engine = Arc::new(args.engine.build_engine(args.engine_threads));
    args.engine.print_restore(&engine, "");
    let server = Server::start(
        engine.clone(),
        &ServeConfig::builder()
            .workers(args.threads)
            .max_batch(args.max_batch)
            .build()
            .map_err(|e| e.to_string())?,
    );
    println!(
        "loadgen: {} client(s) x {} request(s), mix {}, seed {}, {} worker(s), {:?} arrivals",
        args.traffic.clients,
        args.traffic.requests_per_client,
        args.traffic.mix.name(),
        args.traffic.seed,
        args.threads,
        args.mode,
    );

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..args.traffic.clients {
            let server = &server;
            let log = args.client_requests(client);
            let mode = args.mode;
            scope.spawn(move || drive_client(server, log, mode));
        }
    });
    let wall_nanos = t0.elapsed().as_nanos();
    let report = server.join();
    let summary = &report.summary;

    print_summary_table(
        summary,
        wall_nanos,
        &[(
            "dispatches / coalesced [not in JSON]".into(),
            format!("{} / {}", report.dispatches, report.coalesced_requests),
        )],
    );
    print_cache_lines("", &report.lut_cache, &report.plan_memo);
    args.engine.persist(&engine, "")?;
    if args.verify_serial {
        verify_serial_replay(args, summary)?;
    }
    write_out(args, summary)?;
    Ok(exit_by_failures(summary))
}

/// One remote request, retried through typed `QueueFull` backpressure with
/// the server-suggested delay. Any other rejection is a hard error: the
/// generator runs without quotas, so `QuotaExhausted`/`Draining` mean the
/// operator pointed it at a daemon configured for something else.
fn call_through_backpressure(
    client: &mut NetClient,
    request: &WireRequest,
) -> Result<WireResponse, String> {
    loop {
        match client.call(request).map_err(|e| e.to_string())? {
            WireResponse::Rejected(Rejection::QueueFull { retry_after_ms, .. }) => {
                std::thread::sleep(Duration::from_millis(retry_after_ms));
            }
            WireResponse::Rejected(rejection) => {
                return Err(EngineError::Rejected(rejection).to_string());
            }
            response => return Ok(response),
        }
    }
}

/// Drives one client's log over its own connection; returns the responses
/// (order irrelevant — the summary fold is order-invariant).
fn drive_remote_client(
    addr: &str,
    log: Vec<TrafficRequest>,
    mode: ArrivalMode,
) -> Result<Vec<WireResponse>, String> {
    let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
    let requests: Vec<WireRequest> = log.into_iter().map(WireRequest::from).collect();
    let mut responses = Vec::with_capacity(requests.len());
    match mode {
        // Closed loop: one request in flight per client.
        ArrivalMode::Closed => {
            for request in &requests {
                responses.push(call_through_backpressure(&mut client, request)?);
            }
        }
        // Open loop: pipeline every frame, then collect in order; anything
        // the bounded queue rejected is re-driven closed-loop.
        ArrivalMode::Open => {
            for request in &requests {
                client.send(request).map_err(|e| e.to_string())?;
            }
            let mut retries = Vec::new();
            for (index, _) in requests.iter().enumerate() {
                match client.recv().map_err(|e| e.to_string())? {
                    WireResponse::Rejected(Rejection::QueueFull { .. }) => retries.push(index),
                    WireResponse::Rejected(rejection) => {
                        return Err(EngineError::Rejected(rejection).to_string());
                    }
                    response => responses.push(response),
                }
            }
            for index in retries {
                responses.push(call_through_backpressure(&mut client, &requests[index])?);
            }
        }
    }
    Ok(responses)
}

fn run_remote(args: &Args, addr: &str) -> Result<ExitCode, String> {
    let range = args.client_range();
    println!(
        "loadgen: remote {addr}, client(s) {}..{} of {} x {} request(s), mix {}, seed {}, {:?} arrivals",
        range.start,
        range.end,
        args.traffic.clients,
        args.traffic.requests_per_client,
        args.traffic.mix.name(),
        args.traffic.seed,
        args.mode,
    );

    let t0 = Instant::now();
    let results: Vec<Result<Vec<WireResponse>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = range
            .clone()
            .map(|client| {
                let log = args.client_requests(client);
                let mode = args.mode;
                scope.spawn(move || drive_remote_client(addr, log, mode))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("remote client thread panicked"))
            .collect()
    });
    let wall_nanos = t0.elapsed().as_nanos();

    // Rebuild the summary client-side from the wire responses — the same
    // fold the server runs, so a full run's summary (and JSON) is
    // byte-identical to the in-process path's.
    let mut recorder = ServeRecorder::new();
    for result in results {
        for response in result? {
            wire::record_response(&mut recorder, &response);
        }
    }
    let summary = recorder.summary();

    if !range.is_empty() {
        print_summary_table(&summary, wall_nanos, &[]);
    }
    if args.verify_serial {
        verify_serial_replay(args, &summary)?;
    }
    write_out(args, &summary)?;

    if args.drain {
        let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
        let (server_summary, server_cache) = client.drain().map_err(|e| e.to_string())?;
        println!(
            "drained {addr}: server served {} request(s) total",
            server_summary.requests
        );
        if let Some(cache) = server_cache {
            print_cache_lines("", &cache.lut, &cache.memo);
        }
    }
    Ok(exit_by_failures(&summary))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => return cli::exit(&e),
    };
    let outcome = match &args.remote {
        Some(addr) => run_remote(&args, addr),
        None => run(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
