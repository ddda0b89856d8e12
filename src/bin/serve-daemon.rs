//! `serve-daemon` — the TCP serving daemon over the LoCaLUT engine.
//!
//! Binds [`netserve::NetServer`] on a loopback (or any) address, serves
//! wire-framed GEMM/inference requests from remote `loadgen --remote`
//! processes (or any [`netserve::NetClient`]), and blocks until a client
//! sends the `Drain` verb — then it stops accepting, flushes every
//! in-flight ticket, writes its deterministic summary, and exits 0.
//!
//! ```sh
//! serve-daemon --addr 127.0.0.1:0 --port-file PORT.txt \
//!     --log REQUESTS.jsonl --out SERVE.json &
//! loadgen --remote "$(cat PORT.txt)" --clients 4 --requests 8 --drain
//! ```
//!
//! The `--log` file holds one canonical compact-JSON line per *executed*
//! request; replaying it through `engine::serve::replay_serial` rebuilds
//! the `--out` summary bit for bit (CI pins this). Backpressure knobs:
//! `--queue-cap` bounds the submission queue (excess requests get typed
//! retry-after rejections), `--quota` caps admissions per connection,
//! `--max-conns` caps concurrent connections. `--ranks R
//! [--banks-per-rank B]` serves on the ranked machine: requests without a
//! per-request bank override shard across the two-level topology.
//!
//! Exit codes: 0 clean drain, 2 usage or I/O error.

use engine::serve::ServeConfig;
use engine::Engine;
use localut_repro::cli::{self, CliError, Flags};
use netserve::json::Json;
use netserve::server::{NetConfig, NetServer};
use netserve::wire;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    addr: String,
    threads: usize,
    engine_threads: usize,
    max_batch: usize,
    ranks: Option<u32>,
    banks_per_rank: Option<u32>,
    queue_cap: Option<usize>,
    quota: Option<u64>,
    max_conns: usize,
    log: Option<String>,
    out: Option<String>,
    port_file: Option<String>,
    cache_dir: Option<String>,
    cache_budget: Option<u64>,
}

const USAGE: &str = "usage: serve-daemon [--addr HOST:PORT] [--threads N] \
[--engine-threads N] [--max-batch N] [--ranks N [--banks-per-rank N]] \
[--queue-cap N] [--quota N] [--max-conns N] \
[--cache-dir DIR] [--cache-budget BYTES] \
[--log FILE] [--out FILE] [--port-file FILE]";

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_owned(),
        threads: 4,
        engine_threads: 2,
        max_batch: 8,
        ranks: None,
        banks_per_rank: None,
        queue_cap: None,
        quota: None,
        max_conns: 64,
        log: None,
        out: None,
        port_file: None,
        cache_dir: None,
        cache_budget: None,
    };
    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next_flag()? {
        match flag.as_str() {
            "--addr" => args.addr = flags.value("--addr")?,
            "--threads" => args.threads = flags.positive("--threads")?,
            "--engine-threads" => args.engine_threads = flags.positive("--engine-threads")?,
            "--max-batch" => args.max_batch = flags.positive("--max-batch")?,
            "--ranks" => {
                args.ranks = Some(flags.positive("--ranks")?.try_into().unwrap_or(u32::MAX));
            }
            "--banks-per-rank" => {
                args.banks_per_rank = Some(
                    flags
                        .positive("--banks-per-rank")?
                        .try_into()
                        .unwrap_or(u32::MAX),
                );
            }
            "--queue-cap" => args.queue_cap = Some(flags.positive("--queue-cap")?),
            "--quota" => args.quota = Some(flags.parsed("--quota")?),
            "--max-conns" => args.max_conns = flags.positive("--max-conns")?,
            "--log" => args.log = Some(flags.value("--log")?),
            "--out" => args.out = Some(flags.value("--out")?),
            "--port-file" => args.port_file = Some(flags.value("--port-file")?),
            "--cache-dir" => args.cache_dir = Some(flags.value("--cache-dir")?),
            "--cache-budget" => args.cache_budget = Some(flags.positive("--cache-budget")? as u64),
            other => return Err(flags.unknown(other)),
        }
    }
    if args.banks_per_rank.is_some() && args.ranks.is_none() {
        return Err(flags.usage_error("--banks-per-rank requires --ranks N"));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let mut serve_config = ServeConfig::builder()
        .workers(args.threads)
        .max_batch(args.max_batch);
    if let Some(cap) = args.queue_cap {
        serve_config = serve_config.queue_cap(cap);
    }
    if let Some(quota) = args.quota {
        serve_config = serve_config.quota(quota);
    }
    let serve_config = serve_config.build().map_err(|e| e.to_string())?;

    let net_config = NetConfig {
        max_connections: args.max_conns,
        log_path: args.log.clone().map(Into::into),
        ..NetConfig::default()
    };
    // Requests that arrive without a bank override shard by the daemon's
    // topology — a loadgen driving ranked traffic must be started with
    // the same `--ranks`/`--banks-per-rank` pair.
    let mut builder = Engine::builder().threads(args.engine_threads);
    if let Some(ranks) = args.ranks {
        builder = builder.ranks(ranks, args.banks_per_rank.unwrap_or(64));
    }
    if let Some(budget) = args.cache_budget {
        builder = builder.cache_budget(budget);
    }
    if let Some(dir) = &args.cache_dir {
        builder = builder.cache_dir(dir);
    }
    let engine = Arc::new(builder.build());
    if let Some(error) = engine.cache_restore_error() {
        // A bad cache directory degrades to a cold start, never a refusal
        // to serve — but the operator asked for warmth, so say why not.
        eprintln!("warning: cache restore failed, starting cold: {error}");
    } else if engine.lut_cache_stats().entries > 0 {
        println!(
            "serve-daemon: warm start — restored {} LUT image(s) from {}",
            engine.lut_cache_stats().entries,
            args.cache_dir.as_deref().unwrap_or("?"),
        );
    }
    let server = NetServer::bind(
        engine.clone(),
        &serve_config,
        &net_config,
        args.addr.as_str(),
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    if let Some(path) = &args.port_file {
        std::fs::write(path, addr.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!(
        "serve-daemon: listening on {addr} ({} worker(s), max batch {}, queue cap {}, quota {}, max {} conn(s))",
        args.threads,
        args.max_batch,
        args.queue_cap.map_or("unbounded".to_owned(), |c| c.to_string()),
        args.quota.map_or("none".to_owned(), |q| q.to_string()),
        args.max_conns,
    );

    // Blocks until a client sends Drain; then every in-flight ticket is
    // flushed and the final deterministic report comes back.
    let report = server.wait();
    let summary = &report.serve.summary;
    println!(
        "serve-daemon: drained — {} request(s) served ({} gemm + {} infer + {} session, \
         {} failed), {} connection(s), {} quota-rejected, {} over-capacity, {} protocol error(s)",
        summary.requests,
        summary.gemm_requests,
        summary.infer_requests,
        summary.session_requests,
        summary.failed_requests,
        report.connections,
        report.rejected_quota,
        report.rejected_capacity,
        report.protocol_errors,
    );
    let lut = report.serve.lut_cache;
    let memo = report.serve.plan_memo;
    println!(
        "serve-daemon: lut cache {} hit(s), {} miss(es), {} eviction(s), {} failed build(s), \
         {} restored; {} resident entr{} ({} B); plan memo {} hit(s), {} miss(es)",
        lut.hits,
        lut.misses,
        lut.evictions,
        lut.failed_builds,
        lut.restored,
        lut.entries,
        if lut.entries == 1 { "y" } else { "ies" },
        lut.resident_bytes,
        memo.hits,
        memo.misses,
    );

    // Save-on-drain: the next daemon pointed at this directory starts
    // warm and answers its first requests without the ~734 ms cold LUT
    // builds. Persisting is part of the requested drain contract, so a
    // failure here is an error, not a warning.
    if args.cache_dir.is_some() {
        let count = engine.persist_cache().map_err(|e| e.to_string())?;
        println!(
            "serve-daemon: persisted {count} LUT image(s) to {}",
            args.cache_dir.as_deref().unwrap_or("?")
        );
    }

    if let Some(path) = &args.out {
        let doc = Json::object(vec![
            ("schema", Json::Str("serve-daemon-v1".to_owned())),
            ("summary", wire::summary_json(summary)),
        ]);
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("serve-daemon: wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => return cli::exit(&e),
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
