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
//! the `--out` summary bit for bit (`tests/net_remote.rs` pins this). Backpressure knobs:
//! `--queue-cap` bounds the submission queue (excess requests get typed
//! retry-after rejections), `--quota` caps admissions per connection,
//! `--max-conns` caps concurrent connections. `--ranks R
//! [--banks-per-rank B]` serves on the ranked machine: requests without a
//! per-request bank override shard across the two-level topology.
//!
//! Exit codes: 0 clean drain, 2 usage or I/O error.

use engine::serve::ServeConfig;
use localut_repro::cli::{self, print_cache_lines, CliError, EngineFlags, Flags};
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
    engine: EngineFlags,
    queue_cap: Option<usize>,
    quota: Option<u64>,
    max_conns: usize,
    log: Option<String>,
    out: Option<String>,
    port_file: Option<String>,
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
        engine: EngineFlags::default(),
        queue_cap: None,
        quota: None,
        max_conns: 64,
        log: None,
        out: None,
        port_file: None,
    };
    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next_flag()? {
        match flag.as_str() {
            "--addr" => args.addr = flags.value("--addr")?,
            "--threads" => args.threads = flags.positive("--threads")?,
            "--engine-threads" => args.engine_threads = flags.positive("--engine-threads")?,
            "--max-batch" => args.max_batch = flags.positive("--max-batch")?,
            "--queue-cap" => args.queue_cap = Some(flags.positive("--queue-cap")?),
            "--quota" => args.quota = Some(flags.parsed("--quota")?),
            "--max-conns" => args.max_conns = flags.positive("--max-conns")?,
            "--log" => args.log = Some(flags.value("--log")?),
            "--out" => args.out = Some(flags.value("--out")?),
            "--port-file" => args.port_file = Some(flags.value("--port-file")?),
            other if args.engine.accept(other, &mut flags)? => {}
            other => return Err(flags.unknown(other)),
        }
    }
    args.engine.validate(&flags)?;
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
    let engine = Arc::new(args.engine.build_engine(args.engine_threads));
    args.engine.print_restore(&engine, "serve-daemon: ");
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
    print_cache_lines(
        "serve-daemon: ",
        &report.serve.lut_cache,
        &report.serve.plan_memo,
    );

    // Save-on-drain: the next daemon pointed at this directory starts
    // warm and answers its first requests without the cold LUT builds.
    args.engine.persist(&engine, "serve-daemon: ")?;

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
