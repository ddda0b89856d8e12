//! Multi-process acceptance tests for the network serving front-end: a
//! real `serve-daemon` child process, driven by real `loadgen --remote`
//! child processes over loopback TCP. Pins the PR's contract:
//!
//! * a remote run's summary JSON is **byte-identical** to an in-process
//!   run of the same workload at either worker count and arrival mode;
//! * serially replaying the daemon's request log reproduces the daemon's
//!   summary **bit for bit**, for multiple worker counts and with the
//!   workload split across ≥ 2 client processes;
//! * a drain request shuts the daemon down with exit code 0;
//! * a daemon restarted on the `--cache-dir` a first one persisted to
//!   restores its LUT images and changes no byte of either process's JSON.

use engine::serve::replay_serial;
use engine::traffic::{full_log, Mix, TrafficConfig};
use engine::Engine;
use netserve::json::Json;
use netserve::wire;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the daemon if a test fails before draining it, so a broken run
/// fails instead of hanging the suite.
struct Daemon {
    child: Child,
    addr: String,
    log: PathBuf,
    out: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("netserve-{}-{name}", std::process::id()))
}

fn spawn_daemon(tag: &str, threads: usize, cache_dir: Option<&Path>) -> Daemon {
    let port_file = tmp(&format!("{tag}-port.txt"));
    let log = tmp(&format!("{tag}-requests.jsonl"));
    let out = tmp(&format!("{tag}-serve.json"));
    let _ = std::fs::remove_file(&port_file);
    let mut command = Command::new(env!("CARGO_BIN_EXE_serve-daemon"));
    if let Some(dir) = cache_dir {
        command.arg("--cache-dir").arg(dir);
    }
    let child = command
        .args([
            "--addr",
            "127.0.0.1:0",
            "--threads",
            &threads.to_string(),
            "--engine-threads",
            "1",
            "--port-file",
        ])
        .arg(&port_file)
        .arg("--log")
        .arg(&log)
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve-daemon spawns");
    // The daemon writes HOST:PORT once bound; poll for it.
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            if !addr.is_empty() {
                break addr;
            }
        }
        assert!(Instant::now() < deadline, "daemon never published its port");
        std::thread::sleep(Duration::from_millis(25));
    };
    let _ = std::fs::remove_file(&port_file);
    Daemon {
        child,
        addr,
        log,
        out,
    }
}

/// Drives the whole `workload` against `daemon` from one `loadgen
/// --remote` process that writes `out` and then drains; returns what the
/// daemon printed.
fn drive_and_drain(daemon: &mut Daemon, workload: &[&str], out: &Path) -> String {
    let status = loadgen(&["--remote", &daemon.addr])
        .args(workload)
        .args(["--drain", "--out"])
        .arg(out)
        .status()
        .expect("remote loadgen runs");
    assert!(status.success(), "remote run failed: {status}");
    wait_for_drain(daemon)
}

/// Draining must exit the daemon cleanly (code 0); returns what it
/// printed (a dozen lines — far below what a pipe holds unread).
fn wait_for_drain(daemon: &mut Daemon) -> String {
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit after drain: {status}");
    let mut printed = String::new();
    let mut stdout = daemon.child.stdout.take().expect("stdout is piped");
    stdout.read_to_string(&mut printed).expect("daemon stdout");
    printed
}

fn loadgen(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_loadgen"));
    cmd.args(args);
    cmd
}

/// The `"summary"` object of a `--out` file — the daemon's and `loadgen`'s
/// are the same `wire::summary_json` form.
fn summary_object(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("--out was written");
    let doc = Json::parse(&text).expect("--out parses");
    doc.get("summary").expect("--out has a summary").clone()
}

/// Reads the daemon's `--out` JSON back into a typed summary.
fn daemon_summary(daemon: &Daemon) -> engine::ServeSummary {
    wire::summary_from_json(&summary_object(&daemon.out)).expect("summary decodes")
}

/// Serially replays the daemon's request log on a fresh single-threaded
/// engine.
fn replay_daemon_log(daemon: &Daemon) -> engine::ServeSummary {
    let text = std::fs::read_to_string(&daemon.log).expect("daemon wrote --log");
    let log = wire::parse_request_log(&text).expect("request log parses");
    let reference = Engine::builder().threads(1).build();
    replay_serial(&reference, &log)
}

fn cleanup(daemon: &Daemon, extra: &[&PathBuf]) {
    let _ = std::fs::remove_file(&daemon.log);
    let _ = std::fs::remove_file(&daemon.out);
    for path in extra {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn remote_run_is_byte_identical_to_in_process_and_replays_bitwise() {
    let mut daemon = spawn_daemon("single", 2, None);
    let remote_out = tmp("single-remote.json");
    let workload = ["--clients", "2", "--requests", "2", "--seed", "9"];

    drive_and_drain(&mut daemon, &workload, &remote_out);
    let remote_json = std::fs::read_to_string(&remote_out).expect("remote out");

    // In-process, at both ends of the host knobs: neither the worker
    // count, the arrival mode nor the transport may move a byte.
    for (threads, mode) in [("1", "closed"), ("4", "open")] {
        let local_out = tmp(&format!("single-local-t{threads}.json"));
        let local = loadgen(&workload)
            .args(["--threads", threads, "--mode", mode, "--out"])
            .arg(&local_out)
            .status()
            .expect("local loadgen runs");
        assert!(local.success(), "in-process run failed: {local}");
        assert_eq!(
            std::fs::read_to_string(&local_out).expect("local out"),
            remote_json,
            "--threads {threads} --mode {mode} in-process differs from the remote run"
        );
        let _ = std::fs::remove_file(&local_out);
    }

    // The daemon's own file carries the very same summary object, and its
    // log replays to that summary, bit for bit.
    assert_eq!(summary_object(&daemon.out), summary_object(&remote_out));
    let summary = daemon_summary(&daemon);
    assert_eq!(summary.requests, 4);
    assert_eq!(replay_daemon_log(&daemon), summary);
    cleanup(&daemon, &[&remote_out]);
}

#[test]
fn warm_restarted_daemon_restores_its_cache_and_changes_no_byte() {
    let cache_dir = tmp("warm-lutcache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let workload = ["--clients", "2", "--requests", "4", "--seed", "42"];

    // Same directory, two daemons in sequence: the first builds every LUT
    // image and persists on drain, the second restores them at start-up.
    let run = |tag: &str| {
        let mut daemon = spawn_daemon(tag, 4, Some(&cache_dir));
        let loadgen_out = tmp(&format!("{tag}-loadgen.json"));
        let printed = drive_and_drain(&mut daemon, &workload, &loadgen_out);
        let files = (
            std::fs::read_to_string(&loadgen_out).expect("loadgen out"),
            std::fs::read_to_string(&daemon.out).expect("daemon out"),
        );
        cleanup(&daemon, &[&loadgen_out]);
        (files, printed)
    };

    let (cold, cold_printed) = run("warm-first");
    assert!(
        !cold_printed.contains("warm start"),
        "an empty directory is a cold start:\n{cold_printed}"
    );
    let persisted = std::fs::read_dir(&cache_dir).expect("cache dir exists");
    assert!(persisted.count() > 0, "drain persisted nothing");

    let (warm, warm_printed) = run("warm-second");
    assert!(
        warm_printed.contains("warm start: restored"),
        "the second daemon must restore from disk:\n{warm_printed}"
    );
    assert_eq!(
        warm, cold,
        "restoring the cache changed a deterministic byte"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn split_client_processes_replay_bitwise_at_a_different_worker_count() {
    let mut daemon = spawn_daemon("split", 3, None);
    let traffic = TrafficConfig {
        clients: 4,
        requests_per_client: 1,
        mix: Mix::Mixed,
        seed: 123,
        decode_tokens: 4,
    };
    let workload = ["--clients", "4", "--requests", "1", "--seed", "123"];

    // Two concurrent OS processes, each driving half the client ids.
    let mut first = loadgen(&["--remote", &daemon.addr])
        .args(workload)
        .args(["--client-offset", "0", "--client-count", "2"])
        .spawn()
        .expect("first half spawns");
    let mut second = loadgen(&["--remote", &daemon.addr])
        .args(workload)
        .args(["--client-offset", "2", "--client-count", "2"])
        .spawn()
        .expect("second half spawns");
    assert!(first.wait().expect("first exits").success());
    assert!(second.wait().expect("second exits").success());

    // A third, traffic-less process performs the drain.
    let drain = loadgen(&["--remote", &daemon.addr])
        .args(workload)
        .args(["--client-count", "0", "--drain"])
        .status()
        .expect("drain process runs");
    assert!(drain.success(), "drain run failed: {drain}");
    wait_for_drain(&mut daemon);

    // The daemon saw the union of both processes' traffic; its summary
    // must equal both the serial replay of its own log *and* the serial
    // replay of the canonical workload (the fold is order-invariant).
    let summary = daemon_summary(&daemon);
    assert_eq!(summary.requests, 4);
    assert_eq!(replay_daemon_log(&daemon), summary);
    let reference = Engine::builder().threads(1).build();
    assert_eq!(replay_serial(&reference, &full_log(&traffic)), summary);
    cleanup(&daemon, &[]);
}
