//! The TCP front-end: an accept loop mapping connections onto
//! [`engine::serve::Server`] tickets.
//!
//! ## Threading model
//!
//! One nonblocking accept thread polls the listener (and the drain flag)
//! every few milliseconds. Each accepted connection gets a **reader**
//! thread (decodes frames, checks quota, submits tickets) and a
//! **writer** thread (waits on tickets in request order and frames
//! responses back), joined by an in-order channel — so a client may
//! pipeline requests and the serving scheduler still coalesces them into
//! batches across connections.
//!
//! ## Backpressure, quotas, drain
//!
//! * A full submission queue ([`engine::serve::ServeConfig::queue_cap`])
//!   rejects at submit time; the writer relays the typed
//!   [`Rejection::QueueFull`] to the client, which may retry after the
//!   embedded delay. Nothing buffers without bound, nothing hangs.
//! * [`engine::serve::ServeConfig::quota`] caps submissions *per
//!   connection* (a queue-rejected retry counts: the quota budgets
//!   admission attempts, which keeps it checkable before submission).
//! * Drain — via [`NetServer::drain`] or a client's
//!   [`crate::wire::WireRequest::Drain`] — stops the accept loop and stops
//!   readers at their next frame boundary; every already-submitted ticket
//!   still executes and its response is flushed before the connection
//!   closes. A reader stalled mid-frame is given a grace period, then cut.
//!
//! ## The request log
//!
//! With [`NetConfig::log_path`] set, every *executed* request (served or
//! failed — not queue/quota-rejected ones, which never run) is appended
//! as one canonical compact-JSON line. Replaying the file through
//! [`engine::serve::replay_serial`] reproduces the server's final
//! [`engine::ServeSummary`] bit for bit; the multi-process tests and the
//! CI smoke step both pin that.

use crate::frame::{write_frame, FramePoll, FrameReader, DEFAULT_MAX_PAYLOAD};
use crate::wire::{self, WireRequest, WireResponse};
use engine::serve::{ServeConfig, RETRY_AFTER_MS};
use engine::{Engine, EngineError, NetError, Rejection, ServeReport, Server, Ticket};
use runtime::lock_recover as lock;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a reader waits on the socket before re-checking the drain
/// flag.
const READ_POLL: Duration = Duration::from_millis(25);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Grace polls a reader stalled mid-frame gets during a drain before the
/// connection is cut (~2 s at [`READ_POLL`]).
const DRAIN_GRACE_POLLS: u32 = 80;

/// Network-layer knobs (the serving knobs live in [`ServeConfig`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Cap on a single frame payload; oversized frames are rejected from
    /// the header alone.
    pub max_payload: u32,
    /// Cap on concurrent connections; excess connections receive a typed
    /// rejection frame and are closed.
    pub max_connections: usize,
    /// Append every executed request as one compact JSON line here.
    pub log_path: Option<PathBuf>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_payload: DEFAULT_MAX_PAYLOAD,
            max_connections: 64,
            log_path: None,
        }
    }
}

/// What the front-end observed over its lifetime, on top of the serving
/// scheduler's own [`ServeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport {
    /// The underlying scheduler's report (its `summary` is the
    /// deterministic surface).
    pub serve: ServeReport,
    /// Connections accepted (including ones later rejected for capacity).
    pub connections: u64,
    /// Requests refused because the per-connection quota was spent.
    pub rejected_quota: u64,
    /// Connections refused because `max_connections` was reached.
    pub rejected_capacity: u64,
    /// Connections dropped after malformed frames or payloads.
    pub protocol_errors: u64,
}

#[derive(Debug, Default)]
struct Counters {
    connections: u64,
    rejected_quota: u64,
    rejected_capacity: u64,
    protocol_errors: u64,
}

struct NetShared {
    serve: Server,
    stop: AtomicBool,
    quota: Option<u64>,
    max_payload: u32,
    max_connections: usize,
    counters: Mutex<Counters>,
    log: Option<Mutex<BufWriter<File>>>,
}

impl NetShared {
    fn log_line(&self, line: &str) {
        if let Some(log) = &self.log {
            let mut w = lock(log);
            let _ = w.write_all(line.as_bytes());
            let _ = w.write_all(b"\n");
        }
    }
}

/// What the writer thread owes the client, in request order.
enum Reply {
    /// An immediate response (pong, rejection, error).
    Now(Box<WireResponse>),
    /// A submitted request of any kind: the wait that resolves its ticket
    /// into a response, and — when a request log is configured — the line
    /// to append once it resolves non-rejected.
    Pending(Option<String>, Box<dyn FnOnce() -> WireResponse + Send>),
}

/// Erases a ticket's response type: the writer only needs the wire form.
fn pending<R: Send + 'static>(ticket: Ticket<R>) -> Box<dyn FnOnce() -> WireResponse + Send>
where
    for<'a> &'a R: Into<WireResponse>,
{
    Box::new(move || wire::result_response(&ticket.wait()))
}

/// The TCP serving front-end. Bind it, let clients hammer it, then
/// [`NetServer::join`] (local drain) or [`NetServer::wait`] (block until
/// a client sends `Drain`) to collect the final [`NetReport`].
pub struct NetServer {
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Starts a serving scheduler over `engine` and binds the front-end
    /// to `addr` (use port 0 to let the OS pick; see
    /// [`NetServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::Net`] when binding the listener or creating the
    /// request log fails.
    pub fn bind(
        engine: Arc<Engine>,
        serve_config: &ServeConfig,
        net_config: &NetConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<NetServer, EngineError> {
        let listener = TcpListener::bind(addr).map_err(|e| NetError::io("bind", &e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::io("set nonblocking", &e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::io("local addr", &e))?;
        let log = match &net_config.log_path {
            Some(path) => Some(Mutex::new(BufWriter::new(File::create(path).map_err(
                |e| NetError::io(&format!("create request log {}", path.display()), &e),
            )?))),
            None => None,
        };
        let shared = Arc::new(NetShared {
            serve: Server::start(engine, serve_config),
            stop: AtomicBool::new(false),
            quota: serve_config.quota(),
            max_payload: net_config.max_payload,
            max_connections: net_config.max_connections.max(1),
            counters: Mutex::new(Counters::default()),
            log,
        });
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(NetServer {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound address (the resolved port when bound to port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begins a graceful drain: stop accepting connections and new
    /// requests; in-flight tickets keep executing.
    pub fn drain(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    /// The deterministic summary so far (point-in-time).
    #[must_use]
    pub fn summary(&self) -> engine::ServeSummary {
        self.shared.serve.summary()
    }

    /// Drains locally and collects the final report: joins the accept
    /// loop, every connection, and the serving workers; flushes the
    /// request log.
    #[must_use]
    pub fn join(self) -> NetReport {
        self.drain();
        self.finalize()
    }

    /// Blocks until a drain is triggered — typically by a client's
    /// `Drain` frame — then collects exactly as [`NetServer::join`]. This
    /// is the daemon's main loop.
    #[must_use]
    pub fn wait(self) -> NetReport {
        self.finalize()
    }

    fn finalize(mut self) -> NetReport {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("all connection threads joined with the accept loop"));
        let counters = shared
            .counters
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(log) = shared.log {
            let mut w = log.into_inner().unwrap_or_else(PoisonError::into_inner);
            let _ = w.flush();
        }
        NetReport {
            serve: shared.serve.join(),
            connections: counters.connections,
            rejected_quota: counters.rejected_quota,
            rejected_capacity: counters.rejected_capacity,
            protocol_errors: counters.protocol_errors,
        }
    }
}

fn accept_loop(shared: &Arc<NetShared>, listener: &TcpListener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                conns.retain(|h| !h.is_finished());
                lock(&shared.counters).connections += 1;
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                if conns.len() >= shared.max_connections {
                    lock(&shared.counters).rejected_capacity += 1;
                    reject_connection(stream, shared.max_connections);
                    continue;
                }
                let shared = shared.clone();
                conns.push(std::thread::spawn(move || handle_conn(&shared, stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    for handle in conns {
        let _ = handle.join();
    }
}

/// Tells an over-capacity client why it is being dropped. Reuses the
/// queue-full rejection shape: the capacity is the connection cap and the
/// retry hint applies the same way.
fn reject_connection(mut stream: TcpStream, capacity: usize) {
    let response = WireResponse::Rejected(Rejection::QueueFull {
        capacity,
        retry_after_ms: RETRY_AFTER_MS,
    });
    let _ = write_frame(&mut stream, wire::encode_response(&response).as_bytes());
}

fn handle_conn(shared: &Arc<NetShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let Ok(mut read_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx): (Sender<Reply>, Receiver<Reply>) = channel();
    let writer = {
        let shared = shared.clone();
        std::thread::spawn(move || writer_loop(&shared, stream, &rx))
    };

    let mut frames = FrameReader::new(shared.max_payload);
    let mut submitted: u64 = 0;
    let mut drain_patience = 0u32;
    loop {
        if shared.stop.load(Ordering::Relaxed) && !frames.mid_frame() {
            break;
        }
        let payload = match frames.poll(&mut read_half) {
            Ok(FramePoll::Pending) => {
                if shared.stop.load(Ordering::Relaxed) {
                    drain_patience += 1;
                    if drain_patience > DRAIN_GRACE_POLLS {
                        break;
                    }
                }
                continue;
            }
            Ok(FramePoll::Closed) => break,
            Ok(FramePoll::Frame(payload)) => payload,
            Err(_) => {
                lock(&shared.counters).protocol_errors += 1;
                break;
            }
        };
        let request = match wire::decode_request(&payload) {
            Ok(request) => request,
            Err(e) => {
                lock(&shared.counters).protocol_errors += 1;
                let _ = tx.send(Reply::Now(Box::new(WireResponse::Error {
                    kind: "Net".to_owned(),
                    message: e.to_string(),
                })));
                break;
            }
        };
        match request {
            WireRequest::Ping => {
                let _ = tx.send(Reply::Now(Box::new(WireResponse::Pong {
                    served: submitted,
                })));
            }
            WireRequest::Drain => {
                // Acknowledge with the summary at this moment; final
                // numbers come from NetServer::join/wait. The accept loop
                // and every other reader see the flag within one poll.
                shared.stop.store(true, Ordering::Relaxed);
                let report = shared.serve.report();
                let _ = tx.send(Reply::Now(Box::new(WireResponse::Drained {
                    summary: Box::new(report.summary),
                    cache: Some(wire::WireCacheStats {
                        lut: report.lut_cache,
                        memo: report.plan_memo,
                    }),
                })));
                break;
            }
            request @ (WireRequest::Gemm(_) | WireRequest::Infer(_) | WireRequest::Session(_)) => {
                if let Some(limit) = shared.quota {
                    if submitted >= limit {
                        lock(&shared.counters).rejected_quota += 1;
                        let _ = tx.send(Reply::Now(Box::new(WireResponse::Rejected(
                            Rejection::QuotaExhausted { limit },
                        ))));
                        continue;
                    }
                }
                submitted += 1;
                // The log line is only worth encoding when a log exists.
                let line = shared.log.is_some().then(|| wire::encode_request(&request));
                let wait = match request {
                    WireRequest::Gemm(r) => pending(shared.serve.submit_gemm(r)),
                    WireRequest::Infer(r) => pending(shared.serve.submit_infer(r)),
                    WireRequest::Session(r) => pending(shared.serve.submit_session(r)),
                    WireRequest::Ping | WireRequest::Drain => continue,
                };
                let _ = tx.send(Reply::Pending(line, wait));
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// Resolves tickets in request order, appends executed requests to the
/// log, and frames responses back. A broken pipe stops writing but keeps
/// draining the channel, so every submitted ticket resolves and the
/// server-side summary stays complete even when the client vanished
/// mid-request.
fn writer_loop(shared: &Arc<NetShared>, mut stream: TcpStream, rx: &Receiver<Reply>) {
    let mut alive = true;
    for reply in rx.iter() {
        let response = match reply {
            Reply::Now(response) => *response,
            Reply::Pending(line, wait) => {
                let response = wait();
                // A rejected ticket never ran, so it is never logged.
                if let Some(line) = line.filter(|_| !matches!(response, WireResponse::Rejected(_)))
                {
                    shared.log_line(&line);
                }
                response
            }
        };
        if alive && write_frame(&mut stream, wire::encode_response(&response).as_bytes()).is_err() {
            alive = false;
        }
    }
}
