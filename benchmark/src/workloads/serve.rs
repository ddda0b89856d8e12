//! `serve_chat` and `serve_burst`: the in-process scheduler driven two ways.
//!
//! Closed loop (`serve_chat`): each of the two clients sends its next
//! request only once the previous one is answered, so at most two requests
//! are in the server and no queue forms — what is timed is the admission
//! path, the session step re-enqueue, the plan memo, the cache-hit path and
//! the analytic inference model. Burst (`serve_burst`): each client submits
//! its whole round up front and then collects the tickets in order, so a
//! queue always forms — what is timed is coalescing and the batch fan-out.
//! Latency is taken from each request's own submit instant in both.

use super::{CacheCounts, Round, Verification, Workload, CLIENTS};
use crate::schema::Metrics;
use crate::spans::Tracer;
use crate::stats::median;
use crate::walk::{step, walk_gemm, GemmWalk, LutPool, Shares};
use engine::serve::{replay_serial, ServeConfig, Server, Ticket};
use engine::traffic::{client_log, Mix, TrafficConfig, TrafficRequest};
use engine::{Engine, ServeReport, ServeSummary};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Scheduler worker threads.
pub const WORKERS: usize = 2;

/// Banks of the serving engine; its pool has one thread because the
/// scheduler's workers already occupy both cores.
const BANKS: u32 = 4;

/// Upper bound of a decoder session's length in the session-bearing mixes.
const DECODE_TOKENS: u32 = 16;

/// Rounds are kept short (tens of milliseconds): the end-to-end timings are
/// taken at a run's best round, and a short round is likelier to fit
/// whole into a stretch the host leaves alone.
pub struct ServeSpec {
    mix: Mix,
    max_batch: usize,
    requests_per_client: usize,
    burst: bool,
}

pub const CHAT: ServeSpec = ServeSpec {
    mix: Mix::Chat,
    max_batch: 4,
    requests_per_client: 250,
    burst: false,
};

pub const BURST: ServeSpec = ServeSpec {
    mix: Mix::Gemm,
    max_batch: 8,
    requests_per_client: 500,
    burst: true,
};

/// The scheduler under test and the traffic it is fed: what `serve_*` and
/// `net_mixed` share.
pub struct Stack {
    pub engine: Arc<Engine>,
    pub config: ServeConfig,
    /// The seeded request logs of one round, one per client.
    pub logs: Vec<Vec<TrafficRequest>>,
}

fn serving_engine() -> Arc<Engine> {
    Arc::new(Engine::builder().threads(1).banks(BANKS).build())
}

impl Stack {
    pub fn new(mix: Mix, requests_per_client: usize, max_batch: usize, seed: u64) -> Self {
        let traffic = TrafficConfig {
            clients: CLIENTS,
            requests_per_client,
            mix,
            seed,
            decode_tokens: DECODE_TOKENS,
        };
        Stack {
            engine: serving_engine(),
            config: ServeConfig::builder()
                .workers(WORKERS)
                .max_batch(max_batch)
                .build()
                .expect("static serve config is valid"),
            logs: (0..CLIENTS)
                .map(|client| client_log(&traffic, client))
                .collect(),
        }
    }

    /// The request a set-up answers: the log's first GEMM, so that every
    /// seed's set-up pays for the LUT image — whichever kind of request
    /// leads the log.
    pub fn first_gemm(&self) -> Result<&TrafficRequest, String> {
        self.logs[0]
            .iter()
            .find(|request| matches!(request, TrafficRequest::Gemm(_)))
            .ok_or_else(|| "the seeded log holds no GEMM request".to_owned())
    }
}

/// What one client thread brings back from a round; `answers` is whatever
/// of the responses the workload keeps.
pub struct ClientRun<A = ()> {
    pub latencies_ns: Vec<u64>,
    pub failed: u64,
    pub finished: Instant,
    pub tracer: Tracer,
    pub answers: A,
}

/// Releases one thread per input together and returns their runs and the
/// wall time from the release to the last client's last response.
pub fn run_clients<T, A, F>(
    tracer: &mut Tracer,
    inputs: Vec<T>,
    client: F,
) -> (Vec<ClientRun<A>>, Duration)
where
    T: Send,
    A: Send,
    F: Fn(usize, T, Tracer) -> ClientRun<A> + Sync,
{
    let gate = Barrier::new(inputs.len() + 1);
    let (start, runs) = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(id, input)| {
                let (gate, client, tracer) = (&gate, &client, tracer.sibling());
                scope.spawn(move || {
                    gate.wait();
                    client(id, input, tracer)
                })
            })
            .collect();
        gate.wait();
        let start = Instant::now();
        let runs: Vec<ClientRun<A>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (start, runs)
    });
    let finished = runs.iter().map(|run| run.finished).max().unwrap_or(start);
    (runs, finished.saturating_duration_since(start))
}

fn submit_and_wait(server: &Server, request: TrafficRequest, tracer: &mut Tracer, op: u64) -> bool {
    fn wait<T>(ticket: Ticket<T>, tracer: &mut Tracer, op: u64) -> bool {
        tracer.span("serve.wait", op, |_| ticket.wait().is_err())
    }
    match request {
        TrafficRequest::Gemm(r) => {
            let ticket = tracer.span("serve.submit", op, |_| server.submit_gemm(r));
            wait(ticket, tracer, op)
        }
        TrafficRequest::Infer(r) => {
            let ticket = tracer.span("serve.submit", op, |_| server.submit_infer(r));
            wait(ticket, tracer, op)
        }
        TrafficRequest::Session(r) => {
            let ticket = tracer.span("serve.submit", op, |_| server.submit_session(r));
            wait(ticket, tracer, op)
        }
    }
}

/// One client's closed loop over `log`.
fn closed_loop(
    server: &Server,
    id: usize,
    log: Vec<TrafficRequest>,
    mut tracer: Tracer,
) -> ClientRun {
    let mut latencies_ns = Vec::with_capacity(log.len());
    let mut failed = 0;
    for (index, request) in log.into_iter().enumerate() {
        let op = (id * 1_000_000 + index) as u64;
        let sent = Instant::now();
        tracer.enter("client.request", op);
        failed += u64::from(submit_and_wait(server, request, &mut tracer, op));
        tracer.exit();
        latencies_ns.push(sent.elapsed().as_nanos() as u64);
    }
    ClientRun {
        latencies_ns,
        failed,
        finished: Instant::now(),
        tracer,
        answers: (),
    }
}

/// One client's burst: submit the whole log, then wait the tickets in
/// order. Only GEMM logs are served this way.
fn burst(server: &Server, id: usize, log: Vec<TrafficRequest>, mut tracer: Tracer) -> ClientRun {
    let base = (id * 1_000_000) as u64;
    tracer.enter("client.burst", base);
    tracer.enter("serve.submit", base);
    let tickets: Vec<_> = log
        .into_iter()
        .map(|request| {
            let TrafficRequest::Gemm(request) = request else {
                unreachable!("the burst workload generates a GEMM-only log");
            };
            (Instant::now(), server.submit_gemm(request))
        })
        .collect();
    tracer.exit();
    let mut latencies_ns = Vec::with_capacity(tickets.len());
    let mut failed = 0;
    tracer.enter("serve.wait", base);
    for (sent, ticket) in tickets {
        failed += u64::from(ticket.wait().is_err());
        latencies_ns.push(sent.elapsed().as_nanos() as u64);
    }
    tracer.exit();
    tracer.exit();
    ClientRun {
        latencies_ns,
        failed,
        finished: Instant::now(),
        tracer,
        answers: (),
    }
}

impl Stack {
    /// Serves the logs once through a fresh in-process `Server`.
    pub fn serve_round(
        &self,
        as_burst: bool,
        latencies_ns: &mut Vec<u64>,
        tracer: &mut Tracer,
    ) -> (Round, ServeReport) {
        let server = Server::start(self.engine.clone(), &self.config);
        // Requests are consumed by submission; the copies are made before
        // the clock starts.
        let (runs, wall) = run_clients(tracer, self.logs.to_vec(), |id, log, tracer| {
            if as_burst {
                burst(&server, id, log, tracer)
            } else {
                closed_loop(&server, id, log, tracer)
            }
        });
        let report = server.join();
        let (round, _) = collect(runs, wall, &report.summary, latencies_ns, tracer);
        (round, report)
    }

    /// Checks each round's summary against a serial replay of the same
    /// logs on a fresh engine, bit for bit.
    pub fn verify(&self, summaries: &[ServeSummary], what: &str) -> Verification {
        let mut verdict = Verification::default();
        let full: Vec<TrafficRequest> = self.logs.iter().flatten().cloned().collect();
        let reference = replay_serial(&serving_engine(), &full);
        let ops = full.len() as u64;
        verdict.expect(
            reference.failed_requests == 0,
            reference.failed_requests,
            || {
                format!(
                    "serial replay itself failed {} request(s)",
                    reference.failed_requests
                )
            },
        );
        for (index, summary) in summaries.iter().enumerate() {
            verdict.expect(*summary == reference, ops, || {
                format!("round {index}: {what} summary differs from replay_serial of the same log")
            });
        }
        verdict
    }
}

/// Folds the clients' runs into one [`Round`]; their answers come back in
/// client order.
pub fn collect<A>(
    runs: Vec<ClientRun<A>>,
    wall: Duration,
    summary: &ServeSummary,
    latencies_ns: &mut Vec<u64>,
    tracer: &mut Tracer,
) -> (Round, Vec<A>) {
    let mut round = Round {
        ops: 0,
        failed: 0,
        wall,
        sim_femtos: summary.stats.snapshot().total_femtos,
    };
    let mut answers = Vec::with_capacity(runs.len());
    for run in runs {
        round.ops += run.latencies_ns.len() as u64;
        round.failed += run.failed;
        latencies_ns.extend(run.latencies_ns);
        tracer.absorb(run.tracer);
        answers.push(run.answers);
    }
    (round, answers)
}

/// The layers below the scheduler, for the traced pass: one client's log
/// served directly on the engine, and where that time went.
struct DirectReplay {
    /// `replay_serial` of the log, divided by its length: host
    /// nanoseconds per request with no scheduler in the way.
    per_request_ns: f64,
    /// `per_request_ns` split over the layers, in the proportions the walk
    /// of each request found.
    per_request: Shares,
    /// The walk of the log's first GEMM.
    first_gemm: Option<GemmWalk>,
    checksum_ok: bool,
}

fn direct_replay(
    engine: &Engine,
    log: &[TrafficRequest],
    tracer: &mut Tracer,
) -> Result<DirectReplay, String> {
    let start = Instant::now();
    let summary = tracer.span("engine.replay_serial", 0, |_| replay_serial(engine, log));
    let per_request_ns = start.elapsed().as_nanos() as f64 / log.len().max(1) as f64;
    if summary.failed_requests > 0 {
        return Err(format!(
            "{} request(s) of the direct replay failed",
            summary.failed_requests
        ));
    }

    // The split: every request again, this time step by step. The
    // walk does several times the work of the request it explains, so its
    // absolute times are not the request's; its proportions are.
    let mut luts = LutPool::default();
    let mut walked = Shares::default();
    let (mut first_gemm, mut checksum_ok) = (None, true);
    for (index, request) in log.iter().enumerate() {
        let op = index as u64;
        let shares = match request {
            TrafficRequest::Gemm(r) => {
                let walk = walk_gemm(engine, r, &mut luts, tracer, op, 1)?;
                checksum_ok &= walk.checksum_ok;
                first_gemm.get_or_insert(walk);
                walk.shares()
            }
            TrafficRequest::Infer(r) => {
                let (method, bits) = (
                    r.method.unwrap_or(engine.default_method()),
                    r.bits.unwrap_or(engine.default_bits()),
                );
                let whole = timed(tracer, "engine.infer", op, || engine.infer(r))?;
                let model = timed(tracer, "dnn.run_batch", op, || {
                    engine
                        .sim()
                        .run_batch(engine.pool(), method, bits, &r.workloads)
                })?;
                model_shares(whole, model)
            }
            TrafficRequest::Session(r) => {
                let (method, bits) = (
                    r.method.unwrap_or(engine.default_method()),
                    r.bits.unwrap_or(engine.default_bits()),
                );
                let whole = timed(tracer, "engine.infer_session", op, || {
                    engine.infer_session(r)
                })?;
                let steps = r.workload.session_steps();
                let model = timed(tracer, "dnn.run_batch", op, || {
                    engine.sim().run_batch(engine.pool(), method, bits, &steps)
                })?;
                model_shares(whole, model)
            }
        };
        walked.add(&shares);
    }
    Ok(DirectReplay {
        per_request_ns,
        per_request: walked.normalized().scaled(per_request_ns),
        first_gemm,
        checksum_ok,
    })
}

/// An inference call's time split between the analytic model (`dnn`) and
/// the engine around it.
fn model_shares(whole_ns: f64, model_ns: f64) -> Shares {
    let dnn = model_ns.min(whole_ns);
    Shares {
        dnn,
        engine: whole_ns - dnn,
        ..Shares::default()
    }
}

/// Times one fallible engine call as a span; its host nanoseconds.
fn timed<T, E: std::fmt::Display>(
    tracer: &mut Tracer,
    name: &'static str,
    op: u64,
    call: impl FnOnce() -> Result<T, E>,
) -> Result<f64, String> {
    let (result, ns) = step(tracer, name, op, |_| call());
    result.map(|_| ns).map_err(|e| e.to_string())
}

impl Stack {
    /// Median host time of starting and joining a server that serves
    /// nothing.
    fn start_join_us(&self) -> f64 {
        let samples: Vec<f64> = (0..9)
            .map(|_| {
                let start = Instant::now();
                let _ = Server::start(self.engine.clone(), &self.config).join();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    }

    /// Sets every `serve.*` metric from a round served through a `Server`
    /// (`report` is that round's), and returns the round's wall time split
    /// into the scheduler's share and the layers below it.
    pub fn layers(
        &self,
        round: &Round,
        latencies_ns: &[u64],
        report: &ServeReport,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
    ) -> Result<Shares, String> {
        // Client 0's requests both ways: its latencies lead the round's,
        // and the same log is replayed with no scheduler. Means, not
        // medians: the mix is uneven (a session is many steps, a GEMM one),
        // and only the means of the two sides describe the same requests.
        let log = &self.logs[0];
        let replay = direct_replay(&self.engine, log, tracer)?;
        let direct_us = replay.per_request_ns / 1e3;
        let own = &latencies_ns[..log.len().min(latencies_ns.len())];
        let served_us = own.iter().sum::<u64>() as f64 / own.len().max(1) as f64 / 1e3;
        let requests = round.ops.max(1) as f64;
        metrics.set("serve.direct_us_per_req", direct_us);
        metrics.set("serve.sched_overhead_us", served_us - direct_us);
        metrics.set(
            "serve.dispatches_per_req",
            report.dispatches as f64 / requests,
        );
        metrics.set(
            "serve.coalesced_share",
            report.coalesced_requests as f64 / requests,
        );
        metrics.set("serve.largest_batch", report.largest_batch as f64);
        metrics.set("serve.start_join_us", self.start_join_us());
        replay
            .first_gemm
            .ok_or("the log holds no GEMM request to walk")?
            .report(metrics);
        metrics.set("walk.checksum_ok", f64::from(u8::from(replay.checksum_ok)));

        // The round's requests keep min(workers, clients) cores busy below
        // the scheduler; whatever of the wall that does not account for is
        // the scheduler's: queueing, hand-off between threads, ticket
        // wake-ups.
        let busy = WORKERS.min(CLIENTS) as f64;
        let mut shares = replay.per_request.scaled(requests / busy);
        shares.serve = (round.wall.as_nanos() as f64 - shares.total()).max(0.0);
        shares.unattributed += shares.serve;
        Ok(shares)
    }
}

pub struct Serve {
    spec: &'static ServeSpec,
    stack: Stack,
    reports: Vec<ServeReport>,
    latest: CacheCounts,
}

impl Serve {
    pub fn setup(spec: &'static ServeSpec, seed: u64) -> Result<Self, String> {
        let stack = Stack::new(spec.mix, spec.requests_per_client, spec.max_batch, seed);
        // The first GEMM answered, through a server as a user would.
        let server = Server::start(stack.engine.clone(), &stack.config);
        let failed = submit_and_wait(&server, stack.first_gemm()?.clone(), &mut Tracer::off(), 0);
        let _ = server.join();
        if failed {
            return Err("the first GEMM of the log failed".to_owned());
        }
        Ok(Serve {
            spec,
            stack,
            reports: Vec::new(),
            latest: CacheCounts::default(),
        })
    }
}

impl Workload for Serve {
    fn round(&mut self, latencies_ns: &mut Vec<u64>, tracer: &mut Tracer) -> Round {
        let before = CacheCounts::of(&self.stack.engine);
        let (round, report) = self
            .stack
            .serve_round(self.spec.burst, latencies_ns, tracer);
        self.latest = CacheCounts::of(&self.stack.engine).since(before);
        self.reports.push(report);
        round
    }

    fn verify(&mut self) -> Verification {
        let summaries: Vec<ServeSummary> = self.reports.iter().map(|r| r.summary.clone()).collect();
        self.stack.verify(&summaries, "the server's")
    }

    fn cache_counts(&self) -> CacheCounts {
        self.latest
    }

    fn layers(
        &mut self,
        round: &Round,
        latencies_ns: &[u64],
        tracer: &mut Tracer,
        metrics: &mut Metrics,
    ) -> Result<Shares, String> {
        let report = self.reports.last().ok_or("no round was served")?;
        self.stack
            .layers(round, latencies_ns, report, tracer, metrics)
    }
}
