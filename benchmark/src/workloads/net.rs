//! `net_mixed`: the same scheduler behind the TCP front-end.
//!
//! Two `NetClient` connections to a `NetServer` on a loopback port, closed
//! loop, mixed GEMM and inference traffic. Every request is framed, encoded
//! to JSON, decoded, served, and its response encoded and decoded again, so
//! the frame codec, the wire DTOs and the JSON reader and writer are most
//! of each request. A wire-schema change must not slow this workload; a
//! kernel change should not move it.

use super::serve::{collect, run_clients, ClientRun, Stack};
use super::{CacheCounts, Round, Verification, Workload};
use crate::schema::Metrics;
use crate::spans::Tracer;
use crate::stats::median;
use crate::walk::Shares;
use engine::serve::ServeRecorder;
use engine::traffic::{Mix, TrafficRequest};
use engine::ServeSummary;
use netserve::wire::{self, WireRequest, WireResponse};
use netserve::{NetClient, NetConfig, NetReport, NetServer};
use std::time::Instant;

const REQUESTS_PER_CLIENT: usize = 125;
const MAX_BATCH: usize = 4;

/// Requests of a log whose encodings the traced pass times one by one.
const CODEC_SAMPLE: usize = 200;

/// Pings timed for the round-trip figure.
const PINGS: usize = 300;

pub struct Net {
    stack: Stack,
    requests: Vec<Vec<WireRequest>>,
    /// Per round: the server's report and the summary rebuilt by the
    /// clients from the wire responses.
    rounds: Vec<(NetReport, ServeSummary)>,
    /// Client 0's responses of the latest round, for the codec probes.
    responses: Vec<WireResponse>,
    latest: CacheCounts,
}

fn to_wire(request: &TrafficRequest) -> WireRequest {
    match request {
        TrafficRequest::Gemm(r) => WireRequest::Gemm(r.clone()),
        TrafficRequest::Infer(r) => WireRequest::Infer(r.clone()),
        TrafficRequest::Session(r) => WireRequest::Session(r.clone()),
    }
}

fn bind(stack: &Stack) -> Result<NetServer, String> {
    NetServer::bind(
        stack.engine.clone(),
        &stack.config,
        &NetConfig::default(),
        "127.0.0.1:0",
    )
    .map_err(|e| e.to_string())
}

fn is_failure(response: &WireResponse) -> bool {
    matches!(
        response,
        WireResponse::Error { .. } | WireResponse::Rejected(_)
    )
}

impl Net {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let stack = Stack::new(Mix::Mixed, REQUESTS_PER_CLIENT, MAX_BATCH, seed);
        let requests: Vec<Vec<WireRequest>> = stack
            .logs
            .iter()
            .map(|log| log.iter().map(to_wire).collect())
            .collect();
        // The first GEMM answered over a real connection.
        let request = to_wire(stack.first_gemm()?);
        let server = bind(&stack)?;
        let first = NetClient::connect(server.local_addr())
            .and_then(|mut client| client.call(&request))
            .map_err(|e| e.to_string());
        let _ = server.join();
        if is_failure(&first?) {
            return Err("the first GEMM of the log failed".to_owned());
        }
        Ok(Net {
            stack,
            requests,
            rounds: Vec::new(),
            responses: Vec::new(),
            latest: CacheCounts::default(),
        })
    }

    fn connect(&self, server: &NetServer) -> Vec<NetClient> {
        self.requests
            .iter()
            .map(|_| NetClient::connect(server.local_addr()).expect("loopback connect"))
            .collect()
    }
}

/// One connection's closed loop; the responses come back with the run.
fn closed_loop(
    mut client: NetClient,
    id: usize,
    requests: &[WireRequest],
    mut tracer: Tracer,
) -> ClientRun<Vec<WireResponse>> {
    let mut latencies_ns = Vec::with_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    let mut failed = 0;
    for (index, request) in requests.iter().enumerate() {
        let op = (id * 1_000_000 + index) as u64;
        let sent = Instant::now();
        tracer.enter("client.request", op);
        let sent_ok = tracer.span("netserve.send", op, |_| client.send(request));
        let response = tracer.span("netserve.recv", op, |_| {
            sent_ok.and_then(|()| client.recv())
        });
        tracer.exit();
        latencies_ns.push(sent.elapsed().as_nanos() as u64);
        match response {
            Ok(response) => {
                failed += u64::from(is_failure(&response));
                responses.push(response);
            }
            Err(_) => failed += 1,
        }
    }
    ClientRun {
        latencies_ns,
        failed,
        finished: Instant::now(),
        tracer,
        answers: responses,
    }
}

impl Workload for Net {
    fn round(&mut self, latencies_ns: &mut Vec<u64>, tracer: &mut Tracer) -> Round {
        let before = CacheCounts::of(&self.stack.engine);
        let server = bind(&self.stack).expect("loopback bind");
        let clients = self.connect(&server);
        let (runs, wall) = run_clients(tracer, clients, |id, client, tracer| {
            closed_loop(client, id, &self.requests[id], tracer)
        });
        let report = server.join();
        let (round, mut responses) =
            collect(runs, wall, &report.serve.summary, latencies_ns, tracer);
        // The clients' view: the summary rebuilt from what crossed the wire.
        let mut recorder = ServeRecorder::new();
        for response in responses.iter().flatten() {
            wire::record_response(&mut recorder, response);
        }
        self.latest = CacheCounts::of(&self.stack.engine).since(before);
        self.rounds.push((report, recorder.summary()));
        self.responses = responses.swap_remove(0);
        round
    }

    fn verify(&mut self) -> Verification {
        let served: Vec<ServeSummary> = self
            .rounds
            .iter()
            .map(|(r, _)| r.serve.summary.clone())
            .collect();
        let mut verdict = self.stack.verify(&served, "the net server's");
        let ops = self.stack.logs.iter().map(Vec::len).sum::<usize>() as u64;
        for (index, (report, remote)) in self.rounds.iter().enumerate() {
            verdict.expect(*remote == report.serve.summary, ops, || {
                format!("round {index}: the summary rebuilt from wire responses differs from the server's")
            });
            verdict.expect(report.protocol_errors == 0, report.protocol_errors, || {
                format!(
                    "round {index}: {} protocol error(s)",
                    report.protocol_errors
                )
            });
        }
        verdict
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
        let (report, _) = self.rounds.last().ok_or("no round was served")?;

        // The same logs through the in-process server, at its best round of
        // three as `round` is the wire's best: what the wire adds is the
        // difference.
        let (local, local_ns) = (0..3)
            .map(|_| {
                let mut latencies_ns = Vec::new();
                let (round, _) =
                    self.stack
                        .serve_round(false, &mut latencies_ns, &mut Tracer::off());
                (round, latencies_ns)
            })
            .min_by_key(|(round, _)| round.wall)
            .expect("three rounds were served");
        let p50_us = |ns: &[u64]| median(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>());
        metrics.set(
            "netserve.wire_overhead_us",
            p50_us(latencies_ns) - p50_us(&local_ns),
        );

        let mut shares = self
            .stack
            .layers(&local, &local_ns, &report.serve, tracer, metrics)?;
        shares.netserve = (round.wall.as_nanos() as f64 - local.wall.as_nanos() as f64).max(0.0);
        shares.unattributed += shares.netserve;

        self.codec_probes(tracer, metrics)?;
        Ok(shares)
    }
}

impl Net {
    /// Times the wire codec on client 0's own requests and replies, and a
    /// ping over a live connection.
    fn codec_probes(&self, tracer: &mut Tracer, metrics: &mut Metrics) -> Result<(), String> {
        let sample = self.requests[0]
            .len()
            .min(self.responses.len())
            .min(CODEC_SAMPLE);
        let mut us: [Vec<f64>; 4] = Default::default();
        let mut bytes: [Vec<f64>; 2] = Default::default();
        let (mut parsed_bytes, mut parse_secs) = (0usize, 0.0f64);
        let clock =
            |slot: &mut Vec<f64>, start: Instant| slot.push(start.elapsed().as_secs_f64() * 1e6);
        for (op, (request, response)) in self.requests[0]
            .iter()
            .zip(&self.responses)
            .take(sample)
            .enumerate()
        {
            let op = op as u64;
            let t = Instant::now();
            let req_text = tracer.span("netserve.encode_request", op, |_| {
                wire::encode_request(request)
            });
            clock(&mut us[0], t);
            let t = Instant::now();
            let decoded = tracer.span("netserve.decode_request", op, |_| {
                wire::decode_request(req_text.as_bytes())
            });
            clock(&mut us[1], t);
            let t = Instant::now();
            let resp_text = tracer.span("netserve.encode_response", op, |_| {
                wire::encode_response(response)
            });
            clock(&mut us[2], t);
            let t = Instant::now();
            let redecoded = tracer.span("netserve.decode_response", op, |_| {
                wire::decode_response(resp_text.as_bytes())
            });
            clock(&mut us[3], t);
            if decoded.ok().as_ref() != Some(request) || redecoded.ok().as_ref() != Some(response) {
                return Err(format!(
                    "request {op} does not survive an encode/decode round trip"
                ));
            }
            bytes[0].push(req_text.len() as f64);
            bytes[1].push(resp_text.len() as f64);
            for text in [&req_text, &resp_text] {
                let t = Instant::now();
                let parsed = netserve::json::Json::parse(text);
                parse_secs += t.elapsed().as_secs_f64();
                parsed_bytes += text.len();
                parsed.map_err(|e| format!("request {op}: the wire JSON does not parse: {e}"))?;
            }
        }
        metrics.set("netserve.encode_req_us", median(&us[0]));
        metrics.set("netserve.decode_req_us", median(&us[1]));
        metrics.set("netserve.encode_resp_us", median(&us[2]));
        metrics.set("netserve.decode_resp_us", median(&us[3]));
        metrics.set("netserve.req_bytes", median(&bytes[0]));
        metrics.set("netserve.resp_bytes", median(&bytes[1]));
        metrics.set(
            "netserve.json_parse_mb_s",
            parsed_bytes as f64 / 1e6 / parse_secs,
        );

        let server = bind(&self.stack)?;
        let mut client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let mut rtt_us = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let t = Instant::now();
            client.ping().map_err(|e| e.to_string())?;
            rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        drop(client);
        let _ = server.join();
        metrics.set("netserve.ping_rtt_us", median(&rtt_us));
        Ok(())
    }
}
