//! Continuous-batching correctness: decoder sessions decomposed into
//! per-step schedulable units must be *semantically invisible* — a session
//! served step-by-step on the concurrent scheduler returns the exact
//! integers of the monolithic batch API, and the deterministic summary
//! (including the new TTFT / per-decode-step percentiles) is bit-identical
//! for every worker count, arrival mode, and interleaving against
//! `replay_serial`. What continuous batching *is* allowed to change is
//! scheduling: new requests must be admitted between a session's decode
//! waves instead of head-of-line blocking behind the whole generation.

use dnn::{ModelConfig, Workload};
use engine::serve::{drive_client, replay_serial, ArrivalMode, ServeConfig, Server};
use engine::traffic::{client_log, full_log, Mix, TrafficConfig};
use engine::{Engine, GemmRequest, InferenceRequest, ServeSummary, SessionRequest};
use quant::{NumericFormat, QMatrix};
use std::sync::Arc;

fn session(batch: usize, decode_tokens: u32) -> SessionRequest {
    SessionRequest::new(Workload::with_decode(
        ModelConfig::opt_125m(),
        batch,
        decode_tokens,
    ))
}

fn serve_concurrently(
    engine: &Arc<Engine>,
    traffic: &TrafficConfig,
    workers: usize,
    mode: ArrivalMode,
) -> ServeSummary {
    let server = Server::start(
        engine.clone(),
        &ServeConfig::builder()
            .workers(workers)
            .max_batch(4)
            .build()
            .expect("test serve config is valid"),
    );
    std::thread::scope(|scope| {
        for client in 0..traffic.clients {
            let server = &server;
            let log = client_log(traffic, client);
            scope.spawn(move || drive_client(server, log, mode));
        }
    });
    server.join().summary
}

#[test]
fn session_decomposition_matches_monolithic_batch_bitwise() {
    // The step-by-step session fold must replicate `run_batch` exactly:
    // same merged stats, same single end-of-session energy rounding.
    let engine = Engine::builder().threads(2).banks(4).build();
    let request = session(2, 3);
    let stepped = engine.infer_session(&request).expect("feasible");
    let monolithic = engine
        .infer(&InferenceRequest::serving(request.workload.session_steps()))
        .expect("feasible");
    assert_eq!(stepped.stats, monolithic.stats);
    assert_eq!(stepped.energy_pj, monolithic.energy_pj);
    assert_eq!(stepped.reports.len(), 4); // prefill + 3 decode steps
    assert_eq!(
        stepped.ttft_femtos + stepped.decode_step_femtos.iter().sum::<u128>(),
        stepped.stats.snapshot().total_femtos
    );

    // And the scheduler path is the same state machine: a session served
    // with continuous batching returns the identical response.
    let server = Server::start(Arc::new(engine), &ServeConfig::default());
    let scheduled = server
        .submit_session(request)
        .wait()
        .expect("session serves");
    let report = server.join();
    assert_eq!(scheduled.stats, stepped.stats);
    assert_eq!(scheduled.energy_pj, stepped.energy_pj);
    assert_eq!(scheduled.ttft_femtos, stepped.ttft_femtos);
    assert_eq!(scheduled.decode_step_femtos, stepped.decode_step_femtos);
    assert_eq!(report.summary.session_requests, 1);
    assert_eq!(report.summary.decode_steps, 3);
}

#[test]
fn decode_traffic_is_interleaving_invariant_with_percentiles() {
    // Pure decoder-session traffic: every worker count and arrival mode
    // must land on the serial replay's exact summary — including the
    // TTFT and per-decode-step digests, whose sample multisets must not
    // depend on which worker ran which step when.
    let traffic = TrafficConfig {
        clients: 3,
        requests_per_client: 2,
        mix: Mix::Decode,
        seed: 1913,
        decode_tokens: 4,
    };
    let engine = Arc::new(Engine::builder().threads(1).banks(4).build());
    let serial = replay_serial(&engine, &full_log(&traffic));
    assert_eq!(serial.failed_requests, 0);
    assert_eq!(serial.session_requests, traffic.total_requests() as u64);
    assert!(serial.decode_steps > 0);
    assert!(serial.ttft.p50 > 0, "prefill steps must charge time");
    assert!(serial.decode.p50 > 0, "decode steps must charge time");
    // Decode GEMMs are skinny: a decode step must be cheaper than the
    // batch-wide prefill that opened its session.
    assert!(serial.decode.max < serial.ttft.p50);

    for (workers, mode) in [
        (1, ArrivalMode::Closed),
        (4, ArrivalMode::Closed),
        (1, ArrivalMode::Open),
        (4, ArrivalMode::Open),
    ] {
        let concurrent = serve_concurrently(&engine, &traffic, workers, mode);
        assert_eq!(
            concurrent, serial,
            "summary diverged at workers={workers} mode={mode:?}"
        );
    }
}

#[test]
fn chat_traffic_is_interleaving_invariant() {
    // The bursty mix — sessions interleaved with one-shot inference and
    // GEMMs — is the arrival pattern continuous batching exists for;
    // its summary must stay exactly as deterministic as the pure mixes.
    let traffic = TrafficConfig {
        clients: 4,
        requests_per_client: 3,
        mix: Mix::Chat,
        seed: 411,
        decode_tokens: 4,
    };
    let engine = Arc::new(Engine::builder().threads(1).banks(4).build());
    let serial = replay_serial(&engine, &full_log(&traffic));
    assert_eq!(serial.failed_requests, 0);
    assert!(
        serial.session_requests > 0,
        "chat traffic must have sessions"
    );
    assert!(
        serial.gemm_requests + serial.infer_requests > 0,
        "chat traffic must have one-shot requests"
    );
    assert_eq!(
        serial.requests,
        serial.gemm_requests + serial.infer_requests + serial.session_requests
    );

    for workers in [1, 4] {
        let concurrent = serve_concurrently(&engine, &traffic, workers, ArrivalMode::Open);
        assert_eq!(concurrent, serial, "summary diverged at workers={workers}");
    }
}

#[test]
fn new_requests_are_admitted_between_decode_waves() {
    // One worker, one long session, then a GEMM. The worker runs one
    // session step per dispatch and re-enqueues the session behind
    // whatever arrived meanwhile, so prefill + each decode step + the
    // solo GEMM each dispatch separately — continuous batching's
    // observable shape, which no interleaving can change. (That the GEMM
    // overtakes the remaining decode steps is an ordering, so it is
    // constructed rather than raced for: `engine::serve`'s unit test
    // `a_gemm_is_admitted_between_a_sessions_decode_waves`.)
    const DECODE_TOKENS: u32 = 256;
    let engine = Arc::new(Engine::builder().threads(1).banks(2).build());
    let server = Server::start(
        engine,
        &ServeConfig::builder()
            .workers(1)
            .max_batch(1)
            .build()
            .expect("valid"),
    );
    let gemm = GemmRequest::new(
        QMatrix::pseudo_random(24, 20, NumericFormat::Bipolar, 7),
        QMatrix::pseudo_random(20, 6, NumericFormat::Int(3), 8),
    );
    let session_ticket = server.submit_session(session(1, DECODE_TOKENS));
    let gemm_ticket = server.submit_gemm(gemm);
    gemm_ticket.wait().expect("gemm serves");
    let response = session_ticket.wait().expect("session completes");
    assert_eq!(response.decode_step_femtos.len(), DECODE_TOKENS as usize);
    let report = server.join();
    assert_eq!(report.summary.failed_requests, 0);
    assert_eq!(report.summary.requests, 2);
    assert_eq!(report.dispatches, u64::from(DECODE_TOKENS) + 2);
}
