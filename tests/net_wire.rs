//! Network front-end behavior under hostile and edge-case input: malformed
//! and truncated frames, oversized payloads, mid-request disconnects,
//! per-connection quotas, bounded-queue backpressure, and the request-log
//! replay contract — all against a live loopback [`netserve::NetServer`].

use engine::serve::{replay_serial, ServeConfig};
use engine::{Engine, EngineError, NetError, Rejection};
use netserve::frame::{self, FramePoll, FrameReader};
use netserve::server::{NetConfig, NetReport, NetServer};
use netserve::wire::{self, WireRequest, WireResponse};
use netserve::NetClient;
use quant::{NumericFormat, QMatrix};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn start(serve: &ServeConfig, net: &NetConfig) -> NetServer {
    let engine = Arc::new(Engine::builder().threads(1).banks(2).build());
    NetServer::bind(engine, serve, net, "127.0.0.1:0").expect("loopback bind")
}

fn serve_config() -> ServeConfig {
    ServeConfig::builder()
        .workers(2)
        .max_batch(2)
        .build()
        .expect("valid")
}

fn small_gemm() -> engine::GemmRequest {
    let w = QMatrix::pseudo_random(24, 20, NumericFormat::Bipolar, 7);
    let a = QMatrix::pseudo_random(20, 6, NumericFormat::Int(3), 8);
    engine::GemmRequest::new(w, a)
}

/// Reads one response frame off a raw socket (None on close).
fn recv_raw(stream: &mut TcpStream) -> Option<WireResponse> {
    let payload = frame::read_frame(stream, frame::DEFAULT_MAX_PAYLOAD).expect("readable")?;
    Some(wire::decode_response(&payload).expect("decodable"))
}

#[test]
fn bad_magic_closes_the_connection_and_counts_a_protocol_error() {
    let server = start(&serve_config(), &NetConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut header = Vec::new();
    header.extend_from_slice(b"XXXX");
    header.extend_from_slice(&frame::VERSION.to_be_bytes());
    header.extend_from_slice(&[0, 0]);
    header.extend_from_slice(&4u32.to_be_bytes());
    stream.write_all(&header).expect("write");
    assert!(recv_raw(&mut stream).is_none(), "server must hang up");
    let report = server.join();
    assert_eq!(report.protocol_errors, 1);
    assert_eq!(report.serve.summary.requests, 0);
}

#[test]
fn truncated_frame_counts_a_protocol_error() {
    let server = start(&serve_config(), &NetConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut full = Vec::new();
    frame::write_frame(
        &mut full,
        wire::encode_request(&WireRequest::Ping).as_bytes(),
    )
    .expect("encode");
    // Everything but the last byte, then a clean FIN mid-frame.
    stream.write_all(&full[..full.len() - 1]).expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    assert!(recv_raw(&mut stream).is_none(), "server must hang up");
    let report = server.join();
    assert_eq!(report.protocol_errors, 1);
}

#[test]
fn oversized_claim_is_refused_from_the_header() {
    let net = NetConfig {
        max_payload: 1024,
        ..NetConfig::default()
    };
    let server = start(&serve_config(), &net);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut header = Vec::new();
    header.extend_from_slice(&frame::MAGIC);
    header.extend_from_slice(&frame::VERSION.to_be_bytes());
    header.extend_from_slice(&[0, 0]);
    // Claims 1 GiB; the server must refuse without ever allocating it.
    header.extend_from_slice(&(1u32 << 30).to_be_bytes());
    stream.write_all(&header).expect("write");
    assert!(recv_raw(&mut stream).is_none(), "server must hang up");
    let report = server.join();
    assert_eq!(report.protocol_errors, 1);
}

#[test]
fn garbage_payload_gets_a_typed_error_response() {
    let server = start(&serve_config(), &NetConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    frame::write_frame(&mut stream, b"not json at all").expect("write");
    match recv_raw(&mut stream) {
        Some(WireResponse::Error { kind, message }) => {
            assert_eq!(kind, "Net");
            assert!(!message.is_empty());
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    assert!(recv_raw(&mut stream).is_none(), "server closes afterwards");
    assert_eq!(server.join().protocol_errors, 1);
}

#[test]
fn quota_exhaustion_is_typed_and_does_not_count_executed() {
    let serve = ServeConfig::builder()
        .workers(1)
        .max_batch(1)
        .quota(2)
        .build()
        .expect("valid");
    let server = start(&serve, &NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let request = small_gemm();
    client.gemm(&request).expect("first fits the quota");
    client.gemm(&request).expect("second fits the quota");
    match client.gemm(&request) {
        Err(EngineError::Rejected(Rejection::QuotaExhausted { limit })) => assert_eq!(limit, 2),
        other => panic!("expected quota exhaustion, got {other:?}"),
    }
    drop(client);
    let report = server.join();
    assert_eq!(report.rejected_quota, 1);
    assert_eq!(report.serve.summary.requests, 2);
}

#[test]
fn queue_full_backpressure_rejects_instead_of_hanging() {
    let serve = ServeConfig::builder()
        .workers(1)
        .max_batch(1)
        .queue_cap(1)
        .build()
        .expect("valid");
    let server = start(&serve, &NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    // Pipeline more work than a 1-worker/1-slot queue can admit: the reader
    // submits in microseconds while each GEMM takes milliseconds, so some
    // must come back as typed QueueFull rejections — never a stall.
    let request = WireRequest::Gemm(small_gemm());
    const PIPELINED: usize = 8;
    for _ in 0..PIPELINED {
        client.send(&request).expect("send");
    }
    let mut served = 0u64;
    let mut rejected = 0u64;
    for _ in 0..PIPELINED {
        match client.recv().expect("every frame gets a response") {
            WireResponse::Gemm(_) => served += 1,
            WireResponse::Rejected(Rejection::QueueFull {
                capacity,
                retry_after_ms,
            }) => {
                assert_eq!(capacity, 1);
                assert!(retry_after_ms > 0);
                rejected += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    drop(client);
    let report = server.join();
    assert!(rejected > 0, "cap-1 queue must reject pipelined floods");
    assert_eq!(served + rejected, PIPELINED as u64);
    assert_eq!(report.serve.summary.requests, served);
}

#[test]
fn mid_request_disconnect_still_executes_and_accounts() {
    let log =
        std::env::temp_dir().join(format!("netserve-disconnect-{}.jsonl", std::process::id()));
    let net = NetConfig {
        log_path: Some(log.clone()),
        ..NetConfig::default()
    };
    let server = start(&serve_config(), &net);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.send(&WireRequest::Gemm(small_gemm())).expect("send");
    // Vanish without reading the response: the server must still execute,
    // log, and account the admitted request. (Wait for admission first —
    // a drain that lands before the frame is read may legitimately drop
    // it at the frame boundary.)
    drop(client);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while server.summary().requests < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "request was never admitted"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let report = server.join();
    assert_eq!(report.serve.summary.requests, 1);
    assert_eq!(report.serve.summary.failed_requests, 0);
    let text = std::fs::read_to_string(&log).expect("request log exists");
    assert_eq!(text.lines().count(), 1, "one executed request, one line");
    let _ = std::fs::remove_file(&log);
}

#[test]
fn connection_cap_rejects_excess_clients_with_a_typed_frame() {
    let net = NetConfig {
        max_connections: 1,
        ..NetConfig::default()
    };
    let server = start(&serve_config(), &net);
    let mut first = NetClient::connect(server.local_addr()).expect("connect");
    assert_eq!(first.ping().expect("first connection serves"), 0);
    let mut second = NetClient::connect(server.local_addr()).expect("tcp accepts");
    match second.ping() {
        Err(EngineError::Rejected(Rejection::QueueFull { capacity, .. })) => {
            assert_eq!(capacity, 1);
        }
        other => panic!("expected a capacity rejection, got {other:?}"),
    }
    drop(first);
    drop(second);
    let report = server.join();
    assert_eq!(report.rejected_capacity, 1);
    assert_eq!(report.connections, 2);
}

#[test]
fn ping_reports_admissions_and_drain_stops_the_server() {
    let server = start(&serve_config(), &NetConfig::default());
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).expect("connect");
    assert_eq!(client.ping().expect("ping"), 0);
    client.gemm(&small_gemm()).expect("serves");
    assert_eq!(client.ping().expect("ping"), 1);
    let (summary, cache) = client.drain().expect("drain acknowledges");
    assert_eq!(summary.requests, 1);
    let cache = cache.expect("drain acks carry cache counters");
    assert_eq!(cache.lut.misses, 1, "one cold LUT build for one shape");
    assert_eq!(cache.lut.evictions, 0);
    let report = server.wait();
    assert_eq!(report.serve.summary.requests, 1);
    assert!(
        NetClient::connect(addr).and_then(|mut c| c.ping()).is_err(),
        "a drained server accepts no new work"
    );
}

/// The acceptance contract, in-process edition: replaying the request log
/// serially reproduces the concurrent server's summary bit for bit, for
/// multiple worker counts. (`tests/net_remote.rs` pins the same property
/// across OS processes.)
#[test]
fn request_log_replay_matches_summary_for_any_worker_count() {
    for workers in [1, 3] {
        let log = std::env::temp_dir().join(format!(
            "netserve-replay-{}-{workers}.jsonl",
            std::process::id()
        ));
        let serve = ServeConfig::builder()
            .workers(workers)
            .max_batch(2)
            .build()
            .expect("valid");
        let net = NetConfig {
            log_path: Some(log.clone()),
            ..NetConfig::default()
        };
        let server = start(&serve, &net);
        let addr = server.local_addr();
        let traffic = engine::traffic::TrafficConfig {
            clients: 2,
            requests_per_client: 2,
            mix: engine::traffic::Mix::Mixed,
            seed: 77,
            decode_tokens: 4,
        };
        std::thread::scope(|scope| {
            for client in 0..traffic.clients {
                let log = engine::traffic::client_log(&traffic, client);
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("connect");
                    for request in log {
                        match request {
                            engine::traffic::TrafficRequest::Gemm(r) => {
                                client.gemm(&r).expect("serves");
                            }
                            engine::traffic::TrafficRequest::Infer(r) => {
                                client.infer(&r).expect("serves");
                            }
                            engine::traffic::TrafficRequest::Session(r) => {
                                client.session(&r).expect("serves");
                            }
                        }
                    }
                });
            }
        });
        let report: NetReport = server.join();
        let text = std::fs::read_to_string(&log).expect("request log exists");
        let replayed = wire::parse_request_log(&text).expect("log parses");
        assert_eq!(replayed.len(), 4);
        let reference = Engine::builder().threads(1).banks(2).build();
        assert_eq!(
            replay_serial(&reference, &replayed),
            report.serve.summary,
            "serial replay of the wire log diverged at {workers} workers"
        );
        let _ = std::fs::remove_file(&log);
    }
}

#[test]
fn session_over_tcp_matches_in_process_inference() {
    // A decoder session served over loopback TCP (continuous batching on
    // the scheduler side) must return the exact integers the in-process
    // API computes, and its logged request line must replay to the same
    // summary.
    let log = std::env::temp_dir().join(format!("netserve-session-{}.jsonl", std::process::id()));
    let net = NetConfig {
        log_path: Some(log.clone()),
        ..NetConfig::default()
    };
    let server = start(&serve_config(), &net);
    let addr = server.local_addr();
    let request = engine::SessionRequest::new(dnn::Workload::with_decode(
        dnn::ModelConfig::opt_125m(),
        2,
        3,
    ));
    let mut client = NetClient::connect(addr).expect("connect");
    let remote = client.session(&request).expect("serves");
    let report: NetReport = server.join();

    let reference = Engine::builder().threads(1).banks(2).build();
    let local = reference.infer_session(&request).expect("feasible");
    assert_eq!(remote.stats, local.stats);
    assert_eq!(remote.energy_pj, local.energy_pj);
    assert_eq!(remote.ttft_femtos, local.ttft_femtos);
    assert_eq!(remote.decode_step_femtos, local.decode_step_femtos);
    assert_eq!(report.serve.summary.session_requests, 1);
    assert_eq!(report.serve.summary.decode_steps, 3);

    let text = std::fs::read_to_string(&log).expect("request log exists");
    let replayed = wire::parse_request_log(&text).expect("log parses");
    assert_eq!(replay_serial(&reference, &replayed), report.serve.summary);
    let _ = std::fs::remove_file(&log);
}

#[test]
fn oversized_session_frame_is_a_typed_error_and_the_daemon_keeps_serving() {
    // `decode_tokens` is a client-chosen u32: a ~200-byte frame must not
    // be able to make the reader thread allocate per step. It resolves to
    // the typed error, counts as a failed request, and the same
    // connection is served afterwards.
    let server = start(&serve_config(), &NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let huge = engine::SessionRequest::new(dnn::Workload::with_decode(
        dnn::ModelConfig::opt_125m(),
        1,
        u32::MAX,
    ));
    match client.session(&huge) {
        Err(EngineError::Net(NetError::Remote { kind, message })) => {
            assert_eq!(kind, "InvalidRequest");
            assert!(message.contains("step bound"), "{message}");
        }
        other => panic!("expected a remote InvalidRequest, got {other:?}"),
    }
    client.gemm(&small_gemm()).expect("still serving");
    let report: NetReport = server.join();
    assert_eq!(report.serve.summary.failed_requests, 1);
    assert_eq!(report.serve.summary.session_requests, 0);
    assert_eq!(report.serve.summary.gemm_requests, 1);
}

#[test]
fn frame_reader_survives_interleaved_partial_writes() {
    // Transport-level resumability on a real socket: a frame delivered one
    // byte at a time must still decode (the server's reader uses the same
    // FrameReader against read timeouts).
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr: SocketAddr = listener.local_addr().expect("addr");
    let payload = wire::encode_request(&WireRequest::Ping);
    let writer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut full = Vec::new();
        frame::write_frame(&mut full, payload.as_bytes()).expect("encode");
        for byte in full {
            stream.write_all(&[byte]).expect("trickle");
            stream.flush().expect("flush");
        }
    });
    let (mut stream, _) = listener.accept().expect("accept");
    let mut reader = FrameReader::new(frame::DEFAULT_MAX_PAYLOAD);
    let payload = loop {
        match reader.poll(&mut stream).expect("no protocol error") {
            FramePoll::Frame(p) => break p,
            FramePoll::Pending => continue,
            FramePoll::Closed => panic!("closed before the frame completed"),
        }
    };
    writer.join().expect("writer");
    assert!(matches!(
        wire::decode_request(&payload),
        Ok(WireRequest::Ping)
    ));
}
