//! Golden wire bytes: the exact payload of every request and response
//! kind, pinned as literals. Round-trip tests cannot see a codec change
//! that moves encoder and decoder together; the request log, the frame
//! payloads and `WIRE_VERSION == 1` all promise these bytes. Each literal
//! must also decode back to the value it was encoded from.

use dnn::{ModelConfig, Workload};
use engine::serve::LatencyDigest;
use engine::{
    CacheOutcome, CacheStats, GemmRequest, InferenceRequest, MemoStats, PlanPin, Rejection,
    ServeSummary, SessionRequest,
};
use localut::plan::Placement;
use localut::{GemmDims, Method};
use netserve::wire::{
    decode_request, decode_response, encode_request, encode_response, WireCacheStats,
    WireGemmResponse, WireInferResponse, WireRequest, WireResponse, WireSessionResponse,
    WIRE_VERSION,
};
use pim_sim::{Category, CounterSnapshot, Stats};
use quant::{NumericFormat, QMatrix};

fn gemm_request() -> GemmRequest {
    // 0.1f32 widens to an inexact f64: pins the shortest-roundtrip float
    // form next to an exact one.
    let w = QMatrix::from_codes(vec![0, 1, 1, 0], 2, 2, NumericFormat::Bipolar, 0.5).unwrap();
    let a = QMatrix::from_codes(vec![7, 0, 3, 4], 2, 2, NumericFormat::Int(3), 0.1).unwrap();
    GemmRequest::new(w, a)
}

fn stats() -> Stats {
    Stats::from_snapshot(&CounterSnapshot {
        banks: 2,
        total_femtos: 1_000_000_000_000_000_000_000 + 5,
        category_femtos: vec![
            (Category::LutLoad, 5),
            // Above u64::MAX: femtoseconds are u128 on the wire.
            (Category::Accumulate, 1_000_000_000_000_000_000_000),
        ],
        dram_read_bytes: 4096,
        dram_write_bytes: 512,
        wram_accesses: 77,
        instructions: 123_456,
        host_bytes: 64,
        host_ops: 9,
    })
}

fn gemm_response(lut_cache: Option<CacheOutcome>) -> WireResponse {
    WireResponse::Gemm(WireGemmResponse {
        values: vec![3, -4, 0, i32::MIN],
        dims: GemmDims { m: 2, k: 2, n: 2 },
        method: Method::LoCaLut,
        stats: stats(),
        energy_pj: 987_654_321,
        checksum: u64::MAX,
        latency_femtos: 42_000_000,
        lut_cache,
    })
}

fn summary() -> ServeSummary {
    ServeSummary {
        requests: 6,
        gemm_requests: 3,
        infer_requests: 2,
        session_requests: 1,
        decode_steps: 4,
        failed_requests: 1,
        stats: stats(),
        energy_pj: 1_234_567,
        latency: LatencyDigest {
            p50: 10,
            p95: 20,
            p99: 30,
            max: 40,
            total: 100,
        },
        ttft: LatencyDigest {
            p50: 1,
            p95: 2,
            p99: 3,
            max: 4,
            total: 10,
        },
        decode: LatencyDigest::default(),
        checksum: 0xDEAD_BEEF,
    }
}

#[test]
fn request_bytes_are_pinned() {
    let cases: [(WireRequest, &str); 6] = [
        (
            WireRequest::Gemm(gemm_request()),
            r#"{"a":{"codes":[7,0,3,4],"cols":2,"format":"int3","rows":2,"scale":0.10000000149011612},"kind":"gemm","v":1,"w":{"codes":[0,1,1,0],"cols":2,"format":"bipolar","rows":2,"scale":0.5}}"#,
        ),
        (
            WireRequest::Gemm(
                gemm_request()
                    .with_method(Method::OpLcRc)
                    .with_banks(3)
                    .with_pin(PlanPin {
                        placement: Placement::Streaming,
                        p: 4,
                    }),
            ),
            r#"{"a":{"codes":[7,0,3,4],"cols":2,"format":"int3","rows":2,"scale":0.10000000149011612},"banks":3,"kind":"gemm","method":"oplcrc","pin":{"p":4,"placement":"slice-streaming"},"v":1,"w":{"codes":[0,1,1,0],"cols":2,"format":"bipolar","rows":2,"scale":0.5}}"#,
        ),
        (
            WireRequest::Infer(
                InferenceRequest::serving(vec![
                    Workload::prefill(ModelConfig::bert_base(), 16),
                    Workload::with_decode(ModelConfig::opt_125m(), 8, 4),
                ])
                .with_method(Method::LoCaLut)
                .with_bits("W4A4".parse().unwrap()),
            ),
            r#"{"bits":"W4A4","kind":"infer","method":"localut","v":1,"workloads":[{"batch":16,"decode_tokens":0,"model":"BERT"},{"batch":8,"decode_tokens":4,"model":"OPT"}]}"#,
        ),
        (
            WireRequest::Session(
                SessionRequest::new(Workload::decode_step(ModelConfig::opt_125m(), 2, 100))
                    .with_bits("W1A3".parse().unwrap()),
            ),
            r#"{"bits":"W1A3","kind":"session","v":1,"workload":{"batch":2,"context":100,"decode_tokens":0,"model":"OPT"}}"#,
        ),
        (WireRequest::Ping, r#"{"kind":"ping","v":1}"#),
        (WireRequest::Drain, r#"{"kind":"drain","v":1}"#),
    ];
    for (request, golden) in cases {
        assert_eq!(encode_request(&request), golden, "{request:?}");
        assert_eq!(decode_request(golden.as_bytes()).unwrap(), request);
    }
}

#[test]
fn response_bytes_are_pinned() {
    let reports = vec![(0.001, 0.0), (1.5e-7, 0.1 + 0.2)];
    let cases: [(WireResponse, &str); 11] = [
        (
            gemm_response(None),
            r#"{"checksum":18446744073709551615,"dims":{"k":2,"m":2,"n":2},"energy_pj":987654321,"kind":"gemm","latency_femtos":42000000,"method":"localut","stats":{"banks":2,"category_femtos":{"accumulate":1000000000000000000000,"lut-load":5},"dram_read_bytes":4096,"dram_write_bytes":512,"host_bytes":64,"host_ops":9,"instructions":123456,"wram_accesses":77},"v":1,"values":[3,-4,0,-2147483648]}"#,
        ),
        (
            gemm_response(Some(CacheOutcome::Hit)),
            r#"{"checksum":18446744073709551615,"dims":{"k":2,"m":2,"n":2},"energy_pj":987654321,"kind":"gemm","latency_femtos":42000000,"lut_cache":"hit","method":"localut","stats":{"banks":2,"category_femtos":{"accumulate":1000000000000000000000,"lut-load":5},"dram_read_bytes":4096,"dram_write_bytes":512,"host_bytes":64,"host_ops":9,"instructions":123456,"wram_accesses":77},"v":1,"values":[3,-4,0,-2147483648]}"#,
        ),
        (
            WireResponse::Infer(WireInferResponse {
                reports: reports.clone(),
                stats: stats(),
                energy_pj: 55,
                method: Method::NaivePim,
            }),
            r#"{"energy_pj":55,"kind":"infer","method":"naive","reports":[{"decode_seconds":0.0,"prefill_seconds":0.001},{"decode_seconds":0.30000000000000004,"prefill_seconds":1.5e-7}],"stats":{"banks":2,"category_femtos":{"accumulate":1000000000000000000000,"lut-load":5},"dram_read_bytes":4096,"dram_write_bytes":512,"host_bytes":64,"host_ops":9,"instructions":123456,"wram_accesses":77},"v":1}"#,
        ),
        (
            WireResponse::Session(WireSessionResponse {
                reports,
                stats: stats(),
                energy_pj: 56,
                method: Method::LoCaLut,
                ttft_femtos: 700,
                decode_step_femtos: vec![30, 31, 1_000_000_000_000_000_000_000],
            }),
            r#"{"decode_step_femtos":[30,31,1000000000000000000000],"energy_pj":56,"kind":"session","method":"localut","reports":[{"decode_seconds":0.0,"prefill_seconds":0.001},{"decode_seconds":0.30000000000000004,"prefill_seconds":1.5e-7}],"stats":{"banks":2,"category_femtos":{"accumulate":1000000000000000000000,"lut-load":5},"dram_read_bytes":4096,"dram_write_bytes":512,"host_bytes":64,"host_ops":9,"instructions":123456,"wram_accesses":77},"ttft_femtos":700,"v":1}"#,
        ),
        (
            WireResponse::Rejected(Rejection::QueueFull {
                capacity: 4,
                retry_after_ms: 25,
            }),
            r#"{"capacity":4,"kind":"rejected","reason":"queue-full","retry_after_ms":25,"v":1}"#,
        ),
        (
            WireResponse::Rejected(Rejection::QuotaExhausted { limit: 9 }),
            r#"{"kind":"rejected","limit":9,"reason":"quota-exhausted","v":1}"#,
        ),
        (
            WireResponse::Rejected(Rejection::Draining),
            r#"{"kind":"rejected","reason":"draining","v":1}"#,
        ),
        (
            WireResponse::Error {
                kind: "Gemm".into(),
                message: "dimension \"mismatch\"\n2x3 · 4x5".into(),
            },
            r#"{"error_kind":"Gemm","kind":"error","message":"dimension \"mismatch\"\n2x3 · 4x5","v":1}"#,
        ),
        (
            WireResponse::Pong { served: 7 },
            r#"{"kind":"pong","served":7,"v":1}"#,
        ),
        (
            WireResponse::Drained {
                summary: Box::new(summary()),
                cache: None,
            },
            r#"{"kind":"drained","summary":{"checksum":3735928559,"decode":{"max":0,"p50":0,"p95":0,"p99":0,"total":0},"decode_steps":4,"energy_pj":1234567,"failed_requests":1,"gemm_requests":3,"infer_requests":2,"latency":{"max":40,"p50":10,"p95":20,"p99":30,"total":100},"requests":6,"session_requests":1,"stats":{"banks":2,"category_femtos":{"accumulate":1000000000000000000000,"lut-load":5},"dram_read_bytes":4096,"dram_write_bytes":512,"host_bytes":64,"host_ops":9,"instructions":123456,"wram_accesses":77},"ttft":{"max":4,"p50":1,"p95":2,"p99":3,"total":10}},"v":1}"#,
        ),
        (
            WireResponse::Drained {
                summary: Box::new(summary()),
                cache: Some(WireCacheStats {
                    lut: CacheStats {
                        hits: 3,
                        misses: 2,
                        evictions: 1,
                        resident_bytes: 4096,
                        failed_builds: 1,
                        restored: 2,
                        entries: 1,
                    },
                    memo: MemoStats {
                        hits: 5,
                        misses: 4,
                        entries: 4,
                    },
                }),
            },
            r#"{"cache":{"lut_entries":1,"lut_evictions":1,"lut_failed_builds":1,"lut_hits":3,"lut_misses":2,"lut_resident_bytes":4096,"lut_restored":2,"memo_entries":4,"memo_hits":5,"memo_misses":4},"kind":"drained","summary":{"checksum":3735928559,"decode":{"max":0,"p50":0,"p95":0,"p99":0,"total":0},"decode_steps":4,"energy_pj":1234567,"failed_requests":1,"gemm_requests":3,"infer_requests":2,"latency":{"max":40,"p50":10,"p95":20,"p99":30,"total":100},"requests":6,"session_requests":1,"stats":{"banks":2,"category_femtos":{"accumulate":1000000000000000000000,"lut-load":5},"dram_read_bytes":4096,"dram_write_bytes":512,"host_bytes":64,"host_ops":9,"instructions":123456,"wram_accesses":77},"ttft":{"max":4,"p50":1,"p95":2,"p99":3,"total":10}},"v":1}"#,
        ),
    ];
    assert_eq!(WIRE_VERSION, 1);
    for (response, golden) in cases {
        assert_eq!(encode_response(&response), golden, "{response:?}");
        assert_eq!(decode_response(golden.as_bytes()).unwrap(), response);
    }
}
