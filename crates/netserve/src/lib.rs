//! Network serving front-end for the LoCaLUT engine.
//!
//! This crate puts [`engine::serve::Server`] behind a TCP socket without
//! pulling in any async runtime or serialization dependency (the build
//! environment has no registry access): `std::net` blocking sockets, a
//! hand-rolled length-prefixed [`frame`] envelope, and versioned typed
//! DTOs ([`wire`]) serialized through the same dependency-free [`json`]
//! writer the perf harness uses. The layering is
//!
//! ```text
//! NetClient ──frames──▶ NetServer ──tickets──▶ engine::serve::Server
//!     │                     │
//!     └── wire DTOs ────────┴── request log (one compact JSON line per
//!         (shared by both)      admitted request, replayable bit for bit
//!                               through engine::serve::replay_serial)
//! ```
//!
//! Production concerns are first-class rather than bolted on:
//!
//! * **Backpressure** — a bounded submission queue rejects with a typed
//!   [`engine::Rejection::QueueFull`] (carrying `retry_after_ms`) instead
//!   of buffering without bound; clients retry, nothing hangs.
//! * **Quotas** — a per-connection request budget yields
//!   [`engine::Rejection::QuotaExhausted`].
//! * **Graceful drain** — a `Drain` frame (or [`server::NetServer::drain`])
//!   stops the accept loop and new admissions; every already-admitted
//!   ticket still executes, is recorded, and its response is flushed.
//! * **Determinism** — the server's final [`engine::ServeSummary`] is
//!   bit-identical to a serial replay of its request log, and a remote
//!   client reconstructs the very same summary from wire responses via
//!   [`engine::ServeRecorder`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod frame;
pub mod json;
pub mod server;
pub mod wire;

pub use client::NetClient;
pub use server::{NetConfig, NetReport, NetServer};
pub use wire::{WireCacheStats, WireGemmResponse, WireInferResponse, WireRequest, WireResponse};
