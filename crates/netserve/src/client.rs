//! The blocking TCP client for the network serving front-end.
//!
//! [`NetClient`] speaks one frame per message over a plain
//! `std::net::TcpStream`. The typed convenience calls ([`NetClient::gemm`],
//! [`NetClient::infer`]) map wire-level outcomes back onto the same
//! [`EngineError`] surface the in-process API raises: a typed rejection
//! becomes [`EngineError::Rejected`] (so backpressure stays matchable),
//! a server-side failure becomes [`engine::NetError::Remote`] carrying
//! the original variant name, and transport faults chain through
//! [`engine::NetError::Io`]/[`engine::NetError::Frame`].
//!
//! Requests can also be pipelined: [`NetClient::send`] any number of
//! frames, then [`NetClient::recv`] responses in order — the server
//! answers strictly in per-connection request order.

use crate::frame::{read_frame, write_frame, DEFAULT_MAX_PAYLOAD};
use crate::wire::{
    self, WireCacheStats, WireGemmResponse, WireInferResponse, WireRequest, WireResponse,
    WireSessionResponse,
};
use engine::{EngineError, GemmRequest, InferenceRequest, NetError, ServeSummary, SessionRequest};
use std::io::ErrorKind;
use std::net::{TcpStream, ToSocketAddrs};

/// A connection to a [`crate::server::NetServer`].
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects to a serving daemon.
    ///
    /// # Errors
    ///
    /// [`EngineError::Net`] on connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, EngineError> {
        let stream = TcpStream::connect(addr).map_err(|e| NetError::io("connect", &e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::io("set nodelay", &e))?;
        Ok(NetClient { stream })
    }

    /// Sends one request frame without waiting for the response
    /// (pipelining half; pair with [`NetClient::recv`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::Net`] on transport failure.
    pub fn send(&mut self, request: &WireRequest) -> Result<(), EngineError> {
        write_frame(&mut self.stream, wire::encode_request(request).as_bytes())?;
        Ok(())
    }

    /// Receives the next response frame (pipelining half).
    ///
    /// # Errors
    ///
    /// [`EngineError::Net`]: decode errors, transport faults, or an
    /// unexpected close (`Io` with [`ErrorKind::UnexpectedEof`]) when the
    /// server hung up with responses still owed.
    pub fn recv(&mut self) -> Result<WireResponse, EngineError> {
        match read_frame(&mut self.stream, DEFAULT_MAX_PAYLOAD)? {
            Some(payload) => Ok(wire::decode_response(&payload)?),
            None => Err(NetError::Io {
                kind: ErrorKind::UnexpectedEof,
                detail: "server closed the connection before responding".to_owned(),
            }
            .into()),
        }
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// As [`NetClient::send`] and [`NetClient::recv`].
    pub fn call(&mut self, request: &WireRequest) -> Result<WireResponse, EngineError> {
        self.send(request)?;
        self.recv()
    }

    /// Executes one GEMM remotely — the network twin of
    /// [`engine::Engine::submit`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Rejected`] for typed backpressure (retryable where
    /// the variant says so); [`EngineError::Net`] with
    /// [`NetError::Remote`] when the server-side execution failed;
    /// transport/decode errors as usual.
    pub fn gemm(&mut self, request: &GemmRequest) -> Result<WireGemmResponse, EngineError> {
        match self.call(&WireRequest::Gemm(request.clone()))? {
            WireResponse::Gemm(g) => Ok(g),
            other => Err(unexpected(other, "gemm")),
        }
    }

    /// Executes one inference request remotely — the network twin of
    /// [`engine::Engine::infer`].
    ///
    /// # Errors
    ///
    /// As [`NetClient::gemm`].
    pub fn infer(&mut self, request: &InferenceRequest) -> Result<WireInferResponse, EngineError> {
        match self.call(&WireRequest::Infer(request.clone()))? {
            WireResponse::Infer(i) => Ok(i),
            other => Err(unexpected(other, "infer")),
        }
    }

    /// Runs one decoder session remotely — the network twin of
    /// [`engine::Engine::infer_session`]. The server serves it with
    /// continuous batching and replies once the whole session (prefill
    /// plus every decode step) completes, with per-step latencies in the
    /// response.
    ///
    /// # Errors
    ///
    /// As [`NetClient::gemm`].
    pub fn session(
        &mut self,
        request: &SessionRequest,
    ) -> Result<WireSessionResponse, EngineError> {
        match self.call(&WireRequest::Session(request.clone()))? {
            WireResponse::Session(s) => Ok(s),
            other => Err(unexpected(other, "session")),
        }
    }

    /// Liveness probe; returns how many requests this connection has had
    /// admitted.
    ///
    /// # Errors
    ///
    /// Transport/decode errors.
    pub fn ping(&mut self) -> Result<u64, EngineError> {
        match self.call(&WireRequest::Ping)? {
            WireResponse::Pong { served } => Ok(served),
            other => Err(unexpected(other, "ping")),
        }
    }

    /// Asks the server to drain and returns its summary at that moment,
    /// plus the server's cache lifecycle counters when the peer sends
    /// them (`None` from servers predating the field). The server stops
    /// accepting, flushes every in-flight ticket, and exits; this
    /// connection is closed afterwards.
    ///
    /// # Errors
    ///
    /// Transport/decode errors.
    pub fn drain(&mut self) -> Result<(ServeSummary, Option<WireCacheStats>), EngineError> {
        match self.call(&WireRequest::Drain)? {
            WireResponse::Drained { summary, cache } => Ok((*summary, cache)),
            other => Err(unexpected(other, "drain")),
        }
    }
}

fn unexpected(response: WireResponse, verb: &str) -> EngineError {
    let kind = match response {
        WireResponse::Rejected(r) => return EngineError::Rejected(r),
        WireResponse::Error { kind, message } => return NetError::Remote { kind, message }.into(),
        WireResponse::Gemm(_) => "gemm",
        WireResponse::Infer(_) => "infer",
        WireResponse::Session(_) => "session",
        WireResponse::Pong { .. } => "pong",
        WireResponse::Drained { .. } => "drained",
    };
    NetError::Protocol(format!("unexpected response to '{verb}': {kind}")).into()
}
