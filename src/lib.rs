//! # localut-repro — reproduction of LoCaLUT (HPCA 2026)
//!
//! Facade crate tying the workspace together for the examples and
//! integration tests. The recommended entry point is [`engine`] — the
//! unified serving API (`Engine` / `Server`, typed requests, LUT
//! caching); the per-layer crates below it stay available for
//! lower-level work. See `README.md` for the architecture overview,
//! `DESIGN.md` for the system inventory, and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

pub mod cli;

pub use dnn;
pub use engine;
pub use localut;
pub use netserve;
pub use pim_sim;
pub use pq;
pub use quant;
pub use runtime;
pub use xpu;

pub use engine::serve::Server;
pub use engine::{Engine, EngineBuilder, EngineError};
pub use netserve::{NetClient, NetConfig, NetServer};
