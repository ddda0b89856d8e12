//! # runtime — bank-parallel execution for the LoCaLUT reproduction
//!
//! The paper's end-to-end numbers come from 2048 DPUs working
//! simultaneously (§V-B); this crate makes the reproduction actually run
//! that way instead of simulating every bank on one thread:
//!
//! * [`ShardPlan`] — partitions a GEMM's output into bank-owned tiles
//!   using the same §V-B tiling policy the analytic system model prices
//!   (`localut::tiling::TileGrid`), each tile independent because shards
//!   span the full `K` reduction. At full-machine scale the plan is
//!   two-level: [`ShardPlan::for_ranks`] groups consecutive bank-shards
//!   under ranks via a [`RankPlan`] (the paper's server: 32 × 64 = 2048).
//! * [`ParallelExecutor`] — a self-balancing worker pool on
//!   `std::thread::scope` (no new dependencies): workers claim shard ids
//!   from one shared atomic cursor, so ragged 2048-shard plans don't
//!   serialize their tail. Workers run shards through a shared, read-only
//!   [`localut::kernels::BankKernel`] — one canonical + reordering LUT
//!   build behind `Arc`, mirroring the one-time §V-A broadcast — while
//!   each shard charges its own bank-local `pim-sim` ledger.
//! * [`ParallelGemm`] — the merged output: bit-identical values, per-bank
//!   profiles, a deterministic shard-order profile fold, and an
//!   associatively merged [`pim_sim::Stats`] aggregate that is invariant
//!   to merge order and thread count. Ranked plans additionally carry
//!   per-rank aggregates (the merge-tree's middle level, exactly equal to
//!   the flat fold) and the rank-bus contention phase
//!   ([`pim_sim::PimSystem::rank_link_profile`]).
//!
//! Determinism is a design invariant, not an accident: results are keyed
//! by shard id no matter which worker claimed them, and every merge runs
//! in ascending id order, so for a fixed plan the executor's output is
//! bitwise identical for **any** worker count — the property the
//! end-to-end and property tests pin down.
//!
//! ## Quickstart
//!
//! ```
//! use localut::{GemmConfig, GemmDims, Method};
//! use quant::{NumericFormat, Quantizer};
//! use runtime::{ParallelExecutor, ShardPlan};
//!
//! let wq = Quantizer::symmetric(NumericFormat::Bipolar);
//! let aq = Quantizer::symmetric(NumericFormat::Int(3));
//! let w = wq.quantize_matrix(&[0.5, -0.5, 1.0, -1.0, 0.3, -0.3], 2, 3)?;
//! let a = aq.quantize_matrix(&[1.0, 2.0, -3.0, 0.5, 4.0, -1.0], 3, 2)?;
//!
//! // Serial reference...
//! let serial = GemmConfig::upmem().run(Method::LoCaLut, &w, &a)?;
//! // ...and the same GEMM sharded across 4 bank workers.
//! let plan = ShardPlan::for_banks(GemmDims::of(&w, &a)?, 4);
//! let parallel = ParallelExecutor::new(4).execute_plan(&plan, Method::LoCaLut, &w, &a)?;
//! assert_eq!(parallel.values, serial.values); // bit-exact
//! assert!(parallel.critical_path_seconds() <= parallel.total_bank_seconds());
//! # Ok::<(), localut::LocaLutError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod executor;
mod shard;

pub use executor::{
    fnv1a_64, lock_recover, values_checksum, BankResult, ParallelExecutor, ParallelGemm,
};
pub use shard::{RankPlan, Shard, ShardPlan};
