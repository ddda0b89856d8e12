//! # localut — the LoCaLUT core
//!
//! Reproduction of the paper's primary contribution: operation-packed
//! LUT-based GEMM for DRAM-PIM with **LUT canonicalization**, the
//! **reordering LUT**, and **LUT slice streaming**, plus the first-order
//! performance model that selects the packing degree and placement.
//!
//! * [`packed::OpPackedLut`] — `p` MACs per lookup (§III-A).
//! * [`canonical::CanonicalLut`] — duplicate-free columns via multiset
//!   ranking (§IV-A).
//! * [`reorder::ReorderLut`] — weight reordering as one lookup (§IV-B).
//! * [`capacity`] — closed-form footprints and budget fitting (Fig. 6, §V-A).
//! * [`model`] — Eq. 2–6: `p*` selection and stream-vs-buffer choice (§IV-D).
//! * [`kernels`] — the six GEMM kernels of the evaluation (Naive PIM, LTC,
//!   OP, OP+LC, OP+LC+RC, full LoCaLUT), functional *and* timed on
//!   [`pim_sim`]: one [`kernels::KernelSpec`] value, one blocked driver,
//!   one cost function.
//! * [`codes`] — group-major bit-packed operand code words and the reused
//!   per-group scratch the blocked kernel loop runs on.
//! * [`plan`] — the automatic planner of §V-A.
//! * [`tiling`] — bank-level data/context parallelism and host transfers.
//!
//! ## Quickstart
//!
//! ```
//! use localut::gemm::{GemmConfig, Method};
//! use quant::{NumericFormat, Quantizer};
//!
//! // Quantize a tiny weight and activation matrix (W1A3).
//! let wq = Quantizer::symmetric(NumericFormat::Bipolar);
//! let aq = Quantizer::symmetric(NumericFormat::Int(3));
//! let w = wq.quantize_matrix(&[0.5, -0.5, 1.0, -1.0, 0.3, -0.3], 2, 3)?;
//! let a = aq.quantize_matrix(&[1.0, 2.0, -3.0, 0.5, 4.0, -1.0], 3, 2)?;
//!
//! // Run the full LoCaLUT kernel and compare with the naive PIM kernel.
//! let cfg = GemmConfig::upmem();
//! let fast = cfg.run(Method::LoCaLut, &w, &a)?;
//! let slow = cfg.run(Method::NaivePim, &w, &a)?;
//! assert_eq!(fast.values, slow.values); // bit-exact
//! # Ok::<(), localut::LocaLutError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod canonical;
pub mod capacity;
pub mod codes;
pub mod elementwise;
pub mod error;
pub mod fgemm;
pub mod gemm;
pub mod image;
pub mod kernels;
pub mod model;
pub mod multiset;
pub mod packed;
pub mod perm;
pub mod plan;
pub mod reorder;
pub mod tiling;
pub mod value;

pub use error::LocaLutError;
pub use gemm::{GemmConfig, GemmDims, GemmResult, Method};
pub use plan::{ExecutionPlan, Placement, Planner};
pub use value::LutValue;
