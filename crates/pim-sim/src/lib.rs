//! # pim-sim — a cost-calibrated functional DRAM-PIM simulator
//!
//! This crate is the hardware substrate for the LoCaLUT reproduction. The
//! paper evaluates on a real UPMEM server (32 ranks of PIM-enabled DIMMs,
//! 2048 DPUs); we do not have that hardware, so this crate models it:
//!
//! * [`DramBank`] — a DRAM bank's row buffer and streaming DRAM→WRAM DMA
//!   engine (0.5 B/cycle at 350 MHz, three-stage pipelined access — the
//!   constants the paper profiles in §VI-I).
//! * [`Processor`] — the in-order DPU core modelled by an instruction cost
//!   table (UPMEM DPUs have no hardware 32-bit multiplier; 8-bit multiplies
//!   are native, wider ones are multi-instruction).
//! * [`Dpu`] — one bank + core, with a per-category cycle ledger so
//!   kernels can report the breakdowns of Fig. 16. [`DpuConfig`] carries the
//!   64 MB bank / 64 KB WRAM capacities and their LUT budgets; the simulator
//!   allocates nothing — whether a LUT fits is `localut::capacity`'s call.
//! * [`PimSystem`] — ranks × banks topology with a host link model
//!   (broadcast/scatter/gather through the host, as UPMEM requires).
//! * [`EnergyModel`] — per-event energies turning a ledger into Joules
//!   (Fig. 14, Fig. 17b).
//! * [`banklevel`] — the accelerator-style bank-level PIM models (HBM-PIM
//!   SIMD vs. LUT-unit PIM) used by §VI-K (Fig. 20, Fig. 21).
//!
//! The simulator is *functional + timed*: kernels built on top of it compute
//! real results while charging simulated time into a [`CycleLedger`]. Time is
//! tracked in seconds (f64) because the paper's calibrated constants
//! (`L_D = 1.36e-9 s`, `L_local = 3.27e-8 s`) are sub-cycle when expressed at
//! the 350 MHz DPU clock.
//!
//! ## Example
//!
//! ```
//! use pim_sim::{Dpu, DpuConfig, Category};
//!
//! let mut dpu = Dpu::new(DpuConfig::upmem());
//! // Stream a 4 KiB weight tile from the DRAM bank into WRAM.
//! dpu.charge_dram_stream(4096, Category::DataTransfer);
//! // Perform 1000 lookup+accumulate composites (12 instructions each).
//! dpu.charge_lookup_accum(1000);
//! let profile = dpu.profile();
//! assert!(profile.total_seconds() > 0.0);
//! assert!(profile.seconds(Category::Accumulate) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banklevel;
pub mod dpu;
pub mod dram;
pub mod energy;
pub mod processor;
pub mod stats;
pub mod system;
pub mod timing;

pub use dpu::{Dpu, DpuConfig};
pub use dram::DramBank;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use processor::{InstrClass, Processor};
pub use stats::{Category, CounterSnapshot, CycleLedger, Profile, Stats};
pub use system::{PimSystem, SystemConfig, SystemProfile};
pub use timing::DpuTimings;

/// Errors produced by the simulator's fallible operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Configuration was invalid (e.g. zero DPUs).
    InvalidConfig(String),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}
