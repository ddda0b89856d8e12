//! One DPU: a DRAM bank's row buffer, an in-order core's cost table, and
//! a ledger.
//!
//! Kernels drive a [`Dpu`] by charging events (DRAM streams, instruction
//! sequences, profiled lookup composites) against a [`Category`]. The DPU
//! turns events into simulated seconds using the calibrated timing model
//! and records everything in a [`CycleLedger`]. It allocates nothing:
//! [`DpuConfig`] carries the capacities and LUT budgets, and whether a
//! kernel's tables fit them is decided in `localut::capacity`.

use crate::dram::DramBank;
use crate::processor::Processor;
use crate::stats::{Category, CycleLedger, Profile};
use crate::timing::DpuTimings;

/// Static configuration of one DPU.
#[derive(Debug, Clone)]
pub struct DpuConfig {
    /// DRAM bank capacity in bytes (UPMEM: 64 MB).
    pub bank_bytes: u64,
    /// WRAM capacity in bytes (UPMEM: 64 KB).
    pub wram_bytes: u64,
    /// Timing constants.
    pub timings: DpuTimings,
    /// Instruction cost table.
    pub processor: Processor,
    /// Fraction of each memory devoted to LUTs (default
    /// [`DpuConfig::LUT_BUDGET_FRACTION`]; tunable for the budget
    /// ablation — §VII-B calls managing this tradeoff an open challenge).
    pub lut_budget_fraction: f64,
}

impl DpuConfig {
    /// The UPMEM DPU configuration used throughout the paper.
    #[must_use]
    pub fn upmem() -> Self {
        DpuConfig {
            bank_bytes: 64 * 1024 * 1024,
            wram_bytes: 64 * 1024,
            timings: DpuTimings::upmem(),
            processor: Processor::upmem(),
            lut_budget_fraction: Self::LUT_BUDGET_FRACTION,
        }
    }

    /// Fraction of each memory devoted to LUTs ("approximately half",
    /// §V-A). 0.55 reconciles every calibration point in the paper:
    /// `p_local = 5`/`p_DRAM = 8` at W1A3 with canonicalization (3 and 6
    /// without), and Fig. 18(a)'s "maximum packing degree of two fits in
    /// the local buffer" for W4A4 (whose canonical LUT is 34 KB).
    pub const LUT_BUDGET_FRACTION: f64 = 0.55;

    /// LUT capacity budget within the DRAM bank (≈ 35 MB on UPMEM).
    #[must_use]
    pub fn bank_lut_budget(&self) -> u64 {
        (self.bank_bytes as f64 * self.lut_budget_fraction) as u64
    }

    /// LUT capacity budget within WRAM (≈ 35 KB on UPMEM).
    #[must_use]
    pub fn wram_lut_budget(&self) -> u64 {
        (self.wram_bytes as f64 * self.lut_budget_fraction) as u64
    }
}

impl Default for DpuConfig {
    fn default() -> Self {
        Self::upmem()
    }
}

/// A simulated DPU accumulating a cost ledger.
#[derive(Debug, Clone)]
pub struct Dpu {
    cfg: DpuConfig,
    bank: DramBank,
    ledger: CycleLedger,
}

impl Dpu {
    /// Creates a DPU from a configuration.
    #[must_use]
    pub fn new(cfg: DpuConfig) -> Self {
        let bank = DramBank::new(cfg.timings.clone());
        Dpu {
            cfg,
            bank,
            ledger: CycleLedger::new(),
        }
    }

    /// An UPMEM DPU.
    #[must_use]
    pub fn upmem() -> Self {
        Self::new(DpuConfig::upmem())
    }

    /// The DPU's configuration.
    #[must_use]
    pub fn config(&self) -> &DpuConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Charging API
    // ------------------------------------------------------------------

    /// Streams `bytes` from the DRAM bank into WRAM (row-buffer modelled at
    /// sequential offsets) and charges the time to `cat`.
    pub fn charge_dram_stream(&mut self, bytes: u64, cat: Category) {
        let secs = self.bank.stream_read(0, bytes);
        self.ledger.charge(cat, secs);
        self.ledger.dram_read_bytes += bytes;
    }

    /// Streams `bytes` from WRAM back into the bank.
    pub fn charge_dram_writeback(&mut self, bytes: u64, cat: Category) {
        let secs = self.bank.stream_write(0, bytes);
        self.ledger.charge(cat, secs);
        self.ledger.dram_write_bytes += bytes;
    }

    /// Charges `n` single-issue instructions to `cat`.
    pub fn charge_instrs(&mut self, n: u64, cat: Category) {
        let secs = self.cfg.timings.instruction_seconds(n);
        self.ledger.charge(cat, secs);
        self.ledger.instructions += n;
    }

    /// Charges `n` WRAM word accesses (single-cycle each, already part of an
    /// instruction stream — this only bumps the energy counter plus charges
    /// the instruction time).
    pub fn charge_wram_accesses(&mut self, n: u64, cat: Category) {
        let secs = self.cfg.timings.instruction_seconds(n);
        self.ledger.charge(cat, secs);
        self.ledger.wram_accesses += n;
        self.ledger.instructions += n;
    }

    /// Charges `n` profiled (canonical + reordering) LUT entry-pair streams
    /// from bank to WRAM (`L_D` each) to [`Category::LutLoad`], also counting
    /// the streamed bytes for the energy model.
    pub fn charge_lut_pair_stream(&mut self, n: u64, bytes: u64) {
        let secs = self.cfg.timings.lut_pair_stream_seconds(n);
        self.ledger.charge(Category::LutLoad, secs);
        self.ledger.dram_read_bytes += bytes;
    }

    /// Charges `n` profiled lookup+accumulate composites (`L_local` each),
    /// splitting the 12 instructions across the breakdown categories of
    /// Fig. 16(b).
    pub fn charge_lookup_accum(&mut self, n: u64) {
        let costs = &self.cfg.processor.costs;
        let total = u64::from(costs.lookup_total());
        let l_local = self.cfg.timings.lookup_accum_seconds;
        let per_instr = l_local / total as f64;
        let idx = u64::from(costs.lookup_index_calc);
        let ro = u64::from(costs.lookup_reorder_access);
        let ca = u64::from(costs.lookup_canonical_access);
        let ac = u64::from(costs.lookup_accumulate);
        let nf = n as f64;
        self.ledger
            .charge(Category::IndexCalc, per_instr * idx as f64 * nf);
        self.ledger
            .charge(Category::ReorderLookup, per_instr * ro as f64 * nf);
        self.ledger
            .charge(Category::CanonicalLookup, per_instr * ca as f64 * nf);
        self.ledger
            .charge(Category::Accumulate, per_instr * ac as f64 * nf);
        self.ledger.instructions += n * total;
        // One reordering access + one canonical access per composite.
        self.ledger.wram_accesses += 2 * n;
    }

    /// Current total simulated seconds.
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.ledger.total_seconds()
    }

    /// Snapshot of the ledger as an immutable profile.
    #[must_use]
    pub fn profile(&self) -> Profile {
        Profile::from_ledger(self.ledger.clone())
    }
}

impl Default for Dpu {
    fn default() -> Self {
        Self::upmem()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_approximately_half_capacity() {
        let cfg = DpuConfig::upmem();
        let frac = DpuConfig::LUT_BUDGET_FRACTION;
        assert_eq!(
            cfg.bank_lut_budget(),
            (64.0 * 1024.0 * 1024.0 * frac) as u64
        );
        assert_eq!(cfg.wram_lut_budget(), (64.0 * 1024.0 * frac) as u64);
        // "Approximately half".
        assert!((0.45..0.6).contains(&frac));
    }

    #[test]
    fn lookup_accum_charges_l_local_split() {
        let mut dpu = Dpu::upmem();
        dpu.charge_lookup_accum(1000);
        let p = dpu.profile();
        let l_local = dpu.config().timings.lookup_accum_seconds;
        assert!((p.total_seconds() - 1000.0 * l_local).abs() < 1e-12);
        // Index calc gets 6/12 of the composite.
        assert!((p.seconds(Category::IndexCalc) - 1000.0 * l_local * 6.0 / 12.0).abs() < 1e-12);
        assert!(p.seconds(Category::ReorderLookup) > 0.0);
        assert!(p.seconds(Category::CanonicalLookup) > 0.0);
        assert!(p.seconds(Category::Accumulate) > 0.0);
        assert_eq!(p.ledger().wram_accesses, 2000);
        assert_eq!(p.ledger().instructions, 12_000);
    }

    #[test]
    fn dram_stream_accumulates_bytes() {
        let mut dpu = Dpu::upmem();
        dpu.charge_dram_stream(4096, Category::DataTransfer);
        dpu.charge_dram_writeback(128, Category::OutputWriteback);
        let l = dpu.profile();
        assert_eq!(l.ledger().dram_read_bytes, 4096);
        assert_eq!(l.ledger().dram_write_bytes, 128);
        assert!(l.seconds(Category::DataTransfer) > 0.0);
        assert!(l.seconds(Category::OutputWriteback) > 0.0);
    }

    #[test]
    fn lut_pair_stream_uses_l_d() {
        let mut dpu = Dpu::upmem();
        dpu.charge_lut_pair_stream(1_000_000, 2_000_000);
        let expected = 1e6 * dpu.config().timings.lut_entry_pair_stream_seconds;
        assert!((dpu.elapsed_seconds() - expected).abs() < 1e-9);
        assert_eq!(dpu.profile().ledger().dram_read_bytes, 2_000_000);
    }
}
