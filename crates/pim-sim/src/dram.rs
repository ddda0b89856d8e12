//! DRAM bank model: a row-buffer locality model and streaming transfer
//! costs.
//!
//! A near-bank DPU owns one 64 MB DRAM bank (§II-A). This module models its
//! bandwidth: streaming reads/writes through the DMA engine at 0.5 B/cycle,
//! with a row-activation charge when a transfer crosses DRAM rows. Its
//! capacity is a budget ([`crate::DpuConfig::bank_lut_budget`]), not state.

use crate::timing::DpuTimings;

/// One DRAM bank attached to a DPU.
#[derive(Debug, Clone)]
pub struct DramBank {
    open_row: Option<u64>,
    row_activations: u64,
    timings: DpuTimings,
}

impl DramBank {
    /// Creates a bank streaming at the given timings.
    #[must_use]
    pub fn new(timings: DpuTimings) -> Self {
        DramBank {
            open_row: None,
            row_activations: 0,
            timings,
        }
    }

    /// A 64 MB UPMEM bank.
    #[must_use]
    pub fn upmem() -> Self {
        Self::new(DpuTimings::upmem())
    }

    /// Seconds to stream `bytes` starting at `offset` out of the bank,
    /// including row activations for every row the transfer touches that is
    /// not already open.
    pub fn stream_read(&mut self, offset: u64, bytes: u64) -> f64 {
        self.stream_access(offset, bytes)
    }

    /// Seconds to stream `bytes` into the bank at `offset` (writes share the
    /// read timing in this model; DRAM write recovery is folded into the
    /// per-byte rate).
    pub fn stream_write(&mut self, offset: u64, bytes: u64) -> f64 {
        self.stream_access(offset, bytes)
    }

    fn stream_access(&mut self, offset: u64, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let row_bytes = self.timings.dram_row_bytes;
        let first_row = offset / row_bytes;
        let last_row = (offset + bytes - 1) / row_bytes;
        // Sequential streaming opens each touched row once; the first row is
        // free if it is already open.
        let activations = last_row - first_row + 1 - u64::from(self.open_row == Some(first_row));
        self.open_row = Some(last_row);
        self.row_activations += activations;
        let act_seconds =
            activations as f64 * self.timings.row_activate_cycles * self.timings.cycle_seconds();
        self.timings.dram_stream_seconds(bytes) + act_seconds
    }

    /// Number of row activations performed so far (a locality statistic).
    #[must_use]
    pub fn row_activations(&self) -> u64 {
        self.row_activations
    }
}

impl Default for DramBank {
    fn default() -> Self {
        Self::upmem()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-by-row walk the closed form in `stream_access` replaced,
    /// kept here as its reference.
    fn stream_access_by_loop(bank: &mut DramBank, offset: u64, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let t = bank.timings.clone();
        let first_row = offset / t.dram_row_bytes;
        let last_row = (offset + bytes - 1) / t.dram_row_bytes;
        let mut activations = 0u64;
        for row in first_row..=last_row {
            if bank.open_row != Some(row) {
                activations += 1;
            }
            bank.open_row = Some(row);
        }
        bank.row_activations += activations;
        let act_seconds = activations as f64 * t.row_activate_cycles * t.cycle_seconds();
        t.dram_stream_seconds(bytes) + act_seconds
    }

    #[test]
    fn closed_form_activations_equal_the_row_walk() {
        let row = DpuTimings::upmem().dram_row_bytes;
        for open_row in [None, Some(0), Some(7)] {
            for bytes in [0, 1, row - 1, row, row + 1, 64 * row, 1_179_648] {
                let mut closed = DramBank::upmem();
                closed.open_row = open_row;
                let mut walked = closed.clone();
                let secs = closed.stream_read(0, bytes);
                let expect = stream_access_by_loop(&mut walked, 0, bytes);
                let case = format!("open_row {open_row:?}, {bytes} bytes");
                assert_eq!(secs.to_bits(), expect.to_bits(), "{case}");
                assert_eq!(closed.open_row, walked.open_row, "{case}");
                assert_eq!(closed.row_activations(), walked.row_activations(), "{case}");
            }
        }
    }

    #[test]
    fn stream_read_charges_row_activations() {
        let mut bank = DramBank::upmem();
        let t = DpuTimings::upmem();
        // Read spanning exactly 2 rows from a cold bank: 2 activations.
        let secs = bank.stream_read(0, 2 * t.dram_row_bytes);
        assert_eq!(bank.row_activations(), 2);
        let expected = t.dram_stream_seconds(2 * t.dram_row_bytes)
            + 2.0 * t.row_activate_cycles * t.cycle_seconds();
        assert!((secs - expected).abs() < 1e-15);
        // Re-reading the last row is activation-free.
        bank.stream_read(t.dram_row_bytes, 16);
        assert_eq!(bank.row_activations(), 2);
    }

    #[test]
    fn sequential_reads_reuse_open_row() {
        let mut bank = DramBank::upmem();
        bank.stream_read(0, 64);
        bank.stream_read(64, 64);
        bank.stream_read(128, 64);
        // All within the first 1 KiB row.
        assert_eq!(bank.row_activations(), 1);
    }

    #[test]
    fn zero_byte_access_is_free() {
        let mut bank = DramBank::upmem();
        assert_eq!(bank.stream_read(0, 0), 0.0);
        assert_eq!(bank.row_activations(), 0);
    }

    #[test]
    fn writes_cost_like_reads() {
        let mut a = DramBank::upmem();
        let mut b = DramBank::upmem();
        let r = a.stream_read(0, 4096);
        let w = b.stream_write(0, 4096);
        assert!((r - w).abs() < 1e-15);
    }
}
