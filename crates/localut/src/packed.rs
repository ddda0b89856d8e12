//! Operation-packed LUTs (§III-A): one lookup yields the inner product of
//! `p` weight/activation pairs.
//!
//! The LUT is indexed by a *packed weight row* (the `p` weight codes as
//! radix-`2^bw` digits) and a *packed activation column* (the `p`
//! activation codes as radix-`2^ba` digits), so it has
//! `2^(bw·p) × 2^(ba·p)` entries — the exponential growth that motivates
//! canonicalization. Entries are stored column-major so that a fixed
//! activation vector's slice is contiguous.

use crate::value::{dot_codes, LutValue};
use crate::LocaLutError;
use quant::NumericFormat;

/// Packs `p` codes into a dense radix-`2^bits` index:
/// `Σ codes[i] << (bits · i)`.
///
/// # Panics
///
/// Debug-panics when a code exceeds `bits` or the packed width exceeds 48
/// bits (callers validate via [`check_index_width`]).
#[must_use]
pub fn pack_index(codes: &[u16], bits: u8) -> u64 {
    debug_assert!(u32::from(bits) * codes.len() as u32 <= 48);
    let mut idx = 0u64;
    for (i, &c) in codes.iter().enumerate() {
        debug_assert!(u32::from(c) < (1u32 << bits), "code exceeds bit width");
        idx |= u64::from(c) << (usize::from(bits) * i);
    }
    idx
}

/// Inverse of [`pack_index`].
#[must_use]
pub fn unpack_index(idx: u64, bits: u8, p: u32) -> Vec<u16> {
    let mask = (1u64 << bits) - 1;
    (0..p)
        .map(|i| ((idx >> (u32::from(bits) * i)) & mask) as u16)
        .collect()
}

/// Validates that a `bits × p` packed index fits the implementation's
/// 48-bit index space.
///
/// # Errors
///
/// [`LocaLutError::IndexSpaceTooWide`] otherwise.
pub fn check_index_width(bits: u8, p: u32) -> Result<(), LocaLutError> {
    if p == 0 {
        return Err(LocaLutError::InvalidPackingDegree(p));
    }
    // Widened: `p` can arrive unchecked from a persisted key.
    if u64::from(bits) * u64::from(p) > 48 {
        return Err(LocaLutError::IndexSpaceTooWide { bits, p });
    }
    Ok(())
}

/// A fully materialized operation-packed LUT.
#[derive(Debug, Clone, PartialEq)]
pub struct OpPackedLut<V> {
    wf: NumericFormat,
    af: NumericFormat,
    p: u32,
    rows: u64,
    cols: u64,
    /// Column-major entries: `entries[col * rows + row]`.
    entries: Vec<V>,
}

impl<V: LutValue> OpPackedLut<V> {
    /// Precomputes the LUT for the given formats and packing degree.
    ///
    /// # Errors
    ///
    /// * [`LocaLutError::IndexSpaceTooWide`] when a packed index exceeds 48
    ///   bits.
    /// * [`LocaLutError::BudgetExceeded`] when the entry count exceeds
    ///   `max_entries` (a guard against accidentally materializing the
    ///   exponential table; capacity *accounting* lives in
    ///   [`crate::capacity`]).
    pub fn build(
        wf: NumericFormat,
        af: NumericFormat,
        p: u32,
        max_entries: u64,
    ) -> Result<Self, LocaLutError> {
        check_index_width(wf.bits(), p)?;
        check_index_width(af.bits(), p)?;
        let rows = 1u64 << (u32::from(wf.bits()) * p);
        let cols = 1u64 << (u32::from(af.bits()) * p);
        let total = u128::from(rows) * u128::from(cols);
        if total > u128::from(max_entries) {
            return Err(LocaLutError::BudgetExceeded {
                required: total,
                budget: max_entries,
            });
        }
        let mut entries = Vec::with_capacity(total as usize);
        for col in 0..cols {
            let a_codes = unpack_index(col, af.bits(), p);
            for row in 0..rows {
                let w_codes = unpack_index(row, wf.bits(), p);
                entries.push(dot_codes(wf, af, &w_codes, &a_codes));
            }
        }
        Ok(OpPackedLut {
            wf,
            af,
            p,
            rows,
            cols,
            entries,
        })
    }

    /// The packing degree.
    #[must_use]
    pub fn p(&self) -> u32 {
        self.p
    }

    /// Number of weight rows, `2^(bw·p)`.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of activation columns, `2^(ba·p)`.
    #[must_use]
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Total entry count.
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.rows * self.cols
    }

    /// Weight format.
    #[must_use]
    pub fn weight_format(&self) -> NumericFormat {
        self.wf
    }

    /// Activation format.
    #[must_use]
    pub fn activation_format(&self) -> NumericFormat {
        self.af
    }

    /// Looks up the packed inner product for a packed weight row and packed
    /// activation column.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    #[must_use]
    pub fn lookup(&self, row: u64, col: u64) -> V {
        assert!(row < self.rows && col < self.cols, "LUT index out of range");
        self.entries[(col * self.rows + row) as usize]
    }

    /// One activation column as a contiguous slice, indexed by packed
    /// weight row — the blocked OP loop hoists this per tile column so the
    /// M-pass does a single bounds-checked slice index per lookup.
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of range.
    #[must_use]
    pub fn column_slice(&self, col: u64) -> &[V] {
        assert!(col < self.cols, "LUT column out of range");
        let base = (col * self.rows) as usize;
        &self.entries[base..base + self.rows as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let codes = vec![3u16, 0, 7, 5];
        let idx = pack_index(&codes, 3);
        assert_eq!(unpack_index(idx, 3, 4), codes);
        assert_eq!(pack_index(&[1, 1, 1], 1), 0b111);
        assert_eq!(pack_index(&[1, 0, 0], 1), 0b001);
    }

    #[test]
    fn check_index_width_limits() {
        assert!(check_index_width(3, 16).is_ok()); // 48 bits
        assert!(check_index_width(3, 17).is_err());
        assert!(check_index_width(16, 4).is_err()); // 64 > 48
        assert!(check_index_width(1, 0).is_err());
    }

    #[test]
    fn paper_fig2_example() {
        // Fig. 2: p=3, 1-bit weights {0,1}-style (we model W1 as bipolar;
        // use Uint(1) here to match the figure's literal values), 3-bit
        // activations. w=[0,0,1], a=[3,0,2] → 0·3 + 0·0 + 1·2 = 2.
        let lut =
            OpPackedLut::<i32>::build(NumericFormat::Uint(1), NumericFormat::Int(3), 3, 1 << 20)
                .unwrap();
        assert_eq!(lut.rows(), 8);
        assert_eq!(lut.cols(), 512);
        let row = pack_index(&[0, 0, 1], 1);
        let col = pack_index(&[3, 0, 2], 3);
        assert_eq!(lut.lookup(row, col), 2);
    }

    #[test]
    fn every_entry_matches_direct_dot() {
        let wf = NumericFormat::Int(2);
        let af = NumericFormat::Int(2);
        let lut = OpPackedLut::<i32>::build(wf, af, 2, 1 << 20).unwrap();
        for row in 0..lut.rows() {
            for col in 0..lut.cols() {
                let w = unpack_index(row, 2, 2);
                let a = unpack_index(col, 2, 2);
                let expect: i32 = dot_codes(wf, af, &w, &a);
                assert_eq!(lut.lookup(row, col), expect);
            }
        }
    }

    #[test]
    fn budget_guard_prevents_explosion() {
        let err = OpPackedLut::<i32>::build(NumericFormat::Int(4), NumericFormat::Int(4), 4, 1024)
            .unwrap_err();
        assert!(matches!(err, LocaLutError::BudgetExceeded { .. }));
    }

    #[test]
    fn float_lut_entries() {
        let lut =
            OpPackedLut::<f32>::build(NumericFormat::Fp4, NumericFormat::Fp4, 1, 1 << 12).unwrap();
        // code 7 = 6.0, code 5 = 3.0 → 18.0
        assert!(lut.lookup(7, 5).approx_eq(18.0));
    }

    #[test]
    #[should_panic(expected = "LUT index out of range")]
    fn lookup_out_of_range_panics() {
        let lut = OpPackedLut::<i32>::build(NumericFormat::Bipolar, NumericFormat::Int(2), 1, 64)
            .unwrap();
        let _ = lut.lookup(2, 0);
    }
}
