//! The canonical LUT (§IV-A): operation-packed entries with duplicate
//! activation permutations removed.
//!
//! The inner product is invariant under any joint permutation of the weight
//! and activation vectors, so the operation-packed LUT stores each multiset
//! of activations `p!`-ish times (Fig. 4a). The canonical LUT keeps only the
//! sorted representative: its columns are indexed by the *multiset rank* of
//! the sorted activation vector, shrinking the column count from `2^(ba·p)`
//! to `C(2^ba + p − 1, p)` (Eq. 1).
//!
//! Entries are column-major: `column_slice(col)` is exactly the contiguous
//! "slice" that LUT slice streaming (§IV-C) moves from the DRAM bank into
//! the local buffer.

use crate::multiset;
use crate::packed::check_index_width;
use crate::value::LutValue;
use crate::LocaLutError;
use quant::NumericFormat;

/// A fully materialized canonical LUT.
///
/// # Examples
///
/// ```
/// use localut::canonical::CanonicalLut;
/// use localut::packed::pack_index;
/// use localut::perm::{apply, sort_permutation};
/// use quant::NumericFormat;
///
/// // Fig. 4: W1A3 at p = 3 — 8 weight rows x 120 canonical columns.
/// let lut = CanonicalLut::<i32>::build(
///     NumericFormat::Uint(1), NumericFormat::Int(3), 3, 1 << 20)?;
/// assert_eq!((lut.rows(), lut.cols()), (8, 120));
///
/// // Look up w=[0,0,1] . a=[3,0,2] = 2 through canonicalization.
/// let perm = sort_permutation(&[3, 0, 2]);
/// let col = lut.column_of(&apply(&perm, &[3, 0, 2]))?;
/// let row = pack_index(&apply(&perm, &[0, 0, 1]), 1);
/// assert_eq!(lut.lookup(row, col), 2);
/// # Ok::<(), localut::LocaLutError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalLut<V> {
    wf: NumericFormat,
    af: NumericFormat,
    p: u32,
    rows: u64,
    cols: u64,
    /// Column-major entries: `entries[col * rows + row]`.
    entries: Vec<V>,
}

impl<V: LutValue> CanonicalLut<V> {
    /// `(rows, cols)` of the canonical LUT for `(wf, af, p)`:
    /// `2^(bw·p)` packed weight rows by `C(2^ba + p − 1, p)` sorted
    /// activation multisets (Eq. 1) — what [`CanonicalLut::build`]
    /// materializes, derived without building it.
    ///
    /// # Errors
    ///
    /// * [`LocaLutError::IndexSpaceTooWide`] when a packed index exceeds
    ///   48 bits.
    /// * [`LocaLutError::InvalidPackingDegree`] when the column count
    ///   overflows.
    pub fn shape(wf: NumericFormat, af: NumericFormat, p: u32) -> Result<(u64, u64), LocaLutError> {
        check_index_width(wf.bits(), p)?;
        check_index_width(af.bits(), p)?;
        let rows = 1u64 << (u32::from(wf.bits()) * p);
        let cols = multiset::multiset_count(u64::from(af.code_space()), p)
            .and_then(|cols| u64::try_from(cols).ok())
            .ok_or(LocaLutError::InvalidPackingDegree(p))?;
        Ok((rows, cols))
    }

    /// Precomputes the canonical LUT.
    ///
    /// # Errors
    ///
    /// * [`LocaLutError::IndexSpaceTooWide`] when the packed weight index
    ///   exceeds 48 bits.
    /// * [`LocaLutError::BudgetExceeded`] when the entry count exceeds
    ///   `max_entries`.
    pub fn build(
        wf: NumericFormat,
        af: NumericFormat,
        p: u32,
        max_entries: u64,
    ) -> Result<Self, LocaLutError> {
        let (rows, cols) = Self::shape(wf, af, p)?;
        let n_codes = u64::from(af.code_space());
        let total = u128::from(rows) * u128::from(cols);
        if total > u128::from(max_entries) {
            return Err(LocaLutError::BudgetExceeded {
                required: total,
                budget: max_entries,
            });
        }
        // Decode tables hoisted out of the per-entry loop: a weight field
        // has only `2^bw` codes and a column only `p` activation codes, so
        // each entry reduces to `p` table lookups accumulated in the same
        // order as [`dot_codes`] (bitwise-identical entries). Unpacking and
        // re-decoding per entry would allocate and decode millions of times.
        let wbits = wf.bits();
        let wmask = (1u64 << wbits) - 1;
        let wvals: Vec<V> = (0..(1u64 << wbits))
            .map(|c| V::decode(wf, c as u32))
            .collect();
        let mut entries = vec![V::default(); total as usize];
        let mut avals: Vec<V> = Vec::with_capacity(p as usize);
        for (col, column) in entries.chunks_exact_mut(rows as usize).enumerate() {
            let a_codes = multiset::unrank(col as u64, n_codes, p)?;
            avals.clear();
            avals.extend(a_codes.iter().map(|&a| V::decode(af, u32::from(a))));
            for (row, entry) in column.iter_mut().enumerate() {
                let row = row as u64;
                let mut acc = V::default();
                for (j, &av) in avals.iter().enumerate() {
                    let wc = ((row >> (u32::from(wbits) * j as u32)) & wmask) as usize;
                    acc += wvals[wc].mul(av);
                }
                *entry = acc;
            }
        }
        Ok(CanonicalLut {
            wf,
            af,
            p,
            rows,
            cols,
            entries,
        })
    }

    /// Reassembles a LUT from previously materialized column-major
    /// entries (a persisted image, a broadcast copy). The shape is
    /// re-derived from `(wf, af, p)` exactly as [`CanonicalLut::build`]
    /// derives it, so a reassembled LUT is structurally indistinguishable
    /// from a fresh build — callers remain responsible for the entry
    /// *values* (persistence layers checksum them).
    ///
    /// # Errors
    ///
    /// * [`LocaLutError::IndexSpaceTooWide`] /
    ///   [`LocaLutError::InvalidPackingDegree`] as in `build`.
    /// * [`LocaLutError::UnsupportedFormat`] when `entries.len()` does
    ///   not match the `2^(bw·p) · C(2^ba + p − 1, p)` shape.
    pub fn from_parts(
        wf: NumericFormat,
        af: NumericFormat,
        p: u32,
        entries: Vec<V>,
    ) -> Result<Self, LocaLutError> {
        let (rows, cols) = Self::shape(wf, af, p)?;
        if u128::from(rows) * u128::from(cols) != entries.len() as u128 {
            return Err(LocaLutError::UnsupportedFormat(
                "canonical LUT entry count does not match the (wf, af, p) shape",
            ));
        }
        Ok(CanonicalLut {
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

    /// The raw column-major entry storage (`entries[col * rows + row]`),
    /// for persistence layers that serialize the image.
    #[must_use]
    pub fn entries(&self) -> &[V] {
        &self.entries
    }

    /// Number of weight rows, `2^(bw·p)`.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of canonical columns, `C(2^ba + p − 1, p)`.
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

    /// Column index for a *sorted* activation code vector.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::multiset::rank`] errors on unsorted or
    /// out-of-range codes.
    pub fn column_of(&self, sorted_codes: &[u16]) -> Result<u64, LocaLutError> {
        multiset::rank(sorted_codes, u64::from(self.af.code_space()))
    }

    /// Looks up the inner product for a packed (canonically reordered)
    /// weight row and a canonical column.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    #[must_use]
    pub fn lookup(&self, row: u64, col: u64) -> V {
        assert!(row < self.rows && col < self.cols, "LUT index out of range");
        self.entries[(col * self.rows + row) as usize]
    }

    /// The contiguous column slice streamed by §IV-C (one entry per packed
    /// weight row).
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of range.
    #[must_use]
    pub fn column_slice(&self, col: u64) -> &[V] {
        assert!(col < self.cols, "LUT column out of range");
        let start = (col * self.rows) as usize;
        &self.entries[start..start + self.rows as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{pack_index, unpack_index, OpPackedLut};
    use crate::perm::{apply, sort_permutation};
    use crate::value::dot_codes;

    #[test]
    fn paper_fig4_example() {
        // p=3, 1-bit weights (figure uses {0,1} values → Uint(1)), 3-bit
        // activations. a=[3,0,2] sorts to [0,2,3]; weights [0,0,1] reorder
        // to [0,1,0]; the looked-up value must be 2.
        let lut =
            CanonicalLut::<i32>::build(NumericFormat::Uint(1), NumericFormat::Int(3), 3, 1 << 20)
                .unwrap();
        assert_eq!(lut.rows(), 8);
        assert_eq!(lut.cols(), 120); // C(10, 3)

        let a = [3u16, 0, 2];
        let w = [0u16, 0, 1];
        let perm = sort_permutation(&a);
        let sorted_a = apply(&perm, &a);
        let reordered_w = apply(&perm, &w);
        let col = lut.column_of(&sorted_a).unwrap();
        let row = pack_index(&reordered_w, 1);
        assert_eq!(lut.lookup(row, col), 2);
    }

    #[test]
    fn canonicalization_is_invariant_under_joint_permutation() {
        // The core §IV-A claim: for any permutation of (w, a) pairs, the
        // canonical lookup yields the same inner product.
        let wf = NumericFormat::Int(2);
        let af = NumericFormat::Int(3);
        let lut = CanonicalLut::<i32>::build(wf, af, 3, 1 << 22).unwrap();
        let w = [1u16, 3, 2]; // int2 decoded: 1, -1, -2
        let a = [3u16, 0, 6];
        let expect: i32 = dot_codes(wf, af, &w, &a);
        let perms: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for pi in perms {
            let wp: Vec<u16> = pi.iter().map(|&i| w[i]).collect();
            let ap: Vec<u16> = pi.iter().map(|&i| a[i]).collect();
            let sort = sort_permutation(&ap);
            let sorted_a = apply(&sort, &ap);
            let reordered_w = apply(&sort, &wp);
            let col = lut.column_of(&sorted_a).unwrap();
            let row = pack_index(&reordered_w, 2);
            assert_eq!(lut.lookup(row, col), expect, "perm {pi:?}");
        }
    }

    #[test]
    fn agrees_with_op_packed_lut_everywhere() {
        let wf = NumericFormat::Bipolar;
        let af = NumericFormat::Int(2);
        let p = 3;
        let op = OpPackedLut::<i32>::build(wf, af, p, 1 << 20).unwrap();
        let canon = CanonicalLut::<i32>::build(wf, af, p, 1 << 20).unwrap();
        // For every (row, col) of the op-packed LUT, sorting the activation
        // codes and reordering the weight codes identically must find the
        // same value in the canonical LUT.
        for col in 0..op.cols() {
            let a_codes = unpack_index(col, af.bits(), p);
            let sort = sort_permutation(&a_codes);
            let sorted_a = apply(&sort, &a_codes);
            let ccol = canon.column_of(&sorted_a).unwrap();
            for row in 0..op.rows() {
                let w_codes = unpack_index(row, wf.bits(), p);
                let reordered = apply(&sort, &w_codes);
                let crow = pack_index(&reordered, wf.bits());
                assert_eq!(op.lookup(row, col), canon.lookup(crow, ccol));
            }
        }
    }

    #[test]
    fn column_count_is_smaller_than_op_packed() {
        // Eq. 1: column reduction 2^(ba·p) → C(2^ba+p−1, p).
        let canon =
            CanonicalLut::<i32>::build(NumericFormat::Bipolar, NumericFormat::Int(3), 4, 1 << 22)
                .unwrap();
        assert_eq!(canon.cols(), 330); // C(11, 4)
        assert!(canon.cols() < (1u64 << 12));
        let reduction = (1u64 << 12) as f64 / canon.cols() as f64;
        assert!((reduction - 12.4).abs() < 0.05, "§IV-A: 12.4x at p=4");
    }

    #[test]
    fn column_slice_is_contiguous_row_indexed() {
        let lut =
            CanonicalLut::<i32>::build(NumericFormat::Uint(1), NumericFormat::Int(2), 2, 1 << 16)
                .unwrap();
        for col in 0..lut.cols() {
            let slice = lut.column_slice(col);
            assert_eq!(slice.len() as u64, lut.rows());
            for row in 0..lut.rows() {
                assert_eq!(slice[row as usize], lut.lookup(row, col));
            }
        }
    }

    #[test]
    fn budget_guard() {
        let err = CanonicalLut::<i32>::build(NumericFormat::Int(4), NumericFormat::Int(4), 4, 100)
            .unwrap_err();
        assert!(matches!(err, LocaLutError::BudgetExceeded { .. }));
    }
}
