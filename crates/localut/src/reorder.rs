//! The reordering LUT (§IV-B): weight reordering as a single lookup.
//!
//! Canonicalization requires permuting the packed weight vector by the
//! activation's sorting permutation — unpack, permute, repack is expensive
//! on the feeble DPU core. The reordering LUT precomputes it: indexed by
//! the packed weight row and the sorting-permutation id (Lehmer rank), each
//! entry is the already-reordered packed weight row, ready to index the
//! canonical LUT. It has `p!` columns and `2^(bw·p)` rows.

use crate::packed::check_index_width;
use crate::perm::{factorial, lehmer_unrank};
use crate::LocaLutError;
use std::ops::BitOr;

/// The materialized entries of a [`ReorderLut`], column-major
/// (`entries[perm_id * rows + row]`), at the narrowest host integer that
/// holds an entry's `bits · p` bits. A reordered row is itself a packed
/// weight row, so it is never wider than the row index; the
/// materialization guard keeps that index far below 32 bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReorderEntries {
    /// `bits · p ≤ 8`.
    U8(Vec<u8>),
    /// `8 < bits · p ≤ 16`.
    U16(Vec<u16>),
    /// `16 < bits · p ≤ 32`.
    U32(Vec<u32>),
}

impl ReorderEntries {
    /// Number of entries.
    fn len(&self) -> usize {
        match self {
            ReorderEntries::U8(e) => e.len(),
            ReorderEntries::U16(e) => e.len(),
            ReorderEntries::U32(e) => e.len(),
        }
    }

    /// Host bytes one entry of this variant occupies (1, 2 or 4).
    #[must_use]
    pub fn entry_bytes(&self) -> u64 {
        match self {
            ReorderEntries::U8(_) => 1,
            ReorderEntries::U16(_) => 2,
            ReorderEntries::U32(_) => 4,
        }
    }

    /// Appends every entry, little-endian at its stored width — the
    /// persisted form [`ReorderEntries::from_le_bytes`] reads back.
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        match self {
            ReorderEntries::U8(e) => out.extend_from_slice(e),
            ReorderEntries::U16(e) => out.extend(e.iter().flat_map(|v| v.to_le_bytes())),
            ReorderEntries::U32(e) => out.extend(e.iter().flat_map(|v| v.to_le_bytes())),
        }
    }

    /// Decodes entries stored little-endian at `entry_bytes` (1, 2 or 4)
    /// each; `None` for any other width or a ragged byte count.
    #[must_use]
    pub fn from_le_bytes(entry_bytes: u64, bytes: &[u8]) -> Option<Self> {
        if !matches!(entry_bytes, 1 | 2 | 4) || !bytes.len().is_multiple_of(entry_bytes as usize) {
            return None;
        }
        Some(match entry_bytes {
            1 => ReorderEntries::U8(bytes.to_vec()),
            2 => ReorderEntries::U16(
                bytes
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes([c[0], c[1]]))
                    .collect(),
            ),
            _ => ReorderEntries::U32(
                bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            ),
        })
    }
}

/// A fully materialized reordering LUT.
///
/// # Examples
///
/// ```
/// use localut::reorder::ReorderLut;
/// use localut::packed::{pack_index, unpack_index};
/// use localut::perm::{lehmer_rank, sort_permutation};
///
/// // Fig. 5: weights [0,0,1] under the sorting permutation of
/// // activations [3,0,2] reorder to [0,1,0] — in one lookup.
/// let lut = ReorderLut::build(1, 3, 1 << 16)?;
/// let perm_id = lehmer_rank(&sort_permutation(&[3, 0, 2]))?;
/// let reordered = lut.lookup(pack_index(&[0, 0, 1], 1), perm_id);
/// assert_eq!(unpack_index(reordered, 1, 3), vec![0, 1, 0]);
/// # Ok::<(), localut::LocaLutError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderLut {
    bits: u8,
    p: u32,
    rows: u64,
    cols: u64,
    entries: ReorderEntries,
}

impl ReorderLut {
    /// `(rows, cols)` of the reordering LUT for `bits`-wide codes packed
    /// `p` at a time: `2^(bits·p)` packed weight rows by `p!`
    /// permutations — derived without building it.
    ///
    /// # Errors
    ///
    /// * [`LocaLutError::IndexSpaceTooWide`] when the packed weight index
    ///   exceeds 48 bits.
    /// * [`LocaLutError::InvalidPackingDegree`] when `p!` overflows.
    pub fn shape(bits: u8, p: u32) -> Result<(u64, u64), LocaLutError> {
        check_index_width(bits, p)?;
        let rows = 1u64 << (u32::from(bits) * p);
        let cols = factorial(p).ok_or(LocaLutError::InvalidPackingDegree(p))?;
        Ok((rows, cols))
    }

    /// Precomputes the reordering LUT for `bits`-wide weight codes packed
    /// `p` at a time.
    ///
    /// # Errors
    ///
    /// * [`LocaLutError::IndexSpaceTooWide`] when the packed weight index
    ///   exceeds 48 bits, or passes `max_entries` and still exceeds the
    ///   32 bits the widest stored entry holds.
    /// * [`LocaLutError::BudgetExceeded`] when `2^(bits·p) · p!` exceeds
    ///   `max_entries`.
    pub fn build(bits: u8, p: u32, max_entries: u64) -> Result<Self, LocaLutError> {
        let (rows, cols) = Self::shape(bits, p)?;
        let total = u128::from(rows) * u128::from(cols);
        if total > u128::from(max_entries) {
            return Err(LocaLutError::BudgetExceeded {
                required: total,
                budget: max_entries,
            });
        }
        let entries = match Self::stored_entry_bytes(bits, p)? {
            1 => ReorderEntries::U8(build_entries(bits, p, rows, cols)?),
            2 => ReorderEntries::U16(build_entries(bits, p, rows, cols)?),
            _ => ReorderEntries::U32(build_entries(bits, p, rows, cols)?),
        };
        Ok(ReorderLut {
            bits,
            p,
            rows,
            cols,
            entries,
        })
    }

    /// Reassembles a LUT from previously materialized column-major
    /// entries (a persisted image). The shape is re-derived from
    /// `(bits, p)` exactly as [`ReorderLut::build`] derives it; callers
    /// remain responsible for the entry *values* (persistence layers
    /// checksum them).
    ///
    /// # Errors
    ///
    /// * [`LocaLutError::IndexSpaceTooWide`] /
    ///   [`LocaLutError::InvalidPackingDegree`] as in `build`.
    /// * [`LocaLutError::UnsupportedFormat`] when `entries` is not the
    ///   `2^(bits·p) · p!` shape at the width `build` stores.
    pub fn from_parts(bits: u8, p: u32, entries: ReorderEntries) -> Result<Self, LocaLutError> {
        let (rows, cols) = Self::shape(bits, p)?;
        if u128::from(rows) * u128::from(cols) != entries.len() as u128
            || Self::stored_entry_bytes(bits, p)? != entries.entry_bytes()
        {
            return Err(LocaLutError::UnsupportedFormat(
                "reordering LUT entries do not match the (bits, p) shape and width",
            ));
        }
        Ok(ReorderLut {
            bits,
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

    /// The raw column-major entry storage (`entries[perm_id * rows + row]`)
    /// — what the gather kernels index (width matched once per run) and
    /// persistence layers serialize.
    #[must_use]
    pub fn entries(&self) -> &ReorderEntries {
        &self.entries
    }

    /// Weight code bitwidth.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of packed weight rows, `2^(bits·p)`.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of permutation columns, `p!`.
    #[must_use]
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Total entry count.
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.rows * self.cols
    }

    /// Bytes per entry **as the paper models it** (`ceil(bits·p / 8)`,
    /// §IV-B): the width of the bank image ([`ReorderLut::image_bytes`])
    /// and of every capacity formula. The host stores entries at
    /// [`ReorderLut::stored_entry_bytes`], which rounds this up to a
    /// native integer; the LUT cache budgets neither (see
    /// `SharedLuts::resident_bytes`).
    #[must_use]
    pub fn entry_bytes(&self) -> u64 {
        u64::from(u32::from(self.bits) * self.p).div_ceil(8)
    }

    /// Bytes per entry **as this host stores it**: the narrowest of 1, 2
    /// or 4 holding `bits · p` bits — a pure function of the key, so a
    /// persisted image's size can be derived before it is read.
    ///
    /// # Errors
    ///
    /// [`LocaLutError::IndexSpaceTooWide`] beyond 32 bits.
    pub fn stored_entry_bytes(bits: u8, p: u32) -> Result<u64, LocaLutError> {
        match u64::from(bits) * u64::from(p) {
            0..=8 => Ok(1),
            9..=16 => Ok(2),
            17..=32 => Ok(4),
            _ => Err(LocaLutError::IndexSpaceTooWide { bits, p }),
        }
    }

    /// Looks up the reordered packed weight row for a permutation id.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    #[must_use]
    pub fn lookup(&self, row: u64, perm_id: u64) -> u64 {
        assert!(
            row < self.rows && perm_id < self.cols,
            "reordering LUT index out of range"
        );
        let at = (perm_id * self.rows + row) as usize;
        match &self.entries {
            ReorderEntries::U8(e) => u64::from(e[at]),
            ReorderEntries::U16(e) => u64::from(e[at]),
            ReorderEntries::U32(e) => u64::from(e[at]),
        }
    }

    /// The entries of one permutation id's column (the slice streamed
    /// alongside the canonical slice in §IV-C), widened to `u64`.
    ///
    /// # Panics
    ///
    /// Panics when `perm_id` is out of range.
    pub fn column(&self, perm_id: u64) -> impl Iterator<Item = u64> + '_ {
        assert!(perm_id < self.cols, "reordering LUT column out of range");
        (0..self.rows).map(move |row| self.lookup(row, perm_id))
    }
}

/// Materializes all `rows · cols` entries at width `E`.
fn build_entries<E>(bits: u8, p: u32, rows: u64, cols: u64) -> Result<Vec<E>, LocaLutError>
where
    E: Copy + Default + TryFrom<u64> + BitOr<Output = E>,
{
    // Each column is a fixed shuffle of the row index's `p` bit-fields
    // (`entry = Σ_j codes[perm[j]] << bits·j`). Going through
    // unpack/apply/pack would allocate twice per entry — ~20 M
    // allocations at `p = 8` — and dominate the host launch cost.
    // Because the shuffle is independent per field, the contributions of
    // the low `h` and high `p − h` input fields are precomputed into two
    // small tables per column, reducing each entry to two lookups.
    let bits_u = u32::from(bits);
    let mask = (1u64 << bits) - 1;
    let h = p / 2;
    let lo_bits = bits_u * h;
    let lo_rows = 1u64 << lo_bits;
    // A shuffle of `p` fields stays within the `bits · p` bits `E` holds.
    let narrow = |packed: u64| {
        E::try_from(packed)
            .ok()
            .expect("a shuffled row fits the entry width")
    };
    let mut tlo = vec![E::default(); lo_rows as usize];
    let mut thi = vec![E::default(); (rows >> lo_bits) as usize];
    let mut dst_shift = vec![0u32; p as usize];
    let mut entries = vec![E::default(); (rows * cols) as usize];
    for (perm_id, column) in entries.chunks_exact_mut(rows as usize).enumerate() {
        let perm = lehmer_unrank(perm_id as u64, p)?;
        // dst_shift[src] is where input field `src` lands in the output.
        for (j, &src) in perm.iter().enumerate() {
            dst_shift[usize::from(src)] = bits_u * j as u32;
        }
        for (v, t) in tlo.iter_mut().enumerate() {
            let mut packed = 0u64;
            for (src, &dst) in dst_shift[..h as usize].iter().enumerate() {
                packed |= ((v as u64 >> (bits_u * src as u32)) & mask) << dst;
            }
            *t = narrow(packed);
        }
        for (v, t) in thi.iter_mut().enumerate() {
            let mut packed = 0u64;
            for (src, &dst) in dst_shift[h as usize..].iter().enumerate() {
                packed |= ((v as u64 >> (bits_u * src as u32)) & mask) << dst;
            }
            *t = narrow(packed);
        }
        for (block, &base) in column.chunks_exact_mut(lo_rows as usize).zip(thi.iter()) {
            for (entry, &lo) in block.iter_mut().zip(tlo.iter()) {
                *entry = base | lo;
            }
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{pack_index, unpack_index};
    use crate::perm::{apply, lehmer_rank, sort_permutation};

    #[test]
    fn shape_matches_formulas() {
        let lut = ReorderLut::build(1, 4, 1 << 20).unwrap();
        assert_eq!(lut.rows(), 16);
        assert_eq!(lut.cols(), 24); // 4!
        assert_eq!(lut.entry_count(), 384);
        assert_eq!(lut.entry_bytes(), 1); // 4 bits -> 1 byte
        let wide = ReorderLut::build(4, 3, 1 << 20).unwrap();
        assert_eq!(wide.entry_bytes(), 2); // 12 bits -> 2 bytes
    }

    #[test]
    fn identity_permutation_is_identity_map() {
        let lut = ReorderLut::build(2, 3, 1 << 20).unwrap();
        let id_rank = lehmer_rank(&[0, 1, 2]).unwrap();
        for row in 0..lut.rows() {
            assert_eq!(lut.lookup(row, id_rank), row);
        }
    }

    #[test]
    fn paper_fig5_example() {
        // Fig. 5: weights [0,0,1] with the sorting permutation of
        // activations [3,0,2] (perm [1,2,0]) reorder to [0,1,0].
        let lut = ReorderLut::build(1, 3, 1 << 16).unwrap();
        let a = [3u16, 0, 2];
        let perm = sort_permutation(&a);
        let perm_id = lehmer_rank(&perm).unwrap();
        let row = pack_index(&[0, 0, 1], 1);
        let reordered = lut.lookup(row, perm_id);
        assert_eq!(unpack_index(reordered, 1, 3), vec![0, 1, 0]);
    }

    #[test]
    fn lookup_agrees_with_software_reorder_everywhere() {
        let lut = ReorderLut::build(2, 3, 1 << 20).unwrap();
        for perm_id in 0..lut.cols() {
            let perm = lehmer_unrank(perm_id, 3).unwrap();
            for row in 0..lut.rows() {
                let codes = unpack_index(row, 2, 3);
                let expect = pack_index(&apply(&perm, &codes), 2);
                assert_eq!(lut.lookup(row, perm_id), expect);
            }
        }
    }

    /// One `(bits, p)` per stored width, and the boundaries between them.
    #[test]
    fn entries_are_stored_at_the_narrowest_width() {
        for (bits, p, width) in [
            (1u8, 8u32, 1u64),
            (2, 4, 1),
            (3, 3, 2),
            (2, 5, 2),
            (9, 2, 4),
        ] {
            let lut = ReorderLut::build(bits, p, 1 << 24).unwrap();
            assert_eq!(ReorderLut::stored_entry_bytes(bits, p).unwrap(), width);
            assert_eq!(lut.entries().entry_bytes(), width, "({bits}, {p})");
            assert_eq!(lut.entries().len() as u64, lut.entry_count());
            assert!(lut.entry_bytes() <= width, "modelled <= stored");
        }
        assert!(matches!(
            ReorderLut::stored_entry_bytes(11, 3),
            Err(LocaLutError::IndexSpaceTooWide { bits: 11, p: 3 })
        ));
        // Too wide to store, but the budget guard answers first, as before.
        assert!(matches!(
            ReorderLut::build(11, 3, 1 << 26),
            Err(LocaLutError::BudgetExceeded { .. })
        ));
    }

    /// `lookup`, `column` and the software reorder agree at every width.
    #[test]
    fn lookup_and_column_agree_across_widths() {
        for (bits, p) in [(1u8, 3u32), (2, 5), (9, 2)] {
            let lut = ReorderLut::build(bits, p, 1 << 24).unwrap();
            // Every row of the narrow images, a stride of the wide one.
            let step = (lut.rows() / 1024).max(1) as usize;
            for perm_id in 0..lut.cols() {
                let perm = lehmer_unrank(perm_id, p).unwrap();
                let column: Vec<u64> = lut.column(perm_id).collect();
                assert_eq!(column.len() as u64, lut.rows());
                for row in (0..lut.rows()).step_by(step) {
                    let expect = pack_index(&apply(&perm, &unpack_index(row, bits, p)), bits);
                    assert_eq!(lut.lookup(row, perm_id), expect, "({bits}, {p})");
                    assert_eq!(column[row as usize], expect, "({bits}, {p})");
                }
            }
        }
    }

    #[test]
    fn entries_round_trip_through_le_bytes_and_from_parts() {
        for (bits, p) in [(1u8, 4u32), (2, 5), (9, 2)] {
            let lut = ReorderLut::build(bits, p, 1 << 24).unwrap();
            let width = lut.entries().entry_bytes();
            let mut bytes = Vec::new();
            lut.entries().extend_le_bytes(&mut bytes);
            assert_eq!(bytes.len() as u64, lut.entry_count() * width);
            let entries = ReorderEntries::from_le_bytes(width, &bytes).unwrap();
            assert_eq!(ReorderLut::from_parts(bits, p, entries).unwrap(), lut);
            // The right count at the wrong width is refused, not reshaped.
            if width > 1 {
                let narrow = ReorderEntries::U8(vec![0; lut.entry_count() as usize]);
                assert!(matches!(
                    ReorderLut::from_parts(bits, p, narrow),
                    Err(LocaLutError::UnsupportedFormat(_))
                ));
                assert!(ReorderEntries::from_le_bytes(width, &bytes[1..]).is_none());
            }
        }
        assert!(ReorderEntries::from_le_bytes(3, &[0; 6]).is_none());
        assert!(ReorderEntries::from_le_bytes(8, &[0; 8]).is_none());
    }

    #[test]
    fn budget_guard() {
        let err = ReorderLut::build(1, 8, 1000).unwrap_err();
        assert!(matches!(err, LocaLutError::BudgetExceeded { .. }));
    }

    #[test]
    fn reordering_is_a_bijection_per_column() {
        // Each permutation column must be a bijection on packed rows.
        let lut = ReorderLut::build(2, 2, 1 << 16).unwrap();
        for perm_id in 0..lut.cols() {
            let mut seen = std::collections::HashSet::new();
            for row in 0..lut.rows() {
                assert!(seen.insert(lut.lookup(row, perm_id)));
            }
            assert_eq!(seen.len() as u64, lut.rows());
        }
    }
}
