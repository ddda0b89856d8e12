//! Typed code-word packing shared by every LUT kernel arm.
//!
//! All LUT kernels consume operands group-by-group: `p` consecutive codes
//! along `K` form one packed index word (§III-A). [`PackedCodes`] is the
//! one materialization of that view — each `(group, lane)` cell carries the
//! group's codes bit-packed into a single `u64`, in the same little-endian
//! order [`crate::packed::pack_index`] produces, so an OP-kernel row/column
//! index *is* the stored word. The layout is **group-major**
//! (`words[group * lanes + lane]`): the blocked kernel loops walk all lanes
//! of one K-block as a contiguous slice ([`PackedCodes::group`]), which is
//! what makes the M-pass of a blocked tile a linear scan instead of a
//! `kblocks`-strided gather.
//!
//! [`GroupScratch`] is the companion for the canonicalized arms: resolving
//! an activation group means unpack → stable sort permutation → sorted
//! codes, three short vectors the naive loops re-allocated per group. The
//! scratch owns them once; `resolve` refills them in place so the hot path
//! never touches the allocator.

use crate::canonical::CanonicalLut;
use crate::perm::{apply_into, lehmer_rank, sort_permutation_into};
use crate::value::LutValue;
use crate::LocaLutError;
use quant::QMatrix;

/// Bit-packed per-group code words in group-major layout.
///
/// `words[group * lanes + lane]` holds the `p` codes of `lane`'s
/// `group`-th K-block, code `i` at bit offset `bits · i` — identical to
/// [`crate::packed::pack_index`] over the group's code slice. Lanes are
/// weight rows (`M`) or activation columns (`N`) depending on which
/// constructor built the table.
///
/// # Examples
///
/// ```
/// use localut::codes::PackedCodes;
/// use quant::{NumericFormat, QMatrix};
///
/// let w = QMatrix::pseudo_random(4, 10, NumericFormat::Int(2), 7);
/// let packed = PackedCodes::pack_weight_rows(&w, 3);
/// assert_eq!((packed.groups(), packed.lanes()), (4, 4));
/// // Group 1 of row 2 = codes (3, 4, 5) of that row, little-endian packed.
/// let expect = (0..3).fold(0u64, |acc, i| {
///     acc | u64::from(w.code_at(2, 3 + i)) << (2 * i as u32)
/// });
/// assert_eq!(packed.word(1, 2), expect);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCodes {
    bits: u8,
    p: usize,
    groups: usize,
    lanes: usize,
    words: Vec<u64>,
}

impl PackedCodes {
    /// Packs every `(m, kb)` weight group of `w` in one pass: lane `m` of
    /// group `kb` equals `pack_index` over row `m`'s codes
    /// `[kb·p, kb·p + p)`, with positions past `K` contributing code 0
    /// (the activation pad is zero-valued, so any weight code there is
    /// inert — 0 keeps the index in range).
    ///
    /// # Panics
    ///
    /// Debug-asserts `bits · p ≤ 64`; every caller packs only after a LUT
    /// build whose materialization guard bounds the index width far below
    /// that.
    #[must_use]
    pub fn pack_weight_rows(w: &QMatrix, p: usize) -> Self {
        let bits = w.format().bits();
        debug_assert!(usize::from(bits) * p <= 64, "packed group exceeds u64");
        let lanes = w.rows();
        let groups = w.cols().div_ceil(p);
        let mut words = vec![0u64; groups * lanes];
        for m in 0..lanes {
            // One register-assembled word and one store per group.
            for (kb, group) in w.row(m).chunks(p).enumerate() {
                words[kb * lanes + m] = group.iter().rev().fold(0u64, |acc, &code| {
                    acc << usize::from(bits) | u64::from(code)
                });
            }
        }
        PackedCodes {
            bits,
            p,
            groups,
            lanes,
            words,
        }
    }

    /// Packs every `(kb, n)` activation group of `a` in one pass: lane `n`
    /// of group `kb` equals `pack_index` over column `n`'s codes
    /// `[kb·p, kb·p + p)`, with positions past `K` carrying `pad` (the
    /// format's zero code, resolved by the caller via
    /// `pad_code_for`).
    #[must_use]
    pub fn pack_activation_columns(a: &QMatrix, p: usize, pad: u16) -> Self {
        let bits = a.format().bits();
        debug_assert!(usize::from(bits) * p <= 64, "packed group exceeds u64");
        let lanes = a.cols();
        let groups = a.rows().div_ceil(p);
        let mut words = vec![0u64; groups * lanes];
        for k in 0..a.rows() {
            let shift = usize::from(bits) * (k % p);
            let row = &mut words[(k / p) * lanes..(k / p + 1) * lanes];
            for (word, &code) in row.iter_mut().zip(a.row(k)) {
                *word |= u64::from(code) << shift;
            }
        }
        let rem = a.rows() % p;
        if rem != 0 && pad != 0 {
            let tail = (rem..p).fold(0u64, |acc, i| {
                acc | u64::from(pad) << (usize::from(bits) * i)
            });
            for word in &mut words[(groups - 1) * lanes..] {
                *word |= tail;
            }
        }
        PackedCodes {
            bits,
            p,
            groups,
            lanes,
            words,
        }
    }

    /// Bits per code.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Codes per group (the packing degree `p`, or the LTC group size).
    #[must_use]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of K-blocks (`⌈K/p⌉`).
    #[must_use]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Number of lanes (weight rows `M` or activation columns `N`).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// All lanes of one K-block as a contiguous slice — the blocked loops'
    /// linear M-pass.
    ///
    /// # Panics
    ///
    /// Panics when `group` is out of range.
    #[must_use]
    pub fn group(&self, group: usize) -> &[u64] {
        &self.words[group * self.lanes..(group + 1) * self.lanes]
    }

    /// One packed word.
    ///
    /// # Panics
    ///
    /// Panics when `group` or `lane` is out of range.
    #[must_use]
    pub fn word(&self, group: usize, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane out of range");
        self.words[group * self.lanes + lane]
    }

    /// Unpacks one group's codes into `out` (cleared first, capacity
    /// reused) — the inverse of the packing constructors.
    ///
    /// # Panics
    ///
    /// Panics when `group` or `lane` is out of range.
    pub fn unpack_into(&self, group: usize, lane: usize, out: &mut Vec<u16>) {
        self.unpack_word(self.word(group, lane), out);
    }

    /// Unpacks a word of this table's `(bits, p)` shape into `out` (cleared
    /// first, capacity reused) — for callers that already hold the word,
    /// e.g. from a [`PackedCodes::group`] scan.
    pub fn unpack_word(&self, word: u64, out: &mut Vec<u16>) {
        let mask = (1u64 << self.bits) - 1;
        out.clear();
        out.extend((0..self.p).map(|i| ((word >> (usize::from(self.bits) * i)) & mask) as u16));
    }
}

/// Reused per-group resolution buffers for the canonicalized kernel arms.
///
/// One activation group resolves to `(codes, permutation, sorted codes)`;
/// the naive loops heap-allocated all three per group (`⌈K/p⌉ · N` times
/// per GEMM). A `GroupScratch` owns the three vectors once per kernel
/// invocation and [`GroupScratch::resolve`] refills them in place, so the
/// blocked inner loops are allocation-free (pinned by the
/// `alloc_smoke` integration test).
#[derive(Debug, Default)]
pub struct GroupScratch {
    acodes: Vec<u16>,
    perm: Vec<u8>,
    sorted: Vec<u16>,
}

impl GroupScratch {
    /// Fresh scratch with empty buffers (they size themselves on first
    /// resolve and are reused thereafter).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves activation group `(group, lane)` of `packed`: unpacks the
    /// codes, computes the stable sorting permutation, and applies it.
    /// Returns `(codes, perm, sorted)` borrowed from the scratch buffers.
    pub fn resolve(&mut self, packed: &PackedCodes, group: usize, lane: usize) -> GroupView<'_> {
        packed.unpack_into(group, lane, &mut self.acodes);
        sort_permutation_into(&self.acodes, &mut self.perm);
        apply_into(&self.perm, &self.acodes, &mut self.sorted);
        GroupView {
            codes: &self.acodes,
            perm: &self.perm,
            sorted: &self.sorted,
        }
    }
}

/// A shard-invariant resolution of one activation operand: its packed
/// groups plus each group's `(canonical column, permutation id)` pair.
///
/// Row-sharded banks of one GEMM all consume the same activation columns,
/// so the per-group unpack → sort → Lehmer-rank → multiset-rank work is
/// identical in every bank. The runtime executor resolves one panel per
/// activation column band and hands it to every bank in the band (via
/// `BankKernel::resolve_panel` / `run_panel`); the gathers a bank then
/// performs are bitwise identical to resolving locally.
#[derive(Debug, Clone)]
pub struct ActivationPanel {
    packed: PackedCodes,
    /// Group-major `(canonical column, permutation id)` per `(group, lane)`.
    pairs: Vec<(u64, u64)>,
}

impl ActivationPanel {
    /// Resolves every `(group, lane)` activation group of `a` against a
    /// canonical LUT: pack once, then per group compute the stable sorting
    /// permutation's Lehmer rank and the sorted codes' canonical column.
    ///
    /// # Errors
    ///
    /// Propagates Lehmer-rank or multiset-rank errors (unreachable for
    /// operands that already passed kernel validation).
    pub fn resolve<V: LutValue>(
        a: &QMatrix,
        p: usize,
        pad: u16,
        canonical: &CanonicalLut<V>,
    ) -> Result<Self, LocaLutError> {
        let packed = PackedCodes::pack_activation_columns(a, p, pad);
        let mut scratch = GroupScratch::new();
        let mut pairs = Vec::with_capacity(packed.groups() * packed.lanes());
        for group in 0..packed.groups() {
            for lane in 0..packed.lanes() {
                let view = scratch.resolve(&packed, group, lane);
                let perm_id = lehmer_rank(view.perm)?;
                let col = canonical.column_of(view.sorted)?;
                pairs.push((col, perm_id));
            }
        }
        Ok(ActivationPanel { packed, pairs })
    }

    /// The packed activation groups the pairs were resolved from.
    #[must_use]
    pub fn packed(&self) -> &PackedCodes {
        &self.packed
    }

    /// The `(canonical column, permutation id)` pair of one group.
    ///
    /// # Panics
    ///
    /// Panics when `group` or `lane` is out of range.
    #[must_use]
    pub fn pair(&self, group: usize, lane: usize) -> (u64, u64) {
        assert!(lane < self.packed.lanes(), "lane out of range");
        self.pairs[group * self.packed.lanes() + lane]
    }
}

/// A resolved activation group, borrowed from a [`GroupScratch`].
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    /// The group's codes in original order.
    pub codes: &'a [u16],
    /// The stable sorting permutation ([`crate::perm::sort_permutation`]).
    pub perm: &'a [u8],
    /// The codes in canonical (non-decreasing) order.
    pub sorted: &'a [u16],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::pack_index;
    use crate::perm::{apply, sort_permutation};
    use quant::NumericFormat;

    /// Per-group extraction the packed tables must agree with.
    fn codes_of(codes: impl Iterator<Item = u16>, kb: usize, p: usize, pad: u16) -> Vec<u16> {
        let all: Vec<u16> = codes.collect();
        (0..p)
            .map(|i| all.get(kb * p + i).copied().unwrap_or(pad))
            .collect()
    }

    #[test]
    fn weight_rows_match_per_group_packing() {
        for (m, k, p, bits) in [(4usize, 11usize, 3usize, 2u8), (3, 12, 4, 1), (1, 5, 5, 3)] {
            let w = QMatrix::pseudo_random(m, k, NumericFormat::Int(bits), 99);
            let packed = PackedCodes::pack_weight_rows(&w, p);
            assert_eq!((packed.groups(), packed.lanes()), (k.div_ceil(p), m));
            for mm in 0..m {
                for kb in 0..packed.groups() {
                    let group = codes_of((0..k).map(|kk| w.code_at(mm, kk)), kb, p, 0);
                    assert_eq!(
                        packed.word(kb, mm),
                        pack_index(&group, bits),
                        "({mm}, {kb})"
                    );
                    assert_eq!(packed.group(kb)[mm], packed.word(kb, mm));
                }
            }
        }
    }

    #[test]
    fn activation_columns_match_per_group_packing_with_pad() {
        for (k, n, p, pad) in [(10usize, 3usize, 3usize, 5u16), (12, 2, 4, 0), (7, 4, 5, 2)] {
            let a = QMatrix::pseudo_random(k, n, NumericFormat::Int(3), 42);
            let packed = PackedCodes::pack_activation_columns(&a, p, pad);
            assert_eq!((packed.groups(), packed.lanes()), (k.div_ceil(p), n));
            for nn in 0..n {
                for kb in 0..packed.groups() {
                    let group = codes_of((0..k).map(|kk| a.code_at(kk, nn)), kb, p, pad);
                    assert_eq!(packed.word(kb, nn), pack_index(&group, 3), "({kb}, {nn})");
                }
            }
        }
    }

    #[test]
    fn unpack_roundtrips() {
        let a = QMatrix::pseudo_random(11, 3, NumericFormat::Int(2), 7);
        let packed = PackedCodes::pack_activation_columns(&a, 4, 1);
        let mut out = Vec::new();
        for kb in 0..packed.groups() {
            for nn in 0..packed.lanes() {
                packed.unpack_into(kb, nn, &mut out);
                let expect = codes_of((0..11).map(|kk| a.code_at(kk, nn)), kb, 4, 1);
                assert_eq!(out, expect);
            }
        }
    }

    #[test]
    fn activation_panel_matches_per_group_resolution() {
        use crate::canonical::CanonicalLut;
        use crate::perm::lehmer_rank;

        let wf = NumericFormat::Bipolar;
        let af = NumericFormat::Int(2);
        let p = 3;
        let canonical = CanonicalLut::<i32>::build(wf, af, p as u32, 1 << 20).unwrap();
        // K = 8 is ragged over p = 3: the last group carries one pad code.
        let a = QMatrix::pseudo_random(8, 4, af, 21);
        let pad = 1u16;
        let panel = ActivationPanel::resolve(&a, p, pad, &canonical).unwrap();
        assert_eq!(
            panel.packed(),
            &PackedCodes::pack_activation_columns(&a, p, pad)
        );
        let mut scratch = GroupScratch::new();
        for kb in 0..panel.packed().groups() {
            for nn in 0..panel.packed().lanes() {
                let view = scratch.resolve(panel.packed(), kb, nn);
                let expect = (
                    canonical.column_of(view.sorted).unwrap(),
                    lehmer_rank(view.perm).unwrap(),
                );
                assert_eq!(panel.pair(kb, nn), expect, "({kb}, {nn})");
            }
        }
    }

    #[test]
    fn scratch_resolution_matches_allocating_path() {
        let a = QMatrix::pseudo_random(13, 2, NumericFormat::Int(3), 3);
        let packed = PackedCodes::pack_activation_columns(&a, 5, 0);
        let mut scratch = GroupScratch::new();
        for kb in 0..packed.groups() {
            for nn in 0..packed.lanes() {
                let group = codes_of((0..13).map(|kk| a.code_at(kk, nn)), kb, 5, 0);
                let perm = sort_permutation(&group);
                let sorted = apply(&perm, &group);
                let view = scratch.resolve(&packed, kb, nn);
                assert_eq!(view.codes, &group[..]);
                assert_eq!(view.perm, &perm[..]);
                assert_eq!(view.sorted, &sorted[..]);
            }
        }
    }
}
