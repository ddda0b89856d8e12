//! The one blocked driver and the four gathers it is monomorphised over.
//!
//! Every LUT arm walks the same loop nest — K-block, then an N-tile of
//! `TILE ∈ {N_TILE, k_slices}` activation columns, then one linear M-pass
//! over the K-block's packed weight words (diagram: DESIGN.md §12). What
//! differs between arms is only what "resolve a tile's columns" and
//! "accumulate one weight word into the tile" mean; a [`Gather`] is that
//! pair. [`drive`] is generic over it, so each arm compiles to its own
//! branch-free inner loop with no `dyn` call anywhere.

use super::SharedLuts;
use crate::canonical::CanonicalLut;
use crate::codes::{ActivationPanel, GroupScratch, PackedCodes};
use crate::packed::{pack_index, OpPackedLut};
use crate::perm::apply_into;
use crate::LocaLutError;
use quant::{NumericFormat, QMatrix};

/// One arm's inner loop, split at the tile boundary.
pub(super) trait Gather {
    /// What one activation group resolves to, hoisted out of the M-pass.
    type Col: Copy;

    /// Starts a tile of K-block `kb`, resetting any per-tile scratch.
    fn begin_tile(&mut self, _kb: usize) {}

    /// Resolves activation group `(kb, n)` of the current tile.
    fn resolve(&mut self, kb: usize, n: usize) -> Result<Self::Col, LocaLutError>;

    /// Accumulates one packed weight group against the tile's resolved
    /// columns; `out` is the tile's slice of that weight row's output row.
    fn accumulate(&mut self, word: u64, cols: &[Self::Col], out: &mut [i32]);
}

/// Runs the blocked `kb → N-tile → M-pass` loop over `wpacked` (weight
/// rows packed at the gather's group size) and returns the row-major
/// `M × n` outputs.
pub(super) fn drive<G: Gather>(
    mut gather: G,
    wpacked: &PackedCodes,
    n: usize,
    tile: usize,
) -> Result<Vec<i32>, LocaLutError> {
    let mut values = vec![0i32; wpacked.lanes() * n];
    let mut cols = Vec::with_capacity(tile.min(n));
    for kb in 0..wpacked.groups() {
        // Contiguous in m — the M-pass below is a linear scan.
        let wcol = wpacked.group(kb);
        for n0 in (0..n).step_by(tile) {
            let n1 = n.min(n0 + tile);
            // Hoist the tile's columns once per M-pass: one resolution and
            // one bounds check per group instead of per element.
            gather.begin_tile(kb);
            cols.clear();
            for col in n0..n1 {
                cols.push(gather.resolve(kb, col)?);
            }
            for (m, &word) in wcol.iter().enumerate() {
                gather.accumulate(word, &cols, &mut values[m * n + n0..m * n + n1]);
            }
        }
    }
    Ok(values)
}

/// OP: a packed activation word *is* the LUT column and a packed weight
/// word the row — `col[row]`.
pub(super) struct Packed<'a> {
    pub(super) lut: &'a OpPackedLut<i32>,
    pub(super) apacked: &'a PackedCodes,
}

impl<'a> Gather for Packed<'a> {
    type Col = &'a [i32];

    fn resolve(&mut self, kb: usize, n: usize) -> Result<Self::Col, LocaLutError> {
        Ok(self.lut.column_slice(self.apacked.word(kb, n)))
    }

    fn accumulate(&mut self, word: u64, cols: &[Self::Col], out: &mut [i32]) {
        let row = word as usize;
        for (acc, col) in out.iter_mut().zip(cols) {
            *acc += col[row];
        }
    }
}

/// OP+LC+RC and LoCaLUT: one reordering lookup, then one canonical lookup
/// — `canon[reord[row]]`. Buffer-resident and streamed execution differ
/// only in the tile width the driver is called with; borrowing the column
/// slices *is* the functional model of streaming them (the stream's cost
/// is charged analytically).
pub(super) struct Reordered<'a> {
    pub(super) luts: &'a SharedLuts,
    pub(super) panel: &'a ActivationPanel,
}

impl<'a> Gather for Reordered<'a> {
    type Col = (&'a [i32], &'a [u64]);

    fn resolve(&mut self, kb: usize, n: usize) -> Result<Self::Col, LocaLutError> {
        let (col, perm_id) = self.panel.pair(kb, n);
        Ok((
            self.luts.canonical().column_slice(col),
            self.luts.reorder().column_slice(perm_id),
        ))
    }

    fn accumulate(&mut self, word: u64, cols: &[Self::Col], out: &mut [i32]) {
        let row = word as usize;
        for (acc, &(canon_col, reord_col)) in out.iter_mut().zip(cols) {
            *acc += canon_col[reord_col[row] as usize];
        }
    }
}

/// OP+LC: canonical columns, with the weight group reordered in software
/// per lookup — unpack / permute / repack, the exact sequence the cost
/// model charges — against the hoisted slices, allocation-free.
pub(super) struct SoftwareReorder<'a> {
    lut: &'a CanonicalLut<i32>,
    apacked: &'a PackedCodes,
    wpacked: &'a PackedCodes,
    scratch: GroupScratch,
    /// The tile's sorting permutations, `p` entries per column.
    perms: Vec<u8>,
    wcodes: Vec<u16>,
    reordered: Vec<u16>,
}

impl<'a> SoftwareReorder<'a> {
    pub(super) fn new(
        lut: &'a CanonicalLut<i32>,
        apacked: &'a PackedCodes,
        wpacked: &'a PackedCodes,
    ) -> Self {
        SoftwareReorder {
            lut,
            apacked,
            wpacked,
            scratch: GroupScratch::new(),
            perms: Vec::new(),
            wcodes: Vec::new(),
            reordered: Vec::new(),
        }
    }
}

impl<'a> Gather for SoftwareReorder<'a> {
    type Col = &'a [i32];

    fn begin_tile(&mut self, _kb: usize) {
        self.perms.clear();
    }

    fn resolve(&mut self, kb: usize, n: usize) -> Result<Self::Col, LocaLutError> {
        // Host side, once per tile: sort the activation group, keep the
        // permutation and the canonical column slice.
        let group = self.scratch.resolve(self.apacked, kb, n);
        self.perms.extend_from_slice(group.perm);
        Ok(self.lut.column_slice(self.lut.column_of(group.sorted)?))
    }

    fn accumulate(&mut self, word: u64, cols: &[Self::Col], out: &mut [i32]) {
        // DPU side: unpack the weight group once, then reorder per column.
        let bits = self.wpacked.bits();
        self.wpacked.unpack_word(word, &mut self.wcodes);
        let perms = self.perms.chunks_exact(self.wpacked.p());
        for ((acc, col), perm) in out.iter_mut().zip(cols).zip(perms) {
            apply_into(perm, &self.wcodes, &mut self.reordered);
            *acc += col[pack_index(&self.reordered, bits) as usize];
        }
    }
}

/// LTC: per tile column a runtime table of the activation group's `2^g`
/// subset sums; each weight bit-plane indexes it with its `g` bits and the
/// plane results are shifted and accumulated. Weight rows are packed at
/// group size `g` (the zero pad past `K` keeps every plane index in range).
pub(super) struct BitPlanes<'a> {
    a: &'a QMatrix,
    wf: NumericFormat,
    g: usize,
    /// Codes in the current K-block (`g`, or fewer in a ragged last one).
    glen: usize,
    /// The tile's subset-sum tables, `2^glen` entries per column.
    tables: Vec<i32>,
}

impl<'a> BitPlanes<'a> {
    pub(super) fn new(a: &'a QMatrix, wf: NumericFormat, g: usize) -> Self {
        BitPlanes {
            a,
            wf,
            g,
            glen: 0,
            tables: Vec::new(),
        }
    }

    /// Number of bit-serial weight planes for a format (bipolar weights
    /// need a single pass: `w = 2c − 1` is an affine function of one bit).
    pub(super) fn planes(wf: NumericFormat) -> u32 {
        match wf {
            NumericFormat::Bipolar => 1,
            other => u32::from(other.bits()),
        }
    }
}

impl Gather for BitPlanes<'_> {
    /// Σa of the column's group (bipolar weights need it).
    type Col = i32;

    fn begin_tile(&mut self, kb: usize) {
        self.glen = self.g.min(self.a.rows() - kb * self.g);
        self.tables.clear();
    }

    fn resolve(&mut self, kb: usize, n: usize) -> Result<Self::Col, LocaLutError> {
        let (a, k0) = (self.a, kb * self.g);
        let decode = |i: usize| {
            a.format()
                .decode_int(u32::from(a.code_at(k0 + i, n)))
                .expect("integer format")
        };
        let base = self.tables.len();
        self.tables.resize(base + (1 << self.glen), 0);
        let table = &mut self.tables[base..];
        for idx in 1..table.len() {
            let lsb = idx.trailing_zeros() as usize;
            table[idx] = table[idx ^ (1 << lsb)] + decode(lsb);
        }
        Ok((0..self.glen).map(decode).sum())
    }

    fn accumulate(&mut self, word: u64, gsums: &[Self::Col], out: &mut [i32]) {
        let tsize = 1usize << self.glen;
        let bits = usize::from(self.wf.bits());
        match self.wf {
            NumericFormat::Bipolar => {
                // w = 2c − 1: dot = 2·table[idx] − Σa.
                let idx = (word as usize) & (tsize - 1);
                for (dn, (acc, gsum)) in out.iter_mut().zip(gsums).enumerate() {
                    *acc += 2 * self.tables[dn * tsize + idx] - gsum;
                }
            }
            _ => {
                // Two's complement: Σ_{b<bw−1} 2^b·plane_b −
                // 2^(bw−1)·plane_{bw−1}.
                for b in 0..bits {
                    let mut idx = 0usize;
                    for i in 0..self.glen {
                        let bit = (word >> (bits * i + b)) & 1;
                        idx |= (bit as usize) << i;
                    }
                    let scale = if b + 1 == bits && matches!(self.wf, NumericFormat::Int(_)) {
                        -(1i32 << b)
                    } else {
                        1i32 << b
                    };
                    for (dn, acc) in out.iter_mut().enumerate() {
                        *acc += scale * self.tables[dn * tsize + idx];
                    }
                }
            }
        }
    }
}
