//! The one blocked driver and the four gathers it is monomorphised over.
//!
//! Every LUT arm walks the same loop nest — K-block, then an N-tile of
//! [`N_TILE`] activation columns, then one linear M-pass over the K-block's
//! packed weight words (diagram: DESIGN.md §12). What differs between arms
//! is only what "resolve a tile's columns" and "accumulate one weight word
//! into the tile" mean; a [`Gather`] is that pair. [`drive`] is generic
//! over it, so each arm compiles to its own inner loop with no `dyn` call
//! anywhere. The tile width is a host loop shape only: what a streamed
//! arm's `k_slices` costs is priced by `KernelSpec::charge`, not walked.

use super::{SharedLuts, N_TILE};
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

    /// Closes the tile once all its columns are resolved, before the
    /// M-pass: the place for work shared by every weight word of the pass.
    fn seal_tile(&mut self, _cols: &[Self::Col]) {}

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
) -> Result<Vec<i32>, LocaLutError> {
    let mut values = vec![0i32; wpacked.lanes() * n];
    let mut cols = Vec::with_capacity(N_TILE.min(n));
    for kb in 0..wpacked.groups() {
        // Contiguous in m — the M-pass below is a linear scan.
        let wcol = wpacked.group(kb);
        for n0 in (0..n).step_by(N_TILE) {
            let n1 = n.min(n0 + N_TILE);
            // Hoist the tile's columns once per M-pass: one resolution and
            // one bounds check per group instead of per element.
            gather.begin_tile(kb);
            cols.clear();
            for col in n0..n1 {
                cols.push(gather.resolve(kb, col)?);
            }
            gather.seal_tile(&cols);
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
/// — `canon[reord[row]]`. Buffer-resident and streamed execution are the
/// same host loop; borrowing the column slices *is* the functional model
/// of streaming them (the stream's cost is charged analytically).
///
/// `E` is the reordering image's stored entry width, matched once per run.
/// When the weight tile has at least as many rows as the LUT pair
/// (`M ≥ 2^(bw·p)`), every table row is read at least once per tile on
/// average, so the two lookups are done once per *table* row instead of
/// once per *weight* row: [`Gather::seal_tile`] fuses the tile's column
/// pairs into `fused[row][j] = canon_j[reord_j[row]]` and the M-pass is one
/// contiguous `out[m][n0..n1] += fused[word]`. Shorter tiles keep the
/// two-load loop. The choice is a property of the operands, not a knob.
pub(super) struct Reordered<'a, E> {
    luts: &'a SharedLuts,
    reorder: &'a [E],
    panel: &'a ActivationPanel,
    /// Packed weight rows of the LUT pair, `2^(bw·p)`.
    rows: usize,
    /// The current tile's fused table, row-major `rows × tile width`
    /// (16 KB at W1A3 `p = 8`) — `None` below the `M ≥ rows` threshold.
    fused: Option<Vec<i32>>,
}

impl<'a, E> Reordered<'a, E> {
    /// A gather over `reorder` — the entries of `luts.reorder()` at their
    /// stored width — for a weight tile of `m` rows.
    pub(super) fn new(
        luts: &'a SharedLuts,
        reorder: &'a [E],
        panel: &'a ActivationPanel,
        m: usize,
    ) -> Self {
        let rows = luts.reorder().rows() as usize;
        Reordered {
            luts,
            reorder,
            panel,
            rows,
            fused: (m >= rows).then(|| Vec::with_capacity(rows * N_TILE)),
        }
    }
}

impl<'a, E: Copy + Into<u64>> Gather for Reordered<'a, E> {
    type Col = (&'a [i32], &'a [E]);

    fn resolve(&mut self, kb: usize, n: usize) -> Result<Self::Col, LocaLutError> {
        let (col, perm_id) = self.panel.pair(kb, n);
        // Column `perm_id` of the image; a permutation id past `p!` ends
        // past the slice and panics there.
        let start = perm_id as usize * self.rows;
        Ok((
            self.luts.canonical().column_slice(col),
            &self.reorder[start..start + self.rows],
        ))
    }

    fn seal_tile(&mut self, cols: &[Self::Col]) {
        if let Some(fused) = &mut self.fused {
            fused.clear();
            for row in 0..self.rows {
                fused.extend(
                    cols.iter()
                        .map(|&(canon_col, reord_col)| canon_col[reord_col[row].into() as usize]),
                );
            }
        }
    }

    fn accumulate(&mut self, word: u64, cols: &[Self::Col], out: &mut [i32]) {
        let row = word as usize;
        match &self.fused {
            Some(fused) => {
                let width = out.len();
                let sums = &fused[row * width..(row + 1) * width];
                for (acc, &sum) in out.iter_mut().zip(sums) {
                    *acc += sum;
                }
            }
            None => {
                for (acc, &(canon_col, reord_col)) in out.iter_mut().zip(cols) {
                    *acc += canon_col[reord_col[row].into() as usize];
                }
            }
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
