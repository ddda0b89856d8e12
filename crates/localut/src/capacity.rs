//! Capacity accounting (§III-A sizing, Fig. 6, and the §V-A budget fits).
//!
//! These are the closed-form byte footprints of the three LUT families; the
//! planner uses them to find the largest packing degree fitting a budget
//! without materializing anything:
//!
//! * operation-packed LUT: `bo · 2^((bw+ba)·p)` bytes,
//! * canonical LUT: `bo · 2^(bw·p) · C(2^ba + p − 1, p)` bytes,
//! * reordering LUT: `ceil(bw·p/8) · 2^(bw·p) · p!` bytes,
//!
//! with `bo` the smallest integer width that can hold any packed inner
//! product (1, 2 or 4 bytes for integer formats; 2 bytes — fp16 storage —
//! for floating-point entries).
//!
//! §V-A's calibration points are unit-tested here: at W1A3 with half the
//! 64 KB WRAM / 64 MB bank budgeted for LUTs, `p_local = 5` and
//! `p_DRAM = 8` with canonicalization, degrading to 3 and 6 without.

use crate::multiset::multiset_count;
use crate::perm::factorial;
use crate::LocaLutError;
use pim_sim::DpuConfig;
use quant::NumericFormat;

/// Smallest entry width in bytes able to hold any inner product of `p`
/// pairs within the *symmetric quantization range* (`±(2^(b−1)−1)` for
/// `Int(b)` — the quantizer never emits the asymmetric minimum code, and
/// entries for it saturate in hardware). Float entries store fp16, 2 bytes.
#[must_use]
pub fn entry_bytes(wf: NumericFormat, af: NumericFormat, p: u32) -> u64 {
    if wf.is_integer() && af.is_integer() {
        let max_dot = f64::from(p) * f64::from(wf.quant_max()) * f64::from(af.quant_max());
        if max_dot <= 127.0 {
            1
        } else if max_dot <= 32767.0 {
            2
        } else {
            4
        }
    } else {
        2
    }
}

/// Bytes per reordering-LUT entry: the packed weight row, `ceil(bw·p/8)`.
#[must_use]
pub fn reorder_entry_bytes(bw: u8, p: u32) -> u64 {
    u64::from(u32::from(bw) * p).div_ceil(8)
}

/// Footprint of the operation-packed LUT in bytes (`None` on overflow —
/// i.e. "does not fit anywhere").
#[must_use]
pub fn op_lut_bytes(wf: NumericFormat, af: NumericFormat, p: u32) -> Option<u128> {
    let shift = (u32::from(wf.bits()) + u32::from(af.bits())).checked_mul(p)?;
    if shift >= 120 {
        return None;
    }
    Some(u128::from(entry_bytes(wf, af, p)) << shift)
}

/// Footprint of the canonical LUT in bytes.
#[must_use]
pub fn canonical_lut_bytes(wf: NumericFormat, af: NumericFormat, p: u32) -> Option<u128> {
    let wshift = u32::from(wf.bits()).checked_mul(p)?;
    if wshift >= 100 {
        return None;
    }
    let rows = 1u128 << wshift;
    let cols = multiset_count(u64::from(af.code_space()), p)?;
    rows.checked_mul(cols)?
        .checked_mul(u128::from(entry_bytes(wf, af, p)))
}

/// Footprint of the reordering LUT in bytes.
#[must_use]
pub fn reorder_lut_bytes(wf: NumericFormat, p: u32) -> Option<u128> {
    let wshift = u32::from(wf.bits()).checked_mul(p)?;
    if wshift >= 100 {
        return None;
    }
    let rows = 1u128 << wshift;
    let cols = u128::from(factorial(p)?);
    rows.checked_mul(cols)?
        .checked_mul(u128::from(reorder_entry_bytes(wf.bits(), p)))
}

/// Combined canonical + reordering footprint (the full LoCaLUT image).
#[must_use]
pub fn localut_bytes(wf: NumericFormat, af: NumericFormat, p: u32) -> Option<u128> {
    canonical_lut_bytes(wf, af, p)?.checked_add(reorder_lut_bytes(wf, p)?)
}

/// Bytes of one streamed slice pair at degree `p`: one canonical column
/// (`2^(bw·p)` entries) plus one reordering column.
#[must_use]
pub fn slice_pair_bytes(wf: NumericFormat, af: NumericFormat, p: u32) -> Option<u64> {
    let wshift = u32::from(wf.bits()).checked_mul(p)?;
    if wshift >= 48 {
        return None;
    }
    let rows = 1u64 << wshift;
    Some(rows * (entry_bytes(wf, af, p) + reorder_entry_bytes(wf.bits(), p)))
}

/// The §IV-C streaming fit, stated once: at degree `p` the full
/// canonical + reordering image must fit `dpu`'s bank LUT budget and `k`
/// co-resident slice pairs its WRAM LUT budget.
///
/// # Errors
///
/// [`LocaLutError::BudgetExceeded`] naming the budget that failed, or
/// [`LocaLutError::InvalidPackingDegree`] when a footprint at `p`
/// overflows its closed form.
pub fn streaming_fit(
    dpu: &DpuConfig,
    wf: NumericFormat,
    af: NumericFormat,
    p: u32,
    k: u32,
) -> Result<(), LocaLutError> {
    let fits = |required: u128, budget: u64| {
        if required > u128::from(budget) {
            return Err(LocaLutError::BudgetExceeded { required, budget });
        }
        Ok(())
    };
    let (Some(full), Some(slice)) = (localut_bytes(wf, af, p), slice_pair_bytes(wf, af, p)) else {
        return Err(LocaLutError::InvalidPackingDegree(p));
    };
    fits(full, dpu.bank_lut_budget())?;
    fits(u128::from(slice) * u128::from(k), dpu.wram_lut_budget())
}

/// Largest `p ≥ 1` whose canonical + reordering LUTs fit `budget` bytes
/// (0 when even `p = 1` does not fit).
///
/// # Examples
///
/// ```
/// use localut::capacity::max_p_localut;
/// use pim_sim::DpuConfig;
/// use quant::NumericFormat;
///
/// // §V-A: at W1A3 the WRAM budget admits p = 5, the bank budget p = 8.
/// let dpu = DpuConfig::upmem();
/// let (w1, a3) = (NumericFormat::Bipolar, NumericFormat::Int(3));
/// assert_eq!(max_p_localut(w1, a3, dpu.wram_lut_budget()), 5);
/// assert_eq!(max_p_localut(w1, a3, dpu.bank_lut_budget()), 8);
/// ```
#[must_use]
pub fn max_p_localut(wf: NumericFormat, af: NumericFormat, budget: u64) -> u32 {
    max_p_by(|p| localut_bytes(wf, af, p), budget)
}

/// Largest `p ≥ 1` whose operation-packed LUT fits `budget` bytes.
#[must_use]
pub fn max_p_op(wf: NumericFormat, af: NumericFormat, budget: u64) -> u32 {
    max_p_by(|p| op_lut_bytes(wf, af, p), budget)
}

/// Largest `p ≥ 1` whose footprint `bytes_of(p)` fits `budget` bytes (0
/// when even `p = 1` does not fit).
pub(crate) fn max_p_by(bytes_of: impl Fn(u32) -> Option<u128>, budget: u64) -> u32 {
    let mut best = 0;
    for p in 1..=24 {
        match bytes_of(p) {
            Some(b) if b <= u128::from(budget) => best = p,
            // Footprints are monotone in p; stop at the first miss.
            _ => break,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;
    const W1: NumericFormat = NumericFormat::Bipolar;
    const A3: NumericFormat = NumericFormat::Int(3);

    #[test]
    fn entry_bytes_minimal_widths() {
        // W1A3, p=8: |dot| <= 8*1*4 = 32 → 1 byte.
        assert_eq!(entry_bytes(W1, A3, 8), 1);
        // W4A4, p=2: |dot| <= 2*7*7 = 98 → 1 byte; p=3: 147 → 2 bytes.
        assert_eq!(
            entry_bytes(NumericFormat::Int(4), NumericFormat::Int(4), 2),
            1
        );
        assert_eq!(
            entry_bytes(NumericFormat::Int(4), NumericFormat::Int(4), 3),
            2
        );
        // Wide ints overflow to 4 bytes (4*127*127 = 64516).
        assert_eq!(
            entry_bytes(NumericFormat::Int(8), NumericFormat::Int(8), 4),
            4
        );
        // Floats store fp16 entries.
        assert_eq!(entry_bytes(NumericFormat::Fp4, NumericFormat::Fp4, 4), 2);
    }

    #[test]
    fn reorder_entry_width() {
        assert_eq!(reorder_entry_bytes(1, 8), 1);
        assert_eq!(reorder_entry_bytes(1, 9), 2);
        assert_eq!(reorder_entry_bytes(2, 4), 1);
        assert_eq!(reorder_entry_bytes(4, 3), 2);
    }

    #[test]
    fn section_v_a_packing_degrees() {
        // §V-A at W1A3 with half-capacity budgets:
        // with canonicalization p_local ≈ 5 and p_DRAM ≈ 8;
        // without, 3 and 6.
        let wram = 32 * KB;
        let dram = 32 * MB;
        assert_eq!(max_p_localut(W1, A3, wram), 5, "p_local with LC");
        assert_eq!(max_p_localut(W1, A3, dram), 8, "p_DRAM with LC");
        assert_eq!(max_p_op(W1, A3, wram), 3, "p_local without LC");
        assert_eq!(max_p_op(W1, A3, dram), 6, "p_DRAM without LC");
    }

    #[test]
    fn fig6_total_reduction_band() {
        // Fig. 6 red line: total reduction (op-packed vs canonical +
        // reordering) spans 1.68x at p=2 to ~358x at p=8 for W1A3.
        let red = |p: u32| {
            op_lut_bytes(W1, A3, p).unwrap() as f64 / localut_bytes(W1, A3, p).unwrap() as f64
        };
        assert!((red(2) - 1.68).abs() < 0.02, "p=2 reduction {}", red(2));
        let r8 = red(8);
        assert!((340.0..380.0).contains(&r8), "p=8 reduction {r8}");
        // Monotone increasing over the plotted range.
        for p in 2..8 {
            assert!(red(p + 1) > red(p));
        }
    }

    #[test]
    fn canonical_always_beats_op_in_columns() {
        for p in 1..=8 {
            let c = canonical_lut_bytes(W1, A3, p).unwrap();
            let o = op_lut_bytes(W1, A3, p).unwrap();
            assert!(c <= o, "canonical must never exceed op-packed (p={p})");
        }
    }

    #[test]
    fn slice_pair_bytes_matches_manual() {
        // W1A3 p=5: 32 rows x (1 entry byte + 1 reorder byte) = 64.
        assert_eq!(slice_pair_bytes(W1, A3, 5), Some(64));
        // W4A4 p=3: 4096 rows x (2 + 2) = 16 KiB.
        assert_eq!(
            slice_pair_bytes(NumericFormat::Int(4), NumericFormat::Int(4), 3),
            Some(4096 * 4)
        );
    }

    #[test]
    fn streaming_fit_names_the_budget_that_failed() {
        let dpu = DpuConfig::upmem();
        assert_eq!(streaming_fit(&dpu, W1, A3, 8, 2), Ok(()));
        // p = 9: the full image outgrows the bank budget first.
        assert_eq!(
            streaming_fit(&dpu, W1, A3, 9, 2),
            Err(LocaLutError::BudgetExceeded {
                required: localut_bytes(W1, A3, 9).unwrap(),
                budget: dpu.bank_lut_budget(),
            })
        );
        // W4A4 p = 3 fits the bank; three 16 KiB slice pairs do not fit WRAM.
        let f4 = NumericFormat::Int(4);
        assert_eq!(streaming_fit(&dpu, f4, f4, 3, 2), Ok(()));
        assert_eq!(
            streaming_fit(&dpu, f4, f4, 3, 3),
            Err(LocaLutError::BudgetExceeded {
                required: 3 * 4096 * 4,
                budget: dpu.wram_lut_budget(),
            })
        );
        assert_eq!(
            streaming_fit(&dpu, f4, f4, 30, 1),
            Err(LocaLutError::InvalidPackingDegree(30))
        );
    }

    #[test]
    fn max_p_zero_when_nothing_fits() {
        assert_eq!(
            max_p_op(NumericFormat::Int(8), NumericFormat::Int(8), 16),
            0
        );
    }

    #[test]
    fn footprints_overflow_to_none() {
        assert!(op_lut_bytes(NumericFormat::Fp16, NumericFormat::Fp16, 8).is_none());
        assert!(canonical_lut_bytes(NumericFormat::Fp16, NumericFormat::Fp16, 16).is_none());
    }

    #[test]
    fn w4a4_buffer_degrees_match_fig18() {
        // Fig. 18(a): for W4A4 "a maximum packing degree of two fits in the
        // local buffer" (the 34 KB canonical LUT needs the 0.55 budget
        // fraction); p=3 requires slice streaming.
        let wram = pim_sim::DpuConfig::upmem().wram_lut_budget();
        let f4 = NumericFormat::Int(4);
        assert_eq!(max_p_localut(f4, f4, wram), 2);
        // Fig. 18(b): W2A2 optimum around 4-5; buffer fit must allow >= 4.
        let f2 = NumericFormat::Int(2);
        assert!(max_p_localut(f2, f2, wram) >= 4);
    }
}
