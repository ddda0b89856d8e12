//! Unit tests for the kernel layer: one table over all six arms for the
//! functional/timed contract, then the paper-pinned numbers per arm.

use super::*;
use crate::gemm::reference_gemm;
use pim_sim::{Category, DpuConfig};
use quant::Quantizer;

const W1: NumericFormat = NumericFormat::Bipolar;
const I2: NumericFormat = NumericFormat::Int(2);
const I3: NumericFormat = NumericFormat::Int(3);
const I4: NumericFormat = NumericFormat::Int(4);

/// Deterministic operands that exercise every code of both formats.
fn operands(
    m: usize,
    k: usize,
    n: usize,
    wf: NumericFormat,
    af: NumericFormat,
) -> (QMatrix, QMatrix) {
    let wdata: Vec<f32> = (0..m * k)
        .map(|i| ((i * 13 + 5) % 7) as f32 - 3.0)
        .collect();
    let adata: Vec<f32> = (0..k * n)
        .map(|i| ((i * 3 + 2) % 11) as f32 - 5.0)
        .collect();
    (
        Quantizer::symmetric(wf)
            .quantize_matrix(&wdata, m, k)
            .unwrap(),
        Quantizer::symmetric(af)
            .quantize_matrix(&adata, k, n)
            .unwrap(),
    )
}

fn cfg_k(k_slices: u32) -> GemmConfig {
    GemmConfig {
        dpu: DpuConfig::upmem(),
        k_slices,
    }
}

fn spec(method: Method, wf: NumericFormat, af: NumericFormat, p: u32) -> KernelSpec {
    KernelSpec::with_p(&GemmConfig::upmem(), method, wf, af, p).unwrap()
}

fn dims(m: usize, k: usize, n: usize) -> GemmDims {
    GemmDims { m, k, n }
}

#[test]
fn pad_code_requires_zero_only_for_remainders() {
    assert!(pad_code_for(W1, 6, 3).is_ok());
    assert!(matches!(
        pad_code_for(W1, 7, 3),
        Err(LocaLutError::UnpaddableRemainder { remainder: 1 })
    ));
    assert_eq!(pad_code_for(I3, 7, 3).unwrap(), 0);
    assert_eq!(pad_code_for(NumericFormat::Uint(2), 7, 3).unwrap(), 0);
}

#[test]
fn require_integer_rejects_floats() {
    assert!(require_integer(I2, I3).is_ok());
    assert!(require_integer(NumericFormat::Fp4, I3).is_err());
    assert!(require_integer(W1, NumericFormat::Fp8).is_err());
}

/// Every arm, at an explicit degree, over an aligned shape, a ragged `K`,
/// and an `N` that crosses tile boundaries with a ragged last tile:
/// values equal the reference and the charged profile equals the cost
/// twin.
#[test]
fn every_arm_matches_reference_and_its_cost_twin() {
    use Method::*;
    const WIDE: usize = N_TILE * 2;
    // (method, k_slices, wf, af, p, m, k, n)
    let table = [
        (NaivePim, 2, I4, I4, 1, 3, 4, 2),
        (Ltc, 2, W1, I3, 1, 5, 9, 4),
        (Ltc, 2, I2, I2, 1, 4, 8, 3),
        (Ltc, 2, I4, I4, 1, 3, 10, 5),
        (Ltc, 2, I3, I3, 1, 4, 7, 2),
        (Ltc, 2, W1, I4, 1, 2, 5, 2),
        (Ltc, 2, I3, I3, 1, 3, 9, WIDE + 7),
        (Op, 2, W1, I3, 3, 4, 9, 3),
        (Op, 2, I2, I3, 3, 3, 7, 2),
        (Op, 2, I2, I2, 2, 4, 6, 2),
        (Op, 2, I2, I2, 3, 5, 9, WIDE + 5),
        (OpLc, 2, W1, I3, 5, 5, 10, 3),
        (OpLc, 2, I2, I2, 3, 3, 8, 2),
        (OpLc, 2, I2, I3, 3, 4, 6, 2),
        (OpLc, 2, I2, I2, 4, 4, 9, WIDE + 1),
        (OpLcRc, 2, W1, I3, 5, 5, 10, 3),
        (OpLcRc, 2, I2, I3, 4, 4, 11, 2),
        (OpLcRc, 2, I2, I2, 3, 4, 6, 2),
        (OpLcRc, 2, I2, I3, 5, 7, 10, WIDE + 3),
        (LoCaLut, 2, W1, I3, 6, 6, 12, 5),
        (LoCaLut, 3, I2, I3, 5, 4, 13, 7),
        (LoCaLut, 2, W1, I3, 6, 5, 12, 4),
        (LoCaLut, 2, I2, I3, 3, 3, 7, WIDE + 3),
    ];
    for (method, k_slices, wf, af, p, m, k, n) in table {
        let row = format!("{method} {wf:?}x{af:?} p={p} k={k_slices} ({m}, {k}, {n})");
        let kernel = KernelSpec::with_p(&cfg_k(k_slices), method, wf, af, p).expect(&row);
        assert_eq!((kernel.method(), kernel.p()), (method, p), "{row}");
        let (w, a) = operands(m, k, n, wf, af);
        let out = kernel.run(&w, &a, None, None).expect(&row);
        assert_eq!(out.values, reference_gemm::<i32>(&w, &a).unwrap(), "{row}");
        assert_eq!(out.dims, dims(m, k, n), "{row}");
        assert_eq!(out.profile, kernel.cost(out.dims), "{row}");
    }
}

#[test]
fn auto_picks_the_paper_degrees_for_w1a3() {
    let cfg = GemmConfig::upmem();
    let auto = |method| {
        KernelSpec::auto(&cfg, method, W1, I3, || unreachable!())
            .unwrap()
            .p()
    };
    assert_eq!(auto(Method::Op), 3); // §V-A: p_local = 3 without canonicalization.
    assert_eq!(auto(Method::OpLc), 5); // canonical-only fit raises it to 5.
    assert_eq!(auto(Method::OpLcRc), 5); // §V-A: p_local = 5 with LC (+RC).
    assert_eq!(auto(Method::NaivePim), 1);
    assert_eq!(auto(Method::Ltc), 1);
}

#[test]
fn construction_rejects_what_can_never_run() {
    let cfg = GemmConfig::upmem();
    for method in Method::ALL {
        // Float formats, for all six arms, explicit and automatic.
        assert!(matches!(
            KernelSpec::with_p(&cfg, method, NumericFormat::Fp4, NumericFormat::Fp4, 1),
            Err(LocaLutError::UnsupportedFormat(_))
        ));
        assert!(matches!(
            cfg.cost(method, dims(4, 4, 4), NumericFormat::Fp4, I3),
            Err(LocaLutError::UnsupportedFormat(_))
        ));
        assert!(matches!(
            KernelSpec::with_p(&cfg, method, I2, I2, 0),
            Err(LocaLutError::InvalidPackingDegree(0))
        ));
    }
    // The LUT-free baselines consume one code at a time.
    for method in [Method::NaivePim, Method::Ltc] {
        assert!(matches!(
            KernelSpec::with_p(&cfg, method, I2, I2, 2),
            Err(LocaLutError::InvalidPackingDegree(2))
        ));
    }
    // Zero co-resident slices.
    assert!(KernelSpec::with_p(&cfg_k(0), Method::LoCaLut, I2, I2, 2).is_err());
    let placed = |k| KernelSpec::placed(&cfg.dpu, I2, I2, 2, Placement::Streaming, k);
    assert!(placed(0).is_err());
    assert!(placed(2).is_ok());
}

#[test]
fn ltc_group_too_wide_to_pack_is_rejected_at_construction() {
    let mut cfg = GemmConfig::upmem();
    cfg.dpu.processor.costs.ltc_group = 17; // 17 · 4 bits > 64
    assert!(matches!(
        KernelSpec::with_p(&cfg, Method::Ltc, I4, I4, 1),
        Err(LocaLutError::UnsupportedFormat(
            "LTC group does not fit a packed 64-bit weight word"
        ))
    ));
    assert!(KernelSpec::with_p(&cfg, Method::Ltc, I2, I4, 1).is_ok());
    assert!(cfg.cost(Method::Ltc, dims(4, 4, 4), I4, I4).is_err());
}

#[test]
fn streaming_budgets_match_the_paper() {
    let dpu = DpuConfig::upmem();
    let streaming = |wf, af, p, k| KernelSpec::placed(&dpu, wf, af, p, Placement::Streaming, k);
    // §V-A: p_DRAM = 8 at W1A3.
    assert!(streaming(W1, I3, 8, 2).is_ok());
    assert!(matches!(
        streaming(W1, I3, 9, 2),
        Err(LocaLutError::BudgetExceeded { .. })
    ));
    // W4A4 p=3 slice pair = 16 KiB → k=2 fits the 32 KiB budget, k=3
    // does not.
    assert!(streaming(I4, I4, 3, 2).is_ok());
    assert!(streaming(I4, I4, 3, 3).is_err());
}

#[test]
fn operand_violations_are_typed() {
    // Activations without a zero code cannot pad K % p != 0.
    let (w, a) = operands(2, 7, 2, I2, W1);
    assert!(matches!(
        spec(Method::Op, I2, W1, 3).run(&w, &a, None, None),
        Err(LocaLutError::UnpaddableRemainder { .. })
    ));
    // Operands in formats other than the kernel's.
    let (w, a) = operands(2, 4, 2, I3, I3);
    for method in Method::ALL {
        assert!(matches!(
            spec(method, I2, I3, 1).run(&w, &a, None, None),
            Err(LocaLutError::UnsupportedFormat(_))
        ));
    }
}

#[test]
fn naive_cost_shape() {
    // Compute dominates, and wide operands cost more.
    let big = spec(Method::NaivePim, W1, I3, 1).cost(dims(256, 256, 64));
    assert!(big.fraction(Category::Compute) > 0.8);
    let narrow = spec(Method::NaivePim, I4, I4, 1).cost(dims(64, 64, 64));
    let wide = spec(Method::NaivePim, I4, NumericFormat::Int(16), 1).cost(dims(64, 64, 64));
    assert!(wide.total_seconds() > narrow.total_seconds());
}

#[test]
fn ltc_cost_scales_with_weight_bits() {
    // Bit-serial: W4 needs ~4x the lookups of W1.
    let d = dims(128, 128, 32);
    let w1 = spec(Method::Ltc, W1, I4, 1).cost(d);
    let w4 = spec(Method::Ltc, I4, I4, 1).cost(d);
    let ratio = w4.seconds(Category::Compute) / w1.seconds(Category::Compute);
    assert!((3.0..4.5).contains(&ratio), "ratio {ratio}");
}

#[test]
fn higher_p_means_fewer_lookup_seconds() {
    let d = dims(64, 64, 16);
    let p2 = spec(Method::Op, W1, I3, 2).cost(d);
    let p3 = spec(Method::Op, W1, I3, 3).cost(d);
    assert!(p3.seconds(Category::CanonicalLookup) < p2.seconds(Category::CanonicalLookup));
}

#[test]
fn software_reordering_dominates_index_calc() {
    // §VI-B: OP+LC "performance drops significantly from the added
    // ordering overhead".
    let cost = spec(Method::OpLc, W1, I3, 5).cost(dims(256, 255, 32));
    assert!(cost.fraction(Category::IndexCalc) > 0.5);
}

#[test]
fn reordering_lut_beats_software_reordering() {
    // Fig. 9: OP+LC+RC recovers the overhead OP+LC added.
    let d = dims(128, 125, 16);
    let lc = spec(Method::OpLc, W1, I3, 5).cost(d);
    let rc = spec(Method::OpLcRc, W1, I3, 5).cost(d);
    assert!(rc.total_seconds() < lc.total_seconds());
}

#[test]
fn reorder_access_fraction_is_small() {
    // §VI-G: the reordering LUT access is ~6.9% of the kernel.
    let cost = spec(Method::OpLcRc, W1, I3, 5).cost(dims(768, 765, 128));
    let frac = cost.fraction(Category::ReorderLookup);
    assert!((0.02..0.2).contains(&frac), "reorder fraction {frac}");
}

#[test]
fn larger_k_reduces_weight_restreaming() {
    let d = dims(256, 256, 64);
    let at = |k| {
        KernelSpec::with_p(&cfg_k(k), Method::LoCaLut, W1, I3, 6)
            .unwrap()
            .cost(d)
    };
    let (k1, k8) = (at(1), at(8));
    assert!(k8.seconds(Category::DataTransfer) < k1.seconds(Category::DataTransfer));
    assert!(k8.total_seconds() < k1.total_seconds());
}

#[test]
fn lut_load_matches_eq2_term() {
    let cost = spec(Method::LoCaLut, W1, I3, 6).cost(dims(16, 12, 8));
    // groups = 2 * 8 = 16, slice entries = 2^6 = 64, L_D each.
    let expect = 16.0 * 64.0 * 1.36e-9;
    assert!((cost.seconds(Category::LutLoad) - expect).abs() < 1e-12);
}

/// The fused / two-load seam and every stored reorder width: the
/// reordered arms at `M ∈ {rows − 1, rows, rows + 1}` (the M-pass switches
/// to the fused tile table at `M = rows`), `N` around the half and full
/// tile, ragged `K`, for one `(bits, p)` per entry width — values equal the
/// reference, and a run on prepared operands equals the self-preparing one.
#[test]
fn reordered_arms_match_reference_across_the_fused_threshold_at_every_width() {
    // (wf, af, p, stored entry bytes, N): 8, 10 and 18 index bits. No
    // `bits · p` in 17..=32 has fewer than 2^18 rows, so the wide image
    // runs the narrowest and the tile-crossing `N` only (seconds in debug).
    const NS: &[usize] = &[1, 7, 8, 16, 17];
    let table = [
        (W1, I3, 8, 1, NS),
        (I2, I3, 5, 2, NS),
        (NumericFormat::Int(9), I2, 2, 4, &[1, 17][..]),
    ];
    for (wf, af, p, width, ns) in table {
        let luts = SharedLuts::build(wf, af, p).unwrap();
        assert_eq!(luts.reorder().entries().entry_bytes(), width);
        let rows = luts.reorder().rows() as usize;
        let k = p as usize + 1; // one full group, one ragged
        for method in [Method::OpLcRc, Method::LoCaLut] {
            let kernel = match KernelSpec::with_p(&GemmConfig::upmem(), method, wf, af, p) {
                // Two 18-bit slice pairs do not fit WRAM; the buffer-
                // resident arm prices any degree.
                Err(LocaLutError::BudgetExceeded { .. }) if method == Method::LoCaLut => continue,
                kernel => kernel.unwrap(),
            };
            for m in [rows - 1, rows, rows + 1] {
                let w = QMatrix::pseudo_random(m, k, wf, 7 + m as u64);
                let wpacked = kernel.pack_weights(&w).unwrap().unwrap();
                for &n in ns {
                    let case = format!("{method} {wf:?}x{af:?} p={p} ({m}, {k}, {n})");
                    let a = QMatrix::pseudo_random(k, n, af, 31 + n as u64);
                    let out = kernel.run(&w, &a, Some(&luts), None).expect(&case);
                    assert_eq!(out.values, reference_gemm::<i32>(&w, &a).unwrap(), "{case}");
                    assert_eq!(out.profile, kernel.cost(dims(m, k, n)), "{case}");
                    let panel = kernel.resolve_panel(&a, &luts).unwrap().unwrap();
                    let prepared =
                        kernel.run_packed(&w, &a, Some(&luts), Some(&panel), Some(&wpacked));
                    assert_eq!(prepared.expect(&case), out, "{case}");
                }
            }
        }
    }
}

#[test]
fn shared_luts_and_panels_must_match_the_kernel() {
    let (w, a) = operands(2, 6, 2, I2, I3);
    let kernel = spec(Method::OpLcRc, I2, I3, 3);
    // LUTs built for another p.
    let other = SharedLuts::build(I2, I3, 2).unwrap();
    assert!(matches!(
        kernel.run(&w, &a, Some(&other), None),
        Err(LocaLutError::UnsupportedFormat(_))
    ));
    assert!(kernel.resolve_panel(&a, &other).is_err());
    // A panel resolved from an operand of another shape.
    let luts = SharedLuts::build(I2, I3, 3).unwrap();
    let (_, wider) = operands(2, 6, 3, I2, I3);
    let panel = kernel.resolve_panel(&wider, &luts).unwrap().unwrap();
    assert!(matches!(
        kernel.run(&w, &a, Some(&luts), Some(&panel)),
        Err(LocaLutError::UnsupportedFormat(_))
    ));
    // Weight rows packed for another (bits, p, groups, lanes): a typed
    // error in every build profile, before any comparison or gather.
    let wrong = [
        PackedCodes::pack_weight_rows(&operands(2, 6, 2, I3, I3).0, 3), // bits
        PackedCodes::pack_weight_rows(&w, 2),                           // p
        PackedCodes::pack_weight_rows(&operands(2, 9, 2, I2, I3).0, 3), // groups
        PackedCodes::pack_weight_rows(&operands(3, 6, 2, I2, I3).0, 3), // lanes
    ];
    for wpacked in &wrong {
        assert!(matches!(
            kernel.run_packed(&w, &a, Some(&luts), None, Some(wpacked)),
            Err(LocaLutError::UnsupportedFormat(_))
        ));
    }
    let (w3, _) = operands(2, 6, 2, I3, I3);
    assert!(matches!(
        kernel.pack_weights(&w3),
        Err(LocaLutError::UnsupportedFormat(_))
    ));
}

#[test]
fn shared_luts_and_panel_runs_match_the_local_run() {
    let (w, a) = operands(4, 9, 3, I2, I3);
    let luts = SharedLuts::build(I2, I3, 3).unwrap();
    for method in [Method::OpLcRc, Method::LoCaLut] {
        let kernel = spec(method, I2, I3, 3);
        let local = kernel.run(&w, &a, None, None).unwrap();
        assert_eq!(kernel.run(&w, &a, Some(&luts), None).unwrap(), local);
        let panel = kernel.resolve_panel(&a, &luts).unwrap().unwrap();
        assert_eq!(
            kernel.run(&w, &a, Some(&luts), Some(&panel)).unwrap(),
            local
        );
        let wpacked = kernel.pack_weights(&w).unwrap().unwrap();
        assert_eq!(wpacked, PackedCodes::pack_weight_rows(&w, 3));
        for panel in [None, Some(&panel)] {
            assert_eq!(
                kernel.run_packed(&w, &a, Some(&luts), panel, Some(&wpacked)),
                Ok(local.clone())
            );
        }
    }
    // Arms that gather through no shared LUTs have no prepared forms.
    let op = spec(Method::Op, I2, I3, 3);
    assert!(op.resolve_panel(&a, &luts).unwrap().is_none());
    assert!(op.pack_weights(&w).unwrap().is_none());
}

#[test]
fn bank_kernel_reports_method_and_p_for_every_arm() {
    let (w, a) = operands(4, 12, 3, I2, I3);
    let d = GemmDims::of(&w, &a).unwrap();
    let cfg = GemmConfig::upmem();
    for method in Method::ALL {
        let bank = BankKernel::build(&cfg, method, w.format(), a.format(), d).unwrap();
        // A LoCaLut plan that lands buffer-resident is realized by the
        // OP+LC+RC arm and reports itself as such.
        if method == Method::LoCaLut {
            assert!(matches!(bank.method(), Method::LoCaLut | Method::OpLcRc));
        } else {
            assert_eq!(bank.method(), method);
        }
        assert!(bank.p() >= 1, "{method}");
        let out = bank.run(&w, &a).unwrap();
        assert_eq!(out.profile, bank.cost(d), "{method}");
        // LUT images are attached — and a panel is resolvable — exactly
        // where the method shares them.
        let panel = bank.resolve_panel(&a).unwrap();
        let shares = matches!(method, Method::OpLcRc | Method::LoCaLut);
        assert_eq!(panel.is_some(), shares, "{method}");
        assert_eq!(bank.run_panel(&w, &a, panel.as_ref()).unwrap(), out);
        let wpacked = bank.pack_weights(&w).unwrap();
        assert_eq!(wpacked.is_some(), shares, "{method}");
        let prepared = bank.run_packed(&w, &a, panel.as_ref(), wpacked.as_ref());
        assert_eq!(prepared.unwrap(), out);
    }
}
