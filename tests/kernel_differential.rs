//! Enumerated small-shape differential over the whole kernel layer — no
//! sampling. Every arm × format pair × feasible packing degree × ragged
//! and aligned `K` × sub-tile, full-tile and tile-crossing `N` must equal
//! `reference_gemm` in values, charge exactly its cost twin, and give the
//! same result whether it builds its LUTs locally, gathers through shared
//! images, or consumes a pre-resolved activation panel.

use localut::capacity::{canonical_lut_bytes, entry_bytes, op_lut_bytes};
use localut::gemm::{reference_gemm, GemmConfig, GemmDims, Method};
use localut::kernels::{BankKernel, KernelSpec, SharedLuts, N_TILE};
use localut::LocaLutError;
use quant::{NumericFormat, QMatrix};

/// Entries of the LUT image an arm materializes at `(wf, af, p)`: the
/// packed LUT for OP, the canonical LUT for every canonicalized arm.
fn entries(method: Method, wf: NumericFormat, af: NumericFormat, p: u32) -> u128 {
    let bytes = match method {
        Method::NaivePim | Method::Ltc => return 0,
        Method::Op => op_lut_bytes(wf, af, p),
        _ => canonical_lut_bytes(wf, af, p),
    };
    bytes.expect("small formats") / u128::from(entry_bytes(wf, af, p))
}

/// Images under this many entries are rebuilt by every self-building run;
/// larger ones (up to [`MAX_ENTRIES`]) once per arm, on the most ragged
/// shape — a debug-build LUT build of ~1 M entries costs ~0.1 s, and the
/// enumeration below would otherwise pay it ~400 times.
const REBUILD_ENTRIES: u128 = 1 << 16;
const MAX_ENTRIES: u128 = 1 << 20;

#[test]
fn every_arm_matches_the_reference_on_every_small_shape() {
    use NumericFormat::{Bipolar, Int, Uint};
    const M: usize = 5;
    let cfg = GemmConfig::upmem();
    let mut runs = 0u32;
    for wf in [Bipolar, Uint(1), Uint(2), Int(2), Int(3)] {
        for af in [Int(2), Int(3), Int(4)] {
            for p in 1..=5u32 {
                if entries(Method::OpLcRc, wf, af, p) >= MAX_ENTRIES {
                    continue;
                }
                let luts = SharedLuts::build(wf, af, p).unwrap();
                for method in Method::ALL {
                    let case = format!("{method} {wf:?}x{af:?} p={p}");
                    let lut_free = matches!(method, Method::NaivePim | Method::Ltc);
                    let degree = if lut_free { 1 } else { p };
                    let kernel = match KernelSpec::with_p(&cfg, method, wf, af, degree) {
                        // k = 2 slice pairs may not fit WRAM at this degree.
                        Err(LocaLutError::BudgetExceeded { .. }) if method == Method::LoCaLut => {
                            continue;
                        }
                        kernel => kernel.expect(&case),
                    };
                    let image = entries(method, wf, af, p);
                    if image >= MAX_ENTRIES {
                        continue; // OP's uncanonicalized image outgrows the others'
                    }
                    // Attached images are ignored by the arms that do not
                    // gather through them: their `run` always self-builds.
                    let shared = BankKernel::with_shared_luts(kernel.clone(), luts.clone());
                    let (k_ragged, n_ragged) = (2 * p as usize + 1, N_TILE + 3);
                    for k in [p as usize - 1, p as usize, k_ragged] {
                        for n in [1, N_TILE, n_ragged] {
                            let rebuild = image < REBUILD_ENTRIES || (k, n) == (k_ragged, n_ragged);
                            if !rebuild && kernel.placement().is_none() {
                                continue;
                            }
                            let case = format!("{case} ({M}, {k}, {n})");
                            let w = QMatrix::pseudo_random(M, k, wf, 17 + k as u64);
                            let a = QMatrix::pseudo_random(k, n, af, 91 + n as u64);
                            let out = shared.run(&w, &a).expect(&case);
                            assert_eq!(
                                out.values,
                                reference_gemm::<i32>(&w, &a).unwrap(),
                                "{case}"
                            );
                            assert_eq!(out.profile, kernel.cost(GemmDims { m: M, k, n }), "{case}");
                            let panel = shared.resolve_panel(&a).expect(&case);
                            assert_eq!(panel.is_some(), kernel.placement().is_some(), "{case}");
                            let paneled = shared.run_panel(&w, &a, panel.as_ref());
                            assert_eq!(paneled.expect(&case), out, "{case}");
                            if rebuild && panel.is_some() {
                                assert_eq!(
                                    kernel.run(&w, &a, None, None).expect(&case),
                                    out,
                                    "{case}"
                                );
                            }
                            runs += 1;
                        }
                    }
                }
            }
        }
    }
    // The enumeration is not vacuous: every arm ran at several degrees.
    assert!(runs > 2000, "only {runs} runs");
}

/// Bipolar activations have no zero code, so a ragged `K` cannot be padded:
/// every arm that packs `p > 1` codes per lookup must refuse, through
/// every entry point, and an aligned `K` must still run.
#[test]
fn bipolar_activations_reject_a_ragged_k_in_every_packed_arm() {
    let (wf, af, p) = (NumericFormat::Int(2), NumericFormat::Bipolar, 3);
    let cfg = GemmConfig::upmem();
    let luts = SharedLuts::build(wf, af, p).unwrap();
    let w = QMatrix::pseudo_random(4, 7, wf, 1);
    let a = QMatrix::pseudo_random(7, 2, af, 2);
    for method in [Method::Op, Method::OpLc, Method::OpLcRc, Method::LoCaLut] {
        let kernel = KernelSpec::with_p(&cfg, method, wf, af, p).unwrap();
        let unpaddable = Err(LocaLutError::UnpaddableRemainder { remainder: 1 });
        assert_eq!(kernel.run(&w, &a, None, None), unpaddable, "{method}");
        assert_eq!(
            kernel.run(&w, &a, Some(&luts), None),
            unpaddable,
            "{method}"
        );
        if kernel.placement().is_some() {
            assert!(kernel.resolve_panel(&a, &luts).is_err(), "{method}");
        }
        let (w, a) = (w.submatrix(0..4, 0..6), a.submatrix(0..6, 0..2));
        let out = kernel.run(&w, &a, Some(&luts), None).unwrap();
        assert_eq!(
            out.values,
            reference_gemm::<i32>(&w, &a).unwrap(),
            "{method}"
        );
    }
}
