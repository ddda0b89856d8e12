//! Failure injection: every capacity/shape/format violation must surface
//! as a typed error through the public API — never a panic, never a wrong
//! answer.

use localut::kernels::{BankKernel, KernelSpec};
use localut::plan::{Placement, Planner};
use localut::{GemmConfig, GemmDims, LocaLutError, Method};
use pim_sim::{DpuConfig, SimError};
use quant::{NumericFormat, QMatrix, Quantizer};

#[test]
fn oversized_packing_degrees_are_rejected_per_kernel() {
    let cfg = GemmConfig::upmem();
    let w1 = NumericFormat::Bipolar;
    let a3 = NumericFormat::Int(3);
    let streaming = |p, k| KernelSpec::placed(&cfg.dpu, w1, a3, p, Placement::Streaming, k);
    // Streaming: p=9 exceeds the bank budget at W1A3.
    assert!(matches!(
        streaming(9, 2),
        Err(LocaLutError::BudgetExceeded { .. })
    ));
    // Zero p / zero k.
    assert!(streaming(0, 2).is_err());
    assert!(streaming(6, 0).is_err());
    for method in Method::ALL {
        assert!(KernelSpec::with_p(&cfg, method, w1, a3, 0).is_err());
    }
}

#[test]
fn float_formats_rejected_by_integer_kernels() {
    // Format feasibility is decided once, at construction, for all six
    // arms — and the cost twin reports exactly what construction would.
    let cfg = GemmConfig::upmem();
    let dims = GemmDims { m: 8, k: 8, n: 2 };
    for (wf, af) in [
        (NumericFormat::Fp4, NumericFormat::Int(3)),
        (NumericFormat::Bipolar, NumericFormat::Fp8),
        (NumericFormat::Fp16, NumericFormat::Fp16),
        (NumericFormat::Fp4, NumericFormat::Fp4),
    ] {
        for method in Method::ALL {
            assert!(matches!(
                KernelSpec::with_p(&cfg, method, wf, af, 1),
                Err(LocaLutError::UnsupportedFormat(_))
            ));
            assert!(matches!(
                BankKernel::build(&cfg, method, wf, af, dims),
                Err(LocaLutError::UnsupportedFormat(_))
            ));
            assert!(matches!(
                cfg.cost(method, dims, wf, af),
                Err(LocaLutError::UnsupportedFormat(_))
            ));
        }
    }
}

#[test]
fn starved_budgets_make_the_planner_fail_loudly() {
    let mut cfg = DpuConfig::upmem();
    cfg.lut_budget_fraction = 1e-9; // effectively zero LUT space
    let planner = Planner::new(cfg);
    let err = planner
        .plan(
            GemmDims { m: 64, k: 64, n: 8 },
            NumericFormat::Bipolar,
            NumericFormat::Int(3),
            Some(2),
        )
        .unwrap_err();
    assert!(matches!(err, LocaLutError::BudgetExceeded { .. }));
    // The error is descriptive.
    let msg = err.to_string();
    assert!(msg.contains("exceeds budget"), "unhelpful message: {msg}");
}

#[test]
fn bipolar_activations_with_ragged_k_fail_with_unpaddable() {
    // Activations without a zero code cannot pad K % p != 0.
    let cfg = GemmConfig::upmem();
    let wq = Quantizer::symmetric(NumericFormat::Int(2));
    let aq = Quantizer::symmetric(NumericFormat::Bipolar);
    let w = wq.quantize_matrix(&[0.5; 2 * 7], 2, 7).unwrap();
    let a = aq.quantize_matrix(&[0.5; 7 * 2], 7, 2).unwrap();
    let (wf, af) = (NumericFormat::Int(2), NumericFormat::Bipolar);
    let kernel = KernelSpec::with_p(&cfg, Method::Op, wf, af, 3).unwrap();
    assert!(matches!(
        kernel.run(&w, &a, None, None),
        Err(LocaLutError::UnpaddableRemainder { remainder: 1 })
    ));
}

#[test]
fn code_out_of_range_is_caught_at_construction() {
    // A code outside the format's space never reaches the kernels.
    let err = QMatrix::from_codes(vec![9], 1, 1, NumericFormat::Int(3), 1.0).unwrap_err();
    assert!(matches!(
        err,
        quant::QuantError::CodeOutOfRange { code: 9, space: 8 }
    ));
}

#[test]
fn errors_are_std_error_and_display() {
    // All error types compose with the std error ecosystem.
    fn takes_std_error(_: &dyn std::error::Error) {}
    let sim_err = SimError::InvalidConfig("x".into());
    takes_std_error(&sim_err);
    let lut_err: LocaLutError = sim_err.into();
    takes_std_error(&lut_err);
    assert!(std::error::Error::source(&lut_err).is_some());
    let q_err = quant::QuantError::UnsupportedBits(0);
    takes_std_error(&q_err);
    let lut_err2: LocaLutError = q_err.into();
    assert!(lut_err2.to_string().contains("unsupported bitwidth"));
}
