//! GEMM dimensions, the reference implementation, the method taxonomy of
//! the evaluation (§VI-A), and the top-level dispatcher.

use crate::kernels::{BankKernel, KernelSpec};
use crate::plan::Planner;
use crate::value::LutValue;
use crate::LocaLutError;
use pim_sim::{DpuConfig, Profile};
use quant::{NumericFormat, QMatrix};

/// Dimensions of `W (M×K) × A (K×N) = O (M×N)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmDims {
    /// Weight rows (output rows).
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Activation columns (output columns).
    pub n: usize,
}

impl GemmDims {
    /// Derives dimensions from operand matrices.
    ///
    /// # Errors
    ///
    /// [`LocaLutError::DimensionMismatch`] when `W.cols != A.rows`.
    pub fn of(w: &QMatrix, a: &QMatrix) -> Result<Self, LocaLutError> {
        if w.cols() != a.rows() {
            return Err(LocaLutError::DimensionMismatch {
                w_k: w.cols(),
                a_k: a.rows(),
            });
        }
        Ok(GemmDims {
            m: w.rows(),
            k: w.cols(),
            n: a.cols(),
        })
    }

    /// Total multiply-accumulates, `M·K·N`.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }

    /// Bytes of the bit-packed weight matrix.
    #[must_use]
    pub fn weight_bytes(&self, bw: u8) -> u64 {
        (self.m as u64 * self.k as u64 * u64::from(bw)).div_ceil(8)
    }

    /// Bytes of the bit-packed activation matrix.
    #[must_use]
    pub fn activation_bytes(&self, ba: u8) -> u64 {
        (self.k as u64 * self.n as u64 * u64::from(ba)).div_ceil(8)
    }

    /// Bytes of the (i32) output matrix.
    #[must_use]
    pub fn output_bytes(&self) -> u64 {
        self.m as u64 * self.n as u64 * 4
    }
}

impl core::fmt::Display for GemmDims {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {}, {})", self.m, self.k, self.n)
    }
}

/// Reference GEMM over decoded codes — the ground truth every kernel must
/// reproduce exactly (integer formats) or approximately (float formats).
///
/// # Errors
///
/// [`LocaLutError::DimensionMismatch`] on incompatible shapes.
pub fn reference_gemm<V: LutValue>(w: &QMatrix, a: &QMatrix) -> Result<Vec<V>, LocaLutError> {
    let dims = GemmDims::of(w, a)?;
    let (wf, af) = (w.format(), a.format());
    let mut out = vec![V::default(); dims.m * dims.n];
    for m in 0..dims.m {
        for n in 0..dims.n {
            let mut acc = V::default();
            for k in 0..dims.k {
                let wv = V::decode(wf, u32::from(w.code_at(m, k)));
                let av = V::decode(af, u32::from(a.code_at(k, n)));
                acc += wv.mul(av);
            }
            out[m * dims.n + n] = acc;
        }
    }
    Ok(out)
}

/// The six execution methods of the paper's evaluation (§VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Conventional PIM: int8 MAC units on the DPU (no LUTs).
    NaivePim,
    /// LUT Tensor Core adapted to PIM: bit-serial activation-group LUTs
    /// generated at runtime.
    Ltc,
    /// Buffer-resident operation-packed LUT (the "OP" design point).
    Op,
    /// OP + LUT canonicalization, with software weight reordering ("OP+LC").
    OpLc,
    /// OP + LC + reordering LUT, buffer-resident ("OP+LC+RC").
    OpLcRc,
    /// The full design: OP + LC + RC + LUT slice streaming with automatic
    /// placement ("LoCaLUT").
    LoCaLut,
}

impl Method {
    /// All methods in the paper's presentation order.
    pub const ALL: [Method; 6] = [
        Method::NaivePim,
        Method::Ltc,
        Method::Op,
        Method::OpLc,
        Method::OpLcRc,
        Method::LoCaLut,
    ];

    /// The figure label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Method::NaivePim => "Naive PIM",
            Method::Ltc => "LTC (PIM)",
            Method::Op => "OP",
            Method::OpLc => "OP+LC",
            Method::OpLcRc => "OP+LC+RC",
            Method::LoCaLut => "LoCaLUT",
        }
    }

    /// The canonical machine-readable token (`naive`, `ltc`, `op`,
    /// `oplc`, `oplcrc`, `localut`) — what CLI flags and wire encodings
    /// carry; the inverse of [`Method::from_str`](core::str::FromStr).
    #[must_use]
    pub fn flag_name(self) -> &'static str {
        match self {
            Method::NaivePim => "naive",
            Method::Ltc => "ltc",
            Method::Op => "op",
            Method::OpLc => "oplc",
            Method::OpLcRc => "oplcrc",
            Method::LoCaLut => "localut",
        }
    }
}

impl core::str::FromStr for Method {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Method::ALL
            .into_iter()
            .find(|m| m.flag_name() == s)
            .ok_or_else(|| format!("unknown method '{s}' (naive|ltc|op|oplc|oplcrc|localut)"))
    }
}

impl core::fmt::Display for Method {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Output of a kernel execution: exact values plus the simulated profile.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmResult {
    /// Row-major `M×N` integer outputs.
    pub values: Vec<i32>,
    /// Dimensions.
    pub dims: GemmDims,
    /// Per-DPU simulated time/event profile.
    pub profile: Profile,
}

/// Top-level configuration binding methods to a DPU and a slice count.
#[derive(Debug, Clone)]
pub struct GemmConfig {
    /// The DPU the kernel runs on.
    pub dpu: DpuConfig,
    /// Number of LUT slices co-resident in WRAM (`k` of §IV-C / Fig. 13).
    pub k_slices: u32,
}

impl GemmConfig {
    /// UPMEM configuration with the paper's default of `k = 2` slices.
    #[must_use]
    pub fn upmem() -> Self {
        GemmConfig {
            dpu: DpuConfig::upmem(),
            k_slices: 2,
        }
    }

    /// Runs `method` functionally on quantized operands, returning exact
    /// outputs and the simulated profile.
    ///
    /// Construction and dispatch both go through [`BankKernel`]: the
    /// method-to-kernel match lives behind [`BankKernel::build`] and the
    /// execution is one [`KernelSpec::run`] call.
    ///
    /// # Errors
    ///
    /// Shape/format/budget errors from the kernel (see [`LocaLutError`]).
    pub fn run(
        &self,
        method: Method,
        w: &QMatrix,
        a: &QMatrix,
    ) -> Result<GemmResult, LocaLutError> {
        let dims = GemmDims::of(w, a)?;
        BankKernel::build(self, method, w.format(), a.format(), dims)?.run(w, a)
    }

    /// Analytic cost twin of [`GemmConfig::run`]: the profile for `dims`
    /// without touching data (used by the end-to-end model sweeps).
    ///
    /// # Errors
    ///
    /// Format errors, or budget errors when no feasible LUT configuration
    /// exists — exactly the errors constructing the kernel would report.
    pub fn cost(
        &self,
        method: Method,
        dims: GemmDims,
        wf: NumericFormat,
        af: NumericFormat,
    ) -> Result<Profile, LocaLutError> {
        let spec = KernelSpec::auto(self, method, wf, af, || {
            Planner::new(self.dpu.clone()).plan(dims, wf, af, Some(self.k_slices))
        })?;
        Ok(spec.cost(dims))
    }

    /// Like [`GemmConfig::cost`], but LoCaLUT plans by **measured** kernel
    /// cost ([`Planner::plan_measured`]) instead of the fixed-`k` closed
    /// form — the per-phase planning path decode-skinny GEMMs use, where
    /// the closed form's `n`-cancellation no longer holds. Every other
    /// method is planner-free and costs identically to [`GemmConfig::cost`].
    ///
    /// # Errors
    ///
    /// Budget errors when no feasible LUT configuration exists.
    pub fn cost_measured(
        &self,
        method: Method,
        dims: GemmDims,
        wf: NumericFormat,
        af: NumericFormat,
    ) -> Result<Profile, LocaLutError> {
        let spec = KernelSpec::auto(self, method, wf, af, || {
            Planner::new(self.dpu.clone()).plan_measured(dims, wf, af)
        })?;
        Ok(spec.cost(dims))
    }
}

impl Default for GemmConfig {
    fn default() -> Self {
        Self::upmem()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant::Quantizer;

    fn tiny_operands() -> (QMatrix, QMatrix) {
        let wq = Quantizer::symmetric(NumericFormat::Int(2));
        let aq = Quantizer::symmetric(NumericFormat::Int(3));
        let w = wq
            .quantize_matrix(&[1.0, -1.0, 0.5, -0.5, 1.0, 0.0], 2, 3)
            .unwrap();
        let a = aq
            .quantize_matrix(&[3.0, -3.0, 1.0, 0.0, -2.0, 2.0], 3, 2)
            .unwrap();
        (w, a)
    }

    #[test]
    fn method_flag_names_roundtrip() {
        for method in Method::ALL {
            assert_eq!(method.flag_name().parse::<Method>().unwrap(), method);
        }
        assert!("turbo".parse::<Method>().is_err());
    }

    #[test]
    fn dims_of_validates() {
        let (w, a) = tiny_operands();
        let d = GemmDims::of(&w, &a).unwrap();
        assert_eq!((d.m, d.k, d.n), (2, 3, 2));
        let err = GemmDims::of(&a, &a).unwrap_err();
        assert!(matches!(err, LocaLutError::DimensionMismatch { .. }));
    }

    #[test]
    fn byte_accounting() {
        let d = GemmDims { m: 4, k: 6, n: 2 };
        assert_eq!(d.macs(), 48);
        assert_eq!(d.weight_bytes(1), 3); // 24 bits
        assert_eq!(d.activation_bytes(3), 5); // 36 bits
        assert_eq!(d.output_bytes(), 32);
    }

    #[test]
    fn reference_gemm_known_values() {
        let (w, a) = tiny_operands();
        let out: Vec<i32> = reference_gemm(&w, &a).unwrap();
        // Verify one element by hand.
        let mut expect = 0i32;
        for k in 0..3 {
            expect += w.value_at(0, k).unwrap() * a.value_at(k, 0).unwrap();
        }
        assert_eq!(out[0], expect);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn method_labels_cover_all() {
        assert_eq!(Method::ALL.len(), 6);
        for m in Method::ALL {
            assert!(!m.label().is_empty());
        }
        assert_eq!(Method::LoCaLut.to_string(), "LoCaLUT");
    }

    #[test]
    fn all_methods_match_reference_on_tiny_input() {
        let (w, a) = tiny_operands();
        let reference: Vec<i32> = reference_gemm(&w, &a).unwrap();
        let cfg = GemmConfig::upmem();
        for method in Method::ALL {
            let result = cfg.run(method, &w, &a).unwrap();
            assert_eq!(result.values, reference, "{method} diverged");
            assert!(result.profile.total_seconds() > 0.0, "{method} free?");
        }
    }
}
