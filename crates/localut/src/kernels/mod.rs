//! The six GEMM kernels of the paper's evaluation (§VI-A), as one value.
//!
//! Every kernel is **functional + timed**: `run` computes the exact output
//! through the kernel's actual data structures (LUTs, bit-serial tables, or
//! plain MACs) while an analytic `cost` twin charges the identical event
//! counts for given dimensions. The two stay consistent by construction —
//! both call one private `charge` routine whose event counts depend only on
//! dimensions (the dataflows are data-independent) — and tests assert
//! `run(...).profile == cost(dims)`.
//!
//! | [`Method`] | Design point | LUT | Gather |
//! |---|---|---|---|
//! | `NaivePim` | int MACs on the DPU ("Naive PIM")        | none                | `reference_gemm` |
//! | `Ltc`      | bit-serial runtime LUTs ("LTC (PIM)")    | per group, runtime  | bit planes |
//! | `Op`       | buffer-resident packed LUT ("OP", §III)  | packed, WRAM        | `col[row]` |
//! | `OpLc`     | + canonicalization ("OP+LC", §IV-A)      | canonical, WRAM     | software reorder |
//! | `OpLcRc`   | + reordering LUT ("OP+LC+RC", §IV-B)     | canon + reord, WRAM | `canon[reord[row]]` |
//! | `LoCaLut`  | + LUT slice streaming ("LoCaLUT", §IV-C) | canon + reord, bank | same (`k` slices priced) |
//!
//! The arms are not six types. A [`KernelSpec`] is plain data — DPU,
//! formats, arm, packing degree, tile width — with one constructor per
//! way of choosing it ([`KernelSpec::with_p`], [`KernelSpec::placed`],
//! [`KernelSpec::auto`]; nothing else in the workspace turns a `Method` or
//! a `Placement` into a kernel), one [`KernelSpec::cost`], and one
//! [`KernelSpec::run`] / [`KernelSpec::run_packed`] taking optional shared
//! LUT images, an optional activation panel and optional prepacked weight
//! rows — each operand prepared once per request by whoever can share it
//! (DESIGN.md §12). The LUT arms all execute the one blocked driver of the
//! private `gather` module, monomorphised over four small gathers.
//! [`BankKernel`] is the construct-once handle (a spec plus its optional
//! [`SharedLuts`]) that bank-parallel workers share; running one GEMM on
//! several host threads is the `runtime` crate's `ParallelExecutor`.

mod gather;
mod spec;
#[cfg(test)]
mod tests;

pub use spec::KernelSpec;

use crate::canonical::CanonicalLut;
use crate::codes::{ActivationPanel, PackedCodes};
use crate::gemm::{GemmConfig, GemmDims, GemmResult, Method};
use crate::plan::{ExecutionPlan, Placement, Planner};
use crate::reorder::ReorderLut;
use crate::LocaLutError;
use pim_sim::Profile;
use quant::{NumericFormat, QMatrix};
use std::sync::Arc;

/// Guard against accidentally materializing astronomically large LUTs in
/// host memory during functional runs. All UPMEM-budget-feasible LUTs fit
/// comfortably (the largest, W1A3 at `p = 8`, is ~12 M entries).
pub(crate) const MAX_MATERIALIZED_ENTRIES: u64 = 1 << 26;

/// Width of the N-tile every blocked loop processes per column resolution
/// batch: 16 consecutive output columns share the same 64-byte `i32`
/// output cache line per row, and 16 resolved LUT column pairs stay far
/// below the WRAM-budget-sized slices' footprint.
pub const N_TILE: usize = 16;

/// Ensures both operand formats decode to exact integers.
pub(crate) fn require_integer(wf: NumericFormat, af: NumericFormat) -> Result<(), LocaLutError> {
    if !wf.is_integer() || !af.is_integer() {
        return Err(LocaLutError::UnsupportedFormat(
            "integer kernels require integer weight/activation formats",
        ));
    }
    Ok(())
}

/// The activation code that decodes to integer zero, used to pad `K` up to
/// a multiple of `p` — an error when `K % p != 0` and the format has no
/// zero (e.g. bipolar).
pub(crate) fn pad_code_for(af: NumericFormat, k: usize, p: usize) -> Result<u16, LocaLutError> {
    let remainder = k % p;
    match af.encode_int(0) {
        Ok(zero) => Ok(zero as u16),
        Err(_) if remainder == 0 => Ok(0), // never used
        Err(_) => Err(LocaLutError::UnpaddableRemainder { remainder }),
    }
}

/// A read-only canonical + reordering LUT pair shared across workers.
///
/// Building the canonical LUT is the expensive host-side step of a kernel
/// launch (up to ~12 M entries at W1A3, `p = 8`). In the hardware model the
/// image is built once and broadcast to every bank (§V-A); this type is the
/// software twin: one build behind [`Arc`], cloned by reference into every
/// worker of a bank-parallel run.
///
/// # Examples
///
/// ```
/// use localut::kernels::SharedLuts;
/// use quant::NumericFormat;
///
/// let luts = SharedLuts::build(NumericFormat::Uint(1), NumericFormat::Int(3), 3)?;
/// assert_eq!(luts.p(), 3);
/// // Clones share the same LUT storage (cheap Arc bumps).
/// let worker_copy = luts.clone();
/// assert_eq!(worker_copy.canonical().cols(), luts.canonical().cols());
/// # Ok::<(), localut::LocaLutError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SharedLuts {
    canonical: Arc<CanonicalLut<i32>>,
    reorder: Arc<ReorderLut>,
}

impl SharedLuts {
    /// Builds the canonical + reordering LUT images for `(wf, af, p)`.
    ///
    /// # Errors
    ///
    /// LUT build errors ([`LocaLutError::BudgetExceeded`] when the
    /// materialization guard trips, format/degree errors).
    pub fn build(wf: NumericFormat, af: NumericFormat, p: u32) -> Result<Self, LocaLutError> {
        let canonical = CanonicalLut::<i32>::build(wf, af, p, MAX_MATERIALIZED_ENTRIES)?;
        let reorder = ReorderLut::build(wf.bits(), p, MAX_MATERIALIZED_ENTRIES)?;
        Self::from_parts(canonical, reorder)
    }

    /// Reassembles a shared pair from already-materialized images (a
    /// persisted cache, a broadcast copy), validating that the two were
    /// built for one `(wf, af, p)` configuration.
    ///
    /// # Errors
    ///
    /// [`LocaLutError::UnsupportedFormat`] when the reordering LUT's
    /// `(bits, p)` does not match the canonical LUT's weight format and
    /// packing degree.
    pub fn from_parts(
        canonical: CanonicalLut<i32>,
        reorder: ReorderLut,
    ) -> Result<Self, LocaLutError> {
        if reorder.bits() != canonical.weight_format().bits() || reorder.p() != canonical.p() {
            return Err(LocaLutError::UnsupportedFormat(
                "reordering LUT shape does not match the canonical LUT's (wf, p)",
            ));
        }
        Ok(SharedLuts {
            canonical: Arc::new(canonical),
            reorder: Arc::new(reorder),
        })
    }

    /// The **budget unit** a byte-budgeted cache accounts residency in:
    /// 4 bytes per canonical entry plus 8 per reordering entry. It is
    /// neither the paper's modelled image (`ceil(bw·p / 8)` bytes per
    /// reordering entry — [`ReorderLut::entry_bytes`], the capacity
    /// formulas) nor what this host holds (1, 2 or 4 bytes —
    /// [`ReorderLut::stored_entry_bytes`]); it is the charge every cache
    /// budget, eviction order and `lut_bytes` figure was recorded under, so
    /// narrowing the stored image moved none of them. A pure function of
    /// the image dimensions, identical for a fresh build and a disk
    /// restore of the same key.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.canonical.entry_count() * std::mem::size_of::<i32>() as u64
            + self.reorder.entry_count() * std::mem::size_of::<u64>() as u64
    }

    /// The shared canonical LUT.
    #[must_use]
    pub fn canonical(&self) -> &CanonicalLut<i32> {
        &self.canonical
    }

    /// The shared reordering LUT.
    #[must_use]
    pub fn reorder(&self) -> &ReorderLut {
        &self.reorder
    }

    /// The packing degree the LUTs were built for.
    #[must_use]
    pub fn p(&self) -> u32 {
        self.canonical.p()
    }

    /// The weight format the LUTs were built for.
    #[must_use]
    pub fn weight_format(&self) -> NumericFormat {
        self.canonical.weight_format()
    }

    /// The activation format the LUTs were built for.
    #[must_use]
    pub fn activation_format(&self) -> NumericFormat {
        self.canonical.activation_format()
    }

    /// Validates that the LUTs match a kernel's `(wf, af, p)` configuration.
    pub(crate) fn check(
        &self,
        wf: NumericFormat,
        af: NumericFormat,
        p: u32,
    ) -> Result<(), LocaLutError> {
        if (self.weight_format(), self.activation_format(), self.p()) != (wf, af, p) {
            return Err(LocaLutError::UnsupportedFormat(
                "shared LUTs were built for a different (format, format, p) configuration",
            ));
        }
        Ok(())
    }
}

/// A construct-once bank kernel: one [`KernelSpec`] next to the shared
/// LUT images it gathers through.
///
/// `GemmConfig::run` re-plans and rebuilds LUTs on every call; a parallel
/// runtime instead builds one `BankKernel` for the *full* GEMM dimensions
/// and shares it with every worker, so all banks execute the identical
/// plan against one [`SharedLuts`] image (clones only bump `Arc` counts).
/// Construction from a [`Method`] is [`BankKernel::build`] /
/// [`BankKernel::build_with`] / [`BankKernel::build_planned`]; everything
/// else is a thin call into the spec.
///
/// # Examples
///
/// ```
/// use localut::kernels::BankKernel;
/// use localut::{GemmConfig, GemmDims, Method};
/// use quant::NumericFormat;
///
/// let dims = GemmDims { m: 64, k: 36, n: 8 };
/// let bank = BankKernel::build(
///     &GemmConfig::upmem(), Method::LoCaLut,
///     NumericFormat::Int(2), NumericFormat::Int(3), dims)?;
/// assert_eq!(bank.method(), Method::LoCaLut);
/// assert!(bank.cost(dims).total_seconds() > 0.0);
/// # Ok::<(), localut::LocaLutError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BankKernel {
    spec: KernelSpec,
    luts: Option<SharedLuts>,
}

impl BankKernel {
    /// Pairs a kernel with prebuilt shared LUT images; every run gathers
    /// through them instead of building its own.
    #[must_use]
    pub fn with_shared_luts(spec: KernelSpec, luts: SharedLuts) -> Self {
        BankKernel {
            spec,
            luts: Some(luts),
        }
    }

    /// Constructs the kernel `method` would use for a GEMM of `dims`,
    /// building shared LUT images once where the method uses them.
    ///
    /// For [`Method::LoCaLut`] the §V-A planner runs on the **full**
    /// dimensions, so every bank of a sharded run executes the same
    /// placement and packing degree the serial path would.
    ///
    /// # Errors
    ///
    /// Format, budget, or planning errors (see [`LocaLutError`]).
    pub fn build(
        cfg: &GemmConfig,
        method: Method,
        wf: NumericFormat,
        af: NumericFormat,
        dims: GemmDims,
    ) -> Result<Self, LocaLutError> {
        Self::build_with(cfg, method, wf, af, dims, |wf, af, p, _| {
            SharedLuts::build(wf, af, p)
        })
    }

    /// [`BankKernel::build`] with an injected LUT source: wherever the
    /// method needs shared images, `luts_for(wf, af, p, placement)` is
    /// asked for them instead of [`SharedLuts::build`]. This keeps the
    /// method dispatch and planning in exactly one place while letting a
    /// serving layer substitute a cache — the returned kernel is
    /// otherwise identical to `build`'s.
    ///
    /// # Errors
    ///
    /// Format, budget, or planning errors, plus whatever `luts_for`
    /// reports.
    pub fn build_with(
        cfg: &GemmConfig,
        method: Method,
        wf: NumericFormat,
        af: NumericFormat,
        dims: GemmDims,
        luts_for: impl FnMut(
            NumericFormat,
            NumericFormat,
            u32,
            Placement,
        ) -> Result<SharedLuts, LocaLutError>,
    ) -> Result<Self, LocaLutError> {
        Self::build_planned(cfg, method, wf, af, dims, luts_for, |dims, wf, af, k| {
            Planner::new(cfg.dpu.clone()).plan(dims, wf, af, k)
        })
    }

    /// [`BankKernel::build_with`] with the §V-A planning step injected as
    /// well: where [`Method::LoCaLut`] needs an [`ExecutionPlan`],
    /// `plan_for(dims, wf, af, k_slices)` is asked for it instead of
    /// running [`Planner::plan`] directly. A serving layer substitutes a
    /// memoized planner here; because planning is deterministic, a cached
    /// plan must equal a recomputed one and the returned kernel is
    /// identical to `build`'s.
    ///
    /// # Errors
    ///
    /// Format, budget, or planning errors, plus whatever `luts_for` or
    /// `plan_for` report.
    pub fn build_planned(
        cfg: &GemmConfig,
        method: Method,
        wf: NumericFormat,
        af: NumericFormat,
        dims: GemmDims,
        mut luts_for: impl FnMut(
            NumericFormat,
            NumericFormat,
            u32,
            Placement,
        ) -> Result<SharedLuts, LocaLutError>,
        plan_for: impl FnOnce(
            GemmDims,
            NumericFormat,
            NumericFormat,
            Option<u32>,
        ) -> Result<ExecutionPlan, LocaLutError>,
    ) -> Result<Self, LocaLutError> {
        let plan = || plan_for(dims, wf, af, Some(cfg.k_slices));
        let spec = KernelSpec::auto(cfg, method, wf, af, plan)?;
        let luts = spec
            .placement()
            .map(|placement| luts_for(wf, af, spec.p(), placement))
            .transpose()?;
        Ok(BankKernel { spec, luts })
    }

    /// The method this kernel realizes.
    #[must_use]
    pub fn method(&self) -> Method {
        self.spec.method()
    }

    /// The kernel's packing degree.
    #[must_use]
    pub fn p(&self) -> u32 {
        self.spec.p()
    }

    /// Runs the kernel on one operand tile, reusing the shared LUT images
    /// where the method has them.
    ///
    /// # Errors
    ///
    /// Shape, format, or padding errors.
    pub fn run(&self, w: &QMatrix, a: &QMatrix) -> Result<GemmResult, LocaLutError> {
        self.run_panel(w, a, None)
    }

    /// The analytic cost twin for a tile of `dims` (equals the profile
    /// [`BankKernel::run`] charges for operands of the same shape).
    #[must_use]
    pub fn cost(&self, dims: GemmDims) -> Profile {
        self.spec.cost(dims)
    }

    /// Resolves the activation panel the kernel shares across row-sharded
    /// banks — `None` when no shared images are attached or the arm has no
    /// panel form.
    ///
    /// # Errors
    ///
    /// Shape, format, or padding errors.
    pub fn resolve_panel(&self, a: &QMatrix) -> Result<Option<ActivationPanel>, LocaLutError> {
        match &self.luts {
            Some(luts) => self.spec.resolve_panel(a, luts),
            None => Ok(None),
        }
    }

    /// Packs the weight rows the kernel shares across column-sharded
    /// banks of one row band — `None` when no shared images are attached
    /// or the arm packs for itself.
    ///
    /// # Errors
    ///
    /// Format errors.
    pub fn pack_weights(&self, w: &QMatrix) -> Result<Option<PackedCodes>, LocaLutError> {
        match &self.luts {
            Some(_) => self.spec.pack_weights(w),
            None => Ok(None),
        }
    }

    /// Runs one tile against a panel resolved from the same activation
    /// tile by [`BankKernel::resolve_panel`], packing the weight rows
    /// itself; with `None` the kernel resolves locally too. Bitwise
    /// identical to [`BankKernel::run`] in values and profile.
    ///
    /// # Errors
    ///
    /// Shape, format, or padding errors.
    pub fn run_panel(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        panel: Option<&ActivationPanel>,
    ) -> Result<GemmResult, LocaLutError> {
        self.run_packed(w, a, panel, None)
    }

    /// [`BankKernel::run_panel`] with the weight rows also prepared by the
    /// caller: `wpacked` is [`BankKernel::pack_weights`] of the same `w`.
    /// Bitwise identical to [`BankKernel::run`] in values and profile.
    ///
    /// # Errors
    ///
    /// Shape, format, or padding errors;
    /// [`LocaLutError::UnsupportedFormat`] when `panel` or `wpacked` were
    /// prepared for operands of another shape.
    pub fn run_packed(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        panel: Option<&ActivationPanel>,
        wpacked: Option<&PackedCodes>,
    ) -> Result<GemmResult, LocaLutError> {
        self.spec
            .run_packed(w, a, self.luts.as_ref(), panel, wpacked)
    }
}
