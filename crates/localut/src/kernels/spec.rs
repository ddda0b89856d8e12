//! [`KernelSpec`] — a kernel arm as plain data: its constructors (the only
//! places a [`Method`] or a [`Placement`] becomes a kernel), the single
//! cost function, and the single run entry point.

use super::gather::{drive, BitPlanes, Packed, Reordered, SoftwareReorder};
use super::MAX_MATERIALIZED_ENTRIES;
use super::{pad_code_for, require_integer, SharedLuts};
use crate::canonical::CanonicalLut;
use crate::capacity::{
    canonical_lut_bytes, localut_bytes, max_p_by, op_lut_bytes, slice_pair_bytes, streaming_fit,
};
use crate::codes::{ActivationPanel, PackedCodes};
use crate::gemm::{reference_gemm, GemmConfig, GemmDims, GemmResult, Method};
use crate::packed::OpPackedLut;
use crate::plan::{ExecutionPlan, Placement};
use crate::reorder::ReorderEntries;
use crate::LocaLutError;
use pim_sim::{Category, Dpu, DpuConfig, Profile};
use quant::{NumericFormat, QMatrix};

/// One kernel arm of the evaluation, as a validated value: DPU, formats,
/// arm, packing degree, and the `k_slices` co-resident slice pairs a
/// streamed arm is priced at (§IV-C).
///
/// [`KernelSpec::run`] executes it and [`KernelSpec::cost`] prices it;
/// `run(w, a, ..)?.profile == cost(GemmDims::of(w, a)?)` holds exactly
/// for every arm because both charge through one private routine whose
/// event counts depend on dimensions alone.
///
/// # Examples
///
/// ```
/// use localut::kernels::KernelSpec;
/// use localut::{GemmConfig, GemmDims, Method};
/// use quant::{NumericFormat, QMatrix};
///
/// let (wf, af) = (NumericFormat::Int(2), NumericFormat::Int(3));
/// let spec = KernelSpec::with_p(&GemmConfig::upmem(), Method::OpLcRc, wf, af, 3)?;
/// let w = QMatrix::pseudo_random(4, 7, wf, 1);
/// let a = QMatrix::pseudo_random(7, 2, af, 2);
/// let out = spec.run(&w, &a, None, None)?;
/// assert_eq!(out.profile, spec.cost(GemmDims::of(&w, &a)?));
/// # Ok::<(), localut::LocaLutError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KernelSpec {
    dpu: DpuConfig,
    wf: NumericFormat,
    af: NumericFormat,
    method: Method,
    p: u32,
    /// Slice pairs per streamed batch: how many weight passes
    /// [`Method::LoCaLut`] is charged. The host loop does not walk it.
    k_slices: u32,
}

impl KernelSpec {
    /// The arm `method` names at an explicit packing degree — the single
    /// place a [`Method`] becomes a kernel, and where every arm's
    /// feasibility is decided. [`Method::LoCaLut`] is the slice-streaming
    /// arm at `cfg.k_slices` co-resident slice pairs; the LUT-free
    /// baselines consume one code at a time (`p = 1` only); the
    /// buffer-resident LUT arms take any `p ≥ 1`, since sweeps price
    /// degrees beyond the WRAM budget on purpose.
    ///
    /// # Errors
    ///
    /// * [`LocaLutError::UnsupportedFormat`] on floating-point formats, or
    ///   when LTC's group is too wide to bit-pack (`g · bits > 64`).
    /// * [`LocaLutError::InvalidPackingDegree`] for `p = 0`, `k = 0`, or
    ///   `p ≠ 1` on a LUT-free baseline.
    /// * [`LocaLutError::BudgetExceeded`] when the streamed LUTs exceed
    ///   the bank LUT budget, or `k` slice pairs the WRAM LUT budget.
    pub fn with_p(
        cfg: &GemmConfig,
        method: Method,
        wf: NumericFormat,
        af: NumericFormat,
        p: u32,
    ) -> Result<Self, LocaLutError> {
        require_integer(wf, af)?;
        if p == 0 {
            return Err(LocaLutError::InvalidPackingDegree(0));
        }
        let dpu = &cfg.dpu;
        match method {
            Method::NaivePim | Method::Ltc if p != 1 => {
                return Err(LocaLutError::InvalidPackingDegree(p));
            }
            Method::Ltc if u32::from(wf.bits()) * dpu.processor.costs.ltc_group > 64 => {
                return Err(LocaLutError::UnsupportedFormat(
                    "LTC group does not fit a packed 64-bit weight word",
                ));
            }
            Method::LoCaLut => {
                if cfg.k_slices == 0 {
                    return Err(LocaLutError::InvalidPackingDegree(0));
                }
                streaming_fit(dpu, wf, af, p, cfg.k_slices)?;
            }
            _ => {}
        }
        Ok(KernelSpec {
            dpu: dpu.clone(),
            wf,
            af,
            method,
            p,
            k_slices: cfg.k_slices,
        })
    }

    /// The kernel a placement decision describes — the single place a
    /// [`Placement`] becomes a kernel (planner output, pinned requests,
    /// placement sweeps): buffer-resident is OP+LC+RC at `p` (`k_slices`
    /// is not consulted), streaming is LoCaLUT at `(p, k_slices)`.
    ///
    /// # Errors
    ///
    /// As [`KernelSpec::with_p`].
    pub fn placed(
        dpu: &DpuConfig,
        wf: NumericFormat,
        af: NumericFormat,
        p: u32,
        placement: Placement,
        k_slices: u32,
    ) -> Result<Self, LocaLutError> {
        let method = match placement {
            Placement::BufferResident => Method::OpLcRc,
            Placement::Streaming => Method::LoCaLut,
        };
        let dpu = dpu.clone();
        Self::with_p(&GemmConfig { dpu, k_slices }, method, wf, af, p)
    }

    /// The kernel `method` uses when nothing is pinned: the buffer-resident
    /// LUT arms take the largest `p` whose image fits the WRAM LUT budget
    /// (§V-A), and [`Method::LoCaLut`] asks `plan` for its placement and
    /// degree. No LUT image is built.
    ///
    /// # Errors
    ///
    /// As [`KernelSpec::with_p`], plus [`LocaLutError::BudgetExceeded`]
    /// when not even `p = 1` fits, and whatever `plan` reports.
    pub fn auto(
        cfg: &GemmConfig,
        method: Method,
        wf: NumericFormat,
        af: NumericFormat,
        plan: impl FnOnce() -> Result<ExecutionPlan, LocaLutError>,
    ) -> Result<Self, LocaLutError> {
        require_integer(wf, af)?;
        let budget = cfg.dpu.wram_lut_budget();
        let largest = |bytes_of: fn(NumericFormat, NumericFormat, u32) -> Option<u128>| {
            let p = max_p_by(|p| bytes_of(wf, af, p), budget);
            if p == 0 {
                let required = bytes_of(wf, af, 1).unwrap_or(u128::MAX);
                return Err(LocaLutError::BudgetExceeded { required, budget });
            }
            Ok(p)
        };
        let p = match method {
            Method::NaivePim | Method::Ltc => 1,
            Method::Op => largest(op_lut_bytes)?,
            Method::OpLc => largest(canonical_lut_bytes)?,
            Method::OpLcRc => largest(localut_bytes)?,
            Method::LoCaLut => return plan()?.kernel(&cfg.dpu),
        };
        Self::with_p(cfg, method, wf, af, p)
    }

    /// The evaluation method this kernel realizes. A LoCaLUT plan that
    /// lands buffer-resident *is* the OP+LC+RC arm and reports itself so.
    #[must_use]
    pub fn method(&self) -> Method {
        self.method
    }

    /// The packing degree (`1` for the LUT-free baselines).
    #[must_use]
    pub fn p(&self) -> u32 {
        self.p
    }

    /// Where the [`SharedLuts`] pair this arm gathers through lives —
    /// `None` for the arms that use none (the baselines, OP and OP+LC).
    #[must_use]
    pub fn placement(&self) -> Option<Placement> {
        match self.method {
            Method::OpLcRc => Some(Placement::BufferResident),
            Method::LoCaLut => Some(Placement::Streaming),
            _ => None,
        }
    }

    /// Charges every event of one GEMM of `dims` to `dpu`. Event counts
    /// depend only on dimensions — the dataflows are data-independent.
    fn charge(&self, dims: GemmDims, dpu: &mut Dpu) {
        let costs = &self.dpu.processor.costs;
        let (bw, ba) = (self.wf.bits(), self.af.bits());
        let operands = dims.weight_bytes(bw) + dims.activation_bytes(ba);
        let groups = (dims.k as u64).div_ceil(u64::from(self.p)) * dims.n as u64;
        let lookups = dims.m as u64 * groups;
        match self.method {
            Method::NaivePim => {
                dpu.charge_dram_stream(operands, Category::DataTransfer);
                // UPMEM multiplies natively only at 8 bits: every MAC costs
                // a fixed instruction sequence however narrow the operands.
                let per_mac = costs.naive_mac(u32::from(bw), u32::from(ba));
                dpu.charge_instrs(dims.macs() * u64::from(per_mac), Category::Compute);
            }
            Method::Ltc => {
                let g = u64::from(costs.ltc_group);
                let groups = (dims.k as u64).div_ceil(g) * dims.n as u64;
                dpu.charge_dram_stream(operands, Category::DataTransfer);
                // Runtime table generation: 2^g entries per activation group.
                dpu.charge_instrs(
                    groups * (1u64 << g) * u64::from(costs.ltc_table_entry_build),
                    Category::Compute,
                );
                // Bit-plane lookups: one per (weight row, group, plane).
                let lookups = dims.m as u64 * groups * u64::from(BitPlanes::planes(self.wf));
                dpu.charge_instrs(lookups * u64::from(costs.ltc_lookup), Category::Compute);
            }
            Method::Op => {
                dpu.charge_dram_stream(operands, Category::DataTransfer);
                // Per lookup (op_lookup total): index/address arithmetic,
                // one WRAM entry load, and 3 accumulate/loop instructions.
                let total = u64::from(costs.op_lookup);
                let accum = 3u64.min(total.saturating_sub(1));
                dpu.charge_instrs((total - 1 - accum) * lookups, Category::IndexCalc);
                dpu.charge_wram_accesses(lookups, Category::CanonicalLookup);
                dpu.charge_instrs(accum * lookups, Category::Accumulate);
            }
            Method::OpLc => {
                dpu.charge_dram_stream(operands, Category::DataTransfer);
                // The host ships each group's sorting permutation (p packed
                // 3-bit indices ≈ 2 bytes per group).
                dpu.charge_dram_stream(2 * groups, Category::DataTransfer);
                // Software weight reorder per lookup: unpack/permute/repack,
                // then the usual address calc + canonical load + accumulate.
                dpu.charge_instrs(
                    lookups * u64::from(costs.reorder_sw(self.p)),
                    Category::IndexCalc,
                );
                dpu.charge_instrs(2 * lookups, Category::IndexCalc);
                dpu.charge_wram_accesses(lookups, Category::CanonicalLookup);
                dpu.charge_instrs(2 * lookups, Category::Accumulate);
            }
            Method::OpLcRc => {
                dpu.charge_dram_stream(operands, Category::DataTransfer);
                // Permutation ids: one per group (p! ≤ 2^16 for p ≤ 8 → 2
                // bytes). The images themselves load once at model start
                // (§V-A), so Eq. 4 has no load term.
                dpu.charge_dram_stream(2 * groups, Category::DataTransfer);
                // The profiled L_local composite per lookup.
                dpu.charge_lookup_accum(lookups);
            }
            Method::LoCaLut => {
                let slice_entries = 1u64 << (u32::from(bw) * self.p);
                let slice_bytes = slice_pair_bytes(self.wf, self.af, self.p).unwrap_or(u64::MAX);
                // Eq. 2 term 1: each group streams its slice pair once (L_D
                // per entry pair).
                dpu.charge_lut_pair_stream(groups * slice_entries, groups * slice_bytes);
                // Activations (+ 2-byte permutation ids per group) stream
                // once; the weight matrix streams once per k-batch of
                // same-K-block groups.
                let weight_passes = (dims.n as u64).div_ceil(u64::from(self.k_slices));
                dpu.charge_dram_stream(
                    dims.weight_bytes(bw) * weight_passes,
                    Category::DataTransfer,
                );
                dpu.charge_dram_stream(
                    dims.activation_bytes(ba) + 2 * groups,
                    Category::DataTransfer,
                );
                // Eq. 2 term 2: the L_local composite per (weight row, group).
                dpu.charge_lookup_accum(lookups);
            }
        }
        dpu.charge_dram_writeback(dims.output_bytes(), Category::OutputWriteback);
    }

    /// Analytic cost for the given dimensions — the profile
    /// [`KernelSpec::run`] charges for operands of the same shape.
    #[must_use]
    pub fn cost(&self, dims: GemmDims) -> Profile {
        let mut dpu = Dpu::new(self.dpu.clone());
        self.charge(dims, &mut dpu);
        dpu.profile()
    }

    /// Resolves the shard-invariant activation panel for `a`, or `None`
    /// for arms that gather through no [`SharedLuts`]. A bank-parallel
    /// executor resolves each activation column band once and passes the
    /// panel to [`KernelSpec::run`] on every row-sharded bank of the band.
    ///
    /// # Errors
    ///
    /// Padding errors, or [`LocaLutError::UnsupportedFormat`] when `luts`
    /// was built for a different `(wf, af, p)`.
    pub fn resolve_panel(
        &self,
        a: &QMatrix,
        luts: &SharedLuts,
    ) -> Result<Option<ActivationPanel>, LocaLutError> {
        if self.placement().is_none() {
            return Ok(None);
        }
        luts.check(self.wf, self.af, self.p)?;
        let p = self.p as usize;
        let pad = pad_code_for(self.af, a.rows(), p)?;
        Ok(Some(ActivationPanel::resolve(a, p, pad, luts.canonical())?))
    }

    /// Packs a weight tile the way this arm's gather reads it, or `None`
    /// for arms that gather through no [`SharedLuts`] (they pack inside
    /// [`KernelSpec::run`]). A bank-parallel executor packs each weight row
    /// band once and passes the words to [`KernelSpec::run_packed`] on
    /// every column-sharded bank of the band.
    ///
    /// # Errors
    ///
    /// [`LocaLutError::UnsupportedFormat`] when `w` is not in the kernel's
    /// weight format.
    pub fn pack_weights(&self, w: &QMatrix) -> Result<Option<PackedCodes>, LocaLutError> {
        if self.placement().is_none() {
            return Ok(None);
        }
        if w.format() != self.wf {
            return Err(LocaLutError::UnsupportedFormat(
                "operand formats differ from the kernel's configured formats",
            ));
        }
        Ok(Some(PackedCodes::pack_weight_rows(w, self.p as usize)))
    }

    /// Runs the GEMM through the arm's actual data structures: exact
    /// outputs plus the simulated profile — [`KernelSpec::run_packed`]
    /// packing its own weight rows.
    ///
    /// # Errors
    ///
    /// As [`KernelSpec::run_packed`].
    pub fn run(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        luts: Option<&SharedLuts>,
        panel: Option<&ActivationPanel>,
    ) -> Result<GemmResult, LocaLutError> {
        self.run_packed(w, a, luts, panel, None)
    }

    /// [`KernelSpec::run`] with every operand optionally prepared by the
    /// caller: `luts` are prebuilt shared images, `panel` a resolution of
    /// **this same** `a` by [`KernelSpec::resolve_panel`] and `wpacked` a
    /// packing of **this same** `w` by [`KernelSpec::pack_weights`] — their
    /// shapes are validated, their values are the caller's contract
    /// (debug builds compare both against a fresh preparation). With `None`
    /// the arm builds, resolves or packs locally, bitwise identically in
    /// values and profile; arms that gather through no [`SharedLuts`]
    /// ignore all three. Naive PIM is direct MACs ([`reference_gemm`]);
    /// every other arm bit-packs its operands once and runs the blocked
    /// `gather` driver.
    ///
    /// # Errors
    ///
    /// Shape, format, padding, or LUT-materialization errors, or
    /// [`LocaLutError::UnsupportedFormat`] when `luts`, `panel` or
    /// `wpacked` do not match the kernel and operands.
    pub fn run_packed(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        luts: Option<&SharedLuts>,
        panel: Option<&ActivationPanel>,
        wpacked: Option<&PackedCodes>,
    ) -> Result<GemmResult, LocaLutError> {
        let dims = GemmDims::of(w, a)?;
        if w.format() != self.wf || a.format() != self.af {
            return Err(LocaLutError::UnsupportedFormat(
                "operand formats differ from the kernel's configured formats",
            ));
        }
        let p = self.p as usize;
        let pad = pad_code_for(self.af, dims.k, p)?;
        let max = MAX_MATERIALIZED_ENTRIES;
        let values = match self.method {
            Method::NaivePim => reference_gemm(w, a)?,
            Method::Ltc => {
                let g = self.dpu.processor.costs.ltc_group as usize;
                let wpacked = PackedCodes::pack_weight_rows(w, g);
                drive(BitPlanes::new(a, self.wf, g), &wpacked, dims.n)?
            }
            Method::Op => {
                let lut = OpPackedLut::<i32>::build(self.wf, self.af, self.p, max)?;
                let apacked = PackedCodes::pack_activation_columns(a, p, pad);
                let wpacked = PackedCodes::pack_weight_rows(w, p);
                let gather = Packed {
                    lut: &lut,
                    apacked: &apacked,
                };
                drive(gather, &wpacked, dims.n)?
            }
            Method::OpLc => {
                let lut = CanonicalLut::<i32>::build(self.wf, self.af, self.p, max)?;
                let apacked = PackedCodes::pack_activation_columns(a, p, pad);
                let wpacked = PackedCodes::pack_weight_rows(w, p);
                let gather = SoftwareReorder::new(&lut, &apacked, &wpacked);
                drive(gather, &wpacked, dims.n)?
            }
            Method::OpLcRc | Method::LoCaLut => {
                let built;
                let luts = match luts {
                    Some(luts) => luts,
                    None => {
                        built = SharedLuts::build(self.wf, self.af, self.p)?;
                        &built
                    }
                };
                luts.check(self.wf, self.af, self.p)?;
                let groups = dims.k.div_ceil(p);
                let shape_of = |packed: &PackedCodes| {
                    (packed.bits(), packed.p(), packed.groups(), packed.lanes())
                };
                let resolved;
                let panel = match panel {
                    Some(panel) => {
                        if shape_of(panel.packed()) != (self.af.bits(), p, groups, dims.n) {
                            return Err(LocaLutError::UnsupportedFormat(
                                "activation panel shape does not match the operands",
                            ));
                        }
                        debug_assert_eq!(
                            panel.packed(),
                            &PackedCodes::pack_activation_columns(a, p, pad),
                            "activation panel resolved from a different operand"
                        );
                        panel
                    }
                    None => {
                        resolved = ActivationPanel::resolve(a, p, pad, luts.canonical())?;
                        &resolved
                    }
                };
                // The packed row of group (m, kb) is reused across every
                // output column — and, prepacked, across every shard of
                // the row band.
                let packed;
                let wpacked = match wpacked {
                    Some(wpacked) => {
                        if shape_of(wpacked) != (self.wf.bits(), p, groups, dims.m) {
                            return Err(LocaLutError::UnsupportedFormat(
                                "packed weight rows do not match the operands",
                            ));
                        }
                        debug_assert_eq!(
                            wpacked,
                            &PackedCodes::pack_weight_rows(w, p),
                            "weight rows packed from a different operand"
                        );
                        wpacked
                    }
                    None => {
                        packed = PackedCodes::pack_weight_rows(w, p);
                        &packed
                    }
                };
                // The stored entry width, matched once per run.
                match luts.reorder().entries() {
                    ReorderEntries::U8(e) => {
                        drive(Reordered::new(luts, e, panel, dims.m), wpacked, dims.n)?
                    }
                    ReorderEntries::U16(e) => {
                        drive(Reordered::new(luts, e, panel, dims.m), wpacked, dims.n)?
                    }
                    ReorderEntries::U32(e) => {
                        drive(Reordered::new(luts, e, panel, dims.m), wpacked, dims.n)?
                    }
                }
            }
        };
        Ok(GemmResult {
            values,
            dims,
            profile: self.cost(dims),
        })
    }
}
