//! The bank-parallel executor: a scoped-thread worker pool over a
//! [`ShardPlan`].
//!
//! Each worker owns a *bank-local* simulator context — the per-shard
//! [`BankKernel::run`] constructs its own `pim_sim` DPU ledger, so no
//! simulated state is shared between banks — while the expensive canonical
//! and reordering LUT images are shared read-only through the
//! [`BankKernel`]'s internal `Arc`s (one build, N readers, as the §V-A
//! broadcast works on hardware). All kernel dispatch goes through the
//! `localut::kernels::KernelSpec` the `BankKernel` holds; the executor
//! never matches on a method. Before fanning out, it prepares each
//! operand band once, on the same pool: one
//! `localut::codes::ActivationPanel` per activation column band through
//! [`BankKernel::resolve_panel`] and one packed weight tile per row band
//! through [`BankKernel::pack_weights`], so the banks of a band share the
//! preparation instead of each redoing it (bitwise-identical results,
//! DESIGN.md §12).
//!
//! Scheduling is self-balancing: the workers share one atomic cursor over
//! the shard ids and each claims the next unclaimed shard when it finishes
//! its last, so ragged tile grids (2048-shard plans have edge tiles)
//! cannot serialize the tail behind one worker.
//!
//! Determinism: results are keyed by shard id wherever they are produced,
//! and both the value scatter and every ledger fold run in ascending
//! shard id order after the pool joins — for ranked plans as a per-rank
//! merge tree whose exact associativity makes it equal to the flat fold.
//! Thread scheduling and claim order therefore cannot change any output
//! bit, and the 1-thread execution of the same plan is bitwise identical
//! to the N-thread one.

use crate::shard::{Shard, ShardPlan};
use localut::gemm::{GemmConfig, GemmDims};
use localut::kernels::BankKernel;
use localut::{LocaLutError, Method};
use pim_sim::{CycleLedger, EnergyBreakdown, EnergyModel, PimSystem, Profile, Stats};
use quant::QMatrix;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, **recovering** the data from a poisoned lock instead of
/// propagating the panic — the stack-wide policy for state whose every
/// critical section leaves it valid at each panic point: the engine's LUT
/// cache, plan memo and scheduler queues, and the network front-end's
/// counters and request log. One panicking worker
/// must not wedge every other thread that shares the state.
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One bank's contribution to a parallel GEMM.
#[derive(Debug, Clone, PartialEq)]
pub struct BankResult {
    /// The shard this bank executed.
    pub shard: Shard,
    /// The bank's simulated time/event profile for its tile.
    pub profile: Profile,
}

/// The merged output of a bank-parallel GEMM execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelGemm {
    /// Row-major `M×N` integer outputs (bit-identical to the serial path).
    pub values: Vec<i32>,
    /// Full GEMM dimensions.
    pub dims: GemmDims,
    /// Per-bank profiles in shard order.
    pub per_bank: Vec<BankResult>,
    /// Deterministic fold of the per-bank profiles in shard order (the
    /// aggregate simulated bank time; on real hardware banks overlap, so
    /// this is total bank *work*, and the critical path is the max).
    pub profile: Profile,
    /// Associative merge of the per-bank statistics — identical for every
    /// merge order and thread count by construction. For ranked plans
    /// this is the **rank merge tree** (banks fold into per-rank ledgers,
    /// ranks fold into one — exactly equal to the flat fold, pinned by
    /// tests) plus the [`ParallelGemm::link_phase`] contention term,
    /// merged as a phase (it does not count toward [`Stats::banks`]).
    pub stats: Stats,
    /// Per-rank statistics in rank order, one entry per populated rank of
    /// the plan's [`crate::RankPlan`] — the intermediate level of the
    /// merge tree. Empty for flat plans.
    pub rank_stats: Vec<Stats>,
    /// The rank-bus contention phase ([`PimSystem::rank_link_profile`]
    /// over each rank's transfer counters): the busiest rank's host-link
    /// occupancy. Already merged into [`ParallelGemm::stats`]; `None` for
    /// flat plans.
    pub link_phase: Option<Profile>,
}

/// FNV-1a over a byte stream — the **one** checksum primitive of the
/// workspace. Every deterministic fingerprint (functional GEMM outputs
/// here, batch fingerprints in the `engine` crate, the perf reports'
/// `values_checksum` column) routes through this function so the hash
/// constants exist exactly once.
///
/// # Examples
///
/// ```
/// use runtime::fnv1a_64;
///
/// // The FNV-1a offset basis hashes the empty stream.
/// assert_eq!(fnv1a_64([]), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a_64([1u8, 2]), fnv1a_64([2u8, 1])); // order-sensitive
/// ```
#[must_use]
pub fn fnv1a_64<I: IntoIterator<Item = u8>>(bytes: I) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`fnv1a_64`] over the little-endian bytes of a value vector: a compact,
/// deterministic fingerprint of a functional output. Perf reports record
/// it so a kernel "optimization" that silently changes results is caught
/// by the regression gate, not just by the (slower) e2e test suite.
///
/// # Examples
///
/// ```
/// use runtime::values_checksum;
///
/// let a = values_checksum(&[1, 2, 3]);
/// assert_eq!(a, values_checksum(&[1, 2, 3])); // deterministic
/// assert_ne!(a, values_checksum(&[1, 2, 4])); // value-sensitive
/// assert_ne!(a, values_checksum(&[3, 2, 1])); // order-sensitive
/// ```
#[must_use]
pub fn values_checksum(values: &[i32]) -> u64 {
    fnv1a_64(values.iter().flat_map(|v| v.to_le_bytes()))
}

impl ParallelGemm {
    /// [`values_checksum`] of this GEMM's merged output values.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        values_checksum(&self.values)
    }

    /// The simulated critical path across banks: the slowest bank's time
    /// (banks run concurrently on hardware; the host phases the system
    /// model adds are outside this kernel-level view).
    #[must_use]
    pub fn critical_path_seconds(&self) -> f64 {
        self.per_bank
            .iter()
            .map(|b| b.profile.total_seconds())
            .fold(0.0, f64::max)
    }

    /// Total simulated bank work (sum over banks).
    #[must_use]
    pub fn total_bank_seconds(&self) -> f64 {
        self.profile.total_seconds()
    }

    /// Energy of the bank fleet under `model`: dynamic energy from the
    /// merged event counters (per-event energies are additive across
    /// banks) plus static energy for the banks drawing power over the
    /// concurrent execution's critical path.
    #[must_use]
    pub fn energy(&self, model: &EnergyModel) -> EnergyBreakdown {
        EnergyBreakdown {
            pim_static_j: self.per_bank.len() as f64
                * model.dpu_static_w
                * self.critical_path_seconds(),
            pim_dynamic_j: model.dpu_dynamic_j(&self.profile),
            host_static_j: 0.0,
            host_dynamic_j: 0.0,
        }
    }
}

/// One operand band of a shard plan: its index range and the full-`K`
/// tile every shard of the band runs against.
type Band<'a> = (Range<usize>, Cow<'a, QMatrix>);

/// The index of `range` among `bands`, added on first sight: borrowed from
/// `whole` when it spans all `len` rows / columns, cut by `slice` otherwise.
fn band_of<'a>(
    bands: &mut Vec<Band<'a>>,
    range: &Range<usize>,
    len: usize,
    whole: &'a QMatrix,
    slice: impl FnOnce() -> QMatrix,
) -> usize {
    bands
        .iter()
        .position(|(r, _)| r == range)
        .unwrap_or_else(|| {
            let tile = if *range == (0..len) {
                Cow::Borrowed(whole)
            } else {
                Cow::Owned(slice())
            };
            bands.push((range.clone(), tile));
            bands.len() - 1
        })
}

/// A bank-parallel GEMM executor: `threads` workers over shard plans.
///
/// # Examples
///
/// Bit-exactness against the serial path, and — for a fixed shard plan —
/// bitwise invariance of every output under the worker count:
///
/// ```
/// use localut::{GemmConfig, GemmDims, Method};
/// use quant::{NumericFormat, Quantizer};
/// use runtime::{ParallelExecutor, ShardPlan};
///
/// let wq = Quantizer::symmetric(NumericFormat::Int(2));
/// let aq = Quantizer::symmetric(NumericFormat::Int(3));
/// let w = wq.quantize_matrix(&[1.0, -1.0, 0.5, -0.5, 1.0, 0.0], 2, 3)?;
/// let a = aq.quantize_matrix(&[3.0, -3.0, 1.0, 0.0, -2.0, 2.0], 3, 2)?;
///
/// let serial = GemmConfig::upmem().run(Method::OpLcRc, &w, &a)?;
/// let plan = ShardPlan::for_banks(GemmDims::of(&w, &a)?, 4);
/// let one = ParallelExecutor::new(1).execute_plan(&plan, Method::OpLcRc, &w, &a)?;
/// let four = ParallelExecutor::new(4).execute_plan(&plan, Method::OpLcRc, &w, &a)?;
/// assert_eq!(one.values, serial.values);
/// assert_eq!(four.values, serial.values);
/// assert_eq!(four.profile, one.profile); // bitwise, any worker count
/// assert_eq!(four.stats, one.stats);
/// # Ok::<(), localut::LocaLutError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    threads: usize,
    gemm: GemmConfig,
    system: PimSystem,
}

impl ParallelExecutor {
    /// An executor with `threads` workers (clamped to at least 1) and the
    /// default UPMEM kernel configuration.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::with_config(threads, GemmConfig::upmem())
    }

    /// An executor with an explicit kernel configuration and the default
    /// UPMEM system topology (used only by ranked plans, for the
    /// rank-bus contention term).
    #[must_use]
    pub fn with_config(threads: usize, gemm: GemmConfig) -> Self {
        ParallelExecutor {
            threads: threads.max(1),
            gemm,
            system: PimSystem::upmem_server(),
        }
    }

    /// Replaces the system model ranked plans charge their rank-bus
    /// contention under. Flat plans never consult it.
    #[must_use]
    pub fn with_system(mut self, system: PimSystem) -> Self {
        self.system = system;
        self
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The kernel configuration workers run.
    #[must_use]
    pub fn gemm_config(&self) -> &GemmConfig {
        &self.gemm
    }

    /// The system model ranked plans price host-link contention under.
    #[must_use]
    pub fn system(&self) -> &PimSystem {
        &self.system
    }

    /// Executes `method` over an explicit shard plan; workers claim shards
    /// one at a time, so a plan may model many more banks than there are
    /// host threads.
    ///
    /// # Errors
    ///
    /// Shape, format, budget, or planning errors;
    /// [`LocaLutError::ShardPlanMismatch`] when the plan was built for
    /// different dimensions than the operands; shard errors are reported
    /// for the lowest-id failing shard.
    pub fn execute_plan(
        &self,
        plan: &ShardPlan,
        method: Method,
        w: &QMatrix,
        a: &QMatrix,
    ) -> Result<ParallelGemm, LocaLutError> {
        let dims = GemmDims::of(w, a)?;
        let bank = BankKernel::build(&self.gemm, method, w.format(), a.format(), dims)?;
        self.execute_plan_with(plan, &bank, w, a)
    }

    /// Executes a **prebuilt** bank kernel over an explicit shard plan —
    /// the injection point the `engine` crate's LUT cache uses: callers
    /// that already hold a [`BankKernel`] (e.g. one whose shared LUT
    /// images came from a cache rather than a fresh build) skip the
    /// per-call plan-and-build that [`ParallelExecutor::execute_plan`]
    /// performs, while the sharding, scatter, and merge stay identical.
    ///
    /// # Errors
    ///
    /// Shape or format errors;
    /// [`LocaLutError::ShardPlanMismatch`] when the plan was built for
    /// different dimensions than the operands; shard errors are reported
    /// for the lowest-id failing shard.
    pub fn execute_plan_with(
        &self,
        plan: &ShardPlan,
        bank: &BankKernel,
        w: &QMatrix,
        a: &QMatrix,
    ) -> Result<ParallelGemm, LocaLutError> {
        let dims = GemmDims::of(w, a)?;
        if plan.dims() != dims {
            return Err(LocaLutError::ShardPlanMismatch {
                plan: plan.dims(),
                operands: dims,
            });
        }

        // Hoist one weight tile per distinct row band and one activation
        // tile per distinct column band: every shard in a band runs
        // against the same full-K operand slice, so the tiles are shared
        // instead of re-sliced per shard — and a band that spans its whole
        // operand borrows it instead of copying it.
        let mut row_bands: Vec<Band<'_>> = Vec::new();
        let mut col_bands: Vec<Band<'_>> = Vec::new();
        let shards: Vec<(&Shard, usize, usize)> = plan
            .shards()
            .iter()
            .map(|shard| {
                let row = band_of(&mut row_bands, &shard.rows, dims.m, w, || {
                    w.submatrix(shard.rows.clone(), 0..dims.k)
                });
                let col = band_of(&mut col_bands, &shard.cols, dims.n, a, || {
                    a.submatrix(0..dims.k, shard.cols.clone())
                });
                (shard, row, col)
            })
            .collect();

        // Prepare each band's operand once, on the pool: one activation
        // panel per column band (the per-group canonicalization — unpack →
        // sort → rank — every row shard of the band would repeat) and one
        // packed weight tile per row band (the bit-packing every column
        // shard of the band would repeat). Kernels without a prepared form
        // return `None` and run unchanged; results are bitwise identical
        // either way.
        let panels = self
            .map(&col_bands, |(_, a_tile)| bank.resolve_panel(a_tile))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let packs = self
            .map(&row_bands, |(_, w_tile)| bank.pack_weights(w_tile))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;

        let results = self.map(&shards, |&(_, row, col)| {
            bank.run_packed(
                &row_bands[row].1,
                &col_bands[col].1,
                panels[col].as_ref(),
                packs[row].as_ref(),
            )
        });

        // Deterministic merge, ascending shard id. The profile fold
        // accumulates one mutable ledger by reference — at 2048 shards,
        // the previous `Profile::merged` fold cloned the accumulator once
        // per bank.
        let mut values = vec![0i32; dims.m * dims.n];
        let mut per_bank = Vec::with_capacity(plan.len());
        let mut work = CycleLedger::new();
        for (shard, result) in plan.shards().iter().zip(results) {
            let tile = result?;
            let tile_n = shard.cols.len();
            for (i, r) in shard.rows.clone().enumerate() {
                let dst = r * dims.n + shard.cols.start;
                values[dst..dst + tile_n]
                    .copy_from_slice(&tile.values[i * tile_n..(i + 1) * tile_n]);
            }
            work.merge(tile.profile.ledger());
            per_bank.push(BankResult {
                shard: shard.clone(),
                profile: tile.profile,
            });
        }
        let profile = Profile::from_ledger(work);

        // Statistics: a flat plan folds every bank into one aggregate; a
        // ranked plan folds hierarchically — banks into their rank's
        // ledger, ranks into the total (bitwise identical by the merge's
        // exact associativity) — and then charges the rank-bus contention
        // phase from the per-rank transfer counters.
        let mut stats = Stats::default();
        let mut rank_stats = Vec::new();
        let mut link_phase = None;
        match plan.rank_plan() {
            None => {
                for bank in &per_bank {
                    stats.merge(&Stats::from_profile(&bank.profile));
                }
            }
            Some(ranks) => {
                rank_stats.reserve(ranks.populated());
                for owned in ranks.assignments() {
                    let mut rank = Stats::default();
                    for bank in &per_bank[owned.clone()] {
                        rank.merge(&Stats::from_profile(&bank.profile));
                    }
                    stats.merge(&rank);
                    rank_stats.push(rank);
                }
                // Every byte entering or leaving a bank's DRAM was staged
                // over its rank's shared host link; the busiest rank's
                // occupancy bounds the epoch.
                let per_rank_bytes: Vec<u64> = rank_stats
                    .iter()
                    .map(|rank| {
                        u64::try_from(rank.dram_read_bytes + rank.dram_write_bytes)
                            .unwrap_or(u64::MAX)
                    })
                    .collect();
                let link = self.system.rank_link_profile(&per_rank_bytes);
                stats.merge(&Stats::from_phase_ledger(link.ledger()));
                link_phase = Some(link);
            }
        }

        Ok(ParallelGemm {
            values,
            dims,
            per_bank,
            profile,
            stats,
            rank_stats,
            link_phase,
        })
    }

    /// Ordered parallel map: applies `f` to every item on the worker pool
    /// and returns the results in item order, regardless of scheduling —
    /// the building block batched multi-request serving uses.
    ///
    /// Scheduling is one shared cursor: a worker that finishes an item
    /// claims the next unclaimed index (whole items — at full-machine
    /// scale, whole bank-shards), so ragged work cannot serialize the tail
    /// behind one unlucky worker. Results are keyed by item index and
    /// assembled ascending after the pool joins, so *who* executed an item
    /// can never change any output bit. When only one worker would run (a
    /// one-thread pool, or a single item) the items are mapped on the
    /// calling thread and no thread is spawned.
    ///
    /// # Panics
    ///
    /// Panics if `f` panics.
    ///
    /// # Examples
    ///
    /// ```
    /// use runtime::ParallelExecutor;
    ///
    /// let pool = ParallelExecutor::new(3);
    /// let squares = pool.map(&[1, 2, 3, 4, 5], |&x| x * x);
    /// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
    /// ```
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // With more workers than items, the surplus workers would have
        // nothing to claim — don't spawn threads for them.
        let workers = self.threads.min(items.len().max(1));
        // A lone worker runs on the calling thread instead of paying a
        // spawn and a join per call.
        if workers == 1 {
            return items.iter().map(f).collect();
        }
        // The cursor publishes no data (items are read-only, results
        // travel through `join`), so `Relaxed` claims suffice.
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (cursor, f) = (&cursor, &f);
                    scope.spawn(move || {
                        let mut produced: Vec<(usize, R)> = Vec::new();
                        loop {
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(idx) else {
                                break produced;
                            };
                            produced.push((idx, f(item)));
                        }
                    })
                })
                .collect();
            for handle in handles {
                for (idx, result) in handle.join().expect("map worker panicked") {
                    slots[idx] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every item was mapped"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant::NumericFormat;

    fn operands(m: usize, k: usize, n: usize, seed: u64) -> (QMatrix, QMatrix) {
        (
            QMatrix::pseudo_random(m, k, NumericFormat::Int(2), seed),
            QMatrix::pseudo_random(k, n, NumericFormat::Int(3), seed.wrapping_add(1)),
        )
    }

    /// One shard per worker: a `threads`-bank plan on a `threads`-worker pool.
    fn execute(
        threads: u32,
        method: Method,
        w: &QMatrix,
        a: &QMatrix,
    ) -> Result<ParallelGemm, LocaLutError> {
        let plan = ShardPlan::for_banks(GemmDims::of(w, a)?, threads);
        ParallelExecutor::new(threads as usize).execute_plan(&plan, method, w, a)
    }

    #[test]
    fn execute_matches_serial_for_all_methods() {
        let (w, a) = operands(8, 12, 6, 42);
        let cfg = GemmConfig::upmem();
        for method in Method::ALL {
            let serial = cfg.run(method, &w, &a).unwrap();
            let par = execute(4, method, &w, &a).unwrap();
            assert_eq!(par.values, serial.values, "{method}");
            assert!(par.per_bank.len() <= 4);
            assert!(par.stats.banks() as usize == par.per_bank.len());
        }
    }

    #[test]
    fn thread_count_does_not_change_any_output() {
        let (w, a) = operands(9, 15, 7, 7);
        let dims = GemmDims::of(&w, &a).unwrap();
        let plan = ShardPlan::for_banks(dims, 8);
        let baseline = ParallelExecutor::new(1)
            .execute_plan(&plan, Method::LoCaLut, &w, &a)
            .unwrap();
        for threads in [2usize, 3, 5, 8, 16] {
            let par = ParallelExecutor::new(threads)
                .execute_plan(&plan, Method::LoCaLut, &w, &a)
                .unwrap();
            assert_eq!(par, baseline, "threads = {threads}");
        }
    }

    #[test]
    fn critical_path_bounded_by_total_work() {
        let (w, a) = operands(16, 8, 8, 3);
        let par = execute(4, Method::OpLcRc, &w, &a).unwrap();
        let cp = par.critical_path_seconds();
        assert!(cp > 0.0);
        assert!(cp <= par.total_bank_seconds());
        // With >1 bank, the critical path is strictly below total work.
        if par.per_bank.len() > 1 {
            assert!(cp < par.total_bank_seconds());
        }
    }

    #[test]
    fn merged_stats_equal_profile_fold() {
        let (w, a) = operands(6, 10, 4, 11);
        let par = execute(2, Method::LoCaLut, &w, &a).unwrap();
        let mut expect = Stats::default();
        for bank in &par.per_bank {
            expect.merge(&Stats::from_profile(&bank.profile));
        }
        assert_eq!(par.stats, expect);
        assert!((par.stats.total_seconds() - par.profile.total_seconds()).abs() < 1e-9);
    }

    #[test]
    fn energy_of_merged_work_is_positive() {
        let (w, a) = operands(6, 10, 4, 11);
        let par = execute(2, Method::LoCaLut, &w, &a).unwrap();
        assert!(par.energy(&EnergyModel::upmem()).total_j() > 0.0);
    }

    #[test]
    fn checksum_is_invariant_to_worker_count_and_sensitive_to_values() {
        let (w, a) = operands(6, 10, 4, 5);
        let one = execute(1, Method::OpLcRc, &w, &a).unwrap();
        let four = execute(4, Method::OpLcRc, &w, &a).unwrap();
        assert_eq!(one.checksum(), values_checksum(&one.values));
        assert_eq!(one.checksum(), four.checksum());
        let mut tweaked = one.values.clone();
        tweaked[0] ^= 1;
        assert_ne!(values_checksum(&tweaked), one.checksum());
    }

    #[test]
    fn ranked_plan_builds_the_merge_tree_and_charges_the_link() {
        use pim_sim::Category;
        let (w, a) = operands(12, 10, 8, 21);
        let dims = GemmDims::of(&w, &a).unwrap();
        let plan = ShardPlan::for_ranks(dims, 4, 8);
        let pool = ParallelExecutor::new(3);
        let par = pool.execute_plan(&plan, Method::LoCaLut, &w, &a).unwrap();
        let ranks = plan.rank_plan().unwrap();
        assert_eq!(par.rank_stats.len(), ranks.populated());

        // The rank level partitions the banks: per-rank folds re-merge to
        // the flat fold exactly, and the total equals tree + link phase.
        let mut flat = Stats::default();
        for bank in &par.per_bank {
            flat.merge(&Stats::from_profile(&bank.profile));
        }
        let mut tree = Stats::default();
        for rank in &par.rank_stats {
            tree.merge(rank);
        }
        assert_eq!(tree, flat);
        let link = par.link_phase.as_ref().unwrap();
        assert_eq!(
            par.stats,
            flat.merged(&Stats::from_phase_ledger(link.ledger()))
        );
        // The link phase is real time but not a bank profile.
        assert!(link.seconds(Category::HostTransfer) > 0.0);
        assert_eq!(par.stats.banks() as usize, par.per_bank.len());

        // The busiest rank's transfer counters price the occupancy.
        let busiest = par
            .rank_stats
            .iter()
            .map(|r| (r.dram_read_bytes + r.dram_write_bytes) as u64)
            .max()
            .unwrap();
        let expect = pool.system().rank_link_seconds(busiest);
        assert!((link.seconds(Category::HostTransfer) - expect).abs() < 1e-18);
    }

    #[test]
    fn flat_plan_has_no_rank_level_outputs() {
        let (w, a) = operands(8, 12, 6, 42);
        let par = execute(2, Method::OpLcRc, &w, &a).unwrap();
        assert!(par.rank_stats.is_empty());
        assert!(par.link_phase.is_none());
    }

    #[test]
    fn ranked_outputs_are_worker_count_invariant() {
        let (w, a) = operands(9, 15, 7, 7);
        let dims = GemmDims::of(&w, &a).unwrap();
        let plan = ShardPlan::for_ranks(dims, 8, 4);
        let baseline = ParallelExecutor::new(1)
            .execute_plan(&plan, Method::LoCaLut, &w, &a)
            .unwrap();
        for threads in [2usize, 5, 16] {
            let par = ParallelExecutor::new(threads)
                .execute_plan(&plan, Method::LoCaLut, &w, &a)
                .unwrap();
            assert_eq!(par, baseline, "threads = {threads}");
        }
    }

    #[test]
    fn map_claims_ragged_work_without_reordering() {
        // Item 0 is a straggler: the worker that claimed it sleeps while
        // the others claim everything else. Results must still come back
        // in item order, every run.
        let items: Vec<u64> = (0..64).collect();
        let baseline: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for _ in 0..5 {
            let out = ParallelExecutor::new(4).map(&items, |&x| {
                if x == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                x * 3
            });
            assert_eq!(out, baseline);
        }
    }

    #[test]
    fn map_preserves_order_under_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1usize, 2, 5, 64] {
            let out = ParallelExecutor::new(threads).map(&items, |&x| x + 1);
            assert_eq!(out, (1..38).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn lone_worker_maps_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on =
            |pool: ParallelExecutor, items: &[u8]| pool.map(items, |_| std::thread::current().id());
        // A one-thread pool, and a single item on a wide pool: no spawn.
        assert_eq!(ran_on(ParallelExecutor::new(1), &[0; 5]), vec![caller; 5]);
        assert_eq!(ran_on(ParallelExecutor::new(4), &[0]), vec![caller]);
        assert!(ran_on(ParallelExecutor::new(4), &[]).is_empty());
        // Two workers: the pool's own threads.
        assert!(!ran_on(ParallelExecutor::new(2), &[0; 2]).contains(&caller));
    }

    #[test]
    fn injected_kernel_matches_internal_build() {
        let (w, a) = operands(9, 15, 7, 7);
        let dims = GemmDims::of(&w, &a).unwrap();
        let plan = ShardPlan::for_banks(dims, 4);
        let pool = ParallelExecutor::new(2);
        let internal = pool.execute_plan(&plan, Method::LoCaLut, &w, &a).unwrap();
        let bank = BankKernel::build(
            pool.gemm_config(),
            Method::LoCaLut,
            w.format(),
            a.format(),
            dims,
        )
        .unwrap();
        // One build, many executions: repeated injected runs are bitwise
        // identical to the internal plan-and-build path.
        for _ in 0..2 {
            let injected = pool.execute_plan_with(&plan, &bank, &w, &a).unwrap();
            assert_eq!(injected, internal);
        }
    }

    /// One prepared operand per band, shared by the band's shards: a
    /// column-sharded plan (one borrowed row band, its pack read by every
    /// shard) and a ranked plan (both band kinds repeat), at 1 and 4
    /// workers, equal the serial run bitwise — values, and per bank the
    /// profile a self-preparing run of that tile charges.
    #[test]
    fn shared_band_preparation_equals_the_serial_run() {
        use localut::kernels::{KernelSpec, SharedLuts};
        // Int(2) x Int(3) at p = 3 has 64 LUT rows: the 70-row band takes
        // the fused M-pass, the ranked plan's short bands the two-load loop.
        let (w, a) = operands(70, 16, 8, 5);
        let dims = GemmDims::of(&w, &a).unwrap();
        let spec = KernelSpec::with_p(
            &GemmConfig::upmem(),
            Method::LoCaLut,
            w.format(),
            a.format(),
            3,
        );
        let luts = SharedLuts::build(w.format(), a.format(), 3).unwrap();
        let bank = BankKernel::with_shared_luts(spec.unwrap(), luts);
        let serial = bank.run(&w, &a).unwrap();

        let by_column = ShardPlan::for_banks(dims, 4);
        assert!(by_column.len() > 1 && by_column.shards().iter().all(|s| s.rows == (0..dims.m)));
        let ranked = ShardPlan::for_ranks(dims, 2, 16);
        let bands = |of: fn(&Shard) -> &Range<usize>| {
            let mut bands: Vec<_> = ranked.shards().iter().map(of).collect();
            bands.dedup();
            bands.len()
        };
        assert!(bands(|s| &s.rows) > 1 && bands(|s| &s.rows) < ranked.len());

        for plan in [&by_column, &ranked] {
            let one = ParallelExecutor::new(1)
                .execute_plan_with(plan, &bank, &w, &a)
                .unwrap();
            let four = ParallelExecutor::new(4)
                .execute_plan_with(plan, &bank, &w, &a)
                .unwrap();
            assert_eq!(one.values, serial.values);
            assert_eq!(four, one);
            for result in &one.per_bank {
                assert_eq!(result.profile, bank.cost(result.shard.dims(dims.k)));
            }
        }
    }

    #[test]
    fn mismatched_plan_is_rejected() {
        let (w, a) = operands(8, 12, 6, 42);
        let stale_plan = ShardPlan::for_banks(GemmDims { m: 4, k: 12, n: 4 }, 4);
        let err = ParallelExecutor::new(2)
            .execute_plan(&stale_plan, Method::NaivePim, &w, &a)
            .unwrap_err();
        assert!(matches!(err, LocaLutError::ShardPlanMismatch { .. }));
    }

    #[test]
    fn infeasible_method_errors_cleanly() {
        let w = QMatrix::pseudo_random(4, 4, NumericFormat::Int(16), 1);
        let a = QMatrix::pseudo_random(4, 2, NumericFormat::Int(16), 2);
        let err = execute(2, Method::LoCaLut, &w, &a);
        assert!(err.is_err());
    }
}
