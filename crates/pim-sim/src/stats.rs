//! Cycle/time accounting: the per-category ledger behind every kernel's
//! breakdown (Fig. 16) and the energy model (Fig. 14).

use core::fmt;

/// The cost categories a kernel can charge time against.
///
/// These mirror the breakdown categories the paper reports in Fig. 16(b)
/// ("Canonical LUT Access", "Reordering LUT Access", "Reordering LUT Index
/// Calc.", "Act./Weight Transfer", "Accumulate", "Others") plus the
/// system-level phases of Fig. 16(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Streaming LUT slices from the DRAM bank into WRAM (LUT slice
    /// streaming, §IV-C).
    LutLoad,
    /// Canonical LUT accesses in WRAM.
    CanonicalLookup,
    /// Reordering LUT accesses in WRAM.
    ReorderLookup,
    /// Index calculation for the reordering LUT (packing/radix arithmetic on
    /// the DPU) — the dominant kernel cost per Fig. 16(b).
    IndexCalc,
    /// Partial-sum accumulation.
    Accumulate,
    /// Streaming weights/activations between DRAM bank and WRAM.
    DataTransfer,
    /// Writing final outputs back to the DRAM bank.
    OutputWriteback,
    /// Host ↔ PIM transfers over the memory channel.
    HostTransfer,
    /// Host-side computation (softmax, layer norm, GELU, centroid
    /// selection, and anything not covered by the two phases below).
    HostCompute,
    /// Host-side quantization/dequantization (Fig. 16a "Quantization").
    HostQuantize,
    /// Host-side activation sorting and packing (Fig. 16a "Packing &
    /// Sorting").
    HostSortPack,
    /// Host-side PQ centroid selection (Fig. 16a "Centroid Selection";
    /// used by the PIM-DL / LUT-DLA baselines).
    HostCentroid,
    /// Arithmetic compute on the DPU (naive MAC kernels, bit-serial
    /// shift/add of the LTC baseline).
    Compute,
    /// Anything else (loop control, bookkeeping).
    Other,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 14] = [
        Category::LutLoad,
        Category::CanonicalLookup,
        Category::ReorderLookup,
        Category::IndexCalc,
        Category::Accumulate,
        Category::DataTransfer,
        Category::OutputWriteback,
        Category::HostTransfer,
        Category::HostCompute,
        Category::HostQuantize,
        Category::HostSortPack,
        Category::HostCentroid,
        Category::Compute,
        Category::Other,
    ];

    fn index(self) -> usize {
        match self {
            Category::LutLoad => 0,
            Category::CanonicalLookup => 1,
            Category::ReorderLookup => 2,
            Category::IndexCalc => 3,
            Category::Accumulate => 4,
            Category::DataTransfer => 5,
            Category::OutputWriteback => 6,
            Category::HostTransfer => 7,
            Category::HostCompute => 8,
            Category::HostQuantize => 9,
            Category::HostSortPack => 10,
            Category::HostCentroid => 11,
            Category::Compute => 12,
            Category::Other => 13,
        }
    }

    /// Short human-readable label used by the bench tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Category::LutLoad => "lut-load",
            Category::CanonicalLookup => "canonical-lookup",
            Category::ReorderLookup => "reorder-lookup",
            Category::IndexCalc => "index-calc",
            Category::Accumulate => "accumulate",
            Category::DataTransfer => "data-transfer",
            Category::OutputWriteback => "output-writeback",
            Category::HostTransfer => "host-transfer",
            Category::HostCompute => "host-compute",
            Category::HostQuantize => "host-quantize",
            Category::HostSortPack => "host-sort-pack",
            Category::HostCentroid => "host-centroid",
            Category::Compute => "compute",
            Category::Other => "other",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

const N_CATEGORIES: usize = Category::ALL.len();

/// A ledger of simulated seconds charged per [`Category`], plus event
/// counters consumed by the energy model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CycleLedger {
    seconds: [f64; N_CATEGORIES],
    /// Bytes read from the DRAM bank.
    pub dram_read_bytes: u64,
    /// Bytes written to the DRAM bank.
    pub dram_write_bytes: u64,
    /// WRAM accesses (word-granularity events).
    pub wram_accesses: u64,
    /// Instructions retired by the DPU core.
    pub instructions: u64,
    /// Bytes moved over the host link.
    pub host_bytes: u64,
    /// Host-side scalar operations (quantization, sorting, softmax, ...).
    pub host_ops: u64,
}

impl CycleLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `seconds` of simulated time to `category`.
    pub fn charge(&mut self, category: Category, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative time charged to {category}");
        self.seconds[category.index()] += seconds;
    }

    /// Simulated seconds charged to `category`.
    #[must_use]
    pub fn seconds(&self, category: Category) -> f64 {
        self.seconds[category.index()]
    }

    /// Total simulated seconds across all categories.
    ///
    /// The DPU is in-order and single-threaded per tasklet in our model, so
    /// categories are serial and the total is the sum.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Merges another ledger into this one (serial composition: times and
    /// counters add).
    pub fn merge(&mut self, other: &CycleLedger) {
        for i in 0..N_CATEGORIES {
            self.seconds[i] += other.seconds[i];
        }
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.wram_accesses += other.wram_accesses;
        self.instructions += other.instructions;
        self.host_bytes += other.host_bytes;
        self.host_ops += other.host_ops;
    }

    /// Scales all times and counters by an integral factor (e.g. to expand a
    /// per-tile measurement to `n` identical tiles).
    pub fn scale(&mut self, n: u64) {
        for s in &mut self.seconds {
            *s *= n as f64;
        }
        self.dram_read_bytes *= n;
        self.dram_write_bytes *= n;
        self.wram_accesses *= n;
        self.instructions *= n;
        self.host_bytes *= n;
        self.host_ops *= n;
    }

    /// Iterates over `(category, seconds)` pairs with non-zero time.
    pub fn iter(&self) -> impl Iterator<Item = (Category, f64)> + '_ {
        Category::ALL
            .iter()
            .map(|&c| (c, self.seconds(c)))
            .filter(|&(_, s)| s > 0.0)
    }
}

/// A finished execution profile: an immutable [`CycleLedger`] snapshot.
///
/// `Profile` is what kernels return; it can be queried per category,
/// merged across phases, and fed to [`crate::EnergyModel`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    ledger: CycleLedger,
}

impl Profile {
    /// Wraps a ledger into a profile.
    #[must_use]
    pub fn from_ledger(ledger: CycleLedger) -> Self {
        Profile { ledger }
    }

    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulated seconds in `category`.
    #[must_use]
    pub fn seconds(&self, category: Category) -> f64 {
        self.ledger.seconds(category)
    }

    /// Total simulated seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.ledger.total_seconds()
    }

    /// The underlying ledger (event counters for the energy model).
    #[must_use]
    pub fn ledger(&self) -> &CycleLedger {
        &self.ledger
    }

    /// Serial composition of two profiles.
    #[must_use]
    pub fn merged(&self, other: &Profile) -> Profile {
        let mut ledger = self.ledger.clone();
        ledger.merge(&other.ledger);
        Profile { ledger }
    }

    /// Scales the profile by `n` repetitions.
    #[must_use]
    pub fn scaled(&self, n: u64) -> Profile {
        let mut ledger = self.ledger.clone();
        ledger.scale(n);
        Profile { ledger }
    }

    /// Fraction of total time spent in `category` (0 if the profile is empty).
    #[must_use]
    pub fn fraction(&self, category: Category) -> f64 {
        let total = self.total_seconds();
        if total == 0.0 {
            0.0
        } else {
            self.seconds(category) / total
        }
    }
}

/// Femtoseconds per second: the quantum [`Stats`] stores time in.
const FEMTOS_PER_SECOND: f64 = 1e15;

/// An **associative, commutative** statistics aggregate for cross-bank
/// merging.
///
/// [`CycleLedger::merge`] adds `f64` seconds, and floating-point addition is
/// not associative: folding per-bank ledgers in different orders (as a
/// dynamically scheduled runtime naturally would) can produce bitwise-different
/// totals. `Stats` fixes the accumulation by quantizing each category's
/// seconds to integer femtoseconds **once** at ingest ([`Stats::from_profile`])
/// and merging in exact integer arithmetic from then on, so
/// `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` and `a ⊕ b == b ⊕ a` hold *exactly* — any
/// merge tree over the same per-bank profiles yields the identical
/// aggregate. `Stats::default()` is the identity element.
///
/// At the femtosecond quantum, a simulated second carries 15 significant
/// digits — far below the model's calibration error — and the `u128`
/// accumulators cannot realistically overflow (more than 1e16 simulated
/// years of headroom).
///
/// # Examples
///
/// ```
/// use pim_sim::{Category, CycleLedger, Profile, Stats};
///
/// let mut ledger = CycleLedger::new();
/// ledger.charge(Category::Compute, 0.1);
/// let bank = Stats::from_profile(&Profile::from_ledger(ledger));
///
/// // Merging is associative and commutative — exactly.
/// let ab = bank.clone().merged(&bank);
/// assert_eq!(ab, bank.clone().merged(&bank));
/// assert_eq!(ab.banks(), 2);
/// assert!((ab.total_seconds() - 0.2).abs() < 1e-12);
///
/// // The empty Stats is the identity element.
/// assert_eq!(bank.clone().merged(&Stats::default()), bank);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stats {
    /// Per-category simulated time in femtoseconds.
    femtos: [u128; N_CATEGORIES],
    /// Number of profiles merged into this aggregate.
    banks: u64,
    /// Bytes read from DRAM banks across all merged profiles.
    pub dram_read_bytes: u128,
    /// Bytes written to DRAM banks across all merged profiles.
    pub dram_write_bytes: u128,
    /// WRAM accesses across all merged profiles.
    pub wram_accesses: u128,
    /// Instructions retired across all merged profiles.
    pub instructions: u128,
    /// Bytes moved over the host link across all merged profiles.
    pub host_bytes: u128,
    /// Host-side scalar operations across all merged profiles.
    pub host_ops: u128,
}

impl Stats {
    /// Ingests one profile, quantizing its per-category seconds to integer
    /// femtoseconds (round-to-nearest).
    #[must_use]
    pub fn from_profile(profile: &Profile) -> Self {
        Self::from_ledger(profile.ledger())
    }

    /// Ingests one ledger (see [`Stats::from_profile`]).
    #[must_use]
    pub fn from_ledger(ledger: &CycleLedger) -> Self {
        let mut femtos = [0u128; N_CATEGORIES];
        for (i, f) in femtos.iter_mut().enumerate() {
            *f = (ledger.seconds[i] * FEMTOS_PER_SECOND).round() as u128;
        }
        Stats {
            femtos,
            banks: 1,
            dram_read_bytes: u128::from(ledger.dram_read_bytes),
            dram_write_bytes: u128::from(ledger.dram_write_bytes),
            wram_accesses: u128::from(ledger.wram_accesses),
            instructions: u128::from(ledger.instructions),
            host_bytes: u128::from(ledger.host_bytes),
            host_ops: u128::from(ledger.host_ops),
        }
    }

    /// Ingests one ledger as a **phase** rather than a bank profile: the
    /// femtosecond quantization and counters are identical to
    /// [`Stats::from_ledger`], but `banks()` stays 0. System-level phases
    /// (the rank-bus contention term, host transfer epochs) merge into a
    /// bank aggregate without inflating its profile count, so
    /// `stats.banks()` keeps meaning "bank ledgers merged".
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_sim::{Category, CycleLedger, Stats};
    ///
    /// let mut ledger = CycleLedger::new();
    /// ledger.charge(Category::HostTransfer, 1e-6);
    /// let phase = Stats::from_phase_ledger(&ledger);
    /// assert_eq!(phase.banks(), 0);
    /// assert_eq!(phase.femtoseconds(Category::HostTransfer), 1_000_000_000);
    /// ```
    #[must_use]
    pub fn from_phase_ledger(ledger: &CycleLedger) -> Self {
        let mut stats = Self::from_ledger(ledger);
        stats.banks = 0;
        stats
    }

    /// Merges another aggregate into this one. Pure integer addition, so
    /// the operation is exactly associative and commutative.
    pub fn merge(&mut self, other: &Stats) {
        for i in 0..N_CATEGORIES {
            self.femtos[i] += other.femtos[i];
        }
        self.banks += other.banks;
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.wram_accesses += other.wram_accesses;
        self.instructions += other.instructions;
        self.host_bytes += other.host_bytes;
        self.host_ops += other.host_ops;
    }

    /// Consuming form of [`Stats::merge`] for fold-style use.
    #[must_use]
    pub fn merged(mut self, other: &Stats) -> Stats {
        self.merge(other);
        self
    }

    /// Number of profiles merged into this aggregate (0 for the identity).
    #[must_use]
    pub fn banks(&self) -> u64 {
        self.banks
    }

    /// Simulated femtoseconds charged to `category`.
    #[must_use]
    pub fn femtoseconds(&self, category: Category) -> u128 {
        self.femtos[category.index()]
    }

    /// Simulated seconds charged to `category` (converted back from the
    /// exact femtosecond count).
    #[must_use]
    pub fn seconds(&self, category: Category) -> f64 {
        self.femtos[category.index()] as f64 / FEMTOS_PER_SECOND
    }

    /// Total simulated femtoseconds across all categories (the exact
    /// integer sum; what [`CounterSnapshot::total_femtos`] also holds,
    /// without building a snapshot).
    #[must_use]
    pub fn total_femtos(&self) -> u128 {
        self.femtos.iter().sum()
    }

    /// Total simulated seconds across all categories, summed exactly in
    /// femtoseconds first.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.total_femtos() as f64 / FEMTOS_PER_SECOND
    }
}

/// A plain-data snapshot of a [`Stats`] aggregate: the exact integer
/// femtosecond ledger plus the merged event counters, with no behavior
/// attached.
///
/// This is the export surface for measurement harnesses (the `bench`
/// crate's scenario reports): everything is public, integer, and ordered,
/// so a snapshot can be serialized deterministically and compared across
/// runs without touching floating point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Number of profiles merged into the aggregate.
    pub banks: u64,
    /// Total simulated femtoseconds across all categories (exact sum).
    pub total_femtos: u128,
    /// Per-category simulated femtoseconds, non-zero entries only, in
    /// [`Category::ALL`] display order.
    pub category_femtos: Vec<(Category, u128)>,
    /// Bytes read from DRAM banks.
    pub dram_read_bytes: u128,
    /// Bytes written to DRAM banks.
    pub dram_write_bytes: u128,
    /// WRAM accesses.
    pub wram_accesses: u128,
    /// Instructions retired by DPU cores.
    pub instructions: u128,
    /// Bytes moved over the host link.
    pub host_bytes: u128,
    /// Host-side scalar operations.
    pub host_ops: u128,
}

impl Stats {
    /// Exports the aggregate as a [`CounterSnapshot`] — the deterministic,
    /// integer-only view a perf harness records.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_sim::{Category, CycleLedger, Profile, Stats};
    ///
    /// let mut ledger = CycleLedger::new();
    /// ledger.charge(Category::Compute, 1.5e-9);
    /// ledger.instructions = 42;
    /// let snap = Stats::from_ledger(&ledger).snapshot();
    /// assert_eq!(snap.banks, 1);
    /// assert_eq!(snap.total_femtos, 1_500_000);
    /// assert_eq!(snap.category_femtos, vec![(Category::Compute, 1_500_000)]);
    /// assert_eq!(snap.instructions, 42);
    /// ```
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            banks: self.banks,
            total_femtos: self.total_femtos(),
            category_femtos: Category::ALL
                .iter()
                .map(|&c| (c, self.femtos[c.index()]))
                .filter(|&(_, f)| f > 0)
                .collect(),
            dram_read_bytes: self.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes,
            wram_accesses: self.wram_accesses,
            instructions: self.instructions,
            host_bytes: self.host_bytes,
            host_ops: self.host_ops,
        }
    }

    /// Rebuilds the aggregate a [`CounterSnapshot`] was exported from —
    /// the exact inverse of [`Stats::snapshot`], since a snapshot omits
    /// only categories whose femtosecond count is zero. This is the
    /// ingest half of any serialization boundary (a snapshot is plain
    /// data; `Stats` is the mergeable aggregate).
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_sim::{Category, CycleLedger, Stats};
    ///
    /// let mut ledger = CycleLedger::new();
    /// ledger.charge(Category::Compute, 2.5e-9);
    /// ledger.host_ops = 3;
    /// let stats = Stats::from_ledger(&ledger);
    /// assert_eq!(Stats::from_snapshot(&stats.snapshot()), stats);
    /// ```
    #[must_use]
    pub fn from_snapshot(snap: &CounterSnapshot) -> Stats {
        let mut femtos = [0u128; N_CATEGORIES];
        for &(category, f) in &snap.category_femtos {
            femtos[category.index()] = f;
        }
        Stats {
            femtos,
            banks: snap.banks,
            dram_read_bytes: snap.dram_read_bytes,
            dram_write_bytes: snap.dram_write_bytes,
            wram_accesses: snap.wram_accesses,
            instructions: snap.instructions,
            host_bytes: snap.host_bytes,
            host_ops: snap.host_ops,
        }
    }
}

impl Category {
    /// Parses a category from its [`Category::label`] string (the inverse
    /// of `label`, used when reading serialized snapshots back).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.label() == label)
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} bank profile(s), total {:.6e} s",
            self.banks,
            self.total_seconds()
        )?;
        for c in Category::ALL {
            if self.femtos[c.index()] > 0 {
                writeln!(f, "  {:<18} {:>12.6e} s", c.label(), self.seconds(c))?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total: {:.6e} s", self.total_seconds())?;
        for (cat, secs) in self.ledger.iter() {
            writeln!(
                f,
                "  {:<18} {:>12.6e} s ({:>5.1}%)",
                cat.label(),
                secs,
                100.0 * self.fraction(cat)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut l = CycleLedger::new();
        l.charge(Category::LutLoad, 1.0);
        l.charge(Category::Accumulate, 2.0);
        l.charge(Category::Accumulate, 0.5);
        assert_eq!(l.seconds(Category::LutLoad), 1.0);
        assert_eq!(l.seconds(Category::Accumulate), 2.5);
        assert_eq!(l.total_seconds(), 3.5);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = CycleLedger::new();
        a.charge(Category::Compute, 1.0);
        a.dram_read_bytes = 100;
        a.instructions = 7;
        let mut b = CycleLedger::new();
        b.charge(Category::Compute, 2.0);
        b.charge(Category::Other, 1.0);
        b.dram_read_bytes = 11;
        b.host_ops = 3;
        a.merge(&b);
        assert_eq!(a.seconds(Category::Compute), 3.0);
        assert_eq!(a.seconds(Category::Other), 1.0);
        assert_eq!(a.dram_read_bytes, 111);
        assert_eq!(a.instructions, 7);
        assert_eq!(a.host_ops, 3);
    }

    #[test]
    fn scale_multiplies() {
        let mut l = CycleLedger::new();
        l.charge(Category::IndexCalc, 0.25);
        l.wram_accesses = 4;
        l.scale(8);
        assert_eq!(l.seconds(Category::IndexCalc), 2.0);
        assert_eq!(l.wram_accesses, 32);
    }

    #[test]
    fn profile_fraction_and_display() {
        let mut l = CycleLedger::new();
        l.charge(Category::LutLoad, 1.0);
        l.charge(Category::CanonicalLookup, 3.0);
        let p = Profile::from_ledger(l);
        assert!((p.fraction(Category::CanonicalLookup) - 0.75).abs() < 1e-12);
        let text = p.to_string();
        assert!(text.contains("canonical-lookup"));
        assert!(text.contains("lut-load"));
    }

    #[test]
    fn empty_profile_fraction_is_zero() {
        let p = Profile::new();
        assert_eq!(p.fraction(Category::LutLoad), 0.0);
        assert_eq!(p.total_seconds(), 0.0);
    }

    #[test]
    fn iter_skips_zero_categories() {
        let mut l = CycleLedger::new();
        l.charge(Category::Compute, 1.0);
        let cats: Vec<_> = l.iter().map(|(c, _)| c).collect();
        assert_eq!(cats, vec![Category::Compute]);
    }

    fn stats_with(pairs: &[(Category, f64)], instrs: u64) -> Stats {
        let mut l = CycleLedger::new();
        for &(c, s) in pairs {
            l.charge(c, s);
        }
        l.instructions = instrs;
        Stats::from_ledger(&l)
    }

    #[test]
    fn stats_merge_is_associative_and_commutative() {
        // Seconds chosen so f64 addition would NOT be associative.
        let a = stats_with(&[(Category::Compute, 0.1)], 1);
        let b = stats_with(&[(Category::Compute, 0.2)], 10);
        let c = stats_with(&[(Category::Compute, 0.3), (Category::Other, 1e-9)], 100);
        let left = a.clone().merged(&b).merged(&c);
        let right = a.clone().merged(&b.clone().merged(&c));
        assert_eq!(left, right);
        assert_eq!(a.clone().merged(&b), b.clone().merged(&a));
        assert_eq!(left.banks(), 3);
        assert_eq!(left.instructions, 111);
        // Identity element.
        assert_eq!(a.clone().merged(&Stats::default()), a);
    }

    #[test]
    fn phase_ledgers_merge_without_counting_as_banks() {
        let bank = stats_with(&[(Category::Compute, 0.5)], 10);
        let mut phase_ledger = CycleLedger::new();
        phase_ledger.charge(Category::HostTransfer, 0.25);
        phase_ledger.host_bytes = 4096;
        let phase = Stats::from_phase_ledger(&phase_ledger);
        assert_eq!(phase.banks(), 0);
        let merged = bank.clone().merged(&phase);
        assert_eq!(merged.banks(), 1); // still one bank profile
        assert_eq!(
            merged.femtoseconds(Category::HostTransfer),
            250_000_000_000_000
        );
        assert_eq!(merged.host_bytes, 4096);
        // Apart from the bank count, a phase carries the same quantized
        // ledger a bank ingest would.
        let as_bank = Stats::from_ledger(&phase_ledger);
        assert_eq!(
            phase.femtoseconds(Category::HostTransfer),
            as_bank.femtoseconds(Category::HostTransfer)
        );
    }

    #[test]
    fn stats_roundtrips_seconds_within_quantum() {
        let s = stats_with(&[(Category::LutLoad, 1.36e-9)], 0);
        assert!((s.seconds(Category::LutLoad) - 1.36e-9).abs() < 1e-15);
        assert_eq!(s.femtoseconds(Category::LutLoad), 1_360_000);
        assert!((s.total_seconds() - 1.36e-9).abs() < 1e-15);
    }

    #[test]
    fn stats_display_lists_nonzero_categories() {
        let s = stats_with(&[(Category::Accumulate, 2.0)], 0);
        let text = s.to_string();
        assert!(text.contains("accumulate"));
        assert!(!text.contains("lut-load"));
        assert!(text.contains("1 bank profile(s)"));
    }

    #[test]
    fn snapshot_mirrors_the_aggregate_exactly() {
        let a = stats_with(&[(Category::Compute, 0.25), (Category::LutLoad, 1e-12)], 9);
        let b = stats_with(&[(Category::Compute, 0.5)], 1);
        let merged = a.merged(&b);
        let snap = merged.snapshot();
        assert_eq!(snap.banks, 2);
        assert_eq!(snap.instructions, 10);
        assert_eq!(
            snap.total_femtos,
            merged.femtoseconds(Category::Compute) + merged.femtoseconds(Category::LutLoad)
        );
        assert_eq!(merged.total_femtos(), snap.total_femtos);
        // Non-zero categories only, in display order.
        assert_eq!(
            snap.category_femtos,
            vec![
                (Category::LutLoad, 1_000),
                (Category::Compute, 750_000_000_000_000),
            ]
        );
        // The empty aggregate snapshots to the empty snapshot.
        assert_eq!(Stats::default().snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn snapshot_roundtrips_through_from_snapshot() {
        let merged = stats_with(&[(Category::Compute, 0.25), (Category::LutLoad, 1e-12)], 9)
            .merged(&stats_with(&[(Category::HostTransfer, 0.5)], 1));
        assert_eq!(Stats::from_snapshot(&merged.snapshot()), merged);
        // The identity element round-trips too.
        assert_eq!(
            Stats::from_snapshot(&CounterSnapshot::default()),
            Stats::default()
        );
    }

    #[test]
    fn category_labels_roundtrip() {
        for c in Category::ALL {
            assert_eq!(Category::from_label(c.label()), Some(c));
        }
        assert_eq!(Category::from_label("not-a-category"), None);
    }

    #[test]
    fn all_categories_have_unique_indices() {
        let mut seen = std::collections::HashSet::new();
        for c in Category::ALL {
            assert!(seen.insert(c.index()), "duplicate index for {c:?}");
        }
        assert_eq!(seen.len(), N_CATEGORIES);
    }
}
