//! The one LRU policy, and its two users: the keyed LUT cache and the
//! plan memo.
//!
//! Building the canonical LUT is the expensive host-side step of a LUT
//! kernel launch (up to ~12 M entries at W1A3, `p = 8`). A serving engine
//! sees the *same* configuration over and over, so it builds each image
//! once and hands out `Arc` clones from then on — the software twin of
//! the paper's one-time §V-A broadcast amortized across a whole serving
//! session. §V-A planning is likewise a pure function of its key, so
//! repeated shapes skip the planner. Both maps must stay bounded in a
//! long-running process, and both are bounded the same way:
//!
//! `TickLru` stamps every entry with the logical tick of its last use
//! (a monotonic counter, not wall-clock, so eviction order is a pure
//! function of the lookup sequence) and a weight. Whenever the total
//! weight passes the bound, entries are evicted strictly in ascending
//! last-use order until it fits — including, in the degenerate case, the
//! entry that was just inserted (a single image larger than the whole
//! budget is returned to its requester but never kept resident, so
//! `resident_bytes ≤ budget` holds after *every* operation). LUT images
//! weigh their resident bytes against an optional byte budget; plans
//! weigh 1 against [`PLAN_MEMO_CAP`].
//!
//! Disk-restored entries are inserted *untouched* with ticks below every
//! live lookup's: they are evicted before any entry a request has
//! actually used, so budget pressure from a warm restore can never evict
//! an entry a cold engine would have kept — the warm/cold bitwise
//! contract of [`crate::cachelife`] depends on exactly this ordering.
//!
//! Neither user moves a simulated number: an evicted image rebuilds
//! bitwise identical, and a memoized plan equals a recomputed one.

use localut::kernels::SharedLuts;
use localut::plan::{ExecutionPlan, Placement};
use localut::{GemmDims, LocaLutError};
use quant::NumericFormat;
use runtime::lock_recover;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Debug)]
struct Entry<V> {
    value: V,
    weight: u64,
    last_use: u64,
    /// False until a lookup first returns this entry — i.e. still in the
    /// "restored from disk, never requested" state.
    touched: bool,
}

/// A weight-bounded map with deterministic least-recently-used eviction
/// and the hit/miss bookkeeping of a build-on-miss cache. Single-threaded
/// on purpose: its users own the lock.
#[derive(Debug)]
struct TickLru<K, V> {
    map: HashMap<K, Entry<V>>,
    bound: Option<u64>,
    weigh: fn(&V) -> u64,
    weight: u64,
    tick: u64,
    evictions: u64,
    hits: u64,
    misses: u64,
    restored: u64,
}

impl<K: Copy + Eq + Hash, V: Clone> TickLru<K, V> {
    fn new(bound: Option<u64>, weigh: fn(&V) -> u64) -> Self {
        TickLru {
            map: HashMap::new(),
            bound,
            weigh,
            weight: 0,
            tick: 0,
            evictions: 0,
            hits: 0,
            misses: 0,
            restored: 0,
        }
    }

    /// Returns the value for `key` and whether this was a hit, making and
    /// inserting the value on first sight. The first request for a
    /// restored key skips `make` but still answers "miss" (and counts as
    /// `restored`): hit/miss says whether the key was requested before,
    /// not whether work was skipped, so warm and cold engines answer
    /// alike. A failed `make` is returned as-is and leaves no trace (the
    /// next lookup retries).
    fn get_or_insert_with<E>(
        &mut self,
        key: K,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        if let Some(found) = self.lookup(key) {
            return Ok(found);
        }
        let value = make()?;
        self.misses += 1;
        self.insert(key, value.clone());
        Ok((value, false))
    }

    /// The resident value for `key`, its last use stamped, with whether
    /// an earlier lookup had already returned it.
    fn lookup(&mut self, key: K) -> Option<(V, bool)> {
        self.tick += 1;
        let entry = self.map.get_mut(&key)?;
        entry.last_use = self.tick;
        let touched = std::mem::replace(&mut entry.touched, true);
        if touched {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.restored += 1;
        }
        Some((entry.value.clone(), touched))
    }

    /// Inserts a fresh value as touched (its last use is now) and evicts
    /// back under the bound.
    fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        let weight = (self.weigh)(&value);
        self.weight += weight;
        let entry = Entry {
            value,
            weight,
            last_use: self.tick,
            touched: true,
        };
        if let Some(old) = self.map.insert(key, entry) {
            self.weight -= old.weight;
        }
        while self.bound.is_some_and(|bound| self.weight > bound) {
            // Ticks are unique, so the minimum is unambiguous and the
            // eviction order is deterministic for a given lookup sequence.
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
            else {
                return;
            };
            let entry = self.map.remove(&victim).expect("victim key just seen");
            self.weight -= entry.weight;
            self.evictions += 1;
        }
    }

    /// Inserts a restored value as untouched, in restore order, before
    /// any lookup has run (restore ticks must stay below every live
    /// lookup's). A value that would push the map over its bound is
    /// skipped rather than admitted-then-evicted, so a warm start never
    /// exceeds the bound and never counts phantom evictions. Returns
    /// whether the value was kept.
    fn restore(&mut self, key: K, value: V) -> bool {
        let weight = (self.weigh)(&value);
        if self.map.contains_key(&key) || self.bound.is_some_and(|b| self.weight + weight > b) {
            return false;
        }
        self.tick += 1;
        self.weight += weight;
        let entry = Entry {
            value,
            weight,
            last_use: self.tick,
            touched: false,
        };
        self.map.insert(key, entry);
        true
    }
}

/// The LUT cache key: everything a [`SharedLuts`] build depends on, plus
/// the placement the kernel uses it under.
///
/// The LUT *images* for buffer-resident and streaming kernels at equal
/// `(wf, af, p)` are identical; the placement still participates in the
/// key so cache statistics distinguish the two serving configurations and
/// the eviction policy treats the two residencies separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LutKey {
    /// Weight format.
    pub wf: NumericFormat,
    /// Activation format.
    pub af: NumericFormat,
    /// Packing degree.
    pub p: u32,
    /// LUT placement the requesting kernel runs under.
    pub placement: Placement,
}

/// Running counters of cache behavior (monotonic over the engine's life,
/// except `entries`/`resident_bytes`, which track current residency).
///
/// All of these are **host-side observables**: they appear in
/// [`crate::ServeReport`] and operator-facing output, never inside the
/// deterministic [`crate::ServeSummary`] or on simulated metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from an already-requested resident image.
    pub hits: u64,
    /// Requests that saw their key for the first time in this process —
    /// whether the image was then built (`misses - restored`) or already
    /// resident from a disk restore (`restored`).
    pub misses: u64,
    /// Resident images discarded by the byte-budget LRU policy.
    pub evictions: u64,
    /// Host bytes the resident images currently occupy (never exceeds a
    /// configured budget).
    pub resident_bytes: u64,
    /// Lookups whose image build *failed* — neither a hit nor a miss, so
    /// without this counter a failing configuration would be invisible in
    /// the cache telemetry.
    pub failed_builds: u64,
    /// The subset of `misses` whose build was skipped because the image
    /// was restored from disk (the warm-start win, counted).
    pub restored: u64,
    /// Distinct keys currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Total completed lookups (`hits + misses`; failed builds are
    /// counted separately in `failed_builds`).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// How one request's LUT lookup resolved (recorded on responses whose
/// method uses shared LUT images; LUT-free methods record nothing).
///
/// The outcome answers "was this shape requested before in this serving
/// process?" — **not** "was a build skipped": the first request for a
/// disk-restored key records a [`CacheOutcome::Miss`] (and bumps
/// [`CacheStats::restored`] instead of paying the build), so responses
/// stay bitwise identical between warm and cold engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The images were already resident from a previous request.
    Hit,
    /// This was the first request for the key; the images were built (or
    /// adopted from a disk restore) and are now resident.
    Miss,
}

/// A thread-safe `(formats, p, placement) → SharedLuts` cache under an
/// optional resident-byte budget.
///
/// `SharedLuts` is internally `Arc`-backed, so a cached entry is cloned
/// out by reference-count bump — N concurrent requests read one image.
/// The build runs under the lock: two racing first requests for one key
/// would otherwise both pay the multi-megabyte build, and determinism of
/// the recorded hit/miss outcome matters more here than lock hold time
/// (the engine's batch path warms the cache serially for exactly that
/// reason). The lock is taken with [`lock_recover`]: the map is mutated
/// exactly once per build, by inserting a complete image *after* its
/// build succeeded, so a worker that panicked under the lock left valid
/// state behind and every other server thread keeps serving.
#[derive(Debug)]
pub(crate) struct LutCache {
    inner: Mutex<TickLru<LutKey, SharedLuts>>,
    failed_builds: AtomicU64,
}

impl LutCache {
    /// An empty cache; `None` leaves residency unbounded.
    pub(crate) fn with_budget(budget: Option<u64>) -> Self {
        LutCache {
            inner: Mutex::new(TickLru::new(budget, SharedLuts::resident_bytes)),
            failed_builds: AtomicU64::new(0),
        }
    }

    /// Returns the shared images for `key`, building them on first use
    /// (unless a disk restore already staged them) and evicting back
    /// under the byte budget afterwards.
    pub(crate) fn get_or_build(
        &self,
        key: LutKey,
    ) -> Result<(SharedLuts, CacheOutcome), LocaLutError> {
        let build = || SharedLuts::build(key.wf, key.af, key.p);
        match lock_recover(&self.inner).get_or_insert_with(key, build) {
            Ok((luts, true)) => Ok((luts, CacheOutcome::Hit)),
            Ok((luts, false)) => Ok((luts, CacheOutcome::Miss)),
            Err(e) => {
                // A statistic only: it publishes no other data.
                self.failed_builds.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Adopts disk-restored images in manifest order (untouched, evicted
    /// before anything a request has used, skipped when over budget).
    /// Returns how many entries were kept resident.
    pub(crate) fn restore(&self, entries: Vec<(LutKey, SharedLuts)>) -> usize {
        let mut lru = lock_recover(&self.inner);
        entries
            .into_iter()
            .filter(|(key, luts)| lru.restore(*key, luts.clone()))
            .count()
    }

    /// Every resident image, sorted by the store's canonical key encoding
    /// so persistence output is byte-stable regardless of map iteration
    /// order.
    pub(crate) fn snapshot(&self) -> Vec<(LutKey, SharedLuts)> {
        let lru = lock_recover(&self.inner);
        let mut entries: Vec<(LutKey, SharedLuts)> =
            lru.map.iter().map(|(k, e)| (*k, e.value.clone())).collect();
        entries.sort_by_key(|(k, _)| super::store::key_bytes(*k));
        entries
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let lru = lock_recover(&self.inner);
        CacheStats {
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            resident_bytes: lru.weight,
            failed_builds: self.failed_builds.load(Ordering::Relaxed),
            restored: lru.restored,
            entries: lru.map.len(),
        }
    }
}

/// Entry bound of the plan memo. Plans are a few dozen bytes, so this
/// caps the memo in the tens of kilobytes while comfortably covering the
/// distinct shapes a serving mix produces.
pub const PLAN_MEMO_CAP: usize = 1024;

/// Everything a §V-A planning decision depends on, given one engine's
/// fixed DPU cost model (the DPU profile and topology are engine-wide
/// constants and one memo lives per engine, so they need no key bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    pub(crate) dims: GemmDims,
    pub(crate) wf: NumericFormat,
    pub(crate) af: NumericFormat,
    /// `Some(k)` pins the slice budget; `None` searches over it.
    pub(crate) k_slices: Option<u32>,
}

/// Running counters of plan-memo behavior (host-side observability; never
/// on the deterministic response surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Plans served from the memo.
    pub hits: u64,
    /// Plans computed (and memoized) on first sight of their key.
    pub misses: u64,
    /// Distinct keys currently memoized.
    pub entries: usize,
}

impl MemoStats {
    /// Total lookups (`hits + misses`).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A thread-safe `(plan key) → ExecutionPlan` memo holding at most
/// [`PLAN_MEMO_CAP`] plans. Planning is deterministic, so a memoized plan
/// is bitwise equal to a recomputed one and memoization can only move
/// host wall-clock.
#[derive(Debug)]
pub(crate) struct PlanMemo {
    inner: Mutex<TickLru<PlanKey, ExecutionPlan>>,
}

impl PlanMemo {
    pub(crate) fn new() -> Self {
        PlanMemo {
            inner: Mutex::new(TickLru::new(Some(PLAN_MEMO_CAP as u64), |_| 1)),
        }
    }

    /// Returns the memoized plan for `key`, computing and memoizing it on
    /// first sight. Failed computations are returned as-is and memoize
    /// nothing (the next lookup retries). The computation runs under the
    /// lock, like the LUT cache's build and with the same poison policy:
    /// racing first lookups must not both plan, and recorded hit/miss
    /// counters must not depend on worker scheduling.
    pub(crate) fn get_or_plan(
        &self,
        key: PlanKey,
        compute: impl FnOnce() -> Result<ExecutionPlan, LocaLutError>,
    ) -> Result<ExecutionPlan, LocaLutError> {
        let (plan, _) = lock_recover(&self.inner).get_or_insert_with(key, compute)?;
        Ok(plan)
    }

    pub(crate) fn stats(&self) -> MemoStats {
        let lru = lock_recover(&self.inner);
        MemoStats {
            hits: lru.hits,
            misses: lru.misses,
            entries: lru.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_at(p: u32, placement: Placement) -> LutKey {
        LutKey {
            wf: NumericFormat::Int(2),
            af: NumericFormat::Int(3),
            p,
            placement,
        }
    }

    fn key(p: u32) -> LutKey {
        key_at(p, Placement::BufferResident)
    }

    fn luts(p: u32) -> SharedLuts {
        SharedLuts::build(NumericFormat::Int(2), NumericFormat::Int(3), p).unwrap()
    }

    fn lru(budget: u64) -> TickLru<LutKey, SharedLuts> {
        TickLru::new(Some(budget), SharedLuts::resident_bytes)
    }

    // The policy, on the LUT cache's own keys and weights.

    #[test]
    fn evicts_least_recently_used_first() {
        let two = luts(2);
        let three = luts(3);
        // Budget fits both p=2 and p=3, but not a second p=3-sized entry
        // on top.
        let budget = two.resident_bytes() + three.resident_bytes();
        let mut lru = lru(budget);
        lru.insert(key(2), two.clone());
        lru.insert(key(3), three.clone());
        // Refresh p=2 so p=3 is now the LRU entry.
        assert!(lru.lookup(key(2)).is_some());
        lru.insert(key_at(3, Placement::Streaming), three.clone());
        assert_eq!(lru.evictions, 1);
        assert!(lru.lookup(key(2)).is_some(), "refreshed entry survives");
        assert!(lru.lookup(key(3)).is_none(), "LRU entry was evicted");
        assert!(lru.weight <= budget);
    }

    #[test]
    fn oversized_entry_is_returned_but_not_kept() {
        let mut lru = lru(1);
        lru.insert(key(2), luts(2));
        assert_eq!(lru.map.len(), 0);
        assert_eq!(lru.weight, 0);
        assert_eq!(lru.evictions, 1);
    }

    #[test]
    fn restored_entries_evict_before_touched_ones() {
        let two = luts(2);
        let three = luts(3);
        let budget = two.resident_bytes() + three.resident_bytes();
        let mut lru = lru(budget);
        assert!(lru.restore(key(3), three.clone()));
        // A build that needs the space evicts the untouched restore, not
        // nothing, even though the restore was inserted "more recently"
        // than any lookup.
        lru.insert(key(2), two.clone());
        lru.insert(key_at(3, Placement::Streaming), three.clone());
        assert!(lru.lookup(key(3)).is_none(), "restore evicted first");
        assert!(lru.lookup(key(2)).is_some());
    }

    #[test]
    fn over_budget_restore_is_skipped_silently() {
        let two = luts(2);
        let bytes = two.resident_bytes();
        let mut lru = lru(bytes);
        assert!(lru.restore(key(2), two.clone()));
        assert!(!lru.restore(key_at(2, Placement::Streaming), two));
        assert_eq!(lru.evictions, 0);
        assert_eq!(lru.map.len(), 1);
    }

    // The LUT cache.

    #[test]
    fn second_lookup_hits_and_shares_the_image() {
        let cache = LutCache::with_budget(None);
        let (first, o1) = cache.get_or_build(key(2)).unwrap();
        let (second, o2) = cache.get_or_build(key(2)).unwrap();
        assert_eq!((o1, o2), (CacheOutcome::Miss, CacheOutcome::Hit));
        // Same underlying canonical image, not a rebuild.
        assert!(std::ptr::eq(first.canonical(), second.canonical()));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries, stats.evictions),
            (1, 1, 1, 0)
        );
        assert_eq!(stats.resident_bytes, first.resident_bytes());
        assert_eq!(stats.lookups(), 2);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = LutCache::with_budget(None);
        cache.get_or_build(key(2)).unwrap();
        cache.get_or_build(key(3)).unwrap();
        cache.get_or_build(key_at(2, Placement::Streaming)).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 3));
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_wedging() {
        let cache = LutCache::with_budget(None);
        cache.get_or_build(key(2)).unwrap();
        // Poison the mutex the way a panicking serving worker would:
        // panic while holding the guard.
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = cache.inner.lock().unwrap();
                panic!("worker dies while holding the cache lock");
            });
            assert!(handle.join().is_err(), "the worker must have panicked");
        });
        assert!(cache.inner.is_poisoned());
        // The cache still serves — the resident entry survives and new
        // keys still build — instead of panicking every caller.
        let (_, outcome) = cache.get_or_build(key(2)).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        cache.get_or_build(key_at(2, Placement::Streaming)).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn failed_builds_are_counted_but_not_cached() {
        let cache = LutCache::with_budget(None);
        let bad = LutKey {
            wf: NumericFormat::Int(16),
            af: NumericFormat::Int(16),
            p: 8,
            placement: Placement::Streaming,
        };
        assert!(cache.get_or_build(bad).is_err());
        assert!(cache.get_or_build(bad).is_err());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        // A failed build is neither a hit nor a miss — it is its own
        // counter, so the failing configuration stays visible.
        assert_eq!(stats.lookups(), 0);
        assert_eq!(stats.failed_builds, 2);
    }

    #[test]
    fn eviction_under_budget_pressure_rebuilds_on_refetch() {
        // Budget for exactly one p=2 image: the second key evicts the
        // first, and refetching the first rebuilds it (a miss, not an
        // error).
        let probe = luts(2);
        let cache = LutCache::with_budget(Some(probe.resident_bytes()));
        let (first, _) = cache.get_or_build(key(2)).unwrap();
        cache.get_or_build(key_at(2, Placement::Streaming)).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 1);
        let (again, outcome) = cache.get_or_build(key(2)).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        // The rebuild is bitwise identical to the evicted image.
        assert_eq!(first.canonical().entries(), again.canonical().entries());
        assert_eq!(first.reorder().entries(), again.reorder().entries());
        assert!(cache.stats().resident_bytes <= probe.resident_bytes());
    }

    #[test]
    fn restored_entries_serve_first_request_as_miss_without_build() {
        let cache = LutCache::with_budget(None);
        assert_eq!(cache.restore(vec![(key(2), luts(2))]), 1);
        let (luts, outcome) = cache.get_or_build(key(2)).unwrap();
        // Cold-equivalent outcome, but the build was skipped.
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(cache.stats().restored, 1);
        assert_eq!(cache.stats().misses, 1);
        let (_, second) = cache.get_or_build(key(2)).unwrap();
        assert_eq!(second, CacheOutcome::Hit);
        assert!(luts.resident_bytes() > 0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let cache = LutCache::with_budget(None);
        cache.get_or_build(key(3)).unwrap();
        cache.get_or_build(key(2)).unwrap();
        let snapshot = cache.snapshot();
        assert_eq!(snapshot.len(), 2);
        let keys: Vec<_> = snapshot
            .iter()
            .map(|(k, _)| super::super::store::key_bytes(*k))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    // The plan memo.

    fn plan(p: u32) -> ExecutionPlan {
        ExecutionPlan {
            placement: Placement::BufferResident,
            p,
            k_slices: 2,
            predicted_seconds: 0.5,
            wf: NumericFormat::Int(2),
            af: NumericFormat::Int(3),
        }
    }

    fn plan_key(m: usize) -> PlanKey {
        PlanKey {
            dims: GemmDims { m, k: 8, n: 4 },
            wf: NumericFormat::Int(2),
            af: NumericFormat::Int(3),
            k_slices: Some(2),
        }
    }

    #[test]
    fn second_plan_lookup_hits_without_recompute() {
        let memo = PlanMemo::new();
        let first = memo.get_or_plan(plan_key(4), || Ok(plan(3))).unwrap();
        let second = memo
            .get_or_plan(plan_key(4), || panic!("must not recompute"))
            .unwrap();
        assert_eq!(first, second);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.lookups(), 2);
    }

    #[test]
    fn failed_plans_are_not_memoized() {
        let memo = PlanMemo::new();
        assert!(memo
            .get_or_plan(plan_key(4), || Err(LocaLutError::InvalidPackingDegree(0)))
            .is_err());
        assert_eq!(memo.stats().entries, 0);
        // The next lookup retries the computation.
        assert!(memo.get_or_plan(plan_key(4), || Ok(plan(3))).is_ok());
        assert_eq!(memo.stats().misses, 1);
    }

    #[test]
    fn memo_is_bounded_by_lru() {
        let memo = PlanMemo::new();
        for m in 0..PLAN_MEMO_CAP + 10 {
            memo.get_or_plan(plan_key(m + 1), || Ok(plan(3))).unwrap();
        }
        assert_eq!(memo.stats().entries, PLAN_MEMO_CAP);
        // The oldest keys were evicted; the newest survive.
        let newest = plan_key(PLAN_MEMO_CAP + 10);
        memo.get_or_plan(newest, || panic!("newest key must be memoized"))
            .unwrap();
        let oldest = plan_key(1);
        let mut recomputed = false;
        memo.get_or_plan(oldest, || {
            recomputed = true;
            Ok(plan(3))
        })
        .unwrap();
        assert!(recomputed, "oldest key must have been evicted");
    }
}
