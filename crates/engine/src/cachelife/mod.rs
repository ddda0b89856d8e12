//! The cache-lifecycle subsystem: one bounded LRU policy under the LUT
//! cache and the plan memo, and on-disk LUT persistence.
//!
//! The LUT cache started as a grow-only map — the software twin of the
//! paper's one-time §V-A broadcast. A deployable serving process gets
//! restarted, rescheduled, and multi-tenanted, so this module holds the
//! lifecycle around that map:
//!
//! * [`lru`] — the single deterministic tick-LRU, its two thin users and
//!   their key/stats types: the LUT cache (entries weigh their resident
//!   bytes, [`localut::kernels::SharedLuts::resident_bytes`], against an
//!   optional byte budget) and the plan memo of §V-A decisions
//!   (`(dims, formats, k-slices, cost model) → ExecutionPlan`, weight 1
//!   against [`lru::PLAN_MEMO_CAP`]). Over the bound, least-recently-used
//!   entries are evicted in a deterministic order until the map fits.
//! * [`store`] — dependency-free on-disk persistence (`std::fs` only): a
//!   checksummed manifest plus one checksummed binary image file per
//!   cache key, written on drain and restored on engine construction.
//!   LUT images are pure functions of their key, so a restored image is
//!   bitwise identical to a rebuilt one.
//!
//! ## The determinism contract
//!
//! Nothing in this module may move a simulated number. Eviction only
//! discards host-resident images — a later request for an evicted key
//! rebuilds the identical image and produces the identical response.
//! Restore only skips host-side build wall-clock: a warm-from-disk engine
//! reports the same per-request [`crate::CacheOutcome`] a cold engine
//! would (the first request for a restored key still records a *miss*,
//! because hit/miss answers "was this shape requested before in this
//! serving process?" — the restore is visible in
//! [`crate::CacheStats::restored`] and in the skipped build time, not on
//! the response). Plan memoization returns clones of deterministic plans.
//! What *is* allowed to differ between a warm and a cold run, or between
//! budgeted and unbudgeted runs, are the host-side lifecycle counters
//! ([`crate::CacheStats`], [`crate::MemoStats`]) and wall-clock.

pub mod lru;
pub mod store;
