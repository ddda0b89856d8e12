//! Cache-lifecycle integration tests: warm-from-disk restarts are
//! bitwise-identical to cold starts, byte-budget LRU eviction is
//! deterministic and never changes a simulated number, corrupt stores
//! degrade to typed-error cold starts, and the planner memo serves plans
//! bitwise equal to recomputation — all through the public engine API.

use engine::cachelife::store;
use engine::serve::replay_serial;
use engine::traffic::{full_log, Mix, TrafficConfig};
use engine::{CacheOutcome, CacheStats, Engine, GemmRequest, GemmResponse, StoreError};
use proptest::prelude::*;
use quant::{NumericFormat, QMatrix};
use std::path::PathBuf;

/// A fresh per-test scratch directory (process-unique, removed best-effort
/// by the next run with the same name).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cache-lifecycle-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The churn alphabet: distinct (wf, af) pairs key distinct LUT images.
const PAIRS: [(NumericFormat, NumericFormat); 3] = [
    (NumericFormat::Bipolar, NumericFormat::Int(3)),
    (NumericFormat::Bipolar, NumericFormat::Int(2)),
    (NumericFormat::Int(2), NumericFormat::Int(2)),
];

fn churn_request(pair: usize, seed: u64) -> GemmRequest {
    let (wf, af) = PAIRS[pair];
    let w = QMatrix::pseudo_random(24, 20, wf, 40 + pair as u64);
    let a = QMatrix::pseudo_random(20, 6, af, 50 + seed);
    GemmRequest::new(w, a)
}

fn submit(engine: &Engine, pair: usize, seed: u64) -> GemmResponse {
    engine
        .submit(&churn_request(pair, seed))
        .expect("churn shapes are feasible")
}

/// Per-pair resident image size, probed on an unbudgeted engine so the
/// eviction tests can size budgets exactly rather than guessing.
fn image_sizes() -> [u64; 3] {
    let probe = Engine::builder().threads(1).banks(1).build();
    let mut sizes = [0u64; 3];
    let mut before = 0;
    for (index, size) in sizes.iter_mut().enumerate() {
        submit(&probe, index, 0);
        let after = probe.lut_cache_stats().resident_bytes;
        *size = after - before;
        before = after;
    }
    sizes
}

// ---------------------------------------------------------------------
// Warm-from-disk restarts are bitwise identical to cold starts
// ---------------------------------------------------------------------

#[test]
fn warm_restart_reproduces_cold_responses_bitwise() {
    let dir = scratch("warm-responses");
    let drive = |engine: &Engine| -> Vec<GemmResponse> {
        (0..PAIRS.len())
            .chain(0..PAIRS.len()) // revisit: second pass must Hit
            .map(|pair| submit(engine, pair, 7))
            .collect()
    };

    let cold = Engine::builder()
        .threads(1)
        .banks(2)
        .cache_dir(&dir)
        .build();
    assert!(cold.cache_restore_error().is_none());
    assert_eq!(cold.lut_cache_stats().entries, 0, "directory starts empty");
    let cold_responses = drive(&cold);
    let cold_stats = cold.lut_cache_stats();
    let persisted = cold.persist_cache().expect("persist after drain");
    assert_eq!(persisted, cold_stats.entries);

    let warm = Engine::builder()
        .threads(1)
        .banks(2)
        .cache_dir(&dir)
        .build();
    assert!(warm.cache_restore_error().is_none());
    assert_eq!(
        warm.lut_cache_stats().entries,
        persisted,
        "warm engine restores every persisted image"
    );
    let warm_responses = drive(&warm);
    let warm_stats = warm.lut_cache_stats();

    // The headline contract: every response — values, checksum, simulated
    // stats, energy, and the per-response lut_cache outcome — is bitwise
    // identical. A restored entry's first request still reports Miss.
    assert_eq!(warm_responses, cold_responses);
    assert_eq!(
        warm_responses[0].lut_cache,
        Some(CacheOutcome::Miss),
        "first request of a restored shape records the cold outcome"
    );
    assert_eq!(
        warm_responses[PAIRS.len()].lut_cache,
        Some(CacheOutcome::Hit)
    );

    // Hit/miss folds agree; only the restored counter (and wall, not
    // modeled here) may differ between the two lifecycles.
    assert_eq!(warm_stats.hits, cold_stats.hits);
    assert_eq!(warm_stats.misses, cold_stats.misses);
    assert_eq!(warm_stats.evictions, cold_stats.evictions);
    assert_eq!(warm_stats.resident_bytes, cold_stats.resident_bytes);
    assert_eq!(cold_stats.restored, 0);
    assert_eq!(
        warm_stats.restored,
        PAIRS.len() as u64,
        "each restored shape is counted once, on its first request"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_restart_reproduces_cold_serving_summary_bitwise() {
    let dir = scratch("warm-summary");
    let traffic = TrafficConfig {
        clients: 2,
        requests_per_client: 3,
        mix: Mix::Mixed,
        seed: 97,
        decode_tokens: 4,
    };
    let log = full_log(&traffic);

    let cold = Engine::builder()
        .threads(1)
        .banks(2)
        .cache_dir(&dir)
        .build();
    let cold_summary = replay_serial(&cold, &log);
    cold.persist_cache().expect("persist after drain");

    let warm = Engine::builder()
        .threads(1)
        .banks(2)
        .cache_dir(&dir)
        .build();
    assert!(warm.lut_cache_stats().entries > 0, "warm start restored");
    let warm_summary = replay_serial(&warm, &log);

    assert_eq!(
        warm_summary, cold_summary,
        "the deterministic serving fold must not see the warm restore"
    );
    assert_eq!(cold_summary.failed_requests, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Byte-budget LRU eviction
// ---------------------------------------------------------------------

#[test]
fn lru_evicts_the_oldest_entry_and_refetch_rebuilds_bitwise() {
    let [size_a, size_b, size_c] = image_sizes();
    // Any two images fit; all three never do — each third insertion must
    // evict exactly the least recently used survivor.
    let budget = size_a + size_b + size_c - 1;
    let engine = Engine::builder()
        .threads(1)
        .banks(2)
        .cache_budget(budget)
        .build();

    let first_a = submit(&engine, 0, 3); // build A
    submit(&engine, 1, 3); // build B
    submit(&engine, 2, 3); // build C → evicts A (oldest)
    let after_churn = engine.lut_cache_stats();
    assert_eq!(after_churn.evictions, 1);
    assert!(after_churn.resident_bytes <= budget);

    let b_again = submit(&engine, 1, 3); // B must still be resident
    assert_eq!(b_again.lut_cache, Some(CacheOutcome::Hit));

    let a_again = submit(&engine, 0, 3); // A was evicted → rebuild
    assert_eq!(a_again.lut_cache, Some(CacheOutcome::Miss));
    assert_eq!(
        a_again, first_a,
        "an evicted-and-rebuilt image serves bitwise-identical responses"
    );
    // Rebuilding A had to evict the new oldest survivor: C, not B.
    let end = engine.lut_cache_stats();
    assert_eq!(end.evictions, 2);
    let b_final = submit(&engine, 1, 3);
    assert_eq!(
        b_final.lut_cache,
        Some(CacheOutcome::Hit),
        "the recently used entry survived the second eviction"
    );
}

#[test]
fn eviction_sequences_are_deterministic_across_runs() {
    let [size_a, size_b, size_c] = image_sizes();
    let budget = size_a + size_b + size_c - 1;
    let drive = || -> Vec<CacheStats> {
        let engine = Engine::builder()
            .threads(1)
            .banks(2)
            .cache_budget(budget)
            .build();
        [0, 1, 2, 0, 2, 1, 0]
            .into_iter()
            .map(|pair| {
                submit(&engine, pair, 11);
                engine.lut_cache_stats()
            })
            .collect()
    };
    let first = drive();
    let second = drive();
    assert_eq!(
        first, second,
        "identical request sequences must produce identical counter \
         trajectories — eviction order never depends on host state"
    );
    assert!(first.last().unwrap().evictions > 0, "the sequence churned");
}

// ---------------------------------------------------------------------
// Corrupt / truncated stores degrade to typed-error cold starts
// ---------------------------------------------------------------------

#[test]
fn garbage_manifest_is_a_typed_error_and_a_working_cold_start() {
    let dir = scratch("garbage-manifest");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(store::manifest_path(&dir), b"this is not a cache manifest")
        .expect("write garbage");

    let engine = Engine::builder()
        .threads(1)
        .banks(2)
        .cache_dir(&dir)
        .build();
    assert!(
        matches!(
            engine.cache_restore_error(),
            Some(StoreError::BadMagic { .. })
        ),
        "got {:?}",
        engine.cache_restore_error()
    );
    assert_eq!(engine.lut_cache_stats().entries, 0);

    // Cold fallback serves normally and can even re-persist over the junk.
    let response = submit(&engine, 0, 1);
    assert_eq!(response.lut_cache, Some(CacheOutcome::Miss));
    engine.persist_cache().expect("overwrite the junk store");
    let healed = Engine::builder()
        .threads(1)
        .banks(2)
        .cache_dir(&dir)
        .build();
    assert!(healed.cache_restore_error().is_none());
    assert_eq!(healed.lut_cache_stats().entries, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_manifest_and_bitflipped_image_are_typed_errors() {
    let dir = scratch("truncated");
    let seed = Engine::builder()
        .threads(1)
        .banks(2)
        .cache_dir(&dir)
        .build();
    submit(&seed, 0, 1);
    submit(&seed, 1, 1);
    seed.persist_cache().expect("persist two images");

    // Truncating the manifest breaks its envelope.
    let manifest = store::manifest_path(&dir);
    let bytes = std::fs::read(&manifest).expect("read manifest");
    std::fs::write(&manifest, &bytes[..bytes.len() - 1]).expect("truncate");
    let engine = Engine::builder()
        .threads(1)
        .banks(2)
        .cache_dir(&dir)
        .build();
    assert!(
        matches!(
            engine.cache_restore_error(),
            Some(StoreError::ChecksumMismatch { .. } | StoreError::Truncated { .. })
        ),
        "got {:?}",
        engine.cache_restore_error()
    );
    assert_eq!(engine.lut_cache_stats().entries, 0, "cold fallback");
    assert_eq!(submit(&engine, 0, 1).lut_cache, Some(CacheOutcome::Miss));

    // Restore the manifest, then flip one bit in an image file: the
    // restore must refuse the whole store rather than half-load it.
    std::fs::write(&manifest, &bytes).expect("restore manifest");
    let image = std::fs::read_dir(&dir)
        .expect("list store")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("lut-"))
        })
        .expect("an image file exists");
    let mut image_bytes = std::fs::read(&image).expect("read image");
    let mid = image_bytes.len() / 2;
    image_bytes[mid] ^= 0x40;
    std::fs::write(&image, image_bytes).expect("corrupt image");
    let engine = Engine::builder()
        .threads(1)
        .banks(2)
        .cache_dir(&dir)
        .build();
    assert!(
        matches!(
            engine.cache_restore_error(),
            Some(StoreError::ChecksumMismatch { .. })
        ),
        "got {:?}",
        engine.cache_restore_error()
    );
    assert_eq!(engine.lut_cache_stats().entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Planner memo
// ---------------------------------------------------------------------

#[test]
fn memoized_plans_equal_recomputed_plans_bitwise() {
    use localut::GemmDims;
    use quant::BitConfig;

    let dims = GemmDims {
        m: 96,
        k: 64,
        n: 12,
    };
    let bits = BitConfig { bw: 1, ba: 3 };
    let engine = Engine::builder().threads(1).banks(4).build();
    let first = engine.plan(dims, bits).expect("a plan exists");
    let baseline = engine.plan_memo_stats();
    assert!(baseline.misses > 0, "first planning pass computes");

    let second = engine.plan(dims, bits).expect("a plan exists");
    let after = engine.plan_memo_stats();
    assert_eq!(second, first, "a memo hit is bitwise the computed plan");
    assert!(after.hits > baseline.hits, "second pass hits the memo");
    assert_eq!(after.misses, baseline.misses, "nothing recomputed");

    // A fresh engine recomputes from scratch and lands on the same plan.
    let fresh = Engine::builder().threads(1).banks(4).build();
    assert_eq!(fresh.plan(dims, bits).expect("a plan exists"), first);
}

// ---------------------------------------------------------------------
// Budget invariant, property-tested
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every lookup in any request sequence under any budget, the
    /// resident byte count respects the budget — oversized entries are
    /// served but not retained, and eviction always restores the bound.
    #[test]
    fn resident_bytes_never_exceed_the_budget(
        budget in 1u64..300_000,
        sequence in proptest::collection::vec(0usize..PAIRS.len(), 1..10),
    ) {
        let engine = Engine::builder()
            .threads(1)
            .banks(1)
            .cache_budget(budget)
            .build();
        for pair in sequence {
            submit(&engine, pair, 5);
            let stats = engine.lut_cache_stats();
            prop_assert!(
                stats.resident_bytes <= budget,
                "resident {} exceeds budget {budget}",
                stats.resident_bytes
            );
        }
    }
}
