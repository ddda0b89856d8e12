//! Allocation smoke test for the blocked kernel hot paths.
//!
//! The pre-blocking inner loops re-allocated three short vectors per
//! activation group — `⌈K/p⌉ · N` heap round-trips per GEMM, dominating
//! small-tile decode shards. The blocked loops hoist all scratch
//! ([`localut::codes::GroupScratch`], the packed code tables, the panel's
//! pair table) to per-call allocations, so the *number* of allocations a
//! kernel invocation performs is a small constant independent of how many
//! groups the operands decompose into. This test pins that with a counting
//! global allocator: scaling the group count ~24× must not change the
//! allocation count beyond a small constant slack.
//!
//! Kept as its own integration-test binary so no concurrent test thread
//! pollutes the counter.

use localut::codes::ActivationPanel;
use localut::kernels::{KernelSpec, SharedLuts};
use localut::{GemmConfig, Method};
use quant::{NumericFormat, QMatrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts allocation calls (reallocs route
/// through the default `GlobalAlloc::realloc`, which calls `alloc` and is
/// therefore counted too).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn kernel_allocations_do_not_scale_with_group_count() {
    let wf = NumericFormat::Bipolar;
    let af = NumericFormat::Int(3);
    let p = 4;
    let kernel =
        KernelSpec::with_p(&GemmConfig::upmem(), Method::LoCaLut, wf, af, p).expect("fits budgets");
    let luts = SharedLuts::build(wf, af, p).expect("small LUT builds");

    // Small: ⌈8/4⌉ · 4 = 8 groups. Large: ⌈24/4⌉ · 32 = 192 groups (24×).
    let small = (
        QMatrix::pseudo_random(6, 8, wf, 11),
        QMatrix::pseudo_random(8, 4, af, 12),
    );
    let large = (
        QMatrix::pseudo_random(48, 24, wf, 13),
        QMatrix::pseudo_random(24, 32, af, 14),
    );

    // Warm once so lazily initialized state (thread locals, table caches)
    // doesn't bill its setup to the first measured run.
    kernel
        .run(&small.0, &small.1, Some(&luts), None)
        .expect("small GEMM runs");

    let count_small = allocs_during(|| {
        kernel
            .run(&small.0, &small.1, Some(&luts), None)
            .expect("small GEMM runs");
    });
    let count_large = allocs_during(|| {
        kernel
            .run(&large.0, &large.1, Some(&luts), None)
            .expect("large GEMM runs");
    });

    // Per-group churn would add ≥ one allocation per extra group (184 here);
    // the blocked path holds a flat, shape-independent budget.
    assert!(
        count_large <= count_small + 4,
        "allocation count scaled with group count: {count_small} small vs {count_large} large"
    );
    // And the budget itself stays small in absolute terms: operand packing,
    // the panel, the output buffer, scratch, and the profile ledger.
    assert!(
        count_small <= 32,
        "blocked kernel made {count_small} allocations on a tiny GEMM"
    );

    // The shard path — panel resolved once, handed to `run` —
    // must hold the same flat budget per bank invocation.
    let pad = 0u16;
    let panel = ActivationPanel::resolve(&large.1, p as usize, pad, luts.canonical())
        .expect("panel resolves");
    let count_panel_run = allocs_during(|| {
        kernel
            .run(&large.0, &large.1, Some(&luts), Some(&panel))
            .expect("panel GEMM runs");
    });
    assert!(
        count_panel_run <= count_large,
        "the panel run ({count_panel_run} allocations) must not exceed the \
         self-resolving path ({count_large})"
    );
}
