//! Property-based integration tests (proptest): kernel ≡ reference over
//! random shapes and bitwidths, canonicalization invariance, the
//! combinatorial bijections, associativity of the runtime's statistics
//! merge (flat and through arbitrary rank trees), exact-cover of ranked
//! shard plans, and serial/parallel bit-exactness of the bank-parallel
//! executor, all through the public API.

use localut::canonical::CanonicalLut;
use localut::gemm::{reference_gemm, GemmConfig, GemmDims, Method};
use localut::kernels::{KernelSpec, SharedLuts};
use localut::multiset;
use localut::packed::{pack_index, unpack_index};
use localut::perm::{apply, lehmer_rank, lehmer_unrank, sort_permutation};
use localut::value::dot_codes;
use pim_sim::{Category, CycleLedger, Stats};
use proptest::prelude::*;
use quant::{NumericFormat, QMatrix};
use runtime::{ParallelExecutor, RankPlan, ShardPlan};

fn qmatrix(rows: usize, cols: usize, format: NumericFormat, seed: u64) -> QMatrix {
    QMatrix::pseudo_random(rows, cols, format, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every kernel reproduces the reference GEMM exactly on random
    /// shapes, bitwidths, and packing degrees.
    #[test]
    fn kernels_match_reference(
        m in 1usize..12,
        k in 1usize..24,
        n in 1usize..6,
        bw in 1u8..4,
        ba in 2u8..4,
        p in 1u32..5,
        seed in 0u64..1000,
    ) {
        let wf = NumericFormat::default_int(bw);
        let af = NumericFormat::Int(ba);
        let w = qmatrix(m, k, wf, seed);
        let a = qmatrix(k, n, af, seed.wrapping_add(1));
        let reference: Vec<i32> = reference_gemm(&w, &a).unwrap();
        let cfg = GemmConfig::upmem();

        for method in Method::ALL {
            let p = if matches!(method, Method::NaivePim | Method::Ltc) { 1 } else { p };
            // Streaming may not fit the budgets at this (format, p).
            let kernel = match KernelSpec::with_p(&cfg, method, wf, af, p) {
                Err(_) if method == Method::LoCaLut => continue,
                kernel => kernel.unwrap(),
            };
            prop_assert_eq!(&kernel.run(&w, &a, None, None).unwrap().values, &reference);
        }
    }

    /// The blocked tile loops are bitwise-identical to the scalar
    /// reference over ragged shapes — `n` is drawn past the tile width so
    /// full tiles, partial last tiles, and sub-tile shapes all appear, and
    /// the shared-LUT entry point (the path the bank-parallel executor
    /// drives) is exercised directly alongside the self-building `run`.
    #[test]
    fn blocked_kernels_match_scalar_reference(
        m in 1usize..24,
        k in 1usize..40,
        n in 1usize..40,
        bw in 1u8..3,
        ba in 2u8..4,
        p in 1u32..6,
        seed in 0u64..1000,
    ) {
        let wf = NumericFormat::default_int(bw);
        let af = NumericFormat::Int(ba);
        let w = qmatrix(m, k, wf, seed);
        let a = qmatrix(k, n, af, seed.wrapping_add(3));
        let reference: Vec<i32> = reference_gemm(&w, &a).unwrap();
        let cfg = GemmConfig::upmem();

        let luts = SharedLuts::build(wf, af, p).unwrap();
        let rc = KernelSpec::with_p(&cfg, Method::OpLcRc, wf, af, p).unwrap();
        prop_assert_eq!(&rc.run(&w, &a, Some(&luts), None).unwrap().values, &reference);
        if let Ok(s) = KernelSpec::with_p(&cfg, Method::LoCaLut, wf, af, p) {
            prop_assert_eq!(&s.run(&w, &a, Some(&luts), None).unwrap().values, &reference);
        }
    }

    /// Canonicalization invariance (§IV-A): for ANY joint permutation of
    /// the packed (weight, activation) pairs, the canonical lookup finds
    /// the same inner product.
    #[test]
    fn canonical_lookup_is_permutation_invariant(
        wcodes in prop::collection::vec(0u16..4, 3),
        acodes in prop::collection::vec(0u16..8, 3),
        perm_rank in 0u64..6,
    ) {
        let wf = NumericFormat::Int(2);
        let af = NumericFormat::Int(3);
        let lut = CanonicalLut::<i32>::build(wf, af, 3, 1 << 22).unwrap();
        let expected: i32 = dot_codes(wf, af, &wcodes, &acodes);

        let pi = lehmer_unrank(perm_rank, 3).unwrap();
        let wp = apply(&pi, &wcodes);
        let ap = apply(&pi, &acodes);
        let sort = sort_permutation(&ap);
        let sorted_a = apply(&sort, &ap);
        let reordered_w = apply(&sort, &wp);
        let col = lut.column_of(&sorted_a).unwrap();
        let row = pack_index(&reordered_w, 2);
        prop_assert_eq!(lut.lookup(row, col), expected);
    }

    /// Multiset rank/unrank is a bijection on random inputs.
    #[test]
    fn multiset_rank_bijection(
        mut codes in prop::collection::vec(0u16..16, 1..6),
    ) {
        codes.sort_unstable();
        let r = multiset::rank(&codes, 16).unwrap();
        prop_assert_eq!(multiset::unrank(r, 16, codes.len() as u32).unwrap(), codes);
    }

    /// Lehmer rank/unrank is a bijection; sorting permutations always sort.
    #[test]
    fn permutation_properties(
        codes in prop::collection::vec(0u16..32, 1..8),
    ) {
        let perm = sort_permutation(&codes);
        let sorted = apply(&perm, &codes);
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let rank = lehmer_rank(&perm).unwrap();
        prop_assert_eq!(lehmer_unrank(rank, perm.len() as u32).unwrap(), perm);
    }

    /// pack/unpack index roundtrip for arbitrary widths.
    #[test]
    fn pack_index_roundtrip(
        bits in 1u8..9,
        p in 1u32..5,
        seed in 0u64..10_000,
    ) {
        let space = 1u64 << bits;
        let codes: Vec<u16> = (0..p as usize)
            .map(|i| ((seed >> (i * 3)) % space) as u16)
            .collect();
        let idx = pack_index(&codes, bits);
        prop_assert_eq!(unpack_index(idx, bits, p), codes);
    }

    /// `Stats::merge` is associative and commutative with `Stats::default()`
    /// as identity, bitwise-exactly, on arbitrary ledgers — the property
    /// that makes the runtime's cross-bank merge independent of merge
    /// order. (Folding raw `f64` ledgers has no such guarantee.)
    #[test]
    fn stats_merge_associative(
        secs in prop::collection::vec(0.0f64..1.0, 9),
        counters in prop::collection::vec(0u64..1_000_000, 6),
    ) {
        let stats_from = |chunk: &[f64], salt: u64| {
            let mut l = CycleLedger::new();
            l.charge(Category::LutLoad, chunk[0] * 1e-3);
            l.charge(Category::IndexCalc, chunk[1]);
            l.charge(Category::Accumulate, chunk[2] * 1e6);
            l.instructions = counters[(salt as usize) % 6];
            l.dram_read_bytes = counters[(salt as usize + 1) % 6];
            Stats::from_ledger(&l)
        };
        let a = stats_from(&secs[0..3], 0);
        let b = stats_from(&secs[3..6], 2);
        let c = stats_from(&secs[6..9], 4);
        // Associativity (bitwise: Stats implements Eq).
        prop_assert_eq!(
            a.clone().merged(&b).merged(&c),
            a.clone().merged(&b.clone().merged(&c))
        );
        // Commutativity.
        prop_assert_eq!(a.clone().merged(&b), b.clone().merged(&a));
        // Identity.
        prop_assert_eq!(a.clone().merged(&Stats::default()), a);
    }

    /// The rank merge tree is exact for **arbitrary** rank/bank splits of
    /// the same ledger set: folding per-rank then across ranks lands on
    /// the same `Stats` as the flat fold, bit for bit — the property that
    /// licenses the executor's hierarchical merge at any machine shape.
    #[test]
    fn rank_tree_merge_equals_flat_fold(
        secs in prop::collection::vec(0.0f64..1.0, 2..40),
        banks_per_rank in 1u32..9,
    ) {
        let bank_stats: Vec<Stats> = secs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut l = CycleLedger::new();
                l.charge(Category::LutLoad, *s);
                l.charge(Category::Accumulate, s * 0.3);
                l.instructions = (i as u64 + 1) * 17;
                l.dram_read_bytes = (i as u64) * 129;
                Stats::from_ledger(&l)
            })
            .collect();
        let rank_plan = RankPlan::new(bank_stats.len(), 64, banks_per_rank);

        let mut flat = Stats::default();
        for stats in &bank_stats {
            flat.merge(stats);
        }
        let mut tree = Stats::default();
        for range in rank_plan.assignments() {
            let mut rank = Stats::default();
            for stats in &bank_stats[range.clone()] {
                rank.merge(stats);
            }
            tree.merge(&rank);
        }
        prop_assert_eq!(tree, flat);
    }

    /// A ranked plan covers every output cell exactly once for arbitrary
    /// machine shapes and GEMM sizes, and its rank level partitions the
    /// shard ids exactly: consecutive, disjoint, within the per-rank bank
    /// budget, and never more ranks than the machine has.
    #[test]
    fn rank_plan_covers_every_cell_exactly_once(
        ranks in 1u32..40,
        banks_per_rank in 1u32..70,
        m in 1usize..90,
        n in 1usize..70,
    ) {
        let dims = GemmDims { m, k: 3, n };
        let plan = ShardPlan::for_ranks(dims, ranks, banks_per_rank);
        // Output cover: every (row, col) in exactly one shard.
        let mut covered = vec![false; m * n];
        for shard in plan.shards() {
            for r in shard.rows.clone() {
                for c in shard.cols.clone() {
                    prop_assert!(!covered[r * n + c], "overlap at ({}, {})", r, c);
                    covered[r * n + c] = true;
                }
            }
        }
        prop_assert!(covered.iter().all(|&v| v), "hole in the shard cover");
        // Rank cover: the assignments tile 0..len exactly.
        let rp = plan.rank_plan().expect("for_ranks builds the rank level");
        prop_assert!(rp.populated() <= ranks as usize);
        let mut next = 0usize;
        for range in rp.assignments() {
            prop_assert_eq!(range.start, next);
            prop_assert!(!range.is_empty());
            prop_assert!(range.len() <= banks_per_rank as usize);
            next = range.end;
        }
        prop_assert_eq!(next, plan.len());
    }

    /// The bank-parallel executor is bit-identical to the serial path on
    /// random shapes and thread counts: values match `GemmConfig::run`,
    /// and for a fixed shard plan the merged profile and stats match the
    /// 1-worker execution of the same plan exactly.
    #[test]
    fn parallel_execution_matches_serial(
        m in 1usize..12,
        k in 1usize..24,
        n in 1usize..6,
        banks in 1u32..10,
        threads in 2usize..9,
        seed in 0u64..1000,
    ) {
        let wf = NumericFormat::Int(2);
        let af = NumericFormat::Int(3);
        let w = qmatrix(m, k, wf, seed);
        let a = qmatrix(k, n, af, seed.wrapping_add(1));
        let cfg = GemmConfig::upmem();
        let dims = GemmDims { m, k, n };
        let plan = ShardPlan::for_banks(dims, banks);

        for method in [Method::NaivePim, Method::OpLcRc, Method::LoCaLut] {
            let serial = cfg.run(method, &w, &a).unwrap();
            let one = ParallelExecutor::with_config(1, cfg.clone())
                .execute_plan(&plan, method, &w, &a).unwrap();
            let par = ParallelExecutor::with_config(threads, cfg.clone())
                .execute_plan(&plan, method, &w, &a).unwrap();
            prop_assert_eq!(&par.values, &serial.values);
            prop_assert_eq!(&par, &one); // profiles, stats, per-bank: bitwise
        }
    }

    /// run().profile == cost(dims) for the parameterized kernels — the
    /// functional and analytic paths can never drift.
    #[test]
    fn run_profile_equals_cost_property(
        m in 1usize..10,
        k in 1usize..20,
        n in 1usize..5,
        p in 1u32..4,
        seed in 0u64..100,
    ) {
        let wf = NumericFormat::Int(2);
        let af = NumericFormat::Int(3);
        let w = qmatrix(m, k, wf, seed);
        let a = qmatrix(k, n, af, seed + 7);
        let dims = GemmDims { m, k, n };
        let cfg = GemmConfig::upmem();

        let op = KernelSpec::with_p(&cfg, Method::Op, wf, af, p).unwrap();
        prop_assert_eq!(op.run(&w, &a, None, None).unwrap().profile, op.cost(dims));
        let rc = KernelSpec::with_p(&cfg, Method::OpLcRc, wf, af, p).unwrap();
        prop_assert_eq!(rc.run(&w, &a, None, None).unwrap().profile, rc.cost(dims));
        if let Ok(s) = KernelSpec::with_p(&cfg, Method::LoCaLut, wf, af, p) {
            prop_assert_eq!(s.run(&w, &a, None, None).unwrap().profile, s.cost(dims));
        }
    }
}
