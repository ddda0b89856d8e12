//! Order statistics the benchmark reports, and the seed mixer its inputs
//! derive from.

/// Median of `values` (mean of the two middle elements for an even
/// count). `NaN` for an empty slice, so a missing measurement cannot pass
/// for a number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A per-round figure at its best round: the smallest for a time, the
/// largest for a rate.
///
/// The host is shared and slows down for seconds at a time (the same GEMM
/// reads 90 ms, then 138 ms for the next eight seconds, then 90 ms again;
/// no steal time is reported, so it looks like a busy sibling thread). What
/// share of a run falls into slow phases changes from minute to minute, so
/// a median over rounds — or any fixed quantile — reports the host's mood:
/// ten runs of identical code spread by 10 to 17 %. Interference only ever
/// adds time, so the best round is the one the host left alone, and it is
/// the figure most likely to repeat.
pub fn best_of_rounds<T>(rounds: &[T], higher_is_better: bool, figure: impl Fn(&T) -> f64) -> f64 {
    let values = rounds.iter().map(figure);
    if higher_is_better {
        values.fold(f64::NAN, f64::max)
    } else {
        values.fold(f64::NAN, f64::min)
    }
}

/// Nearest-rank percentile `q` (in percent) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() as f64 * q / 100.0).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, ascending, each with the
/// share of samples beyond it in parts per ten thousand (integers, so the
/// support test below is exact).
const TAIL_LADDER: [(f64, u64); 6] = [
    (50.0, 5_000),
    (90.0, 1_000),
    (95.0, 500),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_SUPPORT: u64 = 10;

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// of `samples` beyond it; `None` when even the median has fewer.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|(_, beyond)| samples as u64 * beyond >= TAIL_SUPPORT * 10_000)
        .map(|&(q, _)| q)
}

/// SplitMix64 finalizer: derives the independent input seeds of one run
/// (`stream` names the consumer) from the single `--seed`.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn the_best_round_ignores_slow_phases_of_the_host() {
        // (ops, seconds) per round: the host was slow for seven rounds of ten.
        let rounds: Vec<(u64, f64)> = [1.02, 1.45, 1.44, 1.46, 1.0, 1.45, 1.43, 1.45, 1.44, 1.01]
            .iter()
            .map(|&secs| (100, secs))
            .collect();
        assert_eq!(
            best_of_rounds(&rounds, true, |&(ops, secs)| ops as f64 / secs),
            100.0
        );
        assert_eq!(best_of_rounds(&rounds, false, |&(_, secs)| secs), 1.0);
        // The median would have read the slow phase.
        assert!(median(&rounds.iter().map(|r| r.1).collect::<Vec<_>>()) > 1.4);
        assert!(best_of_rounds(&rounds[..0], true, |&(_, secs)| secs).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 99.99), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn mixed_seeds_differ_by_stream_and_by_seed() {
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
        assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
    }
}
