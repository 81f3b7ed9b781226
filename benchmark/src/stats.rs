//! The benchmark's own arithmetic: percentiles from sorted raw samples,
//! timing summaries and the error ratio.
//!
//! Percentiles are computed from every recorded sample, never from a
//! bucketed histogram: a 1.5×-wide bucket ladder cannot resolve a 10% move.

/// Candidate tail percentiles in per-mille, highest first.
const TAIL_LADDER: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// A tail percentile must leave at least this many samples beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples:
/// the smallest rank whose share of samples at or below it reaches the
/// percentile.
pub fn nearest_rank(per_mille: u32, n: usize) -> usize {
    let r = (per_mille as usize * n).div_ceil(1000);
    r.max(1)
}

/// The highest percentile of the ladder (p99.9, p99, p95, p90, p75, p50)
/// that has at least [`TAIL_MIN_BEYOND`] samples beyond its nearest rank at
/// `n` samples, in per-mille. `None` below 20 samples, where even the
/// median has fewer than ten samples beyond it.
pub fn tail_per_mille(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&pm| n - nearest_rank(pm, n).min(n) >= TAIL_MIN_BEYOND)
}

/// The `per_mille` percentile of ascending `sorted` by nearest rank.
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(per_mille, sorted.len()).min(sorted.len()) - 1]
}

/// The exact median of ascending `sorted` (mean of the middle pair for an
/// even count).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Sorts samples ascending (NaN-free by construction: they are durations).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// One timing: sample count, median, a tail percentile and the total.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// The tail percentile reported, in per-mille; `1000` marks the maximum,
    /// used only when fewer than 20 samples exist.
    pub tail_per_mille: u32,
    pub tail: f64,
    pub total: f64,
}

impl Summary {
    /// Summarizes `samples` with the tail percentile `per_mille`, or — when
    /// `None` — the highest one the sample count supports (the maximum when
    /// none does). `None` for no samples.
    pub fn of(samples: &[f64], per_mille: Option<u32>) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let s = sorted(samples);
        let pm = per_mille.or_else(|| tail_per_mille(s.len())).unwrap_or(1000);
        Some(Summary {
            count: s.len(),
            p50: median(&s),
            tail_per_mille: pm,
            tail: if pm >= 1000 { s[s.len() - 1] } else { percentile(&s, pm) },
            total: s.iter().sum(),
        })
    }

    /// `p95`, `p99.9`, `max` — the label of the reported tail.
    pub fn tail_label(&self) -> String {
        label(self.tail_per_mille)
    }
}

/// `p95`, `p99.9`, `max` for a per-mille percentile.
pub fn label(per_mille: u32) -> String {
    match per_mille {
        1000.. => "max".into(),
        pm if pm % 10 == 0 => format!("p{}", pm / 10),
        pm => format!("p{}.{}", pm / 10, pm % 10),
    }
}

/// Operations that errored or failed the answer check, over operations
/// attempted. `None` when nothing was attempted: such a run measured
/// nothing and cannot count as error-free.
pub fn error_ratio(failed: u64, attempted: u64) -> Option<f64> {
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

/// Median of a few set-up times (or any unsorted values).
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_at_boundary_counts() {
        // Fewer than 20 samples: not even the median has 10 beyond it.
        assert_eq!(tail_per_mille(0), None);
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(39), Some(500));
        assert_eq!(tail_per_mille(40), Some(750));
        assert_eq!(tail_per_mille(99), Some(750));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(199), Some(900));
        // p95 at 200 reads, p99 at 1000 or more.
        assert_eq!(tail_per_mille(200), Some(950));
        assert_eq!(tail_per_mille(999), Some(950));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(9_999), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
    }

    #[test]
    fn nearest_rank_needs_no_float_rounding() {
        // 99.9% of 1000 is rank 999 exactly, not 1000.
        assert_eq!(nearest_rank(999, 1000), 999);
        assert_eq!(nearest_rank(950, 200), 190);
        assert_eq!(nearest_rank(950, 201), 191);
        assert_eq!(nearest_rank(500, 1), 1);
        assert_eq!(nearest_rank(500, 0), 1);
    }

    #[test]
    fn percentile_and_median_from_raw_samples() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = sorted(&samples);
        assert_eq!(percentile(&s, 950), 190.0);
        assert_eq!(median(&s), 100.5);
        assert_eq!(median(&[3.0]), 3.0);
        // Ten samples lie strictly beyond the p95 of 200.
        assert_eq!(s.iter().filter(|&&x| x > percentile(&s, 950)).count(), 10);
        // A 10% move of every sample moves the median by 10% exactly,
        // which a 1.5×-wide bucket ladder could not show.
        let moved: Vec<f64> = samples.iter().map(|x| x * 1.1).collect();
        let ratio = median(&sorted(&moved)) / median(&s);
        assert!((ratio - 1.1).abs() < 1e-12);
    }

    #[test]
    fn summary_picks_the_supported_tail() {
        let samples: Vec<f64> = (0..200).map(|i| (i % 17) as f64 + 0.5).collect();
        let s = Summary::of(&samples, None).unwrap();
        assert_eq!((s.count, s.tail_per_mille), (200, 950));
        assert_eq!(s.tail_label(), "p95");
        assert_eq!(s.total, samples.iter().sum::<f64>());
        let few = Summary::of(&[2.0, 1.0, 4.0], None).unwrap();
        assert_eq!((few.tail_per_mille, few.tail, few.p50), (1000, 4.0, 2.0));
        assert_eq!(few.tail_label(), "max");
        assert_eq!(Summary::of(&[], None), None);
        assert_eq!(label(999), "p99.9");
    }

    #[test]
    fn error_ratio_with_zero_attempts_is_undefined() {
        assert_eq!(error_ratio(0, 0), None);
        assert_eq!(error_ratio(0, 10), Some(0.0));
        assert_eq!(error_ratio(3, 12), Some(0.25));
    }
}
