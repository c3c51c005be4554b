//! The harness's arithmetic: percentiles, medians, per-unit division and
//! phase shares. Kept apart from the simulator calls so it can be
//! unit-tested on hand-made inputs.

/// A nearest-rank percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The order statistic at rank `ceil(q * n)`.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile of `samples` (`0 < q <= 1`), or `None`
/// for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The fewest samples for which the nearest-rank `q`-quantile has at
/// least `beyond` samples past it.
pub fn min_samples_for(q: f64, beyond: usize) -> usize {
    (1..)
        .find(|&n| n - ((q * n as f64).ceil() as usize).clamp(1, n) >= beyond)
        .expect("some sample count satisfies any finite requirement")
}

/// The median (mean of the middle pair for an even count), or `None` for
/// an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Folds one repeat's per-window host times into `fastest`, the fastest
/// time seen so far for each window. Every repeat simulates the same
/// windows, so a window's simulated work is fixed and only host load
/// stretches it; its fastest repeat is its cost on an unloaded host.
/// Windows that differ in simulated work keep their own cost. Returns
/// `false`, leaving `fastest` as it was, when the window counts differ.
pub fn keep_fastest(fastest: &mut [f64], repeat: &[f64]) -> bool {
    if fastest.len() != repeat.len() {
        return false;
    }
    for (f, &r) in fastest.iter_mut().zip(repeat) {
        *f = f.min(r);
    }
    true
}

/// `num / base`, or `None` when the base is zero: a ratio over no work is
/// undefined, never infinite or NaN.
pub fn per_unit(num: f64, base: f64) -> Option<f64> {
    if base == 0.0 {
        None
    } else {
        Some(num / base)
    }
}

/// Each part's share of the parts' sum (`None` each when the sum is zero).
pub fn shares(parts: &[f64]) -> Vec<Option<f64>> {
    let total: f64 = parts.iter().sum();
    parts.iter().map(|&p| per_unit(p, total)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_one_hundred_samples_leaves_ten_beyond() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p = percentile(&samples, 0.9).unwrap();
        assert_eq!(p.value, 90.0);
        assert_eq!(p.samples, 100);
        assert_eq!(p.beyond, 10);
    }

    #[test]
    fn nearest_rank_rounds_up() {
        let samples = [5.0, 1.0, 3.0];
        // ceil(0.9 * 3) = 3: the largest sample, nothing beyond.
        let p = percentile(&samples, 0.9).unwrap();
        assert_eq!((p.value, p.beyond), (5.0, 0));
        // ceil(0.5 * 3) = 2.
        assert_eq!(percentile(&samples, 0.5).unwrap().value, 3.0);
        assert_eq!(percentile(&[7.0], 0.9).unwrap().value, 7.0);
        assert!(percentile(&[], 0.9).is_none());
    }

    #[test]
    fn ten_beyond_p90_needs_one_hundred_samples() {
        assert_eq!(min_samples_for(0.9, 10), 100);
        let p = percentile(&vec![1.0; 99], 0.9).unwrap();
        assert_eq!(p.beyond, 9);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn keep_fastest_takes_each_windows_fastest_repeat() {
        // Window 1 is a heavier window; repeat b hit a host-load burst in
        // window 0 and repeat c one in window 1.
        let mut fastest = vec![1.1, 5.0];
        assert!(keep_fastest(&mut fastest, &[9.0, 4.9]));
        assert!(keep_fastest(&mut fastest, &[1.0, 7.5]));
        assert_eq!(fastest, vec![1.0, 4.9]);
        assert!(!keep_fastest(&mut fastest, &[0.5]));
        assert_eq!(fastest, vec![1.0, 4.9]);
    }

    #[test]
    fn per_unit_divides_and_refuses_a_zero_base() {
        assert_eq!(per_unit(3.0, 4.0), Some(0.75));
        assert_eq!(per_unit(0.0, 5.0), Some(0.0));
        assert_eq!(per_unit(1.0, 0.0), None);
        assert_eq!(per_unit(0.0, 0.0), None);
    }

    #[test]
    fn shares_sum_to_one() {
        let parts = [0.35, 0.39, 0.08, 0.0, 0.18];
        let total: f64 = shares(&parts).iter().map(|s| s.unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(shares(&[0.0, 0.0]), vec![None, None]);
    }
}
