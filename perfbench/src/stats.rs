//! Order statistics with the sample-size rule the benchmark reports by:
//! a percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure always rests on more than a handful of
//! observations.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile, with the counts that support it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile asked for, in (0, 100).
    pub pct: f64,
    /// The nearest-rank value (0 when there are no samples).
    pub value: f64,
    /// Samples the value was taken from.
    pub samples: usize,
    /// Samples ranked strictly above the value's rank.
    pub beyond: usize,
    /// Windows the value is the median over (see [`windowed`]).
    pub windows: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the value for it to be reported.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((n as f64) * pct / 100.0)
        .ceil()
        .clamp(1.0, n.max(1) as f64) as usize
}

/// Nearest-rank percentile of `samples` (any order).
pub fn percentile(samples: &[f64], pct: f64) -> Percentile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, pct)
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> Percentile {
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            pct,
            value: 0.0,
            samples: 0,
            beyond: 0,
            windows: 1,
        };
    }
    let r = rank(n, pct);
    Percentile {
        pct,
        value: sorted[r - 1],
        samples: n,
        beyond: n - r,
        windows: 1,
    }
}

/// Percentile `pct` of a time-ordered series, taken in each of an odd
/// number of consecutive windows of at least `window` samples (the last
/// window keeps the remainder) and reported as the median over the
/// windows, which is then one window's value. A stall that spoils one
/// window of three moves that window's value, not the result.
/// `samples` and `beyond` are those of the smallest window.
pub fn windowed(series: &[f64], pct: f64, window: usize) -> Percentile {
    let fit = (series.len() / window.max(1)).max(1);
    let k = if fit.is_multiple_of(2) { fit - 1 } else { fit };
    let size = series.len() / k;
    let per: Vec<Percentile> = (0..k)
        .map(|i| {
            let end = if i + 1 == k {
                series.len()
            } else {
                (i + 1) * size
            };
            percentile(&series[i * size..end], pct)
        })
        .collect();
    let smallest = per
        .iter()
        .min_by_key(|p| p.samples)
        .copied()
        .expect("at least one window");
    Percentile {
        value: median(&per.iter().map(|p| p.value).collect::<Vec<_>>()),
        windows: k,
        ..smallest
    }
}

/// Smallest sample count at which percentile `pct` is supported.
pub fn samples_needed(pct: f64) -> usize {
    (1..)
        .find(|&n| n - rank(n, pct) >= MIN_BEYOND)
        .expect("some finite count supports every percentile below 100")
}

/// Median of the values (0 for none), for the repeated set-up timings.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).value
}

/// Arithmetic mean (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `100 * part / whole`, 0 when nothing was counted.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `num / den`, 0 when the denominator is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(50.0), 20);

        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&samples, 99.0);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        assert!(p99.supported());

        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let p99 = percentile(&short, 99.0);
        assert_eq!(p99.beyond, 9);
        assert!(!p99.supported());
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_windowed_value() {
        let mut series: Vec<f64> = (0..3000).map(|i| (i % 100) as f64).collect();
        // A stall: 40 consecutive slow requests inside the second window.
        for v in &mut series[1500..1540] {
            *v = 1000.0;
        }
        assert_eq!(percentile(&series, 99.0).value, 1000.0);
        let w = windowed(&series, 99.0, 1000);
        assert_eq!(w.windows, 3);
        assert_eq!(w.value, 98.0);
        assert_eq!((w.samples, w.beyond), (1000, 10));
        assert!(w.supported());
        // Too few samples for three windows: one window, the plain value,
        // never the lower of two.
        let short: Vec<f64> = (1..=2999).map(f64::from).collect();
        assert_eq!(windowed(&short, 99.0, 1000), percentile(&short, 99.0));
        // Four windows' worth makes three larger windows.
        let four: Vec<f64> = (0..4000).map(f64::from).collect();
        let w = windowed(&four, 99.0, 1000);
        assert_eq!((w.windows, w.samples), (3, 1333));
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let p = percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0);
        assert_eq!(p.value, 3.0);
        assert_eq!(p.beyond, 2);
        assert_eq!(percentile(&[], 99.0).value, 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
