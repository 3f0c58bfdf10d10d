//! The one percentile helper every latency figure goes through.
//!
//! Rule: a timing is reported as its median plus the highest percentile of
//! [`LADDER`] that has at least [`MIN_BEYOND`] samples beyond it, together
//! with the sample count. A percentile the sample cannot support is never
//! reported.

/// Percentiles the helper may report, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `pct` among `n` samples,
/// in integer hundredths of a percent so that `99.9` of `10_000` is 9990.
fn rank(n: usize, pct: f64) -> usize {
    let basis = (pct * 100.0).round() as u128;
    let rank = (n as u128 * basis).div_ceil(10_000) as usize;
    rank.clamp(1, n.max(1))
}

/// A sorted timing sample.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` into a sample (`+inf` is a valid value: a request
    /// that failed misses every limit).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Samples strictly beyond the nearest-rank percentile `pct`.
    pub fn beyond(&self, pct: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - rank(self.sorted.len(), pct)
    }

    /// The nearest-rank percentile `pct`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn at(&self, pct: f64) -> Option<f64> {
        if self.beyond(pct) < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[rank(self.sorted.len(), pct) - 1])
    }

    /// The median, under the same support rule.
    pub fn median(&self) -> Option<f64> {
        self.at(50.0)
    }

    /// The highest supported percentile of [`LADDER`] and its value.
    pub fn top(&self) -> Option<(f64, f64)> {
        LADDER
            .iter()
            .rev()
            .find_map(|&pct| self.at(pct).map(|v| (pct, v)))
    }

    /// `p50 1.204 ms, p99.9 3.881 ms (n=20000)` — or the count alone when
    /// even the median is unsupported.
    pub fn describe(&self, unit: &str) -> String {
        match (self.median(), self.top()) {
            (Some(p50), Some((pct, top))) => {
                format!(
                    "p50 {p50:.3} {unit}, p{pct} {top:.3} {unit} (n={})",
                    self.len()
                )
            }
            _ => format!("too few samples for a percentile (n={})", self.len()),
        }
    }
}

/// Length of the windows [`windowed`] splits a timed phase into.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// Percentile `pct` of each [`WINDOW_NS`] window of `(time_ns, value)`
/// samples, then the median over the windows that support it (and how
/// many did). A run's tail then reflects a typical second rather than the
/// one second a host hiccup landed in.
pub fn windowed(samples: &[(u64, f64)], pct: f64) -> Option<(f64, usize)> {
    let t0 = samples.iter().map(|s| s.0).min()?;
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        let w = ((t - t0) / WINDOW_NS) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(v);
    }
    let per: Vec<f64> = windows
        .into_iter()
        .filter_map(|w| Sample::new(w).at(pct))
        .collect();
    (!per.is_empty()).then(|| (median(&per), per.len()))
}

/// Event rate (1/s) within each [`WINDOW_NS`] window of event times
/// (`(count - 1) / span` of the window's events), then the median over
/// windows with at least two events (and how many there were).
pub fn windowed_rate(times: &[u64]) -> Option<(f64, usize)> {
    let rates = window_rates(times);
    (!rates.is_empty()).then(|| (median(&rates), rates.len()))
}

/// The per-window rates [`windowed_rate`] takes the median of.
pub fn window_rates(times: &[u64]) -> Vec<f64> {
    let Some(t0) = times.iter().copied().min() else {
        return Vec::new();
    };
    let mut spans: Vec<(u64, u64, u64)> = Vec::new(); // (first, last, count)
    for &t in times {
        let w = ((t - t0) / WINDOW_NS) as usize;
        if spans.len() <= w {
            spans.resize(w + 1, (u64::MAX, 0, 0));
        }
        let s = &mut spans[w];
        *s = (s.0.min(t), s.1.max(t), s.2 + 1);
    }
    spans
        .into_iter()
        .filter(|s| s.2 >= 2 && s.1 > s.0)
        .map(|(first, last, n)| (n - 1) as f64 / ((last - first) as f64 / 1e9))
        .collect()
}

/// Plain median of per-pass figures (the middle value, or the mean of the
/// two middle values); `NaN` on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sample {
        Sample::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let s = ramp(1000);
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.at(99.0), Some(990.0));
        assert_eq!(s.at(99.9), None, "only one sample beyond p99.9");
        assert_eq!(s.top(), Some((99.0, 990.0)));
        assert_eq!(s.median(), Some(500.0));

        let s = ramp(999);
        assert_eq!(s.beyond(99.0), 9);
        assert_eq!(s.at(99.0), None);
        assert_eq!(s.top(), Some((90.0, 900.0)));
    }

    #[test]
    fn highest_supported_percentile_climbs_with_the_count() {
        assert_eq!(ramp(10_000).top().map(|t| t.0), Some(99.9));
        assert_eq!(ramp(100_000).top().map(|t| t.0), Some(99.99));
        assert_eq!(ramp(20).top(), Some((50.0, 10.0)));
        assert_eq!(ramp(19).top(), None, "9 beyond the median is too few");
        assert_eq!(Sample::new(Vec::new()).top(), None);
        assert!(ramp(19).describe("ms").contains("n=19"));
        assert!(ramp(1000)
            .describe("ms")
            .contains("p99 990.000 ms (n=1000)"));
    }

    #[test]
    fn failures_sort_last_as_infinite_latency() {
        let mut v: Vec<f64> = (0..990).map(|i| i as f64).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        let s = Sample::new(v);
        assert_eq!(s.at(99.0), Some(989.0));
        let mut v: Vec<f64> = (0..989).map(|i| i as f64).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 11));
        assert_eq!(Sample::new(v).at(99.0), Some(f64::INFINITY));
    }

    #[test]
    fn windowed_takes_the_median_over_supported_seconds() {
        let s = 1_000_000_000u64;
        // Three 1 s windows of 1000 samples; the middle one has a hiccup.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..1000u64 {
                let v = if w == 1 && i >= 900 {
                    50.0
                } else {
                    1.0 + i as f64 / 1000.0
                };
                samples.push((w * s + i * 1_000_000, v));
            }
        }
        // A fourth, sparse window cannot support a p99 and is skipped.
        samples.push((3 * s, 99.0));
        let (p99, windows) = windowed(&samples, 99.0).unwrap();
        assert_eq!(windows, 3);
        assert!((p99 - 1.989).abs() < 1e-9, "got {p99}");
        assert_eq!(windowed(&[], 99.0), None);
    }

    #[test]
    fn windowed_rate_is_the_median_per_second_rate() {
        // 1000/s for two seconds, then a second at 10/s.
        let mut times: Vec<u64> = (0..2000).map(|i| i * 1_000_000).collect();
        times.extend((0..10).map(|i| 2_000_000_000 + i * 100_000_000));
        let (rate, windows) = windowed_rate(&times).unwrap();
        assert_eq!(windows, 3);
        assert!((rate - 1000.0).abs() < 1e-6, "got {rate}");
        assert_eq!(windowed_rate(&[5]), None);
    }

    #[test]
    fn plain_median_of_passes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
