//! Order statistics over latency samples.

/// The `q`-quantile of `values` (linear interpolation between the two
/// nearest ranks). `NaN` when `values` is empty, so a metric computed from no
/// samples can never pass for a measurement.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest quantile that still has at least ten samples beyond it,
/// capped at p99: the tail a sample of `n` values supports.
pub fn tail_quantile(n: usize) -> f64 {
    if n <= 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Samples bucketed into fixed one-second windows of a measured phase.
pub struct Windows {
    buckets: Vec<Vec<f64>>,
}

impl Windows {
    /// `count` empty windows.
    pub fn new(count: usize) -> Windows {
        Windows {
            buckets: vec![Vec::new(); count.max(1)],
        }
    }

    /// Records `value` in the window that contains `offset_s` seconds into
    /// the phase; samples past the last window are dropped.
    pub fn record(&mut self, offset_s: f64, value: f64) {
        if offset_s < 0.0 {
            return;
        }
        if let Some(bucket) = self.buckets.get_mut(offset_s as usize) {
            bucket.push(value);
        }
    }

    /// Per-window sample counts.
    pub fn counts(&self) -> Vec<f64> {
        self.buckets.iter().map(|b| b.len() as f64).collect()
    }

    /// The median over windows of each window's `q`-quantile (windows with
    /// no samples are skipped).
    pub fn median_of_quantiles(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .buckets
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| quantile(b, q))
            .collect();
        median(&per_window)
    }

    /// Fewest samples any window holds.
    pub fn min_count(&self) -> usize {
        self.buckets.iter().map(Vec::len).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_quantile_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(0), 0.5);
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(100_000), 0.99);
        for n in 21..5_000 {
            let q = tail_quantile(n);
            assert!((0.5..=0.99).contains(&q), "n={n} q={q}");
            assert!(
                q == 0.99 || n as f64 * (1.0 - q) >= 10.0 - 1e-9,
                "n={n} q={q}"
            );
        }
    }

    #[test]
    fn windows_bucket_by_second_and_drop_outsiders() {
        let mut w = Windows::new(3);
        for (at, v) in [
            (0.1, 1.0),
            (0.9, 3.0),
            (1.5, 10.0),
            (2.2, 20.0),
            (2.7, 40.0),
        ] {
            w.record(at, v);
        }
        w.record(-0.1, 99.0);
        w.record(3.0, 99.0);
        assert_eq!(w.counts(), vec![2.0, 1.0, 2.0]);
        assert_eq!(w.min_count(), 1);
        // Window medians 2, 10 and 30; their median is 10.
        assert_eq!(w.median_of_quantiles(0.5), 10.0);
    }
}
