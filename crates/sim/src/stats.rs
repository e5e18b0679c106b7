//! Streaming statistics for Monte-Carlo reporting: Welford accumulation,
//! summaries with normal-approximation confidence intervals, quantiles
//! and fixed-bin histograms.

/// Welford's online mean/variance accumulator — numerically stable for
/// millions of trials.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (NaN for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        self.std_dev() / (self.n as f64).sqrt()
    }

    /// Finalizes into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            std_dev: self.std_dev(),
            std_error: self.std_error(),
            min: self.min,
            max: self.max,
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut w = Welford::new();
        for x in iter {
            w.add(x);
        }
        w
    }
}

/// Summary statistics of a Monte-Carlo metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of trials.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Normal-approximation 95% confidence interval for the mean.
    pub fn ci95(&self) -> (f64, f64) {
        let half = 1.959963984540054 * self.std_error;
        (self.mean - half, self.mean + half)
    }

    /// True iff `value` lies inside the 95% CI (convenience for
    /// analytic-vs-simulated agreement tests).
    pub fn ci95_contains(&self, value: f64) -> bool {
        let (lo, hi) = self.ci95();
        (lo..=hi).contains(&value)
    }

    /// Half-width of the 99.9% confidence interval (for strict
    /// validation without flaky 1-in-20 failures).
    pub fn ci999_half_width(&self) -> f64 {
        3.290526731491926 * self.std_error
    }
}

/// Empirical quantile of a sample (the order-statistic definition).
///
/// Sorts a copy: `O(n log n)`. `q ∈ [0, 1]`; panics on empty input.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} out of [0,1]");
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if q == 0.0 {
        return sorted[0];
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Fixed-bin histogram over `[lo, hi]` with underflow/overflow counters.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi]`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi && bins > 0, "invalid histogram spec");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[idx.min(n - 1)] += 1;
        }
    }

    /// `(bin_center, density)` pairs, density normalized so the histogram
    /// integrates to the in-range fraction.
    pub fn densities(&self) -> Vec<(f64, f64)> {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let center = self.lo + w * (i as f64 + 0.5);
                let d = if self.total == 0 {
                    0.0
                } else {
                    c as f64 / (self.total as f64 * w)
                };
                (center, d)
            })
            .collect()
    }

    /// Total observations recorded (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Out-of-range counts `(underflow, overflow)`.
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.13).collect();
        let w: Welford = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-10);
        assert_eq!(w.count(), 1000);
        assert_eq!(
            w.summary().min,
            *data
                .iter()
                .min_by(|a, b| a.partial_cmp(b).unwrap())
                .unwrap()
        );
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 3.0).collect();
        let seq: Welford = data.iter().copied().collect();
        let mut a: Welford = data[..200].iter().copied().collect();
        let b: Welford = data[200..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-12);
        assert!((a.variance() - seq.variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert_eq!(w.count(), 0);
        let mut w = Welford::new();
        w.add(3.5);
        assert_eq!(w.mean(), 3.5);
        assert!(w.variance().is_nan());
        // Merging empty is a no-op.
        let mut a = w;
        a.merge(&Welford::new());
        assert_eq!(a.mean(), 3.5);
        let mut e = Welford::new();
        e.merge(&w);
        assert_eq!(e.mean(), 3.5);
    }

    #[test]
    fn ci95_width_shrinks_with_n() {
        let small: Welford = (0..100).map(|i| (i % 7) as f64).collect();
        let large: Welford = (0..10_000).map(|i| (i % 7) as f64).collect();
        let ws = small.summary();
        let wl = large.summary();
        let (slo, shi) = ws.ci95();
        let (llo, lhi) = wl.ci95();
        assert!(lhi - llo < shi - slo);
        assert!(ws.ci95_contains(ws.mean));
    }

    #[test]
    fn quantile_order_statistics() {
        let data = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 0.5), 3.0);
        assert_eq!(quantile(&data, 1.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quantile_empty_panics() {
        let _ = quantile(&[], 0.5);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.add(i as f64 + 0.5);
        }
        h.add(-1.0);
        h.add(42.0);
        assert_eq!(h.total(), 12);
        assert_eq!(h.out_of_range(), (1, 1));
        assert!(h.counts().iter().all(|&c| c == 1));
        let d = h.densities();
        assert_eq!(d.len(), 10);
        // Each bin density = 1/12 per unit width.
        assert!((d[0].1 - 1.0 / 12.0).abs() < 1e-12);
        assert!((d[0].0 - 0.5).abs() < 1e-12);
    }
}
