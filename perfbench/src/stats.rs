//! Order statistics for the reported timings.

/// The `q`-quantile of `values` as an order statistic (the
/// `ceil(q·n)`-th smallest value); `0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latencies (µs) recorded into fixed log-linear buckets, 1024 per
/// octave (0.07% resolution) from 10 ns up: the benchmark's own memory
/// does not grow with the number of requests a run completes, so
/// `peak_rss_mb` measures the program under test.
pub struct Latencies {
    counts: Vec<u64>,
    n: u64,
}

const PER_OCTAVE: f64 = 1024.0;
const FLOOR_US: f64 = 0.01;
const OCTAVES: usize = 40;

impl Latencies {
    pub fn new() -> Self {
        Self {
            counts: vec![0; OCTAVES * PER_OCTAVE as usize],
            n: 0,
        }
    }

    pub fn record(&mut self, us: f64) {
        let idx = ((us / FLOOR_US).max(1.0).log2() * PER_OCTAVE) as usize;
        let last = self.counts.len() - 1;
        self.counts[idx.min(last)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile as the `ceil(q·n)`-th smallest sample's bucket
    /// midpoint; `0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return FLOOR_US * ((idx as f64 + 0.5) / PER_OCTAVE).exp2();
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// `num / den`, or `0` when nothing was counted.
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
    fn quantiles_are_order_statistics() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn bucketed_latencies_keep_quantiles_to_a_tenth_of_a_percent() {
        let mut log = Latencies::new();
        let v: Vec<f64> = (1..=1000).map(|i| 3.7 * i as f64).collect();
        for &x in &v {
            log.record(x);
        }
        assert_eq!(log.len(), 1000);
        for q in [0.01, 0.5, 0.99, 1.0] {
            let (got, want) = (log.quantile(q), quantile(&v, q));
            assert!((got / want - 1.0).abs() < 1e-3, "q {q}: {got} vs {want}");
        }
        assert_eq!(Latencies::new().quantile(0.5), 0.0);
    }
}
