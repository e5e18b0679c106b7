//! Empirical distribution built from observed data — the bridge between
//! checkpoint-duration traces and the paper's model-based planning. The
//! paper notes "the probability distribution can be learned from traces
//! of previous checkpoints"; [`Empirical`] is the nonparametric baseline
//! the parametric fits of [`crate::fit`] are compared against.

use crate::traits::{uniform01, Continuous, Distribution, Sample};
use crate::DistError;
use rand::RngCore;

/// Empirical distribution of a finite sample (ECDF / bootstrap sampling).
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Observations, sorted ascending.
    sorted: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl Empirical {
    /// Builds the empirical law of `data` (at least one finite value).
    pub fn new(data: &[f64]) -> Result<Self, DistError> {
        if data.is_empty() {
            return Err(DistError::EmptyData);
        }
        if let Some(&bad) = data.iter().find(|x| !x.is_finite()) {
            return Err(DistError::NonFiniteParameter {
                name: "data",
                value: bad,
            });
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let variance = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Ok(Self {
            sorted,
            mean,
            variance,
        })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True iff there are no observations (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// The sorted observations.
    pub fn data(&self) -> &[f64] {
        &self.sorted
    }
}

impl Distribution for Empirical {
    fn mean(&self) -> f64 {
        self.mean
    }
    fn variance(&self) -> f64 {
        self.variance
    }
}

impl Continuous for Empirical {
    /// The ECDF has no density; this returns 0 (use a parametric fit or a
    /// kernel estimate when a density is needed).
    fn pdf(&self, _x: f64) -> f64 {
        0.0
    }

    /// ECDF: fraction of observations `≤ x`.
    fn cdf(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x on sorted data.
        let cnt = self.sorted.partition_point(|&v| v <= x);
        cnt as f64 / self.sorted.len() as f64
    }

    /// Order-statistic quantile: the `⌈p·n⌉`-th smallest observation.
    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 0.0 {
            return self.min();
        }
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    fn support(&self) -> (f64, f64) {
        (self.min(), self.max())
    }
}

impl Sample for Empirical {
    /// Bootstrap draw: one observation uniformly at random.
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let i = (uniform01(rng) * self.sorted.len() as f64) as usize;
        self.sorted[i.min(self.sorted.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(Empirical::new(&[]).is_err());
        assert!(Empirical::new(&[1.0, f64::NAN]).is_err());
        assert!(Empirical::new(&[1.0]).is_ok());
    }

    #[test]
    fn moments_match_hand_computation() {
        let e = Empirical::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.mean(), 2.5);
        assert_eq!(e.variance(), 1.25);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn ecdf_steps() {
        let e = Empirical::new(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(e.cdf(0.5), 0.0);
        assert!((e.cdf(1.0) - 1.0 / 3.0).abs() < 1e-15);
        assert!((e.cdf(1.5) - 1.0 / 3.0).abs() < 1e-15);
        assert!((e.cdf(2.0) - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(e.cdf(3.0), 1.0);
        assert_eq!(e.cdf(99.0), 1.0);
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let e = Empirical::new(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.2), 10.0);
        assert_eq!(e.quantile(0.21), 20.0);
        assert_eq!(e.quantile(0.5), 30.0);
        assert_eq!(e.quantile(1.0), 50.0);
        assert!(e.quantile(-0.1).is_nan());
    }

    #[test]
    fn handles_duplicates() {
        let e = Empirical::new(&[2.0, 2.0, 2.0, 5.0]).unwrap();
        assert!((e.cdf(2.0) - 0.75).abs() < 1e-15);
        assert_eq!(e.quantile(0.5), 2.0);
    }

    #[test]
    fn bootstrap_sampling_stays_in_data() {
        let data = [1.5, 2.5, 3.5];
        let e = Empirical::new(&data).unwrap();
        let mut rng = Xoshiro256pp::new(77);
        let mut seen = [false; 3];
        for _ in 0..1000 {
            let x = e.sample(&mut rng);
            let idx = data.iter().position(|&d| d == x).expect("foreign sample");
            seen[idx] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all values should appear: {seen:?}"
        );
    }
}
