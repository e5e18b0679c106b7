//! Exponential law — checkpoint-duration model of §3.2.2, whose truncated
//! version admits the Lambert-W closed-form optimum.

use crate::traits::{uniform01_open_left, Continuous, Distribution, Sample};
use crate::{require_positive, DistError};
use rand::RngCore;

/// Exponential distribution with rate `λ` (mean `1/λ`), support `[0, ∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates `Exp(λ)`; requires `λ > 0` finite.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        Ok(Self {
            lambda: require_positive("lambda", lambda)?,
        })
    }

    /// Creates the exponential with the given mean `μ = 1/λ`.
    pub fn with_mean(mean: f64) -> Result<Self, DistError> {
        Ok(Self {
            lambda: 1.0 / require_positive("mean", mean)?,
        })
    }

    /// Rate parameter `λ`.
    pub fn rate(&self) -> f64 {
        self.lambda
    }
}

impl Distribution for Exponential {
    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
    fn variance(&self) -> f64 {
        1.0 / (self.lambda * self.lambda)
    }
}

impl Continuous for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.lambda * (-self.lambda * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-self.lambda * x).exp_m1()
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-self.lambda * x).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        -(-p).ln_1p() / self.lambda
    }

    fn support(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            f64::NEG_INFINITY
        } else {
            self.lambda.ln() - self.lambda * x
        }
    }

    /// `(1 − e^{−λx}(1 + λx))/λ` for `x > 0`.
    fn partial_mean(&self, x: f64) -> Option<f64> {
        if x <= 0.0 {
            return Some(0.0);
        }
        if x == f64::INFINITY {
            return Some(self.mean());
        }
        let t = self.lambda * x;
        Some((-(-t).exp_m1() - t * (-t).exp()) / self.lambda)
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Inversion on (0, 1] keeps ln away from 0.
        -uniform01_open_left(rng).ln() / self.lambda
    }

    /// Block-buffered uniforms, then the same `(0, 1]` inversion as the
    /// scalar path — bit-identical to repeated [`Sample::sample`] calls
    /// (draw-order preserving).
    #[inline]
    fn sample_batch_mono<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        crate::traits::fill_uniform01(rng, out);
        for slot in out.iter_mut() {
            *slot = -(1.0 - *slot).ln() / self.lambda;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(Exponential::new(0.5).is_ok());
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        let e = Exponential::with_mean(2.0).unwrap();
        assert!((e.rate() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn moments() {
        let e = Exponential::new(0.5).unwrap();
        assert!((e.mean() - 2.0).abs() < 1e-15);
        assert!((e.variance() - 4.0).abs() < 1e-15);
    }

    #[test]
    fn pdf_cdf_known_values() {
        let e = Exponential::new(1.0).unwrap();
        assert!((e.pdf(0.0) - 1.0).abs() < 1e-15);
        assert!((e.cdf(1.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-15);
        assert_eq!(e.pdf(-1.0), 0.0);
        assert_eq!(e.cdf(-1.0), 0.0);
        assert!((e.sf(3.0) - (-3.0f64).exp()).abs() < 1e-16);
    }

    #[test]
    fn quantile_round_trip() {
        let e = Exponential::new(0.7).unwrap();
        for i in 1..100 {
            let p = i as f64 / 100.0;
            assert!((e.cdf(e.quantile(p)) - p).abs() < 1e-12, "p={p}");
        }
        assert_eq!(e.quantile(0.0), 0.0);
        assert_eq!(e.quantile(1.0), f64::INFINITY);
        assert!(e.quantile(2.0).is_nan());
    }

    #[test]
    fn memorylessness_of_sf() {
        let e = Exponential::new(0.3).unwrap();
        // P(X > s + t) = P(X > s) P(X > t).
        let (s, t) = (1.2, 3.4);
        assert!((e.sf(s + t) - e.sf(s) * e.sf(t)).abs() < 1e-15);
    }

    #[test]
    fn sampling_moments() {
        let e = Exponential::new(0.5).unwrap();
        let mut rng = Xoshiro256pp::new(3);
        let n = 200_000;
        let xs = e.sample_vec(&mut rng, n);
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn ln_pdf_matches_pdf() {
        let e = Exponential::new(1.3).unwrap();
        for &x in &[0.1, 1.0, 5.0] {
            assert!((e.ln_pdf(x) - e.pdf(x).ln()).abs() < 1e-12);
        }
        assert_eq!(e.ln_pdf(-0.1), f64::NEG_INFINITY);
    }
}
