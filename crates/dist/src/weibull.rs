//! Weibull law — not used directly in the paper's figures, but a standard
//! model for checkpoint/IO durations in HPC traces; included so the
//! trace-learning pipeline ([`crate::fit`]) can select it when it fits
//! measured checkpoint times better than the paper's four laws.

use crate::traits::{uniform01_open_left, Continuous, Distribution, Sample};
use crate::{require_positive, DistError};
use rand::RngCore;
use resq_specfun::ln_gamma;

/// Weibull distribution with shape `k > 0` and scale `λ > 0`;
/// CDF `1 − exp(−(x/λ)^k)` on `[0, ∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates `Weibull(shape k, scale λ)`.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistError> {
        Ok(Self {
            shape: require_positive("shape", shape)?,
            scale: require_positive("scale", scale)?,
        })
    }

    /// Shape `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Distribution for Weibull {
    fn mean(&self) -> f64 {
        self.scale * ln_gamma(1.0 + 1.0 / self.shape).exp()
    }
    fn variance(&self) -> f64 {
        let g1 = ln_gamma(1.0 + 1.0 / self.shape).exp();
        let g2 = ln_gamma(1.0 + 2.0 / self.shape).exp();
        self.scale * self.scale * (g2 - g1 * g1)
    }
}

impl Continuous for Weibull {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            return match self.shape.partial_cmp(&1.0).unwrap() {
                std::cmp::Ordering::Less => f64::INFINITY,
                std::cmp::Ordering::Equal => 1.0 / self.scale,
                std::cmp::Ordering::Greater => 0.0,
            };
        }
        let t = x / self.scale;
        (self.shape / self.scale) * t.powf(self.shape - 1.0) * (-t.powf(self.shape)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-(x / self.scale).powf(self.shape)).exp_m1()
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        self.scale * (-(-p).ln_1p()).powf(1.0 / self.shape)
    }

    fn support(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let t = x / self.scale;
        self.shape.ln() - self.scale.ln() + (self.shape - 1.0) * t.ln() - t.powf(self.shape)
    }
}

impl Sample for Weibull {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Inversion: λ (−ln U)^{1/k}.
        self.scale * (-uniform01_open_left(rng).ln()).powf(1.0 / self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(Weibull::new(1.5, 2.0).is_ok());
        assert!(Weibull::new(0.0, 2.0).is_err());
        assert!(Weibull::new(1.0, f64::NAN).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        let w = Weibull::new(1.0, 2.0).unwrap();
        let e = crate::Exponential::new(0.5).unwrap();
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            assert!((w.cdf(x) - e.cdf(x)).abs() < 1e-13);
            assert!((w.pdf(x) - e.pdf(x)).abs() < 1e-13);
        }
        assert!((w.mean() - 2.0).abs() < 1e-10);
        assert!((w.variance() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rayleigh_special_case() {
        // k = 2 is Rayleigh: mean = λ √π / 2.
        let w = Weibull::new(2.0, 3.0).unwrap();
        let want = 3.0 * std::f64::consts::PI.sqrt() / 2.0;
        assert!((w.mean() - want).abs() < 1e-10);
    }

    #[test]
    fn quantile_round_trip() {
        let w = Weibull::new(1.7, 0.8).unwrap();
        for i in 1..50 {
            let p = i as f64 / 50.0;
            assert!((w.cdf(w.quantile(p)) - p).abs() < 1e-12, "p={p}");
        }
        assert_eq!(w.quantile(0.0), 0.0);
        assert_eq!(w.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let w = Weibull::new(2.5, 1.2).unwrap();
        let r = resq_numerics::adaptive_simpson(|x| w.pdf(x), 0.0, 2.0, 1e-12);
        assert!((r.value - w.cdf(2.0)).abs() < 1e-9);
    }

    #[test]
    fn sampling_moments() {
        let w = Weibull::new(1.5, 2.0).unwrap();
        let mut rng = Xoshiro256pp::new(31);
        let n = 200_000;
        let xs = w.sample_vec(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!(
            (mean - w.mean()).abs() < 0.02,
            "mean {mean} vs {}",
            w.mean()
        );
    }
}
