//! Continuous Uniform law on `[a, b]` — the first checkpoint-duration
//! model of the paper (§3.2.1), where `X_opt = min((R + a)/2, b)` in
//! closed form.

use crate::traits::{uniform01, Continuous, Distribution, Sample};
use crate::{require_finite, DistError};
use rand::RngCore;

/// Uniform distribution on `[a, b]`, `a < b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    a: f64,
    b: f64,
}

impl Uniform {
    /// Creates `Uniform([a, b])`; requires finite `a < b`.
    pub fn new(a: f64, b: f64) -> Result<Self, DistError> {
        require_finite("a", a)?;
        require_finite("b", b)?;
        if a >= b {
            return Err(DistError::EmptyInterval { lo: a, hi: b });
        }
        Ok(Self { a, b })
    }

    /// Lower bound `a`.
    pub fn lower(&self) -> f64 {
        self.a
    }

    /// Upper bound `b`.
    pub fn upper(&self) -> f64 {
        self.b
    }
}

impl Distribution for Uniform {
    fn mean(&self) -> f64 {
        0.5 * (self.a + self.b)
    }
    fn variance(&self) -> f64 {
        let w = self.b - self.a;
        w * w / 12.0
    }
}

impl Continuous for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.a || x > self.b {
            0.0
        } else {
            1.0 / (self.b - self.a)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.a {
            0.0
        } else if x >= self.b {
            1.0
        } else {
            (x - self.a) / (self.b - self.a)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        self.a + p * (self.b - self.a)
    }

    fn support(&self) -> (f64, f64) {
        (self.a, self.b)
    }

    /// `(x² − a²)/(2(b − a))` on `[a, b]`.
    fn partial_mean(&self, x: f64) -> Option<f64> {
        Some(if x <= self.a {
            0.0
        } else if x >= self.b {
            self.mean()
        } else {
            (x - self.a) * (x + self.a) / (2.0 * (self.b - self.a))
        })
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.a + uniform01(rng) * (self.b - self.a)
    }

    /// Block-buffered uniforms, then the scalar affine map — bit-identical
    /// to repeated [`Sample::sample`] calls (draw-order preserving).
    #[inline]
    fn sample_batch_mono<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        crate::traits::fill_uniform01(rng, out);
        for slot in out.iter_mut() {
            *slot = self.a + *slot * (self.b - self.a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(Uniform::new(1.0, 7.5).is_ok());
        assert!(matches!(
            Uniform::new(7.5, 1.0),
            Err(DistError::EmptyInterval { .. })
        ));
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(f64::NAN, 1.0).is_err());
        assert!(Uniform::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn moments() {
        let u = Uniform::new(1.0, 7.5).unwrap();
        assert!((u.mean() - 4.25).abs() < 1e-15);
        assert!((u.variance() - 6.5 * 6.5 / 12.0).abs() < 1e-15);
        assert!((u.std_dev() - (6.5f64 * 6.5 / 12.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn cdf_pdf_quantile_consistency() {
        let u = Uniform::new(2.0, 5.0).unwrap();
        assert_eq!(u.cdf(1.0), 0.0);
        assert_eq!(u.cdf(6.0), 1.0);
        assert!((u.cdf(3.5) - 0.5).abs() < 1e-15);
        assert_eq!(u.pdf(1.9), 0.0);
        assert!((u.pdf(3.0) - 1.0 / 3.0).abs() < 1e-15);
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let x = u.quantile(p);
            assert!((u.cdf(x) - p).abs() < 1e-12, "p={p}");
        }
        assert!(u.quantile(-0.1).is_nan());
        assert!(u.quantile(1.1).is_nan());
    }

    #[test]
    fn sampling_stays_in_support_with_correct_moments() {
        let u = Uniform::new(1.0, 7.5).unwrap();
        let mut rng = Xoshiro256pp::new(11);
        let n = 200_000;
        let xs = u.sample_vec(&mut rng, n);
        assert!(xs.iter().all(|&x| (1.0..7.5).contains(&x)));
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - u.mean()).abs() < 0.02, "mean {mean}");
        assert!((var - u.variance()).abs() < 0.05, "var {var}");
    }
}
