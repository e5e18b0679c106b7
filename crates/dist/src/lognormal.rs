//! LogNormal law — checkpoint-duration model of §3.2.4. Parameters
//! `(μ, σ)` are those of the underlying Normal; the paper works with the
//! law's own mean `μ* = exp(μ + σ²/2)` and standard deviation `σ*`.

use crate::normal::{norm_cdf_into, standard_normal};
use crate::traits::{Continuous, Distribution, Sample};
use crate::{require_finite, require_positive, DistError};
use rand::RngCore;
use resq_specfun::{norm_cdf, norm_pdf, norm_quantile, norm_sf, LN_SQRT_2PI};

/// LogNormal distribution: `ln X ~ N(μ, σ²)`, support `(0, ∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates `LogNormal(μ, σ)` from the log-space parameters.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        Ok(Self {
            mu: require_finite("mu", mu)?,
            sigma: require_positive("sigma", sigma)?,
        })
    }

    /// Creates the LogNormal whose *own* mean and standard deviation are
    /// `mean` and `sd` (solves the paper's `μ*`/`σ*` relations backwards).
    pub fn from_mean_sd(mean: f64, sd: f64) -> Result<Self, DistError> {
        let mean = require_positive("mean", mean)?;
        let sd = require_positive("sd", sd)?;
        let ratio2 = (sd / mean) * (sd / mean);
        let sigma2 = (1.0 + ratio2).ln();
        Ok(Self {
            mu: mean.ln() - 0.5 * sigma2,
            sigma: sigma2.sqrt(),
        })
    }

    /// Log-space location `μ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-space scale `σ`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Distribution for LogNormal {
    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }
}

impl Continuous for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            norm_pdf((x.ln() - self.mu) / self.sigma) / (x * self.sigma)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            norm_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn cdf_into(&self, xs: &[f64], out: &mut [f64]) {
        // A point at or below 0 runs the lanes at z = 0 and takes 0.
        norm_cdf_into(xs, out, |x| {
            if x <= 0.0 {
                0.0
            } else {
                (x.ln() - self.mu) / self.sigma
            }
        });
        for (o, &x) in out.iter_mut().zip(xs) {
            if x <= 0.0 {
                *o = 0.0;
            }
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            norm_sf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 0.0 {
            return 0.0;
        }
        (self.mu + self.sigma * norm_quantile(p)).exp()
    }

    fn support(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        -0.5 * z * z - LN_SQRT_2PI - self.sigma.ln() - x.ln()
    }

    /// `e^{μ+σ²/2}·Φ((ln x − μ − σ²)/σ)` for `x > 0`.
    fn partial_mean(&self, x: f64) -> Option<f64> {
        if x <= 0.0 {
            return Some(0.0);
        }
        let z = (x.ln() - self.mu - self.sigma * self.sigma) / self.sigma;
        Some(self.mean() * norm_cdf(z))
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// Ziggurat batch kernel, fully inlined for concrete RNGs and
    /// draw-order preserving: bit-identical to `out.len()` scalar
    /// [`Sample::sample`] calls on the same stream — see
    /// [`crate::Normal`]'s batch override.
    #[inline]
    fn sample_batch_mono<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        crate::ziggurat::fill_standard_normal(rng, out);
        for slot in out.iter_mut() {
            *slot = (self.mu + self.sigma * *slot).exp();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(LogNormal::new(1.0, 0.35).is_ok());
        assert!(LogNormal::new(1.0, 0.0).is_err());
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::from_mean_sd(0.0, 1.0).is_err());
    }

    #[test]
    fn paper_moment_relations() {
        // μ* = exp(μ + σ²/2), σ* = sqrt((exp(σ²) − 1) exp(2μ + σ²)).
        let d = LogNormal::new(1.0, 0.35).unwrap();
        let mu_star = (1.0f64 + 0.5 * 0.35 * 0.35).exp();
        let sig_star = (((0.35f64 * 0.35).exp() - 1.0) * (2.0 * 1.0 + 0.35f64 * 0.35).exp()).sqrt();
        assert!((d.mean() - mu_star).abs() < 1e-12);
        assert!((d.std_dev() - sig_star).abs() < 1e-12);
    }

    #[test]
    fn from_mean_sd_round_trip() {
        let d = LogNormal::from_mean_sd(3.0, 1.2).unwrap();
        assert!((d.mean() - 3.0).abs() < 1e-12, "mean {}", d.mean());
        assert!((d.std_dev() - 1.2).abs() < 1e-12, "sd {}", d.std_dev());
    }

    #[test]
    fn cdf_is_normal_of_log() {
        let d = LogNormal::new(0.5, 0.8).unwrap();
        for &x in &[0.1, 0.5, 1.0, 2.0, 10.0] {
            let want = norm_cdf((f64::ln(x) - 0.5) / 0.8);
            assert!((d.cdf(x) - want).abs() < 1e-14);
        }
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
    }

    #[test]
    fn median_is_exp_mu() {
        let d = LogNormal::new(1.3, 0.6).unwrap();
        assert!((d.quantile(0.5) - 1.3f64.exp()).abs() < 1e-10);
    }

    #[test]
    fn quantile_round_trip() {
        let d = LogNormal::new(1.0, 0.35).unwrap();
        for i in 1..50 {
            let p = i as f64 / 50.0;
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-11, "p={p}");
        }
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let d = LogNormal::new(0.0, 0.5).unwrap();
        let r = resq_numerics::adaptive_simpson(|x| d.pdf(x), 1e-12, 3.0, 1e-12);
        assert!((r.value - d.cdf(3.0)).abs() < 1e-8);
    }

    #[test]
    fn sampling_moments() {
        let d = LogNormal::new(1.0, 0.35).unwrap();
        let mut rng = Xoshiro256pp::new(23);
        let n = 300_000;
        let xs = d.sample_vec(&mut rng, n);
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!(
            (mean - d.mean()).abs() < 0.02,
            "mean {mean} vs {}",
            d.mean()
        );
    }

    #[test]
    fn ln_pdf_matches_pdf() {
        let d = LogNormal::new(0.3, 0.9).unwrap();
        for &x in &[0.05, 0.5, 2.0, 20.0] {
            assert!((d.ln_pdf(x) - d.pdf(x).ln()).abs() < 1e-11);
        }
        assert_eq!(d.ln_pdf(0.0), f64::NEG_INFINITY);
    }
}
