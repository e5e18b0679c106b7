//! Gamma law `Gamma(k, θ)` (shape/scale) — the task-duration model of
//! §4.2.2/§4.3.2. Closed under IID summation (`S_n ~ Gamma(nk, θ)`),
//! which is exactly why the paper's static strategy can use it.

use crate::normal::standard_normal;
use crate::traits::{uniform01, uniform01_open_left, Continuous, Distribution, Sample};
use crate::{require_positive, DistError};
use rand::RngCore;
use resq_specfun::{gamma_p, gamma_q, inv_gamma_p, ln_gamma};

/// Gamma distribution with shape `k > 0` and scale `θ > 0`;
/// pdf `x^{k−1} e^{−x/θ} / (Γ(k) θ^k)` on `[0, ∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates `Gamma(shape k, scale θ)`.
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

    /// Scale `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The law of `S_n = Σ_{i=1}^n X_i` for IID `X_i` with this law:
    /// `Gamma(n·k, θ)`. Panics if `n == 0`.
    pub fn sum_of_iid(&self, n: u64) -> Gamma {
        assert!(n > 0, "sum of zero variables is degenerate");
        Gamma {
            shape: self.shape * n as f64,
            scale: self.scale,
        }
    }
}

impl Distribution for Gamma {
    fn mean(&self) -> f64 {
        self.shape * self.scale
    }
    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
}

impl Continuous for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            // Limit at 0: finite only for k ≥ 1.
            return match self.shape.partial_cmp(&1.0).unwrap() {
                std::cmp::Ordering::Less => f64::INFINITY,
                std::cmp::Ordering::Equal => 1.0 / self.scale,
                std::cmp::Ordering::Greater => 0.0,
            };
        }
        self.ln_pdf(x).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, x / self.scale)
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            gamma_q(self.shape, x / self.scale)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        self.scale * inv_gamma_p(self.shape, p)
    }

    fn support(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 || (x == 0.0 && self.shape > 1.0) {
            return f64::NEG_INFINITY;
        }
        (self.shape - 1.0) * x.ln()
            - x / self.scale
            - ln_gamma(self.shape)
            - self.shape * self.scale.ln()
    }

    /// `kθ·P(k + 1, x/θ)` for `x > 0`.
    fn partial_mean(&self, x: f64) -> Option<f64> {
        if x <= 0.0 {
            return Some(0.0);
        }
        Some(self.mean() * gamma_p(self.shape + 1.0, x / self.scale))
    }
}

impl Sample for Gamma {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.scale * standard_gamma(self.shape, rng)
    }
}

/// Marsaglia–Tsang (2000) squeeze sampler for `Gamma(k, 1)`.
fn standard_gamma(shape: f64, rng: &mut dyn RngCore) -> f64 {
    if shape < 1.0 {
        // Boost: X_k = X_{k+1} · U^{1/k}.
        let x = standard_gamma(shape + 1.0, rng);
        let u = uniform01_open_left(rng);
        return x * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let (x, v) = loop {
            let x = standard_normal(rng);
            let t = 1.0 + c * x;
            if t > 0.0 {
                break (x, t * t * t);
            }
        };
        let u = uniform01(rng);
        if u < 1.0 - 0.0331 * x * x * x * x {
            return d * v;
        }
        if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(Gamma::new(1.0, 0.5).is_ok());
        assert!(Gamma::new(0.0, 0.5).is_err());
        assert!(Gamma::new(1.0, -1.0).is_err());
        assert!(Gamma::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn moments() {
        let g = Gamma::new(3.0, 0.5).unwrap();
        assert!((g.mean() - 1.5).abs() < 1e-15);
        assert!((g.variance() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn shape_one_is_exponential() {
        // Gamma(1, θ) = Exp(1/θ).
        let g = Gamma::new(1.0, 0.5).unwrap();
        let e = crate::Exponential::new(2.0).unwrap();
        for &x in &[0.1, 0.5, 1.0, 3.0] {
            assert!((g.cdf(x) - e.cdf(x)).abs() < 1e-13, "x={x}");
            assert!((g.pdf(x) - e.pdf(x)).abs() < 1e-13, "x={x}");
        }
        assert!((g.pdf(0.0) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn pdf_limit_at_zero() {
        assert_eq!(Gamma::new(0.5, 1.0).unwrap().pdf(0.0), f64::INFINITY);
        assert_eq!(Gamma::new(2.0, 1.0).unwrap().pdf(0.0), 0.0);
    }

    #[test]
    fn sum_of_iid_scales_shape() {
        let g = Gamma::new(1.0, 0.5).unwrap();
        let s12 = g.sum_of_iid(12);
        assert_eq!(s12.shape(), 12.0);
        assert_eq!(s12.scale(), 0.5);
        assert!((s12.mean() - 6.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn sum_of_zero_panics() {
        let _ = Gamma::new(1.0, 1.0).unwrap().sum_of_iid(0);
    }

    #[test]
    fn quantile_round_trip() {
        let g = Gamma::new(2.5, 1.3).unwrap();
        for i in 1..50 {
            let p = i as f64 / 50.0;
            assert!((g.cdf(g.quantile(p)) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let g = Gamma::new(2.0, 0.7).unwrap();
        let r = resq_numerics::adaptive_simpson(|x| g.pdf(x), 0.0, 4.0, 1e-12);
        assert!((r.value - g.cdf(4.0)).abs() < 1e-9);
    }

    #[test]
    fn sampling_moments_shape_above_one() {
        let g = Gamma::new(3.0, 0.5).unwrap();
        let mut rng = Xoshiro256pp::new(5);
        let n = 300_000;
        let xs = g.sample_vec(&mut rng, n);
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 1.5).abs() < 0.01, "mean {mean}");
        assert!((var - 0.75).abs() < 0.02, "var {var}");
    }

    #[test]
    fn sampling_moments_shape_below_one() {
        let g = Gamma::new(0.5, 2.0).unwrap();
        let mut rng = Xoshiro256pp::new(6);
        let n = 300_000;
        let xs = g.sample_vec(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn sample_distribution_matches_cdf() {
        // Empirical CDF at a few probe points vs analytic CDF.
        let g = Gamma::new(1.0, 0.5).unwrap(); // paper Fig 6/9 parameters
        let mut rng = Xoshiro256pp::new(7);
        let n = 100_000;
        let xs = g.sample_vec(&mut rng, n);
        for &probe in &[0.1, 0.25, 0.5, 1.0, 2.0] {
            let emp = xs.iter().filter(|&&x| x <= probe).count() as f64 / n as f64;
            let ana = g.cdf(probe);
            assert!(
                (emp - ana).abs() < 0.01,
                "probe {probe}: emp {emp} vs {ana}"
            );
        }
    }
}
