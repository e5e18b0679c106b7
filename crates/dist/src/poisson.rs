//! Poisson law — the discrete task-duration model of §4.2.3/§4.3.3
//! (task times in integer time units). Closed under IID summation
//! (`S_n ~ Poisson(nλ)`), which the static strategy exploits.

use crate::traits::{uniform01, Discrete, Distribution, Sample};
use crate::{require_positive, DistError};
use rand::RngCore;
use resq_specfun::{gamma_q, ln_factorial, norm_quantile};

/// Poisson distribution with rate `λ > 0` on the non-negative integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
    /// The sampler's constants, fixed by `λ`.
    sampler: Sampler,
}

/// How [`Poisson::sample_u64`] draws, with every constant that depends
/// on `λ` alone computed once, when the law is built.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sampler {
    /// Knuth's multiplication method (`λ < 10`): stop once the running
    /// product of uniforms falls to `e^{−λ}`.
    Knuth { exp_neg_lambda: f64 },
    /// Hörmann's PTRS (`λ ≥ 10`).
    Ptrs(Ptrs),
}

/// The constants of Hörmann's PTRS transformed-rejection sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ptrs {
    lambda: f64,
    ln_lambda: f64,
    a: f64,
    b: f64,
    /// `ln(1/α)`.
    ln_inv_alpha: f64,
    v_r: f64,
}

impl Sampler {
    fn new(lambda: f64) -> Self {
        if lambda < 10.0 {
            return Sampler::Knuth {
                exp_neg_lambda: (-lambda).exp(),
            };
        }
        let b = 0.931 + 2.53 * lambda.sqrt();
        let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
        Sampler::Ptrs(Ptrs {
            lambda,
            ln_lambda: lambda.ln(),
            a: -0.059 + 0.02483 * b,
            b,
            ln_inv_alpha: inv_alpha.ln(),
            v_r: 0.9277 - 3.6224 / (b - 2.0),
        })
    }
}

impl Poisson {
    /// Creates `Poisson(λ)`.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        Ok(Self::with_rate(require_positive("lambda", lambda)?))
    }

    fn with_rate(lambda: f64) -> Self {
        Self {
            lambda,
            sampler: Sampler::new(lambda),
        }
    }

    /// Rate (and mean) `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The law of `S_n = Σ_{i=1}^n X_i` for IID `X_i` with this law:
    /// `Poisson(nλ)`. Panics if `n == 0`.
    pub fn sum_of_iid(&self, n: u64) -> Poisson {
        assert!(n > 0, "sum of zero variables is degenerate");
        Self::with_rate(self.lambda * n as f64)
    }
}

impl Distribution for Poisson {
    fn mean(&self) -> f64 {
        self.lambda
    }
    fn variance(&self) -> f64 {
        self.lambda
    }
}

impl Discrete for Poisson {
    fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    fn ln_pmf(&self, k: u64) -> f64 {
        -self.lambda + k as f64 * self.lambda.ln() - ln_factorial(k)
    }

    fn cdf(&self, k: u64) -> f64 {
        // Poisson–Gamma duality: P(X ≤ k) = Q(k+1, λ).
        gamma_q(k as f64 + 1.0, self.lambda)
    }

    fn quantile(&self, p: f64) -> u64 {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return 0;
        }
        if p == 1.0 {
            return u64::MAX;
        }
        // Normal-approximation starting point, then exact local search.
        let z = norm_quantile(p);
        let guess = (self.lambda + z * self.lambda.sqrt()).max(0.0).floor() as i64;
        let mut k = guess.max(0) as u64;
        // Walk down while cdf(k−1) still ≥ p, up while cdf(k) < p.
        while k > 0 && self.cdf(k - 1) >= p {
            k -= 1;
        }
        let mut guard = 0;
        while self.cdf(k) < p {
            k += 1;
            guard += 1;
            if guard > 10_000_000 {
                break; // unreachable for sane λ; avoids infinite loop on NaN
            }
        }
        k
    }
}

impl Sample for Poisson {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample_u64(rng) as f64
    }
}

impl Poisson {
    /// Draws one Poisson variate as an integer.
    pub fn sample_u64(&self, rng: &mut dyn RngCore) -> u64 {
        match &self.sampler {
            Sampler::Knuth { exp_neg_lambda } => knuth(*exp_neg_lambda, rng),
            Sampler::Ptrs(ptrs) => ptrs.draw(rng),
        }
    }
}

/// Knuth's multiplication method, O(λ); fine for small rates.
fn knuth(exp_neg_lambda: f64, rng: &mut dyn RngCore) -> u64 {
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= uniform01(rng);
        if p <= exp_neg_lambda {
            return k;
        }
        k += 1;
    }
}

impl Ptrs {
    /// One draw of Hörmann's PTRS transformed-rejection sampler, valid
    /// for `λ ≥ 10`.
    fn draw(&self, rng: &mut dyn RngCore) -> u64 {
        let Ptrs {
            lambda,
            ln_lambda,
            a,
            b,
            ln_inv_alpha,
            v_r,
        } = *self;
        loop {
            let u = uniform01(rng) - 0.5;
            let v = uniform01(rng);
            let us = 0.5 - u.abs();
            let kf = (2.0 * a / us + b) * u + lambda + 0.43;
            if kf < 0.0 {
                continue;
            }
            let k = kf.floor();
            if us >= 0.07 && v <= v_r {
                return k as u64;
            }
            if us < 0.013 && v > us {
                continue;
            }
            let lhs = v.ln() + ln_inv_alpha - (a / (us * us) + b).ln();
            let rhs = -lambda + k * ln_lambda - ln_factorial(k as u64);
            if lhs <= rhs {
                return k as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(Poisson::new(3.0).is_ok());
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(-2.0).is_err());
    }

    #[test]
    fn pmf_sums_to_one() {
        let p = Poisson::new(3.0).unwrap();
        let total: f64 = (0..200).map(|k| p.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12, "sum {total}");
    }

    #[test]
    fn pmf_known_values() {
        let p = Poisson::new(3.0).unwrap();
        // P(X=0) = e^{-3}, P(X=3) = e^{-3} 27/6.
        assert!((p.pmf(0) - (-3.0f64).exp()).abs() < 1e-15);
        assert!((p.pmf(3) - (-3.0f64).exp() * 4.5).abs() < 1e-14);
    }

    #[test]
    fn cdf_matches_partial_sums() {
        let p = Poisson::new(5.0).unwrap();
        let mut acc = 0.0;
        for k in 0..30 {
            acc += p.pmf(k);
            assert!((p.cdf(k) - acc).abs() < 1e-11, "k={k}");
        }
    }

    #[test]
    fn quantile_is_generalized_inverse() {
        let p = Poisson::new(7.3).unwrap();
        for i in 1..100 {
            let prob = i as f64 / 100.0;
            let k = p.quantile(prob);
            assert!(p.cdf(k) >= prob, "cdf({k}) < {prob}");
            if k > 0 {
                assert!(p.cdf(k - 1) < prob, "cdf({}) >= {prob}", k - 1);
            }
        }
    }

    #[test]
    fn sum_of_iid_scales_lambda() {
        let p = Poisson::new(3.0).unwrap();
        let s = p.sum_of_iid(6);
        assert_eq!(s.lambda(), 18.0);
    }

    #[test]
    fn knuth_sampler_moments() {
        let p = Poisson::new(3.0).unwrap();
        let mut rng = Xoshiro256pp::new(101);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = p.sample(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 3.0).abs() < 0.06, "var {var}");
    }

    #[test]
    fn ptrs_sampler_moments() {
        let p = Poisson::new(40.0).unwrap();
        let mut rng = Xoshiro256pp::new(102);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = p.sample(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 40.0).abs() < 0.1, "mean {mean}");
        assert!((var - 40.0).abs() < 0.7, "var {var}");
    }

    #[test]
    fn ptrs_matches_pmf_pointwise() {
        // Chi-square-style check: empirical frequencies vs pmf at λ=15.
        let p = Poisson::new(15.0).unwrap();
        let mut rng = Xoshiro256pp::new(103);
        let n = 300_000usize;
        let mut counts = vec![0u64; 60];
        for _ in 0..n {
            let k = p.sample_u64(&mut rng) as usize;
            if k < counts.len() {
                counts[k] += 1;
            }
        }
        for k in 5..30u64 {
            let emp = counts[k as usize] as f64 / n as f64;
            let ana = p.pmf(k);
            // 5σ binomial band.
            let band = 5.0 * (ana * (1.0 - ana) / n as f64).sqrt();
            assert!(
                (emp - ana).abs() < band + 1e-4,
                "k={k}: emp {emp} vs pmf {ana}"
            );
        }
    }

    /// FNV-1a over `n` draws of `law` from a seeded stream.
    fn draw_hash(law: &Poisson, seed: u64, n: usize) -> u64 {
        let mut rng = Xoshiro256pp::new(seed);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..n {
            for b in law.sample_u64(&mut rng).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn seeded_draws_are_pinned() {
        // Both samplers to the bit: Knuth's at λ = 3 and PTRS at
        // λ = 200, for a law built by `new` and by `sum_of_iid`.
        const PINS: [(f64, u64); 2] =
            [(3.0, 0x9a92_f5b3_78ed_598f), (200.0, 0x293b_cec1_423f_936d)];
        for (lambda, want) in PINS {
            let direct = Poisson::new(lambda).unwrap();
            let summed = Poisson::new(lambda / 4.0).unwrap().sum_of_iid(4);
            for law in [direct, summed] {
                let got = draw_hash(&law, 105, 20_000);
                assert_eq!(got, want, "λ = {lambda}: {got:#x}");
            }
        }
    }

    #[test]
    fn sampler_continuity_across_method_switch() {
        // λ just below and above the Knuth/PTRS switch give similar means.
        for &lam in &[9.5f64, 10.5] {
            let p = Poisson::new(lam).unwrap();
            let mut rng = Xoshiro256pp::new(104);
            let n = 100_000;
            let mean: f64 = (0..n).map(|_| p.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!((mean - lam).abs() < 0.05, "λ={lam}: mean {mean}");
        }
    }
}
