//! Normal law `N(μ, σ²)` — checkpoint model of §3.2.3 and, truncated to
//! `[0, ∞)`, the paper's canonical checkpoint-duration law `D_C` for the
//! whole of Section 4. Also provides closed-form truncated moments used
//! to cross-validate the generic quadrature moments of
//! [`crate::truncated::Truncated`].

use crate::traits::{Continuous, Distribution, Sample};
use crate::{require_finite, require_positive, DistError};
use rand::RngCore;
use resq_specfun::{erfc_into, norm_cdf, norm_pdf, norm_quantile, norm_sf, LN_SQRT_2PI, SQRT_2};

/// Normal distribution with mean `μ` and standard deviation `σ > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates `N(μ, σ²)`; requires finite `μ` and finite `σ > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        Ok(Self {
            mu: require_finite("mu", mu)?,
            sigma: require_positive("sigma", sigma)?,
        })
    }

    /// The standard Normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self {
            mu: 0.0,
            sigma: 1.0,
        }
    }

    /// Location `μ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale `σ`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Standardizes `x` to `(x − μ)/σ`.
    #[inline]
    pub fn z(&self, x: f64) -> f64 {
        (x - self.mu) / self.sigma
    }
}

impl Distribution for Normal {
    fn mean(&self) -> f64 {
        self.mu
    }
    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
}

impl Continuous for Normal {
    fn pdf(&self, x: f64) -> f64 {
        norm_pdf(self.z(x)) / self.sigma
    }

    fn cdf(&self, x: f64) -> f64 {
        norm_cdf(self.z(x))
    }

    fn cdf_into(&self, xs: &[f64], out: &mut [f64]) {
        norm_cdf_into(xs, out, |x| self.z(x));
    }

    fn sf(&self, x: f64) -> f64 {
        norm_sf(self.z(x))
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * norm_quantile(p)
    }

    fn support(&self) -> (f64, f64) {
        (f64::NEG_INFINITY, f64::INFINITY)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        let z = self.z(x);
        -0.5 * z * z - LN_SQRT_2PI - self.sigma.ln()
    }

    /// `μΦ(z) − σφ(z)`.
    fn partial_mean(&self, x: f64) -> Option<f64> {
        let z = self.z(x);
        Some(self.mu * norm_cdf(z) - self.sigma * norm_pdf(z))
    }

    /// `μ(1 − Φ(z)) + σφ(z)`.
    fn upper_partial_mean(&self, x: f64) -> Option<f64> {
        let z = self.z(x);
        Some(self.mu * norm_sf(z) + self.sigma * norm_pdf(z))
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.mu + self.sigma * standard_normal(rng)
    }

    /// Ziggurat batch kernel, fully inlined for concrete RNGs. The scalar
    /// path and this override call the same per-draw ziggurat routine in
    /// slot order, so the batch is *draw-order preserving*: bit-identical
    /// to `out.len()` scalar [`Sample::sample`] calls on the same stream
    /// (unlike the retired polar-pair kernel, which consumed the stream
    /// two variates at a time).
    #[inline]
    fn sample_batch_mono<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        crate::ziggurat::fill_standard_normal(rng, out);
        for slot in out.iter_mut() {
            *slot = self.mu + self.sigma * *slot;
        }
    }
}

/// `Φ(z(x))` of every `xs[i]` into `out[i]`, with the bits of
/// [`norm_cdf`] (`0.5·erfc(−z/√2)`): the `erfc`s run on lanes,
/// [`erfc_into`], a bounded chunk at a time.
pub(crate) fn norm_cdf_into(xs: &[f64], out: &mut [f64], z: impl Fn(f64) -> f64) {
    /// Points per `erfc_into` call: the stack buffer's length.
    const CHUNK: usize = 64;
    let mut args = [0.0; CHUNK];
    for (xs, out) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
        let args = &mut args[..xs.len()];
        for (arg, &x) in args.iter_mut().zip(xs) {
            *arg = -z(x) / SQRT_2;
        }
        erfc_into(args, out);
        for o in out.iter_mut() {
            *o *= 0.5;
        }
    }
}

/// One standard-Normal variate by the 256-layer ziggurat method (see
/// [`crate::ziggurat`] for the construction and the exhaustive tail
/// handling). Single shared kernel for the scalar and batch Gaussian
/// paths, the LogNormal sampler, and the Marsaglia–Tsang Gamma squeeze.
#[inline]
pub(crate) fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    crate::ziggurat::standard_normal(rng)
}

/// Mean of `N(μ, σ²)` truncated to `[lo, hi]` (closed form):
/// `μ + σ (φ(α) − φ(β)) / (Φ(β) − Φ(α))` with `α = (lo−μ)/σ`,
/// `β = (hi−μ)/σ`.
pub fn truncated_normal_mean(mu: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
    let alpha = (lo - mu) / sigma;
    let beta = (hi - mu) / sigma;
    let z = norm_cdf(beta) - norm_cdf(alpha);
    let (pa, pb) = (
        if alpha.is_infinite() {
            0.0
        } else {
            norm_pdf(alpha)
        },
        if beta.is_infinite() {
            0.0
        } else {
            norm_pdf(beta)
        },
    );
    mu + sigma * (pa - pb) / z
}

/// Variance of `N(μ, σ²)` truncated to `[lo, hi]` (closed form).
pub fn truncated_normal_variance(mu: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
    let alpha = (lo - mu) / sigma;
    let beta = (hi - mu) / sigma;
    let z = norm_cdf(beta) - norm_cdf(alpha);
    let (pa, pb) = (
        if alpha.is_infinite() {
            0.0
        } else {
            norm_pdf(alpha)
        },
        if beta.is_infinite() {
            0.0
        } else {
            norm_pdf(beta)
        },
    );
    let apa = if alpha.is_infinite() { 0.0 } else { alpha * pa };
    let bpb = if beta.is_infinite() { 0.0 } else { beta * pb };
    let d = (pa - pb) / z;
    sigma * sigma * (1.0 + (apa - bpb) / z - d * d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(Normal::new(3.5, 1.0).is_ok());
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn standard_normal_values() {
        let n = Normal::standard();
        assert!((n.pdf(0.0) - 0.3989422804014327).abs() < 1e-15);
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((n.cdf(1.959963984540054) - 0.975).abs() < 1e-12);
    }

    #[test]
    fn location_scale_relation() {
        let n = Normal::new(5.0, 0.4).unwrap();
        let s = Normal::standard();
        for &x in &[4.0, 4.8, 5.0, 5.3, 6.5] {
            let z = (x - 5.0) / 0.4;
            assert!((n.cdf(x) - s.cdf(z)).abs() < 1e-14);
            assert!((n.pdf(x) - s.pdf(z) / 0.4).abs() < 1e-14);
        }
    }

    #[test]
    fn quantile_round_trip() {
        let n = Normal::new(3.0, 0.5).unwrap();
        for i in 1..100 {
            let p = i as f64 / 100.0;
            assert!((n.cdf(n.quantile(p)) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn ln_pdf_matches_pdf() {
        let n = Normal::new(-1.0, 2.5).unwrap();
        for &x in &[-4.0, -1.0, 0.0, 3.0] {
            assert!((n.ln_pdf(x) - n.pdf(x).ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_moments() {
        let n = Normal::new(3.0, 0.5).unwrap();
        let mut rng = Xoshiro256pp::new(17);
        let m = 200_000;
        let xs = n.sample_vec(&mut rng, m);
        let mean = xs.iter().sum::<f64>() / m as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / m as f64;
        assert!((mean - 3.0).abs() < 0.01, "mean {mean}");
        assert!((var - 0.25).abs() < 0.01, "var {var}");
    }

    #[test]
    fn truncated_moments_halfline() {
        // N(0,1) truncated to [0, ∞): mean = √(2/π), var = 1 − 2/π.
        let m = truncated_normal_mean(0.0, 1.0, 0.0, f64::INFINITY);
        let v = truncated_normal_variance(0.0, 1.0, 0.0, f64::INFINITY);
        let want_m = (2.0 / std::f64::consts::PI).sqrt();
        assert!((m - want_m).abs() < 1e-12, "mean {m}");
        assert!(
            (v - (1.0 - 2.0 / std::f64::consts::PI)).abs() < 1e-12,
            "var {v}"
        );
    }

    #[test]
    fn truncated_moments_barely_truncating() {
        // Truncation at ±40σ changes nothing.
        let m = truncated_normal_mean(5.0, 0.4, 5.0 - 16.0, 5.0 + 16.0);
        let v = truncated_normal_variance(5.0, 0.4, 5.0 - 16.0, 5.0 + 16.0);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((v - 0.16).abs() < 1e-9);
    }

    #[test]
    fn truncated_mean_monotone_in_lower_bound() {
        let mut prev = f64::NEG_INFINITY;
        for i in 0..20 {
            let lo = -2.0 + 0.2 * i as f64;
            let m = truncated_normal_mean(0.0, 1.0, lo, 3.0);
            assert!(m > prev, "lo={lo}");
            prev = m;
        }
    }
}
