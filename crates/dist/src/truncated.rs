//! Generic truncation adaptor — the paper's §3.1 construction.
//!
//! Given a parent law `Z` with CDF `F` and an interval `[lo, hi]`, the
//! truncated law has
//! `P(C ≤ x) = (F(x) − F(lo)) / (F(hi) − F(lo))` on `[lo, hi]` and pdf
//! `f(x) / (F(hi) − F(lo))`. The paper uses `Uniform`, `Exponential`,
//! `Normal` and `LogNormal` parents in §3, and `N_{[0,∞)}(μ_C, σ_C²)`
//! (a half-line truncation) throughout §4.

use crate::traits::{uniform01, Continuous, Distribution, Sample};
use crate::DistError;
use rand::RngCore;

/// Minimal probability mass the truncation interval must carry under the
/// parent law; below this the conditional law is numerically meaningless.
const MIN_MASS: f64 = 1e-300;

/// A continuous law truncated (conditioned) to `[lo, hi]`.
///
/// ```
/// use resq_dist::{Continuous, Normal, Truncated};
///
/// // The paper's checkpoint law N_{[0,∞)}(5, 0.4²):
/// let c = Truncated::above(Normal::new(5.0, 0.4)?, 0.0)?;
/// assert!((c.cdf(5.0) - 0.5).abs() < 1e-9);
///
/// // §3's two-sided truncation to [a, b]:
/// let c = Truncated::new(Normal::new(3.5, 1.0)?, 1.0, 7.5)?;
/// assert_eq!(c.cdf(1.0), 0.0);
/// assert_eq!(c.cdf(7.5), 1.0);
/// # Ok::<(), resq_dist::DistError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truncated<D: Continuous> {
    parent: D,
    lo: f64,
    hi: f64,
    /// `F(lo)` under the parent.
    f_lo: f64,
    /// `F(hi)` under the parent.
    f_hi: f64,
    /// `S(lo) = 1 − F(lo)` under the parent (tail-accurate).
    s_lo: f64,
    /// `S(hi) = 1 − F(hi)` under the parent (tail-accurate).
    s_hi: f64,
    /// `F(hi) − F(lo)`, the normalizing mass (computed from whichever of
    /// CDF/SF differences keeps relative accuracy).
    mass: f64,
}

impl<D: Continuous> Truncated<D> {
    /// Truncates `parent` to `[lo, hi]`.
    ///
    /// `lo < hi` is required; `±inf` bounds express one-sided truncation.
    /// Fails with [`DistError::ZeroMassTruncation`] if the interval has
    /// (numerically) no probability under the parent.
    pub fn new(parent: D, lo: f64, hi: f64) -> Result<Self, DistError> {
        if !(lo < hi) {
            return Err(DistError::EmptyInterval { lo, hi });
        }
        let (f_lo, s_lo) = if lo == f64::NEG_INFINITY {
            (0.0, 1.0)
        } else {
            (parent.cdf(lo), parent.sf(lo))
        };
        let (f_hi, s_hi) = if hi == f64::INFINITY {
            (1.0, 0.0)
        } else {
            (parent.cdf(hi), parent.sf(hi))
        };
        // When the interval sits in the parent's right tail, F(hi) − F(lo)
        // cancels catastrophically; the survival difference does not.
        let mass = if f_lo > 0.5 { s_lo - s_hi } else { f_hi - f_lo };
        if !(mass > MIN_MASS) {
            return Err(DistError::ZeroMassTruncation { mass });
        }
        Ok(Self {
            parent,
            lo,
            hi,
            f_lo,
            f_hi,
            s_lo,
            s_hi,
            mass,
        })
    }

    /// Truncates to `[lo, ∞)` — the paper's `N_{[0,∞)}` checkpoint law.
    pub fn above(parent: D, lo: f64) -> Result<Self, DistError> {
        Self::new(parent, lo, f64::INFINITY)
    }

    /// Truncates to `(−∞, hi]`.
    pub fn below(parent: D, hi: f64) -> Result<Self, DistError> {
        Self::new(parent, f64::NEG_INFINITY, hi)
    }

    /// The parent law.
    pub fn parent(&self) -> &D {
        &self.parent
    }

    /// Lower truncation bound.
    pub fn lower(&self) -> f64 {
        self.lo
    }

    /// Upper truncation bound.
    pub fn upper(&self) -> f64 {
        self.hi
    }

    /// Probability mass `F(hi) − F(lo)` of the interval under the parent.
    pub fn parent_mass(&self) -> f64 {
        self.mass
    }

    /// Effective support: truncation interval intersected with the parent
    /// support.
    fn effective_support(&self) -> (f64, f64) {
        let (plo, phi) = self.parent.support();
        (self.lo.max(plo), self.hi.min(phi))
    }
}

impl<D: Continuous> Distribution for Truncated<D> {
    /// Mean as the partial mean up to `hi` ([`Continuous::partial_mean`])
    /// where the parent has one in closed form; otherwise by adaptive
    /// quadrature of `x·pdf(x)` over the effective support. The tests
    /// hold the first path to [`crate::normal::truncated_normal_mean`]
    /// and to the quadrature, and the second to a Weibull parent's
    /// incomplete-gamma form.
    fn mean(&self) -> f64 {
        if let Some(mean) = self.partial_mean(self.hi) {
            return mean;
        }
        let (a, b) = self.effective_support();
        if b.is_infinite() {
            resq_numerics::integrate_to_inf(|x| x * self.pdf(x), a, 1e-11).value
        } else {
            resq_numerics::adaptive_gauss_kronrod(|x| x * self.pdf(x), a, b, 1e-11, &[]).value
        }
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        let (a, b) = self.effective_support();
        let integrand = |x: f64| (x - m) * (x - m) * self.pdf(x);
        if b.is_infinite() {
            resq_numerics::integrate_to_inf(integrand, a, 1e-11).value
        } else {
            resq_numerics::adaptive_gauss_kronrod(integrand, a, b, 1e-11, &[]).value
        }
    }
}

impl<D: Continuous> Continuous for Truncated<D> {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            self.parent.pdf(x) / self.mass
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else if self.f_lo > 0.5 {
            // Right-tail interval: survival differences stay accurate.
            ((self.s_lo - self.parent.sf(x)) / self.mass).clamp(0.0, 1.0)
        } else {
            ((self.parent.cdf(x) - self.f_lo) / self.mass).clamp(0.0, 1.0)
        }
    }

    /// The parent's [`Continuous::cdf_into`] on the branch where
    /// [`Truncated::cdf`] takes CDF differences; the per-point loop on
    /// the survival branch.
    fn cdf_into(&self, xs: &[f64], out: &mut [f64]) {
        if self.f_lo > 0.5 {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = self.cdf(x);
            }
            return;
        }
        self.parent.cdf_into(xs, out);
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = if x <= self.lo {
                0.0
            } else if x >= self.hi {
                1.0
            } else {
                ((*o - self.f_lo) / self.mass).clamp(0.0, 1.0)
            };
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= self.lo {
            1.0
        } else if x >= self.hi {
            0.0
        } else if self.f_lo > 0.5 {
            ((self.parent.sf(x) - self.s_hi) / self.mass).clamp(0.0, 1.0)
        } else {
            1.0 - self.cdf(x)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        let (a, b) = self.effective_support();
        if p == 0.0 {
            return a;
        }
        if p == 1.0 {
            return b;
        }
        let guess = self.parent.quantile(self.f_lo + p * self.mass).clamp(a, b);
        // Deep-tail truncations lose digits in the parent-quantile route;
        // polish against the tail-accurate truncated cdf when needed.
        let resid = self.cdf(guess) - p;
        if resid.abs() <= 1e-12 || !a.is_finite() || !b.is_finite() {
            return guess;
        }
        let refined = resq_numerics::brent_root(|x| self.cdf(x) - p, a, b, 0.0);
        match refined {
            Ok(x) if (self.cdf(x) - p).abs() < resid.abs() => x,
            _ => guess,
        }
    }

    fn support(&self) -> (f64, f64) {
        self.effective_support()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            f64::NEG_INFINITY
        } else {
            self.parent.ln_pdf(x) - self.mass.ln()
        }
    }

    /// The parent's `∫ t·f(t) dt` over `[lo, min(x, hi)]`, over the mass:
    /// a difference of upper partial means on the branch where
    /// [`Truncated::cdf`] takes survival differences.
    fn partial_mean(&self, x: f64) -> Option<f64> {
        if x <= self.lo {
            return Some(0.0);
        }
        let x = x.min(self.hi);
        let part = if self.f_lo > 0.5 {
            self.parent.upper_partial_mean(self.lo)? - self.parent.upper_partial_mean(x)?
        } else {
            self.parent.partial_mean(x)? - self.parent.partial_mean(self.lo)?
        };
        Some(part / self.mass)
    }
}

/// Parent mass at or above which both sampling paths draw by rejection
/// from the parent instead of inversion: the expected waste is at most
/// `1/REJECTION_MIN_MASS − 1 ≈ 11%` of the parent draws, far cheaper
/// than one parent-quantile evaluation per variate, and `k` rejects in a
/// row have probability at most `0.1^k`, so the loop needs no cap. The
/// paper's `N_{[0,∞)}` laws sit at mass ≈ 1 − 1e-9, where rejection is
/// essentially free.
const REJECTION_MIN_MASS: f64 = 0.9;

impl<D: Continuous> Truncated<D> {
    /// Whether a parent draw lies in `[lo, hi]` (false for NaN).
    #[inline]
    fn accepts(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// Inversion through the parent quantile of a `[0, 1)` uniform.
    #[inline]
    fn invert(&self, u: f64) -> f64 {
        let (a, b) = self.effective_support();
        self.parent.quantile(self.f_lo + u * self.mass).clamp(a, b)
    }
}

impl<D: Continuous + Sample> Sample for Truncated<D> {
    /// Mass-dependent strategy, shared with the batch kernel:
    ///
    /// * mass ≥ `REJECTION_MIN_MASS` (0.9) — rejection: redraw from the
    ///   parent until the draw lies in `[lo, hi]`;
    /// * below it — inversion through the parent quantile, O(1)
    ///   regardless of how unlikely the truncation interval is under the
    ///   parent (rejection would stall on deep truncations).
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        if self.mass >= REJECTION_MIN_MASS {
            loop {
                let x = self.parent.sample(rng);
                if self.accepts(x) {
                    return x;
                }
            }
        }
        self.invert(uniform01(rng))
    }

    /// The scalar strategies, a block at a time and draw-order preserving:
    ///
    /// * mass ≥ `REJECTION_MIN_MASS` — fill the missing tail of `out`
    ///   with the parent's own batch kernel, keep the in-interval draws
    ///   in stream order, and repeat until `out` is full. The scalar loop
    ///   reads the same sequence of parent draws and keeps the same ones;
    /// * below it — block-buffered uniforms through the same inversion
    ///   as the scalar path.
    ///
    /// For `Truncated<Normal>` the whole chain — ziggurat fill and
    /// compaction — inlines into the caller when the RNG is concrete.
    #[inline]
    fn sample_batch_mono<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        if self.mass >= REJECTION_MIN_MASS {
            let mut kept = 0;
            while kept < out.len() {
                let refill = kept;
                self.parent.sample_batch_mono(rng, &mut out[refill..]);
                // Branch-free compaction: every draw is written to the
                // next free slot, which only an accepted draw claims.
                for j in refill..out.len() {
                    let x = out[j];
                    out[kept] = x;
                    kept += usize::from(self.accepts(x));
                }
            }
        } else {
            crate::traits::fill_uniform01(rng, out);
            for slot in out.iter_mut() {
                *slot = self.invert(*slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use crate::{Exponential, LogNormal, Normal, Uniform};

    #[test]
    fn construction_validates() {
        let n = Normal::new(0.0, 1.0).unwrap();
        assert!(Truncated::new(n, -1.0, 1.0).is_ok());
        assert!(matches!(
            Truncated::new(n, 1.0, 1.0),
            Err(DistError::EmptyInterval { .. })
        ));
        assert!(matches!(
            Truncated::new(n, 50.0, 60.0),
            Err(DistError::ZeroMassTruncation { .. })
        ));
    }

    #[test]
    fn truncated_uniform_is_smaller_uniform() {
        // Uniform([0,10]) truncated to [2,4] == Uniform([2,4]).
        let t = Truncated::new(Uniform::new(0.0, 10.0).unwrap(), 2.0, 4.0).unwrap();
        let u = Uniform::new(2.0, 4.0).unwrap();
        for &x in &[1.0, 2.0, 2.5, 3.7, 4.0, 5.0] {
            assert!((t.cdf(x) - u.cdf(x)).abs() < 1e-14, "x={x}");
            assert!((t.pdf(x) - u.pdf(x)).abs() < 1e-14, "x={x}");
        }
        assert!((t.mean() - 3.0).abs() < 1e-9);
        assert!((t.variance() - u.variance()).abs() < 1e-9);
    }

    #[test]
    fn paper_section31_cdf_formula() {
        // Exponential(λ=1/2) truncated to [1, 5] (Fig 2a parameters):
        // F_C(x) = (e^{−λa} − e^{−λx}) / (e^{−λa} − e^{−λb}).
        let lambda = 0.5;
        let (a, b) = (1.0, 5.0);
        let t = Truncated::new(Exponential::new(lambda).unwrap(), a, b).unwrap();
        for &x in &[1.0, 1.5, 2.5, 3.9, 5.0] {
            let want = ((-lambda * a).exp() - (-lambda * x).exp())
                / ((-lambda * a).exp() - (-lambda * b).exp());
            assert!((t.cdf(x) - want).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn pdf_normalizes_to_one() {
        let t = Truncated::new(Normal::new(3.5, 1.0).unwrap(), 1.0, 7.5).unwrap();
        let r = resq_numerics::adaptive_simpson(|x| t.pdf(x), 1.0, 7.5, 1e-12);
        assert!((r.value - 1.0).abs() < 1e-9, "mass {}", r.value);
    }

    #[test]
    fn half_line_truncated_normal_matches_closed_form_moments() {
        // The paper's D_C = N_{[0,∞)}(5, 0.4²).
        let t = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        let want_mean = crate::normal::truncated_normal_mean(5.0, 0.4, 0.0, f64::INFINITY);
        let want_var = crate::normal::truncated_normal_variance(5.0, 0.4, 0.0, f64::INFINITY);
        assert!((t.mean() - want_mean).abs() < 1e-7, "mean {}", t.mean());
        assert!(
            (t.variance() - want_var).abs() < 1e-7,
            "var {}",
            t.variance()
        );
        // At 12.5σ from 0, truncation is invisible: mean ≈ 5, var ≈ 0.16.
        assert!((t.mean() - 5.0).abs() < 1e-7);
        assert!((t.variance() - 0.16).abs() < 1e-7);
    }

    #[test]
    fn strongly_truncated_normal_moments() {
        // N(0,1) truncated to [0, ∞): mean √(2/π).
        let t = Truncated::above(Normal::new(0.0, 1.0).unwrap(), 0.0).unwrap();
        let want = (2.0 / std::f64::consts::PI).sqrt();
        assert!((t.mean() - want).abs() < 1e-8, "mean {}", t.mean());
        assert!(
            (t.variance() - (1.0 - 2.0 / std::f64::consts::PI)).abs() < 1e-7,
            "var {}",
            t.variance()
        );
    }

    #[test]
    fn mean_without_a_partial_mean_integrates() {
        // Weibull has no closed-form partial mean, so the mean takes the
        // quadrature path. Reference: ∫_0^x t·f(t) dt = λ·Γ(1 + 1/k)·
        // P(1 + 1/k, (x/λ)^k) for Weibull(k, λ).
        use crate::Weibull;
        use resq_specfun::{gamma, gamma_p};
        let (k, lambda) = (1.7, 2.0);
        let parent = Weibull::new(k, lambda).unwrap();
        assert_eq!(parent.partial_mean(1.0), None);
        let upto = |x: f64| {
            if x == f64::INFINITY {
                parent.mean()
            } else {
                lambda * gamma(1.0 + 1.0 / k) * gamma_p(1.0 + 1.0 / k, (x / lambda).powf(k))
            }
        };
        for (lo, hi) in [(0.5, 3.0), (1.0, f64::INFINITY), (2.5, 4.0)] {
            let t = Truncated::new(parent, lo, hi).unwrap();
            let want = (upto(hi) - upto(lo)) / (parent.cdf(hi) - parent.cdf(lo));
            assert!(
                (t.mean() - want).abs() < 1e-9,
                "[{lo}, {hi}]: {} vs {want}",
                t.mean()
            );
        }
    }

    #[test]
    fn closed_form_mean_matches_quadrature() {
        // Parents with a partial mean take it; the quadrature the other
        // parents use agrees with it.
        let quadrature = |t: &Truncated<Normal>| {
            let (a, b) = t.effective_support();
            if b.is_infinite() {
                resq_numerics::integrate_to_inf(|x| x * t.pdf(x), a, 1e-11).value
            } else {
                resq_numerics::adaptive_simpson(|x| x * t.pdf(x), a, b, 1e-11).value
            }
        };
        for t in [
            Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap(),
            Truncated::above(Normal::new(0.1, 0.02).unwrap(), 0.0).unwrap(),
            Truncated::new(Normal::new(3.5, 1.0).unwrap(), 1.0, 7.5).unwrap(),
            Truncated::new(Normal::new(0.0, 1.0).unwrap(), 4.0, 5.0).unwrap(),
        ] {
            assert_eq!(Some(t.mean()), t.partial_mean(t.upper()));
            let q = quadrature(&t);
            assert!(
                (t.mean() - q).abs() < 1e-9 * (1.0 + q.abs()),
                "{} vs {q}",
                t.mean()
            );
        }
    }

    #[test]
    fn quantile_round_trip() {
        let t = Truncated::new(LogNormal::new(1.0, 0.35).unwrap(), 1.0, 6.0).unwrap();
        for i in 1..50 {
            let p = i as f64 / 50.0;
            let x = t.quantile(p);
            assert!((1.0..=6.0).contains(&x));
            assert!((t.cdf(x) - p).abs() < 1e-10, "p={p}");
        }
        assert_eq!(t.quantile(0.0), 1.0);
        assert_eq!(t.quantile(1.0), 6.0);
    }

    #[test]
    fn deep_tail_truncation_sampling_works() {
        // [4σ, 5σ] tail slice — rejection would need ~30k parent draws per
        // sample; inversion is exact.
        let t = Truncated::new(Normal::new(0.0, 1.0).unwrap(), 4.0, 5.0).unwrap();
        let mut rng = Xoshiro256pp::new(13);
        for _ in 0..1000 {
            let x = t.sample(&mut rng);
            assert!((4.0..=5.0).contains(&x), "sample {x} outside");
        }
    }

    #[test]
    fn sampling_matches_cdf() {
        let t = Truncated::new(Normal::new(3.5, 1.0).unwrap(), 1.0, 7.5).unwrap();
        let mut rng = Xoshiro256pp::new(29);
        let n = 100_000;
        let xs = t.sample_vec(&mut rng, n);
        for &probe in &[2.0, 3.0, 3.5, 4.5, 6.0] {
            let emp = xs.iter().filter(|&&x| x <= probe).count() as f64 / n as f64;
            assert!(
                (emp - t.cdf(probe)).abs() < 0.01,
                "probe {probe}: {emp} vs {}",
                t.cdf(probe)
            );
        }
    }

    #[test]
    fn high_mass_rejection_matches_cdf() {
        // N(0,1) on [−2, 2]: mass ≈ 0.9545, so ≈ 4.5% of parent draws are
        // rejects and most batches need a refill round. Sizes cross the
        // uniform-block boundary (64) and leave partial tails.
        let t = Truncated::new(Normal::new(0.0, 1.0).unwrap(), -2.0, 2.0).unwrap();
        assert!(t.parent_mass() >= REJECTION_MIN_MASS);
        let mut rng = Xoshiro256pp::new(41);
        for &n in &[1usize, 63, 64, 65, 130] {
            let mut out = vec![0.0f64; n];
            t.sample_batch_mono(&mut rng, &mut out);
            assert!(out.iter().all(|&x| (-2.0..=2.0).contains(&x)), "n={n}");
        }
        let n = 100_000;
        let mut xs = vec![0.0f64; n];
        t.sample_batch_mono(&mut rng, &mut xs);
        for &probe in &[-1.5, -0.5, 0.0, 0.7, 1.8] {
            let emp = xs.iter().filter(|&&x| x <= probe).count() as f64 / n as f64;
            assert!(
                (emp - t.cdf(probe)).abs() < 0.01,
                "probe {probe}: {emp} vs {}",
                t.cdf(probe)
            );
        }
    }

    #[test]
    fn support_intersects_parent_support() {
        // Exponential truncated to [-5, 2]: support starts at 0.
        let t = Truncated::new(Exponential::new(1.0).unwrap(), -5.0, 2.0).unwrap();
        assert_eq!(t.support(), (0.0, 2.0));
        // cdf at lo-edge of parent support.
        assert_eq!(t.cdf(-1.0), 0.0);
    }

    #[test]
    fn ln_pdf_matches_pdf() {
        let t = Truncated::new(Normal::new(2.0, 0.5).unwrap(), 1.0, 3.0).unwrap();
        for &x in &[1.2, 2.0, 2.9] {
            assert!((t.ln_pdf(x) - t.pdf(x).ln()).abs() < 1e-11);
        }
        assert_eq!(t.ln_pdf(0.0), f64::NEG_INFINITY);
    }
}
