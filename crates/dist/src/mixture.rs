//! Finite mixture distributions.
//!
//! Real checkpoint-duration logs are often **bimodal** — burst-buffer hit
//! vs parallel-filesystem fallback, cached vs cold metadata — and no
//! single family fits them (the KS screen in `resq-traces` rightly
//! rejects all of them). A [`Mixture`] models exactly that, and because
//! it implements [`Continuous`]/[`Sample`] it plugs into `Truncated`,
//! `Preemptible` and the simulators like any primitive law. 1-D Gaussian
//! mixtures can be fitted with [`fit_normal_mixture`] (EM).

use crate::traits::{uniform01, Continuous, Distribution, Sample};
use crate::{DistError, Normal};
use rand::RngCore;

/// A finite mixture `Σ w_i · D_i` of continuous laws.
#[derive(Debug, Clone, PartialEq)]
pub struct Mixture<D: Continuous> {
    components: Vec<(f64, D)>,
}

impl<D: Continuous> Mixture<D> {
    /// Builds a mixture from `(weight, component)` pairs. Weights must be
    /// positive and are normalized to sum to 1; at least one component is
    /// required.
    pub fn new(components: Vec<(f64, D)>) -> Result<Self, DistError> {
        if components.is_empty() {
            return Err(DistError::EmptyData);
        }
        let mut total = 0.0;
        for &(w, _) in &components {
            if !(w > 0.0) || !w.is_finite() {
                return Err(DistError::NonPositiveParameter {
                    name: "weight",
                    value: w,
                });
            }
            total += w;
        }
        let components = components
            .into_iter()
            .map(|(w, d)| (w / total, d))
            .collect();
        Ok(Self { components })
    }

    /// The `(weight, component)` pairs (weights normalized).
    pub fn components(&self) -> &[(f64, D)] {
        &self.components
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Always false (construction requires ≥ 1 component).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl<D: Continuous> Distribution for Mixture<D> {
    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum()
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        self.components
            .iter()
            .map(|(w, d)| {
                let mu = d.mean();
                w * (d.variance() + mu * mu)
            })
            .sum::<f64>()
            - m * m
    }
}

impl<D: Continuous> Continuous for Mixture<D> {
    fn pdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.pdf(x)).sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|(w, d)| w * d.cdf(x))
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    fn sf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|(w, d)| w * d.sf(x))
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        let (lo, hi) = self.support();
        if p == 0.0 {
            return lo;
        }
        if p == 1.0 {
            return hi;
        }
        // Bracket with component quantiles, then Brent on the mixture CDF.
        let mut blo = f64::INFINITY;
        let mut bhi = f64::NEG_INFINITY;
        for (_, d) in &self.components {
            blo = blo.min(d.quantile(p));
            bhi = bhi.max(d.quantile(p));
        }
        if blo == bhi {
            return blo;
        }
        resq_numerics::brent_root(|x| self.cdf(x) - p, blo, bhi, 1e-12).unwrap_or(0.5 * (blo + bhi))
    }

    fn support(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (_, d) in &self.components {
            let (a, b) = d.support();
            lo = lo.min(a);
            hi = hi.max(b);
        }
        (lo, hi)
    }

    /// Log-sum-exp of `ln wᵢ + ln fᵢ(x)` over the components, so a point
    /// deep in one component's tail keeps that component's log density
    /// where `ln Σ wᵢ·fᵢ(x)` would underflow to `−∞`.
    fn ln_pdf(&self, x: f64) -> f64 {
        let (top, sum) = self
            .components
            .iter()
            .map(|(w, d)| w.ln() + d.ln_pdf(x))
            .fold((f64::NEG_INFINITY, 0.0), |(top, sum), t| {
                if t == f64::NEG_INFINITY {
                    (top, sum)
                } else if t > top {
                    (t, sum * (top - t).exp() + 1.0)
                } else {
                    (top, sum + (t - top).exp())
                }
            });
        top + sum.ln()
    }

    /// `Σ wᵢ·E[Xᵢ·1{Xᵢ ≤ x}]` when every component has a closed form.
    fn partial_mean(&self, x: f64) -> Option<f64> {
        self.components
            .iter()
            .map(|(w, d)| d.partial_mean(x).map(|m| w * m))
            .sum()
    }

    /// `Σ wᵢ·E[Xᵢ·1{Xᵢ > x}]`, as tail-accurate as the components'.
    fn upper_partial_mean(&self, x: f64) -> Option<f64> {
        self.components
            .iter()
            .map(|(w, d)| d.upper_partial_mean(x).map(|m| w * m))
            .sum()
    }
}

impl<D: Continuous + Sample> Sample for Mixture<D> {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = uniform01(rng);
        let mut acc = 0.0;
        for (w, d) in &self.components {
            acc += w;
            if u < acc {
                return d.sample(rng);
            }
        }
        // Float round-off: fall through to the last component.
        self.components.last().expect("non-empty").1.sample(rng)
    }
}

/// Result of a Gaussian-mixture EM fit.
#[derive(Debug, Clone)]
pub struct NormalMixtureFit {
    /// The fitted mixture.
    pub mixture: Mixture<Normal>,
    /// Final per-observation average log-likelihood.
    pub avg_log_likelihood: f64,
    /// EM iterations used.
    pub iterations: usize,
}

/// Fits a `k`-component 1-D Gaussian mixture by EM.
///
/// Initialization: means at spread quantiles of the data, common σ, equal
/// weights. Components collapsing below a variance floor are re-spread.
/// Deterministic (no RNG).
pub fn fit_normal_mixture(
    data: &[f64],
    k: usize,
    max_iter: usize,
) -> Result<NormalMixtureFit, DistError> {
    if data.len() < 2 * k.max(1) {
        return Err(DistError::EmptyData);
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(DistError::NonFiniteParameter {
            name: "data",
            value: f64::NAN,
        });
    }
    let k = k.max(1);
    let n = data.len();
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let global_mean = data.iter().sum::<f64>() / n as f64;
    let global_var = data
        .iter()
        .map(|x| (x - global_mean) * (x - global_mean))
        .sum::<f64>()
        / n as f64;
    let var_floor = (global_var * 1e-6).max(1e-12);

    // Init: means at the (i+0.5)/k quantiles, shared σ, equal weights.
    let mut weights = vec![1.0 / k as f64; k];
    let mut means: Vec<f64> = (0..k)
        .map(|i| sorted[((i as f64 + 0.5) / k as f64 * n as f64) as usize % n])
        .collect();
    let mut vars = vec![(global_var / k as f64).max(var_floor); k];

    let mut resp = vec![0.0f64; n * k];
    let mut avg_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    for it in 0..max_iter.max(1) {
        iterations = it + 1;
        // E-step.
        let mut ll = 0.0;
        for (i, &x) in data.iter().enumerate() {
            let mut total = 0.0;
            for j in 0..k {
                let sd = vars[j].sqrt();
                let z = (x - means[j]) / sd;
                let dens = (-0.5 * z * z).exp() / (sd * SQRT_2PI);
                let v = weights[j] * dens;
                resp[i * k + j] = v;
                total += v;
            }
            let total = total.max(1e-300);
            for j in 0..k {
                resp[i * k + j] /= total;
            }
            ll += total.ln();
        }
        let new_avg = ll / n as f64;
        // M-step.
        for j in 0..k {
            let nj: f64 = (0..n).map(|i| resp[i * k + j]).sum();
            let nj = nj.max(1e-12);
            weights[j] = nj / n as f64;
            means[j] = (0..n).map(|i| resp[i * k + j] * data[i]).sum::<f64>() / nj;
            vars[j] = ((0..n)
                .map(|i| {
                    let d = data[i] - means[j];
                    resp[i * k + j] * d * d
                })
                .sum::<f64>()
                / nj)
                .max(var_floor);
        }
        if (new_avg - avg_ll).abs() < 1e-10 {
            avg_ll = new_avg;
            break;
        }
        avg_ll = new_avg;
    }

    let components = weights
        .iter()
        .zip(&means)
        .zip(&vars)
        .map(|((&w, &m), &v)| Ok((w, Normal::new(m, v.sqrt())?)))
        .collect::<Result<Vec<_>, DistError>>()?;
    Ok(NormalMixtureFit {
        mixture: Mixture::new(components)?,
        avg_log_likelihood: avg_ll,
        iterations,
    })
}

/// `sqrt(2π)`.
const SQRT_2PI: f64 = 2.506_628_274_631_000_5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use crate::{DynLaw, Truncated, Uniform};

    fn bimodal() -> Mixture<Normal> {
        Mixture::new(vec![
            (0.6, Normal::new(4.0, 0.3).unwrap()),
            (0.4, Normal::new(9.0, 0.5).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates_and_normalizes() {
        assert!(Mixture::<Normal>::new(vec![]).is_err());
        assert!(Mixture::new(vec![(0.0, Normal::new(0.0, 1.0).unwrap())]).is_err());
        let m = Mixture::new(vec![
            (2.0, Normal::new(0.0, 1.0).unwrap()),
            (6.0, Normal::new(5.0, 1.0).unwrap()),
        ])
        .unwrap();
        assert!((m.components()[0].0 - 0.25).abs() < 1e-15);
        assert!((m.components()[1].0 - 0.75).abs() < 1e-15);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn moments_match_mixture_formulas() {
        let m = bimodal();
        let want_mean = 0.6 * 4.0 + 0.4 * 9.0;
        assert!((m.mean() - want_mean).abs() < 1e-12);
        let want_var = 0.6 * (0.09 + 16.0) + 0.4 * (0.25 + 81.0) - want_mean * want_mean;
        assert!((m.variance() - want_var).abs() < 1e-10);
    }

    #[test]
    fn cdf_pdf_quantile_consistency() {
        let m = bimodal();
        // The trough between modes has low density.
        assert!(m.pdf(6.5) < 0.01);
        assert!(m.pdf(4.0) > 0.5);
        // CDF plateaus at the first component's weight between modes.
        assert!((m.cdf(6.5) - 0.6).abs() < 1e-3);
        for i in 1..40 {
            let p = i as f64 / 40.0;
            let x = m.quantile(p);
            assert!((m.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
        // pdf integrates to 1.
        let mass = resq_numerics::adaptive_simpson(|x| m.pdf(x), 0.0, 15.0, 1e-11);
        assert!((mass.value - 1.0).abs() < 1e-8);
    }

    #[test]
    fn sampling_respects_weights() {
        let m = bimodal();
        let mut rng = Xoshiro256pp::new(5);
        let n = 100_000;
        let low = (0..n).filter(|_| m.sample(&mut rng) < 6.5).count() as f64 / n as f64;
        assert!((low - 0.6).abs() < 0.01, "low-mode fraction {low}");
    }

    /// The mixture the flexible trace learner falls back to.
    fn learned() -> Mixture<Normal> {
        Mixture::new(vec![
            (0.7, Normal::new(4.0, 0.3).unwrap()),
            (0.3, Normal::new(9.0, 0.5).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn ln_pdf_stays_finite_deep_in_a_tail() {
        let m = learned();
        // 40 σ above the second mode: the density underflows, its log
        // is the second component's, ≈ ln 0.3 − 800.23.
        assert_eq!(m.pdf(29.0), 0.0);
        let got = m.ln_pdf(29.0);
        let want = 0.3f64.ln() + Normal::new(9.0, 0.5).unwrap().ln_pdf(29.0);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        assert!((got - (0.3f64.ln() - 800.23)).abs() < 0.01, "{got}");
        // Where the density is representable, the two forms agree.
        for x in [2.0, 4.0, 6.5, 9.0, 12.0] {
            let (got, want) = (m.ln_pdf(x), m.pdf(x).ln());
            assert!((got - want).abs() < 1e-12 * want.abs().max(1.0), "x={x}");
        }
        let far = Mixture::new(vec![(1.0, Uniform::new(0.0, 1.0).unwrap())]).unwrap();
        assert_eq!(far.ln_pdf(2.0), f64::NEG_INFINITY);
    }

    #[test]
    fn partial_means_come_from_the_components() {
        let m = learned();
        let want = 0.7 * Normal::new(4.0, 0.3).unwrap().partial_mean(5.0).unwrap()
            + 0.3 * Normal::new(9.0, 0.5).unwrap().partial_mean(5.0).unwrap();
        assert_eq!(m.partial_mean(5.0), Some(want));
        let upper = m.upper_partial_mean(5.0).unwrap();
        assert!((m.partial_mean(5.0).unwrap() + upper - m.mean()).abs() < 1e-12);
        // A truncated mixture takes its mean from the closed form.
        let t = Truncated::new(m, 3.0, 10.0).unwrap();
        let closed = t
            .partial_mean(10.0)
            .expect("closed form through the mixture");
        assert_eq!(t.mean(), closed);
        let quadrature = resq_numerics::adaptive_simpson(|x| x * t.pdf(x), 3.0, 10.0, 1e-12);
        assert!(
            (closed - quadrature.value).abs() < 1e-10,
            "{closed} vs {quadrature:?}"
        );
        // One component without a closed form leaves the mixture without one.
        let mixed = Mixture::new(vec![
            (0.5, DynLaw::new(Normal::new(4.0, 0.3).unwrap())),
            (0.5, DynLaw::new(crate::Weibull::new(2.0, 3.0).unwrap())),
        ])
        .unwrap();
        assert_eq!(mixed.partial_mean(5.0), None);
        assert_eq!(mixed.upper_partial_mean(5.0), None);
    }

    #[test]
    fn mixture_composes_with_truncation() {
        let t = Truncated::new(bimodal(), 3.0, 10.0).unwrap();
        assert_eq!(t.cdf(3.0), 0.0);
        assert_eq!(t.cdf(10.0), 1.0);
        let mut rng = Xoshiro256pp::new(6);
        for _ in 0..500 {
            let x = t.sample(&mut rng);
            assert!((3.0..=10.0).contains(&x));
        }
    }

    #[test]
    fn em_recovers_bimodal_parameters() {
        let truth = bimodal();
        let mut rng = Xoshiro256pp::new(7);
        let data = truth.sample_vec(&mut rng, 20_000);
        let fit = fit_normal_mixture(&data, 2, 200).unwrap();
        let mut comps: Vec<(f64, f64, f64)> = fit
            .mixture
            .components()
            .iter()
            .map(|(w, d)| (*w, d.mu(), d.sigma()))
            .collect();
        comps.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let (w1, m1, s1) = comps[0];
        let (w2, m2, s2) = comps[1];
        assert!((w1 - 0.6).abs() < 0.02, "w1 {w1}");
        assert!((m1 - 4.0).abs() < 0.02, "m1 {m1}");
        assert!((s1 - 0.3).abs() < 0.02, "s1 {s1}");
        assert!((w2 - 0.4).abs() < 0.02, "w2 {w2}");
        assert!((m2 - 9.0).abs() < 0.03, "m2 {m2}");
        assert!((s2 - 0.5).abs() < 0.03, "s2 {s2}");
    }

    #[test]
    fn em_single_component_equals_normal_mle() {
        let truth = Normal::new(5.0, 0.4).unwrap();
        let mut rng = Xoshiro256pp::new(8);
        let data = truth.sample_vec(&mut rng, 10_000);
        let fit = fit_normal_mixture(&data, 1, 100).unwrap();
        let mle = crate::fit::fit_normal(&data).unwrap();
        let c = &fit.mixture.components()[0].1;
        assert!((c.mu() - mle.mu()).abs() < 1e-6);
        assert!((c.sigma() - mle.sigma()).abs() < 1e-4);
    }

    #[test]
    fn em_two_components_fit_bimodal_better_than_one() {
        let truth = bimodal();
        let mut rng = Xoshiro256pp::new(9);
        let data = truth.sample_vec(&mut rng, 5_000);
        let one = fit_normal_mixture(&data, 1, 100).unwrap();
        let two = fit_normal_mixture(&data, 2, 200).unwrap();
        assert!(
            two.avg_log_likelihood > one.avg_log_likelihood + 0.3,
            "k=2 LL {} vs k=1 LL {}",
            two.avg_log_likelihood,
            one.avg_log_likelihood
        );
        // And the KS test accepts the k=2 model.
        let ks = crate::ks_test(&data, &two.mixture);
        assert!(ks.p_value > 1e-4, "KS p {}", ks.p_value);
    }

    #[test]
    fn em_rejects_degenerate_input() {
        assert!(fit_normal_mixture(&[1.0], 2, 10).is_err());
        assert!(fit_normal_mixture(&[1.0, f64::NAN, 2.0, 3.0], 2, 10).is_err());
    }

    #[test]
    fn heterogeneous_component_types_work() {
        // A mixture of Uniforms (e.g., two discrete service classes).
        let m = Mixture::new(vec![
            (0.5, Uniform::new(1.0, 2.0).unwrap()),
            (0.5, Uniform::new(5.0, 6.0).unwrap()),
        ])
        .unwrap();
        assert_eq!(m.support(), (1.0, 6.0));
        assert!((m.cdf(3.5) - 0.5).abs() < 1e-12);
        assert!((m.mean() - 3.5).abs() < 1e-12);
        assert!((m.quantile(0.25) - 1.5).abs() < 1e-9);
        assert!((m.quantile(0.75) - 5.5).abs() < 1e-9);
    }
}
