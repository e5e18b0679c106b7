//! Parameter estimation — learning `D_C` (or `D_X`) from traces.
//!
//! The paper assumes the checkpoint-duration law is known and remarks
//! that it "can be learned from traces of previous checkpoints". This
//! module provides maximum-likelihood / moment estimators for every
//! family used in the paper plus Weibull, and a model-selection front-end
//! ([`fit_best`]) scoring candidates by AIC with a Kolmogorov–Smirnov
//! sanity check.

use crate::{
    kstest::ks_statistic, Continuous, DistError, DynLaw, Exponential, Gamma, LogNormal, Normal,
    Uniform, Weibull,
};
use resq_specfun::{digamma, trigamma};

/// Families the model selector can fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Uniform on `[min, max]`.
    Uniform,
    /// Exponential.
    Exponential,
    /// Normal.
    Normal,
    /// LogNormal.
    LogNormal,
    /// Gamma.
    Gamma,
    /// Weibull.
    Weibull,
}

impl ModelFamily {
    /// All supported families.
    pub const ALL: [ModelFamily; 6] = [
        ModelFamily::Uniform,
        ModelFamily::Exponential,
        ModelFamily::Normal,
        ModelFamily::LogNormal,
        ModelFamily::Gamma,
        ModelFamily::Weibull,
    ];

    /// Number of free parameters (for AIC): Exponential fits one rate,
    /// every other family two parameters.
    pub fn param_count(&self) -> usize {
        match self {
            ModelFamily::Exponential => 1,
            _ => 2,
        }
    }
}

/// Errors from the fitting routines.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Underlying construction failed (degenerate data, etc.).
    Dist(DistError),
    /// Data violates the family's support (e.g. non-positive values for
    /// LogNormal).
    UnsupportedData(&'static str),
    /// Too few observations for the requested family.
    TooFewObservations {
        /// Observations required.
        needed: usize,
        /// Observations given.
        got: usize,
    },
}

impl From<DistError> for FitError {
    fn from(e: DistError) -> Self {
        FitError::Dist(e)
    }
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::Dist(e) => write!(f, "fit failed: {e}"),
            FitError::UnsupportedData(msg) => write!(f, "fit failed: {msg}"),
            FitError::TooFewObservations { needed, got } => {
                write!(f, "fit needs at least {needed} observations, got {got}")
            }
        }
    }
}

impl std::error::Error for FitError {}

fn check_data(data: &[f64], needed: usize) -> Result<(), FitError> {
    if data.len() < needed {
        return Err(FitError::TooFewObservations {
            needed,
            got: data.len(),
        });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(FitError::UnsupportedData("data contains non-finite values"));
    }
    Ok(())
}

fn sample_mean_var(data: &[f64]) -> (f64, f64) {
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var)
}

/// MLE for the Uniform family: `[min(x), max(x)]`, widened by half a
/// spacing so held-out data does not fall outside with probability one.
pub fn fit_uniform(data: &[f64]) -> Result<Uniform, FitError> {
    check_data(data, 2)?;
    let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if lo == hi {
        return Err(FitError::UnsupportedData("all observations identical"));
    }
    // Expected-gap widening: (max-min)/ (n-1) split across both ends.
    let pad = 0.5 * (hi - lo) / (data.len() as f64 - 1.0);
    Ok(Uniform::new(lo - pad, hi + pad)?)
}

/// MLE for the Exponential family: `λ = 1 / mean`.
pub fn fit_exponential(data: &[f64]) -> Result<Exponential, FitError> {
    check_data(data, 1)?;
    if data.iter().any(|&x| x < 0.0) {
        return Err(FitError::UnsupportedData(
            "Exponential requires non-negative data",
        ));
    }
    let (mean, _) = sample_mean_var(data);
    if mean <= 0.0 {
        return Err(FitError::UnsupportedData("mean must be positive"));
    }
    Ok(Exponential::new(1.0 / mean)?)
}

/// MLE for the Normal family: sample mean and (biased) sample σ.
pub fn fit_normal(data: &[f64]) -> Result<Normal, FitError> {
    check_data(data, 2)?;
    let (mean, var) = sample_mean_var(data);
    if var <= 0.0 {
        return Err(FitError::UnsupportedData("zero sample variance"));
    }
    Ok(Normal::new(mean, var.sqrt())?)
}

/// MLE for the LogNormal family: Normal MLE in log space.
pub fn fit_lognormal(data: &[f64]) -> Result<LogNormal, FitError> {
    check_data(data, 2)?;
    if data.iter().any(|&x| x <= 0.0) {
        return Err(FitError::UnsupportedData(
            "LogNormal requires positive data",
        ));
    }
    let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
    let (mu, var) = sample_mean_var(&logs);
    if var <= 0.0 {
        return Err(FitError::UnsupportedData("zero log-variance"));
    }
    Ok(LogNormal::new(mu, var.sqrt())?)
}

/// MLE for the Gamma family.
///
/// Shape solves `ln k − ψ(k) = s` with `s = ln x̄ − (ln x)‾` by Newton
/// from the Minka/moment initial guess; scale is `x̄/k`.
pub fn fit_gamma(data: &[f64]) -> Result<Gamma, FitError> {
    check_data(data, 2)?;
    if data.iter().any(|&x| x <= 0.0) {
        return Err(FitError::UnsupportedData("Gamma requires positive data"));
    }
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    let mean_log = data.iter().map(|x| x.ln()).sum::<f64>() / n;
    let s = mean.ln() - mean_log;
    if s <= 0.0 {
        return Err(FitError::UnsupportedData(
            "degenerate data (zero log-dispersion)",
        ));
    }
    // Minka's closed-form starting point.
    let mut k = (3.0 - s + ((s - 3.0) * (s - 3.0) + 24.0 * s).sqrt()) / (12.0 * s);
    for _ in 0..60 {
        let f = k.ln() - digamma(k) - s;
        let df = 1.0 / k - trigamma(k);
        let next = k - f / df;
        if !next.is_finite() || next <= 0.0 {
            break;
        }
        if (next - k).abs() < 1e-12 * k {
            k = next;
            break;
        }
        k = next;
    }
    Ok(Gamma::new(k, mean / k)?)
}

/// MLE for the Weibull family: Newton on the shape profile likelihood,
/// then the closed-form scale.
pub fn fit_weibull(data: &[f64]) -> Result<Weibull, FitError> {
    check_data(data, 2)?;
    if data.iter().any(|&x| x <= 0.0) {
        return Err(FitError::UnsupportedData("Weibull requires positive data"));
    }
    let n = data.len() as f64;
    let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
    let mean_log = logs.iter().sum::<f64>() / n;
    // Profile-likelihood equation: 1/k = Σ x^k ln x / Σ x^k − (ln x)‾.
    let g = |k: f64| {
        let mut sxk = 0.0;
        let mut sxkl = 0.0;
        for (&x, &lx) in data.iter().zip(&logs) {
            let xk = x.powf(k);
            sxk += xk;
            sxkl += xk * lx;
        }
        sxkl / sxk - mean_log - 1.0 / k
    };
    // Bracket then bisect/Brent via resq-numerics.
    let (mut lo, mut hi) = (1e-3, 1.0);
    while g(hi) < 0.0 && hi < 1e4 {
        lo = hi;
        hi *= 2.0;
    }
    let k = resq_numerics::brent_root(g, lo, hi, 1e-10)
        .map_err(|_| FitError::UnsupportedData("Weibull shape equation has no root"))?;
    let scale = (data.iter().map(|x| x.powf(k)).sum::<f64>() / n).powf(1.0 / k);
    Ok(Weibull::new(k, scale)?)
}

/// Fits one family to `data`.
pub fn fit_family(family: ModelFamily, data: &[f64]) -> Result<DynLaw, FitError> {
    Ok(match family {
        ModelFamily::Uniform => DynLaw::new(fit_uniform(data)?),
        ModelFamily::Exponential => DynLaw::new(fit_exponential(data)?),
        ModelFamily::Normal => DynLaw::new(fit_normal(data)?),
        ModelFamily::LogNormal => DynLaw::new(fit_lognormal(data)?),
        ModelFamily::Gamma => DynLaw::new(fit_gamma(data)?),
        ModelFamily::Weibull => DynLaw::new(fit_weibull(data)?),
    })
}

/// Akaike information criterion of a `family` model on `data` (lower is
/// better).
fn aic(family: ModelFamily, model: &DynLaw, data: &[f64]) -> f64 {
    let log_likelihood: f64 = data.iter().map(|&x| model.ln_pdf(x)).sum();
    2.0 * family.param_count() as f64 - 2.0 * log_likelihood
}

/// Outcome of [`fit_best`]: the winning model plus its scores.
#[derive(Debug, Clone)]
pub struct BestFit {
    /// The selected model.
    pub model: DynLaw,
    /// Its family.
    pub family: ModelFamily,
    /// Its AIC on the training data.
    pub aic: f64,
    /// Its KS statistic on the training data.
    pub ks: f64,
    /// AIC of every family that could be fitted.
    pub scores: Vec<(ModelFamily, f64)>,
}

/// Fits every applicable family and returns the AIC-best model.
///
/// Families whose support excludes the data (e.g. LogNormal with zeros)
/// are skipped silently; fails only if no family fits at all.
///
/// ```
/// use resq_dist::{fit_best, ModelFamily, Normal, Sample, Xoshiro256pp};
///
/// let truth = Normal::new(5.0, 0.4)?;
/// let mut rng = Xoshiro256pp::new(7);
/// let trace = truth.sample_vec(&mut rng, 5000);
///
/// let best = fit_best(&trace)?;
/// assert_eq!(best.family, ModelFamily::Normal);
/// assert!(best.ks < 0.02);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn fit_best(data: &[f64]) -> Result<BestFit, FitError> {
    check_data(data, 2)?;
    let mut best: Option<(DynLaw, ModelFamily, f64)> = None;
    let mut scores = Vec::new();
    for family in ModelFamily::ALL {
        let Ok(model) = fit_family(family, data) else {
            continue;
        };
        let aic = aic(family, &model, data);
        if !aic.is_finite() {
            continue;
        }
        scores.push((family, aic));
        if best.as_ref().map_or(true, |(_, _, b)| aic < *b) {
            best = Some((model, family, aic));
        }
    }
    let (model, family, aic) =
        best.ok_or(FitError::UnsupportedData("no family could fit the data"))?;
    let ks = ks_statistic(data, &model);
    Ok(BestFit {
        model,
        family,
        aic,
        ks,
        scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use crate::{Sample, Truncated};

    fn draw<D: Sample>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::new(seed);
        d.sample_vec(&mut rng, n)
    }

    #[test]
    fn normal_fit_recovers_parameters() {
        let truth = Normal::new(5.0, 0.4).unwrap();
        let data = draw(&truth, 50_000, 1);
        let fit = fit_normal(&data).unwrap();
        assert!((fit.mu() - 5.0).abs() < 0.01, "mu {}", fit.mu());
        assert!((fit.sigma() - 0.4).abs() < 0.01, "sigma {}", fit.sigma());
    }

    #[test]
    fn exponential_fit_recovers_rate() {
        let truth = Exponential::new(0.5).unwrap();
        let data = draw(&truth, 50_000, 2);
        let fit = fit_exponential(&data).unwrap();
        assert!((fit.rate() - 0.5).abs() < 0.01, "rate {}", fit.rate());
    }

    #[test]
    fn lognormal_fit_recovers_parameters() {
        let truth = LogNormal::new(1.0, 0.35).unwrap();
        let data = draw(&truth, 50_000, 3);
        let fit = fit_lognormal(&data).unwrap();
        assert!((fit.mu() - 1.0).abs() < 0.01);
        assert!((fit.sigma() - 0.35).abs() < 0.01);
    }

    #[test]
    fn gamma_fit_recovers_parameters() {
        let truth = Gamma::new(3.0, 0.5).unwrap();
        let data = draw(&truth, 80_000, 4);
        let fit = fit_gamma(&data).unwrap();
        assert!((fit.shape() - 3.0).abs() < 0.08, "shape {}", fit.shape());
        assert!((fit.scale() - 0.5).abs() < 0.02, "scale {}", fit.scale());
    }

    #[test]
    fn weibull_fit_recovers_parameters() {
        let truth = Weibull::new(1.5, 2.0).unwrap();
        let data = draw(&truth, 80_000, 5);
        let fit = fit_weibull(&data).unwrap();
        assert!((fit.shape() - 1.5).abs() < 0.03, "shape {}", fit.shape());
        assert!((fit.scale() - 2.0).abs() < 0.03, "scale {}", fit.scale());
    }

    #[test]
    fn uniform_fit_covers_data() {
        let truth = Uniform::new(1.0, 7.5).unwrap();
        let data = draw(&truth, 10_000, 6);
        let fit = fit_uniform(&data).unwrap();
        assert!(fit.lower() <= 1.0 + 0.01 && fit.lower() > 0.9);
        assert!(fit.upper() >= 7.5 - 0.01 && fit.upper() < 7.6);
    }

    #[test]
    fn model_selection_identifies_generating_family() {
        // Gamma(k=1,θ=0.5) is Exponential — accept either tag, but the
        // selected model must reproduce the CDF.
        let truth = Normal::new(5.0, 0.4).unwrap();
        let data = draw(&truth, 20_000, 7);
        let best = fit_best(&data).unwrap();
        assert_eq!(best.family, ModelFamily::Normal);
        assert!(best.ks < 0.01, "KS {}", best.ks);
        assert!(best.scores.len() >= 3);

        let truth = LogNormal::new(1.0, 0.6).unwrap();
        let data = draw(&truth, 20_000, 8);
        let best = fit_best(&data).unwrap();
        assert_eq!(best.family, ModelFamily::LogNormal);
    }

    #[test]
    fn fit_best_skips_unsupported_families() {
        // Negative data: only Uniform and Normal are applicable.
        let truth = Normal::new(-3.0, 1.0).unwrap();
        let data = draw(&truth, 5_000, 9);
        let best = fit_best(&data).unwrap();
        assert!(matches!(
            best.family,
            ModelFamily::Normal | ModelFamily::Uniform
        ));
        assert!(best
            .scores
            .iter()
            .all(|(f, _)| matches!(f, ModelFamily::Normal | ModelFamily::Uniform)));
    }

    #[test]
    fn truncated_normal_trace_is_fit_well_by_normal() {
        // The paper's D_C = N_{[0,∞)}(5, 0.4²) is effectively Normal; the
        // selector should land on Normal (or Gamma/LogNormal, which mimic
        // it closely at this CV) with a good KS.
        let truth = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        let data = draw(&truth, 20_000, 10);
        let best = fit_best(&data).unwrap();
        assert!(best.ks < 0.02, "KS {}", best.ks);
    }

    #[test]
    fn errors_on_bad_data() {
        assert!(matches!(
            fit_normal(&[1.0]),
            Err(FitError::TooFewObservations { .. })
        ));
        assert!(fit_lognormal(&[1.0, -2.0]).is_err());
        assert!(fit_gamma(&[0.0, 1.0]).is_err());
        assert!(fit_exponential(&[-1.0, 2.0]).is_err());
        assert!(fit_uniform(&[2.0, 2.0]).is_err());
        assert!(fit_normal(&[3.0, 3.0]).is_err());
        assert!(fit_normal(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn aic_prefers_better_model() {
        let truth = Exponential::new(1.0).unwrap();
        let data = draw(&truth, 10_000, 11);
        let exp = fit_family(ModelFamily::Exponential, &data).unwrap();
        let norm = fit_family(ModelFamily::Normal, &data).unwrap();
        assert!(
            aic(ModelFamily::Exponential, &exp, &data) < aic(ModelFamily::Normal, &norm, &data)
        );
    }

    #[test]
    fn aic_counts_the_exponential_familys_one_parameter() {
        // Exponential fits one parameter (λ = 1/mean). A penalty for a
        // second one lets Gamma or Weibull, which nest it, win on
        // exponential data.
        let truth = Exponential::new(0.5).unwrap();
        let data = draw(&truth, 500, 3);
        let best = fit_best(&data).unwrap();
        assert_eq!(best.family, ModelFamily::Exponential);
        let fitted = fit_exponential(&data).unwrap();
        let log_likelihood: f64 = data.iter().map(|&x| fitted.ln_pdf(x)).sum();
        let score = best
            .scores
            .iter()
            .find(|(f, _)| *f == ModelFamily::Exponential)
            .unwrap()
            .1;
        assert_eq!(
            score.to_bits(),
            (2.0 * 1.0 - 2.0 * log_likelihood).to_bits()
        );
    }
}
