//! Right-censored checkpoint observations.
//!
//! A checkpoint that did **not** finish before the reservation ended is
//! not a missing data point — it says `C > L` where `L` is the time the
//! checkpoint had. Dropping these observations (what the plain fitting
//! pipeline does) biases the learned law *downward* precisely in the
//! tail that end-of-reservation planning cares about.
//!
//! [`fit_normal_censored`] runs the standard Tobit-style EM for a Normal
//! model with right censoring:
//!
//! * E-step: replace each censored observation by the conditional
//!   moments of the truncated Normal above its bound,
//!   `E[X | X > L] = μ + σ·λ(z)` and
//!   `Var[X | X > L] = σ²(1 + zλ(z) − λ(z)²)` with `z = (L−μ)/σ` and
//!   `λ = φ/(1−Φ)` the inverse Mills ratio;
//! * M-step: Normal MLE on the completed data + imputed moments.

use resq_dist::{DistError, Normal};
use resq_specfun::{norm_pdf, norm_sf};

/// Result of a censored fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CensoredFit {
    /// Fitted Normal model.
    pub model: Normal,
    /// EM iterations used.
    pub iterations: usize,
    /// Final log-likelihood (exact terms + censored tail terms).
    pub log_likelihood: f64,
}

/// Errors from censored fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum CensoredFitError {
    /// Need at least two completed observations to anchor the scale.
    TooFewCompleted {
        /// Observations available.
        got: usize,
    },
    /// Data contained non-finite values.
    NonFiniteData,
    /// The EM produced a degenerate model.
    Degenerate(String),
}

impl std::fmt::Display for CensoredFitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewCompleted { got } => {
                write!(
                    f,
                    "censored fit needs >= 2 completed observations, got {got}"
                )
            }
            Self::NonFiniteData => write!(f, "data contains non-finite values"),
            Self::Degenerate(msg) => write!(f, "censored fit degenerated: {msg}"),
        }
    }
}

impl std::error::Error for CensoredFitError {}

/// Inverse Mills ratio `λ(z) = φ(z) / (1 − Φ(z))`, tail-stable.
fn inverse_mills(z: f64) -> f64 {
    let sf = norm_sf(z);
    if sf <= 0.0 {
        // Deep right tail: λ(z) → z + 1/z.
        return z + 1.0 / z.max(1.0);
    }
    norm_pdf(z) / sf
}

/// Fits `N(μ, σ²)` to `completed` exact durations plus `censored_bounds`
/// (each meaning `C > bound`), by EM. `max_iter`/`tol` bound the
/// iteration (64 / 1e-10 are ample).
pub fn fit_normal_censored(
    completed: &[f64],
    censored_bounds: &[f64],
    max_iter: usize,
    tol: f64,
) -> Result<CensoredFit, CensoredFitError> {
    if completed.len() < 2 {
        return Err(CensoredFitError::TooFewCompleted {
            got: completed.len(),
        });
    }
    if completed
        .iter()
        .chain(censored_bounds)
        .any(|x| !x.is_finite())
    {
        return Err(CensoredFitError::NonFiniteData);
    }
    let n = completed.len() as f64;
    let m = censored_bounds.len() as f64;
    // Init from the completed sample.
    let mut mu = completed.iter().sum::<f64>() / n;
    let mut var = completed.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / n;
    if var <= 0.0 {
        return Err(CensoredFitError::Degenerate(
            "zero variance in completed data".into(),
        ));
    }
    let mut iterations = 0;
    for it in 0..max_iter.max(1) {
        iterations = it + 1;
        let sigma = var.sqrt();
        // E-step: conditional moments for each censored bound.
        let mut sum_imputed = 0.0;
        let mut sum_sq_dev = 0.0; // Σ E[(X − μ_new)²] pieces gathered below
        let mut imputed = Vec::with_capacity(censored_bounds.len());
        for &l in censored_bounds {
            let z = (l - mu) / sigma;
            let lam = inverse_mills(z);
            let e1 = mu + sigma * lam;
            let v = var * (1.0 + z * lam - lam * lam).max(0.0);
            imputed.push((e1, v));
            sum_imputed += e1;
        }
        // M-step.
        let mu_new = (completed.iter().sum::<f64>() + sum_imputed) / (n + m);
        for &x in completed {
            sum_sq_dev += (x - mu_new) * (x - mu_new);
        }
        for &(e1, v) in &imputed {
            sum_sq_dev += v + (e1 - mu_new) * (e1 - mu_new);
        }
        let var_new = sum_sq_dev / (n + m);
        let delta = (mu_new - mu).abs() + (var_new.sqrt() - var.sqrt()).abs();
        mu = mu_new;
        var = var_new.max(1e-300);
        if delta < tol {
            break;
        }
    }
    let sigma = var.sqrt();
    let model = Normal::new(mu, sigma)
        .map_err(|e: DistError| CensoredFitError::Degenerate(e.to_string()))?;
    // Log-likelihood for reporting.
    let mut ll = 0.0;
    for &x in completed {
        let z = (x - mu) / sigma;
        ll += -0.5 * z * z - resq_specfun::LN_SQRT_2PI - sigma.ln();
    }
    for &l in censored_bounds {
        ll += norm_sf((l - mu) / sigma).max(1e-300).ln();
    }
    Ok(CensoredFit {
        model,
        iterations,
        log_likelihood: ll,
    })
}

/// Convenience: fit from a [`crate::TraceLog`], using failed checkpoints'
/// recorded durations as censoring bounds.
pub fn fit_from_log(
    log: &crate::TraceLog,
    max_iter: usize,
    tol: f64,
) -> Result<CensoredFit, CensoredFitError> {
    let completed = log.completed_durations();
    let censored: Vec<f64> = log
        .records()
        .iter()
        .filter(|r| !r.completed && r.duration.is_finite() && r.duration > 0.0)
        .map(|r| r.duration)
        .collect();
    fit_normal_censored(&completed, &censored, max_iter, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Distribution, Sample, Truncated, Xoshiro256pp};

    /// Generates N(μ, σ) data censored at `cutoff`: values above the
    /// cutoff are replaced by the bound (as a failed checkpoint with
    /// `cutoff` seconds available would be).
    fn censored_sample(
        mu: f64,
        sigma: f64,
        cutoff: f64,
        n: usize,
        seed: u64,
    ) -> (Vec<f64>, Vec<f64>) {
        let law = Normal::new(mu, sigma).unwrap();
        let mut rng = Xoshiro256pp::new(seed);
        let mut done = Vec::new();
        let mut cens = Vec::new();
        for _ in 0..n {
            let x = law.sample(&mut rng);
            if x <= cutoff {
                done.push(x);
            } else {
                cens.push(cutoff);
            }
        }
        (done, cens)
    }

    #[test]
    fn no_censoring_matches_plain_mle() {
        let (done, cens) = censored_sample(5.0, 0.4, f64::INFINITY, 20_000, 1);
        assert!(cens.is_empty());
        let fit = fit_normal_censored(&done, &cens, 64, 1e-12).unwrap();
        let plain = resq_dist::fit::fit_normal(&done).unwrap();
        assert!((fit.model.mu() - plain.mu()).abs() < 1e-9);
        assert!((fit.model.sigma() - plain.sigma()).abs() < 1e-9);
        assert!(fit.iterations <= 2); // converges immediately
    }

    #[test]
    fn recovers_parameters_under_heavy_censoring() {
        // Censor at the true mean: half the observations are censored.
        let (done, cens) = censored_sample(5.0, 0.4, 5.0, 40_000, 2);
        assert!(cens.len() > 15_000);
        let fit = fit_normal_censored(&done, &cens, 200, 1e-12).unwrap();
        assert!(
            (fit.model.mu() - 5.0).abs() < 0.02,
            "mu {} (naive would be ~4.68)",
            fit.model.mu()
        );
        assert!(
            (fit.model.sigma() - 0.4).abs() < 0.02,
            "sigma {}",
            fit.model.sigma()
        );
        // And the naive (drop-censored) fit is visibly biased.
        let naive = resq_dist::fit::fit_normal(&done).unwrap();
        assert!(naive.mu() < 4.75, "naive mu {} not biased?", naive.mu());
    }

    #[test]
    fn moderate_censoring_beats_naive() {
        // Censor the top ~16% (cutoff μ + σ).
        let (done, cens) = censored_sample(5.0, 0.4, 5.4, 20_000, 3);
        let fit = fit_normal_censored(&done, &cens, 200, 1e-12).unwrap();
        let naive = resq_dist::fit::fit_normal(&done).unwrap();
        let em_err = (fit.model.mu() - 5.0).abs();
        let naive_err = (naive.mu() - 5.0).abs();
        assert!(
            em_err < 0.3 * naive_err,
            "EM err {em_err} vs naive err {naive_err}"
        );
    }

    #[test]
    fn fit_from_log_uses_failed_records() {
        use crate::record::{TraceLog, TraceRecord};
        let (done, cens) = censored_sample(5.0, 0.4, 5.0, 5000, 4);
        let mut log = TraceLog::new();
        for (i, &d) in done.iter().enumerate() {
            log.push(TraceRecord::of_duration(i as u64, d));
        }
        for (i, &l) in cens.iter().enumerate() {
            log.push(TraceRecord {
                reservation_id: 100_000 + i as u64,
                started_at: 0.0,
                duration: l,
                bytes: 0,
                completed: false,
            });
        }
        let fit = fit_from_log(&log, 200, 1e-12).unwrap();
        assert!(
            (fit.model.mean() - 5.0).abs() < 0.05,
            "mu {}",
            fit.model.mean()
        );
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            fit_normal_censored(&[1.0], &[], 10, 1e-9),
            Err(CensoredFitError::TooFewCompleted { got: 1 })
        ));
        assert!(matches!(
            fit_normal_censored(&[1.0, f64::NAN], &[], 10, 1e-9),
            Err(CensoredFitError::NonFiniteData)
        ));
        assert!(fit_normal_censored(&[2.0, 2.0], &[], 10, 1e-9).is_err());
    }

    #[test]
    fn log_likelihood_increases_with_better_model() {
        let (done, cens) = censored_sample(5.0, 0.4, 5.2, 5000, 5);
        let fit = fit_normal_censored(&done, &cens, 200, 1e-12).unwrap();
        // Compare LL of the EM fit against a deliberately wrong model.
        let eval_ll = |mu: f64, sigma: f64| {
            let mut ll = 0.0;
            for &x in &done {
                let z = (x - mu) / sigma;
                ll += -0.5 * z * z - resq_specfun::LN_SQRT_2PI - sigma.ln();
            }
            for &l in &cens {
                ll += norm_sf((l - mu) / sigma).max(1e-300).ln();
            }
            ll
        };
        let wrong = eval_ll(4.0, 0.4);
        assert!(
            fit.log_likelihood > wrong,
            "EM LL not better than wrong model"
        );
        // Truncated-Normal helper sanity: E[X | X>5] for N(5, 0.4).
        let t = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 5.0).unwrap();
        let lam = inverse_mills(0.0);
        assert!((t.mean() - (5.0 + 0.4 * lam)).abs() < 1e-6);
    }
}
