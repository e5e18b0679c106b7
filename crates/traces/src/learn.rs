//! The trace → model pipeline.
//!
//! Steps, mirroring how a practitioner would apply the paper:
//!
//! 1. Collect completed-checkpoint durations from a [`crate::TraceLog`].
//! 2. Fit all candidate families ([`resq_dist::fit_best`], AIC-scored).
//! 3. Screen with a Kolmogorov–Smirnov test — a model the data rejects
//!    at `p < min_p_value` is refused rather than silently planned with.
//! 4. Truncate to a padded observed support `[a, b]` (the paper's
//!    `[C_min, C_max]`) so the §3 machinery applies directly.
//! 5. Expose ready-made planning entry points.
//!
//! [`learn_checkpoint_law_flexible`] adds a Gaussian-mixture fallback for
//! multimodal traces (burst-buffer vs PFS bimodality etc.). Both
//! learners return a [`LearnedModel`] whose law is a
//! [`resq_dist::DynLaw`].

use resq_core::{CheckpointPlan, Preemptible};
use resq_dist::{ks_test, Continuous, Distribution, DynLaw, KsOutcome, ModelFamily, Truncated};

/// Why learning failed.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnError {
    /// Not enough completed checkpoints in the trace.
    TooFewObservations {
        /// Observations required.
        needed: usize,
        /// Observations available.
        got: usize,
    },
    /// No candidate family fit the data at all.
    NoModelFits(String),
    /// The best model was rejected by the KS screen.
    ModelRejected {
        /// KS statistic of the best model.
        statistic: f64,
        /// Its p-value.
        p_value: f64,
    },
    /// Downstream model construction failed.
    Core(String),
}

impl std::fmt::Display for LearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewObservations { needed, got } => {
                write!(f, "need at least {needed} completed checkpoints, got {got}")
            }
            Self::NoModelFits(msg) => write!(f, "no distribution family fits: {msg}"),
            Self::ModelRejected { statistic, p_value } => write!(
                f,
                "best-fit model rejected by KS test (D = {statistic:.4}, p = {p_value:.2e})"
            ),
            Self::Core(msg) => write!(f, "model construction failed: {msg}"),
        }
    }
}

impl std::error::Error for LearnError {}

/// Tuning knobs for [`learn_checkpoint_law`].
#[derive(Debug, Clone, Copy)]
pub struct LearnConfig {
    /// Minimum completed observations (default 30).
    pub min_observations: usize,
    /// KS screen: reject the best model below this p-value (default 1e-4
    /// — generous, because with huge traces even excellent parametric
    /// fits get small p-values).
    pub min_p_value: f64,
    /// Relative padding applied to the observed min/max to form
    /// `[a, b]` (default 5%): real traces undersample the tails.
    pub support_padding: f64,
}

impl Default for LearnConfig {
    fn default() -> Self {
        Self {
            min_observations: 30,
            min_p_value: 1e-4,
            support_padding: 0.05,
        }
    }
}

/// A learned checkpoint-duration model, ready for §3 planning.
#[derive(Debug, Clone)]
pub struct LearnedModel {
    /// The fitted law (untruncated): one parametric family, or a
    /// Gaussian mixture for a multimodal trace.
    pub model: DynLaw,
    /// The fitted family; for a mixture, its components' (`Normal`).
    pub family: ModelFamily,
    /// Mixture components (1 = a single parametric law).
    pub components: usize,
    /// The truncation interval `[a, b]` = padded observed support.
    pub support: (f64, f64),
    /// KS statistic of the fit on the training trace.
    pub ks_statistic: f64,
    /// KS p-value.
    pub ks_p_value: f64,
    /// Number of observations used.
    pub observations: usize,
}

impl LearnedModel {
    /// Wraps a fitted law with its diagnostics, truncated to the
    /// observed `[min, max]` of `durations` padded by
    /// `config.support_padding` and clipped to the law's support.
    fn new(
        model: DynLaw,
        family: ModelFamily,
        components: usize,
        ks: KsOutcome,
        durations: &[f64],
        config: LearnConfig,
    ) -> Self {
        let lo = durations.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = durations.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let pad = config.support_padding * (hi - lo).max(1e-9);
        let (slo, shi) = model.support();
        Self {
            support: ((lo - pad).max(slo).max(1e-12), (hi + pad).min(shi)),
            model,
            family,
            components,
            ks_statistic: ks.statistic,
            ks_p_value: ks.p_value,
            observations: durations.len(),
        }
    }

    /// The truncated law `D_C` over `[a, b]`.
    pub fn checkpoint_law(&self) -> Result<Truncated<DynLaw>, LearnError> {
        Truncated::new(self.model.clone(), self.support.0, self.support.1)
            .map_err(|e| LearnError::Core(e.to_string()))
    }

    /// Builds the §3 planning model for a reservation of length `r` and
    /// returns the optimal and the pessimistic checkpoint plans.
    pub fn plan(&self, r: f64) -> Result<(CheckpointPlan, CheckpointPlan), LearnError> {
        let model = Preemptible::new(self.checkpoint_law()?, r)
            .map_err(|e| LearnError::Core(e.to_string()))?;
        Ok((model.optimize(), model.pessimistic()))
    }

    /// Mean of the fitted (untruncated) law.
    pub fn mean(&self) -> f64 {
        self.model.mean()
    }
}

/// Learns `D_C` from raw completed-checkpoint durations.
pub fn learn_checkpoint_law(
    durations: &[f64],
    config: LearnConfig,
) -> Result<LearnedModel, LearnError> {
    if durations.len() < config.min_observations {
        return Err(LearnError::TooFewObservations {
            needed: config.min_observations,
            got: durations.len(),
        });
    }
    let best =
        resq_dist::fit_best(durations).map_err(|e| LearnError::NoModelFits(e.to_string()))?;
    let ks = ks_test(durations, &best.model);
    if ks.p_value < config.min_p_value {
        return Err(LearnError::ModelRejected {
            statistic: ks.statistic,
            p_value: ks.p_value,
        });
    }
    Ok(LearnedModel::new(
        best.model,
        best.family,
        1,
        ks,
        durations,
        config,
    ))
}

/// Like [`learn_checkpoint_law`], but when every parametric family is
/// rejected by the KS screen, retries with Gaussian mixtures of
/// `k = 2..=max_components` and keeps the first that passes.
pub fn learn_checkpoint_law_flexible(
    durations: &[f64],
    config: LearnConfig,
    max_components: usize,
) -> Result<LearnedModel, LearnError> {
    match learn_checkpoint_law(durations, config) {
        Err(LearnError::ModelRejected { .. }) => {}
        other => return other,
    }
    let mut last = None;
    for k in 2..=max_components.max(2) {
        let Ok(fit) = resq_dist::fit_normal_mixture(durations, k, 300) else {
            continue;
        };
        let ks = ks_test(durations, &fit.mixture);
        let passed = ks.p_value >= config.min_p_value;
        last = Some((fit, ks));
        if passed {
            break;
        }
    }
    let (fit, ks) = last.ok_or(LearnError::NoModelFits("mixture fitting failed".into()))?;
    if ks.p_value < config.min_p_value {
        return Err(LearnError::ModelRejected {
            statistic: ks.statistic,
            p_value: ks.p_value,
        });
    }
    let components = fit.mixture.len();
    Ok(LearnedModel::new(
        DynLaw::new(fit.mixture),
        ModelFamily::Normal,
        components,
        ks,
        durations,
        config,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticTrace;
    use resq_dist::{ModelFamily, Normal, Truncated as Trunc};

    fn trace(n: usize, seed: u64) -> Vec<f64> {
        let base = Trunc::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        SyntheticTrace::clean(base)
            .generate(n, seed)
            .completed_durations()
    }

    #[test]
    fn learns_normal_checkpoint_law() {
        let data = trace(5000, 1);
        let learned = learn_checkpoint_law(&data, LearnConfig::default()).unwrap();
        assert_eq!(learned.family, ModelFamily::Normal);
        assert!(
            (learned.mean() - 5.0).abs() < 0.05,
            "mean {}",
            learned.mean()
        );
        assert!(learned.ks_statistic < 0.02);
        assert_eq!(learned.observations, 5000);
        // Support brackets the truth comfortably.
        assert!(learned.support.0 > 2.0 && learned.support.0 < 5.0);
        assert!(learned.support.1 > 5.0 && learned.support.1 < 8.5);
    }

    #[test]
    fn learned_plan_close_to_true_plan() {
        // Plan from the learned model vs plan from the true law: expected
        // work within 2%.
        let data = trace(20_000, 2);
        let learned = learn_checkpoint_law(&data, LearnConfig::default()).unwrap();
        let r = 30.0;
        let (opt, pess) = learned.plan(r).unwrap();
        assert!(opt.expected_work >= pess.expected_work - 1e-9);

        // True model, truncated to the same kind of interval.
        let truth = Trunc::new(
            Normal::new(5.0, 0.4).unwrap(),
            learned.support.0,
            learned.support.1,
        )
        .unwrap();
        let true_model = Preemptible::new(truth, r).unwrap();
        let true_opt = true_model.optimize();
        let regret = (true_model.expected_work(opt.lead_time) - true_opt.expected_work).abs();
        assert!(
            regret < 0.02 * true_opt.expected_work,
            "regret {regret} vs optimum {}",
            true_opt.expected_work
        );
    }

    #[test]
    fn learned_laws_answer_as_the_laws_they_wrap() {
        let data = trace(5000, 1);
        let normal = resq_dist::fit::fit_normal(&data).unwrap();
        let config = LearnConfig::default();
        for learned in [
            learn_checkpoint_law(&data, config).unwrap(),
            learn_checkpoint_law_flexible(&data, config, 3).unwrap(),
        ] {
            assert_eq!(learned.family, ModelFamily::Normal);
            // Far in the tail the density underflows; the log-density
            // must still be the Normal's own, not ln 0.
            let far = normal.mu() + 40.0 * normal.sigma();
            assert!(normal.ln_pdf(far).is_finite());
            assert_eq!(
                learned.model.ln_pdf(far).to_bits(),
                normal.ln_pdf(far).to_bits()
            );
            // The truncated law keeps the closed-form partial mean, and
            // so the mean, of the truncated Normal.
            let (a, b) = learned.support;
            let law = learned.checkpoint_law().unwrap();
            let truth = Trunc::new(normal, a, b).unwrap();
            let mid = 0.5 * (a + b);
            assert!(law.partial_mean(mid).is_some());
            assert_eq!(
                law.partial_mean(mid).map(f64::to_bits),
                truth.partial_mean(mid).map(f64::to_bits)
            );
            assert_eq!(law.mean().to_bits(), truth.mean().to_bits());
        }
    }

    #[test]
    fn too_few_observations_rejected() {
        let data = trace(10, 3);
        assert!(matches!(
            learn_checkpoint_law(&data, LearnConfig::default()),
            Err(LearnError::TooFewObservations {
                needed: 30,
                got: 10
            })
        ));
    }

    #[test]
    fn bimodal_garbage_is_rejected_by_ks() {
        // Two well-separated modes: no single family fits.
        let mut data = trace(2000, 4);
        data.extend(trace(2000, 5).iter().map(|d| d + 40.0));
        let err = learn_checkpoint_law(&data, LearnConfig::default()).unwrap_err();
        assert!(
            matches!(err, LearnError::ModelRejected { .. }),
            "expected rejection, got {err:?}"
        );
    }

    #[test]
    fn errors_render() {
        let e = LearnError::ModelRejected {
            statistic: 0.21,
            p_value: 1e-30,
        };
        assert!(e.to_string().contains("0.21"));
        assert!(LearnError::TooFewObservations { needed: 30, got: 3 }
            .to_string()
            .contains("30"));
    }
}

#[cfg(test)]
mod flexible_tests {
    use super::*;
    use crate::synth::SyntheticTrace;
    use resq_dist::{Mixture, Normal, Sample, Truncated as Trunc};

    fn bimodal_trace(n: usize, seed: u64) -> Vec<f64> {
        let truth = Mixture::new(vec![
            (0.7, Normal::new(4.0, 0.3).unwrap()),
            (0.3, Normal::new(9.0, 0.5).unwrap()),
        ])
        .unwrap();
        SyntheticTrace::clean(truth)
            .generate(n, seed)
            .completed_durations()
    }

    #[test]
    fn bimodal_trace_learns_a_mixture() {
        let data = bimodal_trace(8000, 1);
        // Plain pipeline rejects...
        assert!(matches!(
            learn_checkpoint_law(&data, LearnConfig::default()),
            Err(LearnError::ModelRejected { .. })
        ));
        // ...flexible pipeline fits a 2-component mixture.
        let learned = learn_checkpoint_law_flexible(&data, LearnConfig::default(), 3).unwrap();
        assert_eq!(learned.components, 2);
        assert!(learned.ks_p_value >= LearnConfig::default().min_p_value);
        // And plans sensibly: the optimum may gamble on the fast mode.
        let (opt, pess) = learned.plan(30.0).unwrap();
        assert!(opt.expected_work >= pess.expected_work - 1e-9);
        assert!(opt.lead_time < 12.0);
    }

    #[test]
    fn unimodal_trace_stays_parametric() {
        let truth = Trunc::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        let data = SyntheticTrace::clean(truth)
            .generate(5000, 2)
            .completed_durations();
        let learned = learn_checkpoint_law_flexible(&data, LearnConfig::default(), 3).unwrap();
        assert_eq!(learned.components, 1);
        assert_eq!(learned.family, ModelFamily::Normal);
    }

    #[test]
    fn mixture_plan_beats_pessimistic_in_simulation() {
        use resq_core::FixedLeadPolicy;
        // Plan with the learned mixture; execute against the true bimodal
        // law. The optimal plan should beat the pessimistic one.
        let data = bimodal_trace(8000, 3);
        let learned = learn_checkpoint_law_flexible(&data, LearnConfig::default(), 3).unwrap();
        let r = 30.0;
        let (opt, pess) = learned.plan(r).unwrap();

        let truth = Mixture::new(vec![
            (0.7, Normal::new(4.0, 0.3).unwrap()),
            (0.3, Normal::new(9.0, 0.5).unwrap()),
        ])
        .unwrap();
        let mut rng = resq_dist::Xoshiro256pp::new(4);
        let trials = 100_000;
        let mut saved_opt = 0.0;
        let mut saved_pess = 0.0;
        for _ in 0..trials {
            let c = truth.sample(&mut rng);
            if c <= opt.lead_time {
                saved_opt += r - opt.lead_time;
            }
            let c2 = truth.sample(&mut rng);
            if c2 <= pess.lead_time {
                saved_pess += r - pess.lead_time;
            }
        }
        assert!(
            saved_opt > saved_pess,
            "opt {} <= pess {}",
            saved_opt / trials as f64,
            saved_pess / trials as f64
        );
        let _ = FixedLeadPolicy::new("doc", opt.lead_time);
    }
}
