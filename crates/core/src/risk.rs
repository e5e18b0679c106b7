//! Risk-aware planning — beyond the paper's expectation objective.
//!
//! §3 frames the trade-off as "pessimistic but risk-free" (`X = C_max`,
//! success probability 1) versus expectation-optimal (`X_opt`, success
//! probability `F_C(X_opt) < 1`). Production users often want the point
//! *between* those: the best expected work subject to a floor on the
//! success probability (an SLO). For the preemptible scenario this has a
//! clean solution because the saved work is the two-point random variable
//! `W(X) ∈ {0, R − X}` with `P(W = R−X) = F_C(X)`:
//!
//! * the constraint `P(success) ≥ p` means `X ≥ F_C⁻¹(p)`;
//! * `E[W(X)]` is unimodal with maximum at `X_opt`, so the constrained
//!   optimum is simply `max(X_opt, F_C⁻¹(p))` (clamped to `b`).

use crate::error::CoreError;
use crate::preemptible::{CheckpointPlan, Preemptible};
use resq_dist::Continuous;

/// Full risk profile of a §3 plan: the saved-work distribution is
/// two-point, so everything is closed-form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskProfile {
    /// The plan's lead time `X`.
    pub lead_time: f64,
    /// Work saved on success, `R − X`.
    pub work_on_success: f64,
    /// Success probability `F_C(X)`.
    pub success_probability: f64,
    /// Expected saved work.
    pub expected_work: f64,
    /// Variance of saved work.
    pub variance: f64,
    /// `q`-quantile of saved work is 0 for `q < 1 − F_C(X)` and `R − X`
    /// above; this is the probability mass at zero.
    pub loss_probability: f64,
}

impl<C: Continuous> Preemptible<C> {
    /// Risk profile of the plan with lead time `x`.
    pub fn risk_profile(&self, x: f64) -> RiskProfile {
        let p = self.success_probability(x).clamp(0.0, 1.0);
        let w = (self.reservation() - x).max(0.0);
        RiskProfile {
            lead_time: x,
            work_on_success: w,
            success_probability: p,
            expected_work: p * w,
            variance: p * (1.0 - p) * w * w,
            loss_probability: 1.0 - p,
        }
    }

    /// Quantile of the saved work under the plan with lead time `x`:
    /// `0` for `q < 1 − F_C(x)`, `R − x` otherwise.
    pub fn work_quantile(&self, x: f64, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile level {q} out of [0,1]");
        let profile = self.risk_profile(x);
        if q < profile.loss_probability {
            0.0
        } else {
            profile.work_on_success
        }
    }

    /// The best plan whose success probability is at least `min_success`:
    /// `X = clamp(max(X_opt, F_C⁻¹(min_success)), a, b)`.
    ///
    /// `min_success = 0` recovers the unconstrained optimum;
    /// `min_success = 1` recovers the pessimistic plan. Errors on levels
    /// outside `[0, 1]`.
    pub fn optimize_with_min_success(&self, min_success: f64) -> Result<CheckpointPlan, CoreError> {
        if !(0.0..=1.0).contains(&min_success) || min_success.is_nan() {
            return Err(CoreError::InvalidParameter {
                name: "min_success",
                value: min_success,
            });
        }
        let unconstrained = self.optimize();
        let (a, b) = self.checkpoint_bounds();
        let x_floor = if min_success <= 0.0 {
            a
        } else {
            self.checkpoint_law().quantile(min_success).clamp(a, b)
        };
        let x = unconstrained.lead_time.max(x_floor).min(b);
        Ok(self.plan_at(x))
    }

    /// The efficient frontier: `(min_success, E[W])` pairs for a grid of
    /// success floors — what a user gives up for reliability.
    pub fn risk_frontier(&self, points: usize) -> Vec<(f64, f64)> {
        let n = points.max(2);
        (0..n)
            .map(|i| {
                let p = i as f64 / (n - 1) as f64;
                let plan = self
                    .optimize_with_min_success(p)
                    .expect("p in [0,1] by construction");
                (p, plan.expected_work)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::Uniform;

    fn fig1a() -> Preemptible<Uniform> {
        Preemptible::new(Uniform::new(1.0, 7.5).unwrap(), 10.0).unwrap()
    }

    #[test]
    fn profile_matches_expectation_formula() {
        let m = fig1a();
        for &x in &[2.0, 4.0, 5.5, 7.0] {
            let p = m.risk_profile(x);
            assert!(
                (p.expected_work - m.expected_work(x)).abs() < 1e-12,
                "x={x}"
            );
            assert!(
                (p.variance
                    - p.success_probability
                        * (1.0 - p.success_probability)
                        * p.work_on_success
                        * p.work_on_success)
                    .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn quantiles_are_two_point() {
        let m = fig1a();
        // At X = 5.5: success prob ≈ 0.692; loss prob ≈ 0.308.
        let x = 5.5;
        let loss = m.risk_profile(x).loss_probability;
        assert!((loss - (1.0 - 4.5 / 6.5)).abs() < 1e-12);
        assert_eq!(m.work_quantile(x, loss * 0.5), 0.0);
        assert_eq!(m.work_quantile(x, loss + 0.1), 4.5);
        assert_eq!(m.work_quantile(x, 1.0), 4.5);
    }

    #[test]
    fn constrained_optimum_interpolates_between_optimal_and_pessimistic() {
        let m = fig1a();
        let free = m.optimize_with_min_success(0.0).unwrap();
        assert!((free.lead_time - 5.5).abs() < 1e-6);
        let safe = m.optimize_with_min_success(1.0).unwrap();
        assert!((safe.lead_time - 7.5).abs() < 1e-9);
        assert!((safe.success_probability - 1.0).abs() < 1e-12);
        // 90% success floor: F⁻¹(0.9) = 1 + 0.9·6.5 = 6.85 > X_opt.
        let slo = m.optimize_with_min_success(0.9).unwrap();
        assert!((slo.lead_time - 6.85).abs() < 1e-9, "{}", slo.lead_time);
        assert!(slo.success_probability >= 0.9 - 1e-12);
        // Expected work is sandwiched.
        assert!(slo.expected_work <= free.expected_work + 1e-12);
        assert!(slo.expected_work >= safe.expected_work - 1e-12);
    }

    #[test]
    fn low_floor_is_inactive() {
        // If the unconstrained optimum already satisfies the floor, the
        // constraint changes nothing.
        let m = fig1a();
        let free = m.optimize();
        let p_at_opt = free.success_probability;
        let plan = m.optimize_with_min_success(p_at_opt * 0.5).unwrap();
        assert!((plan.lead_time - free.lead_time).abs() < 1e-9);
    }

    #[test]
    fn frontier_is_monotone_decreasing_in_reliability() {
        let m = fig1a();
        let frontier = m.risk_frontier(21);
        assert_eq!(frontier.len(), 21);
        assert_eq!(frontier[0].0, 0.0);
        assert_eq!(frontier[20].0, 1.0);
        for w in frontier.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "E[W] increased with reliability: {w:?}"
            );
        }
        // Endpoints match the named plans.
        assert!((frontier[0].1 - m.optimize().expected_work).abs() < 1e-9);
        assert!((frontier[20].1 - m.pessimistic().expected_work).abs() < 1e-9);
    }

    #[test]
    fn invalid_levels_rejected() {
        let m = fig1a();
        assert!(m.optimize_with_min_success(-0.1).is_err());
        assert!(m.optimize_with_min_success(1.1).is_err());
        assert!(m.optimize_with_min_success(f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn quantile_level_validated() {
        let _ = fig1a().work_quantile(5.0, 1.5);
    }
}
