//! §3 — checkpointing at any instant.
//!
//! The application is preemptible: a checkpoint may start at any time
//! `R − X` (i.e. `X` seconds before the reservation ends). With checkpoint
//! duration `C` following a law truncated to `[a, b]`, the work saved is
//! `W(X) = (R − X)·1[C ≤ X]` for `X ≤ b` and `R − X` beyond, so
//!
//! ```text
//! E[W(X)] = (F(X) − F(a)) / (F(b) − F(a)) · (R − X)   for a ≤ X ≤ b
//!           R − X                                      for b < X ≤ R
//! ```
//!
//! [`Preemptible`] evaluates this for **any** continuous checkpoint law
//! with bounded support and finds `X_opt`; [`closed_form`] provides the
//! paper's per-law solutions (closed-form where they exist) that the
//! generic optimizer is tested against.

pub mod closed_form;

use crate::error::CoreError;
use resq_dist::Continuous;
use resq_numerics::{grid_max, GridSpec};

/// A checkpoint decision for the preemptible scenario: start the
/// checkpoint `lead_time` seconds before the end of the reservation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPlan {
    /// `X`: seconds before the reservation end at which the checkpoint
    /// starts (the checkpoint begins at absolute time `R − X`).
    pub lead_time: f64,
    /// Expected work saved, `E[W(X)]`.
    pub expected_work: f64,
    /// Probability that the checkpoint completes in time, `P(C ≤ X)`.
    pub success_probability: f64,
}

/// The §3 model: a preemptible application in a reservation of length `R`
/// with stochastic checkpoint duration `C ~ ckpt`.
///
/// `ckpt` must have bounded support `[a, b]` with `0 < a < b ≤ R` — use
/// [`resq_dist::Truncated`] to truncate any parent law, exactly as the
/// paper does.
///
/// ```
/// use resq_dist::Uniform;
/// use resq_core::Preemptible;
///
/// // Figure 1(a): C ~ Uniform([1, 7.5]), R = 10.
/// let m = Preemptible::new(Uniform::new(1.0, 7.5)?, 10.0)?;
/// let plan = m.optimize();
/// assert!((plan.lead_time - 5.5).abs() < 1e-6);     // X_opt = (R+a)/2
/// assert!(plan.expected_work > m.pessimistic().expected_work);
/// # Ok::<(), resq_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Preemptible<C: Continuous> {
    ckpt: C,
    r: f64,
    a: f64,
    b: f64,
}

impl<C: Continuous> Preemptible<C> {
    /// Builds the model; validates `R` finite positive and the support
    /// condition `0 < a < b ≤ R`.
    pub fn new(ckpt: C, r: f64) -> Result<Self, CoreError> {
        if !(r > 0.0) || !r.is_finite() {
            return Err(CoreError::InvalidReservation { r });
        }
        let (a, b) = ckpt.support();
        if !(a > 0.0) || !(a < b) || !(b <= r) || !b.is_finite() {
            return Err(CoreError::CheckpointSupportOutOfRange { a, b, r });
        }
        Ok(Self { ckpt, r, a, b })
    }

    /// Builds the model for a reservation that begins with a recovery of
    /// length `recovery` — the paper's §2 observation: "this amounts to
    /// working with a reservation of length R − r". Lead times returned
    /// by this model are still measured from the true end of the
    /// reservation.
    pub fn with_recovery(ckpt: C, r: f64, recovery: f64) -> Result<Self, CoreError> {
        if !(recovery >= 0.0) || !(recovery < r) {
            return Err(CoreError::InvalidParameter {
                name: "recovery",
                value: recovery,
            });
        }
        Self::new(ckpt, r - recovery)
    }

    /// Reservation length `R`.
    pub fn reservation(&self) -> f64 {
        self.r
    }

    /// Checkpoint support `[a, b] = [C_min, C_max]`.
    pub fn checkpoint_bounds(&self) -> (f64, f64) {
        (self.a, self.b)
    }

    /// The checkpoint-duration law.
    pub fn checkpoint_law(&self) -> &C {
        &self.ckpt
    }

    /// Probability that a checkpoint started `x` seconds before the end
    /// completes in time: `P(C ≤ x)`.
    pub fn success_probability(&self, x: f64) -> f64 {
        self.ckpt.cdf(x)
    }

    /// The paper's Equation (1): expected work saved when checkpointing
    /// `x` seconds before the end of the reservation.
    ///
    /// Defined for `x ∈ [a, R]`; values below `a` return 0 (the checkpoint
    /// cannot finish) and values above `R` are out of domain (NaN).
    pub fn expected_work(&self, x: f64) -> f64 {
        // Tolerate rounding-level overshoot of R (callers often compute
        // grid points as a + (R−a)·i/n, which can land one ulp above R).
        let tol = 1e-9 * (1.0 + self.r.abs());
        if x.is_nan() || x > self.r + tol {
            return f64::NAN;
        }
        let x = x.min(self.r);
        if x < self.a {
            return 0.0;
        }
        if x > self.b {
            return self.r - x;
        }
        self.ckpt.cdf(x) * (self.r - x)
    }

    /// Builds the plan for an explicit lead time `x`.
    pub fn plan_at(&self, x: f64) -> CheckpointPlan {
        CheckpointPlan {
            lead_time: x,
            expected_work: self.expected_work(x),
            success_probability: self.success_probability(x).min(1.0),
        }
    }

    /// Maximizes `E[W(X)]` over `X ∈ [a, R]`.
    ///
    /// A coarse-grid + Brent search; the objective is continuous,
    /// piecewise smooth and (for the paper's laws) unimodal, but no
    /// unimodality is assumed. Since `E[W]` strictly decreases beyond
    /// `b`, the search interval is `[a, b]`.
    pub fn optimize(&self) -> CheckpointPlan {
        let _span = resq_obs::span::enter(resq_obs::span_name::SOLVE_PREEMPTIBLE);
        let e = grid_max(
            |x| self.expected_work(x),
            self.a,
            self.b,
            GridSpec {
                points: 512,
                xtol: 1e-10,
            },
        );
        self.plan_at(e.x)
    }

    /// The pessimistic (risk-free) plan `X = b = C_max`: the checkpoint
    /// always succeeds, saving exactly `R − b`.
    pub fn pessimistic(&self) -> CheckpointPlan {
        self.plan_at(self.b)
    }

    /// Expected work saved by a clairvoyant oracle that knows the actual
    /// value of `C` and checkpoints exactly `C` seconds before the end:
    /// `E[R − C] = R − E[C]`. Upper-bounds every implementable policy.
    pub fn oracle_expected_work(&self) -> f64 {
        self.r - self.ckpt.mean()
    }

    /// Ratio `E[W(b)] / E[W(X_opt)]` — the fraction of the optimal
    /// expected work the pessimistic policy achieves (the paper reports
    /// 80% for Figure 1(a)).
    pub fn pessimistic_efficiency(&self) -> f64 {
        let opt = self.optimize();
        if opt.expected_work <= 0.0 {
            return 1.0;
        }
        self.pessimistic().expected_work / opt.expected_work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Normal, Truncated, Uniform};

    fn fig1a() -> Preemptible<Uniform> {
        // Figure 1(a): Uniform on [1, 7.5], R = 10.
        Preemptible::new(Uniform::new(1.0, 7.5).unwrap(), 10.0).unwrap()
    }

    #[test]
    fn construction_validates() {
        let u = Uniform::new(1.0, 7.5).unwrap();
        assert!(Preemptible::new(u, 10.0).is_ok());
        // b > R.
        assert!(matches!(
            Preemptible::new(Uniform::new(1.0, 12.0).unwrap(), 10.0),
            Err(CoreError::CheckpointSupportOutOfRange { .. })
        ));
        // a = 0 (paper requires a > 0).
        assert!(Preemptible::new(Uniform::new(0.0, 5.0).unwrap(), 10.0).is_err());
        // Unbounded support.
        assert!(Preemptible::new(Normal::new(3.0, 1.0).unwrap(), 10.0).is_err());
        // Bad R.
        assert!(matches!(
            Preemptible::new(Uniform::new(1.0, 5.0).unwrap(), -3.0),
            Err(CoreError::InvalidReservation { .. })
        ));
    }

    #[test]
    fn expected_work_boundary_values() {
        let m = fig1a();
        // E[W(a)] = 0 (checkpoint fails almost surely).
        assert!(m.expected_work(1.0).abs() < 1e-12);
        // E[W(R)] = 0 (no work executed).
        assert!(m.expected_work(10.0).abs() < 1e-12);
        // Below a: zero; above R: NaN.
        assert_eq!(m.expected_work(0.5), 0.0);
        assert!(m.expected_work(10.5).is_nan());
        // Beyond b the curve is the line R − X.
        assert!((m.expected_work(8.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fig1a_uniform_interior_optimum() {
        // Paper: X_opt = (R+a)/2 = 5.5, E[W] ≈ 3.1, pessimistic 2.5 (80%).
        let m = fig1a();
        let plan = m.optimize();
        assert!(
            (plan.lead_time - 5.5).abs() < 1e-6,
            "X_opt {}",
            plan.lead_time
        );
        let expected = (5.5 - 1.0) / 6.5 * 4.5; // (X−a)/(b−a) · (R−X) ≈ 3.115
        assert!((plan.expected_work - expected).abs() < 1e-9);
        assert!(
            (plan.expected_work - 3.1).abs() < 0.05,
            "E[W] {}",
            plan.expected_work
        );
        let pess = m.pessimistic();
        assert!((pess.expected_work - 2.5).abs() < 1e-12);
        assert!((pess.success_probability - 1.0).abs() < 1e-12);
        let eff = m.pessimistic_efficiency();
        assert!((eff - 0.80).abs() < 0.01, "efficiency {eff}");
    }

    #[test]
    fn fig1b_uniform_saturated_optimum() {
        // Figure 1(b): Uniform on [1, 5], R = 10 → X_opt = b = 5.
        let m = Preemptible::new(Uniform::new(1.0, 5.0).unwrap(), 10.0).unwrap();
        let plan = m.optimize();
        assert!(
            (plan.lead_time - 5.0).abs() < 1e-6,
            "X_opt {}",
            plan.lead_time
        );
        assert!((plan.expected_work - 5.0).abs() < 1e-9);
        assert!((m.pessimistic_efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn oracle_dominates_every_feasible_plan() {
        let m = fig1a();
        let oracle = m.oracle_expected_work();
        // Oracle = R − E[C] = 10 − 4.25 = 5.75.
        assert!((oracle - 5.75).abs() < 1e-9);
        assert!(oracle >= m.optimize().expected_work);
        assert!(oracle >= m.pessimistic().expected_work);
    }

    #[test]
    fn truncated_normal_model_works_end_to_end() {
        // Figure 3(a)-style: Normal(3.5, 1) truncated to [1, 7.5], R = 10.
        let c = Truncated::new(Normal::new(3.5, 1.0).unwrap(), 1.0, 7.5).unwrap();
        let m = Preemptible::new(c, 10.0).unwrap();
        let plan = m.optimize();
        assert!(plan.lead_time > 1.0 && plan.lead_time < 7.5);
        assert!(plan.expected_work > 0.0);
        // The optimum value beats a handful of probes.
        for &x in &[1.5, 3.0, 4.0, 5.0, 6.0, 7.0, 7.5] {
            assert!(
                m.expected_work(x) <= plan.expected_work + 1e-9,
                "probe {x} beats optimum"
            );
        }
    }

    #[test]
    fn with_recovery_shrinks_the_reservation() {
        let u = Uniform::new(1.0, 5.0).unwrap();
        let plain = Preemptible::new(u, 8.0).unwrap();
        let rec = Preemptible::with_recovery(u, 10.0, 2.0).unwrap();
        assert_eq!(rec.reservation(), 8.0);
        assert!((rec.optimize().lead_time - plain.optimize().lead_time).abs() < 1e-9);
        assert!(Preemptible::with_recovery(u, 10.0, 10.0).is_err());
        assert!(Preemptible::with_recovery(u, 10.0, -1.0).is_err());
    }

    #[test]
    fn success_probability_matches_cdf() {
        let m = fig1a();
        assert!((m.success_probability(4.25) - 0.5).abs() < 1e-12);
        assert_eq!(m.plan_at(7.5).success_probability, 1.0);
    }
}
