//! What the §4 planners need from a checkpoint: the probability that it
//! completes in the time left.
//!
//! Equation (3) and the §4.3 comparison read the checkpoint only through
//! `P(C ≤ c)`. [`CheckpointFit`] is that function plus the shape facts
//! the planners' validation and fast path use. Every [`Continuous`] law
//! implements it with its CDF. The retry model
//! [`RetryPreemptible`](crate::RetryPreemptible) implements it with its
//! success profile `S(c)`, so `StaticStrategy` and `DynamicStrategy` over
//! a retry model are the retry-aware §4.2 and §4.3 plans.

use crate::error::CoreError;
use resq_dist::Continuous;

/// A checkpoint as the §4 planners see it.
pub trait CheckpointFit {
    /// Probability that the checkpoint completes within `c` seconds; 0
    /// when `c ≤ 0`.
    fn fit_probability(&self, c: f64) -> f64;

    /// Support `(lo, hi)` of one write's duration. The planners reject
    /// `lo < 0`, and the fit lattice's cache key includes both ends.
    fn write_support(&self) -> (f64, f64);

    /// Width of one write's central 99.8% quantile range: the CDF
    /// shoulder that sizes the fast quadrature's panels.
    fn fit_shoulder(&self) -> f64;

    /// Largest `c` at which [`CheckpointFit::fit_probability`] is
    /// defined. Unbounded unless the model tabulates it on a finite range.
    fn fit_horizon(&self) -> f64 {
        f64::INFINITY
    }
}

impl<C: Continuous> CheckpointFit for C {
    #[inline]
    fn fit_probability(&self, c: f64) -> f64 {
        if c <= 0.0 {
            0.0
        } else {
            self.cdf(c)
        }
    }

    fn write_support(&self) -> (f64, f64) {
        self.support()
    }

    fn fit_shoulder(&self) -> f64 {
        self.quantile(0.999) - self.quantile(0.001)
    }
}

/// The checks every §4 planner applies to its checkpoint and
/// reservation: `R` positive and finite, one write's support in
/// `[0, ∞)`, and `R` within the checkpoint model's horizon.
pub(crate) fn validate_checkpoint<C: CheckpointFit>(ckpt: &C, r: f64) -> Result<(), CoreError> {
    if !(r > 0.0) || !r.is_finite() {
        return Err(CoreError::InvalidReservation { r });
    }
    let (lo, _) = ckpt.write_support();
    if lo < -1e-9 {
        return Err(CoreError::NegativeCheckpointSupport { lo });
    }
    let horizon = ckpt.fit_horizon();
    if r > horizon {
        return Err(CoreError::ReservationBeyondFitHorizon { r, horizon });
    }
    Ok(())
}
