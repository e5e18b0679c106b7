//! What the §4 planners need from a checkpoint: the probability that it
//! completes in the time left.
//!
//! Equation (3) and the §4.3 comparison read the checkpoint only through
//! `P(C ≤ c)`. [`CheckpointFit`] is that function plus the shape facts
//! the planners' validation, fast path and exact quadrature use. Every
//! [`Continuous`] law implements it with its CDF. The retry model
//! [`RetryPreemptible`](crate::RetryPreemptible) implements it with its
//! success profile `S(c)`, so `StaticStrategy` and `DynamicStrategy` over
//! a retry model are the retry-aware §4.2 and §4.3 plans.

use crate::error::CoreError;
use resq_dist::Continuous;

/// A checkpoint as the §4 planners see it.
pub trait CheckpointFit {
    /// Probability that the checkpoint completes within `c` seconds; 0
    /// when `c ≤ 0`.
    ///
    /// It must never decrease as `c` grows, as a CDF or a retry model's
    /// success profile does: the planners' fit tables stop evaluating at
    /// its first exact 1 and take 1 from there on
    /// ([`resq_numerics::tabulate_cdf`], which debug builds check).
    fn fit_probability(&self, c: f64) -> f64;

    /// Support `(lo, hi)` of one write's duration. The planners reject
    /// `lo < 0`.
    fn write_support(&self) -> (f64, f64);

    /// Width of one write's central 99.8% quantile range: the CDF
    /// shoulder that sizes the fast quadrature's panels.
    fn fit_shoulder(&self) -> f64;

    /// Largest `c` at which [`CheckpointFit::fit_probability`] is
    /// defined. Unbounded unless the model tabulates it on a finite range.
    fn fit_horizon(&self) -> f64 {
        f64::INFINITY
    }

    /// Step `h` of the uniform grid on which
    /// [`CheckpointFit::fit_probability`] interpolates linearly: the fit
    /// has a kink at every node `c = k·h`, and the exact quadrature cuts
    /// its panels there. `None`, the default, for a fit without one,
    /// such as a law's CDF.
    fn fit_grid(&self) -> Option<f64> {
        None
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

/// The nodes of `ckpt`'s fit grid ([`CheckpointFit::fit_grid`]) as
/// seen by an integrand that reads the fit at `c = origin − x`: every
/// `x = origin − k·h` strictly inside `(lo, hi)`, ascending. These are
/// the breakpoints of the exact quadrature; empty without a grid.
pub(crate) fn fit_breakpoints<C: CheckpointFit + ?Sized>(
    ckpt: &C,
    origin: f64,
    lo: f64,
    hi: f64,
) -> Vec<f64> {
    let Some(h) = ckpt.fit_grid() else {
        return Vec::new();
    };
    let first = ((origin - hi) / h).floor().max(0.0) as u64;
    let last = ((origin - lo) / h).ceil().max(0.0) as u64;
    (first..=last)
        .rev()
        .map(|k| origin - k as f64 * h)
        .filter(|&x| lo < x && x < hi)
        .collect()
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
