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

    /// [`CheckpointFit::fit_probability`] of every `cs[i]` into `out[i]`,
    /// with the same bits; `cs` and `out` have the same length. The
    /// exact quadratures ask for one Gauss–Kronrod panel's worth at a
    /// time. The default is the per-point loop; a law serves it from
    /// [`Continuous::cdf_into`].
    fn fit_probabilities(&self, cs: &[f64], out: &mut [f64]) {
        for (o, &c) in out.iter_mut().zip(cs) {
            *o = self.fit_probability(c);
        }
    }

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

    fn fit_probabilities(&self, cs: &[f64], out: &mut [f64]) {
        self.cdf_into(cs, out);
        for (o, &c) in out.iter_mut().zip(cs) {
            if c <= 0.0 {
                *o = 0.0;
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckpointReliability, RetryPolicy, RetryPreemptible};
    use resq_dist::{Constant, LogNormal, Normal, Truncated};

    /// Asserts that `fit.fit_probabilities` gives `fit.fit_probability`'s
    /// bits at every `cs[i]`.
    fn check(name: &str, fit: &dyn CheckpointFit, cs: &[f64]) {
        let mut out = vec![f64::NAN; cs.len()];
        fit.fit_probabilities(cs, &mut out);
        for (&c, &got) in cs.iter().zip(&out) {
            let want = fit.fit_probability(c);
            assert_eq!(got.to_bits(), want.to_bits(), "{name}: c = {c}");
        }
    }

    #[test]
    fn fit_probabilities_gives_the_per_point_bits() {
        // Laws through `cdf_into` (on lanes for the truncated Normal and
        // the LogNormal), a retry model through the per-point default.
        // At c ≤ 0 the fit is 0 even where the law's CDF is not: a
        // checkpoint that always takes 0 s.
        let cs: Vec<f64> = (-20..=80).map(|i| 0.1 * i as f64).collect();
        let specials = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let all: Vec<f64> = cs.iter().copied().chain(specials).collect();
        let ckpt = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        check("truncated normal", &ckpt, &all);
        check(
            "lognormal",
            &LogNormal::from_mean_sd(3.0, 0.6).unwrap(),
            &all,
        );
        check("instant", &Constant::new(0.0).unwrap(), &all);
        let retry = RetryPreemptible::new(
            ckpt,
            8.0,
            CheckpointReliability::PerAttempt { p: 0.5 },
            RetryPolicy::Immediate { max_attempts: 3 },
        )
        .unwrap();
        check("retry model", &retry, &cs);
    }
}
