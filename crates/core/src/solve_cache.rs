//! Solver state for the §4 fast path.
//!
//! The static search (§4.2) and the dynamic threshold bracketing (§4.3)
//! evaluate the same checkpoint fit probability
//! ([`CheckpointFit::fit_probability`]: a law's `P(C ≤ c)` or a retry
//! model's `S(c)`) at hundreds of quadrature nodes per candidate.
//! Each planner call tabulates it once with `fit_lattice` on 4 097
//! nodes. The fit never decreases, so the nodes past its first exact 1
//! are filled without an evaluation (1 176 evaluations at Fig. 8's
//! checkpoint; all 4 097 for a retry model whose `S(c)` stays below 1),
//! and the lattice is reused across every `n` probed by one
//! `StaticStrategy::optimize` and every point of one
//! `DynamicStrategy::threshold` scan. One exact solve
//! (`lattice::solve_exact`) tabulates it once for both of its planners
//! (`StaticStrategy::optimize_on`, `DynamicStrategy::threshold_on`):
//! they read the same checkpoint over the same `[0, R]`. The lattice is
//! never shared between solves: nothing short of the checkpoint's
//! parameters identifies its fit, and [`CheckpointFit`] exposes none.
//!
//! Both planners integrate over the lattice with one check,
//! [`resq_numerics::gauss_legendre_two_resolution`] at this module's
//! order (`FAST_GL_ORDER`) and tolerance (`FAST_GL_TOL`), on panels
//! sized by `segments_for_window`. When its two resolutions disagree the
//! static objective integrates that stretch by adaptive Simpson instead,
//! and the dynamic scan decides that point on its exact path.
//!
//! The lattice also says where no quadrature is needed: from its first
//! all-ones node on (`LatticeCache::saturation_nodes`) the checkpoint
//! surely fits, and the planners use closed forms there — the sum law's
//! partial mean in the static search, a lower bound on `E[W_{+1}]` that
//! certifies dynamic scan points, to which the scan's quadrature
//! certificate adds only the shoulder. The same partial means, cut
//! where the lattice first reaches a few fit levels, bracket each
//! static grid point, so the search skips the points that cannot win.
//!
//! [`SolveCache`] holds what *is* safe to share across solves: the
//! fixed-order Gauss–Legendre rule the fast quadrature path uses.
//! `solve_exact` takes one, so a caller answering many queries builds
//! the rule once; `optimize` and `threshold` build their own.
//!
//! The fit lattice only ever steers *searches*: winners are re-evaluated
//! through the exact reference path (see `StaticStrategy::optimize`).

use crate::workflow::fit::CheckpointFit;
use resq_numerics::{GaussLegendre, LatticeCache};

/// Cells in a fit-probability lattice: step `R/4096`, interpolation
/// error `≲ (R/4096)²·max|pdf′|/8` — far below the resolution any
/// search phase needs.
pub(crate) const FIT_LATTICE_CELLS: usize = 4096;

/// Order of the solver's fixed Gauss–Legendre rule. With the two-
/// resolution check on its minimum 2 + 4 panels the accepting path costs
/// `6 × 20 = 120` integrand evaluations — roughly half the adaptive
/// integrator's forced-refinement floor, on a much cheaper integrand.
pub(crate) const FAST_GL_ORDER: usize = 20;

/// Relative agreement demanded of the two Gauss–Legendre resolutions
/// before either planner's fast path trusts them. The fit lattice's own
/// interpolation error is ~1e-5-scale, so asking the quadrature for more
/// would be wasted work.
pub(crate) const FAST_GL_TOL: f64 = 1e-6;

/// Shared solver state for the §4 fast path: the fixed-order quadrature
/// rule.
///
/// `StaticStrategy::optimize` and `DynamicStrategy::threshold` build a
/// fresh one per call; [`crate::lattice::solve_exact`] takes one from
/// its caller, who may share it across solves. Sharing one changes no
/// answer.
#[derive(Debug)]
pub struct SolveCache {
    gl: GaussLegendre,
}

impl Default for SolveCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SolveCache {
    /// Solver state with the standard Gauss–Legendre rule.
    pub fn new() -> Self {
        Self {
            gl: GaussLegendre::new(FAST_GL_ORDER),
        }
    }

    /// The fixed-order Gauss–Legendre rule for fast quadrature.
    pub(crate) fn gl(&self) -> &GaussLegendre {
        &self.gl
    }
}

/// The fit-probability lattice `c ↦` [`CheckpointFit::fit_probability`]
/// tabulated over `[0, r]`, for one planner call. The fit never
/// decreases, so the nodes past its first exact 1 are filled without a
/// call ([`LatticeCache::build_cdf`]).
pub(crate) fn fit_lattice<C: CheckpointFit>(ckpt: &C, r: f64) -> LatticeCache {
    LatticeCache::build_cdf(|c| ckpt.fit_probability(c), 0.0, r, FIT_LATTICE_CELLS)
}

/// Gauss–Legendre coarse-segment hint for the fast quadrature path:
/// enough panels that a feature of width `feature` (the checkpoint law's
/// CDF shoulder) spans at least one of them across a `window`-wide
/// integration range, so the two check resolutions sample the feature
/// instead of aliasing it. Degenerate features (zero-width, non-finite)
/// ask for the ceiling and let the a-posteriori agreement check
/// arbitrate; [`resq_numerics::gauss_legendre_two_resolution`] clamps
/// the hint to its range (f64→usize casts saturate).
pub(crate) fn segments_for_window(window: f64, feature: f64) -> usize {
    let ratio = window / feature;
    if ratio.is_finite() {
        ratio.ceil() as usize
    } else {
        usize::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Continuous, Normal, Truncated};

    fn ckpt(mu: f64, sigma: f64) -> Truncated<Normal> {
        Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
    }

    /// A checkpoint that counts its fit evaluations.
    struct Counted<C> {
        inner: C,
        calls: std::cell::Cell<usize>,
    }

    impl<C: CheckpointFit> CheckpointFit for Counted<C> {
        fn fit_probability(&self, c: f64) -> f64 {
            self.calls.set(self.calls.get() + 1);
            self.inner.fit_probability(c)
        }
        fn write_support(&self) -> (f64, f64) {
            self.inner.write_support()
        }
        fn fit_shoulder(&self) -> f64 {
            self.inner.fit_shoulder()
        }
    }

    /// Evaluations `fit_lattice` spends on `ckpt` over `[0, r]`, and the
    /// nodes up to the first exact 1 (all of them when there is none).
    fn lattice_calls<C: CheckpointFit>(ckpt: C, r: f64) -> (usize, usize) {
        let counted = Counted {
            inner: ckpt,
            calls: std::cell::Cell::new(0),
        };
        let fit = fit_lattice(&counted, r);
        let h = r / FIT_LATTICE_CELLS as f64;
        let upto_one = fit
            .saturation_nodes()
            .1
            .map_or(FIT_LATTICE_CELLS + 1, |one| (one / h).round() as usize + 1);
        (counted.calls.get(), upto_one)
    }

    #[test]
    fn lattice_stops_evaluating_at_the_first_exact_one() {
        use crate::{CheckpointReliability, RetryPolicy, RetryPreemptible};
        // Fig. 8's checkpoint N[0,∞)(5, 0.4²) over [0, 29]: the first
        // 1 176 nodes are evaluated, the other 2 921 are filled.
        let (calls, upto_one) = lattice_calls(ckpt(5.0, 0.4), 29.0);
        assert!(upto_one <= 1_176, "{upto_one} nodes up to the first 1");
        // Debug builds evaluate every filled node to check it is 1.
        let want = if cfg!(debug_assertions) {
            FIT_LATTICE_CELLS + 1
        } else {
            upto_one
        };
        assert_eq!(calls, want);
        // Three attempts that each succeed with probability 0.8: S(c)
        // stays below 1 − 0.2³, so every node is evaluated.
        let model = RetryPreemptible::new(
            ckpt(5.0, 0.4),
            29.0,
            CheckpointReliability::PerAttempt { p: 0.8 },
            RetryPolicy::Immediate { max_attempts: 3 },
        )
        .unwrap();
        assert_eq!(
            lattice_calls(model, 29.0),
            (FIT_LATTICE_CELLS + 1, FIT_LATTICE_CELLS + 1)
        );
    }

    #[test]
    fn lattice_matches_fit_probability() {
        let law = ckpt(5.0, 0.4);
        let lat = fit_lattice(&law, 29.0);
        // Linear-interpolation bound: h²·max|cdf″|/8 with h = 29/4096
        // and max|pdf′| ≈ 1.6 for N[0,∞)(5, 0.4²) — about 1e-5, largest
        // near the law's inflection points (c ≈ μ_C ± σ_C).
        for k in 0..=290 {
            let c = 0.1 * k as f64;
            let exact = if c <= 0.0 { 0.0 } else { law.cdf(c) };
            assert!((lat.eval(c) - exact).abs() < 2e-5, "c = {c}");
        }
    }
}
