//! Solver state for the §4 fast path.
//!
//! The static search (§4.2) and the dynamic threshold bracketing (§4.3)
//! evaluate the same checkpoint fit probability
//! ([`CheckpointFit::fit_probability`]: a law's `P(C ≤ c)` or a retry
//! model's `S(c)`) at hundreds of quadrature nodes per candidate.
//! Each planner call tabulates it once with `fit_lattice` (4 097
//! evaluations) and reuses that lattice across every `n` probed by one
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
//! certifies dynamic scan points. The same partial means bracket each
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
/// tabulated over `[0, r]`, for one planner call.
pub(crate) fn fit_lattice<C: CheckpointFit>(ckpt: &C, r: f64) -> LatticeCache {
    LatticeCache::build(|c| ckpt.fit_probability(c), 0.0, r, FIT_LATTICE_CELLS)
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
