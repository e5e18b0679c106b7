//! Planner-level kernel cache for the §4 solver fast path.
//!
//! The static search (§4.2) and the dynamic threshold bracketing (§4.3)
//! evaluate the same checkpoint fit probability
//! ([`CheckpointFit::fit_probability`]: a law's `P(C ≤ c)` or a retry
//! model's `S(c)`) at hundreds of quadrature nodes per candidate, and
//! bench sweeps repeat that across whole `(R, μ_C, σ_C)` grids.
//! [`SolveCache`] owns the shared pieces:
//!
//! * a [`resq_numerics::KernelCache`] of fit-probability lattices keyed
//!   by a fingerprint of the checkpoint and `R` — reused across all
//!   `n` probed by one `optimize`, across `threshold`'s bracketing, and
//!   *across* solves when one cache is threaded through a sweep
//!   (`optimize_with` / `threshold_with`);
//! * the fixed-order Gauss–Legendre rule the fast quadrature path uses.
//!
//! Cache traffic is visible as the `solver_cache_hits_total` /
//! `solver_cache_misses_total` counters in every metrics exposition.
//!
//! The cache only ever steers *searches*: winners are re-evaluated
//! through the exact reference path (see `StaticStrategy::optimize`), so
//! sharing a cache across a sweep cannot change any reported artifact.

use crate::workflow::fit::CheckpointFit;
use resq_numerics::{GaussLegendre, KernelCache, LatticeCache};
use std::sync::Arc;

/// Cells in a fit-probability lattice: step `R/4096`, interpolation
/// error `≲ (R/4096)²·max|pdf′|/8` — far below the resolution any
/// search phase needs.
pub(crate) const FIT_LATTICE_CELLS: usize = 4096;

/// Order of the solver's fixed Gauss–Legendre rule. With the two-
/// resolution check in `gauss_legendre_checked` the accepting path costs
/// `6 × 20 = 120` integrand evaluations — roughly half the adaptive
/// integrator's forced-refinement floor, on a much cheaper integrand.
pub(crate) const FAST_GL_ORDER: usize = 20;

/// Number of distinct `(checkpoint, R)` lattices kept alive; grid
/// sweeps vary one law parameter at a time, so a handful suffices.
const KERNEL_CAPACITY: usize = 32;

/// Shared solver state for the §4 fast path: a keyed store of
/// fit-probability lattices plus the fixed-order quadrature rule.
///
/// `StaticStrategy::optimize` and `DynamicStrategy::threshold` build a
/// fresh one per call; sweeps that solve many nearby instances pass one
/// cache through `optimize_with` / `threshold_with` so consecutive
/// points with the same checkpoint and reservation reuse the lattice
/// (watch `solver_cache_hits_total` climb).
#[derive(Debug)]
pub struct SolveCache {
    kernels: KernelCache,
    gl: GaussLegendre,
}

impl Default for SolveCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SolveCache {
    /// An empty cache with the solver's standard rule and capacity.
    pub fn new() -> Self {
        Self {
            kernels: KernelCache::with_capacity(KERNEL_CAPACITY),
            gl: GaussLegendre::new(FAST_GL_ORDER),
        }
    }

    /// Number of lattices currently cached.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// The fixed-order Gauss–Legendre rule for fast quadrature.
    pub(crate) fn gl(&self) -> &GaussLegendre {
        &self.gl
    }

    /// The fit-probability lattice `c ↦` [`CheckpointFit::fit_probability`]
    /// tabulated over `[0, r]`, served from the cache when an equal
    /// fingerprint was seen before.
    pub(crate) fn fit_lattice<C: CheckpointFit>(&mut self, ckpt: &C, r: f64) -> Arc<LatticeCache> {
        let key = fit_key(ckpt, r);
        self.kernels.get_or_build(&key, || {
            LatticeCache::build(|c| ckpt.fit_probability(c), 0.0, r, FIT_LATTICE_CELLS)
        })
    }
}

/// Gauss–Legendre coarse-segment hint for the fast quadrature path:
/// enough panels that a feature of width `feature` (the checkpoint law's
/// CDF shoulder) spans at least one of them across a `window`-wide
/// integration range, so the two check resolutions sample the feature
/// instead of aliasing it. Degenerate features (zero-width, non-finite)
/// ask for the ceiling and let the a-posteriori agreement check
/// arbitrate.
pub(crate) fn segments_for_window(window: f64, feature: f64) -> usize {
    let ratio = window / feature;
    if ratio.is_finite() {
        // f64→usize casts saturate, and the clamp bounds both ends.
        (ratio.ceil() as usize).clamp(
            resq_numerics::GL_CHECK_SEGMENTS,
            resq_numerics::GL_MAX_SEGMENTS,
        )
    } else {
        resq_numerics::GL_MAX_SEGMENTS
    }
}

/// Fingerprint of `(checkpoint, R)`. [`CheckpointFit`] exposes no
/// parameters, so the checkpoint is identified by the exact bit patterns
/// of one write's support bounds and its fit probability at five fixed
/// probe points inside `(0, r)` — two checkpoints only share a lattice
/// when all eight words match bit-for-bit. Probing costs five
/// evaluations per lookup, noise against the 4097-evaluation lattice
/// build it saves.
fn fit_key<C: CheckpointFit>(ckpt: &C, r: f64) -> Vec<u64> {
    let (lo, hi) = ckpt.write_support();
    let mut key = Vec::with_capacity(8);
    key.push(r.to_bits());
    key.push(lo.to_bits());
    key.push(hi.to_bits());
    for k in 1..=5u32 {
        key.push(ckpt.fit_probability(r * k as f64 / 6.0).to_bits());
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Continuous, Normal, Truncated};

    fn ckpt(mu: f64, sigma: f64) -> Truncated<Normal> {
        Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
    }

    #[test]
    fn same_law_same_r_shares_a_lattice() {
        let mut cache = SolveCache::new();
        let a = cache.fit_lattice(&ckpt(5.0, 0.4), 29.0);
        let b = cache.fit_lattice(&ckpt(5.0, 0.4), 29.0);
        assert!(Arc::ptr_eq(&a, &b), "identical instances must hit");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_laws_or_r_get_distinct_lattices() {
        let mut cache = SolveCache::new();
        let a = cache.fit_lattice(&ckpt(5.0, 0.4), 29.0);
        let b = cache.fit_lattice(&ckpt(5.0, 0.5), 29.0);
        let c = cache.fit_lattice(&ckpt(5.0, 0.4), 30.0);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn lattice_matches_fit_probability() {
        let mut cache = SolveCache::new();
        let law = ckpt(5.0, 0.4);
        let lat = cache.fit_lattice(&law, 29.0);
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
