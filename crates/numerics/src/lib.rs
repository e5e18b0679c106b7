#![warn(missing_docs)]

//! # resq-numerics
//!
//! Numerical substrate for the `resq` workspace: deterministic quadrature,
//! root finding and scalar optimization. Every analytic quantity in the
//! paper — `E[W(X)]` maxima, the static strategy's `E(n)` integrals, the
//! dynamic strategy's threshold `W_int` — reduces to one of these three
//! primitives:
//!
//! * [`quad`] — adaptive Gauss–Kronrod quadrature
//!   ([`quad::adaptive_gauss_kronrod`], QUADPACK's QAG on `qk15` panels
//!   with optional breakpoints: the exact §4 integrals, whose integrands
//!   evaluate a whole panel per call through
//!   [`quad::adaptive_gauss_kronrod_batch`]), adaptive Simpson
//!   ([`quad::adaptive_simpson`], the slow reference), runtime
//!   Gauss–Legendre rules ([`quad::GaussLegendre`]) and semi-infinite
//!   transforms ([`quad::integrate_to_inf`]).
//! * [`roots`] — bisection, Brent's method and safeguarded Newton.
//! * [`optimize`] — Brent minimization, grid-refined global search for
//!   possibly multimodal objectives, and integer argmax helpers for the
//!   `n_opt` selection of the static strategy.
//! * [`sum`] — compensated (Neumaier) summation for the long Poisson sums
//!   of §4.2.3/§4.3.3.
//! * [`grid`] — dense N-dimensional tables with multilinear
//!   interpolation and a two-resolution a-posteriori error estimate, the
//!   substrate of the precomputed policy lattices.
//! * [`error`] — the shared [`NumericsError`] type: non-bracketing
//!   intervals, iteration-cap exhaustion and quadrature non-convergence
//!   are typed errors, not panics or silent best-effort returns.

pub mod error;
pub mod grid;
pub mod memo;
pub mod optimize;
pub mod quad;
pub mod roots;
pub mod sum;

pub use error::NumericsError;
pub use grid::{for_each_cell_center, for_each_cell_probe, for_each_node, NdAxis, NdGrid};
pub use memo::{tabulate_cdf, LatticeCache};
pub use optimize::{
    brent_max, brent_min, grid_max, grid_max_bracketed, integer_argmax, round_to_better_integer,
    Extremum, GridSpec,
};
pub use quad::{
    adaptive_gauss_kronrod, adaptive_gauss_kronrod_batch, adaptive_simpson,
    adaptive_simpson_checked, gauss_legendre_two_resolution, integrate_to_inf, GaussLegendre,
    GkPanelPoints, QuadResult, TwoResolutionNodes, GK_PANEL_NODES,
};
pub use roots::{bisect, brent_root, brent_root_from, newton_safeguarded};
pub use sum::NeumaierSum;

/// Generates `n` evenly spaced points covering `[a, b]` inclusive.
///
/// Returns an empty vector for `n = 0` and `[a]` for `n = 1`.
pub fn linspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![a],
        _ => {
            let step = (b - a) / (n - 1) as f64;
            (0..n)
                .map(|i| if i == n - 1 { b } else { a + step * i as f64 })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_exact() {
        let v = linspace(1.0, 7.5, 14);
        assert_eq!(v.len(), 14);
        assert_eq!(v[0], 1.0);
        assert_eq!(*v.last().unwrap(), 7.5);
        for w in v.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn linspace_degenerate() {
        assert!(linspace(0.0, 1.0, 0).is_empty());
        assert_eq!(linspace(3.0, 9.0, 1), vec![3.0]);
        let two = linspace(2.0, 4.0, 2);
        assert_eq!(two, vec![2.0, 4.0]);
    }
}
