#![warn(missing_docs)]

//! # resq-specfun
//!
//! Special functions implemented from scratch for the `resq` workspace,
//! the Rust reproduction of *"When to checkpoint at the end of a
//! fixed-length reservation?"* (Barbut, Benoit, Herault, Robert, Vivien,
//! FTXS'23).
//!
//! The paper's formulas are built on the standard-Normal CDF `Φ`, the
//! Gamma function (for Gamma-distributed task times), the regularized
//! incomplete gamma function (Gamma CDF), and Lambert's `W` function
//! (closed-form optimum for Exponential checkpoint durations). None of the
//! permitted offline crates provide these, so this crate implements them
//! with double-precision accuracy:
//!
//! * [`erf()`], [`erfc`], [`erfcx`], [`inv_erf`], [`inv_erfc`] — error
//!   function family (a tabulated Taylor kernel under `erfc`, checked
//!   against the incomplete-gamma evaluation [`erfc_reference`]), and
//!   [`erfc_into`], the same kernel over eight lanes, bit for bit.
//! * [`norm_cdf`], [`norm_pdf`], [`norm_quantile`] — standard Normal
//!   helpers (`Φ`, `φ`, `Φ⁻¹`).
//! * [`ln_gamma`], [`gamma()`], [`digamma`], [`trigamma`] — Gamma function
//!   family (Lanczos approximation, asymptotic series).
//! * [`gamma_p`], [`gamma_q`], [`inv_gamma_p`] — regularized incomplete
//!   gamma functions and their inverse.
//! * [`ln_beta`], [`inc_beta`], [`inv_inc_beta`] — regularized incomplete
//!   beta function and inverse.
//! * [`lambert_w0`], [`lambert_wm1`] — both real branches of Lambert's W.
//! * [`ln_factorial`], [`factorial()`] — factorials with a cached table.
//!
//! All functions are pure, allocation-free and `f64`-based. Invalid inputs
//! yield `NaN` (documented per function) so they compose cleanly inside
//! numerical integrators.

pub mod beta;
pub mod erf;
pub mod factorial;
pub mod gamma;
pub mod incgamma;
pub mod lambert_w;
pub mod normal;
pub mod poly;

pub use beta::{inc_beta, inv_inc_beta, ln_beta};
pub use erf::{erf, erfc, erfc_into, erfc_reference, erfcx, inv_erf, inv_erfc};
pub use factorial::{factorial, ln_factorial};
pub use gamma::{digamma, gamma, ln_gamma, trigamma};
pub use incgamma::{gamma_p, gamma_q, inv_gamma_p};
pub use lambert_w::{lambert_w0, lambert_wm1};
pub use normal::{norm_cdf, norm_pdf, norm_quantile, norm_sf};

/// `sqrt(2)`.
pub const SQRT_2: f64 = std::f64::consts::SQRT_2;
/// `sqrt(2*pi)`.
pub const SQRT_2PI: f64 = 2.506_628_274_631_000_5;
/// `ln(sqrt(2*pi))`.
pub const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;
/// `1/e`, the negated branch point of Lambert's W (`W` is real for `z >= -1/e`).
pub const INV_E: f64 = 0.367_879_441_171_442_33;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert!((SQRT_2PI - (2.0 * std::f64::consts::PI).sqrt()).abs() < 1e-15);
        assert!((LN_SQRT_2PI - SQRT_2PI.ln()).abs() < 1e-15);
        assert!((INV_E - (-1.0f64).exp()).abs() < 1e-16);
    }
}
