#![warn(missing_docs)]

//! # resq-dist
//!
//! Probability-distribution substrate for the `resq` workspace (the Rust
//! reproduction of *"When to checkpoint at the end of a fixed-length
//! reservation?"*, FTXS'23).
//!
//! The paper manipulates two families of random variables — checkpoint
//! durations `C ~ D_C` and task durations `X_i ~ D_X` — drawn from
//! Uniform, Exponential, Normal, LogNormal, Gamma and Poisson laws, all
//! possibly truncated to an interval. This crate provides:
//!
//! * A small trait hierarchy: [`Distribution`] (moments),
//!   [`Continuous`] / [`Discrete`] (pdf/pmf, cdf, quantile, support) and
//!   [`Sample`] (object-safe random variate generation).
//! * The concrete laws used by the paper ([`Uniform`], [`Exponential`],
//!   [`Normal`], [`LogNormal`], [`Gamma`], [`Weibull`], [`Poisson`],
//!   [`Constant`]).
//! * The generic truncation adaptor [`Truncated`] implementing the
//!   paper's §3.1 construction `F_C(x) = (F(x) − F(a)) / (F(b) − F(a))`.
//! * [`DynLaw`], the one type-erased continuous law: CLI law strings,
//!   fitted models and learned models all arrive in it.
//! * [`Empirical`] distributions and [`fit`] — maximum-likelihood /
//!   moment estimators for every family, used to learn `D_C` from traces
//!   of previous checkpoints as the paper suggests.
//! * [`kstest`] — Kolmogorov–Smirnov goodness-of-fit, the model-selection
//!   criterion of the trace-learning pipeline.
//! * Deterministic, splittable RNG ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256pp`]) so that simulations are reproducible across
//!   thread counts.

pub mod beta;
pub mod constant;
pub mod dyn_law;
pub mod empirical;
pub mod exponential;
pub mod fit;
pub mod gamma;
pub mod kstest;
pub mod lognormal;
pub mod mixture;
pub mod normal;
pub mod pareto;
pub mod poisson;
pub mod rng;
pub mod traits;
pub mod triangular;
pub mod truncated;
pub mod uniform;
pub mod weibull;
pub(crate) mod ziggurat;

pub use beta::Beta;
pub use constant::Constant;
pub use dyn_law::DynLaw;
pub use empirical::Empirical;
pub use exponential::Exponential;
pub use fit::{fit_best, fit_family, FitError, ModelFamily};
pub use gamma::Gamma;
pub use kstest::{ks_statistic, ks_test, KsOutcome};
pub use lognormal::LogNormal;
pub use mixture::{fit_normal_mixture, Mixture, NormalMixtureFit};
pub use normal::Normal;
pub use pareto::Pareto;
pub use poisson::Poisson;
pub use rng::{SplitMix64, Xoshiro256pp};
pub use traits::{Continuous, Discrete, Distribution, Sample};
pub use triangular::Triangular;
pub use truncated::Truncated;
pub use uniform::Uniform;
pub use weibull::Weibull;

/// Errors raised by distribution constructors on invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A parameter that must be strictly positive was not.
    NonPositiveParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A parameter was NaN or infinite.
    NonFiniteParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// An interval `[lo, hi]` with `lo >= hi` (or outside the support).
    EmptyInterval {
        /// Lower bound supplied.
        lo: f64,
        /// Upper bound supplied.
        hi: f64,
    },
    /// Truncation interval carries (numerically) zero probability mass.
    ZeroMassTruncation {
        /// Probability mass of the interval under the parent law.
        mass: f64,
    },
    /// A parameter outside its documented domain (e.g. a Triangular mode
    /// outside `[a, b]`).
    ParameterOutOfRange {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Empty data set where at least one observation is required.
    EmptyData,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonPositiveParameter { name, value } => {
                write!(f, "parameter `{name}` must be > 0, got {value}")
            }
            Self::NonFiniteParameter { name, value } => {
                write!(f, "parameter `{name}` must be finite, got {value}")
            }
            Self::EmptyInterval { lo, hi } => {
                write!(f, "interval [{lo}, {hi}] is empty or inverted")
            }
            Self::ZeroMassTruncation { mass } => {
                write!(
                    f,
                    "truncation interval carries no probability mass ({mass:e})"
                )
            }
            Self::ParameterOutOfRange { name, value } => {
                write!(f, "parameter `{name}` out of range: {value}")
            }
            Self::EmptyData => write!(f, "at least one observation is required"),
        }
    }
}

impl std::error::Error for DistError {}

pub(crate) fn require_finite(name: &'static str, value: f64) -> Result<f64, DistError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(DistError::NonFiniteParameter { name, value })
    }
}

pub(crate) fn require_positive(name: &'static str, value: f64) -> Result<f64, DistError> {
    require_finite(name, value)?;
    if value > 0.0 {
        Ok(value)
    } else {
        Err(DistError::NonPositiveParameter { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = DistError::NonPositiveParameter {
            name: "sigma",
            value: -1.0,
        };
        assert!(e.to_string().contains("sigma"));
        let e = DistError::EmptyInterval { lo: 5.0, hi: 1.0 };
        assert!(e.to_string().contains('5'));
        assert!(DistError::EmptyData.to_string().contains("observation"));
    }

    #[test]
    fn require_helpers() {
        assert!(require_positive("x", 1.0).is_ok());
        assert!(require_positive("x", 0.0).is_err());
        assert!(require_positive("x", f64::NAN).is_err());
        assert!(require_finite("x", f64::INFINITY).is_err());
    }
}
