//! Error type for strategy construction and evaluation.

use resq_dist::DistError;

/// Errors raised by `resq-core` constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Reservation length must be positive and finite.
    InvalidReservation {
        /// The offending value of `R`.
        r: f64,
    },
    /// The checkpoint law's support `[a, b]` must satisfy `0 < a < b ≤ R`
    /// in the preemptible scenario (§3.1): with `a ≥ R` there is never
    /// time to checkpoint, and `b > R` makes even the pessimistic policy
    /// infeasible.
    CheckpointSupportOutOfRange {
        /// Lower support bound `a = C_min`.
        a: f64,
        /// Upper support bound `b = C_max`.
        b: f64,
        /// Reservation length.
        r: f64,
    },
    /// The checkpoint law must have non-negative support in the workflow
    /// scenario.
    NegativeCheckpointSupport {
        /// Lower support bound found.
        lo: f64,
    },
    /// The planner's reservation is longer than the range on which the
    /// checkpoint model answers fit probabilities (a retry model's own
    /// `R`, beyond which its success profile is clamped).
    ReservationBeyondFitHorizon {
        /// The planner's reservation length.
        r: f64,
        /// The checkpoint model's horizon.
        horizon: f64,
    },
    /// Task durations must have non-negative support (or negligible
    /// negative mass for the plain-Normal model of §4.2.1).
    InvalidTaskLaw(&'static str),
    /// A distribution construction failed.
    Dist(DistError),
    /// Parameter out of its documented domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A numerical routine (root finder, quadrature) failed to converge.
    Numerics(resq_numerics::NumericsError),
}

impl From<DistError> for CoreError {
    fn from(e: DistError) -> Self {
        CoreError::Dist(e)
    }
}

impl From<resq_numerics::NumericsError> for CoreError {
    fn from(e: resq_numerics::NumericsError) -> Self {
        CoreError::Numerics(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidReservation { r } => {
                write!(f, "reservation length must be positive and finite, got {r}")
            }
            Self::CheckpointSupportOutOfRange { a, b, r } => write!(
                f,
                "checkpoint support [{a}, {b}] must satisfy 0 < a < b <= R = {r}"
            ),
            Self::NegativeCheckpointSupport { lo } => {
                write!(
                    f,
                    "checkpoint durations must be >= 0, support starts at {lo}"
                )
            }
            Self::ReservationBeyondFitHorizon { r, horizon } => write!(
                f,
                "reservation R = {r} exceeds the checkpoint model's horizon {horizon}"
            ),
            Self::InvalidTaskLaw(msg) => write!(f, "invalid task-duration law: {msg}"),
            Self::Dist(e) => write!(f, "{e}"),
            Self::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` out of domain: {value}")
            }
            Self::Numerics(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Dist(e) => Some(e),
            Self::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_parameters() {
        let e = CoreError::CheckpointSupportOutOfRange {
            a: 1.0,
            b: 12.0,
            r: 10.0,
        };
        let s = e.to_string();
        assert!(s.contains("12") && s.contains("10"));
        assert!(CoreError::InvalidReservation { r: -1.0 }
            .to_string()
            .contains("-1"));
    }

    #[test]
    fn dist_error_is_wrapped_with_source() {
        use std::error::Error;
        let e: CoreError = DistError::EmptyData.into();
        assert!(e.source().is_some());
    }
}
