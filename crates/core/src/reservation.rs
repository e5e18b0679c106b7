//! §4.4 and beyond — what happens *around* a single reservation.
//!
//! The paper closes Section 4 by asking what to do with leftover time
//! after a successful checkpoint (continue vs drop, depending on the
//! billing model) and motivates the whole setting with iterative
//! applications whose total runtime spans **many** reservations, each
//! starting with a recovery of length `r`. [`CampaignModel`] captures
//! that environment; the Monte-Carlo execution lives in `resq-sim`, but
//! the model also supports first-order analytic planning
//! ([`CampaignModel::estimate_reservations`]).

use crate::error::CoreError;

/// How reservations are charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BillingModel {
    /// The full reservation is charged whether used or not (classic HPC
    /// allocations): leftover time is free to use, dropping saves nothing.
    PerReservation,
    /// Only the time actually consumed is charged (cloud-style): dropping
    /// the reservation after a successful checkpoint saves money.
    PerUse,
}

/// What to do with leftover time after a successful checkpoint (§4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContinuationRule {
    /// Always release the reservation after the first successful
    /// checkpoint.
    Drop,
    /// Keep executing (and re-applying the strategy) while at least this
    /// much time remains; must be ≥ `C_min` to be meaningful.
    ContinueIfAtLeast(f64),
}

/// A multi-reservation campaign: a job of `total_work` units processed
/// through fixed-length reservations with recovery overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignModel {
    /// Length `R` of each reservation.
    pub reservation: f64,
    /// Recovery time `r` consumed at the start of every reservation
    /// except the first (reloading the last checkpoint). The paper: "if
    /// the execution starts with a recovery of length r, this amounts to
    /// working with a reservation of length R − r".
    pub recovery: f64,
    /// Total work the job must accumulate across reservations.
    pub total_work: f64,
    /// Billing model.
    pub billing: BillingModel,
    /// Leftover-time rule.
    pub continuation: ContinuationRule,
}

impl CampaignModel {
    /// Validates the campaign parameters.
    pub fn new(
        reservation: f64,
        recovery: f64,
        total_work: f64,
        billing: BillingModel,
        continuation: ContinuationRule,
    ) -> Result<Self, CoreError> {
        if !(reservation > 0.0) || !reservation.is_finite() {
            return Err(CoreError::InvalidReservation { r: reservation });
        }
        if !(recovery >= 0.0) || recovery >= reservation {
            return Err(CoreError::InvalidParameter {
                name: "recovery",
                value: recovery,
            });
        }
        if !(total_work > 0.0) || !total_work.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "total_work",
                value: total_work,
            });
        }
        if let ContinuationRule::ContinueIfAtLeast(t) = continuation {
            if !(t >= 0.0) || !t.is_finite() {
                return Err(CoreError::InvalidParameter {
                    name: "continuation threshold",
                    value: t,
                });
            }
        }
        Ok(Self {
            reservation,
            recovery,
            total_work,
            billing,
            continuation,
        })
    }

    /// Effective working length of reservation `index` (0-based): the
    /// first one runs full `R`; later ones lose `r` to recovery.
    pub fn effective_length(&self, index: u64) -> f64 {
        if index == 0 {
            self.reservation
        } else {
            self.reservation - self.recovery
        }
    }

    /// Cost charged for one reservation in which `used` seconds were
    /// consumed (recovery and checkpoint time included in `used`).
    pub fn cost_of(&self, used: f64) -> f64 {
        match self.billing {
            BillingModel::PerReservation => self.reservation,
            BillingModel::PerUse => used.min(self.reservation),
        }
    }

    /// First-order estimate of the number of reservations needed, given
    /// the expected saved work per (full-length) reservation for the
    /// chosen strategy — e.g. `E[W(X_opt)]` from
    /// [`crate::preemptible::Preemptible::optimize`] or `E(n_opt)` from
    /// [`crate::workflow::statics::StaticStrategy::optimize`].
    ///
    /// Accounts for the recovery loss on reservations after the first by
    /// linearly rescaling the expected work (a first-order model: exact
    /// per-reservation expectations for length `R − r` can be computed by
    /// re-running the strategy with the shorter reservation).
    pub fn estimate_reservations(&self, expected_work_per_reservation: f64) -> Option<u64> {
        if !(expected_work_per_reservation > 0.0) {
            return None;
        }
        let first = expected_work_per_reservation;
        let later =
            expected_work_per_reservation * (self.reservation - self.recovery) / self.reservation;
        if self.total_work <= first {
            return Some(1);
        }
        if later <= 0.0 {
            return None;
        }
        Some(1 + ((self.total_work - first) / later).ceil() as u64)
    }

    /// Whether to keep computing after a successful checkpoint with
    /// `time_left` seconds remaining (§4.4).
    ///
    /// Under [`BillingModel::PerReservation`] leftover time is already
    /// paid for, so any usable remainder is worth continuing; under
    /// [`BillingModel::PerUse`] the rule is consulted.
    pub fn should_continue_after_checkpoint(&self, time_left: f64) -> bool {
        match self.continuation {
            ContinuationRule::Drop => false,
            ContinuationRule::ContinueIfAtLeast(t) => time_left >= t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CampaignModel {
        CampaignModel::new(
            30.0,
            2.0,
            200.0,
            BillingModel::PerReservation,
            ContinuationRule::ContinueIfAtLeast(6.0),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(model().reservation == 30.0);
        assert!(
            CampaignModel::new(0.0, 1.0, 10.0, BillingModel::PerUse, ContinuationRule::Drop)
                .is_err()
        );
        // Recovery must leave usable time.
        assert!(CampaignModel::new(
            10.0,
            10.0,
            10.0,
            BillingModel::PerUse,
            ContinuationRule::Drop
        )
        .is_err());
        assert!(CampaignModel::new(
            10.0,
            1.0,
            -5.0,
            BillingModel::PerUse,
            ContinuationRule::Drop
        )
        .is_err());
        assert!(CampaignModel::new(
            10.0,
            1.0,
            5.0,
            BillingModel::PerUse,
            ContinuationRule::ContinueIfAtLeast(f64::NAN)
        )
        .is_err());
    }

    #[test]
    fn effective_length_accounts_for_recovery() {
        let m = model();
        assert_eq!(m.effective_length(0), 30.0);
        assert_eq!(m.effective_length(1), 28.0);
        assert_eq!(m.effective_length(7), 28.0);
    }

    #[test]
    fn billing_models_differ() {
        let mut m = model();
        assert_eq!(m.cost_of(12.0), 30.0); // per-reservation: full charge
        m.billing = BillingModel::PerUse;
        assert_eq!(m.cost_of(12.0), 12.0);
        assert_eq!(m.cost_of(99.0), 30.0); // capped at R
    }

    #[test]
    fn reservation_estimate() {
        let m = model();
        // 21 work/reservation, 200 total: first saves 21, later ones save
        // 21·28/30 = 19.6 → 1 + ceil(179/19.6) = 1 + 10 = 11.
        assert_eq!(m.estimate_reservations(21.0), Some(11));
        // One reservation suffices.
        assert_eq!(m.estimate_reservations(250.0), Some(1));
        // Strategy saves nothing → never finishes.
        assert_eq!(m.estimate_reservations(0.0), None);
    }

    #[test]
    fn continuation_rules() {
        let m = model();
        assert!(m.should_continue_after_checkpoint(6.5));
        assert!(!m.should_continue_after_checkpoint(5.0));
        let dropper = CampaignModel::new(
            30.0,
            2.0,
            200.0,
            BillingModel::PerUse,
            ContinuationRule::Drop,
        )
        .unwrap();
        assert!(!dropper.should_continue_after_checkpoint(29.0));
    }
}
