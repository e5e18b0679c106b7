//! Multi-reservation campaigns — §4.4 and the paper's motivating
//! scenario: an iterative application whose total runtime spans many
//! fixed-length reservations, each (after the first) starting with a
//! recovery of length `r`.
//!
//! Within each reservation the workflow policy runs on the loop of
//! [`crate::workflow`] (`crate::trial`): a chain of single-shot
//! *stretches* from the end of the recovery, each ending at a successful
//! checkpoint or the deadline. After each successful checkpoint the §4.4
//! rule decides whether to start another stretch in the leftover time or
//! to release the reservation. Work that is checkpointed is durable;
//! work since the last successful checkpoint is lost when the
//! reservation expires.

use crate::trial::{single_shot, Schedule};
use rand::RngCore;
use resq_core::policy::WorkflowPolicy;
use resq_core::reservation::CampaignModel;
use resq_core::workflow::task_law::TaskDuration;
use resq_dist::Sample;

/// Campaign-level configuration (model + safety bounds).
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// The economic/structural model (reservation length, recovery,
    /// total work, billing, continuation rule).
    pub model: CampaignModel,
    /// Hard cap on reservations, to bound hopeless configurations.
    pub max_reservations: u64,
}

/// Result of one simulated campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignOutcome {
    /// Total durable (checkpointed) work accumulated.
    pub work_done: f64,
    /// Reservations consumed.
    pub reservations: u64,
    /// Total cost under the configured billing model.
    pub cost: f64,
    /// Total wall-clock time inside reservations (including recoveries
    /// and checkpoints).
    pub time_used: f64,
    /// Number of successful checkpoints.
    pub checkpoints: u64,
    /// Number of reservations that ended with all in-flight work lost.
    pub lost_reservations: u64,
    /// True iff `work_done ≥ total_work` within the reservation cap.
    pub completed: bool,
}

/// Campaign simulator: a workflow policy executed across reservations.
#[derive(Debug, Clone)]
pub struct CampaignSimulator<X, C, RV> {
    /// Task-duration law.
    pub task: X,
    /// Checkpoint-duration law.
    pub ckpt: C,
    /// Recovery-duration law (often [`resq_dist::Constant`]).
    pub recovery: RV,
}

impl<X: TaskDuration, C: Sample, RV: Sample> CampaignSimulator<X, C, RV> {
    /// Runs one full campaign under `policy`.
    ///
    /// The policy is consulted with per-reservation counters
    /// `(tasks this reservation, work since the last checkpoint)`. Note
    /// that reservations after the first lose the recovery time, so the
    /// policy should be tuned for the *effective* length `R − r`, as the
    /// paper prescribes ("this amounts to working with a reservation of
    /// length R − r"); a policy tuned for the full `R` overshoots and
    /// fails its checkpoints.
    pub fn run_once<P: WorkflowPolicy + ?Sized>(
        &self,
        config: &CampaignConfig,
        policy: &P,
        rng: &mut dyn RngCore,
    ) -> CampaignOutcome {
        let m = &config.model;
        let mut out = CampaignOutcome::default();
        while out.work_done < m.total_work && out.reservations < config.max_reservations {
            let first = out.reservations == 0;
            out.reservations += 1;
            let mut elapsed = if first {
                0.0
            } else {
                self.recovery.sample(rng).max(0.0)
            };
            if elapsed >= m.reservation {
                // Recovery ate the whole reservation.
                out.cost += m.cost_of(m.reservation);
                out.time_used += m.reservation;
                out.lost_reservations += 1;
                continue;
            }
            // Work durable *within this reservation*: one single-shot
            // stretch per successful checkpoint, until a stretch runs into
            // the deadline (its in-flight work lost, the whole reservation
            // used) or the reservation is released.
            let mut durable_here = 0.0f64;
            let used = loop {
                let sched = Schedule::drawn(&self.ckpt, m.reservation, false);
                let stretch = single_shot(policy, sched, elapsed, rng, |rng| self.task.sample(rng));
                if !stretch.outcome.checkpoint_succeeded {
                    break m.reservation;
                }
                elapsed = stretch.outcome.time_used;
                durable_here += stretch.outcome.work_saved;
                out.checkpoints += 1;
                let done = out.work_done + durable_here >= m.total_work;
                if done || !m.should_continue_after_checkpoint(m.reservation - elapsed) {
                    break elapsed;
                }
                // Continue computing in the leftover time (§4.4).
            };
            out.work_done += durable_here;
            if durable_here == 0.0 {
                out.lost_reservations += 1;
            }
            out.cost += m.cost_of(used);
            out.time_used += used;
        }
        out.completed = out.work_done >= m.total_work;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{run_trials, MonteCarloConfig};
    use resq_core::policy::ThresholdWorkflowPolicy;
    use resq_core::reservation::{BillingModel, ContinuationRule};
    use resq_dist::{Constant, Normal, Truncated, Xoshiro256pp};

    type TN = Truncated<Normal>;

    fn tn(mu: f64, sigma: f64) -> TN {
        Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
    }

    fn base_config(
        total_work: f64,
        billing: BillingModel,
        cont: ContinuationRule,
    ) -> CampaignConfig {
        CampaignConfig {
            model: CampaignModel::new(29.0, 2.0, total_work, billing, cont).unwrap(),
            max_reservations: 200,
        }
    }

    fn simulator() -> CampaignSimulator<TN, TN, TN> {
        CampaignSimulator {
            task: tn(3.0, 0.5),
            ckpt: tn(5.0, 0.4),
            recovery: tn(2.0, 0.1),
        }
    }

    #[test]
    fn campaign_completes_with_sane_accounting() {
        let sim = simulator();
        let cfg = base_config(100.0, BillingModel::PerReservation, ContinuationRule::Drop);
        let policy = ThresholdWorkflowPolicy { threshold: 20.3 };
        let mut rng = Xoshiro256pp::new(1);
        let out = sim.run_once(&cfg, &policy, &mut rng);
        assert!(out.completed, "campaign did not finish: {out:?}");
        assert!(out.work_done >= 100.0);
        // Each reservation saves ~21 → expect ~6 reservations.
        assert!((4..=10).contains(&out.reservations), "{}", out.reservations);
        assert_eq!(out.cost, out.reservations as f64 * 29.0);
        assert!(out.checkpoints >= out.reservations - out.lost_reservations);
        assert!(out.time_used <= out.reservations as f64 * 29.0 + 1e-9);
    }

    #[test]
    fn per_use_billing_costs_less_when_dropping() {
        let sim = simulator();
        let policy = ThresholdWorkflowPolicy { threshold: 20.3 };
        let cfg_res = base_config(100.0, BillingModel::PerReservation, ContinuationRule::Drop);
        let cfg_use = base_config(100.0, BillingModel::PerUse, ContinuationRule::Drop);
        let mc = MonteCarloConfig {
            trials: 2000,
            seed: 5,
            threads: 0,
        };
        let cost_res = run_trials(mc, |_, rng| sim.run_once(&cfg_res, &policy, rng).cost);
        let cost_use = run_trials(mc, |_, rng| sim.run_once(&cfg_use, &policy, rng).cost);
        assert!(
            cost_use.mean < cost_res.mean,
            "per-use {} !< per-reservation {}",
            cost_use.mean,
            cost_res.mean
        );
    }

    #[test]
    fn continuation_reduces_reservation_count() {
        // Using leftover time (§4.4) means fewer reservations for the
        // same total work. With a low threshold (~2 tasks ≈ 6 work) the
        // first checkpoint finishes near t = 13, leaving enough room for
        // a full second batch + checkpoint when continuation is allowed.
        let sim = simulator();
        let policy = ThresholdWorkflowPolicy { threshold: 6.0 };
        let cfg_drop = base_config(120.0, BillingModel::PerReservation, ContinuationRule::Drop);
        let cfg_cont = base_config(
            120.0,
            BillingModel::PerReservation,
            ContinuationRule::ContinueIfAtLeast(15.0),
        );
        let mc = MonteCarloConfig {
            trials: 2000,
            seed: 6,
            threads: 0,
        };
        let res_drop = run_trials(mc, |_, rng| {
            sim.run_once(&cfg_drop, &policy, rng).reservations as f64
        });
        let res_cont = run_trials(mc, |_, rng| {
            sim.run_once(&cfg_cont, &policy, rng).reservations as f64
        });
        assert!(
            res_cont.mean < res_drop.mean - 0.5,
            "continue {} !< drop {}",
            res_cont.mean,
            res_drop.mean
        );
    }

    #[test]
    fn hopeless_campaign_hits_reservation_cap() {
        let sim = simulator();
        // Threshold beyond R: the policy never checkpoints in time.
        let policy = ThresholdWorkflowPolicy { threshold: 40.0 };
        let cfg = CampaignConfig {
            model: CampaignModel::new(
                29.0,
                2.0,
                1000.0,
                BillingModel::PerReservation,
                ContinuationRule::Drop,
            )
            .unwrap(),
            max_reservations: 10,
        };
        let mut rng = Xoshiro256pp::new(7);
        let out = sim.run_once(&cfg, &policy, &mut rng);
        assert!(!out.completed);
        assert_eq!(out.reservations, 10);
        assert_eq!(out.work_done, 0.0);
        assert_eq!(out.lost_reservations, 10);
    }

    #[test]
    fn deterministic_recovery_consumes_time() {
        // With Constant recovery = 5 and R = 29, later reservations have
        // 24 usable seconds.
        let sim = CampaignSimulator {
            task: tn(3.0, 0.5),
            ckpt: tn(5.0, 0.4),
            recovery: Constant::new(5.0).unwrap(),
        };
        let policy = ThresholdWorkflowPolicy { threshold: 15.0 };
        let cfg = base_config(60.0, BillingModel::PerUse, ContinuationRule::Drop);
        let mut rng = Xoshiro256pp::new(8);
        let out = sim.run_once(&cfg, &policy, &mut rng);
        assert!(out.completed);
        assert!(out.reservations >= 3);
    }
}
