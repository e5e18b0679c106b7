//! Fail-stop errors inside a reservation — the paper's final
//! future-work direction ("dealing with the occurrence of fail-stop
//! errors within fixed-size reservations would be an interesting
//! direction").
//!
//! The paper's setting is failure-free: the only "catastrophe" is the
//! (deterministic) end of the reservation. This module adds the classic
//! HPC failure model on top — fail-stop errors striking as a Poisson
//! process with rate `λ_f` — and lets the §4 policies be evaluated
//! against it:
//!
//! * a failure mid-task or mid-checkpoint destroys all work since the
//!   last *successful* checkpoint;
//! * execution resumes (within the same reservation) after a recovery of
//!   stochastic duration — and the recovery itself is **failure-prone**:
//!   a fail-stop error striking mid-recovery restarts the recovery from
//!   the instant of that failure (a fresh duration is drawn, modelling a
//!   reboot-from-scratch). Such failures count toward
//!   [`FailureOutcome::failures`] but destroy no work, since the
//!   in-flight work was already lost when recovery began. The next
//!   failure is drawn from the Poisson process anchored at the previous
//!   failure instant, so failure times remain a homogeneous process on
//!   the wall clock;
//! * intermediate checkpoints therefore become useful *during* the
//!   reservation, not only at its end — the Young/Daly regime the
//!   related-work section contrasts with. [`young_daly_period`] provides
//!   the classical period and [`PeriodicCheckpointPolicy`] the matching
//!   policy, so the two worlds can be compared in one simulator.
//!
//! The simulator runs the plain simulator's loop (`crate::trial`): a
//! reservation is a chain of single-shot *stretches*, each from the
//! current clock to the horizon `min(R, next failure)`, ending at a
//! successful checkpoint, a fail-stop error or the deadline. Recovery and
//! resumption happen between stretches. As in every §4 simulator, a task
//! boundary exactly on `R` still consults the policy, and a task or
//! checkpoint ending exactly on `R` fits. With failures off, the first
//! stretch is [`crate::WorkflowSim`]'s trial on the same task and
//! checkpoint durations.

use crate::trial::{single_shot, Schedule};
use rand::RngCore;
use resq_core::policy::{Action, WorkflowPolicy};
use resq_core::workflow::task_law::TaskDuration;
use resq_core::CoreError;
use resq_dist::{Exponential, Sample};

/// The Young/Daly first-order optimal checkpoint period
/// `sqrt(2 · μ_f · C)` where `μ_f = 1/λ_f` is the failure MTBF and `C`
/// the (mean) checkpoint duration.
///
/// Both parameters must be positive and finite; violations are reported
/// as a typed [`CoreError`] (this is an input-driven path — trace-learned
/// checkpoint means and operator-supplied failure rates flow in here, and
/// a bad value must not abort the process).
pub fn young_daly_period(mean_checkpoint: f64, failure_rate: f64) -> Result<f64, CoreError> {
    if !(mean_checkpoint > 0.0) || !mean_checkpoint.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "mean_checkpoint",
            value: mean_checkpoint,
        });
    }
    if !(failure_rate > 0.0) || !failure_rate.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "failure_rate",
            value: failure_rate,
        });
    }
    Ok((2.0 * mean_checkpoint / failure_rate).sqrt())
}

/// Checkpoint every time the work since the last successful checkpoint
/// reaches `period` (evaluated at task boundaries) — the Young/Daly-style
/// baseline for the failure-prone regime.
#[derive(Debug, Clone, Copy)]
pub struct PeriodicCheckpointPolicy {
    /// Work between checkpoints.
    pub period: f64,
}

impl WorkflowPolicy for PeriodicCheckpointPolicy {
    fn decide(&self, _tasks_done: u64, work_done: f64) -> Action {
        if work_done >= self.period {
            Action::Checkpoint
        } else {
            Action::Continue
        }
    }
    fn name(&self) -> &str {
        "periodic"
    }
}

/// Outcome of one failure-prone reservation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FailureOutcome {
    /// Durable (checkpointed) work at the end of the reservation.
    pub work_saved: f64,
    /// Fail-stop errors that struck.
    pub failures: u64,
    /// Successful checkpoints taken.
    pub checkpoints: u64,
    /// Checkpoint attempts cut short by a failure or the deadline.
    pub failed_checkpoints: u64,
    /// Work lost to failures and the final deadline.
    pub work_lost: f64,
    /// Tasks completed (including ones later lost).
    pub tasks_completed: u64,
}

/// Failure-prone workflow simulator.
///
/// The policy is consulted at task boundaries with
/// `(tasks since last checkpoint, work since last checkpoint)`; on
/// `Checkpoint` the work-in-flight becomes durable if the checkpoint
/// finishes no later than both the next failure and the deadline. After
/// a failure, a recovery delay is paid before computing resumes; a
/// recovery ending at or after `R` ends the reservation.
#[derive(Debug, Clone)]
pub struct FailureWorkflowSim<X, C, RV> {
    /// Reservation length `R`.
    pub reservation: f64,
    /// Task-duration law.
    pub task: X,
    /// Checkpoint-duration law.
    pub ckpt: C,
    /// Recovery-duration law (after a mid-reservation failure).
    pub recovery: RV,
    /// Fail-stop error rate `λ_f` (per second); 0 disables failures.
    pub failure_rate: f64,
}

impl<X: TaskDuration, C: Sample, RV: Sample> FailureWorkflowSim<X, C, RV> {
    /// Draws the next failure time strictly after `now` (infinity when
    /// failures are disabled).
    fn next_failure(&self, now: f64, rng: &mut dyn RngCore) -> f64 {
        if self.failure_rate <= 0.0 {
            return f64::INFINITY;
        }
        let law = Exponential::new(self.failure_rate).expect("positive rate");
        now + law.sample(rng)
    }

    /// Completes a recovery beginning at the failure instant `t`,
    /// restarting it whenever another fail-stop error strikes
    /// mid-recovery (see the module header for the semantics). Returns
    /// `(resume_time, next_failure_after_resume, failures_during_recovery)`.
    /// Failures whose instant lies beyond the deadline `r` are not
    /// counted — the reservation expires first.
    fn recover(&self, mut t: f64, r: f64, rng: &mut dyn RngCore) -> (f64, f64, u64) {
        let mut extra = 0u64;
        loop {
            let d = self.recovery.sample(rng).max(0.0);
            let nf = self.next_failure(t, rng);
            if t + d <= nf || nf >= r {
                return (t + d, nf, extra);
            }
            extra += 1;
            t = nf;
        }
    }

    /// Runs one reservation under `policy`: single-shot stretches of
    /// work back to back, each ending at a checkpoint, a fail-stop error
    /// or the deadline.
    pub fn run_once<P: WorkflowPolicy + ?Sized>(
        &self,
        policy: &P,
        rng: &mut dyn RngCore,
    ) -> FailureOutcome {
        let r = self.reservation;
        let mut out = FailureOutcome::default();
        let mut t = 0.0f64; // wall clock within the reservation
        let mut next_fail = self.next_failure(0.0, rng);
        loop {
            let sched = Schedule::drawn(&self.ckpt, r.min(next_fail), next_fail < r);
            let stretch = single_shot(policy, sched, t, rng, |rng| self.task.sample(rng));
            out.tasks_completed += stretch.outcome.tasks_completed;
            out.failed_checkpoints += u64::from(stretch.ckpt_failures);
            if stretch.outcome.checkpoint_succeeded {
                out.checkpoints += 1;
                out.work_saved += stretch.outcome.work_saved;
                // A policy that would checkpoint again with nothing in
                // flight only spins, so the reservation stops there (a
                // zero period does); any other keeps computing.
                if policy.decide(0, 0.0) == Action::Checkpoint {
                    return out;
                }
                t = stretch.outcome.time_used;
                continue;
            }
            out.work_lost += stretch.outcome.work_at_checkpoint;
            if !stretch.killed_by_failstop {
                return out; // the deadline
            }
            out.failures += 1;
            let (resume, nf, extra) = self.recover(next_fail, r, rng);
            out.failures += extra;
            if resume >= r {
                return out;
            }
            t = resume;
            next_fail = nf;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{run_trials, MonteCarloConfig};
    use crate::workflow::WorkflowSim;
    use resq_core::policy::ThresholdWorkflowPolicy;
    use resq_dist::{Constant, Normal, Truncated, Xoshiro256pp};

    type TN = Truncated<Normal>;

    fn tn(mu: f64, sigma: f64) -> TN {
        Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
    }

    fn sim(rate: f64) -> FailureWorkflowSim<TN, TN, Constant> {
        FailureWorkflowSim {
            reservation: 29.0,
            task: tn(3.0, 0.5),
            ckpt: tn(5.0, 0.4),
            recovery: Constant::new(1.0).unwrap(),
            failure_rate: rate,
        }
    }

    #[test]
    fn young_daly_formula() {
        // sqrt(2 · C / λ): C = 5, λ = 0.01 → sqrt(1000) ≈ 31.6.
        let p = young_daly_period(5.0, 0.01).unwrap();
        assert!((p - 1000.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn young_daly_rejects_bad_input() {
        assert!(young_daly_period(0.0, 0.01).is_err());
        assert!(young_daly_period(5.0, 0.0).is_err());
        assert!(young_daly_period(5.0, f64::NAN).is_err());
        assert!(young_daly_period(f64::INFINITY, 0.01).is_err());
    }

    #[test]
    fn zero_failure_rate_matches_plain_simulator() {
        // With λ_f = 0 the failure simulator must reproduce the plain
        // workflow simulator's expected saved work.
        let fsim = sim(0.0);
        let psim = WorkflowSim {
            reservation: 29.0,
            task: tn(3.0, 0.5),
            ckpt: tn(5.0, 0.4),
        };
        let policy = ThresholdWorkflowPolicy { threshold: 20.3 };
        let cfg = MonteCarloConfig {
            trials: 100_000,
            seed: 21,
            threads: 0,
        };
        let a = run_trials(cfg, |_, rng| fsim.run_once(&policy, rng).work_saved);
        let b = run_trials(cfg, |_, rng| psim.run_once(&policy, rng).work_saved);
        assert!(
            (a.mean - b.mean).abs() < a.ci999_half_width() + b.ci999_half_width(),
            "failure-sim {} vs plain {}",
            a.mean,
            b.mean
        );
    }

    #[test]
    fn zero_failure_rate_matches_plain_simulator_on_the_deadline() {
        // 1 s tasks bring the clock exactly onto R = 29, where threshold
        // 29 checkpoints: a 0 s write still fits and saves all 29 s, a
        // 1 s write is attempted and cut short. Without failures the
        // failure simulator must report what the plain one does.
        let policy = ThresholdWorkflowPolicy { threshold: 29.0 };
        for (c, saved) in [(0.0, 29.0), (1.0, 0.0)] {
            let task = Constant::new(1.0).unwrap();
            let ckpt = Constant::new(c).unwrap();
            let fsim = FailureWorkflowSim {
                reservation: 29.0,
                task,
                ckpt,
                recovery: ckpt,
                failure_rate: 0.0,
            };
            let psim = WorkflowSim {
                reservation: 29.0,
                task,
                ckpt,
            };
            let f = fsim.run_once(&policy, &mut Xoshiro256pp::new(1));
            let p = psim.run_once(&policy, &mut Xoshiro256pp::new(1));
            assert_eq!(p.work_saved, saved, "C = {c}");
            assert_eq!(f.work_saved, p.work_saved, "C = {c}");
            assert_eq!(f.work_lost, p.work_at_checkpoint - p.work_saved, "C = {c}");
            assert_eq!(
                f.failed_checkpoints,
                u64::from(p.checkpoint_attempted && !p.checkpoint_succeeded),
                "C = {c}"
            );
        }
    }

    #[test]
    fn failures_reduce_saved_work_monotonically() {
        let policy = ThresholdWorkflowPolicy { threshold: 20.3 };
        let cfg = MonteCarloConfig {
            trials: 50_000,
            seed: 22,
            threads: 0,
        };
        let mut prev = f64::INFINITY;
        for rate in [0.0, 0.02, 0.05, 0.1] {
            let s = run_trials(cfg, |_, rng| sim(rate).run_once(&policy, rng).work_saved);
            assert!(
                s.mean < prev + 0.2,
                "rate {rate}: {} not decreasing (prev {prev})",
                s.mean
            );
            prev = s.mean;
        }
    }

    #[test]
    fn periodic_checkpoints_help_under_high_failure_rate() {
        // With MTBF ≈ 20 s < R = 29 s, the single-end-checkpoint strategy
        // usually loses everything; Young/Daly periodic checkpointing
        // salvages work.
        let rate = 0.05;
        let fsim = sim(rate);
        let single = ThresholdWorkflowPolicy { threshold: 20.3 };
        let periodic = PeriodicCheckpointPolicy {
            period: young_daly_period(5.0, rate).unwrap(),
        };
        let cfg = MonteCarloConfig {
            trials: 50_000,
            seed: 23,
            threads: 0,
        };
        let s_single = run_trials(cfg, |_, rng| fsim.run_once(&single, rng).work_saved);
        let s_periodic = run_trials(cfg, |_, rng| fsim.run_once(&periodic, rng).work_saved);
        assert!(
            s_periodic.mean > s_single.mean,
            "periodic {} <= single {}",
            s_periodic.mean,
            s_single.mean
        );
    }

    #[test]
    fn outcome_accounting_consistent() {
        let fsim = sim(0.05);
        let policy = PeriodicCheckpointPolicy { period: 9.0 };
        let mut rng = Xoshiro256pp::new(9);
        for _ in 0..500 {
            let out = fsim.run_once(&policy, &mut rng);
            assert!(out.work_saved >= 0.0);
            assert!(out.work_saved + out.work_lost <= 29.0 + 1e-9);
            assert!(out.work_saved <= 29.0);
            if out.checkpoints == 0 {
                assert_eq!(out.work_saved, 0.0);
            }
        }
    }

    #[test]
    fn failures_during_recovery_are_counted_and_destroy_no_work() {
        // Long constant recovery (5 s) under a high failure rate: a
        // sizable fraction of recoveries is interrupted, so the failure
        // count must exceed what a recovery-blind count would give,
        // while the work accounting invariants still hold.
        let fsim = FailureWorkflowSim {
            reservation: 29.0,
            task: tn(3.0, 0.5),
            ckpt: tn(5.0, 0.4),
            recovery: Constant::new(5.0).unwrap(),
            failure_rate: 0.2,
        };
        let policy = PeriodicCheckpointPolicy { period: 6.0 };
        let mut rng = Xoshiro256pp::new(77);
        let mut interrupted_recoveries = 0u64;
        for _ in 0..2000 {
            let out = fsim.run_once(&policy, &mut rng);
            assert!(out.work_saved + out.work_lost <= 29.0 + 1e-9);
            // With recovery = 5 s and MTBF = 5 s, P(interrupt) ≈ 1−e⁻¹;
            // count trials where the accounting shows more failures than
            // work-losing events could explain is impossible per-trial,
            // so instead track the aggregate below.
            interrupted_recoveries += out.failures;
        }
        // λR = 5.8 per reservation ignoring pauses; with failure-prone
        // recovery the observed count must stay well above half of the
        // recovery-blind floor — and nonzero interruption means the mean
        // exceeds what the old recovery-is-safe model could produce on
        // the same wall-clock exposure. Coarse sanity band:
        let mean = interrupted_recoveries as f64 / 2000.0;
        assert!(
            mean > 1.0 && mean < 1.2 * 0.2 * 29.0,
            "mean failures {mean}"
        );
    }

    #[test]
    fn failure_times_are_poisson() {
        // Mean failures over the reservation ≈ λ_f · R (computation keeps
        // running through failures here because the policy never stops
        // and recovery is short).
        let fsim = sim(0.1);
        let policy = PeriodicCheckpointPolicy { period: 6.0 };
        let cfg = MonteCarloConfig {
            trials: 50_000,
            seed: 24,
            threads: 0,
        };
        let s = run_trials(cfg, |_, rng| fsim.run_once(&policy, rng).failures as f64);
        // Not exactly λR because recovery pauses the clock exposure; the
        // count must land in the plausible band [0.6·λR, 1.1·λR].
        let lam_r = 0.1 * 29.0;
        assert!(
            s.mean > 0.6 * lam_r && s.mean < 1.1 * lam_r,
            "failures {} vs λR {lam_r}",
            s.mean
        );
    }
}
