//! Deterministic fault injection: unreliable checkpoint writes and
//! fail-stop errors for the §3/§4 runners.
//!
//! A [`ReliabilityInjector`] decides, from the trial's own RNG stream,
//! whether each checkpoint write attempt fails and when (if ever) a
//! fail-stop error kills the reservation. Everything is seed-driven —
//! no wall clock, no thread identity — so fault-injected runs obey the
//! same bit-determinism contract as the fault-free engine (enforced by
//! `tests/determinism.rs`).
//!
//! # Determinism contract
//!
//! Each trial splits its stream into two independent sub-streams at
//! entry: a *task* stream and a *fault* stream
//! (`Xoshiro256pp::new(rng.next_u64())` twice, in that order). Task
//! durations come from the task stream (batched in blocks of 8 in the
//! batched kernel); the fail-stop time, checkpoint attempt durations and
//! success coins come from the fault stream, drawn scalar in the *same
//! order in both kernels*. The two kernels differ only in how they
//! drain the task stream, and every batch kernel is draw-order
//! preserving, so their outcomes are bit-identical.
//!
//! # Failure semantics
//!
//! * A write failure is detected at the **end** of the attempt: a failed
//!   attempt consumes its full sampled duration (matching the analytic
//!   model in `resq_core::reliability`).
//! * A fail-stop error or the reservation end striking mid-write kills
//!   the attempt and the trial; work not covered by a completed
//!   checkpoint is lost (single-shot semantics, as in
//!   [`crate::workflow::WorkflowSim`], whose trial loop this simulator
//!   runs with the injector as its fault model; for recovery-and-continue
//!   semantics see [`crate::failures`]).
//! * [`resq_core::RetryPolicy::GiveUpAndWorkOn`] runs at least one more
//!   task after a failed attempt before the policy is consulted again,
//!   so a stubborn policy cannot spin on a dead checkpoint.
//! * Exactly one success coin is consumed per attempt regardless of the
//!   reliability model, so the fault stream's layout is
//!   configuration-independent given the attempt count.

use crate::stats::Welford;
use crate::trial::{single_shot, Faults, Schedule, ScheduleEnd};
use crate::workflow::{BatchScratch, WorkflowOutcome};
use rand::RngCore;
use resq_core::policy::WorkflowPolicy;
use resq_core::workflow::task_law::TaskDuration;
use resq_core::{CheckpointReliability, CoreError, RetryPolicy};
use resq_dist::{Exponential, Sample, Xoshiro256pp};

/// Converts one RNG word to a `[0, 1)` uniform with the workspace's
/// canonical 53-bit recipe (bit-identical to the uniform draw every
/// `resq_dist` sampler is built on, `traits::uniform01` there).
#[inline]
fn u01(rng: &mut dyn RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / 9007199254740992.0)
}

/// Injects checkpoint-write failures and fail-stop errors into a trial,
/// drawing every coin from the trial's RNG stream: per-attempt write
/// failures driven by a [`CheckpointReliability`] model plus an optional
/// Poisson fail-stop process of the given rate.
#[derive(Debug, Clone)]
pub struct ReliabilityInjector {
    reliability: CheckpointReliability,
    failstop: Option<Exponential>,
}

impl ReliabilityInjector {
    /// Builds the injector; `failstop_rate = 0` disables fail-stop
    /// errors entirely (and then consumes no RNG words for them).
    pub fn new(
        reliability: CheckpointReliability,
        failstop_rate: f64,
    ) -> Result<Self, CoreError> {
        reliability.validate()?;
        if !(failstop_rate.is_finite() && failstop_rate >= 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "failstop_rate",
                value: failstop_rate,
            });
        }
        let failstop = if failstop_rate > 0.0 {
            Some(Exponential::new(failstop_rate)?)
        } else {
            None
        };
        Ok(Self {
            reliability,
            failstop,
        })
    }

    /// The write-failure model.
    pub fn reliability(&self) -> &CheckpointReliability {
        &self.reliability
    }

    /// Whether a checkpoint write attempt of duration `duration` fails.
    /// Consumes exactly one RNG word per call.
    pub fn attempt_fails(&self, duration: f64, rng: &mut dyn RngCore) -> bool {
        let p = self.reliability.success_given_duration(duration);
        // One word always, so the stream layout does not depend on the
        // reliability model.
        u01(rng) >= p
    }

    /// The absolute time of the next fail-stop error strictly after
    /// `after`, or `f64::INFINITY` if the configuration injects none
    /// (in which case no RNG words are consumed).
    pub fn next_failstop(&self, after: f64, rng: &mut dyn RngCore) -> f64 {
        match &self.failstop {
            Some(law) => after + law.sample(rng),
            None => f64::INFINITY,
        }
    }
}

/// The injector's fault model on a trial's fault stream: per attempt,
/// the duration `C.max(0)` and then the success coin. It keeps to its
/// own stream and ignores the one the trial lends it.
struct InjectedFaults<'a, C> {
    ckpt: &'a C,
    injector: &'a ReliabilityInjector,
    rng: Xoshiro256pp,
}

impl<C: Sample> Faults for InjectedFaults<'_, C> {
    fn attempt<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> (f64, bool) {
        let c = self.ckpt.sample(&mut self.rng).max(0.0);
        (c, self.injector.attempt_fails(c, &mut self.rng))
    }

    fn book(&self, attempts: u32, failures: u32) {
        resq_obs::metrics::CKPT_ATTEMPTS_TOTAL.add(u64::from(attempts));
        resq_obs::metrics::CKPT_FAILURES_TOTAL.add(u64::from(failures));
    }
}

/// Splits the fault stream off `rng` and draws the fail-stop time on it
/// first; the horizon is `R` or that earlier fail-stop time.
fn injected<'a, C: Sample>(
    reservation: f64,
    ckpt: &'a C,
    injector: &'a ReliabilityInjector,
    retry: RetryPolicy,
    rng: &mut dyn RngCore,
) -> Schedule<InjectedFaults<'a, C>> {
    let mut rng = Xoshiro256pp::new(rng.next_u64());
    let t_kill = injector.next_failstop(0.0, &mut rng);
    Schedule::new(
        InjectedFaults { ckpt, injector, rng },
        retry,
        reservation.min(t_kill),
        t_kill < reservation,
    )
}

/// Outcome of one fault-injected workflow trial: the base
/// [`WorkflowOutcome`] plus the retry/fail-stop telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultyOutcome {
    /// The base outcome (work saved, tasks completed, …).
    pub outcome: WorkflowOutcome,
    /// Checkpoint write attempts made during the trial.
    pub ckpt_attempts: u32,
    /// Attempts that failed (write failure, or cut short by the
    /// reservation end / a fail-stop error).
    pub ckpt_failures: u32,
    /// Whether a fail-stop error ended the trial.
    pub killed_by_failstop: bool,
}

impl FaultyOutcome {
    /// Renders the trial's retry telemetry as a `retry-outcome` event
    /// row for the structured run log.
    ///
    /// The `trial` field is the row's half of the trace context: a
    /// [`resq_obs::TracedSink`] stamps the run half (`run_id`) onto the
    /// emitted row, so `retry-outcome` rows join against `/runs`,
    /// `/spans`, and every other row of the same run on
    /// `(run_id, trial)` — see `resq_obs::tracectx`.
    pub fn retry_event(&self, trial: u64) -> resq_obs::Event {
        resq_obs::Event::new(resq_obs::event_type::RETRY_OUTCOME)
            .u64("trial", trial)
            .u64("attempts", u64::from(self.ckpt_attempts))
            .u64("failures", u64::from(self.ckpt_failures))
            .bool("succeeded", self.outcome.checkpoint_succeeded)
            .bool("failstop", self.killed_by_failstop)
            .f64("work_saved", self.outcome.work_saved)
    }
}

/// The §4 workflow simulator under fault injection: tasks at boundaries
/// as [`crate::workflow::WorkflowSim`], but every checkpoint decision
/// starts a *retry schedule* governed by a [`RetryPolicy`], with write
/// failures and fail-stop errors drawn from the injector.
#[derive(Debug, Clone)]
pub struct FaultyWorkflowSim<X, C> {
    /// Reservation length `R`.
    pub reservation: f64,
    /// Task-duration law `D_X`.
    pub task: X,
    /// Checkpoint-duration law `D_C` (per attempt).
    pub ckpt: C,
    /// The fault source.
    pub injector: ReliabilityInjector,
    /// What to do after a failed write.
    pub retry: RetryPolicy,
}

impl<X: TaskDuration, C: Sample> FaultyWorkflowSim<X, C> {
    /// Runs one trial under `policy` (scalar task sampling).
    pub fn run_once<P: WorkflowPolicy + ?Sized>(
        &self,
        policy: &P,
        rng: &mut dyn RngCore,
    ) -> FaultyOutcome {
        let mut task_rng = Xoshiro256pp::new(rng.next_u64());
        let sched = self.schedule(rng);
        single_shot(policy, sched, 0.0, &mut task_rng, |rng| {
            self.task.sample(rng)
        })
    }

    /// Batched-sampling variant of [`FaultyWorkflowSim::run_once`]:
    /// task durations come from block draws through `scratch`; all
    /// fault-stream draws stay scalar and in the same order as the
    /// scalar kernel, so the outcome is bit-identical.
    pub fn run_once_batched<P: WorkflowPolicy + ?Sized>(
        &self,
        policy: &P,
        rng: &mut dyn RngCore,
        scratch: &mut BatchScratch,
    ) -> FaultyOutcome {
        scratch.reset();
        let mut task_rng = Xoshiro256pp::new(rng.next_u64());
        let sched = self.schedule(rng);
        single_shot(policy, sched, 0.0, &mut task_rng, |rng| {
            scratch.next_draw(&self.task, rng)
        })
    }

    /// The trial's fault model, split off `rng` after the task stream.
    fn schedule(&self, rng: &mut dyn RngCore) -> Schedule<InjectedFaults<'_, C>> {
        injected(self.reservation, &self.ckpt, &self.injector, self.retry, rng)
    }
}

/// Outcome of one fault-injected preemptible (§3) trial.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultyPreemptibleOutcome {
    /// Work saved (`R − X` on success, 0 otherwise).
    pub work_saved: f64,
    /// The lead time used.
    pub lead_time: f64,
    /// Checkpoint write attempts made.
    pub attempts: u32,
    /// Attempts that failed.
    pub failures: u32,
    /// Whether some attempt completed successfully in time.
    pub succeeded: bool,
    /// Whether a fail-stop error ended the trial.
    pub killed_by_failstop: bool,
    /// Reservation time consumed, capped at `R`.
    pub time_used: f64,
}

/// The §3 preemptible simulator under fault injection: compute until
/// `R − X`, then run the retry schedule; success means some attempt
/// completes within the reservation (i.e. the whole schedule fits into
/// the lead window `X`), which is exactly the event whose probability
/// `resq_core::RetryPreemptible::success_within` computes.
#[derive(Debug, Clone)]
pub struct RetryPreemptibleSim<C> {
    /// Reservation length `R`.
    pub reservation: f64,
    /// Checkpoint-duration law `D_C` (per attempt).
    pub ckpt: C,
    /// The fault source.
    pub injector: ReliabilityInjector,
    /// What to do after a failed write.
    pub retry: RetryPolicy,
}

impl<C: Sample> RetryPreemptibleSim<C> {
    /// Runs one trial with the given lead time.
    ///
    /// The same sub-stream discipline and retry schedule as the workflow
    /// kernel: the fault stream is split off the trial stream first, then
    /// the fail-stop time, then per attempt `(duration, coin)`. As there,
    /// every unsuccessful trial whose horizon is a fail-stop error reports
    /// `killed_by_failstop` — whether the schedule was cut short, gave
    /// up, ran out of attempts, or had its backoff outlive the horizon.
    pub fn run_once(&self, lead_time: f64, rng: &mut dyn RngCore) -> FaultyPreemptibleOutcome {
        let r = self.reservation;
        let x = lead_time.clamp(0.0, r);
        let mut sched = injected(r, &self.ckpt, &self.injector, self.retry, rng);
        let start = r - x;
        // Killed while still computing (or a degenerate X = 0): no
        // attempt starts. Give-up or an exhausted budget leave unsaved
        // work in the tail of the reservation either way.
        let saved_at = if start >= sched.horizon {
            None
        } else {
            match sched.run(start, rng) {
                ScheduleEnd::Saved(end) => Some(end),
                _ => None,
            }
        };
        sched.book();
        FaultyPreemptibleOutcome {
            work_saved: if saved_at.is_some() { r - x } else { 0.0 },
            lead_time: x,
            attempts: sched.attempts,
            failures: sched.failures,
            succeeded: saved_at.is_some(),
            killed_by_failstop: saved_at.is_none() && sched.killed,
            time_used: saved_at.unwrap_or(sched.horizon),
        }
    }

    /// Monte-Carlo mean of the saved work at lead time `x` over
    /// `trials` trials with per-trial streams `for_stream(seed, i)` —
    /// the simulation side of the analytic-vs-simulation acceptance
    /// test.
    pub fn mean_work_saved(&self, lead_time: f64, trials: u64, seed: u64) -> crate::Summary {
        let mut w = Welford::new();
        for i in 0..trials {
            let mut rng = Xoshiro256pp::for_stream(seed, i);
            w.add(self.run_once(lead_time, &mut rng).work_saved);
        }
        w.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_core::policy::ThresholdWorkflowPolicy;
    use resq_dist::{Gamma, Uniform};

    fn sim(
        p: f64,
        retry: RetryPolicy,
        failstop: f64,
    ) -> FaultyWorkflowSim<Gamma, Uniform> {
        FaultyWorkflowSim {
            reservation: 30.0,
            task: Gamma::new(9.0, 1.0 / 3.0).unwrap(),
            ckpt: Uniform::new(1.0, 2.0).unwrap(),
            injector: ReliabilityInjector::new(
                CheckpointReliability::PerAttempt { p },
                failstop,
            )
            .unwrap(),
            retry,
        }
    }

    #[test]
    fn injector_validates() {
        assert!(
            ReliabilityInjector::new(CheckpointReliability::PerAttempt { p: 0.0 }, 0.0).is_err()
        );
        assert!(ReliabilityInjector::new(CheckpointReliability::Reliable, -1.0).is_err());
        assert!(ReliabilityInjector::new(CheckpointReliability::Reliable, 0.0).is_ok());
    }

    #[test]
    fn reliable_injector_first_attempt_always_succeeds() {
        let s = sim(1.0, RetryPolicy::Immediate { max_attempts: 3 }, 0.0);
        let policy = ThresholdWorkflowPolicy { threshold: 20.0 };
        for i in 0..200 {
            let mut rng = Xoshiro256pp::for_stream(11, i);
            let out = s.run_once(&policy, &mut rng);
            if out.outcome.checkpoint_attempted && !out.killed_by_failstop {
                assert!(out.ckpt_attempts <= 1 || !out.outcome.checkpoint_succeeded);
                assert_eq!(out.ckpt_failures + u32::from(out.outcome.checkpoint_succeeded), out.ckpt_attempts);
            }
        }
    }

    #[test]
    fn same_seed_same_outcome() {
        let s = sim(0.6, RetryPolicy::Backoff { max_attempts: 4, delay: 0.3 }, 0.02);
        let policy = ThresholdWorkflowPolicy { threshold: 20.0 };
        let mut a = Xoshiro256pp::for_stream(7, 3);
        let mut b = Xoshiro256pp::for_stream(7, 3);
        assert_eq!(s.run_once(&policy, &mut a), s.run_once(&policy, &mut b));
    }

    #[test]
    fn scalar_and_batched_kernels_are_bit_identical() {
        let s = sim(0.6, RetryPolicy::Immediate { max_attempts: 3 }, 0.05);
        let policy = ThresholdWorkflowPolicy { threshold: 20.0 };
        let mut scratch = BatchScratch::new();
        for i in 0..500 {
            let mut a = Xoshiro256pp::for_stream(42, i);
            let mut b = Xoshiro256pp::for_stream(42, i);
            let scalar = s.run_once(&policy, &mut a);
            let batched = s.run_once_batched(&policy, &mut b, &mut scratch);
            assert_eq!(scalar, batched, "trial {i}");
        }
    }

    #[test]
    fn failures_are_counted_and_bounded_by_attempts() {
        let s = sim(0.5, RetryPolicy::Immediate { max_attempts: 3 }, 0.0);
        let policy = ThresholdWorkflowPolicy { threshold: 20.0 };
        let mut saw_retry = false;
        for i in 0..500 {
            let mut rng = Xoshiro256pp::for_stream(1234, i);
            let out = s.run_once(&policy, &mut rng);
            assert!(out.ckpt_failures <= out.ckpt_attempts);
            assert!(out.ckpt_attempts <= 3);
            if out.ckpt_attempts > 1 {
                saw_retry = true;
            }
        }
        assert!(saw_retry, "p = 0.5 over 500 trials must retry at least once");
    }

    #[test]
    fn give_up_and_work_on_keeps_working_after_a_failure() {
        // p tiny: the first attempt essentially always fails; with
        // give-up the trial must keep completing tasks afterwards.
        let s = sim(1e-9, RetryPolicy::GiveUpAndWorkOn, 0.0);
        let policy = ThresholdWorkflowPolicy { threshold: 10.0 };
        let mut max_attempts = 0u32;
        for i in 0..100 {
            let mut rng = Xoshiro256pp::for_stream(5, i);
            let out = s.run_once(&policy, &mut rng);
            assert!(!out.outcome.checkpoint_succeeded || out.ckpt_attempts > 0);
            max_attempts = max_attempts.max(out.ckpt_attempts);
        }
        // The policy re-fires after each forced task, so several
        // single-attempt schedules happen per trial.
        assert!(max_attempts >= 2);
    }

    #[test]
    fn failstop_kills_trials() {
        let s = sim(1.0, RetryPolicy::Immediate { max_attempts: 1 }, 0.2);
        let policy = ThresholdWorkflowPolicy { threshold: 20.0 };
        let mut killed = 0u32;
        for i in 0..300 {
            let mut rng = Xoshiro256pp::for_stream(99, i);
            let out = s.run_once(&policy, &mut rng);
            if out.killed_by_failstop {
                killed += 1;
                assert_eq!(out.outcome.work_saved, 0.0);
                assert!(out.outcome.time_used < 30.0);
            }
        }
        // P(kill before 20s of work) ≈ 1 − e^{−0.2·20} ≈ 0.98.
        assert!(killed > 200, "only {killed} of 300 trials killed");
    }

    #[test]
    fn retry_event_row_shape() {
        let out = FaultyOutcome {
            outcome: WorkflowOutcome {
                work_saved: 12.5,
                checkpoint_succeeded: true,
                ..Default::default()
            },
            ckpt_attempts: 3,
            ckpt_failures: 2,
            killed_by_failstop: false,
        };
        let json = out.retry_event(40).to_json();
        assert!(json.starts_with("{\"type\":\"retry-outcome\",\"trial\":40,"));
        assert!(json.contains("\"attempts\":3"));
        assert!(json.contains("\"failures\":2"));
        assert!(json.contains("\"succeeded\":true"));
    }

    #[test]
    fn preemptible_sim_mean_matches_bernoulli_hand_count() {
        // Uniform(1, 2) attempts, p = 1, X = 2.5: the first attempt
        // always fits, so the mean saved work is exactly R − X.
        let s = RetryPreemptibleSim {
            reservation: 10.0,
            ckpt: Uniform::new(1.0, 2.0).unwrap(),
            injector: ReliabilityInjector::new(CheckpointReliability::PerAttempt { p: 1.0 }, 0.0)
                .unwrap(),
            retry: RetryPolicy::Immediate { max_attempts: 3 },
        };
        let m = s.mean_work_saved(2.5, 2000, 3);
        assert!((m.mean - 7.5).abs() < 1e-12);
    }

    #[test]
    fn preemptible_sim_reports_every_failstop_ending() {
        // R = 10, X = 6, p = 0.3, λ = 0.2: schedules often end by running
        // out of attempts, giving up, or backing off past the fail-stop
        // time, and the fail-stop then ends the trial before R. The flag
        // must say so however the schedule ended, as in the workflow
        // simulator.
        for retry in [
            RetryPolicy::Immediate { max_attempts: 3 },
            RetryPolicy::Backoff {
                max_attempts: 3,
                delay: 1.0,
            },
            RetryPolicy::GiveUpAndWorkOn,
        ] {
            let s = RetryPreemptibleSim {
                reservation: 10.0,
                ckpt: Uniform::new(1.0, 2.0).unwrap(),
                injector: ReliabilityInjector::new(
                    CheckpointReliability::PerAttempt { p: 0.3 },
                    0.2,
                )
                .unwrap(),
                retry,
            };
            let mut after_attempts = 0;
            for i in 0..2000 {
                let mut rng = Xoshiro256pp::for_stream(17, i);
                let out = s.run_once(6.0, &mut rng);
                let ended_early = !out.succeeded && out.time_used < 10.0;
                assert_eq!(out.killed_by_failstop, ended_early, "{retry:?}, trial {i}: {out:?}");
                if ended_early && out.attempts > 0 {
                    after_attempts += 1;
                }
            }
            assert!(after_attempts > 0, "{retry:?}: no fail-stop ended a schedule");
        }
    }
}
