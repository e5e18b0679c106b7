//! The single-shot §4 trial — the one loop in this crate that runs
//! tasks and checkpoint attempts — and the retry schedule, shared with
//! [`crate::RetryPreemptibleSim`].
//!
//! One trial: tasks with IID sampled durations run back-to-back from a
//! start time. At the end of each task the policy is consulted; on
//! [`Action::Checkpoint`] a retry schedule of checkpoint write attempts
//! starts. The trial ends when an attempt completes (the work done so far
//! is saved), or at the *horizon* — the reservation end `R`, or an
//! earlier fail-stop error — with everything lost. A boundary exactly on
//! the horizon still consults the policy: a task or write ending exactly
//! there fits.
//!
//! [`crate::WorkflowSim`] and [`crate::FaultyWorkflowSim`] run one such
//! trial from time 0. [`crate::FailureWorkflowSim`] and
//! [`crate::CampaignSimulator`] chain them as *stretches* of work, each
//! ending at a checkpoint, a fail-stop error or the deadline; recovery
//! and continuation are theirs to decide between stretches, and the loop
//! knows nothing of either.
//!
//! The loop is generic over the fault model ([`NoFaults`], [`Drawn`], or
//! the injector in `crate::faults`) and over the task-draw source (a
//! closure drawing one `sample` per task, or serving `BatchScratch`
//! blocks), so each simulator × kernel pair compiles to its own
//! specialised loop.

use crate::faults::FaultyOutcome;
use crate::workflow::WorkflowOutcome;
use rand::RngCore;
use resq_core::policy::{Action, WorkflowPolicy};
use resq_core::RetryPolicy;
use resq_dist::Sample;

/// What can go wrong with a checkpoint write.
pub(crate) trait Faults {
    /// Draws one write attempt: its duration and whether the write fails.
    /// `rng` is the stream the trial's tasks come from, lent for models
    /// that draw on it.
    fn attempt<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> (f64, bool);

    /// Books a finished trial's attempt and failure counts.
    fn book(&self, _attempts: u32, _failures: u32) {}
}

/// The fault-free model: one write of the checkpoint duration drawn at
/// trial start (unclamped), which never fails.
pub(crate) struct NoFaults(pub(crate) f64);

impl Faults for NoFaults {
    #[inline]
    fn attempt<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> (f64, bool) {
        (self.0, false)
    }
}

/// A checkpoint duration `C.max(0)` drawn from the trial's stream at
/// each attempt; the write never fails.
pub(crate) struct Drawn<'a, C>(pub(crate) &'a C);

impl<C: Sample> Faults for Drawn<'_, C> {
    #[inline]
    fn attempt<R: RngCore + ?Sized>(&mut self, mut rng: &mut R) -> (f64, bool) {
        // `&mut R` is itself an `RngCore`, so this reaches `sample`'s
        // `&mut dyn RngCore` for unsized `R` too.
        (self.0.sample(&mut rng).max(0.0), false)
    }
}

/// How one retry schedule ended.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ScheduleEnd {
    /// An attempt completed successfully at this time.
    Saved(f64),
    /// The horizon cut the schedule short.
    Dead,
    /// [`RetryPolicy::GiveUpAndWorkOn`]: back to running tasks at this
    /// time.
    GiveUp(f64),
    /// The attempt budget is spent at this time; no further attempts
    /// this trial.
    Exhausted(f64),
}

/// A trial's fault model, retry policy and horizon, plus the tally of
/// the attempts made so far.
pub(crate) struct Schedule<F> {
    faults: F,
    retry: RetryPolicy,
    /// When the trial dies: `R`, or an earlier fail-stop time.
    pub(crate) horizon: f64,
    /// Whether the horizon is a fail-stop error rather than `R`.
    pub(crate) killed: bool,
    pub(crate) attempts: u32,
    pub(crate) failures: u32,
    /// Duration of the latest attempt (0 before the first).
    last_c: f64,
}

impl Schedule<NoFaults> {
    /// The fault-free trial: horizon `R`, one attempt of duration `c`.
    pub(crate) fn fault_free(reservation: f64, c: f64) -> Self {
        // The retry policy is never consulted: fault-free writes never
        // fail.
        Self::new(
            NoFaults(c),
            RetryPolicy::Immediate { max_attempts: 1 },
            reservation,
            false,
        )
    }
}

impl<'a, C: Sample> Schedule<Drawn<'a, C>> {
    /// A schedule of one never-failing write per checkpoint decision,
    /// its duration drawn at the attempt; the trial dies at `horizon`,
    /// which is a fail-stop error if `killed`.
    pub(crate) fn drawn(ckpt: &'a C, horizon: f64, killed: bool) -> Self {
        // As in `fault_free`, the retry policy is never consulted.
        Self::new(
            Drawn(ckpt),
            RetryPolicy::Immediate { max_attempts: 1 },
            horizon,
            killed,
        )
    }
}

impl<F: Faults> Schedule<F> {
    pub(crate) fn new(faults: F, retry: RetryPolicy, horizon: f64, killed: bool) -> Self {
        Self {
            faults,
            retry,
            horizon,
            killed,
            attempts: 0,
            failures: 0,
            last_c: 0.0,
        }
    }

    /// Runs one retry schedule starting at `start`: attempts back to
    /// back, plus backoff, until one completes or the policy stops.
    ///
    /// A write failure is detected at the end of the attempt, so a
    /// failed attempt consumes its full duration; an attempt that would
    /// end past the horizon is cut short.
    pub(crate) fn run<R: RngCore + ?Sized>(&mut self, start: f64, rng: &mut R) -> ScheduleEnd {
        let budget = self.retry.max_attempts();
        let mut t = start;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            self.attempts += 1;
            let (c, fails) = self.faults.attempt(rng);
            self.last_c = c;
            let end = t + c;
            // Cut short mid-write by the horizon. The negated form also
            // fails a NaN end, as the fault-free `elapsed + C ≤ R` test
            // always has.
            if !(end <= self.horizon) {
                self.failures += 1;
                return ScheduleEnd::Dead;
            }
            if !fails {
                return ScheduleEnd::Saved(end);
            }
            self.failures += 1;
            match self.retry {
                RetryPolicy::Immediate { .. } if attempt < budget => t = end,
                RetryPolicy::Backoff { delay, .. } if attempt < budget => {
                    t = end + delay;
                    if t >= self.horizon {
                        // The backoff outlives the horizon: no further
                        // attempt can start, let alone finish.
                        return ScheduleEnd::Dead;
                    }
                }
                RetryPolicy::GiveUpAndWorkOn => return ScheduleEnd::GiveUp(end),
                _ => return ScheduleEnd::Exhausted(end),
            }
        }
    }

    /// Books the tally with the fault model; call once per trial.
    pub(crate) fn book(&self) {
        self.faults.book(self.attempts, self.failures);
    }
}

/// Runs one single-shot trial under `policy` from time `start`, drawing
/// task durations from `next_task` on `rng` (negative draws clamp to 0);
/// the fault model draws its attempts on the same `rng`.
///
/// The outcome's counters, work and attempt tally cover this trial only;
/// `time_used` is the clock when it ended (the horizon unless saved).
///
/// [`RetryPolicy::GiveUpAndWorkOn`] runs at least one more task after a
/// failed attempt before the policy is consulted again, so a stubborn
/// policy cannot spin on a dead checkpoint. Work done after a give-up or
/// an exhausted budget counts towards a later checkpoint only; nothing is
/// saved unless an attempt completes.
#[inline]
pub(crate) fn single_shot<P, F, R>(
    policy: &P,
    mut sched: Schedule<F>,
    start: f64,
    rng: &mut R,
    mut next_task: impl FnMut(&mut R) -> f64,
) -> FaultyOutcome
where
    P: WorkflowPolicy + ?Sized,
    F: Faults,
    R: RngCore + ?Sized,
{
    let mut work = 0.0f64;
    let mut clock = start;
    let mut tasks = 0u64;
    let mut exhausted = false;
    let mut work_on = false;
    let saved_at = loop {
        // Consult the policy at the current boundary (including the
        // start: a policy may checkpoint before any task — useless but
        // legal).
        if !exhausted && !work_on && policy.decide(tasks, work) == Action::Checkpoint {
            match sched.run(clock, rng) {
                ScheduleEnd::Saved(end) => break Some(end),
                ScheduleEnd::Dead => break None,
                ScheduleEnd::GiveUp(end) => {
                    clock = end;
                    work_on = true;
                }
                ScheduleEnd::Exhausted(end) => {
                    clock = end;
                    exhausted = true;
                }
            }
            continue;
        }
        let x = next_task(rng).max(0.0);
        if clock + x > sched.horizon {
            // Reservation expiry or fail-stop mid-task.
            break None;
        }
        clock += x;
        work += x;
        tasks += 1;
        work_on = false;
    };
    sched.book();
    let saved = saved_at.is_some();
    FaultyOutcome {
        outcome: WorkflowOutcome {
            work_saved: if saved { work } else { 0.0 },
            tasks_completed: tasks,
            work_at_checkpoint: work,
            checkpoint_attempted: sched.attempts > 0,
            checkpoint_succeeded: saved,
            checkpoint_duration: sched.last_c,
            time_used: saved_at.unwrap_or(sched.horizon),
        },
        ckpt_attempts: sched.attempts,
        ckpt_failures: sched.failures,
        killed_by_failstop: !saved && sched.killed,
    }
}
