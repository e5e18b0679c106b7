//! Online controller — the embedding API for real applications.
//!
//! The paper's dynamic strategy assumes someone, at the end of each task,
//! evaluates `E[W_C]` vs `E[W_{+1}]` with the work done so far.
//! [`ReservationController`] is that someone: an iterative application
//! calls [`ReservationController::on_task_complete`] with each measured
//! iteration time and obeys the returned [`Action`]; the controller
//! tracks accumulated work, guards against overruns, and records the
//! final checkpoint outcome for trace logging.
//!
//! ```
//! use resq_dist::{Normal, Truncated};
//! use resq_core::controller::ReservationController;
//! use resq_core::policy::Action;
//! use resq_core::DynamicStrategy;
//!
//! let task = Truncated::above(Normal::new(3.0, 0.5)?, 0.0)?;
//! let ckpt = Truncated::above(Normal::new(5.0, 0.4)?, 0.0)?;
//! let strategy = DynamicStrategy::new(task, ckpt, 29.0)?;
//! let mut ctl = ReservationController::new(strategy);
//!
//! // The solver loop:
//! let mut decided = None;
//! for _ in 0..100 {
//!     let iteration_time = 3.0; // measured by the application
//!     if ctl.on_task_complete(iteration_time) == Action::Checkpoint {
//!         decided = Some(ctl.work_done());
//!         break;
//!     }
//! }
//! assert!(decided.unwrap() >= 20.0); // W_int ≈ 20.3 for these parameters
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::policy::Action;
use crate::workflow::dynamic::DynamicStrategy;
use crate::workflow::fit::CheckpointFit;
use crate::workflow::task_law::TaskDuration;

/// Lifecycle of a controlled reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerState {
    /// Executing tasks.
    Computing,
    /// The controller has asked for a checkpoint; awaiting
    /// [`ReservationController::on_checkpoint_complete`].
    CheckpointRequested,
    /// A checkpoint completed successfully; leftover time may be used.
    Checkpointed,
}

/// Online §4.3 controller for one reservation.
#[derive(Debug, Clone)]
pub struct ReservationController<X: TaskDuration, C: CheckpointFit> {
    strategy: DynamicStrategy<X, C>,
    work: f64,
    tasks: u64,
    state: ControllerState,
    /// Work durably saved by completed checkpoints in this reservation.
    saved: f64,
}

impl<X: TaskDuration, C: CheckpointFit> ReservationController<X, C> {
    /// Wraps a dynamic strategy; the controller starts at zero work.
    pub fn new(strategy: DynamicStrategy<X, C>) -> Self {
        Self {
            strategy,
            work: 0.0,
            tasks: 0,
            state: ControllerState::Computing,
            saved: 0.0,
        }
    }

    /// Accumulated (unsaved) work.
    pub fn work_done(&self) -> f64 {
        self.work
    }

    /// Completed tasks since the last checkpoint.
    pub fn tasks_done(&self) -> u64 {
        self.tasks
    }

    /// Work already made durable by checkpoints in this reservation.
    pub fn work_saved(&self) -> f64 {
        self.saved
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ControllerState {
        self.state
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> &DynamicStrategy<X, C> {
        &self.strategy
    }

    /// Report a completed task of measured `duration`; returns the §4.3
    /// decision. Durations must be non-negative (clamped otherwise).
    ///
    /// # Panics
    /// Panics if called while a checkpoint is pending — complete it with
    /// [`Self::on_checkpoint_complete`] first.
    pub fn on_task_complete(&mut self, duration: f64) -> Action {
        assert!(
            self.state != ControllerState::CheckpointRequested,
            "task reported while a checkpoint is pending"
        );
        self.state = ControllerState::Computing;
        self.work += duration.max(0.0);
        self.tasks += 1;
        if self.strategy.should_checkpoint(self.work) {
            self.state = ControllerState::CheckpointRequested;
            Action::Checkpoint
        } else {
            Action::Continue
        }
    }

    /// Report the outcome of the requested checkpoint. On success the
    /// in-flight work becomes durable and the counters reset, so the
    /// controller can keep driving the leftover time (§4.4).
    ///
    /// # Panics
    /// Panics if no checkpoint was requested.
    pub fn on_checkpoint_complete(&mut self, succeeded: bool) {
        assert!(
            self.state == ControllerState::CheckpointRequested,
            "no checkpoint was requested"
        );
        if succeeded {
            self.saved += self.work;
            self.work = 0.0;
            self.tasks = 0;
            self.state = ControllerState::Checkpointed;
        } else {
            // Failed checkpoint: work is still in memory; keep computing
            // (the caller decides whether retrying makes sense).
            self.state = ControllerState::Computing;
        }
    }

    /// Peek at the decision the controller would make at an arbitrary
    /// work level, without mutating state.
    pub fn would_checkpoint_at(&self, work: f64) -> bool {
        self.strategy.should_checkpoint(work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Normal, Truncated};

    type TN = Truncated<Normal>;

    fn strategy() -> DynamicStrategy<TN, TN> {
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let ckpt = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        DynamicStrategy::new(task, ckpt, 29.0).unwrap()
    }

    #[test]
    fn requests_checkpoint_at_threshold() {
        let w_int = strategy().threshold().unwrap().unwrap();
        let mut ctl = ReservationController::new(strategy());
        let mut crossed_at = None;
        for i in 0..20 {
            match ctl.on_task_complete(3.0) {
                Action::Continue => {}
                Action::Checkpoint => {
                    crossed_at = Some((i + 1) as f64 * 3.0);
                    break;
                }
            }
        }
        let crossed_at = crossed_at.expect("controller never checkpointed");
        // First multiple of 3 at/above W_int ≈ 20.3 is 21.
        assert!((crossed_at - 21.0).abs() < 1e-12, "crossed at {crossed_at}");
        assert!(crossed_at >= w_int);
        assert_eq!(ctl.state(), ControllerState::CheckpointRequested);
        assert_eq!(ctl.tasks_done(), 7);
    }

    #[test]
    fn successful_checkpoint_resets_counters() {
        let mut ctl = ReservationController::new(strategy());
        while ctl.on_task_complete(3.0) == Action::Continue {}
        let w = ctl.work_done();
        ctl.on_checkpoint_complete(true);
        assert_eq!(ctl.state(), ControllerState::Checkpointed);
        assert_eq!(ctl.work_done(), 0.0);
        assert_eq!(ctl.tasks_done(), 0);
        assert_eq!(ctl.work_saved(), w);
    }

    #[test]
    fn failed_checkpoint_keeps_work() {
        let mut ctl = ReservationController::new(strategy());
        while ctl.on_task_complete(3.0) == Action::Continue {}
        let w = ctl.work_done();
        ctl.on_checkpoint_complete(false);
        assert_eq!(ctl.state(), ControllerState::Computing);
        assert_eq!(ctl.work_done(), w);
        assert_eq!(ctl.work_saved(), 0.0);
    }

    #[test]
    #[should_panic(expected = "checkpoint is pending")]
    fn task_during_pending_checkpoint_panics() {
        let mut ctl = ReservationController::new(strategy());
        while ctl.on_task_complete(3.0) == Action::Continue {}
        let _ = ctl.on_task_complete(3.0);
    }

    #[test]
    #[should_panic(expected = "no checkpoint was requested")]
    fn spurious_checkpoint_completion_panics() {
        let mut ctl = ReservationController::new(strategy());
        ctl.on_checkpoint_complete(true);
    }

    #[test]
    fn negative_durations_are_clamped() {
        let mut ctl = ReservationController::new(strategy());
        ctl.on_task_complete(-5.0);
        assert_eq!(ctl.work_done(), 0.0);
        assert_eq!(ctl.tasks_done(), 1);
    }

    #[test]
    fn peek_does_not_mutate() {
        let ctl = ReservationController::new(strategy());
        assert!(!ctl.would_checkpoint_at(5.0));
        assert!(ctl.would_checkpoint_at(25.0));
        assert_eq!(ctl.work_done(), 0.0);
    }
}
