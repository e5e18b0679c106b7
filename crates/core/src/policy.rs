//! Unified policy interface executed by the `resq-sim` Monte-Carlo engine.
//!
//! Two scenario-specific traits mirror the paper's two settings:
//!
//! * [`PreemptiblePolicy`] — §3: the policy commits to a lead time `X`
//!   (checkpoint starts at `R − X`).
//! * [`WorkflowPolicy`] — §4: the policy is consulted at the end of every
//!   task with `(tasks completed, work done)` and answers
//!   [`Action::Checkpoint`] or [`Action::Continue`].
//!
//! Concrete policies cover everything the paper compares: the optimal
//! preemptible plan, the pessimistic `X = C_max` plan, the static
//! `n_opt` plan (§4.2), the dynamic threshold rule (§4.3), and a
//! worst-case-provisioning workflow baseline.

use crate::workflow::dynamic::DynamicStrategy;
use crate::workflow::fit::CheckpointFit;
use crate::workflow::task_law::TaskDuration;

/// Decision returned by a [`WorkflowPolicy`] at a task boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Run (at least) one more task before checkpointing.
    Continue,
    /// Checkpoint now.
    Checkpoint,
}

/// A policy for the preemptible scenario (§3): commit to a lead time.
pub trait PreemptiblePolicy {
    /// Seconds before the end of the reservation at which the checkpoint
    /// starts.
    fn lead_time(&self) -> f64;
    /// Human-readable name for reports.
    fn name(&self) -> &str;
}

/// The trivial preemptible policy: a fixed lead time with a label.
///
/// Construct it from any plan: `FixedLeadPolicy::new("optimal",
/// plan.lead_time)` — the optimal, pessimistic and oracle-expected plans
/// all reduce to this at execution time.
#[derive(Debug, Clone)]
pub struct FixedLeadPolicy {
    name: String,
    lead: f64,
}

impl FixedLeadPolicy {
    /// Creates a fixed-lead policy.
    pub fn new(name: impl Into<String>, lead: f64) -> Self {
        Self {
            name: name.into(),
            lead,
        }
    }
}

impl PreemptiblePolicy for FixedLeadPolicy {
    fn lead_time(&self) -> f64 {
        self.lead
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// A policy for the workflow scenario (§4): consulted at task boundaries.
pub trait WorkflowPolicy {
    /// Decide at the end of task `tasks_done` with `work_done` total work.
    fn decide(&self, tasks_done: u64, work_done: f64) -> Action;
    /// Human-readable name for reports.
    fn name(&self) -> &str;
}

/// §4.2 static plan as a policy: checkpoint at the end of task `n_opt`,
/// whatever the observed durations.
#[derive(Debug, Clone, Copy)]
pub struct StaticWorkflowPolicy {
    /// Checkpoint after exactly this many tasks.
    pub n_opt: u64,
}

impl WorkflowPolicy for StaticWorkflowPolicy {
    fn decide(&self, tasks_done: u64, _work_done: f64) -> Action {
        if tasks_done >= self.n_opt {
            Action::Checkpoint
        } else {
            Action::Continue
        }
    }
    fn name(&self) -> &str {
        "static"
    }
}

/// §4.3 dynamic rule as a policy: checkpoint iff `E[W_C] ≥ E[W_{+1}]` at
/// the observed work level.
///
/// The comparator is evaluated exactly (two expectations per decision);
/// for hot Monte-Carlo loops use [`ThresholdWorkflowPolicy`] with the
/// precomputed `W_int`, which is equivalent for IID tasks.
pub struct DynamicWorkflowPolicy<X: TaskDuration, C: CheckpointFit> {
    strategy: DynamicStrategy<X, C>,
}

impl<X: TaskDuration, C: CheckpointFit> DynamicWorkflowPolicy<X, C> {
    /// Wraps a dynamic strategy.
    pub fn new(strategy: DynamicStrategy<X, C>) -> Self {
        Self { strategy }
    }

    /// The underlying strategy.
    pub fn strategy(&self) -> &DynamicStrategy<X, C> {
        &self.strategy
    }

    /// Converts to the O(1)-per-decision threshold form.
    ///
    /// Returns `Err` if the threshold scan's quadrature fails to
    /// converge, and `Ok(None)` if the strategy never checkpoints.
    pub fn to_threshold_policy(
        &self,
    ) -> Result<Option<ThresholdWorkflowPolicy>, crate::error::CoreError> {
        Ok(self
            .strategy
            .threshold()?
            .map(|w_int| ThresholdWorkflowPolicy { threshold: w_int }))
    }
}

impl<X: TaskDuration, C: CheckpointFit> WorkflowPolicy for DynamicWorkflowPolicy<X, C> {
    fn decide(&self, _tasks_done: u64, work_done: f64) -> Action {
        if self.strategy.should_checkpoint(work_done) {
            Action::Checkpoint
        } else {
            Action::Continue
        }
    }
    fn name(&self) -> &str {
        "dynamic"
    }
}

/// The dynamic rule collapsed to its work threshold `W_int` (valid for
/// IID tasks, where the §4.3 comparison depends only on `w`).
#[derive(Debug, Clone, Copy)]
pub struct ThresholdWorkflowPolicy {
    /// Checkpoint as soon as accumulated work reaches this level.
    pub threshold: f64,
}

impl WorkflowPolicy for ThresholdWorkflowPolicy {
    fn decide(&self, _tasks_done: u64, work_done: f64) -> Action {
        if work_done >= self.threshold {
            Action::Checkpoint
        } else {
            Action::Continue
        }
    }
    fn name(&self) -> &str {
        "dynamic-threshold"
    }
}

/// The risk-free workflow baseline the paper's conclusion describes: keep
/// running only while a **worst-case** task plus a **worst-case**
/// checkpoint still fit in the remaining time.
#[derive(Debug, Clone, Copy)]
pub struct PessimisticWorkflowPolicy {
    /// Reservation length `R`.
    pub r: f64,
    /// Worst-case single-task duration (e.g. a high quantile or `b_X`).
    pub worst_task: f64,
    /// Worst-case checkpoint duration `C_max`.
    pub worst_ckpt: f64,
}

impl WorkflowPolicy for PessimisticWorkflowPolicy {
    fn decide(&self, _tasks_done: u64, work_done: f64) -> Action {
        if work_done + self.worst_task + self.worst_ckpt > self.r {
            Action::Checkpoint
        } else {
            Action::Continue
        }
    }
    fn name(&self) -> &str {
        "pessimistic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Normal, Truncated};

    #[test]
    fn fixed_lead_policy() {
        let p = FixedLeadPolicy::new("optimal", 5.5);
        assert_eq!(p.lead_time(), 5.5);
        assert_eq!(p.name(), "optimal");
    }

    #[test]
    fn static_policy_checkpoints_exactly_at_n_opt() {
        let p = StaticWorkflowPolicy { n_opt: 7 };
        assert_eq!(p.decide(6, 100.0), Action::Continue);
        assert_eq!(p.decide(7, 0.0), Action::Checkpoint);
        assert_eq!(p.decide(8, 0.0), Action::Checkpoint);
        assert_eq!(p.name(), "static");
    }

    #[test]
    fn dynamic_policy_agrees_with_threshold_form() {
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let ckpt = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        let strategy = DynamicStrategy::new(task, ckpt, 29.0).unwrap();
        let dynamic = DynamicWorkflowPolicy::new(strategy);
        let threshold = dynamic
            .to_threshold_policy()
            .unwrap()
            .expect("threshold exists");
        // Both forms agree except in a hair-width band around W_int.
        for i in 0..=290 {
            let w = i as f64 * 0.1;
            if (w - threshold.threshold).abs() < 0.05 {
                continue;
            }
            assert_eq!(
                dynamic.decide(3, w),
                threshold.decide(3, w),
                "disagreement at w={w} (threshold {})",
                threshold.threshold
            );
        }
        assert_eq!(dynamic.name(), "dynamic");
        assert_eq!(threshold.name(), "dynamic-threshold");
    }

    #[test]
    fn pessimistic_policy_reserves_worst_case() {
        let p = PessimisticWorkflowPolicy {
            r: 29.0,
            worst_task: 4.5,
            worst_ckpt: 6.2,
        };
        // 29 − 4.5 − 6.2 = 18.3.
        assert_eq!(p.decide(0, 18.2), Action::Continue);
        assert_eq!(p.decide(0, 18.4), Action::Checkpoint);
    }
}
