//! The paper's **general instance** (§4.1 / §5): a chain
//! `T_1 → T_2 → …` where each task `T_i` has its *own* duration law
//! `D_X^{(i)}` and its own end-of-task checkpoint law `D_C^{(i)}`.
//!
//! The paper's conclusion: "it would be easy to extend the dynamic
//! strategy to deal with the general instance … the only requirement is
//! that all the `D_X^{(i)}` and `D_C^{(i)}` distributions are
//! independent. However, extending the static strategy … seems out of
//! reach." This module implements exactly that extension:
//!
//! * the per-stage comparison generalizes §4.3 — after task `n` with work
//!   `w` done, compare `E[W_C] = w·P(C_n ≤ R−w)` against
//!   `E[W_{+1}] = ∫ (x+w)·P(C_{n+1} ≤ R−w−x) f_{X_{n+1}}(x) dx`;
//! * **multi-step lookahead** (beyond the paper's one-step rule) by
//!   backward induction over the remaining stages on a work grid
//!   ([`HeterogeneousDynamic::solve_dp`]) — the true dynamic-programming
//!   optimum for finite chains, against which the one-step rule can be
//!   benchmarked.

use crate::error::CoreError;
use crate::workflow::dynamic::scan_threshold;
use crate::workflow::fit::{validate_checkpoint, CheckpointFit};
use crate::workflow::task_law::TaskDuration;
use resq_dist::Continuous;

/// One stage of a heterogeneous chain: the task's duration law and the
/// checkpoint available at its end — a law, or a retry model over one
/// ([`CheckpointFit`]).
pub struct Stage<X, C> {
    /// Duration law of this task.
    pub task: X,
    /// Checkpoint at the end of this task.
    pub ckpt: C,
}

/// The general-instance dynamic strategy over a finite heterogeneous
/// chain (the chain may be conceptually infinite; supply as many stages
/// as could possibly fit in the reservation).
pub struct HeterogeneousDynamic<X, C> {
    stages: Vec<Stage<X, C>>,
    r: f64,
}

impl<X: TaskDuration, C: CheckpointFit> HeterogeneousDynamic<X, C> {
    /// Builds the model. Requires positive finite `R`, at least one
    /// stage, non-negative checkpoint supports and positive task means.
    pub fn new(stages: Vec<Stage<X, C>>, r: f64) -> Result<Self, CoreError> {
        if !(r > 0.0) || !r.is_finite() {
            return Err(CoreError::InvalidReservation { r });
        }
        if stages.is_empty() {
            return Err(CoreError::InvalidTaskLaw("at least one stage required"));
        }
        for s in &stages {
            validate_checkpoint(&s.ckpt, r)?;
            if !(s.task.mean() > 0.0) {
                return Err(CoreError::InvalidTaskLaw("task mean must be positive"));
            }
        }
        Ok(Self { stages, r })
    }

    /// Number of stages supplied.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True iff no stages (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Reservation length `R`.
    pub fn reservation(&self) -> f64 {
        self.r
    }

    /// The stages.
    pub fn stages(&self) -> &[Stage<X, C>] {
        &self.stages
    }

    fn fit_probability(&self, stage: usize, c: f64) -> f64 {
        self.stages[stage.min(self.stages.len() - 1)]
            .ckpt
            .fit_probability(c)
    }

    /// `E[W_C]` after completing `tasks_done` tasks with work `w`: uses
    /// the checkpoint law of the last completed task (stage 0's law if no
    /// task has completed yet — trivially 0 for `w = 0`).
    pub fn expect_checkpoint_now(&self, tasks_done: usize, w: f64) -> f64 {
        if w <= 0.0 {
            return 0.0;
        }
        let stage = tasks_done.saturating_sub(1);
        w * self.fit_probability(stage, self.r - w)
    }

    /// One-step lookahead `E[W_{+1}]`: run task `tasks_done + 1`, then
    /// checkpoint with *its* checkpoint law. Returns 0 when the chain is
    /// exhausted.
    pub fn expect_one_more(&self, tasks_done: usize, w: f64) -> f64 {
        if tasks_done >= self.stages.len() {
            return 0.0;
        }
        let next = &self.stages[tasks_done];
        next.task.expected_one_more(w.max(0.0), self.r, &next.ckpt)
    }

    /// [`HeterogeneousDynamic::expect_one_more`] with the quadrature's
    /// convergence test applied.
    fn expect_one_more_checked(&self, tasks_done: usize, w: f64) -> Result<f64, CoreError> {
        if tasks_done >= self.stages.len() {
            return Ok(0.0);
        }
        let next = &self.stages[tasks_done];
        next.task
            .expected_one_more_checked(w.max(0.0), self.r, &next.ckpt)
    }

    /// The paper's one-step rule generalized: checkpoint after task
    /// `tasks_done` iff `E[W_C] ≥ E[W_{+1}]`.
    pub fn should_checkpoint(&self, tasks_done: usize, w: f64) -> bool {
        self.expect_checkpoint_now(tasks_done, w) >= self.expect_one_more(tasks_done, w)
    }

    /// Precomputed per-stage work thresholds for the one-step rule: entry
    /// `n` is the smallest work level at which checkpointing wins after
    /// `n` completed tasks (`None` if continuing wins on all of `[0, R]`).
    ///
    /// Because the comparison at a stage depends only on `w`, this turns
    /// the expensive quadrature comparator into an O(1)-per-decision
    /// lookup — essential inside Monte-Carlo loops. Each stage runs the
    /// `W_int` scan of `DynamicStrategy::threshold` (without its fast
    /// classifier); [`CoreError::Numerics`] when an `E[W_{+1}]`
    /// quadrature fails to converge at a deciding scan point.
    pub fn one_step_thresholds(&self) -> Result<Vec<Option<f64>>, CoreError> {
        (0..=self.stages.len())
            .map(|n| {
                scan_threshold(
                    self.r,
                    |w| Ok(self.expect_checkpoint_now(n, w) - self.expect_one_more_checked(n, w)?),
                    |w| self.expect_checkpoint_now(n, w) - self.expect_one_more(n, w),
                    None,
                )
            })
            .collect()
    }
}

/// Result of the dynamic-programming solve.
#[derive(Debug, Clone)]
pub struct DpSolution {
    /// Expected saved work of the optimal stopping rule from the start.
    pub value_at_start: f64,
    /// Per-stage work thresholds: smallest grid work level at which
    /// stopping is optimal after that many completed tasks; `None` if
    /// continuing dominates on the whole grid.
    pub stage_thresholds: Vec<Option<f64>>,
}

impl<X: TaskDuration + Continuous, C: CheckpointFit> HeterogeneousDynamic<X, C> {
    /// Optimal stopping by backward induction on a work grid:
    /// `V_n(w) = max( E[W_C](n, w), E[ V_{n+1}(w + X_{n+1}) · 1[fits] ] )`.
    ///
    /// This is the exact dynamic-programming optimum (up to grid
    /// resolution) over *all* stopping rules; the paper's one-step rule
    /// is a (very good) lower bound that the test-suite compares against.
    /// Requires `Continuous` task laws (needs densities). The
    /// continuation-value quadrature is convergence-checked:
    /// non-convergence at any grid point surfaces as
    /// [`CoreError::Numerics`] instead of silently corrupting every
    /// stage upstream of it.
    pub fn solve_dp(&self, grid: usize) -> Result<DpSolution, CoreError> {
        let grid = grid.max(16);
        let n_stages = self.stages.len();
        let step = self.r / (grid - 1) as f64;
        let ws: Vec<f64> = (0..grid).map(|i| step * i as f64).collect();

        // Terminal: after the last stage the only option is stopping.
        let mut v_next: Vec<f64> = ws
            .iter()
            .map(|&w| self.expect_checkpoint_now(n_stages, w))
            .collect();
        let mut thresholds: Vec<Option<f64>> = vec![None; n_stages];

        for stage in (0..n_stages).rev() {
            let interp = |v: &[f64], w: f64| -> f64 {
                if w >= self.r {
                    return 0.0; // expired mid-task
                }
                let t = w / step;
                let i = (t as usize).min(grid - 2);
                let frac = t - i as f64;
                v[i] * (1.0 - frac) + v[i + 1] * frac
            };
            let task = &self.stages[stage].task;
            let (supp_lo, supp_hi) = task.support();
            let mut v_here = vec![0.0f64; grid];
            let mut first_stop: Option<f64> = None;
            for (i, &w) in ws.iter().enumerate() {
                let stop = self.expect_checkpoint_now(stage, w);
                let budget = self.r - w;
                let lo = supp_lo.max(0.0);
                let hi = supp_hi.min(budget);
                let cont = if hi <= lo {
                    0.0
                } else {
                    resq_numerics::adaptive_simpson_checked(
                        |x| {
                            let v = task.pdf(x) * interp(&v_next, w + x);
                            if v.is_finite() {
                                v
                            } else {
                                0.0
                            }
                        },
                        lo,
                        hi,
                        1e-9,
                    )?
                    .value
                };
                v_here[i] = stop.max(cont);
                if stop >= cont && w > 0.0 && first_stop.is_none() {
                    first_stop = Some(w);
                }
            }
            thresholds[stage] = first_stop;
            v_next = v_here;
        }
        Ok(DpSolution {
            value_at_start: v_next[0],
            stage_thresholds: thresholds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::dynamic::DynamicStrategy;
    use resq_dist::{Normal, Truncated};

    type TN = Truncated<Normal>;

    fn tn(mu: f64, sigma: f64) -> TN {
        Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
    }

    fn iid_chain(n: usize, r: f64) -> HeterogeneousDynamic<TN, TN> {
        let stages = (0..n)
            .map(|_| Stage {
                task: tn(3.0, 0.5),
                ckpt: tn(5.0, 0.4),
            })
            .collect();
        HeterogeneousDynamic::new(stages, r).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(iid_chain(3, 29.0).len() == 3);
        assert!(HeterogeneousDynamic::<TN, TN>::new(vec![], 29.0).is_err());
        let bad = vec![Stage {
            task: tn(3.0, 0.5),
            ckpt: Normal::new(5.0, 0.4).unwrap(),
        }];
        assert!(HeterogeneousDynamic::new(bad, 29.0).is_err());
        let stages = vec![Stage {
            task: tn(3.0, 0.5),
            ckpt: tn(5.0, 0.4),
        }];
        assert!(HeterogeneousDynamic::new(stages, -1.0).is_err());
    }

    #[test]
    fn iid_chain_reduces_to_section_43() {
        // With identical stages, the general rule must agree with the IID
        // DynamicStrategy at every (n, w).
        let chain = iid_chain(20, 29.0);
        let iid = DynamicStrategy::new(tn(3.0, 0.5), tn(5.0, 0.4), 29.0).unwrap();
        for n in [1usize, 3, 6] {
            for &w in &[3.0, 10.0, 18.0, 20.0, 21.0, 24.0] {
                let a = chain.expect_checkpoint_now(n, w);
                let b = iid.expect_checkpoint_now(w);
                assert!((a - b).abs() < 1e-10, "E[W_C] mismatch at n={n}, w={w}");
                let a = chain.expect_one_more(n, w);
                let b = iid.expect_one_more(w);
                assert!((a - b).abs() < 1e-8, "E[W_+1] mismatch at n={n}, w={w}");
            }
        }
    }

    #[test]
    fn retry_model_stages_reduce_to_section_43() {
        // Stages whose checkpoint is a retry model with a success
        // lattice: each stage hands that model, and so its grid, to the
        // exact integral, which must match the IID rule to the bit.
        use crate::{CheckpointReliability, RetryPolicy, RetryPreemptible};
        let model = RetryPreemptible::new(
            tn(5.0, 0.4),
            29.0,
            CheckpointReliability::PerAttempt { p: 0.8 },
            RetryPolicy::Immediate { max_attempts: 3 },
        )
        .unwrap();
        assert!(model.fit_grid().is_some());
        let stages = (0..8)
            .map(|_| Stage {
                task: tn(3.0, 0.5),
                ckpt: model.clone(),
            })
            .collect();
        let chain = HeterogeneousDynamic::new(stages, 29.0).unwrap();
        let iid = DynamicStrategy::new(tn(3.0, 0.5), model, 29.0).unwrap();
        for w in [3.0, 10.0, 18.0, 21.0, 24.0] {
            assert_eq!(
                chain.expect_one_more(2, w).to_bits(),
                iid.expect_one_more(w).to_bits(),
                "w = {w}"
            );
        }
        let thresholds = chain.one_step_thresholds().unwrap();
        assert_eq!(thresholds[0], iid.threshold().unwrap());
    }

    #[test]
    fn exhausted_chain_always_checkpoints() {
        let chain = iid_chain(2, 29.0);
        assert_eq!(chain.expect_one_more(2, 6.0), 0.0);
        assert!(chain.should_checkpoint(2, 6.0));
    }

    #[test]
    fn heterogeneous_checkpoint_costs_shift_the_decision() {
        // Stage 1's checkpoint is cheap (2 s), stage 2's expensive (8 s).
        // At the same work level, checkpointing after the cheap stage is
        // more attractive than after the expensive one.
        let stages = vec![
            Stage {
                task: tn(3.0, 0.5),
                ckpt: tn(2.0, 0.2),
            },
            Stage {
                task: tn(3.0, 0.5),
                ckpt: tn(8.0, 0.5),
            },
        ];
        let chain = HeterogeneousDynamic::new(stages, 12.0).unwrap();
        let w = 9.0; // 3 s left: cheap ckpt fits (P≈1), expensive cannot.
        let after_cheap = chain.expect_checkpoint_now(1, w);
        let after_expensive = chain.expect_checkpoint_now(2, w);
        assert!(after_cheap > 8.9, "cheap {after_cheap}");
        assert!(after_expensive < 0.1, "expensive {after_expensive}");
    }

    #[test]
    fn dp_value_dominates_one_step_rule_value() {
        // The DP optimum is an upper bound on any fixed rule's value; in
        // particular it must be ≥ the §4.3 one-step value computed from
        // the start (E over the whole process — here we just check the DP
        // start value exceeds the best single-decision plan E(n) style
        // bound: checkpoint after the DP's own first-stage threshold).
        let chain = iid_chain(12, 29.0);
        let dp = chain.solve_dp(400).unwrap();
        assert!(dp.value_at_start > 0.0);
        // The IID threshold policy's analytic value is bounded by oracle
        // R − E[C] ≈ 24; DP must also respect that bound.
        assert!(dp.value_at_start < 29.0 - 4.0);
        // DP should at least reach the static plan's expected work.
        let static_plan = crate::workflow::statics::StaticStrategy::new(
            Normal::new(3.0, 0.5).unwrap(),
            tn(5.0, 0.4),
            29.0,
        )
        .unwrap()
        .optimize()
        .unwrap();
        assert!(
            dp.value_at_start >= static_plan.expected_work - 0.05,
            "DP {} < static {}",
            dp.value_at_start,
            static_plan.expected_work
        );
    }

    #[test]
    fn one_step_thresholds_match_comparator() {
        let chain = iid_chain(12, 29.0);
        let thresholds = chain.one_step_thresholds().unwrap();
        assert_eq!(thresholds.len(), 13);
        // IID chain: every non-terminal stage shares the IID W_int, to
        // the bit — both run the one `W_int` scan.
        let iid_w = DynamicStrategy::new(tn(3.0, 0.5), tn(5.0, 0.4), 29.0)
            .unwrap()
            .threshold()
            .unwrap()
            .unwrap();
        for (n, t) in thresholds.iter().enumerate().take(12) {
            let t = t.expect("threshold exists");
            assert_eq!(t.to_bits(), iid_w.to_bits(), "stage {n}: {t} vs {iid_w}");
            // The threshold separates the comparator's decisions.
            assert!(!chain.should_checkpoint(n, t - 0.3));
            assert!(chain.should_checkpoint(n, t + 0.3));
        }
        // Terminal entry: chain exhausted → checkpoint at any work level.
        assert_eq!(thresholds[12], Some(0.0));
    }

    #[test]
    fn dp_thresholds_are_sane() {
        let chain = iid_chain(12, 29.0);
        let dp = chain.solve_dp(400).unwrap();
        // Early stages: stopping should not be optimal at tiny work
        // levels; the recorded threshold (if any) should be substantial.
        if let Some(t0) = dp.stage_thresholds[0] {
            assert!(t0 > 5.0, "stage-0 threshold {t0}");
        }
        // Late-stage thresholds exist and sit near the IID W_int ≈ 20.3.
        let mid = dp.stage_thresholds[8].expect("threshold at stage 8");
        assert!((mid - 20.3).abs() < 2.0, "stage-8 threshold {mid}");
    }
}
