//! Single-reservation execution of §4 (workflow) policies.
//!
//! One trial: tasks with IID sampled durations run back-to-back from
//! time 0. At the end of each task the policy is consulted; on
//! [`Action::Checkpoint`] a checkpoint duration is sampled and success
//! means `elapsed + C ≤ R`. A task that would finish after `R` never
//! completes — the reservation expires mid-task and everything is lost
//! (unless a checkpoint already succeeded, which ends the trial in this
//! single-shot simulator; for §4.4 continuation see [`crate::campaign`]).
//! The trial loop itself is the one every §4 simulator runs (see
//! `crate::trial`).
//!
//! [`Action::Checkpoint`]: resq_core::policy::Action::Checkpoint

use crate::trial::{single_shot, Schedule};
use rand::RngCore;
use resq_core::policy::WorkflowPolicy;
use resq_core::workflow::task_law::TaskDuration;
use resq_dist::Sample;

/// Outcome of one simulated workflow reservation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkflowOutcome {
    /// Work saved by the final checkpoint (0 if it failed or was never
    /// taken).
    pub work_saved: f64,
    /// Tasks completed before the checkpoint decision (or before the
    /// reservation expired).
    pub tasks_completed: u64,
    /// Total work accumulated when the checkpoint was attempted.
    pub work_at_checkpoint: f64,
    /// Whether a checkpoint was attempted at all.
    pub checkpoint_attempted: bool,
    /// Whether the checkpoint succeeded.
    pub checkpoint_succeeded: bool,
    /// Sampled checkpoint duration (0 if never attempted).
    pub checkpoint_duration: f64,
    /// Reservation time consumed, capped at `R`.
    pub time_used: f64,
}

/// Simulator for the §4 scenario.
#[derive(Debug, Clone)]
pub struct WorkflowSim<X, C> {
    /// Reservation length `R`.
    pub reservation: f64,
    /// Task-duration law `D_X`.
    pub task: X,
    /// Checkpoint-duration law `D_C`.
    pub ckpt: C,
}

impl<X: TaskDuration, C: Sample> WorkflowSim<X, C> {
    /// Runs one trial under `policy`.
    ///
    /// Runs until the policy checkpoints or the reservation expires
    /// mid-task; a policy that never checkpoints ends at the first task
    /// that does not fit, so `R` must be finite and the task mean
    /// positive for the trial to end.
    pub fn run_once<P: WorkflowPolicy + ?Sized>(
        &self,
        policy: &P,
        rng: &mut dyn RngCore,
    ) -> WorkflowOutcome {
        // The checkpoint duration is independent of the task stream, so
        // it is drawn up front (as `run_oracle` always has). This fixes
        // its stream position regardless of how many tasks run, which is
        // what lets `run_once_batched` pre-draw task blocks and stay
        // bit-identical to this scalar path.
        let sched = Schedule::fault_free(self.reservation, self.ckpt.sample(rng));
        single_shot(policy, sched, 0.0, rng, |rng| self.task.sample(rng)).outcome
    }
}

/// Reusable draw buffers for [`WorkflowSim::run_once_batched`],
/// structure-of-arrays style: one fixed block of task draws and a
/// one-slot checkpoint buffer, each its own flat array. Built once per
/// Monte-Carlo *worker* (see `run_trials_batched`) and threaded through
/// every trial that worker runs, across chunk boundaries — the arrays
/// are inline (no `Vec`), so the batched hot path performs zero heap
/// allocations after worker start-up.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    tasks: [f64; Self::BLOCK],
    ckpt: [f64; 1],
    /// Draws available in `tasks` (0 or `BLOCK`).
    filled: usize,
    /// Cursor of the next unserved draw in `tasks`.
    next: usize,
}

impl BatchScratch {
    /// Task draws per refill block. Sized so the paper's §4 geometries
    /// (`R/E[X]` ≈ 8–10 tasks per reservation) usually need exactly one
    /// block per trial; surplus draws are discarded with the trial's
    /// private stream, costing one cheap batch draw each.
    const BLOCK: usize = 8;

    /// Creates empty scratch (inline buffers, nothing allocated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards buffered draws (a new trial owns a new RNG stream).
    pub(crate) fn reset(&mut self) {
        self.filled = 0;
        self.next = 0;
    }

    /// Serves the next task draw, refilling the block buffer through
    /// `sample_batch_mono` when empty — the one batched primitive shared
    /// with the fault-injected runner (`crate::faults`). Generic over
    /// the RNG so the Monte-Carlo workers (concrete per-trial
    /// `Xoshiro256pp`) get the law's sampling kernel inlined end-to-end.
    #[inline]
    pub(crate) fn next_draw<X: Sample, R: RngCore + ?Sized>(
        &mut self,
        task: &X,
        rng: &mut R,
    ) -> f64 {
        if self.next == self.filled {
            task.sample_batch_mono(rng, &mut self.tasks);
            self.filled = Self::BLOCK;
            self.next = 0;
        }
        let x = self.tasks[self.next];
        self.next += 1;
        x
    }

    /// Draws one checkpoint duration through the law's batch kernel (a
    /// length-1 `sample_batch_mono` call into the inline buffer).
    #[inline]
    pub(crate) fn draw_ckpt<C: Sample, R: RngCore + ?Sized>(
        &mut self,
        ckpt: &C,
        rng: &mut R,
    ) -> f64 {
        ckpt.sample_batch_mono(rng, &mut self.ckpt);
        self.ckpt[0]
    }
}

impl<X: TaskDuration, C: Sample> WorkflowSim<X, C> {
    /// Batched-sampling variant of [`WorkflowSim::run_once`]: the
    /// checkpoint duration comes from a length-1 `sample_batch_mono` call
    /// and task durations are pre-drawn in blocks of 8 (see
    /// [`BatchScratch`]) through [`Sample::sample_batch_mono`], replacing
    /// one virtual sampler call per draw with a monomorphized kernel per
    /// block (and unlocking the specialized batch kernels — ziggurat
    /// fills, truncated rejection — where the laws provide them).
    ///
    /// Every batch kernel is draw-order preserving, so the outcome is
    /// bit-identical to [`WorkflowSim::run_once`] on the same stream:
    /// both consume `(C, X_1, X_2, …)` in order, and block over-draws are
    /// discarded along with the trial's private stream.
    pub fn run_once_batched<P: WorkflowPolicy + ?Sized, R: RngCore + ?Sized>(
        &self,
        policy: &P,
        rng: &mut R,
        scratch: &mut BatchScratch,
    ) -> WorkflowOutcome {
        scratch.reset();
        let sched = Schedule::fault_free(self.reservation, scratch.draw_ckpt(&self.ckpt, rng));
        single_shot(policy, sched, 0.0, rng, |rng| {
            scratch.next_draw(&self.task, rng)
        })
        .outcome
    }
}

impl<X: TaskDuration, C: Sample> WorkflowSim<X, C> {
    /// Clairvoyant oracle for the workflow scenario: sees the whole task
    /// stream *and* the checkpoint duration in advance, and stops after
    /// the `k` maximizing the saved work subject to `S_k + C ≤ R`.
    ///
    /// Upper-bounds every implementable §4 policy; useful as the
    /// normalization in policy comparisons (the workflow analogue of the
    /// §3 oracle `R − E[C]`, further reduced by task-boundary
    /// quantization).
    pub fn run_oracle(&self, rng: &mut dyn RngCore) -> WorkflowOutcome {
        let r = self.reservation;
        let c = self.ckpt.sample(rng).max(0.0);
        let mut elapsed = 0.0f64;
        let mut best = 0.0f64;
        let mut best_k = 0u64;
        let mut k = 0u64;
        loop {
            let x = self.task.sample(rng).max(0.0);
            if elapsed + x > r {
                break;
            }
            elapsed += x;
            k += 1;
            if elapsed + c <= r && elapsed > best {
                best = elapsed;
                best_k = k;
            }
        }
        let attempted = best > 0.0;
        WorkflowOutcome {
            work_saved: best,
            tasks_completed: best_k,
            work_at_checkpoint: best,
            checkpoint_attempted: attempted,
            checkpoint_succeeded: attempted,
            checkpoint_duration: c,
            time_used: if attempted { best + c } else { r },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{run_trials, MonteCarloConfig};
    use resq_core::policy::{Action, StaticWorkflowPolicy, ThresholdWorkflowPolicy};
    use resq_core::{DynamicStrategy, StaticStrategy};
    use resq_dist::{Normal, Truncated, Xoshiro256pp};

    type TN = Truncated<Normal>;

    fn tn(mu: f64, sigma: f64) -> TN {
        Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
    }

    /// Paper Fig 5/8 parameters.
    fn sim_fig8() -> WorkflowSim<TN, TN> {
        WorkflowSim {
            reservation: 29.0,
            task: tn(3.0, 0.5),
            ckpt: tn(5.0, 0.4),
        }
    }

    #[test]
    fn batched_kernel_bit_identical_for_draw_order_preserving_laws() {
        // Every batch kernel preserves draw order — Gamma's default
        // scalar loop, Uniform's buffered uniforms, the truncated-Normal
        // rejection fill — so batched and scalar trials on the same
        // stream must agree bitwise: block over-draws land past
        // everything the scalar path consumes.
        use resq_dist::{Gamma, Uniform};
        fn check<X: TaskDuration, C: Sample>(sim: &WorkflowSim<X, C>) {
            let policy = ThresholdWorkflowPolicy { threshold: 20.26 };
            let mut scratch = BatchScratch::new();
            for i in 0..500u64 {
                let mut a = Xoshiro256pp::for_stream(5, i);
                let mut b = Xoshiro256pp::for_stream(5, i);
                let scalar = sim.run_once(&policy, &mut a);
                let batched = sim.run_once_batched(&policy, &mut b, &mut scratch);
                assert_eq!(scalar, batched, "trial {i}");
            }
        }
        check(&WorkflowSim {
            reservation: 29.0,
            task: Gamma::new(9.0, 1.0 / 3.0).unwrap(),
            ckpt: Uniform::new(4.0, 6.0).unwrap(),
        });
        check(&sim_fig8());
    }

    #[test]
    fn batched_kernel_statistically_matches_scalar_for_truncated_normal() {
        // Truncated<Normal> batches by rejection from the parent in stream
        // order, so the batched Monte-Carlo summary equals the scalar one
        // bit for bit — which in particular puts the means within combined
        // Monte-Carlo error.
        use crate::monte_carlo::run_trials_batched;
        use resq_obs::NullSink;
        let sim = sim_fig8();
        let policy = ThresholdWorkflowPolicy { threshold: 20.26 };
        let cfg = MonteCarloConfig {
            trials: 60_000,
            seed: 31,
            threads: 0,
        };
        let scalar = run_trials(cfg, |_, rng| sim.run_once(&policy, rng).work_saved);
        let batched =
            run_trials_batched(cfg, &NullSink, 0, BatchScratch::new, |_, rng, scratch| {
                sim.run_once_batched(&policy, rng, scratch).work_saved
            });
        let tol = 4.0 * (scalar.std_error.powi(2) + batched.std_error.powi(2)).sqrt();
        assert!(
            (scalar.mean - batched.mean).abs() < tol,
            "scalar {} vs batched {} (tol {tol})",
            scalar.mean,
            batched.mean
        );
        assert_eq!(scalar.mean.to_bits(), batched.mean.to_bits());
        assert_eq!(scalar.std_dev.to_bits(), batched.std_dev.to_bits());
    }

    #[test]
    fn static_policy_runs_exactly_n_tasks() {
        let sim = sim_fig8();
        let policy = StaticWorkflowPolicy { n_opt: 5 };
        let mut rng = Xoshiro256pp::new(1);
        for _ in 0..200 {
            let out = sim.run_once(&policy, &mut rng);
            // Tasks ≈ 3s each, 5 tasks ≈ 15s < 29: always reaches n_opt.
            assert_eq!(out.tasks_completed, 5);
            assert!(out.checkpoint_attempted);
            // ~15 + 5 < 29: essentially always succeeds.
            assert!(out.checkpoint_succeeded);
            assert!((out.work_saved - out.work_at_checkpoint).abs() < 1e-12);
        }
    }

    #[test]
    fn expired_reservation_loses_everything() {
        let sim = sim_fig8();
        // Never checkpoints → expires mid-task.
        struct Never;
        impl WorkflowPolicy for Never {
            fn decide(&self, _: u64, _: f64) -> Action {
                Action::Continue
            }
            fn name(&self) -> &str {
                "never"
            }
        }
        let mut rng = Xoshiro256pp::new(2);
        let out = sim.run_once(&Never, &mut rng);
        assert_eq!(out.work_saved, 0.0);
        assert!(!out.checkpoint_attempted);
        assert_eq!(out.time_used, 29.0);
        // ~29/3 tasks fitted.
        assert!(
            (8..=10).contains(&out.tasks_completed),
            "{}",
            out.tasks_completed
        );
    }

    #[test]
    fn checkpoint_too_late_fails() {
        let sim = sim_fig8();
        // Checkpoint only when work ≥ 27 (leaves < mean C): usually fails.
        let policy = ThresholdWorkflowPolicy { threshold: 27.0 };
        let s = run_trials(
            MonteCarloConfig {
                trials: 20_000,
                seed: 3,
                threads: 0,
            },
            |_, rng| {
                let out = sim.run_once(&policy, rng);
                out.checkpoint_succeeded as u64 as f64
            },
        );
        assert!(s.mean < 0.05, "success rate {}", s.mean);
    }

    #[test]
    fn static_simulated_mean_matches_analytic_en() {
        // Validation of Equation (3): simulated saved work under the
        // static policy ≈ E(n) for several n (Fig 5 parameters).
        let sim = sim_fig8();
        // The paper's E(n) assumes plain-Normal tasks; our simulator draws
        // truncated-Normal tasks. At μ/σ = 6 the truncation mass is ~1e-9,
        // so the analytic Normal model applies to the simulated data.
        let analytic =
            StaticStrategy::new(Normal::new(3.0, 0.5).unwrap(), tn(5.0, 0.4), 29.0).unwrap();
        for &n in &[5u64, 7, 8] {
            let policy = StaticWorkflowPolicy { n_opt: n };
            let s = run_trials(
                MonteCarloConfig {
                    trials: 300_000,
                    seed: 100 + n,
                    threads: 0,
                },
                |_, rng| sim.run_once(&policy, rng).work_saved,
            );
            let want = analytic.expected_work(n);
            assert!(
                (s.mean - want).abs() < s.ci999_half_width() + 1e-6,
                "n={n}: simulated {} vs analytic {want} (±{})",
                s.mean,
                s.ci999_half_width()
            );
        }
    }

    #[test]
    fn dynamic_threshold_beats_static_on_fig8_parameters() {
        // The paper's motivation for §4.3: accounting for observed work
        // can only help (in expectation).
        let sim = sim_fig8();
        let static_plan = StaticStrategy::new(Normal::new(3.0, 0.5).unwrap(), tn(5.0, 0.4), 29.0)
            .unwrap()
            .optimize()
            .unwrap();
        let dynamic = DynamicStrategy::new(tn(3.0, 0.5), tn(5.0, 0.4), 29.0).unwrap();
        let threshold = ThresholdWorkflowPolicy {
            threshold: dynamic.threshold().unwrap().unwrap(),
        };
        let static_policy = StaticWorkflowPolicy {
            n_opt: static_plan.n_opt,
        };
        let cfg = MonteCarloConfig {
            trials: 400_000,
            seed: 77,
            threads: 0,
        };
        let s_static = run_trials(cfg, |_, rng| sim.run_once(&static_policy, rng).work_saved);
        let s_dynamic = run_trials(cfg, |_, rng| sim.run_once(&threshold, rng).work_saved);
        assert!(
            s_dynamic.mean >= s_static.mean - s_dynamic.ci999_half_width(),
            "dynamic {} < static {}",
            s_dynamic.mean,
            s_static.mean
        );
    }

    #[test]
    fn oracle_dominates_every_policy() {
        let sim = sim_fig8();
        let cfg = MonteCarloConfig {
            trials: 100_000,
            seed: 500,
            threads: 0,
        };
        let s_oracle = run_trials(cfg, |_, rng| sim.run_oracle(rng).work_saved);
        let s_dynamic = run_trials(cfg, |_, rng| {
            sim.run_once(&ThresholdWorkflowPolicy { threshold: 20.26 }, rng)
                .work_saved
        });
        assert!(
            s_oracle.mean > s_dynamic.mean,
            "oracle {} <= dynamic {}",
            s_oracle.mean,
            s_dynamic.mean
        );
        // And it respects the §3-style bound R − E[C] ≈ 24.
        assert!(s_oracle.mean < 24.0, "oracle {} too high", s_oracle.mean);
        // For these parameters the dynamic rule is near-oracle (< 6% gap).
        assert!(
            s_dynamic.mean > 0.94 * s_oracle.mean,
            "dynamic {} far below oracle {}",
            s_dynamic.mean,
            s_oracle.mean
        );
    }

    #[test]
    fn oracle_outcome_accounting() {
        let sim = sim_fig8();
        let mut rng = Xoshiro256pp::new(501);
        for _ in 0..1000 {
            let out = sim.run_oracle(&mut rng);
            assert!(out.work_saved >= 0.0);
            if out.checkpoint_succeeded {
                assert!(out.work_saved + out.checkpoint_duration <= 29.0 + 1e-9);
                assert!(out.tasks_completed > 0);
            } else {
                assert_eq!(out.work_saved, 0.0);
            }
        }
    }

    #[test]
    fn outcome_conservation_laws() {
        // Saved work never exceeds work done; time used never exceeds R.
        let sim = sim_fig8();
        let policy = ThresholdWorkflowPolicy { threshold: 20.3 };
        let mut rng = Xoshiro256pp::new(5);
        for _ in 0..2000 {
            let out = sim.run_once(&policy, &mut rng);
            assert!(out.work_saved <= out.work_at_checkpoint + 1e-12);
            assert!(out.time_used <= 29.0 + 1e-9);
            assert!(out.work_at_checkpoint <= 29.0);
            if out.checkpoint_succeeded {
                assert!(out.checkpoint_attempted);
                assert!(out.work_at_checkpoint + out.checkpoint_duration <= 29.0 + 1e-9);
            }
        }
    }
}
