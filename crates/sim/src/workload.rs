//! Convergence-driven iterative workloads.
//!
//! The paper's §4 motivation: "we have an unknown number of tasks, whose
//! number depends on the convergence rate" — an iterative solver runs
//! until its residual drops below a tolerance, and nobody knows in
//! advance how many iterations that takes. This module models that
//! uncertainty so campaigns can be driven by a *convergence target*
//! instead of a fixed work amount:
//!
//! * [`ConvergenceModel`] — the log-residual performs a downward random
//!   walk (`log r_{k+1} = log r_k − D_k`, `D_k` IID positive); the
//!   iteration count to reach the target is the first-passage time.
//! * [`IterativeJob`] — bundles the convergence model with the §4 task
//!   law so simulations produce both durations and the stopping point.

use rand::RngCore;
use resq_dist::{Distribution, Sample};

/// Stochastic linear-convergence model for an iterative method.
///
/// Residuals contract by a random factor per iteration:
/// `r_{k+1} = r_k · e^{−D_k}` with `D_k ~ decay` (IID, positive mean) —
/// the standard model for stationary iterative solvers with noisy
/// contraction rates.
#[derive(Debug, Clone)]
pub struct ConvergenceModel<D> {
    /// Initial residual `r_0`.
    pub initial_residual: f64,
    /// Convergence declared at `r ≤ target_residual`.
    pub target_residual: f64,
    /// Per-iteration log-reduction law `D_k` (values ≤ 0 are clamped to
    /// 0: an iteration never increases the residual in this model).
    pub decay: D,
}

impl<D: Sample + Distribution> ConvergenceModel<D> {
    /// Expected iteration count by Wald's identity:
    /// `ln(r_0 / target) / E[D]` (approximate — ignores overshoot).
    pub fn expected_iterations(&self) -> f64 {
        let total = (self.initial_residual / self.target_residual).ln();
        total / self.decay.mean()
    }

    /// Samples the number of iterations to convergence (first-passage
    /// time of the log-residual walk). Capped at `max_iters` to bound
    /// degenerate draws.
    pub fn iterations_needed(&self, max_iters: u64, rng: &mut dyn RngCore) -> u64 {
        let mut log_r = self.initial_residual.ln();
        let target = self.target_residual.ln();
        let mut k = 0u64;
        while log_r > target && k < max_iters {
            log_r -= self.decay.sample(rng).max(0.0);
            k += 1;
        }
        k
    }
}

/// An iterative job: how long iterations take and how many are needed.
#[derive(Debug, Clone)]
pub struct IterativeJob<X, D> {
    /// Per-iteration duration law (the §4 `D_X`).
    pub task: X,
    /// Convergence model determining the (random) iteration count.
    pub convergence: ConvergenceModel<D>,
    /// Safety cap on iterations.
    pub max_iters: u64,
}

impl<X: Sample, D: Sample + Distribution> IterativeJob<X, D> {
    /// Samples a full job realization: `(iterations, total work seconds)`.
    pub fn sample_job(&self, rng: &mut dyn RngCore) -> (u64, f64) {
        let n = self.convergence.iterations_needed(self.max_iters, rng);
        let mut total = 0.0;
        for _ in 0..n {
            total += self.task.sample(rng).max(0.0);
        }
        (n, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{run_trials, MonteCarloConfig};
    use resq_dist::{Gamma, Normal, Truncated};

    fn model() -> ConvergenceModel<Gamma> {
        ConvergenceModel {
            initial_residual: 1.0,
            target_residual: 1e-8,
            // Mean log-reduction 0.4 per iteration, moderately noisy.
            decay: Gamma::new(4.0, 0.1).unwrap(),
        }
    }

    #[test]
    fn expected_iterations_matches_walds_identity() {
        let m = model();
        // ln(1e8) / 0.4 ≈ 46.05.
        assert!((m.expected_iterations() - (1e8f64).ln() / 0.4).abs() < 1e-9);
    }

    #[test]
    fn simulated_iteration_count_matches_expectation() {
        let m = model();
        let s = run_trials(
            MonteCarloConfig {
                trials: 20_000,
                seed: 1,
                threads: 0,
            },
            |_, rng| m.iterations_needed(10_000, rng) as f64,
        );
        // First-passage overshoot adds <1 iteration on average.
        assert!(
            (s.mean - m.expected_iterations()).abs() < 1.5,
            "mean {} vs Wald {}",
            s.mean,
            m.expected_iterations()
        );
        // Variability exists (it's the paper's whole premise).
        assert!(s.std_dev > 1.0, "sd {}", s.std_dev);
    }

    #[test]
    fn iteration_count_decreases_with_faster_decay() {
        let slow = ConvergenceModel {
            decay: Gamma::new(4.0, 0.05).unwrap(), // mean 0.2
            ..model()
        };
        let fast = ConvergenceModel {
            decay: Gamma::new(4.0, 0.2).unwrap(), // mean 0.8
            ..model()
        };
        let mut rng = resq_dist::Xoshiro256pp::new(7);
        let n_slow: u64 = (0..200)
            .map(|_| slow.iterations_needed(10_000, &mut rng))
            .sum();
        let n_fast: u64 = (0..200)
            .map(|_| fast.iterations_needed(10_000, &mut rng))
            .sum();
        assert!(n_fast < n_slow / 2, "fast {n_fast} vs slow {n_slow}");
    }

    #[test]
    fn cap_bounds_degenerate_walks() {
        let stuck = ConvergenceModel {
            initial_residual: 1.0,
            target_residual: 1e-300,
            decay: Gamma::new(1.0, 1e-6).unwrap(), // essentially no progress
        };
        let mut rng = resq_dist::Xoshiro256pp::new(8);
        assert_eq!(stuck.iterations_needed(500, &mut rng), 500);
    }

    #[test]
    fn job_realization_combines_count_and_durations() {
        let job = IterativeJob {
            task: Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap(),
            convergence: model(),
            max_iters: 10_000,
        };
        let mut rng = resq_dist::Xoshiro256pp::new(9);
        let (n, work) = job.sample_job(&mut rng);
        assert!(n > 20 && n < 100, "n = {n}");
        // Work ≈ 3s per iteration.
        assert!(
            (work / n as f64 - 3.0).abs() < 0.5,
            "avg {}",
            work / n as f64
        );
    }
}
