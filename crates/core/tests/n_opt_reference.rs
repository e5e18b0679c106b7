//! Slow reference for the §4.2 planners' integer optimum.
//!
//! `StaticStrategy::optimize` locates `y_opt` by a grid search on a fast
//! objective and settles `n_opt` as the better of `⌊y_opt⌋` / `⌈y_opt⌉`
//! on the exact `E(n)`. `ConvolutionStatic::optimize` scans the
//! convolution sweep. Neither may ever report anything but the
//! brute-force answer: the first `n` in `1..=⌈2R/E[X] + 10⌉` that
//! maximizes the exact `E(n)` (`expected_work`, or the values of one
//! `expected_work_upto` sweep). This file checks that, `n_opt` exactly
//! and `E(n_opt)` to the bit, over:
//!
//! - Normal and Gamma task sums at `R = 1` (Normal and Exponential
//!   `/decide` queries as the served exact path solves them), at seeded
//!   points of the `decide_mix` boxes: 16 inside and 4 just outside one
//!   axis per family;
//! - the paper's Figs. 5–7 under a plain checkpoint law and the five
//!   checkpoint-reliability models of `retry_pin`;
//! - the convolution planner on LogNormal, Uniform, Weibull and Gamma
//!   tasks: seeded `decide_mix` points at `R = 1` and the laws
//!   `exact_pin` sweeps.
//!
//! Any pruning inside the searches (skipped grid points, an early end
//! to the convolution sweep) must leave every case here green.

use resq_core::{
    CheckpointFit, CheckpointReliability, ConvolutionStatic, IidSum, RetryPolicy, RetryPreemptible,
    StaticStrategy,
};
use resq_dist::{Continuous, Gamma, LogNormal, Normal, Poisson, Truncated, Uniform, Weibull};

/// `σ_C/µ_C` of every seeded query, as `decide_mix` sends them.
const CKPT_SIGMA_RATIO: f64 = 0.08;

/// Seeded points per family inside the box, and just outside it.
const INSIDE: usize = 16;
const OUTSIDE: usize = 4;

/// SplitMix64: the seeded point stream.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    fn within(&mut self, (lo, hi): (f64, f64)) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// [`INSIDE`] points uniform in `axes`, then [`OUTSIDE`] with one axis
/// just above its upper end (by 1–10% of the axis width), at `R = 1`.
fn points(axes: &[(f64, f64)], seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng(seed);
    (0..INSIDE + OUTSIDE)
        .map(|i| {
            let mut c: Vec<f64> = axes.iter().map(|&a| rng.within(a)).collect();
            if i >= INSIDE {
                let axis = i % axes.len();
                let (lo, hi) = axes[axis];
                c[axis] = hi + rng.within((0.01, 0.10)) * (hi - lo);
            }
            c
        })
        .collect()
}

fn tn(mu: f64, sigma: f64) -> Truncated<Normal> {
    Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
}

/// The `decide_mix` checkpoint law with mean `mu`.
fn decide_ckpt(mu: f64) -> Truncated<Normal> {
    tn(mu, CKPT_SIGMA_RATIO * mu)
}

/// Asserts that `s.optimize()` reports the brute-force argmax of the
/// exact `E(n)` over `1..=⌈2R/E[X] + 10⌉`, first index on ties.
fn assert_static_matches_brute_force<T: IidSum, C: CheckpointFit>(
    name: &str,
    s: &StaticStrategy<T, C>,
) {
    let plan = s.optimize().unwrap_or_else(|e| panic!("{name}: {e}"));
    let r = s.reservation();
    let n_hi = ((2.0 * r / s.tasks().task_mean() + 10.0).ceil() as u64).max(2);
    let (mut best_n, mut best_v) = (1u64, f64::NEG_INFINITY);
    for n in 1..=n_hi {
        let v = s.expected_work(n);
        if v > best_v {
            (best_n, best_v) = (n, v);
        }
    }
    assert_eq!(
        (plan.n_opt, plan.expected_work.to_bits()),
        (best_n, best_v.to_bits()),
        "{name}: search settled on n = {} (E = {}, y_opt = {}), brute force on n = {best_n} (E = {best_v})",
        plan.n_opt,
        plan.expected_work,
        plan.y_opt
    );
}

/// Asserts that `conv.optimize()` is the first argmax of one
/// `expected_work_upto` sweep to the planner's own bound.
fn assert_convolution_matches_sweep<C: Continuous>(
    name: &str,
    conv: &ConvolutionStatic<C>,
    task_mean: f64,
) {
    let n_max = ((2.0 * conv.reservation() / task_mean) as u64 + 10).max(2);
    let values = conv.expected_work_upto(n_max);
    let (mut best_n, mut best_v) = (1u64, f64::NEG_INFINITY);
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            (best_n, best_v) = (i as u64 + 1, v);
        }
    }
    let plan = conv.optimize();
    assert_eq!(
        (plan.n_opt, plan.y_opt.to_bits(), plan.expected_work.to_bits()),
        (best_n, (best_n as f64).to_bits(), best_v.to_bits()),
        "{name}: planner settled on n = {} (E = {}), the sweep's argmax is n = {best_n} (E = {best_v})",
        plan.n_opt,
        plan.expected_work
    );
}

#[test]
fn normal_sums_at_unit_r_match_brute_force() {
    // task_mean, task_cv, ckpt_mean: the `decide_mix` Normal box.
    let axes = [(0.05, 0.30), (0.05, 0.30), (0.05, 0.30)];
    for (i, c) in points(&axes, 0x0A0F_2300).into_iter().enumerate() {
        let task = Normal::new(c[0], c[1] * c[0]).unwrap();
        let s = StaticStrategy::new(task, decide_ckpt(c[2]), 1.0).unwrap();
        assert_static_matches_brute_force(&format!("normal point {i} {c:?}"), &s);
    }
}

#[test]
fn gamma_sums_at_unit_r_match_brute_force() {
    // task_mean, ckpt_mean: the `decide_mix` Exponential box, solved as
    // Gamma(1, µ) sums.
    let axes = [(0.05, 0.30), (0.05, 0.30)];
    for (i, c) in points(&axes, 0x0A0F_2301).into_iter().enumerate() {
        let task = Gamma::new(1.0, c[0]).unwrap();
        let s = StaticStrategy::new(task, decide_ckpt(c[1]), 1.0).unwrap();
        assert_static_matches_brute_force(&format!("gamma point {i} {c:?}"), &s);
    }
}

/// The five reliability models of `retry_pin`.
fn models() -> [(CheckpointReliability, RetryPolicy); 5] {
    use CheckpointReliability::{DurationHazard, PerAttempt, Reliable};
    use RetryPolicy::{Backoff, GiveUpAndWorkOn, Immediate};
    [
        (Reliable, Immediate { max_attempts: 3 }),
        (PerAttempt { p: 0.8 }, Immediate { max_attempts: 3 }),
        (
            PerAttempt { p: 0.5 },
            Backoff {
                max_attempts: 3,
                delay: 0.5,
            },
        ),
        (DurationHazard { rate: 0.1 }, Immediate { max_attempts: 3 }),
        (PerAttempt { p: 0.7 }, GiveUpAndWorkOn),
    ]
}

/// One figure under the plain checkpoint law and every retry model.
fn figure<T: IidSum + Clone>(name: &str, tasks: T, ckpt: Truncated<Normal>, r: f64) {
    let plain = StaticStrategy::new(tasks.clone(), ckpt, r).unwrap();
    assert_static_matches_brute_force(&format!("{name} plain"), &plain);
    for (m, (rel, retry)) in models().into_iter().enumerate() {
        let model = RetryPreemptible::new(ckpt, r, rel, retry).unwrap();
        let s = StaticStrategy::new(tasks.clone(), model, r).unwrap();
        assert_static_matches_brute_force(&format!("{name} model {m}"), &s);
    }
}

#[test]
fn figures_5_to_7_under_retry_models_match_brute_force() {
    figure("fig5", Normal::new(3.0, 0.5).unwrap(), tn(5.0, 0.4), 30.0);
    figure("fig6", Gamma::new(1.0, 0.5).unwrap(), tn(2.0, 0.4), 10.0);
    figure("fig7", Poisson::new(3.0).unwrap(), tn(5.0, 0.4), 29.0);
}

#[test]
fn convolution_planner_matches_its_sweep() {
    // Seeded `decide_mix` points at R = 1, on the served grid (512).
    let uniform_axes = [(0.02, 0.20), (0.02, 0.20), (0.05, 0.30)];
    for (i, c) in points(&uniform_axes, 0x0A0F_2302).into_iter().enumerate() {
        let task = Uniform::new(c[0], c[0] + c[1]).unwrap();
        let name = format!("uniform point {i} {c:?}");
        check_law(&name, &task, decide_ckpt(c[2]), 1.0, 512);
    }
    let lognormal_axes = [(0.05, 0.30), (0.05, 0.30), (0.05, 0.30)];
    for (i, c) in points(&lognormal_axes, 0x0A0F_2303).into_iter().enumerate() {
        let task = LogNormal::from_mean_sd(c[0], c[1] * c[0]).unwrap();
        let name = format!("lognormal point {i} {c:?}");
        check_law(&name, &task, decide_ckpt(c[2]), 1.0, 512);
    }
    // The laws `exact_pin` sweeps, at both of its grid sizes.
    let lognormal = LogNormal::from_mean_sd(3.0, 0.6).unwrap();
    let uniform = Uniform::new(2.0, 5.0).unwrap();
    let weibull = Weibull::new(2.0, 3.0).unwrap();
    let gamma = Gamma::new(1.0, 0.5).unwrap();
    for cells in [512, 1024] {
        check_law("lognormal", &lognormal, tn(5.0, 0.4), 30.0, cells);
        check_law("uniform", &uniform, tn(3.0, 0.24), 29.0, cells);
        check_law("weibull", &weibull, tn(4.0, 0.5), 25.0, cells);
        check_law("gamma", &gamma, tn(2.0, 0.4), 10.0, cells);
    }
}

/// [`assert_convolution_matches_sweep`] on the planner for `task`.
fn check_law<X: Continuous>(name: &str, task: &X, ckpt: Truncated<Normal>, r: f64, cells: usize) {
    let conv = ConvolutionStatic::new(task, ckpt, r, cells).unwrap();
    assert_convolution_matches_sweep(&format!("{name} at {cells} cells"), &conv, task.mean());
}
