//! Static strategy for **arbitrary** task laws via numeric convolution.
//!
//! §4.2 restricts `D_X` to families closed under IID summation (Normal,
//! Gamma, Poisson) because Equation (3) needs the density of
//! `S_n = Σ X_i`. This module removes the restriction: the task density
//! is discretized on a uniform grid over `[0, R]` and self-convolved
//! (`pmf_{n} = pmf_{n−1} ⊛ pmf_1`), which is exact up to grid resolution
//! for *any* non-negative continuous law — LogNormal or Weibull
//! iteration times, empirical mixtures, anything implementing
//! [`Continuous`]. Mass above `R` is dropped: such sums can never be
//! saved, so neither their location nor their total is needed. The
//! sweep stops once the mass of `S_n` left inside the grid falls below
//! 1e-12.
//!
//! Cost: `O(n · m · k)` for grid size `m`, `k ≤ m` cells from the task
//! pmf's first nonzero cell to its last, and `n` convolution steps. The
//! planner stops as soon as the mass of `S_n` left inside the grid
//! bounds every later `E(n')` below the best so far, well short of its
//! search bound `2R/E[X] + 10`; with the default `m = 1024` and
//! reservation-scale `n`, planning takes milliseconds.

use crate::error::CoreError;
use crate::workflow::fit::{validate_checkpoint, CheckpointFit};
use crate::workflow::statics::StaticPlan;
use resq_dist::Continuous;
use resq_numerics::{tabulate_cdf, NeumaierSum};
use std::ops::Range;

/// Static-strategy planner for arbitrary non-negative task laws.
#[derive(Debug, Clone)]
pub struct ConvolutionStatic<C: Continuous> {
    ckpt: C,
    r: f64,
    /// Grid spacing.
    h: f64,
    /// Single-task probability mass per grid node `x_j = j·h` (node `j`
    /// collects `[x_j − h/2, x_j + h/2)`); the mass beyond the grid is
    /// dropped.
    task_pmf: Vec<f64>,
    /// The cells of `task_pmf` from its first nonzero one to its last:
    /// all a convolution step has to visit.
    mass: Range<usize>,
    /// `P(C ≤ R − x_j)` precomputed at the cell midpoints.
    fit_prob: Vec<f64>,
    /// `max_j x_j·P(C ≤ R − x_j)`: `E(n)` is at most this times the mass
    /// of `S_n` inside the grid.
    work_cap: f64,
    /// Mean of one task (for search bounds).
    task_mean: f64,
}

impl<C: Continuous> ConvolutionStatic<C> {
    /// Builds the planner for task law `task`, checkpoint law `ckpt`
    /// (support in `[0, ∞)`) and reservation `R`, with `grid` cells
    /// covering `[0, R]` (≥ 64; 1024 is a good default).
    pub fn new<X: Continuous>(task: &X, ckpt: C, r: f64, grid: usize) -> Result<Self, CoreError> {
        validate_checkpoint(&ckpt, r)?;
        let (tlo, _) = task.support();
        if tlo < -1e-9 {
            return Err(CoreError::InvalidTaskLaw(
                "convolution planner requires non-negative task support",
            ));
        }
        let m = grid.max(64);
        let h = r / m as f64;
        // Point masses at the grid nodes x_j = j·h with centered cells
        // (node j collects the mass of [x_j − h/2, x_j + h/2)): node
        // indices then add *exactly* under convolution, so no systematic
        // drift accumulates across the n self-convolutions (cell-to-cell
        // assignment would bias S_n down by (n−1)·h/2).
        // The task CDF at 0 and at every cell's upper edge, in one call.
        let edges: Vec<f64> = std::iter::once(0.0)
            .chain((0..=m).map(|j| (j as f64 + 0.5) * h))
            .collect();
        let mut cdf = vec![0.0; edges.len()];
        task.cdf_into(&edges, &mut cdf);
        let task_pmf: Vec<f64> = cdf.windows(2).map(|c| (c[1] - c[0]).max(0.0)).collect();
        let first = task_pmf.iter().position(|&q| q != 0.0).unwrap_or(0);
        let end = task_pmf
            .iter()
            .rposition(|&q| q != 0.0)
            .map_or(first, |last| last + 1);
        let task_mean = resq_dist::Distribution::mean(task);
        if !(task_mean > 0.0) {
            return Err(CoreError::InvalidTaskLaw("task mean must be positive"));
        }
        // The fit never decreases in `c = R − x_j`, so tabulating it in
        // ascending `c` (descending `j`) stops at its first exact 1.
        let (mut fit_prob, _) = tabulate_cdf(
            |c| ckpt.fit_probability(c),
            (0..=m).rev().map(|j| r - j as f64 * h),
        );
        fit_prob.reverse();
        let work_cap = fit_prob
            .iter()
            .enumerate()
            .map(|(j, &fit)| j as f64 * h * fit)
            .fold(0.0, f64::max);
        Ok(Self {
            ckpt,
            r,
            h,
            task_pmf,
            mass: first..end,
            fit_prob,
            work_cap,
            task_mean,
        })
    }

    /// Reservation length `R`.
    pub fn reservation(&self) -> f64 {
        self.r
    }

    /// The checkpoint law.
    pub fn checkpoint_law(&self) -> &C {
        &self.ckpt
    }

    /// Grid resolution `h`.
    pub fn resolution(&self) -> f64 {
        self.h
    }

    /// One convolution step: `out = pmf ⊛ task_pmf` on the grid, the
    /// mass that lands beyond it dropped.
    ///
    /// Only the task cells from the first to the last nonzero one are
    /// visited. Zero cells inside that range add `p·0.0 = 0.0` to a
    /// non-negative sum, which changes no bit, so every cell (summed in
    /// ascending `i`) is exactly what visiting the nonzero cells alone
    /// would give.
    ///
    /// The sum runs on AVX2 registers where the CPU has them
    /// ([`convolve_avx2`]) and on the generic build elsewhere; both give
    /// the same bits.
    fn convolve_step(&self, pmf: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0f64; pmf.len()];
        let task = &self.task_pmf[self.mass.clone()];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked on the line above.
            unsafe { convolve_avx2(pmf, task, self.mass.start, &mut out) };
            return out;
        }
        convolve_into(pmf, task, self.mass.start, &mut out);
        out
    }

    /// `E(n)` on the grid: `Σ_j x_j · P(C ≤ R − x_j) · P(S_n ∈ cell j)`.
    fn expected_from_pmf(&self, pmf: &[f64]) -> f64 {
        let mut acc = NeumaierSum::new();
        for (j, (&p, &fit)) in pmf.iter().zip(&self.fit_prob).enumerate() {
            if p > 0.0 && fit > 0.0 {
                acc.add(j as f64 * self.h * fit * p);
            }
        }
        acc.value()
    }

    /// The one convolution sweep: hands `visit` the pmf of `S_n` and its
    /// mass left inside the grid, `Σ_j pmf_n[j]`, for `n = 1, 2, …` in
    /// turn, until `n_max`, until `visit` returns `false`, or until that
    /// mass falls below 1e-12 (checked from `n = 2` on).
    fn sweep(&self, n_max: u64, mut visit: impl FnMut(&[f64], f64) -> bool) {
        let mut pmf = self.task_pmf.clone();
        if !visit(&pmf, pmf.iter().sum()) {
            return;
        }
        for _ in 1..n_max {
            pmf = self.convolve_step(&pmf);
            let in_grid: f64 = pmf.iter().sum();
            if !visit(&pmf, in_grid) || in_grid < 1e-12 {
                return;
            }
        }
    }

    /// Computes `E(n)` for `n = 1..=n_max` in one convolution sweep.
    /// Once the mass of `S_n` left inside the grid falls below 1e-12,
    /// every further `E(n)` is reported as 0.
    pub fn expected_work_upto(&self, n_max: u64) -> Vec<f64> {
        let mut values = Vec::with_capacity(n_max as usize);
        self.sweep(n_max, |pmf, _| {
            values.push(self.expected_from_pmf(pmf));
            true
        });
        while values.len() < n_max as usize {
            values.push(0.0);
        }
        values
    }

    /// A bound on `E(n')` for every `n' ≥ n`, given `in_grid`, the mass
    /// of `S_n` left inside the grid (`Σ_j pmf_n[j]`):
    /// `work_cap · in_grid · (1 + 1e-9)`.
    ///
    /// Each term of `E(n')` is at most `work_cap · pmf_{n'}[j]`, and the
    /// mass inside the grid never grows under convolution with the
    /// non-negative task pmf, whose cells sum to at most 1 (whatever
    /// leaves the grid is dropped). The `1e-9` covers the rounding of
    /// the sums.
    fn later_work_bound(&self, in_grid: f64) -> f64 {
        self.work_cap * in_grid * (1.0 + 1e-9)
    }

    /// Full static plan: the first `n` maximizing `E(n)` over
    /// `n ≤ 2·R/E[X] + 10`, the argmax of [`Self::expected_work_upto`].
    ///
    /// The sweep ends at the first `n` where a bound on every later
    /// `E(n')` from the mass of `S_n` left inside the grid
    /// (`later_work_bound`) falls below the best `E` so far: no later `n`
    /// can win.
    pub fn optimize(&self) -> StaticPlan {
        let _span = resq_obs::span::enter(resq_obs::span_name::SOLVE_STATIC);
        let n_max = ((2.0 * self.r / self.task_mean) as u64 + 10).max(2);
        let (mut n, mut best_n, mut best_v) = (0u64, 1u64, f64::NEG_INFINITY);
        self.sweep(n_max, |pmf, in_grid| {
            n += 1;
            let v = self.expected_from_pmf(pmf);
            if v > best_v {
                best_v = v;
                best_n = n;
            }
            self.later_work_bound(in_grid) >= best_v
        });
        StaticPlan {
            y_opt: best_n as f64,
            n_opt: best_n,
            expected_work: best_v,
        }
    }
}

/// The sum of one convolution step: `out[i + offset + k] += pmf[i]·task[k]`
/// for every nonzero `pmf[i]` in ascending `i`, dropping what lands
/// beyond `out`. Each cell takes one product and one sum per term, in
/// that order, so no width changes a bit: the generic build runs where
/// `convolve_step` calls it, AVX2 inside [`convolve_avx2`].
#[inline(always)]
fn convolve_into(pmf: &[f64], task: &[f64], offset: usize, out: &mut [f64]) {
    for (i, &p) in pmf.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let Some(out) = out.get_mut(i + offset..) else {
            break;
        };
        for (o, &q) in out.iter_mut().zip(task) {
            *o += p * q;
        }
    }
}

/// [`convolve_into`] on four-wide AVX2 registers. FMA stays disabled,
/// so no multiply-add is contracted.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn convolve_avx2(pmf: &[f64], task: &[f64], offset: usize, out: &mut [f64]) {
    convolve_into(pmf, task, offset, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::statics::StaticStrategy;
    use resq_dist::{Distribution, Gamma, LogNormal, Normal, Truncated, Uniform, Weibull};

    fn ckpt(mu_c: f64, sigma_c: f64) -> Truncated<Normal> {
        Truncated::above(Normal::new(mu_c, sigma_c).unwrap(), 0.0).unwrap()
    }

    #[test]
    fn construction_validates() {
        let t = Gamma::new(1.0, 0.5).unwrap();
        assert!(ConvolutionStatic::new(&t, ckpt(2.0, 0.4), 10.0, 512).is_ok());
        assert!(ConvolutionStatic::new(&t, ckpt(2.0, 0.4), 0.0, 512).is_err());
        assert!(ConvolutionStatic::new(&t, Normal::new(2.0, 0.4).unwrap(), 10.0, 512).is_err());
        // Negative-support task law rejected.
        let bad = Normal::new(3.0, 0.5).unwrap();
        assert!(ConvolutionStatic::new(&bad, ckpt(2.0, 0.4), 10.0, 512).is_err());
    }

    #[test]
    fn matches_closed_form_gamma_family() {
        // Fig-6 parameters: the convolution planner must agree with the
        // analytic Gamma-sum strategy.
        let task = Gamma::new(1.0, 0.5).unwrap();
        let analytic = StaticStrategy::new(task, ckpt(2.0, 0.4), 10.0).unwrap();
        let conv = ConvolutionStatic::new(&task, ckpt(2.0, 0.4), 10.0, 2048).unwrap();
        let values = conv.expected_work_upto(16);
        for n in [4u64, 8, 11, 12, 14] {
            let want = analytic.expected_work(n);
            let got = values[n as usize - 1];
            assert!(
                (got - want).abs() < 0.02,
                "n={n}: convolution {got} vs analytic {want}"
            );
        }
        assert_eq!(conv.optimize().n_opt, 12); // paper's n_opt
    }

    #[test]
    fn matches_truncated_normal_tasks() {
        // Truncated-Normal tasks at μ/σ = 6 ≈ the plain-Normal model of
        // Fig 5 (truncation mass ~1e-9); R scaled down to keep the test
        // fast.
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let analytic =
            StaticStrategy::new(Normal::new(3.0, 0.5).unwrap(), ckpt(5.0, 0.4), 30.0).unwrap();
        let conv = ConvolutionStatic::new(&task, ckpt(5.0, 0.4), 30.0, 1024).unwrap();
        for n in [6u64, 7, 8] {
            let want = analytic.expected_work(n);
            let got = conv.expected_work_upto(n)[n as usize - 1];
            assert!(
                (got - want).abs() < 0.1,
                "n={n}: convolution {got} vs analytic {want}"
            );
        }
        assert_eq!(conv.optimize().n_opt, 7); // paper's n_opt (Fig 5)
    }

    #[test]
    fn handles_lognormal_tasks_beyond_paper() {
        // LogNormal task times — outside the paper's closed families; the
        // planner must still produce a coherent optimum.
        let task = LogNormal::from_mean_sd(3.0, 0.6).unwrap();
        let conv = ConvolutionStatic::new(&task, ckpt(5.0, 0.4), 30.0, 1024).unwrap();
        let plan = conv.optimize();
        assert!((5..=9).contains(&plan.n_opt), "n_opt = {}", plan.n_opt);
        assert!(plan.expected_work > 15.0 && plan.expected_work < 25.0);
        // Optimum dominates neighbours.
        let values = conv.expected_work_upto(plan.n_opt + 3);
        for v in &values {
            assert!(*v <= plan.expected_work + 1e-9);
        }
    }

    #[test]
    fn handles_weibull_tasks() {
        let task = Weibull::new(2.0, 3.0).unwrap(); // mean ≈ 2.66
        let conv = ConvolutionStatic::new(&task, ckpt(4.0, 0.5), 25.0, 1024).unwrap();
        let plan = conv.optimize();
        assert!(plan.n_opt >= 5 && plan.n_opt <= 9, "n_opt = {}", plan.n_opt);
        assert!(plan.expected_work > 0.0);
    }

    /// Six planners, with each task law's name and mean: the cases the
    /// early exit and the dispatched convolution step are checked on.
    fn early_exit_cases() -> [(&'static str, ConvolutionStatic<Truncated<Normal>>, f64); 6] {
        [
            {
                let task = LogNormal::from_mean_sd(3.0, 0.6).unwrap();
                let conv = ConvolutionStatic::new(&task, ckpt(5.0, 0.4), 30.0, 1024).unwrap();
                ("lognormal", conv, task.mean())
            },
            {
                let task = LogNormal::from_mean_sd(0.12, 0.03).unwrap();
                let conv = ConvolutionStatic::new(&task, ckpt(0.2, 0.016), 1.0, 512).unwrap();
                ("lognormal unit r", conv, task.mean())
            },
            {
                let task = Uniform::new(0.05, 0.17).unwrap();
                let conv = ConvolutionStatic::new(&task, ckpt(0.1, 0.008), 1.0, 512).unwrap();
                ("uniform unit r", conv, task.mean())
            },
            {
                let task = Uniform::new(2.0, 5.0).unwrap();
                let conv = ConvolutionStatic::new(&task, ckpt(3.0, 0.24), 29.0, 1024).unwrap();
                ("uniform", conv, task.mean())
            },
            {
                let task = Weibull::new(2.0, 3.0).unwrap();
                let conv = ConvolutionStatic::new(&task, ckpt(4.0, 0.5), 25.0, 1024).unwrap();
                ("weibull", conv, task.mean())
            },
            {
                let task = Gamma::new(1.0, 0.5).unwrap();
                let conv = ConvolutionStatic::new(&task, ckpt(2.0, 0.4), 10.0, 512).unwrap();
                ("gamma", conv, task.mean())
            },
        ]
    }

    #[test]
    fn early_exit_never_skips_a_winning_n() {
        // At every n of a full sweep, the bound the early exit reads lies
        // above every later E(n'); and on these laws the exit does fire,
        // well before the search bound.
        let cases = early_exit_cases();
        for (name, conv, mean) in &cases {
            let n_max = (2.0 * conv.reservation() / mean) as u64 + 10;
            let (mut values, mut bounds) = (Vec::new(), Vec::new());
            conv.sweep(n_max, |pmf, in_grid| {
                values.push(conv.expected_from_pmf(pmf));
                bounds.push(conv.later_work_bound(in_grid));
                true
            });
            let mut best = f64::NEG_INFINITY;
            let mut exit = None;
            for (i, &bound) in bounds.iter().enumerate() {
                let later = values[i..].iter().copied().fold(0.0, f64::max);
                assert!(
                    later <= bound,
                    "{name} n = {}: E = {later} above {bound}",
                    i + 1
                );
                best = best.max(values[i]);
                if exit.is_none() && bound < best {
                    exit = Some(i + 1);
                }
            }
            let exit = exit.unwrap_or_else(|| panic!("{name}: the sweep never exits early"));
            assert!(
                2 * exit as u64 <= n_max,
                "{name}: exits at n = {exit} of {n_max}"
            );
        }
    }

    #[test]
    fn every_width_of_the_convolution_step_gives_the_same_bits() {
        // The dispatched step (AVX2 where the CPU has it) and each width
        // called directly give the generic build's bits at every step of
        // a full sweep.
        for (name, conv, mean) in &early_exit_cases() {
            let n_max = (2.0 * conv.reservation() / mean) as u64 + 10;
            let task = &conv.task_pmf[conv.mass.clone()];
            let mut steps = 0;
            conv.sweep(n_max, |pmf, _| {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let mut generic = vec![0.0; pmf.len()];
                convolve_into(pmf, task, conv.mass.start, &mut generic);
                let want = bits(&generic);
                assert_eq!(bits(&conv.convolve_step(pmf)), want, "{name}: dispatched");
                #[cfg(target_arch = "x86_64")]
                if std::is_x86_feature_detected!("avx2") {
                    let mut avx2 = vec![0.0; pmf.len()];
                    // SAFETY: the CPU supports AVX2, checked on the line above.
                    unsafe { convolve_avx2(pmf, task, conv.mass.start, &mut avx2) };
                    assert_eq!(bits(&avx2), want, "{name}: avx2");
                }
                steps += 1;
                true
            });
            assert!(steps > 2, "{name}: {steps} steps");
        }
    }

    #[test]
    fn sweep_stops_when_the_grid_empties() {
        let task = Gamma::new(1.0, 0.5).unwrap();
        let conv = ConvolutionStatic::new(&task, ckpt(2.0, 0.4), 10.0, 512).unwrap();
        // E(n) for n far beyond R/E[X] = 20 collapses to ~0.
        let values = conv.expected_work_upto(60);
        assert!(values[59] < 1e-6, "E(60) = {}", values[59]);
        // Convolving on without a stop: the first n ≥ 2 whose mass left
        // inside the grid is below 1e-12.
        let mut pmf = conv.task_pmf.clone();
        let mut last = 1;
        while last < 2 || pmf.iter().sum::<f64>() >= 1e-12 {
            pmf = conv.convolve_step(&pmf);
            last += 1;
        }
        let n_max = 2 * last;
        let values = conv.expected_work_upto(n_max as u64);
        let mut visited = 0;
        conv.sweep(n_max as u64, |_, _| {
            visited += 1;
            true
        });
        assert_eq!(
            visited, last,
            "the sweep ends at the first n ≥ 2 below 1e-12"
        );
        assert!(values[last - 1] > 0.0, "E({last}) = {}", values[last - 1]);
        assert!(
            values[last..].iter().all(|&v| v == 0.0),
            "{:?}",
            &values[last..]
        );
    }
}
