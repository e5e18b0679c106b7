//! §4.2 — the static strategy: decide *before execution* after how many
//! tasks to checkpoint.
//!
//! With `S_n = Σ X_i` and checkpoint law `C` (support in `[0, ∞)`):
//!
//! ```text
//! E(n) = ∫ x · P(C ≤ R − x) · f_{S_n}(x) dx          (Equation 3)
//! ```
//!
//! The paper replaces `n` by a real `y ∈ (0, ∞)`, maximizes the resulting
//! continuous function (`f`, `g`, `h` for Normal, Gamma, Poisson tasks),
//! and takes `n_opt` as the better of `⌊y_opt⌋` / `⌈y_opt⌉`.
//!
//! The checkpoint enters only through its fit probability
//! ([`CheckpointFit`]): a law's `P(C ≤ c)`, or a retry model's success
//! profile `S(c)` for the retry-aware count.
//!
//! The search over `y` runs on a fast objective and evaluates it only
//! where it can win: since `0 ≤ P(C ≤ R − x) ≤ 1`, Equation 3 lies
//! between two closed-form partial means of the sum law, and a grid
//! point whose upper bound falls below another point's lower bound (or
//! the best value found) is skipped. `n_opt` and `E(n_opt)` are then
//! settled on the exact path.

use crate::error::CoreError;
use crate::solve_cache::{fit_lattice, segments_for_window, SolveCache, FAST_GL_TOL};
use crate::workflow::fit::{validate_checkpoint, CheckpointFit};
use crate::workflow::sum_law::IidSum;
use resq_numerics::{
    grid_max, grid_max_bracketed, round_to_better_integer, Extremum, GaussLegendre, GridSpec,
    LatticeCache, NeumaierSum, QuadResult,
};

/// Absolute tolerance of the exact `E(y)` quadrature.
const QUAD_TOL: f64 = 1e-11;

/// The static plan: checkpoint after `n_opt` tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticPlan {
    /// Maximizer of the continuous relaxation.
    pub y_opt: f64,
    /// The integer plan: checkpoint at the end of task `n_opt`.
    pub n_opt: u64,
    /// Expected saved work `E(n_opt)`.
    pub expected_work: f64,
}

/// Where the static integrand's fit factor `P(C ≤ R − x)`, served from a
/// fit lattice, is saturated: exactly 1 for `x ≤ one_below`, exactly 0
/// for `x ≥ zero_from` (from [`LatticeCache::saturation_nodes`]).
#[derive(Debug, Clone, Copy)]
struct FitSplit {
    one_below: f64,
    zero_from: f64,
}

impl FitSplit {
    /// The split of `fit`, a lattice over `c ∈ [0, r]`. A fit that never
    /// reaches 1 (a retry model's `S(c)`) is not split: one window,
    /// panels sized by the shoulder, as if nothing were saturated.
    fn new(fit: &LatticeCache, r: f64) -> Self {
        match fit.saturation_nodes() {
            (zero, Some(one)) => Self {
                one_below: r - one,
                zero_from: zero.map_or(r, |z| r - z),
            },
            (_, None) => Self {
                one_below: f64::NEG_INFINITY,
                zero_from: r,
            },
        }
    }
}

/// §4.2 model: IID tasks `tasks` (a family closed under summation),
/// checkpoint `ckpt` with support in `[0, ∞)`, reservation `R`.
///
/// ```
/// use resq_dist::{Normal, Truncated};
/// use resq_core::StaticStrategy;
///
/// // Figure 5: tasks ~ N(3, 0.5²), C ~ N[0,∞)(5, 0.4²), R = 30.
/// let ckpt = Truncated::above(Normal::new(5.0, 0.4)?, 0.0)?;
/// let s = StaticStrategy::new(Normal::new(3.0, 0.5)?, ckpt, 30.0)?;
/// let plan = s.optimize()?;
/// assert_eq!(plan.n_opt, 7);                      // paper: n_opt = 7
/// assert!((s.expected_work(7) - 20.9).abs() < 0.2);
/// # Ok::<(), resq_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StaticStrategy<T: IidSum, C: CheckpointFit> {
    tasks: T,
    ckpt: C,
    r: f64,
}

impl<T: IidSum, C: CheckpointFit> StaticStrategy<T, C> {
    /// Builds the model; `R` must be positive finite and within the
    /// checkpoint model's horizon, and the checkpoint non-negative.
    pub fn new(tasks: T, ckpt: C, r: f64) -> Result<Self, CoreError> {
        validate_checkpoint(&ckpt, r)?;
        if !(tasks.task_mean() > 0.0) {
            return Err(CoreError::InvalidTaskLaw("task mean must be positive"));
        }
        Ok(Self { tasks, ckpt, r })
    }

    /// Reservation length `R`.
    pub fn reservation(&self) -> f64 {
        self.r
    }

    /// The task law.
    pub fn tasks(&self) -> &T {
        &self.tasks
    }

    /// The checkpoint: a law, or a retry model over one.
    pub fn checkpoint_law(&self) -> &C {
        &self.ckpt
    }

    /// `E(y)` with its error estimate: the finite sum for discrete task
    /// laws (exact), adaptive Simpson otherwise. The one evaluation
    /// behind [`StaticStrategy::expected_work_relaxed`] and its checked
    /// form.
    fn relaxed(&self, y: f64) -> QuadResult {
        if !(y > 0.0) {
            return QuadResult::exact(0.0);
        }
        if self.tasks.is_discrete() {
            // h(y) = Σ_{j=0}^{⌊R⌋} j · P(C ≤ R−j) · pmf_{S_y}(j)
            let mut acc = NeumaierSum::new();
            let jmax = self.r.floor() as u64;
            for j in 0..=jmax {
                let jf = j as f64;
                let p = self.ckpt.fit_probability(self.r - jf);
                if p > 0.0 && j > 0 {
                    acc.add(jf * p * self.tasks.sum_density(y, jf));
                }
            }
            return QuadResult::exact(acc.value());
        }
        let (lo, hi) = self.tasks.sum_bounds(y);
        // Work beyond R is never saved (P(C ≤ R−x) = 0 for x ≥ R).
        let hi = hi.min(self.r);
        if hi <= lo {
            return QuadResult::exact(0.0);
        }
        resq_numerics::adaptive_simpson(
            |x| x * self.ckpt.fit_probability(self.r - x) * self.tasks.sum_density(y, x),
            lo,
            hi,
            QUAD_TOL,
        )
    }

    /// The continuous relaxation of `E(n)` — the paper's `f(y)` / `g(y)` /
    /// `h(y)` depending on the task family.
    ///
    /// Returns 0 for `y ≤ 0`.
    pub fn expected_work_relaxed(&self, y: f64) -> f64 {
        self.relaxed(y).value
    }

    /// `E(n)` for an integer task count.
    pub fn expected_work(&self, n: u64) -> f64 {
        self.expected_work_relaxed(n as f64)
    }

    /// [`StaticStrategy::expected_work_relaxed`] with the quadrature's
    /// convergence test applied: the identical value when it converges,
    /// a typed [`CoreError::Numerics`] when it does not. The discrete
    /// branch's finite sum fails only if it is non-finite.
    pub fn expected_work_relaxed_checked(&self, y: f64) -> Result<f64, CoreError> {
        Ok(self.relaxed(y).converged(QUAD_TOL)?.value)
    }

    /// The search-phase fast objective: the fit probability
    /// ([`CheckpointFit::fit_probability`]) served from a precomputed
    /// lattice, the sum density with per-`y` constants hoisted
    /// ([`IidSum::sum_density_fn`]), and fixed-order Gauss–Legendre
    /// quadrature with an a-posteriori two-resolution check
    /// ([`resq_numerics::gauss_legendre_two_resolution`]) in place of
    /// adaptive Simpson, which integrates only a stretch the check
    /// rejects.
    ///
    /// `split` ([`FitSplit`]) cuts the window where the tabulated fit
    /// saturates. Where it is exactly 1 the integrand is `x·f_{S_y}(x)`,
    /// whose integral is the sum law's partial mean
    /// ([`IidSum::sum_partial_mean`]); where it is exactly 0 there is
    /// nothing to integrate. Only the stretch in between is integrated,
    /// on panels sized so the checkpoint law's CDF shoulder (`shoulder`,
    /// see [`CheckpointFit::fit_shoulder`]) spans at least one segment —
    /// without that hint the default 2/4-segment pair aliases the
    /// shoulder whenever the integration window is clamped at `x = R`,
    /// and every such evaluation silently pays the adaptive fallback. A
    /// family without a partial mean integrates the saturated stretch
    /// with the shoulder. Accuracy is lattice interpolation error plus
    /// `FAST_GL_TOL` — plenty to *locate* the optimum, which is why
    /// [`StaticStrategy::optimize`] re-evaluates the winner through the
    /// exact reference path.
    fn expected_work_relaxed_fast(
        &self,
        y: f64,
        fit: &LatticeCache,
        split: FitSplit,
        gl: &GaussLegendre,
        shoulder: f64,
    ) -> f64 {
        let _obj = resq_obs::span::enter(resq_obs::span_name::SOLVE_OBJECTIVE);
        let Some((lo, cut, hi)) = self.fast_window(y, split) else {
            return 0.0;
        };
        let partial_mean = |x: f64| self.tasks.sum_partial_mean(y, x);
        let (saturated, cut) = match partial_mean(cut).zip(partial_mean(lo)) {
            Some((upto_cut, upto_lo)) => (upto_cut - upto_lo, cut),
            None => (0.0, lo),
        };
        let density = self.tasks.sum_density_fn(y);
        let mut integrand = |x: f64| {
            let c = self.r - x;
            if c <= 0.0 {
                return 0.0;
            }
            x * fit.eval(c) * density(x)
        };
        let segments = segments_for_window(hi - cut, shoulder);
        let between = match resq_numerics::gauss_legendre_two_resolution(
            gl,
            &mut integrand,
            cut,
            hi,
            segments,
            FAST_GL_TOL,
        ) {
            Some(v) => v,
            // Search phase only: an unchecked estimate is fine on a
            // genuinely hard integrand; the winner is re-evaluated
            // through the checked reference path regardless.
            None => resq_numerics::adaptive_simpson(&mut integrand, cut, hi, QUAD_TOL).value,
        };
        saturated + between
    }

    /// The window `(lo, cut, hi)` the fast objective integrates at `y`:
    /// the sum law's bounds clipped to where the fit is not 0, cut where
    /// it becomes 1. `None` when the window is empty and the objective
    /// is 0.
    fn fast_window(&self, y: f64, split: FitSplit) -> Option<(f64, f64, f64)> {
        if !(y > 0.0) {
            return None;
        }
        let (lo, hi) = self.tasks.sum_bounds(y);
        let hi = hi.min(self.r).min(split.zero_from);
        if hi <= lo {
            return None;
        }
        Some((lo, split.one_below.clamp(lo, hi), hi))
    }

    /// Relative slack of [`StaticStrategy::fast_bracket`]'s upper bound:
    /// far above the objective's quadrature tolerance (`FAST_GL_TOL`)
    /// and the rounding of the interpolated fit above 1.
    const BRACKET_SLACK: f64 = 1e-3;

    /// Bounds `(lower, upper)` on [`StaticStrategy::expected_work_relaxed_fast`]
    /// at `y` from Eq. 3, without a quadrature: `0 ≤ P(C ≤ R − x) ≤ 1`,
    /// so `E(y)` lies between the sum law's partial mean over the stretch
    /// where the tabulated fit is 1 and its partial mean over the whole
    /// window.
    ///
    /// `lower = PM(cut) − PM(lo)` is the objective's own saturated term,
    /// with the same bits; the objective adds to it an integral of
    /// `x·fit·f_{S_y} ≥ 0` over `[cut, hi]`, non-negative when
    /// `cut ≥ 0`. That integral is at most `PM(hi) − PM(cut)`, because
    /// the fit is at most 1; `upper` adds it with [`Self::BRACKET_SLACK`]
    /// relative slack for the quadrature and `1e-9·R` absolute slack for
    /// the rounding of the partial means. The bracket is open when the
    /// family has no partial mean or `cut < 0`.
    fn fast_bracket(&self, y: f64, split: FitSplit) -> (f64, f64) {
        const OPEN: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);
        let Some((lo, cut, hi)) = self.fast_window(y, split) else {
            return (0.0, 0.0);
        };
        if cut < 0.0 {
            return OPEN;
        }
        let partial_mean = |x: f64| self.tasks.sum_partial_mean(y, x);
        match (partial_mean(cut), partial_mean(lo), partial_mean(hi)) {
            (Some(upto_cut), Some(upto_lo), Some(upto_hi)) => {
                let lower = upto_cut - upto_lo;
                let shoulder = (upto_hi - upto_cut) * (1.0 + Self::BRACKET_SLACK);
                (lower, lower + shoulder + 1e-9 * self.r)
            }
            _ => OPEN,
        }
    }

    /// Maximizes the relaxation over `y` and settles `n_opt` as the better
    /// of `⌊y_opt⌋` / `⌈y_opt⌉` (the paper's prescription).
    ///
    /// The search runs on the fast objective — this call's fit-probability
    /// lattice, the sum law's closed-form partial mean where that lattice
    /// is 1, hoisted sum-density kernels and fixed-order Gauss–Legendre
    /// (continuous families) or a precomputed fit row plus the pmf
    /// recurrence batch (discrete families). For continuous families the
    /// grid search skips every point whose Eq. 3 bracket
    /// (`StaticStrategy::fast_bracket`) shows it cannot win
    /// ([`grid_max_bracketed`]). The reported `n_opt` and
    /// `expected_work` are then settled through the exact,
    /// convergence-checked reference path around the located optimum:
    /// the fast objective only steers the search, never the answer, and
    /// quadrature non-convergence on the reported values surfaces as
    /// [`CoreError::Numerics`].
    pub fn optimize(&self) -> Result<StaticPlan, CoreError> {
        let _span = resq_obs::span::enter(resq_obs::span_name::SOLVE_STATIC);
        let e = if self.tasks.is_discrete() {
            self.search_discrete()
        } else {
            self.search(&fit_lattice(&self.ckpt, self.r), &SolveCache::new())
        };
        self.settle(e)
    }

    /// [`StaticStrategy::optimize`] for a continuous family, on `fit`,
    /// the fit lattice of this strategy's checkpoint over `[0, R]` that
    /// the caller built once for every planner of one solve.
    pub(crate) fn optimize_on(
        &self,
        fit: &LatticeCache,
        cache: &SolveCache,
    ) -> Result<StaticPlan, CoreError> {
        debug_assert!(
            !self.tasks.is_discrete(),
            "a discrete family reads no fit lattice"
        );
        let _span = resq_obs::span::enter(resq_obs::span_name::SOLVE_STATIC);
        self.settle(self.search(fit, cache))
    }

    /// Beyond `R/E[X]` (plus slack for variance) the sum exceeds `R`
    /// a.s. and `E(y) → 0`: the search stops at `2R/E[X] + 10`.
    fn y_max(&self) -> f64 {
        (self.r / self.tasks.task_mean()) * 2.0 + 10.0
    }

    /// The grid of both searches: 256 points on `[1e-3, y_max]`.
    const SEARCH_GRID: GridSpec = GridSpec {
        points: 256,
        xtol: 1e-8,
    };

    /// The continuous families' search: the fast objective on `fit`,
    /// evaluated only where its bracket lets it win.
    fn search(&self, fit: &LatticeCache, cache: &SolveCache) -> Extremum {
        let split = FitSplit::new(fit, self.r);
        // The narrowest feature the fast integrand carries once the
        // window is wider than the task-sum bulk it is built from.
        let shoulder = self.ckpt.fit_shoulder();
        grid_max_bracketed(
            |y| self.expected_work_relaxed_fast(y, fit, split, cache.gl(), shoulder),
            |y| self.fast_bracket(y, split),
            1e-3,
            self.y_max(),
            Self::SEARCH_GRID,
        )
    }

    /// The discrete families' search. The fit probabilities at the
    /// `⌊R⌋+1` integer points never change across candidates: the row is
    /// precomputed once, and each candidate's mass row comes from the
    /// recurrence batch instead of `⌊R⌋+1` log-space pmf evaluations.
    fn search_discrete(&self) -> Extremum {
        let jmax = self.r.floor() as u64;
        let fit: Vec<f64> = (0..=jmax)
            .map(|j| self.ckpt.fit_probability(self.r - j as f64))
            .collect();
        grid_max(
            |y| {
                let _obj = resq_obs::span::enter(resq_obs::span_name::SOLVE_OBJECTIVE);
                if !(y > 0.0) {
                    return 0.0;
                }
                let masses = self.tasks.sum_mass_batch(y, jmax);
                let mut acc = NeumaierSum::new();
                for (j, (&p, &mass)) in fit.iter().zip(&masses).enumerate().skip(1) {
                    if p > 0.0 {
                        acc.add(j as f64 * p * mass);
                    }
                }
                acc.value()
            },
            1e-3,
            self.y_max(),
            Self::SEARCH_GRID,
        )
    }

    /// Settles the search's winner `e` on the exact reference path,
    /// surfacing any quadrature non-convergence instead of folding it
    /// into the max.
    fn settle(&self, e: Extremum) -> Result<StaticPlan, CoreError> {
        let n_hi = (self.y_max().ceil() as u64).max(2);
        let mut quad_err: Option<CoreError> = None;
        let (n_opt, expected_work) = round_to_better_integer(
            |n| match self.expected_work_relaxed_checked(n as f64) {
                Ok(v) => v,
                Err(err) => {
                    quad_err.get_or_insert(err);
                    f64::NAN
                }
            },
            e.x,
            1,
            n_hi,
        );
        if let Some(err) = quad_err {
            return Err(err);
        }
        Ok(StaticPlan {
            y_opt: e.x,
            n_opt,
            expected_work,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Gamma, Normal, Poisson, Truncated};
    use resq_numerics::gauss_legendre_two_resolution;

    /// The paper's checkpoint law for all of Section 4:
    /// `N_{[0,∞)}(μ_C, σ_C²)`.
    fn ckpt(mu_c: f64, sigma_c: f64) -> Truncated<Normal> {
        Truncated::above(Normal::new(mu_c, sigma_c).unwrap(), 0.0).unwrap()
    }

    #[test]
    fn construction_validates() {
        let t = Normal::new(3.0, 0.5).unwrap();
        assert!(StaticStrategy::new(t, ckpt(5.0, 0.4), 30.0).is_ok());
        assert!(matches!(
            StaticStrategy::new(t, ckpt(5.0, 0.4), 0.0),
            Err(CoreError::InvalidReservation { .. })
        ));
        // Checkpoint law with negative support is rejected.
        assert!(matches!(
            StaticStrategy::new(t, Normal::new(5.0, 0.4).unwrap(), 30.0),
            Err(CoreError::NegativeCheckpointSupport { .. })
        ));
        // Non-positive task mean.
        let bad = Normal::new(-3.0, 0.5).unwrap();
        assert!(StaticStrategy::new(bad, ckpt(5.0, 0.4), 30.0).is_err());
    }

    #[test]
    fn figure5_normal_tasks() {
        // Fig 5: μ=3, σ=0.5, μC=5, σC=0.4, R=30.
        // Paper: y_opt ≈ 7.4, f(7) ≈ 20.9, f(8) ≈ 17.6, n_opt = 7.
        let s = StaticStrategy::new(
            Normal::new(3.0, 0.5).unwrap(),
            ckpt(5.0, 0.4),
            30.0,
        )
        .unwrap();
        let plan = s.optimize().unwrap();
        assert!((plan.y_opt - 7.4).abs() < 0.15, "y_opt {}", plan.y_opt);
        assert_eq!(plan.n_opt, 7);
        let f7 = s.expected_work(7);
        let f8 = s.expected_work(8);
        assert!((f7 - 20.9).abs() < 0.15, "f(7) = {f7}");
        assert!((f8 - 17.6).abs() < 0.15, "f(8) = {f8}");
        assert!((plan.expected_work - f7).abs() < 1e-9);
    }

    #[test]
    fn figure6_gamma_tasks() {
        // Fig 6: k=1, θ=0.5, μC=2, σC=0.4, R=10.
        // Paper: y_opt ≈ 11.8, g(11) ≈ 4.77, g(12) ≈ 4.82, n_opt = 12.
        let s = StaticStrategy::new(
            Gamma::new(1.0, 0.5).unwrap(),
            ckpt(2.0, 0.4),
            10.0,
        )
        .unwrap();
        let plan = s.optimize().unwrap();
        assert!((plan.y_opt - 11.8).abs() < 0.3, "y_opt {}", plan.y_opt);
        assert_eq!(plan.n_opt, 12);
        let g11 = s.expected_work(11);
        let g12 = s.expected_work(12);
        assert!((g11 - 4.77).abs() < 0.05, "g(11) = {g11}");
        assert!((g12 - 4.82).abs() < 0.05, "g(12) = {g12}");
        assert!(g12 > g11);
    }

    #[test]
    fn figure7_poisson_tasks() {
        // Fig 7: λ=3, μC=5, σC=0.4, R=29.
        // Paper: y_opt ≈ 5.98, h(5) ≈ 14.6, h(6) ≈ 15.8, n_opt = 6.
        let s = StaticStrategy::new(Poisson::new(3.0).unwrap(), ckpt(5.0, 0.4), 29.0).unwrap();
        let plan = s.optimize().unwrap();
        assert!((plan.y_opt - 5.98).abs() < 0.15, "y_opt {}", plan.y_opt);
        assert_eq!(plan.n_opt, 6);
        let h5 = s.expected_work(5);
        let h6 = s.expected_work(6);
        assert!((h5 - 14.6).abs() < 0.15, "h(5) = {h5}");
        assert!((h6 - 15.8).abs() < 0.15, "h(6) = {h6}");
        assert!(h6 > h5);
    }

    #[test]
    fn fast_relaxation_tracks_exact_relaxation() {
        // The fast search objective (lattice-served fit probability +
        // fixed-order Gauss–Legendre) must agree with the exact
        // relaxation everywhere the search looks — this is what
        // justifies steering on it.
        let s = StaticStrategy::new(
            Normal::new(3.0, 0.5).unwrap(),
            ckpt(5.0, 0.4),
            30.0,
        )
        .unwrap();
        let cache = SolveCache::new();
        let fit = fit_lattice(s.checkpoint_law(), 30.0);
        let split = FitSplit::new(&fit, 30.0);
        for k in 1..=40 {
            let y = 0.25 * k as f64;
            let exact = s.expected_work_relaxed(y);
            let shoulder = s.checkpoint_law().fit_shoulder();
            let fast = s.expected_work_relaxed_fast(y, &fit, split, cache.gl(), shoulder);
            // Budget: lattice interpolation (~1e-5 on the CDF, scaled by
            // the ~20-unit integral) plus the GL agreement tolerance.
            assert!((exact - fast).abs() < 5e-4, "y = {y}: {exact} vs {fast}");
        }
    }

    /// The stretch where the fit lattice is exactly 1, for every search
    /// grid point `y` of one solve: the sum law's partial mean against
    /// the pass over `x·f_{S_y}(x)` it replaced (Gauss–Legendre on the
    /// fewest panels, accepted at `FAST_GL_TOL` relative, else adaptive
    /// Simpson), relative to the value, and against adaptive Simpson at
    /// 1e-13.
    fn saturated_stretch_gaps<T: IidSum>(tasks: T, ckpt: Truncated<Normal>, r: f64) -> (f64, f64) {
        let s = StaticStrategy::new(tasks, ckpt, r).unwrap();
        let cache = SolveCache::new();
        let split = FitSplit::new(&fit_lattice(s.checkpoint_law(), r), r);
        let y_max = (r / s.tasks().task_mean()) * 2.0 + 10.0;
        let (mut vs_gl, mut vs_simpson) = (0.0f64, 0.0f64);
        for k in 1..=256 {
            let y = 1e-3 + (y_max - 1e-3) * k as f64 / 256.0;
            let (lo, hi) = s.tasks().sum_bounds(y);
            let hi = hi.min(r).min(split.zero_from);
            if hi <= lo {
                continue;
            }
            let cut = split.one_below.clamp(lo, hi);
            let closed = s.tasks().sum_partial_mean(y, cut).unwrap()
                - s.tasks().sum_partial_mean(y, lo).unwrap();
            let density = s.tasks().sum_density_fn(y);
            let integrand = |x: f64| x * density(x);
            let gl = gauss_legendre_two_resolution(cache.gl(), integrand, lo, cut, 2, FAST_GL_TOL)
                .unwrap_or_else(|| {
                    resq_numerics::adaptive_simpson_checked(integrand, lo, cut, QUAD_TOL)
                        .expect("the replaced pass converged at every point of these solves")
                        .value
                });
            let simpson = resq_numerics::adaptive_simpson(integrand, lo, cut, 1e-13);
            vs_gl = vs_gl.max((closed - gl).abs() / (1.0 + closed.abs()));
            vs_simpson = vs_simpson.max((closed - simpson.value).abs());
        }
        (vs_gl, vs_simpson)
    }

    #[test]
    fn sum_partial_means_match_the_stretch_they_replace() {
        // Fig. 5 (Normal tasks) and Fig. 6 (Gamma tasks). The Gamma sums
        // near shape 1 have an endpoint the Gauss–Legendre pass resolves
        // only to ~3e-7; the closed form matches Simpson to ~1e-15.
        let fig5 = saturated_stretch_gaps(Normal::new(3.0, 0.5).unwrap(), ckpt(5.0, 0.4), 30.0);
        let fig6 = saturated_stretch_gaps(Gamma::new(1.0, 0.5).unwrap(), ckpt(2.0, 0.4), 10.0);
        for (name, (vs_gl, vs_simpson), r) in [("fig5", fig5, 30.0), ("fig6", fig6, 10.0)] {
            assert!(vs_gl <= FAST_GL_TOL, "{name}: {vs_gl}");
            assert!(vs_simpson <= 1e-12 * r, "{name}: {vs_simpson}");
        }
    }

    #[test]
    fn gamma_sum_search_needs_no_adaptive_fallback() {
        // Exponential tasks as `/decide` solves them (Gamma(1, µ) sums at
        // R = 1). At grid points with y < 1 the Gamma sum's density is
        // singular at 0, where no Gauss–Legendre pass over the stretch
        // where the fit is 1 passes its check; the partial mean needs
        // no pass there, and the shoulder stretch is smooth.
        use resq_obs::span::{self, span_name, SpanRegistry};
        let registry = SpanRegistry::new();
        {
            let _scope = span::scoped(registry.clone());
            for (mean, mu_c) in [(0.2, 0.1), (0.08, 0.25), (0.3, 0.05)] {
                let task = Gamma::new(1.0, mean).unwrap();
                let s = StaticStrategy::new(task, ckpt(mu_c, 0.08 * mu_c), 1.0).unwrap();
                s.optimize().unwrap();
            }
        }
        let objective = format!("{}/{}", span_name::SOLVE_STATIC, span_name::SOLVE_OBJECTIVE);
        let fallbacks: Vec<_> = registry
            .structure()
            .into_iter()
            .filter(|(path, _)| path.starts_with(&objective) && path.ends_with(span_name::QUAD))
            .collect();
        assert!(fallbacks.is_empty(), "{fallbacks:?}");
    }

    #[test]
    fn checked_relaxation_is_bit_identical_to_reference() {
        let s = StaticStrategy::new(
            Normal::new(3.0, 0.5).unwrap(),
            ckpt(5.0, 0.4),
            30.0,
        )
        .unwrap();
        for k in 1..=30 {
            let y = 0.35 * k as f64;
            assert_eq!(
                s.expected_work_relaxed_checked(y).unwrap().to_bits(),
                s.expected_work_relaxed(y).to_bits(),
                "y = {y}"
            );
        }
    }

    #[test]
    fn expected_work_vanishes_at_extremes() {
        let s = StaticStrategy::new(
            Normal::new(3.0, 0.5).unwrap(),
            ckpt(5.0, 0.4),
            30.0,
        )
        .unwrap();
        // Too few tasks: little work attempted → small E.
        assert!(s.expected_work(1) < s.expected_work(7));
        // Far too many tasks: the sum blows past R, nothing is saved.
        assert!(s.expected_work(30) < 1e-6, "E(30) = {}", s.expected_work(30));
        // y ≤ 0 is defined as zero.
        assert_eq!(s.expected_work_relaxed(0.0), 0.0);
        assert_eq!(s.expected_work_relaxed(-3.0), 0.0);
    }

    /// At every grid point of `s`'s search, the fast objective lies in
    /// its Eq. 3 bracket; and the bracketed search returns the full
    /// grid's `Extremum` to the bit. Returns the objective's calls in
    /// the bracketed search (grid points and Brent steps).
    fn check_bracket<T: IidSum, C: CheckpointFit>(name: &str, s: &StaticStrategy<T, C>) -> usize {
        let cache = SolveCache::new();
        let fit = fit_lattice(s.checkpoint_law(), s.reservation());
        let split = FitSplit::new(&fit, s.reservation());
        let shoulder = s.checkpoint_law().fit_shoulder();
        let f = |y: f64| s.expected_work_relaxed_fast(y, &fit, split, cache.gl(), shoulder);
        let spec = StaticStrategy::<T, C>::SEARCH_GRID;
        for y in resq_numerics::linspace(1e-3, s.y_max(), spec.points) {
            let (lower, upper) = s.fast_bracket(y, split);
            let v = f(y);
            assert!(
                lower <= v && v <= upper,
                "{name} y = {y}: {v} outside [{lower}, {upper}]"
            );
        }
        let full = grid_max(f, 1e-3, s.y_max(), spec);
        let bracketed = s.search(&fit, &cache);
        assert_eq!(
            (bracketed.x.to_bits(), bracketed.value.to_bits()),
            (full.x.to_bits(), full.value.to_bits()),
            "{name}: bracketed {bracketed:?}, full grid {full:?}"
        );
        let mut calls = 0;
        grid_max_bracketed(
            |y| {
                calls += 1;
                f(y)
            },
            |y| s.fast_bracket(y, split),
            1e-3,
            s.y_max(),
            spec,
        );
        calls
    }

    /// Seeded points of the `/decide` boxes at `R = 1`: `(task mean,
    /// task cv, checkpoint mean)`, the last four just past one upper end.
    fn decide_points(seed: u64) -> Vec<[f64; 3]> {
        let mut state = seed;
        let mut unit = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..20)
            .map(|i| {
                let mut p = [
                    0.05 + 0.25 * unit(),
                    0.05 + 0.25 * unit(),
                    0.05 + 0.25 * unit(),
                ];
                if i >= 16 {
                    p[i % 3] = 0.30 + 0.025 * (1.0 + unit());
                }
                p
            })
            .collect()
    }

    #[test]
    fn eq3_bracket_holds_and_leaves_the_search_unchanged() {
        let mut calls = 0;
        let mut searches = 0;
        for (i, [mean, cv, mu_c]) in decide_points(23).into_iter().enumerate() {
            let normal = Normal::new(mean, cv * mean).unwrap();
            let s = StaticStrategy::new(normal, ckpt(mu_c, 0.08 * mu_c), 1.0).unwrap();
            calls += check_bracket(&format!("normal {i}"), &s);
            let gamma = Gamma::new(1.0, mean).unwrap();
            let s = StaticStrategy::new(gamma, ckpt(mu_c, 0.08 * mu_c), 1.0).unwrap();
            calls += check_bracket(&format!("gamma {i}"), &s);
            searches += 2;
        }
        // The bracket must carry the search: well under half the grid
        // (and the Brent steps) per search.
        assert!(
            calls < 100 * searches,
            "{calls} objective calls in {searches} searches"
        );
    }

    #[test]
    fn eq3_bracket_holds_under_retry_models() {
        use crate::{CheckpointReliability, RetryPolicy, RetryPreemptible};
        use CheckpointReliability::{DurationHazard, PerAttempt, Reliable};
        use RetryPolicy::{Backoff, GiveUpAndWorkOn, Immediate};
        let models = [
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
        ];
        for (m, (rel, retry)) in models.into_iter().enumerate() {
            let model = RetryPreemptible::new(ckpt(5.0, 0.4), 30.0, rel, retry).unwrap();
            let s = StaticStrategy::new(Normal::new(3.0, 0.5).unwrap(), model, 30.0).unwrap();
            check_bracket(&format!("fig5 model {m}"), &s);
            let model = RetryPreemptible::new(ckpt(2.0, 0.4), 10.0, rel, retry).unwrap();
            let s = StaticStrategy::new(Gamma::new(1.0, 0.5).unwrap(), model, 10.0).unwrap();
            check_bracket(&format!("fig6 model {m}"), &s);
        }
    }

    #[test]
    fn optimum_dominates_neighbours() {
        let s = StaticStrategy::new(
            Gamma::new(2.0, 0.4).unwrap(),
            ckpt(1.5, 0.3),
            12.0,
        )
        .unwrap();
        let plan = s.optimize().unwrap();
        for n in 1..=(plan.n_opt + 10) {
            assert!(
                s.expected_work(n) <= plan.expected_work + 1e-9,
                "E({n}) beats E(n_opt)"
            );
        }
    }

    #[test]
    fn deterministic_checkpoint_law_reduces_to_hard_cutoff() {
        // With C ≡ c deterministic, P(C ≤ R−x) = 1[x ≤ R−c]: E(n) is the
        // mean of S_n restricted to [0, R−c].
        let c = resq_dist::Constant::new(5.0).unwrap();
        let s = StaticStrategy::new(Normal::new(3.0, 0.5).unwrap(), c, 30.0).unwrap();
        // By direct integration of x·f_{S_7}(x) over (−∞, 25]:
        let task = Normal::new(3.0, 0.5).unwrap();
        let want = resq_numerics::adaptive_simpson(
            |x| x * IidSum::sum_density(&task, 7.0, x),
            21.0 - 12.0 * (7.0f64).sqrt() * 0.5,
            25.0,
            1e-11,
        )
        .value;
        let got = s.expected_work(7);
        assert!((got - want).abs() < 1e-6, "{got} vs {want}");
    }
}
