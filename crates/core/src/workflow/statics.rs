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

use crate::error::CoreError;
use crate::solve_cache::{fit_lattice, segments_for_window, SolveCache};
use crate::workflow::fit::{validate_checkpoint, CheckpointFit};
use crate::workflow::sum_law::IidSum;
use resq_numerics::{
    grid_max, round_to_better_integer, GaussLegendre, GridSpec, LatticeCache, NeumaierSum,
    QuadResult,
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

    /// Relative agreement demanded of the two Gauss–Legendre resolutions
    /// before the fast search objective trusts them; the fit lattice's
    /// own interpolation error is ~1e-5-scale, so asking the quadrature
    /// for more would be wasted work.
    const GL_SEARCH_TOL: f64 = 1e-6;

    /// The search-phase fast objective: the fit probability
    /// ([`CheckpointFit::fit_probability`]) served from a precomputed
    /// lattice, the sum density with per-`y` constants hoisted
    /// ([`IidSum::sum_density_fn`]), and fixed-order Gauss–Legendre
    /// quadrature with an a-posteriori two-resolution check
    /// ([`resq_numerics::gauss_legendre_checked_from`]) in place of
    /// adaptive Simpson.
    ///
    /// `split` ([`FitSplit`]) cuts the window where the tabulated fit
    /// saturates. Where it is exactly 1 the integrand is `x·f_{S_y}(x)`
    /// and [`resq_numerics::GL_CHECK_SEGMENTS`] panels suffice; where it
    /// is exactly 0 there is nothing to integrate. Only the stretch in
    /// between gets panels sized so the checkpoint law's CDF shoulder
    /// (`shoulder`, see [`CheckpointFit::fit_shoulder`]) spans at least
    /// one segment — without that hint the default 2/4-segment pair
    /// aliases the shoulder whenever the integration window is clamped
    /// at `x = R`, and every such evaluation silently pays the adaptive
    /// fallback. Accuracy is lattice interpolation error plus
    /// `GL_SEARCH_TOL` — plenty to *locate* the optimum, which is why
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
        if !(y > 0.0) {
            return 0.0;
        }
        let (lo, hi) = self.tasks.sum_bounds(y);
        let hi = hi.min(self.r).min(split.zero_from);
        if hi <= lo {
            return 0.0;
        }
        let cut = split.one_below.clamp(lo, hi);
        let density = self.tasks.sum_density_fn(y);
        let mut integrand = |x: f64| {
            let c = self.r - x;
            if c <= 0.0 {
                return 0.0;
            }
            x * fit.eval(c) * density(x)
        };
        let mut stretch = |a: f64, b: f64, segments: usize| {
            match resq_numerics::gauss_legendre_checked_from(
                gl,
                &mut integrand,
                a,
                b,
                segments,
                Self::GL_SEARCH_TOL,
                QUAD_TOL,
            ) {
                Ok(q) => q.value,
                // Search phase only: best-effort is fine on a genuinely
                // hard integrand; the winner is re-evaluated through the
                // checked reference path regardless.
                Err(_) => resq_numerics::adaptive_simpson(&mut integrand, a, b, QUAD_TOL).value,
            }
        };
        let saturated = stretch(lo, cut, resq_numerics::GL_CHECK_SEGMENTS);
        saturated + stretch(cut, hi, segments_for_window(hi - cut, shoulder))
    }

    /// Maximizes the relaxation over `y` and settles `n_opt` as the better
    /// of `⌊y_opt⌋` / `⌈y_opt⌉` (the paper's prescription), with a fresh
    /// per-call [`SolveCache`].
    pub fn optimize(&self) -> Result<StaticPlan, CoreError> {
        self.optimize_with(&mut SolveCache::new())
    }

    /// [`StaticStrategy::optimize`] with `cache`'s quadrature rule.
    ///
    /// The search runs on the fast objective — this call's fit-probability
    /// lattice, hoisted sum-density kernels, fixed-order Gauss–Legendre
    /// (continuous families) or a precomputed fit row plus the pmf
    /// recurrence batch (discrete families). The reported `n_opt` and
    /// `expected_work` are then settled through the exact,
    /// convergence-checked reference path around the located optimum:
    /// the fast objective only steers the search, never the answer, and
    /// quadrature non-convergence on the reported values surfaces as
    /// [`CoreError::Numerics`].
    pub fn optimize_with(&self, cache: &mut SolveCache) -> Result<StaticPlan, CoreError> {
        let _span = resq_obs::span::enter(resq_obs::span_name::SOLVE_STATIC);
        // Beyond R/E[X] (plus slack for variance) the sum exceeds R a.s.
        // and E(y) → 0; cap the search there.
        let y_max = (self.r / self.tasks.task_mean()) * 2.0 + 10.0;
        let spec = GridSpec {
            points: 256,
            xtol: 1e-8,
        };
        let e = if self.tasks.is_discrete() {
            // The fit probabilities at the ⌊R⌋+1 integer points never
            // change across candidates: precompute the row once, and get
            // each candidate's mass row from the recurrence batch
            // instead of ⌊R⌋+1 log-space pmf evaluations.
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
                y_max,
                spec,
            )
        } else {
            let fit = fit_lattice(&self.ckpt, self.r);
            let split = FitSplit::new(&fit, self.r);
            // The narrowest feature the fast integrand carries once the
            // window is wider than the task-sum bulk it is built from.
            let shoulder = self.ckpt.fit_shoulder();
            grid_max(
                |y| self.expected_work_relaxed_fast(y, &fit, split, cache.gl(), shoulder),
                1e-3,
                y_max,
                spec,
            )
        };
        let n_hi = (y_max.ceil() as u64).max(2);
        // Settle the winner on the exact reference path, surfacing any
        // quadrature non-convergence instead of folding it into the max.
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
    fn shared_cache_serves_repeat_solves() {
        let s = StaticStrategy::new(
            Normal::new(3.0, 0.5).unwrap(),
            ckpt(5.0, 0.4),
            30.0,
        )
        .unwrap();
        let mut cache = SolveCache::new();
        let a = s.optimize_with(&mut cache).unwrap();
        let b = s.optimize_with(&mut cache).unwrap();
        assert_eq!(a, b);
        // A fresh-per-call cache (the plain entry point) must agree.
        assert_eq!(s.optimize().unwrap(), a);
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
