//! Per-task duration abstraction for the dynamic strategy.
//!
//! §4.3 needs, at each decision point with work `W_n = w` done, the
//! quantity `E[W_{+1}] = ∫_0^{R−w} (x + w)·P(C ≤ R−w−x)·f_X(x) dx`
//! (or the matching sum for integer-valued Poisson tasks). The
//! [`TaskDuration`] trait provides exactly that expectation on top of
//! the law's mean and sampler (its `Distribution` and `Sample`
//! supertraits), implemented:
//!
//! * for **every continuous law** marked [`ContinuousTask`], by one
//!   blanket impl over the law's density, CDF and partial mean — this
//!   covers the paper's truncated Normal and Gamma instantiations and
//!   type-erased `DynLaw` (CLI, fitted and learned laws), and
//! * for **Poisson** via the paper's finite sum.

use crate::solve_cache::{segments_for_window, FAST_GL_TOL};
use crate::workflow::fit::{fit_breakpoints, CheckpointFit};
use resq_dist::{Continuous, Discrete, Distribution, Poisson, Sample};
use resq_numerics::{GaussLegendre, GkPanelPoints, LatticeCache, NeumaierSum, QuadResult};

/// A task-duration law usable by the dynamic strategy and the simulator:
/// the simulators draw task durations through [`Sample`], the planners
/// read the mean through [`Distribution`].
pub trait TaskDuration: Sample + Distribution {
    /// `E[(X + w)·P(C ≤ budget − X)·1[X ≤ budget]]` where
    /// `budget = R − w` — the expected work saved when running exactly one
    /// more task and then checkpointing. `ckpt` gives `P(C ≤ c)`
    /// ([`CheckpointFit::fit_probability`]) and the grid it is
    /// interpolated on, if any ([`CheckpointFit::fit_grid`]).
    fn expected_one_more(&self, w: f64, r: f64, ckpt: &dyn CheckpointFit) -> f64;

    /// [`TaskDuration::expected_one_more`] through the
    /// convergence-checked integrator: identical value when quadrature
    /// converges, a typed error when it does not. The default forwards
    /// to the infallible path (correct for finite-sum laws like
    /// Poisson); continuous laws override it.
    fn expected_one_more_checked(
        &self,
        w: f64,
        r: f64,
        ckpt: &dyn CheckpointFit,
    ) -> Result<f64, crate::error::CoreError> {
        Ok(self.expected_one_more(w, r, ckpt))
    }

    /// Fast approximation of the part of [`TaskDuration::expected_one_more`]
    /// over tasks longer than `from`, `E[(X + w)·P(C ≤ R − w − X)·1[from <
    /// X ≤ R − w]]` (`from = −∞` for the whole expectation): the
    /// checkpoint CDF served from a precomputed lattice over `[0, R]`
    /// and fixed-order Gauss–Legendre quadrature with a two-resolution
    /// agreement check. The scan passes `from = q` when the fit is 1 for
    /// every task `x ≤ q`, and adds the closed form
    /// [`TaskDuration::expected_one_more_sure_fit`] for those tasks.
    /// `feature` is the narrowest integrand feature the caller knows
    /// about (the checkpoint law's CDF-shoulder width, already
    /// min-combined with [`TaskDuration::fast_kernel_feature`]) and sizes
    /// the quadrature panels on the integrated stretch so the check
    /// resolutions sample that feature instead of aliasing it. Returns
    /// `None` when the law has no fast kernel or the resolutions
    /// disagree — callers fall back to the exact path. This is a
    /// *search/bracketing* accelerator only; decisions and reported
    /// values must come from the exact path (see
    /// `DynamicStrategy::threshold`).
    fn expected_one_more_fast(
        &self,
        _w: f64,
        _r: f64,
        _from: f64,
        _fit: &LatticeCache,
        _gl: &GaussLegendre,
        _feature: f64,
    ) -> Option<f64> {
        None
    }

    /// Width of this law's own density bulk (central 99.8% quantile
    /// range) — the feature the fast kernel's quadrature must resolve on
    /// top of whatever the caller knows about the checkpoint law.
    /// `None` for laws without a fast kernel; hoisted once per threshold
    /// scan rather than recomputed at every scan point.
    fn fast_kernel_feature(&self) -> Option<f64> {
        None
    }

    /// `E[(X + w)·1{0 ≤ X ≤ q}]` in closed form: the part of
    /// [`TaskDuration::expected_one_more`] over tasks that leave at least
    /// `R − w − q` for the checkpoint, where it surely fits. A lower
    /// bound on the whole expectation whenever the fit is 1 from
    /// `R − w − q` up. `None` for laws without a partial mean.
    fn expected_one_more_sure_fit(&self, _w: f64, _q: f64) -> Option<f64> {
        None
    }
}

/// A continuous law the §4.3 planner integrates against: every law
/// marked with it gets [`TaskDuration`] from one blanket impl. (A
/// blanket impl over `Continuous + Sample` itself would overlap the
/// Poisson impl, because both traits are foreign to this crate; over a
/// local marker it does not.)
pub trait ContinuousTask: Continuous + Sample {}

impl ContinuousTask for resq_dist::Uniform {}
impl ContinuousTask for resq_dist::Exponential {}
impl ContinuousTask for resq_dist::Normal {}
impl ContinuousTask for resq_dist::LogNormal {}
impl ContinuousTask for resq_dist::Gamma {}
impl ContinuousTask for resq_dist::Weibull {}
impl ContinuousTask for resq_dist::Constant {}
impl ContinuousTask for resq_dist::DynLaw {}
impl<D: Continuous + Sample> ContinuousTask for resq_dist::Truncated<D> {}

/// Absolute tolerance of the exact `E[W_{+1}]` quadrature.
const ONE_MORE_TOL: f64 = 1e-11;

/// The §4.3 integrand `(x + w)·p·f_X(x)` at `x`, for the checkpoint
/// fit `p = P(C ≤ R−w−x)`, exact or lattice-served.
fn one_more_value<D: Continuous>(task: &D, w: f64, x: f64, p: f64) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    let v = (x + w) * p * task.pdf(x);
    // Integrable endpoint singularities (e.g. Gamma pdf with
    // shape < 1 at x = 0) must not poison the quadrature.
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The integration window `[lo, hi]` of `E[W_{+1}]`: the task support
/// clipped to `[0, R − w]`. `None` when it is empty.
fn one_more_window<D: Continuous>(task: &D, w: f64, r: f64) -> Option<(f64, f64)> {
    let budget = r - w;
    if budget <= 0.0 {
        return None;
    }
    let (lo, hi) = task.support();
    let (lo, hi) = (lo.max(0.0), hi.min(budget));
    (hi > lo).then_some((lo, hi))
}

/// `E[W_{+1}]` by adaptive Gauss–Kronrod quadrature with its error
/// estimate, panels cut at the nodes of the fit's grid: the one
/// evaluation behind [`TaskDuration::expected_one_more`] and its checked
/// form for a continuous law.
fn one_more_quad<D: Continuous>(task: &D, w: f64, r: f64, ckpt: &dyn CheckpointFit) -> QuadResult {
    let Some((lo, hi)) = one_more_window(task, w, r) else {
        return QuadResult::exact(0.0);
    };
    let budget = r - w;
    // One panel's fit probabilities in one call: on lanes for a law.
    let panel = |xs: &GkPanelPoints, out: &mut GkPanelPoints| {
        ckpt.fit_probabilities(&xs.map(|x| budget - x), out);
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = one_more_value(task, w, x, *o);
        }
    };
    resq_numerics::adaptive_gauss_kronrod_batch(
        panel,
        lo,
        hi,
        ONE_MORE_TOL,
        &fit_breakpoints(ckpt, budget, lo, hi),
    )
}

/// The §4.3 integral `∫_0^{R−w} (x + w)·P(C ≤ R−w−x)·f_X(x) dx` against
/// the law's density; the sure-fit bound from its CDF and partial mean.
impl<D: ContinuousTask> TaskDuration for D {
    fn expected_one_more(&self, w: f64, r: f64, ckpt: &dyn CheckpointFit) -> f64 {
        one_more_quad(self, w, r, ckpt).value
    }

    fn expected_one_more_checked(
        &self,
        w: f64,
        r: f64,
        ckpt: &dyn CheckpointFit,
    ) -> Result<f64, crate::error::CoreError> {
        Ok(one_more_quad(self, w, r, ckpt)
            .converged(ONE_MORE_TOL)?
            .value)
    }

    /// Lattice-served checkpoint CDF plus the two-resolution
    /// Gauss–Legendre check ([`resq_numerics::gauss_legendre_two_resolution`])
    /// over the window from `from` on, panels sized so a `feature`-wide
    /// structure spans at least one segment of it. `None` when the
    /// resolutions disagree beyond `FAST_GL_TOL`: the caller uses the
    /// exact path for that point.
    fn expected_one_more_fast(
        &self,
        w: f64,
        r: f64,
        from: f64,
        fit: &LatticeCache,
        gl: &GaussLegendre,
        feature: f64,
    ) -> Option<f64> {
        let Some((lo, hi)) = one_more_window(self, w, r) else {
            return Some(0.0);
        };
        let lo = lo.max(from);
        if lo >= hi {
            return Some(0.0);
        }
        resq_numerics::gauss_legendre_two_resolution(
            gl,
            |x| one_more_value(self, w, x, fit.eval(r - w - x)),
            lo,
            hi,
            segments_for_window(hi - lo, feature),
            FAST_GL_TOL,
        )
    }

    fn fast_kernel_feature(&self) -> Option<f64> {
        Some(self.quantile(0.999) - self.quantile(0.001))
    }

    /// `w·P(lo ≤ X ≤ q) + E[X·1{lo ≤ X ≤ q}]` over the support clipped
    /// at `lo = 0`, from the law's CDF and partial mean.
    fn expected_one_more_sure_fit(&self, w: f64, q: f64) -> Option<f64> {
        let lo = self.support().0.max(0.0);
        if q <= lo {
            return Some(0.0);
        }
        let work = self.partial_mean(q)? - self.partial_mean(lo)?;
        Some(w * (self.cdf(q) - self.cdf(lo)) + work)
    }
}

/// The Poisson §4.3 sum `Σ_j (j + w)·P(C ≤ R−w−j)·pmf(j)` over
/// `j ≥ first` with the fit probability `fit`, exact or lattice-served.
fn poisson_one_more(task: &Poisson, w: f64, r: f64, first: u64, fit: impl Fn(f64) -> f64) -> f64 {
    let budget = r - w;
    if budget <= 0.0 {
        return 0.0;
    }
    let jmax = budget.floor() as u64;
    let mut acc = NeumaierSum::new();
    for j in first..=jmax {
        let jf = j as f64;
        let p = fit(budget - jf);
        if p > 0.0 {
            acc.add((jf + w) * p * task.pmf(j));
        }
    }
    acc.value()
}

impl TaskDuration for Poisson {
    fn expected_one_more(&self, w: f64, r: f64, ckpt: &dyn CheckpointFit) -> f64 {
        poisson_one_more(self, w, r, 0, |c| ckpt.fit_probability(c))
    }

    fn expected_one_more_fast(
        &self,
        w: f64,
        r: f64,
        from: f64,
        fit: &LatticeCache,
        _gl: &GaussLegendre,
        _feature: f64,
    ) -> Option<f64> {
        // The finite sum needs no quadrature — the win is serving the
        // checkpoint CDF from the lattice instead of the full tail
        // computation at every integer point. Tasks longer than `from`
        // are the counts from ⌊from⌋ + 1 on.
        let first = if from < 0.0 {
            0
        } else {
            from.floor() as u64 + 1
        };
        Some(poisson_one_more(self, w, r, first, |c| fit.eval(c)))
    }

    /// `w·P(X ≤ ⌊q⌋) + λ·P(X ≤ ⌊q⌋ − 1)`: `j·pmf(j) = λ·pmf(j − 1)`.
    fn expected_one_more_sure_fit(&self, w: f64, q: f64) -> Option<f64> {
        if q < 0.0 {
            return Some(0.0);
        }
        let k = q.floor() as u64;
        let below = if k == 0 {
            0.0
        } else {
            Discrete::cdf(self, k - 1)
        };
        Some(w * Discrete::cdf(self, k) + self.lambda() * below)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Normal, Truncated, Xoshiro256pp};

    fn ckpt(mu_c: f64, sigma_c: f64) -> Truncated<Normal> {
        Truncated::above(Normal::new(mu_c, sigma_c).unwrap(), 0.0).unwrap()
    }

    #[test]
    fn zero_budget_returns_zero() {
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let g = ckpt(5.0, 0.4);
        assert_eq!(task.expected_one_more(29.0, 29.0, &g), 0.0);
        assert_eq!(task.expected_one_more(30.0, 29.0, &g), 0.0);
    }

    #[test]
    fn far_from_deadline_equals_w_plus_mean() {
        // With a huge budget, the checkpoint always fits:
        // E[W_{+1}] → w + E[X].
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let g = ckpt(5.0, 0.4);
        let v = task.expected_one_more(10.0, 1000.0, &g);
        assert!((v - 13.0).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn poisson_far_from_deadline() {
        let task = Poisson::new(3.0).unwrap();
        let g = ckpt(5.0, 0.4);
        let v = task.expected_one_more(10.0, 1000.0, &g);
        assert!((v - 13.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn tight_budget_shrinks_expectation() {
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let g = ckpt(5.0, 0.4);
        // As w approaches R, the one-more-task expectation collapses.
        let loose = task.expected_one_more(15.0, 29.0, &g);
        let tight = task.expected_one_more(25.0, 29.0, &g);
        assert!(loose > 15.0, "loose {loose}");
        assert!(tight < 1.0, "tight {tight}");
    }

    #[test]
    fn batch_one_more_gives_the_per_point_bits() {
        // `one_more_quad` reads the fit one Gauss–Kronrod panel at a
        // time (on lanes for a law). The same quadrature reading it
        // point by point gives the same value, error estimate and
        // evaluation count: for CDFs, and for a retry model whose
        // lattice nodes cut the panels.
        use crate::{CheckpointReliability, RetryPolicy, RetryPreemptible};
        fn per_point<D: Continuous>(
            task: &D,
            w: f64,
            r: f64,
            ckpt: &dyn CheckpointFit,
        ) -> QuadResult {
            let Some((lo, hi)) = one_more_window(task, w, r) else {
                return QuadResult::exact(0.0);
            };
            let budget = r - w;
            resq_numerics::adaptive_gauss_kronrod(
                |x| one_more_value(task, w, x, ckpt.fit_probability(budget - x)),
                lo,
                hi,
                ONE_MORE_TOL,
                &fit_breakpoints(ckpt, budget, lo, hi),
            )
        }
        fn check<D: Continuous>(name: &str, task: &D, r: f64, ckpt: &dyn CheckpointFit) -> usize {
            let mut most = 0;
            for k in 0..40 {
                let w = r * k as f64 / 40.0;
                let (batch, point) = (one_more_quad(task, w, r, ckpt), per_point(task, w, r, ckpt));
                assert_eq!(
                    batch.value.to_bits(),
                    point.value.to_bits(),
                    "{name}, w = {w}"
                );
                assert_eq!(
                    batch.error.to_bits(),
                    point.error.to_bits(),
                    "{name}, w = {w}"
                );
                assert_eq!(batch.evals, point.evals, "{name}, w = {w}");
                most = most.max(batch.evals);
            }
            most
        }
        let normal = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let lognormal = resq_dist::LogNormal::from_mean_sd(0.1, 0.03).unwrap();
        let uniform = resq_dist::Uniform::new(2.0, 5.0).unwrap();
        let retry = RetryPreemptible::new(
            ckpt(5.0, 0.4),
            29.0,
            CheckpointReliability::PerAttempt { p: 0.5 },
            RetryPolicy::Backoff {
                max_attempts: 3,
                delay: 0.5,
            },
        )
        .unwrap();
        assert!(retry.fit_grid().is_some(), "the retry model cuts panels");
        let mut most = 0;
        most = most.max(check("fig 8", &normal, 29.0, &ckpt(5.0, 0.4)));
        most = most.max(check(
            "lognormal, R = 1",
            &lognormal,
            1.0,
            &ckpt(0.2, 0.016),
        ));
        most = most.max(check("uniform", &uniform, 29.0, &ckpt(3.0, 0.24)));
        most = most.max(check("fig 8 under retries", &normal, 29.0, &retry));
        assert!(most > 16 * 15, "some integral bisects: {most}");
    }

    #[test]
    fn checked_one_more_is_bit_identical_to_reference() {
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let g = ckpt(5.0, 0.4);
        for k in 0..29 {
            let w = k as f64;
            assert_eq!(
                task.expected_one_more_checked(w, 29.0, &g)
                    .unwrap()
                    .to_bits(),
                task.expected_one_more(w, 29.0, &g).to_bits(),
                "w = {w}"
            );
        }
    }

    #[test]
    fn fast_one_more_tracks_exact() {
        let law = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        let fit = LatticeCache::build(|c| if c <= 0.0 { 0.0 } else { law.cdf(c) }, 0.0, 29.0, 4096);
        let gl = GaussLegendre::new(20);
        let g = ckpt(5.0, 0.4);

        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let poisson = Poisson::new(3.0).unwrap();
        let feature = (law.quantile(0.999) - law.quantile(0.001)).min(
            task.fast_kernel_feature()
                .expect("continuous law has a fast kernel"),
        );
        // The fit is exactly 1 for tasks up to q = 29 − w − one.
        let one = fit.saturation_nodes().1.expect("a CDF lattice saturates");
        for k in 0..58 {
            let w = 0.5 * k as f64;
            let q = 29.0 - w - one;
            let exact = task.expected_one_more(w, 29.0, &g);
            let whole = task.expected_one_more_fast(w, 29.0, f64::NEG_INFINITY, &fit, &gl, feature);
            if let Some(fast) = whole {
                assert!((fast - exact).abs() < 5e-4, "w = {w}: {fast} vs {exact}");
            }
            let sure = task.expected_one_more_sure_fit(w, q).unwrap();
            if let Some(shoulder) = task.expected_one_more_fast(w, 29.0, q, &fit, &gl, feature) {
                let fast = sure + shoulder;
                assert!((fast - exact).abs() < 5e-4, "w = {w}: {fast} vs {exact}");
            }
            let pexact = poisson.expected_one_more(w, 29.0, &g);
            let pwhole =
                poisson.expected_one_more_fast(w, 29.0, f64::NEG_INFINITY, &fit, &gl, feature);
            let pshoulder = poisson.expected_one_more_fast(w, 29.0, q, &fit, &gl, feature);
            let psure = poisson.expected_one_more_sure_fit(w, q).unwrap();
            for pfast in [pwhole.unwrap(), psure + pshoulder.unwrap()] {
                assert!(
                    (pfast - pexact).abs() < 5e-4,
                    "w = {w}: {pfast} vs {pexact}"
                );
            }
        }
    }

    #[test]
    fn draw_respects_law() {
        // Draws and the mean reach the law through the supertraits.
        fn sample_mean<X: TaskDuration>(task: &X, n: usize) -> f64 {
            let mut rng = Xoshiro256pp::new(55);
            (0..n).map(|_| task.sample(&mut rng)).sum::<f64>() / n as f64
        }
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let mean = sample_mean(&task, 50_000);
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((task.mean() - 3.0).abs() < 1e-6);
    }
}
