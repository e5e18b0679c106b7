//! Task-duration families closed under IID summation.
//!
//! The static strategy (§4.2) needs the law of `S_n = Σ_{i=1}^n X_i`
//! *as a function of a continuous relaxation* `n → y ∈ (0, ∞)`:
//! `E(y) = ∫ x·P(C ≤ R−x)·f_{S_y}(x) dx`. The paper instantiates three
//! families where `S_n` stays in the family:
//!
//! | task law        | sum law              |
//! |-----------------|----------------------|
//! | `N(μ, σ²)`      | `N(yμ, yσ²)`         |
//! | `Gamma(k, θ)`   | `Gamma(yk, θ)`       |
//! | `Poisson(λ)`    | `Poisson(yλ)`        |

use resq_dist::{Continuous, Distribution, Gamma, Normal, Poisson};
use resq_specfun::{ln_factorial, ln_gamma, norm_pdf};

/// A task-duration law whose IID sum has a known density for any
/// (continuously relaxed) number of tasks `y > 0`.
pub trait IidSum {
    /// Density of `S_y` at `x` (for [`IidSum::is_discrete`] families: the
    /// probability mass at integer `x`). Must return a finite value — in
    /// particular, integrable singularities (e.g. `Gamma` with `yk < 1`
    /// at `x = 0`) are reported as `0` so quadrature stays finite.
    fn sum_density(&self, y: f64, x: f64) -> f64;

    /// Bounds `(lo, hi)` outside which `sum_density(y, ·)` is negligible
    /// (≲ 1e-30 of the mass); used to clip quadrature ranges.
    fn sum_bounds(&self, y: f64) -> (f64, f64);

    /// Mean duration of a single task, `E[X]`.
    fn task_mean(&self) -> f64;

    /// Standard deviation of a single task.
    fn task_std_dev(&self) -> f64;

    /// True if the law is supported on the integers (Poisson): `E(y)`
    /// becomes the paper's sum `Σ_{j=0}^{R} …` instead of an integral.
    fn is_discrete(&self) -> bool {
        false
    }

    /// Probability masses `[pmf_{S_y}(0), …, pmf_{S_y}(jmax)]` for
    /// discrete families — the whole row the §4.2.3 sum needs, in one
    /// call.
    ///
    /// The default evaluates [`IidSum::sum_density`] per term; discrete
    /// families override it with a recurrence (Poisson: one multiply and
    /// divide per term instead of `ln_factorial` + `exp`). Overrides are
    /// *search-phase* accelerators: they may differ from the per-term
    /// path in the last few ulps, which is why
    /// `StaticStrategy::optimize` re-evaluates the winning `n` through
    /// [`IidSum::sum_density`].
    fn sum_mass_batch(&self, y: f64, jmax: u64) -> Vec<f64> {
        (0..=jmax).map(|j| self.sum_density(y, j as f64)).collect()
    }

    /// The `y`-independent terms of `f_{S_y}(x)`: what the static
    /// search's node table keeps at each quadrature node of a window, so
    /// that [`IidSum::sum_density_kernel`] finishes the density there
    /// with one `exp`. The default keeps `x`.
    fn sum_density_terms(&self, x: f64) -> [f64; 2] {
        [x, 0.0]
    }

    /// The density `f_{S_y}` as a function of a point's
    /// [`IidSum::sum_density_terms`], with every per-`y` constant
    /// computed once — the per-quadrature-node fast path for continuous
    /// families.
    ///
    /// The default calls [`IidSum::sum_density`]; families whose density
    /// has expensive per-`y` constants (Gamma's `ln Γ(yk)`) override it.
    /// Overrides must agree with `sum_density` to a few ulps; like
    /// [`IidSum::sum_mass_batch`] they only steer searches.
    fn sum_density_kernel(&self, y: f64) -> impl Fn([f64; 2]) -> f64 + '_ {
        move |[x, _]| self.sum_density(y, x)
    }

    /// Partial expectation `E[S_y·1{S_y ≤ x}]` of the sum law in closed
    /// form ([`Continuous::partial_mean`]), or `None` when the family has
    /// none. The static search uses it where the checkpoint surely fits.
    fn sum_partial_mean(&self, _y: f64, _x: f64) -> Option<f64> {
        None
    }

    /// An upper bound on [`IidSum::sum_partial_mean`] at `(y, x)` that
    /// costs less than it, including the rounding of both, or `None`
    /// where the family has none. The static search's Eq. 3 bracket
    /// tries it before any partial mean.
    fn sum_partial_mean_upper(&self, _y: f64, _x: f64) -> Option<f64> {
        None
    }
}

impl IidSum for Normal {
    fn sum_density(&self, y: f64, x: f64) -> f64 {
        let sd = y.sqrt() * self.sigma();
        norm_pdf((x - y * self.mu()) / sd) / sd
    }

    fn sum_bounds(&self, y: f64) -> (f64, f64) {
        let m = y * self.mu();
        let sd = y.sqrt() * self.sigma();
        (m - 12.0 * sd, m + 12.0 * sd)
    }

    fn task_mean(&self) -> f64 {
        self.mu()
    }

    fn task_std_dev(&self) -> f64 {
        self.sigma()
    }

    fn sum_density_kernel(&self, y: f64) -> impl Fn([f64; 2]) -> f64 + '_ {
        let m = y * self.mu();
        let sd = y.sqrt() * self.sigma();
        move |[x, _]| norm_pdf((x - m) / sd) / sd
    }

    fn sum_partial_mean(&self, y: f64, x: f64) -> Option<f64> {
        Normal::new(y * self.mu(), y.sqrt() * self.sigma())
            .ok()?
            .partial_mean(x)
    }
}

impl IidSum for Gamma {
    fn sum_density(&self, y: f64, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let shape = y * self.shape();
        let v = ((shape - 1.0) * x.ln()
            - x / self.scale()
            - ln_gamma(shape)
            - shape * self.scale().ln())
        .exp();
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    fn sum_bounds(&self, y: f64) -> (f64, f64) {
        let shape = y * self.shape();
        let m = shape * self.scale();
        let sd = shape.sqrt() * self.scale();
        (0.0, m + 14.0 * sd)
    }

    fn task_mean(&self) -> f64 {
        self.mean()
    }

    fn task_std_dev(&self) -> f64 {
        self.std_dev()
    }

    /// `ln x` and `x/θ`; NaN at `x ≤ 0`, where the density is 0.
    fn sum_density_terms(&self, x: f64) -> [f64; 2] {
        if x <= 0.0 {
            return [f64::NAN; 2];
        }
        [x.ln(), x * (1.0 / self.scale())]
    }

    fn sum_density_kernel(&self, y: f64) -> impl Fn([f64; 2]) -> f64 + '_ {
        // Hoist the expensive per-y constants: ln Γ(yk) and yk·ln θ.
        let shape = y * self.shape();
        let ln_norm = ln_gamma(shape) + shape * self.scale().ln();
        move |[ln_x, x_over_scale]| {
            let v = ((shape - 1.0) * ln_x - x_over_scale - ln_norm).exp();
            // An overflow, or the NaN terms of x ≤ 0: density 0.
            if v.is_finite() {
                v
            } else {
                0.0
            }
        }
    }

    fn sum_partial_mean(&self, y: f64, x: f64) -> Option<f64> {
        Gamma::new(y * self.shape(), self.scale())
            .ok()?
            .partial_mean(x)
    }

    /// The partial mean is `ykθ·P(b, t)` with `b = yk + 1` and
    /// `t = x/θ`, and `P`'s lower series is `t^b e^{−t}/Γ(b + 1) ·
    /// Σ_n t^n/((b + 1)…(b + n))`, whose terms shrink at least
    /// geometrically by `t/(b + 1)`: `P(b, t) ≤ t^b e^{−t} / (Γ(b + 1)·(1
    /// − t/(b + 1)))`. Taken where `t ≤ 0.99·(b + 1)`, with the exponent
    /// raised by `1e-12·(1 + |b ln t| + t + |ln Γ(b + 1)|)` for rounding
    /// (see THEORY.md).
    fn sum_partial_mean_upper(&self, y: f64, x: f64) -> Option<f64> {
        if x <= 0.0 {
            return Some(0.0);
        }
        let shape = y * self.shape();
        let (b, t) = (shape + 1.0, x / self.scale());
        let ratio = t / (b + 1.0);
        if !(ratio <= 0.99) {
            return None;
        }
        let (b_ln_t, ln_gamma_b1) = (b * t.ln(), ln_gamma(b + 1.0));
        let margin = 1e-12 * (1.0 + b_ln_t.abs() + t + ln_gamma_b1.abs());
        let series = (b_ln_t - t - ln_gamma_b1 + margin).exp() / (1.0 - ratio);
        Some(shape * self.scale() * series)
    }
}

impl IidSum for Poisson {
    fn sum_density(&self, y: f64, x: f64) -> f64 {
        debug_assert!(x >= 0.0 && x == x.floor(), "Poisson mass at integer x");
        let rate = y * self.lambda();
        (-rate + x * rate.ln() - ln_factorial(x as u64)).exp()
    }

    fn sum_bounds(&self, y: f64) -> (f64, f64) {
        let rate = y * self.lambda();
        (0.0, rate + 14.0 * rate.sqrt() + 20.0)
    }

    fn task_mean(&self) -> f64 {
        self.lambda()
    }

    fn task_std_dev(&self) -> f64 {
        self.lambda().sqrt()
    }

    fn is_discrete(&self) -> bool {
        true
    }

    fn sum_mass_batch(&self, y: f64, jmax: u64) -> Vec<f64> {
        let rate = y * self.lambda();
        // The recurrence seeds on exp(−rate); near the f64 underflow
        // boundary (−rate ≲ −700) that is 0 and every term degenerates,
        // so fall back to the log-space per-term path there. Solver
        // rates are R/E[X]-scale — far below this.
        if rate > 600.0 {
            return (0..=jmax).map(|j| self.sum_density(y, j as f64)).collect();
        }
        // p₀ = e^{−rate}, p_{j+1} = p_j · rate/(j+1): one multiply and
        // one divide per mass, ~1e-14 relative drift over solver-scale
        // rows vs the ln_factorial + exp reference.
        let mut masses = Vec::with_capacity(jmax as usize + 1);
        let mut p = (-rate).exp();
        masses.push(p);
        for j in 0..jmax {
            p *= rate / (j + 1) as f64;
            masses.push(p);
        }
        masses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_sum_density_matches_explicit_normal() {
        // S_7 of N(3, 0.5²) is N(21, 7·0.25).
        let task = Normal::new(3.0, 0.5).unwrap();
        let explicit = Normal::new(21.0, (7.0f64 * 0.25).sqrt()).unwrap();
        for &x in &[18.0, 20.0, 21.0, 22.5, 24.0] {
            let got = task.sum_density(7.0, x);
            let want = explicit.pdf(x);
            assert!((got - want).abs() < 1e-12, "x={x}: {got} vs {want}");
        }
    }

    #[test]
    fn gamma_sum_density_matches_explicit_gamma() {
        // S_12 of Gamma(1, 0.5) is Gamma(12, 0.5).
        let task = Gamma::new(1.0, 0.5).unwrap();
        let explicit = Gamma::new(12.0, 0.5).unwrap();
        for &x in &[2.0, 4.0, 6.0, 8.0, 10.0] {
            let got = task.sum_density(12.0, x);
            let want = explicit.pdf(x);
            assert!((got - want).abs() < 1e-12, "x={x}: {got} vs {want}");
        }
    }

    #[test]
    fn poisson_sum_density_matches_explicit_poisson() {
        use resq_dist::Discrete;
        // S_6 of Poisson(3) is Poisson(18).
        let task = Poisson::new(3.0).unwrap();
        let explicit = Poisson::new(18.0).unwrap();
        for j in [5u64, 10, 18, 25, 40] {
            let got = task.sum_density(6.0, j as f64);
            let want = explicit.pmf(j);
            assert!((got - want).abs() < 1e-13, "j={j}: {got} vs {want}");
        }
    }

    #[test]
    fn densities_integrate_to_one_within_bounds() {
        let task = Normal::new(3.0, 0.5).unwrap();
        let (lo, hi) = task.sum_bounds(7.4);
        let mass = resq_numerics::adaptive_simpson(|x| task.sum_density(7.4, x), lo, hi, 1e-11);
        assert!(
            (mass.value - 1.0).abs() < 1e-8,
            "normal mass {}",
            mass.value
        );

        let task = Gamma::new(1.0, 0.5).unwrap();
        let (lo, hi) = task.sum_bounds(11.8);
        let mass = resq_numerics::adaptive_simpson(|x| task.sum_density(11.8, x), lo, hi, 1e-11);
        assert!((mass.value - 1.0).abs() < 1e-7, "gamma mass {}", mass.value);

        let task = Poisson::new(3.0).unwrap();
        let (_, hi) = task.sum_bounds(5.98);
        let mass: f64 = (0..=hi as u64)
            .map(|j| task.sum_density(5.98, j as f64))
            .sum();
        assert!((mass - 1.0).abs() < 1e-9, "poisson mass {mass}");
    }

    #[test]
    fn gamma_singularity_guard() {
        // y·k < 1 → pdf singular at 0; sum_density must stay finite.
        let task = Gamma::new(1.0, 0.5).unwrap();
        let v = task.sum_density(0.5, 0.0);
        assert!(v.is_finite());
    }

    #[test]
    fn mass_batch_matches_per_term_reference() {
        let task = Poisson::new(3.0).unwrap();
        for &y in &[0.7, 5.98, 9.3] {
            let batch = task.sum_mass_batch(y, 60);
            for (j, &p) in batch.iter().enumerate() {
                let want = task.sum_density(y, j as f64);
                let scale = want.abs().max(1e-300);
                assert!(
                    ((p - want) / scale).abs() < 1e-11,
                    "y={y} j={j}: {p} vs {want}"
                );
            }
        }
        // Underflow guard: a huge rate routes through the log-space path.
        // S_8 ~ Poisson(800); the row must cover the upper tail too —
        // P(S > 1100) ≈ e^{-50} — before its mass sums to 1.
        let big = Poisson::new(100.0).unwrap();
        let batch = big.sum_mass_batch(8.0, 1100);
        assert!(batch.iter().all(|p| p.is_finite()));
        assert!((batch.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn density_fn_matches_sum_density() {
        // The kernel over a point's terms is the density with its per-y
        // constants hoisted, bit for bit, and within a few ulps of
        // `sum_density`.
        use resq_specfun::norm_pdf;
        let normal = Normal::new(3.0, 0.5).unwrap();
        let gamma = Gamma::new(1.0, 0.5).unwrap();
        for &y in &[0.5, 7.4, 11.8] {
            let nf = IidSum::sum_density_kernel(&normal, y);
            let gf = IidSum::sum_density_kernel(&gamma, y);
            let (m, sd) = (y * 3.0, y.sqrt() * 0.5);
            let (shape, inv_scale) = (y * 1.0, 1.0 / 0.5);
            let ln_norm = ln_gamma(shape) + shape * 0.5f64.ln();
            for k in 0..60 {
                let x = 0.5 * k as f64;
                let normal_hoisted = norm_pdf((x - m) / sd) / sd;
                let gamma_hoisted = match ((shape - 1.0) * x.ln() - x * inv_scale - ln_norm).exp() {
                    v if x > 0.0 && v.is_finite() => v,
                    _ => 0.0,
                };
                let n = nf(normal.sum_density_terms(x));
                let g = gf(gamma.sum_density_terms(x));
                assert_eq!(n.to_bits(), normal_hoisted.to_bits(), "normal y={y} x={x}");
                assert_eq!(g.to_bits(), gamma_hoisted.to_bits(), "gamma y={y} x={x}");
                assert!(
                    (n - IidSum::sum_density(&normal, y, x)).abs() < 1e-13,
                    "normal y={y} x={x}"
                );
                assert!(
                    (g - IidSum::sum_density(&gamma, y, x)).abs() < 1e-13,
                    "gamma y={y} x={x}"
                );
            }
        }
    }

    #[test]
    fn task_moments() {
        assert_eq!(Normal::new(3.0, 0.5).unwrap().task_mean(), 3.0);
        assert_eq!(Gamma::new(1.0, 0.5).unwrap().task_mean(), 0.5);
        assert_eq!(Poisson::new(3.0).unwrap().task_mean(), 3.0);
        assert!(!Normal::new(3.0, 0.5).unwrap().is_discrete());
        assert!(Poisson::new(3.0).unwrap().is_discrete());
    }
}
