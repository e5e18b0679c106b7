//! Property-based tests for the core strategies: invariants the paper's
//! mathematics guarantees for *all* valid parameters.

use proptest::prelude::*;
use resq_core::preemptible::closed_form;
use resq_core::workflow::deterministic::DeterministicWorkflow;
use resq_core::{DynamicStrategy, Preemptible, StaticStrategy};
use resq_dist::{Continuous, Exponential, Gamma, Normal, Truncated, Uniform};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// §3 Uniform: the closed form equals the analytical argmax of the
    /// trinomial, and saturates exactly at R = 2b − a.
    #[test]
    fn uniform_closed_form_saturation_boundary(
        a in 0.2f64..3.0,
        width in 0.5f64..5.0,
    ) {
        let b = a + width;
        // Just below the saturation boundary: interior optimum.
        let r_interior = 2.0 * b - a - 1e-6;
        let x = closed_form::uniform_x_opt(a, b, r_interior).unwrap();
        prop_assert!(x < b);
        prop_assert!((x - 0.5 * (r_interior + a)).abs() < 1e-12);
        // Just above: saturated at b.
        let r_saturated = 2.0 * b - a + 1e-6;
        let x = closed_form::uniform_x_opt(a, b, r_saturated).unwrap();
        prop_assert!((x - b).abs() < 1e-9);
    }

    /// §3.2.2: the Lambert-W optimum matches the generic optimizer in
    /// expected work across the parameter space (x-locations may differ
    /// slightly where the objective is flat).
    #[test]
    fn exponential_closed_form_vs_optimizer(
        lambda in 0.1f64..2.0,
        a in 0.2f64..2.0,
        width in 0.5f64..5.0,
        slack in 0.5f64..8.0,
    ) {
        let b = a + width;
        let r = b + slack;
        let closed = closed_form::exponential_x_opt(lambda, a, b, r).unwrap();
        let law = Truncated::new(Exponential::new(lambda).unwrap(), a, b).unwrap();
        let m = Preemptible::new(law, r).unwrap();
        let numeric = m.optimize();
        prop_assert!(
            (m.expected_work(closed) - numeric.expected_work).abs()
                <= 1e-6 * numeric.expected_work.max(1e-9),
            "λ={lambda} a={a} b={b} r={r}: closed x={closed} vs numeric x={}",
            numeric.lead_time
        );
    }

    /// Risk frontier: expected work is non-increasing in the SLO floor,
    /// and the success probability constraint is honoured.
    #[test]
    fn risk_frontier_monotone(
        a in 0.2f64..3.0,
        width in 0.5f64..5.0,
        slack in 0.5f64..8.0,
    ) {
        let b = a + width;
        let r = b + slack;
        let m = Preemptible::new(Uniform::new(a, b).unwrap(), r).unwrap();
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let plan = m.optimize_with_min_success(p).unwrap();
            prop_assert!(plan.success_probability >= p - 1e-9,
                "floor {p} violated: {}", plan.success_probability);
            prop_assert!(plan.expected_work <= prev + 1e-9,
                "frontier not monotone at p={p}");
            prev = plan.expected_work;
        }
    }

    /// Dynamic strategy: W_int shifts with the checkpoint mean — more
    /// expensive checkpoints mean earlier (smaller-work) thresholds.
    #[test]
    fn threshold_decreases_with_checkpoint_cost(
        mu_c in 2.0f64..6.0,
    ) {
        let r = 29.0;
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let cheap = Truncated::above(Normal::new(mu_c, 0.3).unwrap(), 0.0).unwrap();
        let costly = Truncated::above(Normal::new(mu_c + 2.0, 0.3).unwrap(), 0.0).unwrap();
        let w_cheap = DynamicStrategy::new(task, cheap, r).unwrap().threshold().unwrap().unwrap();
        let w_costly = DynamicStrategy::new(task, costly, r).unwrap().threshold().unwrap().unwrap();
        prop_assert!(w_costly < w_cheap, "costly {w_costly} !< cheap {w_cheap}");
    }

    /// Deterministic-task plan: E(k_opt) dominates every k on the lattice
    /// and success probability decreases in k.
    #[test]
    fn deterministic_plan_invariants(
        t in 0.3f64..4.0,
        mu_c in 1.0f64..5.0,
        r in 10.0f64..40.0,
    ) {
        let ckpt = Truncated::above(Normal::new(mu_c, 0.2 * mu_c).unwrap(), 0.0).unwrap();
        let m = DeterministicWorkflow::new(t, ckpt, r).unwrap();
        let plan = m.optimize();
        let k_max = (r / t).floor() as u64;
        let mut prev_succ = f64::INFINITY;
        for k in 1..=k_max {
            prop_assert!(m.expected_work(k) <= plan.expected_work + 1e-9, "k={k}");
            let left = r - k as f64 * t;
            let succ = if left > 0.0 { ckpt.cdf(left) } else { 0.0 };
            prop_assert!(succ <= prev_succ + 1e-12);
            prev_succ = succ;
        }
    }

    /// Static strategy scaling law: the *reserve* `R − n_opt·μ` the plan
    /// keeps for the checkpoint is `μ_C` plus a dispersion margin of
    /// order `σ√n_opt` — it does NOT scale with `R`. (Naive linear
    /// `n_opt ∝ R` scaling is wrong precisely because of this offset.)
    #[test]
    fn static_plan_reserve_is_checkpoint_plus_dispersion(scale in 1.0f64..3.0) {
        let (mu, sigma, mu_c) = (3.0, 0.5, 5.0);
        let r = 30.0 * scale;
        let ckpt = Truncated::above(Normal::new(mu_c, 0.4).unwrap(), 0.0).unwrap();
        let plan = StaticStrategy::new(Normal::new(mu, sigma).unwrap(), ckpt, r)
            .unwrap()
            .optimize()
            .unwrap();
        let reserve = r - plan.n_opt as f64 * mu;
        let dispersion = sigma * (plan.n_opt as f64).sqrt();
        prop_assert!(
            reserve >= mu_c - mu,
            "reserve {reserve} below μ_C − μ at R={r}"
        );
        prop_assert!(
            reserve <= mu_c + 5.0 * dispersion + mu,
            "reserve {reserve} too large (dispersion {dispersion}) at R={r}"
        );
        // And the expected work is close to the full n_opt·μ (the plan
        // succeeds with high probability at these parameters).
        prop_assert!(plan.expected_work <= r);
        prop_assert!(
            plan.expected_work >= 0.9 * plan.n_opt as f64 * mu,
            "E = {} far below n_opt·μ = {}",
            plan.expected_work,
            plan.n_opt as f64 * mu
        );
    }
}

// ---------------------------------------------------------------------------
// Fast-path equivalence: the cached-lattice + Gauss–Legendre search in
// `optimize`/`threshold` must agree with a reference search that runs the
// same grid + integer-rounding algorithm on the exact adaptive-Simpson
// objective. Sweeps Normal/Gamma/Poisson task laws against the paper's
// truncated-Normal checkpoint law.

/// The reference §4.2 search: identical grid and rounding rule, but every
/// objective evaluation goes through the exact adaptive-Simpson path
/// (`expected_work_relaxed` / `expected_work`).
fn reference_static_plan<T, C>(s: &StaticStrategy<T, C>, task_mean: f64) -> (u64, f64)
where
    T: resq_core::workflow::sum_law::IidSum,
    C: Continuous,
{
    let r = s.reservation();
    let y_max = (r / task_mean) * 2.0 + 10.0;
    let spec = resq_numerics::GridSpec {
        points: 256,
        xtol: 1e-8,
    };
    let e = resq_numerics::grid_max(|y| s.expected_work_relaxed(y), 1e-3, y_max, spec);
    let n_hi = (y_max.ceil() as u64).max(2);
    resq_numerics::round_to_better_integer(|n| s.expected_work(n), e.x, 1, n_hi)
}

/// The reference §4.3 scan: the pre-fast-path all-exact 96-point sweep
/// plus Brent refinement, expressed through the public comparators.
fn reference_dynamic_threshold<X, C>(d: &DynamicStrategy<X, C>) -> Option<f64>
where
    X: resq_core::workflow::task_law::TaskDuration,
    C: Continuous,
{
    let diff = |w: f64| d.expect_checkpoint_now(w) - d.expect_one_more(w);
    const POINTS: usize = 96;
    let step = d.reservation() / POINTS as f64;
    let mut prev_w = 0.0;
    let mut prev_d = diff(0.0);
    for i in 1..=POINTS {
        let w = step * i as f64;
        let dv = diff(w);
        if prev_d < 0.0 && dv >= 0.0 {
            let root = resq_numerics::brent_root(diff, prev_w, w, 1e-9);
            return Some(root.unwrap_or(w));
        }
        prev_w = w;
        prev_d = dv;
    }
    if prev_d >= 0.0 {
        Some(0.0)
    } else {
        None
    }
}

/// Shared assertions: fast plan vs reference `(n_ref, e_ref)`.
fn assert_static_fast_matches_reference<T, C>(
    s: &StaticStrategy<T, C>,
    task_mean: f64,
) -> Result<(), proptest::TestCaseError>
where
    T: resq_core::workflow::sum_law::IidSum,
    C: Continuous,
{
    let plan = s.optimize().unwrap();
    let (n_ref, e_ref) = reference_static_plan(s, task_mean);
    // Same integer, unless the relaxation is so flat at the boundary that
    // both integers are optima to within the fast path's error band.
    prop_assert!(
        plan.n_opt == n_ref
            || (e_ref - s.expected_work(plan.n_opt)).abs() <= 1e-7 * (1.0 + e_ref.abs()),
        "n_opt {} != reference {} and E gap is real (E_fast = {}, E_ref = {})",
        plan.n_opt,
        n_ref,
        plan.expected_work,
        e_ref
    );
    // E(n_opt) is re-evaluated through the reference quadrature, so it
    // must match the reference search's value, not merely approximate it.
    prop_assert!(
        (plan.expected_work - s.expected_work(plan.n_opt)).abs()
            <= 1e-9 * (1.0 + plan.expected_work.abs()),
        "winner E not settled on the reference path"
    );
    prop_assert!(
        (plan.expected_work - e_ref).abs() <= 1e-6 * (1.0 + e_ref.abs()),
        "E(n_opt) {} drifted from reference {}",
        plan.expected_work,
        e_ref
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Normal tasks: fast static search ≡ adaptive-Simpson reference.
    #[test]
    fn static_fast_path_matches_reference_normal(
        mu in 2.0f64..4.0,
        sigma_frac in 0.08f64..0.25,
        mu_c in 2.0f64..6.0,
        r_mult in 5.0f64..8.0,
    ) {
        let sigma = sigma_frac * mu;
        let r = r_mult * mu + mu_c;
        let ckpt = Truncated::above(Normal::new(mu_c, 0.1 * mu_c).unwrap(), 0.0).unwrap();
        let s = StaticStrategy::new(Normal::new(mu, sigma).unwrap(), ckpt, r).unwrap();
        assert_static_fast_matches_reference(&s, mu)?;
    }

    /// Gamma tasks: fast static search ≡ adaptive-Simpson reference.
    #[test]
    fn static_fast_path_matches_reference_gamma(
        shape in 0.8f64..2.5,
        scale in 0.3f64..0.8,
        mu_c in 1.0f64..3.0,
        r in 8.0f64..16.0,
    ) {
        let ckpt = Truncated::above(Normal::new(mu_c, 0.15 * mu_c).unwrap(), 0.0).unwrap();
        let s = StaticStrategy::new(Gamma::new(shape, scale).unwrap(), ckpt, r).unwrap();
        assert_static_fast_matches_reference(&s, shape * scale)?;
    }

    /// Poisson tasks: the pmf-recurrence batch objective ≡ per-term
    /// log-space reference.
    #[test]
    fn static_fast_path_matches_reference_poisson(
        rate in 2.0f64..4.0,
        mu_c in 3.0f64..6.0,
        r in 20.0f64..35.0,
    ) {
        use resq_dist::Poisson;
        let ckpt = Truncated::above(Normal::new(mu_c, 0.1 * mu_c).unwrap(), 0.0).unwrap();
        let s = StaticStrategy::new(Poisson::new(rate).unwrap(), ckpt, r).unwrap();
        assert_static_fast_matches_reference(&s, rate)?;
    }

    /// Dynamic threshold: the guarded fast-skip scan ≡ the all-exact scan,
    /// across all three task families.
    #[test]
    fn dynamic_fast_scan_matches_reference(
        mu in 2.0f64..4.0,
        mu_c in 2.0f64..6.0,
        r_mult in 5.0f64..8.0,
        family in 0u32..3,
    ) {
        use resq_dist::Poisson;
        let r = r_mult * mu + mu_c;
        let ckpt = Truncated::above(Normal::new(mu_c, 0.1 * mu_c).unwrap(), 0.0).unwrap();
        let tol = 1e-9 * (1.0 + r);
        match family {
            0 => {
                let task = Truncated::above(Normal::new(mu, 0.2 * mu).unwrap(), 0.0).unwrap();
                let d = DynamicStrategy::new(task, ckpt, r).unwrap();
                let (fast, reference) = (d.threshold().unwrap(), reference_dynamic_threshold(&d));
                prop_assert_eq!(fast.is_some(), reference.is_some());
                if let (Some(a), Some(b)) = (fast, reference) {
                    prop_assert!((a - b).abs() <= tol, "W_int {} vs reference {}", a, b);
                }
            }
            1 => {
                let d = DynamicStrategy::new(Gamma::new(2.0, mu / 2.0).unwrap(), ckpt, r).unwrap();
                let (fast, reference) = (d.threshold().unwrap(), reference_dynamic_threshold(&d));
                prop_assert_eq!(fast.is_some(), reference.is_some());
                if let (Some(a), Some(b)) = (fast, reference) {
                    prop_assert!((a - b).abs() <= tol, "W_int {} vs reference {}", a, b);
                }
            }
            _ => {
                let d = DynamicStrategy::new(Poisson::new(mu).unwrap(), ckpt, r).unwrap();
                let (fast, reference) = (d.threshold().unwrap(), reference_dynamic_threshold(&d));
                prop_assert_eq!(fast.is_some(), reference.is_some());
                if let (Some(a), Some(b)) = (fast, reference) {
                    prop_assert!((a - b).abs() <= tol, "W_int {} vs reference {}", a, b);
                }
            }
        }
    }
}
