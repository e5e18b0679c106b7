//! Analytic-vs-Monte-Carlo agreement across both scenarios: every
//! expectation formula in the paper is validated against the simulator
//! within 99.9% confidence bands.

use resq::core::policy::{StaticWorkflowPolicy, ThresholdWorkflowPolicy};
use resq::dist::{Continuous, Exponential, Gamma, Normal, Poisson, Truncated, Uniform};
use resq::sim::{run_trials, MonteCarloConfig, PreemptibleSim, WorkflowSim};
use resq::{DynamicStrategy, FixedLeadPolicy, Preemptible, StaticStrategy};

fn mc(trials: u64, seed: u64) -> MonteCarloConfig {
    MonteCarloConfig {
        trials,
        seed,
        threads: 0,
    }
}

fn ckpt(mu_c: f64, sigma_c: f64) -> Truncated<Normal> {
    Truncated::above(Normal::new(mu_c, sigma_c).unwrap(), 0.0).unwrap()
}

#[test]
fn preemptible_expectation_curve_uniform() {
    // E[W(X)] (Equation 1) vs simulation across the whole X range.
    let law = Uniform::new(1.0, 7.5).unwrap();
    let model = Preemptible::new(law, 10.0).unwrap();
    let sim = PreemptibleSim {
        reservation: 10.0,
        ckpt: law,
    };
    for (i, &x) in [1.5, 3.0, 4.5, 5.5, 6.5, 7.5, 9.0].iter().enumerate() {
        let policy = FixedLeadPolicy::new("probe", x);
        let s = run_trials(mc(200_000, 10 + i as u64), |_, rng| {
            sim.run_once(&policy, rng).work_saved
        });
        let want = model.expected_work(x);
        assert!(
            (s.mean - want).abs() <= s.ci999_half_width() + 1e-9,
            "X={x}: sim {} vs analytic {want}",
            s.mean
        );
    }
}

#[test]
fn preemptible_expectation_curve_truncated_exponential() {
    let law = Truncated::new(Exponential::new(0.5).unwrap(), 1.0, 5.0).unwrap();
    let model = Preemptible::new(law, 10.0).unwrap();
    let sim = PreemptibleSim {
        reservation: 10.0,
        ckpt: law,
    };
    for (i, &x) in [1.5, 2.5, 3.82, 5.0].iter().enumerate() {
        let policy = FixedLeadPolicy::new("probe", x);
        let s = run_trials(mc(200_000, 40 + i as u64), |_, rng| {
            sim.run_once(&policy, rng).work_saved
        });
        let want = model.expected_work(x);
        assert!(
            (s.mean - want).abs() <= s.ci999_half_width() + 1e-9,
            "X={x}: sim {} vs analytic {want}",
            s.mean
        );
    }
}

#[test]
fn preemptible_success_probability_matches_cdf() {
    // The checkpoint-success indicator is Bernoulli(F_C(X)).
    let law = Truncated::new(Normal::new(3.5, 1.0).unwrap(), 1.0, 7.5).unwrap();
    let sim = PreemptibleSim {
        reservation: 10.0,
        ckpt: law,
    };
    let x = 4.0;
    let policy = FixedLeadPolicy::new("probe", x);
    let s = run_trials(mc(300_000, 77), |_, rng| {
        sim.run_once(&policy, rng).checkpoint_succeeded as u64 as f64
    });
    let want = law.cdf(x);
    assert!(
        (s.mean - want).abs() <= s.ci999_half_width() + 1e-9,
        "success rate {} vs F_C({x}) = {want}",
        s.mean
    );
}

#[test]
fn static_strategy_equation3_gamma_tasks() {
    // Equation (3) with Gamma tasks (Fig 6 parameters) vs simulation.
    let analytic =
        StaticStrategy::new(Gamma::new(1.0, 0.5).unwrap(), ckpt(2.0, 0.4), 10.0).unwrap();
    let sim = WorkflowSim {
        reservation: 10.0,
        task: Gamma::new(1.0, 0.5).unwrap(),
        ckpt: ckpt(2.0, 0.4),
    };
    for (i, &n) in [8u64, 11, 12, 14].iter().enumerate() {
        let policy = StaticWorkflowPolicy { n_opt: n };
        let s = run_trials(mc(300_000, 100 + i as u64), |_, rng| {
            sim.run_once(&policy, rng).work_saved
        });
        let want = analytic.expected_work(n);
        assert!(
            (s.mean - want).abs() <= s.ci999_half_width() + 1e-6,
            "n={n}: sim {} vs E(n) {want}",
            s.mean
        );
    }
}

#[test]
fn static_strategy_equation3_poisson_tasks() {
    // Discrete instantiation (Fig 7 parameters) vs simulation.
    let analytic = StaticStrategy::new(Poisson::new(3.0).unwrap(), ckpt(5.0, 0.4), 29.0).unwrap();
    let sim = WorkflowSim {
        reservation: 29.0,
        task: Poisson::new(3.0).unwrap(),
        ckpt: ckpt(5.0, 0.4),
    };
    for (i, &n) in [4u64, 6, 7].iter().enumerate() {
        let policy = StaticWorkflowPolicy { n_opt: n };
        let s = run_trials(mc(300_000, 200 + i as u64), |_, rng| {
            sim.run_once(&policy, rng).work_saved
        });
        let want = analytic.expected_work(n);
        assert!(
            (s.mean - want).abs() <= s.ci999_half_width() + 1e-6,
            "n={n}: sim {} vs E(n) {want}",
            s.mean
        );
    }
}

#[test]
fn dynamic_comparator_is_locally_optimal() {
    // At the threshold the two actions have equal value; simulate both
    // single-step continuations from a fixed work level and compare with
    // the analytic E[W_C], E[W_{+1}].
    let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
    let strategy = DynamicStrategy::new(task, ckpt(5.0, 0.4), 29.0).unwrap();
    let w = 18.0; // below W_int: continuing should win
                  // Simulate "checkpoint now" from w.
    let c_law = ckpt(5.0, 0.4);
    let s_now = run_trials(mc(300_000, 300), |_, rng| {
        use resq::dist::Sample;
        let c = c_law.sample(rng);
        if w + c <= 29.0 {
            w
        } else {
            0.0
        }
    });
    // Simulate "one more task, then checkpoint" from w.
    let s_plus = run_trials(mc(300_000, 301), |_, rng| {
        use resq::dist::Sample;
        let x = task.sample(rng);
        if w + x > 29.0 {
            return 0.0;
        }
        let c = c_law.sample(rng);
        if w + x + c <= 29.0 {
            w + x
        } else {
            0.0
        }
    });
    let want_now = strategy.expect_checkpoint_now(w);
    let want_plus = strategy.expect_one_more(w);
    assert!(
        (s_now.mean - want_now).abs() <= s_now.ci999_half_width() + 1e-9,
        "E[W_C]: sim {} vs {want_now}",
        s_now.mean
    );
    assert!(
        (s_plus.mean - want_plus).abs() <= s_plus.ci999_half_width() + 1e-9,
        "E[W_+1]: sim {} vs {want_plus}",
        s_plus.mean
    );
    // And the ordering matches the decision rule.
    assert!(want_plus > want_now, "continuing should win at w={w}");
    assert!(!strategy.should_checkpoint(w));
}

#[test]
fn policy_ordering_oracle_dynamic_static_pessimistic() {
    // The paper's expected hierarchy on Fig-8 parameters.
    let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
    let c = ckpt(5.0, 0.4);
    let r = 29.0;
    let sim = WorkflowSim {
        reservation: r,
        task,
        ckpt: c,
    };
    let static_plan = StaticStrategy::new(Normal::new(3.0, 0.5).unwrap(), c, r)
        .unwrap()
        .optimize()
        .unwrap();
    let w_int = DynamicStrategy::new(task, c, r)
        .unwrap()
        .threshold()
        .unwrap()
        .unwrap();

    let cfg = mc(400_000, 400);
    let s_static = run_trials(cfg, |_, rng| {
        sim.run_once(
            &StaticWorkflowPolicy {
                n_opt: static_plan.n_opt,
            },
            rng,
        )
        .work_saved
    });
    let s_dynamic = run_trials(cfg, |_, rng| {
        sim.run_once(&ThresholdWorkflowPolicy { threshold: w_int }, rng)
            .work_saved
    });
    let s_pessimistic = run_trials(cfg, |_, rng| {
        sim.run_once(
            &resq::PessimisticWorkflowPolicy {
                r,
                worst_task: task.quantile(0.9999),
                worst_ckpt: c.quantile(0.9999),
            },
            rng,
        )
        .work_saved
    });

    assert!(
        s_dynamic.mean + s_dynamic.ci999_half_width() >= s_static.mean,
        "dynamic {} < static {}",
        s_dynamic.mean,
        s_static.mean
    );
    assert!(
        s_static.mean > s_pessimistic.mean,
        "static {} <= pessimistic {}",
        s_static.mean,
        s_pessimistic.mean
    );
}

#[test]
fn retry_preemptible_expectation_curve_uniform_unreliable() {
    // Retry-aware E[W(X)] = (R − X)·S(X) under unreliable writes (up to
    // k immediate retries) vs the fault-injected simulator. The Uniform
    // law takes the Irwin–Hall closed form, so the only slack beyond the
    // 99.9% CI is floating-point noise.
    use resq::sim::{ReliabilityInjector, RetryPreemptibleSim};
    use resq::{CheckpointReliability, RetryPolicy, RetryPreemptible};

    let law = Uniform::new(1.0, 7.5).unwrap();
    let reliability = CheckpointReliability::PerAttempt { p: 0.7 };
    let retry = RetryPolicy::Immediate { max_attempts: 3 };
    let model = RetryPreemptible::new(law, 10.0, reliability, retry).unwrap();
    let sim = RetryPreemptibleSim {
        reservation: 10.0,
        ckpt: law,
        injector: ReliabilityInjector::new(reliability, 0.0).unwrap(),
        retry,
    };
    for (i, &x) in [1.5, 3.0, 4.5, 5.5, 6.5, 8.0].iter().enumerate() {
        let s = sim.mean_work_saved(x, 200_000, 700 + i as u64);
        let want = model.expected_work(x);
        // The lattice fallback carries a documented ~2e-3 interpolation
        // tolerance (docs/KNOWN_ISSUES.md); include it in the band so
        // the test pins the model, not the quadrature grid.
        assert!(
            (s.mean - want).abs() <= s.ci999_half_width() + 4e-3,
            "X={x}: sim {} vs analytic {want}",
            s.mean
        );
    }
}

#[test]
fn retry_preemptible_expectation_backoff_exponential() {
    // Same agreement with a Backoff policy and the Exponential
    // closed-form path (Erlang partial sums).
    use resq::sim::{ReliabilityInjector, RetryPreemptibleSim};
    use resq::{CheckpointReliability, RetryPolicy, RetryPreemptible};

    let law = Exponential::new(0.5).unwrap();
    let reliability = CheckpointReliability::PerAttempt { p: 0.6 };
    let retry = RetryPolicy::Backoff {
        max_attempts: 3,
        delay: 0.5,
    };
    let model = RetryPreemptible::new(law, 12.0, reliability, retry).unwrap();
    let sim = RetryPreemptibleSim {
        reservation: 12.0,
        ckpt: law,
        injector: ReliabilityInjector::new(reliability, 0.0).unwrap(),
        retry,
    };
    for (i, &x) in [2.0, 4.0, 6.0, 9.0].iter().enumerate() {
        let s = sim.mean_work_saved(x, 200_000, 900 + i as u64);
        let want = model.expected_work(x);
        assert!(
            (s.mean - want).abs() <= s.ci999_half_width() + 4e-3,
            "X={x}: sim {} vs analytic {want}",
            s.mean
        );
    }
}
