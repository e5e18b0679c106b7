//! Integration tests for the beyond-the-paper extensions: the general
//! (non-IID) instance, the convolution static planner, and fail-stop
//! errors — each cross-checked against the paper's IID machinery where
//! they overlap.

use resq::dist::{Constant, Gamma, LogNormal, Normal, Truncated};
use resq::sim::{
    run_trials, young_daly_period, FailureWorkflowSim, MonteCarloConfig, PeriodicCheckpointPolicy,
    WorkflowSim,
};
use resq::{
    ConvolutionStatic, DynamicStrategy, HeterogeneousDynamic, Stage, StaticStrategy,
    StaticWorkflowPolicy,
};

type TN = Truncated<Normal>;

fn tn(mu: f64, sigma: f64) -> TN {
    Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
}

#[test]
fn convolution_planner_reproduces_paper_n_opt() {
    // Fig 6 (Gamma): n_opt = 12.
    let conv =
        ConvolutionStatic::new(&Gamma::new(1.0, 0.5).unwrap(), tn(2.0, 0.4), 10.0, 1024).unwrap();
    assert_eq!(conv.optimize().n_opt, 12);
}

#[test]
fn convolution_planner_matches_simulation_for_lognormal_tasks() {
    // LogNormal tasks are outside the paper's closed families: validate
    // the convolution E(n) against direct Monte-Carlo.
    let task = LogNormal::from_mean_sd(3.0, 0.6).unwrap();
    let ckpt = tn(5.0, 0.4);
    let r = 30.0;
    let conv = ConvolutionStatic::new(&task, ckpt, r, 2048).unwrap();
    let sim = WorkflowSim {
        reservation: r,
        task,
        ckpt,
    };
    for n in [6u64, 7, 8] {
        let analytic = conv.expected_work_upto(n)[n as usize - 1];
        let s = run_trials(
            MonteCarloConfig {
                trials: 200_000,
                seed: 900 + n,
                threads: 0,
            },
            |_, rng| {
                sim.run_once(&StaticWorkflowPolicy { n_opt: n }, rng)
                    .work_saved
            },
        );
        assert!(
            (s.mean - analytic).abs() < s.ci999_half_width() + 0.05,
            "n={n}: sim {} vs convolution {analytic}",
            s.mean
        );
    }
}

#[test]
fn heterogeneous_chain_with_growing_tasks() {
    // A chain whose iterations slow down (common in adaptive solvers):
    // task i ~ N[0,∞)(2 + 0.5·i, 0.3²). The general rule must checkpoint
    // earlier (in work terms) than the IID rule tuned to the *initial*
    // task size, because future tasks are bigger.
    let r = 29.0;
    let stages: Vec<Stage<TN, TN>> = (0..12)
        .map(|i| Stage {
            task: tn(2.0 + 0.5 * i as f64, 0.3),
            ckpt: tn(5.0, 0.4),
        })
        .collect();
    let chain = HeterogeneousDynamic::new(stages, r).unwrap();

    // After 4 tasks (work ≈ 2+2.5+3+3.5 = 11), the *next* task is 4 s.
    // Decision should reflect the 4-second task, not a 2-second one.
    let w = 21.0;
    let one_more = chain.expect_one_more(4, w);
    let iid_small = DynamicStrategy::new(tn(2.0, 0.3), tn(5.0, 0.4), r).unwrap();
    let small_one_more = iid_small.expect_one_more(w);
    // Bigger next task → riskier continuation → smaller E[W_{+1}].
    assert!(
        one_more < small_one_more,
        "heterogeneous {one_more} !< iid-small {small_one_more}"
    );
}

#[test]
fn dp_solution_bounds_one_step_rule() {
    // On an IID chain the DP optimum upper-bounds the simulated value of
    // the one-step threshold rule (they should be close — the paper's
    // rule is near-optimal for IID tasks).
    let r = 29.0;
    let stages: Vec<Stage<TN, TN>> = (0..12)
        .map(|_| Stage {
            task: tn(3.0, 0.5),
            ckpt: tn(5.0, 0.4),
        })
        .collect();
    let chain = HeterogeneousDynamic::new(stages, r).unwrap();
    let dp = chain.solve_dp(300).unwrap();

    let w_int = DynamicStrategy::new(tn(3.0, 0.5), tn(5.0, 0.4), r)
        .unwrap()
        .threshold()
        .unwrap()
        .unwrap();
    let sim = WorkflowSim {
        reservation: r,
        task: tn(3.0, 0.5),
        ckpt: tn(5.0, 0.4),
    };
    let s = run_trials(
        MonteCarloConfig {
            trials: 200_000,
            seed: 901,
            threads: 0,
        },
        |_, rng| {
            sim.run_once(
                &resq::core::policy::ThresholdWorkflowPolicy { threshold: w_int },
                rng,
            )
            .work_saved
        },
    );
    assert!(
        dp.value_at_start >= s.mean - s.ci999_half_width() - 0.1,
        "DP {} < simulated one-step {}",
        dp.value_at_start,
        s.mean
    );
    // And near-optimality: the one-step rule is within ~5% of DP.
    assert!(
        s.mean > 0.95 * dp.value_at_start - 0.2,
        "one-step {} far below DP {}",
        s.mean,
        dp.value_at_start
    );
}

#[test]
fn failure_free_limit_recovers_paper_behaviour() {
    let r = 29.0;
    let fsim = FailureWorkflowSim {
        reservation: r,
        task: tn(3.0, 0.5),
        ckpt: tn(5.0, 0.4),
        recovery: Constant::new(1.0).unwrap(),
        failure_rate: 0.0,
    };
    let w_int = DynamicStrategy::new(tn(3.0, 0.5), tn(5.0, 0.4), r)
        .unwrap()
        .threshold()
        .unwrap()
        .unwrap();
    let analytic = StaticStrategy::new(Normal::new(3.0, 0.5).unwrap(), tn(5.0, 0.4), r)
        .unwrap()
        .optimize()
        .unwrap();
    let s = run_trials(
        MonteCarloConfig {
            trials: 200_000,
            seed: 902,
            threads: 0,
        },
        |_, rng| {
            fsim.run_once(
                &resq::core::policy::ThresholdWorkflowPolicy { threshold: w_int },
                rng,
            )
            .work_saved
        },
    );
    // Dynamic ≥ static expected work in the failure-free limit.
    assert!(
        s.mean >= analytic.expected_work - s.ci999_half_width() - 0.05,
        "failure-free dynamic {} below static {}",
        s.mean,
        analytic.expected_work
    );
}

#[test]
fn young_daly_crossover_under_failures() {
    // At MTBF comparable to R, periodic checkpointing overtakes the
    // single end-of-reservation checkpoint (the regime boundary the
    // paper's failure-free assumption draws).
    let r = 29.0;
    let rate = 1.0 / 25.0;
    let fsim = FailureWorkflowSim {
        reservation: r,
        task: tn(3.0, 0.5),
        ckpt: tn(5.0, 0.4),
        recovery: Constant::new(1.0).unwrap(),
        failure_rate: rate,
    };
    let w_int = DynamicStrategy::new(tn(3.0, 0.5), tn(5.0, 0.4), r)
        .unwrap()
        .threshold()
        .unwrap()
        .unwrap();
    let cfg = MonteCarloConfig {
        trials: 150_000,
        seed: 903,
        threads: 0,
    };
    let single = run_trials(cfg, |_, rng| {
        fsim.run_once(
            &resq::core::policy::ThresholdWorkflowPolicy { threshold: w_int },
            rng,
        )
        .work_saved
    });
    let periodic = run_trials(cfg, |_, rng| {
        fsim.run_once(
            &PeriodicCheckpointPolicy {
                period: young_daly_period(5.0, rate).unwrap().min(w_int),
            },
            rng,
        )
        .work_saved
    });
    assert!(
        periodic.mean > single.mean,
        "periodic {} <= single {} at MTBF 25",
        periodic.mean,
        single.mean
    );
}
