//! Extension experiments beyond the paper's figures (DESIGN.md §4):
//! gain sweeps, Monte-Carlo validation, dynamic-vs-static ablation,
//! multi-reservation campaigns, and trace-learning regret.
//!
//! These implement the experimental campaign the paper defers to future
//! work ("an experimental campaign, either via simulations using traces
//! or through actual application runs, is needed to quantify the
//! effective gain for both application types").

use crate::report::{results_dir, write_csv, Anchor, FigureResult};
use resq::core::policy::{StaticWorkflowPolicy, ThresholdWorkflowPolicy};
use resq::core::reservation::{BillingModel, ContinuationRule};
use resq::dist::{Continuous, Normal, Truncated, Uniform};
use resq::numerics::linspace;
use resq::sim::{
    run_trials, CampaignConfig, CampaignSimulator, MonteCarloConfig, PreemptibleSim, WorkflowSim,
};
use resq::traces::learn::LearnConfig;
use resq::traces::{learn_checkpoint_law, SyntheticTrace};
use resq::{CampaignModel, DynamicStrategy, FixedLeadPolicy, Preemptible, StaticStrategy};

fn ckpt(mu_c: f64, sigma_c: f64) -> Truncated<Normal> {
    Truncated::above(Normal::new(mu_c, sigma_c).unwrap(), 0.0).unwrap()
}

/// Canonical Monte-Carlo trial counts for the checked-in `results/`
/// artifacts. Shared by the dedicated experiment binaries and
/// `all_experiments` so every producer of an artifact writes the *same*
/// deterministic CSV — running either never dirties the tree.
pub mod canonical {
    /// Trials for [`super::exp_policy_mc`].
    pub const POLICY_MC_TRIALS: u64 = 400_000;
    /// Trials for [`super::exp_dynamic_vs_static`].
    pub const DYNAMIC_VS_STATIC_TRIALS: u64 = 200_000;
    /// Trials for [`super::exp_campaign`].
    pub const CAMPAIGN_TRIALS: u64 = 3_000;
    /// Trials for [`super::exp_general_instance`].
    pub const GENERAL_INSTANCE_TRIALS: u64 = 150_000;
    /// Trials per sweep point for [`super::exp_retry_sweep`].
    pub const RETRY_SWEEP_TRIALS: u64 = 200_000;
}

/// `exp_gain_sweep`: how much the optimal §3 plan gains over the
/// pessimistic `X = C_max` plan, as a function of the reservation-to-
/// worst-case ratio `R/b`, for Uniform and truncated-Normal laws.
///
/// Quantifies the §3 take-away; the gain vanishes once `R ≤ 2b − a`
/// (Uniform) where the optimum saturates at `b`.
pub fn exp_gain_sweep() -> FigureResult {
    let (a, b) = (1.0, 5.0);
    let mut rows = Vec::new();
    for ratio in linspace(1.05, 6.0, 100) {
        let r = ratio * b;
        let uni = Preemptible::new(Uniform::new(a, b).unwrap(), r).unwrap();
        let nor = Preemptible::new(
            Truncated::new(Normal::new(3.0, 0.8).unwrap(), a, b).unwrap(),
            r,
        )
        .unwrap();
        rows.push(vec![
            ratio,
            1.0 / uni.pessimistic_efficiency() - 1.0,
            1.0 / nor.pessimistic_efficiency() - 1.0,
        ]);
    }
    let csv = results_dir().join("exp_gain_sweep.csv");
    write_csv(
        &csv,
        "exp_gain_sweep",
        &["r_over_b", "gain_uniform", "gain_trunc_normal"],
        rows.clone(),
    )
    .unwrap();

    // Anchors: no gain in the saturated regime; substantial gain when R
    // is tight (the paper's 25% case is Fig 1(a): R/b = 10/7.5 = 1.33).
    let tight = Preemptible::new(Uniform::new(1.0, 7.5).unwrap(), 10.0).unwrap();
    let saturated = Preemptible::new(Uniform::new(a, b).unwrap(), 6.0 * b).unwrap();
    FigureResult {
        id: "exp_gain_sweep".into(),
        title: "optimal-over-pessimistic gain vs R/b (§3 take-away quantified)".into(),
        anchors: vec![
            Anchor::new(
                "gain at Fig-1a geometry",
                0.25,
                1.0 / tight.pessimistic_efficiency() - 1.0,
                0.02,
            ),
            Anchor::new(
                "gain with loose R (saturated)",
                0.0,
                1.0 / saturated.pessimistic_efficiency() - 1.0,
                1e-6,
            ),
        ],
        csv: Some(csv),
    }
}

/// `exp_policy_mc`: Monte-Carlo validation and policy comparison on the
/// Fig-8 parameters — oracle / dynamic / static / pessimistic, analytic
/// vs simulated.
pub fn exp_policy_mc(trials: u64) -> FigureResult {
    let r = 29.0;
    let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
    let c = ckpt(5.0, 0.4);
    let cfg = MonteCarloConfig {
        trials,
        seed: 2023,
        threads: 0,
    };

    // §3-style oracle bound for the workflow setting: all work until
    // R − C, quantized to task boundaries — approximated by R − E[C].
    let sim = WorkflowSim {
        reservation: r,
        task,
        ckpt: c,
    };
    let static_strategy = StaticStrategy::new(Normal::new(3.0, 0.5).unwrap(), c, r).unwrap();
    let static_plan = static_strategy.optimize().unwrap();
    let dynamic = DynamicStrategy::new(task, c, r).unwrap();
    let w_int = dynamic.threshold().unwrap().unwrap();

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
    let s_pess = run_trials(cfg, |_, rng| {
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
    let s_oracle = run_trials(cfg, |_, rng| sim.run_oracle(rng).work_saved);

    let csv = results_dir().join("exp_policy_mc.csv");
    write_csv(
        &csv,
        "exp_policy_mc",
        &["policy_id", "mean_saved", "std_error"],
        vec![
            vec![0.0, s_pess.mean, s_pess.std_error],
            vec![1.0, s_static.mean, s_static.std_error],
            vec![2.0, s_dynamic.mean, s_dynamic.std_error],
            vec![3.0, s_oracle.mean, s_oracle.std_error],
        ],
    )
    .unwrap();

    FigureResult {
        id: "exp_policy_mc".into(),
        title: "Monte-Carlo validation: simulated saved work vs analytic (Fig-8 params)".into(),
        anchors: vec![
            Anchor::new(
                "static sim vs E(n_opt)",
                static_plan.expected_work,
                s_static.mean,
                4.0 * s_static.std_error + 0.02,
            ),
            Anchor::new(
                "dynamic >= static",
                1.0,
                (s_dynamic.mean >= s_static.mean - 3.0 * s_dynamic.std_error) as u8 as f64,
                0.0,
            ),
            Anchor::new(
                "static > pessimistic",
                1.0,
                (s_static.mean > s_pess.mean) as u8 as f64,
                0.0,
            ),
            Anchor::new(
                "oracle dominates dynamic",
                1.0,
                (s_oracle.mean > s_dynamic.mean) as u8 as f64,
                0.0,
            ),
        ],
        csv: Some(csv),
    }
}

/// `exp_dynamic_vs_static`: the paper's §4.3 motivation — the dynamic
/// strategy's advantage grows with task-duration variability σ.
pub fn exp_dynamic_vs_static(trials: u64) -> FigureResult {
    let r = 29.0;
    let c = ckpt(5.0, 0.4);
    let mut rows = Vec::new();
    let mut gain_low = 0.0;
    let mut gain_high = 0.0;
    for &sigma in &[0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5] {
        let task = Truncated::above(Normal::new(3.0, sigma).unwrap(), 0.0).unwrap();
        let sim = WorkflowSim {
            reservation: r,
            task,
            ckpt: c,
        };
        let static_plan = StaticStrategy::new(Normal::new(3.0, sigma).unwrap(), c, r)
            .unwrap()
            .optimize()
            .unwrap();
        let w_int = DynamicStrategy::new(task, c, r)
            .unwrap()
            .threshold()
            .unwrap()
            .unwrap();
        let cfg = MonteCarloConfig {
            trials,
            seed: 31 + (sigma * 100.0) as u64,
            threads: 0,
        };
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
        let gain = s_dynamic.mean / s_static.mean - 1.0;
        if sigma == 0.1 {
            gain_low = gain;
        }
        if sigma == 1.5 {
            gain_high = gain;
        }
        rows.push(vec![sigma, s_static.mean, s_dynamic.mean, gain]);
    }
    let csv = results_dir().join("exp_dynamic_vs_static.csv");
    write_csv(
        &csv,
        "exp_dynamic_vs_static",
        &["sigma", "static_mean", "dynamic_mean", "gain"],
        rows,
    )
    .unwrap();

    FigureResult {
        id: "exp_dynamic_vs_static".into(),
        title: "dynamic-over-static gain vs task variability σ (§4.3 motivation)".into(),
        anchors: vec![
            Anchor::new("gain small at σ=0.1", 0.0, gain_low, 0.02),
            Anchor::new(
                "gain larger at σ=1.5 than σ=0.1",
                1.0,
                (gain_high > gain_low + 0.01) as u8 as f64,
                0.0,
            ),
        ],
        csv: Some(csv),
    }
}

/// `exp_campaign`: §4.4 continue-vs-drop under both billing models, on a
/// 500-unit job with 60-second reservations.
///
/// Two policy regimes are compared, because they answer §4.4 differently:
/// * the **dynamic threshold** (tuned to `R − r`) already fills the
///   reservation, so leftover time is ~nil and continuation changes
///   nothing — dropping is free;
/// * an **early-checkpoint** policy (threshold at ~40% of the budget,
///   as a cautious operator might configure) leaves half the reservation
///   unused, and continuation cuts the reservation count substantially.
pub fn exp_campaign(trials: u64) -> FigureResult {
    let r = 60.0;
    let task = Truncated::above(Normal::new(3.0, 0.8).unwrap(), 0.0).unwrap();
    let c = ckpt(5.0, 0.6);
    let recovery = ckpt(4.0, 0.3);
    let w_int = DynamicStrategy::new(task, c, r - 4.0)
        .unwrap()
        .threshold()
        .unwrap()
        .unwrap();
    let sim = CampaignSimulator {
        task,
        ckpt: c,
        recovery,
    };
    let cfg_mc = MonteCarloConfig {
        trials,
        seed: 9,
        threads: 0,
    };

    let mut rows = Vec::new();
    // res_means[policy][billing][rule]
    let mut res_means = [[[0.0f64; 2]; 2]; 2];
    for (pi, threshold) in [w_int, 0.4 * (r - 4.0)].into_iter().enumerate() {
        let policy = ThresholdWorkflowPolicy { threshold };
        for (bi, billing) in [BillingModel::PerReservation, BillingModel::PerUse]
            .into_iter()
            .enumerate()
        {
            for (ri, rule) in [
                ContinuationRule::Drop,
                ContinuationRule::ContinueIfAtLeast(12.0),
            ]
            .into_iter()
            .enumerate()
            {
                let config = CampaignConfig {
                    model: CampaignModel::new(r, 4.0, 500.0, billing, rule).unwrap(),
                    max_reservations: 500,
                };
                let res = run_trials(cfg_mc, |_, rng| {
                    sim.run_once(&config, &policy, rng).reservations as f64
                });
                let cost = run_trials(cfg_mc, |_, rng| sim.run_once(&config, &policy, rng).cost);
                rows.push(vec![pi as f64, bi as f64, ri as f64, res.mean, cost.mean]);
                res_means[pi][bi][ri] = res.mean;
            }
        }
    }
    let csv = results_dir().join("exp_campaign.csv");
    write_csv(
        &csv,
        "exp_campaign",
        &["policy", "billing", "rule", "reservations", "cost"],
        rows,
    )
    .unwrap();

    FigureResult {
        id: "exp_campaign".into(),
        title: "§4.4 continue-vs-drop across billing models (500-unit campaign)".into(),
        anchors: vec![
            Anchor::new(
                "dynamic threshold: continuation ~ no-op",
                0.0,
                (res_means[0][0][0] - res_means[0][0][1]).abs() / res_means[0][0][0].max(1e-9),
                0.05,
            ),
            Anchor::new(
                "early-ckpt: continuation cuts reservations",
                1.0,
                (res_means[1][0][1] < res_means[1][0][0] - 0.5) as u8 as f64,
                0.0,
            ),
        ],
        csv: Some(csv),
    }
}

/// `exp_trace_learning`: planning regret of the learned `D_C` vs the true
/// law as a function of trace length.
pub fn exp_trace_learning() -> FigureResult {
    let r = 30.0;
    let truth = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
    // Reference: true law truncated to a wide central window.
    let ref_law = Truncated::new(Normal::new(5.0, 0.4).unwrap(), 3.0, 7.0).unwrap();
    let ref_model = Preemptible::new(ref_law, r).unwrap();
    let ref_plan = ref_model.optimize();

    let gen = SyntheticTrace::clean(truth);
    let mut rows = Vec::new();
    let mut regret_large = f64::NAN;
    for &n in &[30usize, 100, 300, 1000, 3000, 10000] {
        let log = gen.generate(n, 500 + n as u64);
        let Ok(learned) = learn_checkpoint_law(&log.completed_durations(), LearnConfig::default())
        else {
            continue;
        };
        let Ok((plan, _)) = learned.plan(r) else {
            continue;
        };
        let achieved =
            ref_model.expected_work(plan.lead_time.clamp(ref_model.checkpoint_bounds().0, r));
        let regret = ((ref_plan.expected_work - achieved) / ref_plan.expected_work).max(0.0);
        if n == 10000 {
            regret_large = regret;
        }
        rows.push(vec![n as f64, plan.lead_time, regret]);
    }
    let csv = results_dir().join("exp_trace_learning.csv");
    write_csv(
        &csv,
        "exp_trace_learning",
        &["trace_len", "lead_time", "relative_regret"],
        rows,
    )
    .unwrap();

    FigureResult {
        id: "exp_trace_learning".into(),
        title: "planning regret vs trace length (learning D_C from logs)".into(),
        anchors: vec![Anchor::new(
            "regret < 1% with 10k-obs trace",
            0.0,
            regret_large,
            0.01,
        )],
        csv: Some(csv),
    }
}

/// `exp_general_instance`: the paper's §5 general (non-IID) instance —
/// chains whose iteration times grow stage by stage. Compares three
/// rules: the naive IID threshold tuned to the *initial* task size, the
/// generalized one-step rule, and the DP optimum (upper bound).
pub fn exp_general_instance(trials: u64) -> FigureResult {
    use resq::core::policy::{Action, WorkflowPolicy};
    use resq::{HeterogeneousDynamic, Stage};
    use resq_dist::Sample;

    let r = 29.0;
    let growth = 0.4; // task i mean = 2 + growth·i
    let mk_task = |i: usize| {
        Truncated::above(Normal::new(2.0 + growth * i as f64, 0.3).unwrap(), 0.0).unwrap()
    };
    let stages: Vec<Stage<Truncated<Normal>, Truncated<Normal>>> = (0..12)
        .map(|i| Stage {
            task: mk_task(i),
            ckpt: ckpt(5.0, 0.4),
        })
        .collect();
    let chain = HeterogeneousDynamic::new(stages, r).unwrap();
    let dp = chain.solve_dp(400).unwrap();

    // Simulate the generalized one-step rule via precomputed per-stage
    // thresholds (O(1) per decision inside the Monte-Carlo loop).
    let thresholds = chain.one_step_thresholds().unwrap();
    let c_law = ckpt(5.0, 0.4);
    let run_one_step = |rng: &mut resq_dist::Xoshiro256pp| -> f64 {
        let mut w = 0.0;
        let mut n = 0usize;
        loop {
            let stop = n >= chain.len() || matches!(thresholds[n], Some(t) if w >= t);
            if stop {
                let c = c_law.sample(rng);
                return if w + c <= r { w } else { 0.0 };
            }
            let x = mk_task(n).sample(rng);
            if w + x > r {
                return 0.0;
            }
            w += x;
            n += 1;
        }
    };
    // Naive baseline: IID threshold computed from the FIRST stage's law.
    let naive_w_int = DynamicStrategy::new(mk_task(0), ckpt(5.0, 0.4), r)
        .unwrap()
        .threshold()
        .unwrap()
        .unwrap();
    let naive_policy = ThresholdWorkflowPolicy {
        threshold: naive_w_int,
    };
    let run_naive = |rng: &mut resq_dist::Xoshiro256pp| -> f64 {
        let mut w = 0.0;
        let mut n = 0usize;
        loop {
            if naive_policy.decide(n as u64, w) == Action::Checkpoint || n >= chain.len() {
                let c = c_law.sample(rng);
                return if w + c <= r { w } else { 0.0 };
            }
            let x = mk_task(n).sample(rng);
            if w + x > r {
                return 0.0;
            }
            w += x;
            n += 1;
        }
    };

    let cfg = MonteCarloConfig {
        trials,
        seed: 55,
        threads: 0,
    };
    let s_one_step = run_trials(cfg, |_, rng| run_one_step(rng));
    let s_naive = run_trials(cfg, |_, rng| run_naive(rng));

    let csv = results_dir().join("exp_general_instance.csv");
    write_csv(
        &csv,
        "exp_general_instance",
        &["rule_id", "mean_saved", "std_error"],
        vec![
            vec![0.0, s_naive.mean, s_naive.std_error],
            vec![1.0, s_one_step.mean, s_one_step.std_error],
            vec![2.0, dp.value_at_start, 0.0],
        ],
    )
    .unwrap();

    FigureResult {
        id: "exp_general_instance".into(),
        title: "general (non-IID) instance: naive-IID vs generalized one-step vs DP".into(),
        anchors: vec![
            Anchor::new(
                "one-step beats naive-IID tuning",
                1.0,
                (s_one_step.mean > s_naive.mean + 2.0 * s_one_step.std_error) as u8 as f64,
                0.0,
            ),
            Anchor::new(
                "DP upper-bounds one-step",
                1.0,
                (dp.value_at_start >= s_one_step.mean - 4.0 * s_one_step.std_error) as u8 as f64,
                0.0,
            ),
        ],
        csv: Some(csv),
    }
}

/// `exp_retry_sweep`: what unreliable checkpoint writes cost, and what
/// planning for them buys. On the Fig-1(a) geometry (C ~ Uniform(1,7.5),
/// R = 10) with up to 3 immediate retries, sweep the per-attempt write
/// failure probability q and compare three lead-time choices:
///
/// * **aware** — `RetryPreemptible::optimize()`, which knows q;
/// * **naive** — the failure-free optimum X = 5.5 run under failures;
/// * **pessimistic** — X = C_max = 7.5 run under failures.
///
/// Each analytic `aware` value is cross-checked against the
/// fault-injected Monte-Carlo simulator at the same lead time: the
/// |sim − analytic| gap must sit inside a 99.9% CI plus the documented
/// lattice tolerance (docs/KNOWN_ISSUES.md).
pub fn exp_retry_sweep(trials: u64) -> FigureResult {
    use resq::sim::{ReliabilityInjector, RetryPreemptibleSim};
    use resq::{CheckpointReliability, RetryPolicy, RetryPreemptible};

    let r = 10.0;
    let law = Uniform::new(1.0, 7.5).unwrap();
    let retry = RetryPolicy::Immediate { max_attempts: 3 };
    let x_free = 5.5; // failure-free optimum (paper Fig 1a)
    let x_pess = 7.5; // pessimistic X = C_max

    let mut rows = Vec::new();
    let mut worst_margin = f64::INFINITY;
    let mut worst_mc_excess: f64 = 0.0;
    let mut q0_lead = f64::NAN;
    let mut q0_work = f64::NAN;
    for (i, &q) in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5].iter().enumerate() {
        let reliability = CheckpointReliability::PerAttempt { p: 1.0 - q };
        let model = RetryPreemptible::new(law, r, reliability, retry).unwrap();
        let plan = model.optimize();
        let e_naive = model.expected_work(x_free);
        let e_pess = model.expected_work(x_pess);
        worst_margin = worst_margin
            .min(plan.expected_work - e_naive)
            .min(plan.expected_work - e_pess);
        if q == 0.0 {
            q0_lead = plan.lead_time;
            q0_work = plan.expected_work;
        }

        let sim = RetryPreemptibleSim {
            reservation: r,
            ckpt: law,
            injector: ReliabilityInjector::new(reliability, 0.0).unwrap(),
            retry,
        };
        let mc = sim.mean_work_saved(plan.lead_time, trials, 77 + i as u64);
        // 99.9% CI plus the lattice interpolation tolerance the analytic
        // fallback is documented to hold (exact profiles need none, but
        // one bound keeps the anchor uniform across the sweep).
        let bound = 3.29 * mc.std_error + 4e-3;
        worst_mc_excess = worst_mc_excess.max((mc.mean - plan.expected_work).abs() - bound);

        rows.push(vec![
            q,
            plan.lead_time,
            plan.expected_work,
            e_naive,
            e_pess,
            mc.mean,
            mc.std_error,
        ]);
    }

    let csv = results_dir().join("exp_retry_sweep.csv");
    write_csv(
        &csv,
        "exp_retry_sweep",
        &[
            "ckpt_fail_prob",
            "x_aware",
            "e_aware",
            "e_naive_x5.5",
            "e_pessimistic_x7.5",
            "mc_mean",
            "mc_std_error",
        ],
        rows,
    )
    .unwrap();

    FigureResult {
        id: "exp_retry_sweep".into(),
        title:
            "failure-aware lead time vs failure-free and pessimistic baselines (unreliable writes)"
                .into(),
        anchors: vec![
            Anchor::new("q=0 lead time is the paper X_opt", 5.5, q0_lead, 1e-6),
            Anchor::new(
                "q=0 expected work is the paper optimum",
                3.1153846153846154,
                q0_work,
                1e-6,
            ),
            Anchor::new(
                "aware dominates both baselines (worst margin, clamped)",
                0.0,
                worst_margin.min(0.0),
                1e-9,
            ),
            Anchor::new(
                "MC within 99.9% CI of analytic (worst excess)",
                0.0,
                worst_mc_excess.max(0.0),
                1e-12,
            ),
        ],
        csv: Some(csv),
    }
}

/// Quick Monte-Carlo validation that a fixed-lead §3 policy realizes its
/// analytic expectation — used by `all_figures` as a smoke check.
pub fn preemptible_mc_smoke(trials: u64) -> Anchor {
    let law = Uniform::new(1.0, 7.5).unwrap();
    let model = Preemptible::new(law, 10.0).unwrap();
    let plan = model.optimize();
    let sim = PreemptibleSim {
        reservation: 10.0,
        ckpt: law,
    };
    let policy = FixedLeadPolicy::new("optimal", plan.lead_time);
    let s = run_trials(
        MonteCarloConfig {
            trials,
            seed: 1,
            threads: 0,
        },
        |_, rng| sim.run_once(&policy, rng).work_saved,
    );
    Anchor::new(
        "MC(E[W(X_opt)]) vs analytic",
        plan.expected_work,
        s.mean,
        4.0 * s.std_error + 1e-6,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_sweep_passes() {
        assert!(exp_gain_sweep().passes());
    }

    #[test]
    fn policy_mc_passes_small() {
        assert!(exp_policy_mc(40_000).passes());
    }

    #[test]
    fn trace_learning_passes() {
        assert!(exp_trace_learning().passes());
    }

    #[test]
    fn preemptible_smoke_passes() {
        assert!(preemptible_mc_smoke(100_000).passes());
    }

    #[test]
    fn retry_sweep_passes_small() {
        assert!(exp_retry_sweep(40_000).passes());
    }
}
