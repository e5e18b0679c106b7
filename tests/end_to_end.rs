//! End-to-end flows across crates: trace → learn → plan → simulate, and
//! multi-reservation campaigns driven by planned policies.

use resq::core::policy::ThresholdWorkflowPolicy;
use resq::core::reservation::{BillingModel, ContinuationRule};
use resq::dist::{LogNormal, Normal, Truncated};
use resq::sim::{run_trials, CampaignConfig, CampaignSimulator, MonteCarloConfig, PreemptibleSim};
use resq::traces::learn::LearnConfig;
use resq::traces::{learn_checkpoint_law, SyntheticTrace, TraceLog};
use resq::{CampaignModel, DynamicStrategy, FixedLeadPolicy, Preemptible};

#[test]
fn trace_to_plan_to_simulation_pipeline() {
    // 1. Generate a synthetic checkpoint log from a hidden truth.
    let truth = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
    let log = SyntheticTrace::clean(truth).generate(5000, 99);

    // 2. Persist and reload it (the operational path).
    let mut buf = Vec::new();
    log.write_jsonl(&mut buf).unwrap();
    let reloaded = TraceLog::read_jsonl(std::io::Cursor::new(buf)).unwrap();
    assert_eq!(reloaded.len(), 5000);

    // 3. Learn D_C.
    let learned =
        learn_checkpoint_law(&reloaded.completed_durations(), LearnConfig::default()).unwrap();

    // 4. Plan a 30-second reservation.
    let (plan, pessimistic) = learned.plan(30.0).unwrap();
    assert!(plan.expected_work >= pessimistic.expected_work - 1e-9);

    // 5. Execute the learned plan against the TRUE law in simulation.
    let sim = PreemptibleSim {
        reservation: 30.0,
        ckpt: truth,
    };
    let policy = FixedLeadPolicy::new("learned", plan.lead_time);
    let s = run_trials(
        MonteCarloConfig {
            trials: 200_000,
            seed: 5,
            threads: 0,
        },
        |_, rng| sim.run_once(&policy, rng).work_saved,
    );
    // The learned plan's promised expected work is honoured by reality
    // within 2%.
    assert!(
        (s.mean - plan.expected_work).abs() < 0.02 * plan.expected_work,
        "promised {} vs realized {}",
        plan.expected_work,
        s.mean
    );
}

#[test]
fn learned_lognormal_plan_beats_pessimistic_in_reality() {
    let truth = LogNormal::from_mean_sd(6.0, 1.5).unwrap();
    let log = SyntheticTrace::clean(truth).generate(10_000, 7);
    let learned = learn_checkpoint_law(
        &log.completed_durations(),
        LearnConfig {
            min_p_value: 1e-12,
            ..LearnConfig::default()
        },
    )
    .unwrap();
    let r = 40.0;
    let (opt, _) = learned.plan(r).unwrap();

    // Reality: truncate the truth to its tight central range for the sim.
    use resq::dist::Continuous;
    let t = Truncated::new(truth, truth.quantile(1e-4), truth.quantile(1.0 - 1e-4)).unwrap();
    let sim = PreemptibleSim {
        reservation: r,
        ckpt: t,
    };
    let cfg = MonteCarloConfig {
        trials: 200_000,
        seed: 6,
        threads: 0,
    };
    let s_opt = run_trials(cfg, |_, rng| {
        sim.run_once(&FixedLeadPolicy::new("learned", opt.lead_time), rng)
            .work_saved
    });
    let worst = t.quantile(1.0);
    let s_pess = run_trials(cfg, |_, rng| {
        sim.run_once(&FixedLeadPolicy::new("pessimistic", worst), rng)
            .work_saved
    });
    assert!(
        s_opt.mean > s_pess.mean,
        "learned-optimal {} <= pessimistic {}",
        s_opt.mean,
        s_pess.mean
    );
}

#[test]
fn campaign_with_dynamic_policy_completes_realistic_job() {
    // A 300-second UQ job over 29-second reservations with 2-second
    // recoveries, driven by the §4.3 threshold policy.
    let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
    let ckpt = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
    let recovery = Truncated::above(Normal::new(2.0, 0.1).unwrap(), 0.0).unwrap();
    // Tune the threshold for the EFFECTIVE reservation length R − r: the
    // paper's "this amounts to working with a reservation of length R−r".
    // (Tuning for the full R overshoots and loses ~40% of the later
    // reservations to failed checkpoints.)
    let w_int = DynamicStrategy::new(task, ckpt, 29.0 - 2.0)
        .unwrap()
        .threshold()
        .unwrap()
        .unwrap();
    let sim = CampaignSimulator {
        task,
        ckpt,
        recovery,
    };
    let config = CampaignConfig {
        model: CampaignModel::new(
            29.0,
            2.0,
            300.0,
            BillingModel::PerReservation,
            ContinuationRule::Drop,
        )
        .unwrap(),
        max_reservations: 100,
    };
    let policy = ThresholdWorkflowPolicy { threshold: w_int };
    let completions = run_trials(
        MonteCarloConfig {
            trials: 2_000,
            seed: 8,
            threads: 0,
        },
        |_, rng| sim.run_once(&config, &policy, rng).completed as u64 as f64,
    );
    assert!(
        completions.mean > 0.999,
        "completion rate {}",
        completions.mean
    );

    let reservations = run_trials(
        MonteCarloConfig {
            trials: 2_000,
            seed: 8,
            threads: 0,
        },
        |_, rng| sim.run_once(&config, &policy, rng).reservations as f64,
    );
    // ~20 saved per reservation → ~16 reservations; allow slack.
    assert!(
        reservations.mean > 13.0 && reservations.mean < 20.0,
        "reservations {}",
        reservations.mean
    );
}

#[test]
fn preemptible_and_workflow_apis_compose_through_facade() {
    // Compile-time + smoke check that the facade's pieces interoperate:
    // plan analytically, wrap in policies, execute in both simulators.
    use resq::sim::WorkflowSim;
    use resq::StaticStrategy;

    let ckpt = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
    let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();

    let static_plan = StaticStrategy::new(Normal::new(3.0, 0.5).unwrap(), ckpt, 29.0)
        .unwrap()
        .optimize()
        .unwrap();
    let sim = WorkflowSim {
        reservation: 29.0,
        task,
        ckpt,
    };
    let policy = resq::StaticWorkflowPolicy {
        n_opt: static_plan.n_opt,
    };
    let mut rng = resq::dist::Xoshiro256pp::new(1);
    let out = sim.run_once(&policy, &mut rng);
    assert_eq!(out.tasks_completed, static_plan.n_opt);

    // Preemptible with a learned-ish uniform model.
    let model = Preemptible::new(resq::dist::Uniform::new(4.0, 6.5).unwrap(), 29.0).unwrap();
    let plan = model.optimize();
    assert!(plan.lead_time >= 4.0 && plan.lead_time <= 6.5);
}
