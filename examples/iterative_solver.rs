//! An iterative sparse solver inside a fixed-length reservation — the
//! paper's §4 scenario end-to-end.
//!
//! A Jacobi/GMRES-style solver runs iterations of stochastic duration
//! (truncated Normal, μ = 3 s, σ = 0.5 s) inside a 29-second reservation
//! and can only checkpoint at iteration boundaries; the checkpoint takes
//! `N_{[0,∞)}(5, 0.4²)` seconds (Figures 5 & 8 parameters). We plan with
//! both the static (§4.2) and dynamic (§4.3) strategies and race them —
//! plus a worst-case-provisioning baseline — over 200k simulated
//! reservations.
//!
//! Run with: `cargo run --release --example iterative_solver`

use resq::dist::{Continuous, Normal, Truncated};
use resq::sim::{run_trials, MonteCarloConfig, WorkflowSim};
use resq::{DynamicStrategy, PessimisticWorkflowPolicy, StaticStrategy, StaticWorkflowPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let r = 29.0;
    let task = Truncated::above(Normal::new(3.0, 0.5)?, 0.0)?; // iteration time
    let ckpt = Truncated::above(Normal::new(5.0, 0.4)?, 0.0)?; // checkpoint time

    println!("Iterative solver: R = {r} s, iteration ~ N[0,inf)(3, 0.5^2), checkpoint ~ N[0,inf)(5, 0.4^2)\n");

    // ---- Static strategy (§4.2): decide n_opt before execution -------
    let static_strategy = StaticStrategy::new(Normal::new(3.0, 0.5)?, ckpt, r)?;
    let static_plan = static_strategy.optimize()?;
    println!(
        "  static  (§4.2): checkpoint after n_opt = {} iterations \
         (relaxation max at y = {:.2}); E[saved] = {:.2} s",
        static_plan.n_opt, static_plan.y_opt, static_plan.expected_work
    );

    // ---- Dynamic strategy (§4.3): threshold on observed work ---------
    let dynamic = DynamicStrategy::new(task, ckpt, r)?;
    let w_int = dynamic.threshold()?.expect("reservation long enough");
    println!(
        "  dynamic (§4.3): checkpoint once accumulated work >= W_int = {:.2} s\n",
        w_int
    );

    // ---- Race them over 200k reservations -----------------------------
    let sim = WorkflowSim {
        reservation: r,
        task,
        ckpt,
    };
    let cfg = MonteCarloConfig {
        trials: 200_000,
        seed: 42,
        threads: 0,
    };

    let static_policy = StaticWorkflowPolicy {
        n_opt: static_plan.n_opt,
    };
    // Risk-free baseline: keep 99.9%-quantile iteration + worst-case
    // checkpoint in reserve.
    let pessimistic = PessimisticWorkflowPolicy {
        r,
        worst_task: task.quantile(0.999),
        worst_ckpt: ckpt.quantile(0.999),
    };
    let threshold_policy = resq::core::policy::ThresholdWorkflowPolicy { threshold: w_int };

    println!("  simulating 200k reservations per policy...\n");
    let s_pess = run_trials(cfg, |_, rng| sim.run_once(&pessimistic, rng).work_saved);
    let s_static = run_trials(cfg, |_, rng| sim.run_once(&static_policy, rng).work_saved);
    let s_dyn = run_trials(cfg, |_, rng| {
        sim.run_once(&threshold_policy, rng).work_saved
    });

    println!("  policy        mean saved work   success-adjusted detail");
    for (name, s) in [
        ("pessimistic", &s_pess),
        ("static", &s_static),
        ("dynamic", &s_dyn),
    ] {
        let (lo, hi) = s.ci95();
        println!(
            "  {name:<12}  {:>8.3} s        95% CI [{lo:.3}, {hi:.3}], min {:.2}, max {:.2}",
            s.mean, s.min, s.max
        );
    }
    println!(
        "\n  dynamic vs static gain : {:+.2}%",
        100.0 * (s_dyn.mean / s_static.mean - 1.0)
    );
    println!(
        "  dynamic vs pessimistic : {:+.2}%",
        100.0 * (s_dyn.mean / s_pess.mean - 1.0)
    );
    println!("\nAs the paper predicts, accounting for observed iteration times (dynamic)");
    println!("dominates the fixed plan, and both dominate worst-case provisioning.");
    Ok(())
}
