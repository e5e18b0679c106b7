//! A multi-reservation campaign with cloud billing — the §4.4 discussion
//! made concrete.
//!
//! An uncertainty-quantification sweep needs 500 s of compute, but the
//! provider caps reservations at 60 s. Every reservation after the first
//! starts with a ~4 s recovery, so the checkpoint policy must be tuned
//! for the *effective* length `R − r = 56 s` — the paper's "this amounts
//! to working with a reservation of length R − r" (tuning for the full
//! 60 s overshoots and fails half the checkpoints).
//!
//! We compare the §4.4 options — drop the reservation after a successful
//! checkpoint vs keep computing — under both billing models and under
//! two policies: the dynamic threshold (which fills the reservation) and
//! a cautious early-checkpoint policy (which leaves leftover time for
//! continuation to exploit).
//!
//! Run with: `cargo run --release --example cloud_campaign`

use resq::core::policy::ThresholdWorkflowPolicy;
use resq::core::reservation::{BillingModel, ContinuationRule};
use resq::dist::{Normal, Truncated};
use resq::sim::{run_trials, CampaignConfig, CampaignSimulator, MonteCarloConfig};
use resq::{CampaignModel, DynamicStrategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let r = 60.0;
    let recovery_mean = 4.0;
    let total_work = 500.0;
    let task = Truncated::above(Normal::new(3.0, 0.8)?, 0.0)?;
    let ckpt = Truncated::above(Normal::new(5.0, 0.6)?, 0.0)?;
    let recovery = Truncated::above(Normal::new(recovery_mean, 0.3)?, 0.0)?;

    // Dynamic threshold tuned for the EFFECTIVE reservation length (§4.4).
    let w_int = DynamicStrategy::new(task, ckpt, r - recovery_mean)?
        .threshold()?
        .expect("feasible reservation");
    println!(
        "UQ campaign: {total_work} s of work, reservations of {r} s, recovery ~{recovery_mean} s"
    );
    println!(
        "dynamic checkpoint threshold (tuned for R - r = {} s): W_int = {w_int:.2} s\n",
        r - recovery_mean
    );

    let sim = CampaignSimulator {
        task,
        ckpt,
        recovery,
    };
    let cfg_mc = MonteCarloConfig {
        trials: 4_000,
        seed: 7,
        threads: 0,
    };

    println!(
        "  {:<22} {:<18} {:<14} {:>13} {:>10}",
        "policy", "billing", "after ckpt", "reservations", "cost"
    );
    for (pname, threshold) in [
        ("dynamic (fills R)", w_int),
        ("early-ckpt (40% R)", 0.4 * (r - recovery_mean)),
    ] {
        let policy = ThresholdWorkflowPolicy { threshold };
        for (billing, bname) in [
            (BillingModel::PerReservation, "per-reservation"),
            (BillingModel::PerUse, "per-use"),
        ] {
            for (rule, rname) in [
                (ContinuationRule::Drop, "drop"),
                (ContinuationRule::ContinueIfAtLeast(12.0), "continue>=12s"),
            ] {
                let config = CampaignConfig {
                    model: CampaignModel::new(r, recovery_mean, total_work, billing, rule)?,
                    max_reservations: 500,
                };
                let res = run_trials(cfg_mc, |_, rng| {
                    sim.run_once(&config, &policy, rng).reservations as f64
                });
                let cost = run_trials(cfg_mc, |_, rng| sim.run_once(&config, &policy, rng).cost);
                println!(
                    "  {pname:<22} {bname:<18} {rname:<14} {:>13.2} {:>10.1}",
                    res.mean, cost.mean
                );
            }
        }
    }

    println!("\nReading the table (the paper's §4.4 trade-off):");
    println!("  * the dynamic threshold already fills the reservation, so leftover time");
    println!("    is ~nil and the continue-vs-drop rule barely matters;");
    println!("  * the cautious early-checkpoint policy leaves half the reservation idle:");
    println!("    continuation then cuts the reservation count (and per-reservation cost)");
    println!("    dramatically, while per-use billing softens the penalty of dropping.");
    println!("  * which combination wins depends on recovery cost, billing, and urgency —");
    println!("    \"the decision involves many parameters\", exactly as the paper says.");
    Ok(())
}
