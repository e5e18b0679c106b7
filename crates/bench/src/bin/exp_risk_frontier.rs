//! Extension experiment: the reliability / expected-work frontier of §3
//! plans (risk-aware planning beyond the paper's expectation objective).
//!
//! For the Figure-1(a) and Figure-3(a) checkpoint laws, sweep the SLO
//! floor p on the checkpoint success probability and record the best
//! achievable expected work — quantifying what reliability costs.

use resq::dist::{Normal, Truncated, Uniform};
use resq::Preemptible;
use resq_bench::report::{finish, results_dir, write_csv, Anchor, FigureResult};

fn main() {
    let uni = Preemptible::new(Uniform::new(1.0, 7.5).unwrap(), 10.0).unwrap();
    let nor = Preemptible::new(
        Truncated::new(Normal::new(3.5, 1.0).unwrap(), 1.0, 7.5).unwrap(),
        10.0,
    )
    .unwrap();

    let mut rows = Vec::new();
    for i in 0..=40 {
        let p = i as f64 / 40.0;
        let u = uni.optimize_with_min_success(p).unwrap();
        let n = nor.optimize_with_min_success(p).unwrap();
        rows.push(vec![
            p,
            u.expected_work,
            u.lead_time,
            n.expected_work,
            n.lead_time,
        ]);
    }
    let csv = results_dir().join("exp_risk_frontier.csv");
    write_csv(
        &csv,
        "exp_risk_frontier",
        &[
            "min_success",
            "uniform_ew",
            "uniform_lead",
            "normal_ew",
            "normal_lead",
        ],
        rows.clone(),
    )
    .unwrap();

    // Anchors: frontier endpoints are the named plans, and a 90% SLO on
    // the Fig-1a law costs ~10% of the unconstrained expected work.
    let free = uni.optimize().expected_work;
    let safe = uni.pessimistic().expected_work;
    let slo90 = uni.optimize_with_min_success(0.9).unwrap().expected_work;
    finish(FigureResult {
        id: "exp_risk_frontier".into(),
        title: "reliability vs expected-work frontier (§3 risk extension)".into(),
        anchors: vec![
            Anchor::new("frontier(0) = unconstrained", free, rows[0][1], 1e-9),
            Anchor::new("frontier(1) = pessimistic", safe, rows[40][1], 1e-9),
            Anchor::new(
                "90% SLO keeps >=85% of optimum",
                1.0,
                (slo90 >= 0.85 * free) as u8 as f64,
                0.0,
            ),
        ],
        csv: Some(csv),
    });
}
