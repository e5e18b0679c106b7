//! Bit-level pin of the retry-aware §4 planners.
//!
//! Solves the paper's dynamic instances (Figs. 8–10) and static
//! instances (Figs. 5–7) under five checkpoint-reliability models:
//! reliable writes, three retry schedules and a give-up policy. Between
//! them they reach every way `RetryPreemptible` evaluates its success
//! profile `S` (the plain CDF, a scaled CDF and the retry lattice).
//! Each `W_int` and each `E(n_opt)` is pinned to the bit and `n_opt`
//! exactly. `y_opt` only steers the static search toward `n_opt`, so it
//! is pinned to 1e-3.

use resq_core::{
    CheckpointReliability, DynamicStrategy, IidSum, RetryPolicy, RetryPreemptible, StaticStrategy,
    TaskDuration,
};
use resq_dist::{Gamma, Normal, Poisson, Truncated};

fn tn(mu: f64, sigma: f64) -> Truncated<Normal> {
    Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
}

/// The five reliability models, in the order of the golden rows.
fn models() -> [(CheckpointReliability, RetryPolicy); 5] {
    use CheckpointReliability::{DurationHazard, PerAttempt, Reliable};
    use RetryPolicy::{Backoff, GiveUpAndWorkOn, Immediate};
    [
        (Reliable, Immediate { max_attempts: 3 }),
        (PerAttempt { p: 0.8 }, Immediate { max_attempts: 3 }),
        (
            PerAttempt { p: 0.5 },
            Backoff {
                max_attempts: 3,
                delay: 0.5,
            },
        ),
        (DurationHazard { rate: 0.1 }, Immediate { max_attempts: 3 }),
        (PerAttempt { p: 0.7 }, GiveUpAndWorkOn),
    ]
}

/// `W_int` bits of the retry-aware dynamic strategy, one per model.
fn w_int_bits<X: TaskDuration + Clone>(
    task: X,
    ckpt: Truncated<Normal>,
    r: f64,
) -> Vec<Option<u64>> {
    models()
        .into_iter()
        .map(|(rel, retry)| {
            let model = RetryPreemptible::new(ckpt, r, rel, retry).unwrap();
            DynamicStrategy::new(task.clone(), model, r)
                .unwrap()
                .threshold()
                .unwrap()
                .map(f64::to_bits)
        })
        .collect()
}

/// `(y_opt, n_opt, E(n_opt) bits)` of the retry-aware static strategy,
/// one per model.
fn static_plans<T: IidSum + Clone>(
    tasks: T,
    ckpt: Truncated<Normal>,
    r: f64,
) -> Vec<(f64, u64, u64)> {
    models()
        .into_iter()
        .map(|(rel, retry)| {
            let model = RetryPreemptible::new(ckpt, r, rel, retry).unwrap();
            let plan = StaticStrategy::new(tasks.clone(), model, r)
                .unwrap()
                .optimize()
                .unwrap();
            (plan.y_opt, plan.n_opt, plan.expected_work.to_bits())
        })
        .collect()
}

/// `W_int` bits per instance, one per model of [`models`].
const W_INT: [(&str, [u64; 5]); 3] = [
    (
        "fig8",
        [
            0x403443d21ff81ab3,
            0x4030f6894f27cc80,
            0x402eecd85b2788b0,
            0x403016031d6d6ae5,
            0x403443d21ff81ab3,
        ],
    ),
    (
        "fig9",
        [
            0x4019c599e73de721,
            0x401832becfc3b8a1,
            0x401305ac146c1892,
            0x4018de22627b5320,
            0x4019c599e73de720,
        ],
    ),
    (
        "fig10",
        [
            0x4032dc3ed1e25704,
            0x40311d89077003e7,
            0x402ec75b9d524148,
            0x40301c2c1803f213,
            0x4032dc3ed1e25704,
        ],
    ),
];

/// `(y_opt, n_opt, E(n_opt) bits)` per instance, one per model.
#[allow(clippy::type_complexity)]
const PLANS: [(&str, [(f64, u64, u64); 5]); 3] = [
    (
        "fig5",
        [
            (7.383416815962667, 7, 0x4034f3d2ddd2802d),
            (7.230626164138144, 7, 0x403184edd112efc6),
            (5.956784992139044, 6, 0x4029b0c61edf2fd4),
            (6.172556849913449, 6, 0x402dd0277b2f8ed8),
            (7.383416816349822, 7, 0x402d555a69c04d0b),
        ],
    ),
    (
        "fig6",
        [
            (11.728172571961561, 12, 0x40133d7c8ae10e99),
            (11.201771748864473, 11, 0x40113fdfaf2bbf5d),
            (10.33824865608681, 10, 0x40080ac1efd31b60),
            (11.273558258070882, 11, 0x40117104816091d9),
            (11.728172436360769, 12, 0x400aefae5c07e13c),
        ],
    ),
    (
        "fig7",
        [
            (5.977896368708832, 6, 0x402f9104461b90f2),
            (5.721242315557039, 6, 0x402c5bca9332ba96),
            (5.260590985407938, 5, 0x40250f2ee5ff28e7),
            (5.4470564455950985, 5, 0x40283845a02e36be),
            (5.977896468922831, 6, 0x402618b631134bdc),
        ],
    ),
];

#[test]
fn dynamic_thresholds_are_pinned() {
    let got = [
        w_int_bits(tn(3.0, 0.5), tn(5.0, 0.4), 29.0),
        w_int_bits(Gamma::new(1.0, 0.5).unwrap(), tn(2.0, 0.4), 10.0),
        w_int_bits(Poisson::new(3.0).unwrap(), tn(5.0, 0.4), 29.0),
    ];
    for ((name, want), got) in W_INT.iter().zip(&got) {
        for (m, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(Some(*w), *g, "{name}, model {m}: W_int bits moved");
        }
    }
}

#[test]
fn static_plans_are_pinned() {
    let got = [
        static_plans(Normal::new(3.0, 0.5).unwrap(), tn(5.0, 0.4), 30.0),
        static_plans(Gamma::new(1.0, 0.5).unwrap(), tn(2.0, 0.4), 10.0),
        static_plans(Poisson::new(3.0).unwrap(), tn(5.0, 0.4), 29.0),
    ];
    for ((name, want), got) in PLANS.iter().zip(&got) {
        for (m, (&(y, n, e), &(gy, gn, ge))) in want.iter().zip(got).enumerate() {
            assert_eq!(gn, n, "{name}, model {m}: n_opt moved");
            assert_eq!(ge, e, "{name}, model {m}: E(n_opt) bits moved");
            assert!(
                (gy - y).abs() <= 1e-3,
                "{name}, model {m}: y_opt {gy} vs {y}"
            );
        }
    }
}
