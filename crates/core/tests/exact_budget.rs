//! The exact §4 integrals against a slow reference, within a stated
//! budget.
//!
//! Every reported `E(n_opt)` and every deciding `E[W_{+1}]` of the §4
//! planners comes from one exact integral: Eq. 3's `E(n)` in the static
//! settle, and `E[W_{+1}](w)` in the `W_int` scan and its Brent
//! refinement. This file recomputes them with adaptive Simpson at
//! `1e-14·max(1, R)`, summed over sub-intervals cut at the nodes of the
//! grid the fit probability is interpolated on (the retry model's
//! success lattice; none for a plain law), so that no piece carries a
//! kink. The production values must lie within
//! `|production − reference| ≤ 1e-11·max(1, R)`, the integrators' own
//! tolerance.
//!
//! Cases:
//!
//! * 16 seeded queries per family inside the `decide_mix` box at
//!   `R = 1`, as `lattice::solve_exact` builds them: `E[W_{+1}]` at
//!   `W_int` and at `w = 0.2, 0.4, 0.6, 0.8`, and `E(n)` at `n_opt` and
//!   `n_opt ± 1` for the families with a §4.2 integral (Normal sums and
//!   the Gamma sums of Exponential tasks; Uniform and LogNormal tasks
//!   plan on the convolution grid, which integrates nothing);
//! * the paper's Figs. 5 and 6 (`E(n)`) and Figs. 8 and 9
//!   (`E[W_{+1}]`) with a plain checkpoint;
//! * the same four figures under the five reliability models of
//!   `retry_pin.rs`; models 1–3 read `S(c)` from the success lattice.
//!
//! Largest gap `|production − reference| / max(1, R)` observed per
//! group, for adaptive Gauss–Kronrod with breakpoints at the lattice
//! nodes and, in the last column, for the adaptive Simpson it replaced.
//! Simpson's estimate is fooled by the lattice's kinks: it put 15 cases
//! of models 1–3 over budget (Fig. 6 `E(n)` and Fig. 9 `E[W_{+1}]`),
//! although each of its integrals passed its convergence check.
//!
//! | group | Gauss–Kronrod | adaptive Simpson |
//! |---|---|---|
//! | uniform queries | 2.7e-15 | 1.4e-15 |
//! | exponential queries | 8.3e-16 | 1.2e-12 |
//! | normal queries | 1.8e-15 | 7.3e-14 |
//! | lognormal queries | 7.8e-16 | 4.8e-14 |
//! | figures | 3.7e-16 | 3.7e-16 |
//! | retry model 0 | 3.7e-16 | 3.7e-16 |
//! | retry model 1 | 1.2e-16 | 1.3e-9 |
//! | retry model 2 | 6.1e-17 | 7.9e-9 |
//! | retry model 3 | 8.9e-17 | 8.1e-9 |
//! | retry model 4 | 3.0e-16 | 3.6e-16 |

use resq_core::{
    CheckpointFit, CheckpointReliability, DynamicStrategy, IidSum, RetryPolicy, RetryPreemptible,
    StaticStrategy, TaskDuration,
};
use resq_dist::{Continuous, Exponential, Gamma, LogNormal, Normal, Truncated, Uniform};
use resq_numerics::{adaptive_simpson, NeumaierSum};

/// Absolute tolerance of the reference per unit of `R`.
const REFERENCE_TOL: f64 = 1e-14;

/// Budget of `|production − reference|` per unit of `R`.
const BUDGET: f64 = 1e-11;

/// Work levels `w/R` at which `E[W_{+1}]` is checked besides `W_int`.
const LEVELS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

/// The largest gap of one group of cases, and every case over budget.
struct Group {
    name: String,
    worst: f64,
    cases: usize,
    over: Vec<String>,
}

impl Group {
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            worst: 0.0,
            cases: 0,
            over: Vec::new(),
        }
    }

    fn check(&mut self, case: &str, production: f64, reference: f64, r: f64) {
        let gap = (production - reference).abs() / r.max(1.0);
        self.cases += 1;
        self.worst = self.worst.max(gap);
        if !(gap <= BUDGET) {
            self.over.push(format!(
                "{case}: production {production:e}, reference {reference:e}, gap/max(1, R) {gap:e}"
            ));
        }
    }
}

/// Prints every group's largest gap, then fails on any case over budget.
fn finish(groups: Vec<Group>) {
    let mut over = Vec::new();
    for g in &groups {
        eprintln!(
            "{}: {} cases, largest gap/max(1, R) {:.1e}",
            g.name, g.cases, g.worst
        );
        assert!(g.cases > 0, "{}: no case ran", g.name);
        over.extend(g.over.iter().map(|case| format!("{}, {case}", g.name)));
    }
    assert!(
        over.is_empty(),
        "{} cases over the {BUDGET:e} budget:\n{}",
        over.len(),
        over.join("\n")
    );
}

/// The nodes `c = k·h` of a fit grid of step `grid`, seen by an
/// integrand that reads the fit at `c = origin − x`: every
/// `x = origin − k·h` strictly inside `(lo, hi)`.
fn grid_cuts(grid: Option<f64>, origin: f64, lo: f64, hi: f64) -> Vec<f64> {
    let Some(h) = grid else {
        return Vec::new();
    };
    let mut cuts: Vec<f64> = (0..)
        .map(|k| origin - k as f64 * h)
        .skip_while(|&x| x >= hi)
        .take_while(|&x| x > lo)
        .collect();
    cuts.reverse();
    cuts
}

/// Adaptive Simpson over `[lo, hi]`, summed over the pieces between
/// `cuts`; each piece gets its width's share of `1e-14·max(1, R)`.
fn reference(f: impl Fn(f64) -> f64, lo: f64, hi: f64, cuts: &[f64], r: f64) -> f64 {
    let tol = REFERENCE_TOL * r.max(1.0);
    let edges: Vec<f64> = std::iter::once(lo)
        .chain(cuts.iter().copied())
        .chain(std::iter::once(hi))
        .collect();
    let mut sum = NeumaierSum::new();
    for piece in edges.windows(2) {
        let share = tol * (piece[1] - piece[0]) / (hi - lo);
        sum.add(adaptive_simpson(&f, piece[0], piece[1], share).value);
    }
    sum.value()
}

/// Reference `E[W_{+1}](w) = ∫ (x + w)·P(C ≤ R−w−x)·f_X(x) dx` over the
/// task support clipped to `[0, R − w]`.
fn one_more_reference<X: Continuous, C: CheckpointFit>(task: &X, ckpt: &C, w: f64, r: f64) -> f64 {
    let budget = r - w;
    let (lo, hi) = task.support();
    let (lo, hi) = (lo.max(0.0), hi.min(budget));
    if hi <= lo {
        return 0.0;
    }
    let integrand = |x: f64| {
        let p = ckpt.fit_probability(budget - x);
        if p <= 0.0 {
            return 0.0;
        }
        let v = (x + w) * p * task.pdf(x);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    };
    let cuts = grid_cuts(ckpt.fit_grid(), budget, lo, hi);
    reference(integrand, lo, hi, &cuts, r)
}

/// Reference `E(n) = ∫ x·P(C ≤ R − x)·f_{S_n}(x) dx` (Eq. 3) over the
/// sum law's bounds clipped at `R`.
fn static_reference<T: IidSum, C: CheckpointFit>(tasks: &T, ckpt: &C, n: u64, r: f64) -> f64 {
    let y = n as f64;
    let (lo, hi) = tasks.sum_bounds(y);
    let hi = hi.min(r);
    if hi <= lo {
        return 0.0;
    }
    let integrand = |x: f64| x * ckpt.fit_probability(r - x) * tasks.sum_density(y, x);
    let cuts = grid_cuts(ckpt.fit_grid(), r, lo, hi);
    reference(integrand, lo, hi, &cuts, r)
}

/// `E[W_{+1}]` at `W_int` and at [`LEVELS`] of `R`.
fn check_dynamic<X, C>(group: &mut Group, case: &str, task: X, ckpt: C, r: f64)
where
    X: TaskDuration + Continuous,
    C: CheckpointFit,
{
    let d = DynamicStrategy::new(task, ckpt, r).unwrap();
    let w_int = d.threshold().unwrap();
    for w in w_int.into_iter().chain(LEVELS.map(|f| f * r)) {
        let reference = one_more_reference(d.task(), d.checkpoint_law(), w, r);
        group.check(
            &format!("{case} E[W+1]({w})"),
            d.expect_one_more(w),
            reference,
            r,
        );
    }
}

/// `E(n)` at `n_opt` and `n_opt ± 1`.
fn check_static<T: IidSum, C: CheckpointFit>(
    group: &mut Group,
    case: &str,
    tasks: T,
    ckpt: C,
    r: f64,
) {
    let s = StaticStrategy::new(tasks, ckpt, r).unwrap();
    let n_opt = s.optimize().unwrap().n_opt;
    for n in (n_opt.max(2) - 1)..=(n_opt + 1) {
        let reference = static_reference(s.tasks(), s.checkpoint_law(), n, r);
        group.check(&format!("{case} E({n})"), s.expected_work(n), reference, r);
    }
}

fn tn(mu: f64, sigma: f64) -> Truncated<Normal> {
    Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
}

/// SplitMix64: the seeded query stream.
struct Rng(u64);

impl Rng {
    fn within(&mut self, (lo, hi): (f64, f64)) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let unit = ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        lo + unit * (hi - lo)
    }
}

/// Queries per family.
const QUERIES: usize = 16;

/// The `decide_mix` boxes at `R = 1` (those of `exact_pin.rs`); the last
/// axis is always `µ_C`, with `σ_C = 0.08·µ_C`.
const FAMILIES: [(&str, &[(f64, f64)]); 4] = [
    // task_lo, task_width, ckpt_mean
    ("uniform", &[(0.02, 0.20), (0.02, 0.20), (0.05, 0.30)]),
    // task_mean, ckpt_mean
    ("exponential", &[(0.05, 0.30), (0.05, 0.30)]),
    // task_mean, task_cv, ckpt_mean
    ("normal", &[(0.05, 0.30), (0.05, 0.30), (0.05, 0.30)]),
    ("lognormal", &[(0.05, 0.30), (0.05, 0.30), (0.05, 0.30)]),
];

#[test]
fn decide_box_queries_are_within_budget() {
    let mut groups = Vec::new();
    for (family, (name, axes)) in FAMILIES.into_iter().enumerate() {
        let mut group = Group::new(format!("{name} queries"));
        let mut rng = Rng(0xB0D6_E700 + family as u64);
        for i in 0..QUERIES {
            let c: Vec<f64> = axes.iter().map(|&a| rng.within(a)).collect();
            let mu_c = c[c.len() - 1];
            let ckpt = tn(mu_c, 0.08 * mu_c);
            let case = format!("query {i} {c:?}");
            match family {
                0 => {
                    let task = Uniform::new(c[0], c[0] + c[1]).unwrap();
                    check_dynamic(&mut group, &case, task, ckpt, 1.0);
                }
                1 => {
                    let task = Exponential::new(1.0 / c[0]).unwrap();
                    check_dynamic(&mut group, &case, task, ckpt, 1.0);
                    let tasks = Gamma::new(1.0, c[0]).unwrap();
                    check_static(&mut group, &case, tasks, ckpt, 1.0);
                }
                2 => {
                    let task = tn(c[0], c[1] * c[0]);
                    check_dynamic(&mut group, &case, task, ckpt, 1.0);
                    let tasks = Normal::new(c[0], c[1] * c[0]).unwrap();
                    check_static(&mut group, &case, tasks, ckpt, 1.0);
                }
                _ => {
                    let task = LogNormal::from_mean_sd(c[0], c[1] * c[0]).unwrap();
                    check_dynamic(&mut group, &case, task, ckpt, 1.0);
                }
            }
        }
        groups.push(group);
    }
    finish(groups);
}

/// Figs. 5 and 6 (static) and Figs. 8 and 9 (dynamic), each with the
/// checkpoint `ckpt(mu_c, sigma_c, r)` builds.
fn check_figures<C: CheckpointFit>(group: &mut Group, ckpt: impl Fn(f64, f64, f64) -> C) {
    let fig5 = Normal::new(3.0, 0.5).unwrap();
    check_static(group, "fig5", fig5, ckpt(5.0, 0.4, 30.0), 30.0);
    let fig6 = Gamma::new(1.0, 0.5).unwrap();
    check_static(group, "fig6", fig6, ckpt(2.0, 0.4, 10.0), 10.0);
    check_dynamic(group, "fig8", tn(3.0, 0.5), ckpt(5.0, 0.4, 29.0), 29.0);
    let fig9 = Gamma::new(1.0, 0.5).unwrap();
    check_dynamic(group, "fig9", fig9, ckpt(2.0, 0.4, 10.0), 10.0);
}

#[test]
fn paper_figures_are_within_budget() {
    let mut group = Group::new("figures");
    check_figures(&mut group, |mu_c, sigma_c, _| tn(mu_c, sigma_c));
    finish(vec![group]);
}

/// The five reliability models of `retry_pin.rs`, in its order.
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

#[test]
fn retry_models_are_within_budget() {
    let mut groups = Vec::new();
    for (m, (rel, retry)) in models().into_iter().enumerate() {
        let mut group = Group::new(format!("retry model {m}"));
        let model =
            |mu_c, sigma_c, r| RetryPreemptible::new(tn(mu_c, sigma_c), r, rel, retry).unwrap();
        // Models 1–3 serve `S(c)` from the success lattice, and only
        // those have a grid to cut at.
        assert_eq!(
            model(5.0, 0.4, 30.0).fit_grid().is_some(),
            (1..=3).contains(&m),
            "model {m}"
        );
        check_figures(&mut group, model);
        groups.push(group);
    }
    finish(groups);
}
