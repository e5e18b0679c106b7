//! Slow reference and error budget for `Continuous::partial_mean`.
//!
//! Every closed form `E[X·1{X ≤ x}]` is checked against adaptive
//! Simpson of `t·pdf(t)` from the bottom of the support, split at the
//! mode, the support ends and every probed `x`, over a swept parameter
//! grid per law. The budget is
//!
//! ```text
//! |partial_mean(x) − reference(x)| ≤ 1e-12 · max(1, E|X|)
//! ```
//!
//! and `upper_partial_mean(x)` must complete it to the mean within the
//! same budget. `Truncated<Normal>` is probed on both sides of its
//! `F(lo) > 0.5` branch, down to a truncation whose mass is ~1e-15 of
//! the parent's, where only the upper-tail form keeps its digits.

use resq_dist::{
    Continuous, Distribution, Exponential, Gamma, LogNormal, Mixture, Normal, Truncated, Uniform,
};
use resq_numerics::adaptive_simpson;

/// Relative budget, against `max(1, E|X|)`.
const BUDGET: f64 = 1e-12;

/// Probe quantiles: both tails, the shoulders and the median.
const PROBES: [f64; 9] = [
    1e-9,
    1e-4,
    0.01,
    0.2,
    0.5,
    0.8,
    0.99,
    1.0 - 1e-4,
    1.0 - 1e-9,
];

/// Checks `law`'s partial means at `xs` against the reference integral
/// from `bottom` (the support's lower end, or a point below which the
/// mass is far under the budget), split at `splits` as well.
fn check<D: Continuous + std::fmt::Debug>(
    law: &D,
    abs_mean: f64,
    bottom: f64,
    splits: &[f64],
    xs: &[f64],
) {
    let scale = abs_mean.max(1.0);
    let tol = 1e-2 * BUDGET * scale;
    for &x in xs.iter().filter(|&&x| x <= bottom) {
        let got = law.partial_mean(x).expect("closed form");
        assert!(
            got.abs() <= BUDGET * scale,
            "{law:?}: partial_mean({x}) = {got}"
        );
    }
    let mut knots: Vec<f64> = splits
        .iter()
        .chain(xs)
        .copied()
        .filter(|&t| t > bottom && t.is_finite())
        .collect();
    knots.sort_by(f64::total_cmp);
    knots.dedup();
    let mut at = bottom;
    let mut reference = 0.0;
    for &knot in &knots {
        // `pdf` is infinite at a singular endpoint (Gamma, shape < 1)
        // where `t·pdf(t)` tends to 0.
        let integrand = |t: f64| {
            let v = t * law.pdf(t);
            if v.is_finite() {
                v
            } else {
                0.0
            }
        };
        reference += adaptive_simpson(integrand, at, knot, tol).value;
        at = knot;
        if !xs.contains(&knot) {
            continue;
        }
        let got = law.partial_mean(knot).expect("closed form");
        assert!(
            (got - reference).abs() <= BUDGET * scale,
            "{law:?}: partial_mean({knot}) = {got}, reference {reference}"
        );
        let upper = law.upper_partial_mean(knot).expect("closed form");
        assert!(
            (got + upper - law.mean()).abs() <= BUDGET * scale,
            "{law:?}: partial means at {knot} sum to {} not {}",
            got + upper,
            law.mean()
        );
    }
}

/// The probe points of `law`: its quantiles at [`PROBES`].
fn probes<D: Continuous>(law: &D) -> Vec<f64> {
    PROBES.iter().map(|&p| law.quantile(p)).collect()
}

#[test]
fn normal_matches_the_reference_for_z_in_minus_40_to_40() {
    for (mu, sigma) in [
        (0.0, 1.0),
        (3.0, 0.5),
        (-2.0, 3.0),
        (100.0, 0.1),
        (0.25, 2e-3),
    ] {
        let law = Normal::new(mu, sigma).unwrap();
        let xs: Vec<f64> = (-8..=8).map(|k| mu + 5.0 * k as f64 * sigma).collect();
        let abs_mean = sigma * 2.0 * resq_specfun::norm_pdf(mu / sigma)
            + mu * (1.0 - 2.0 * resq_specfun::norm_cdf(-mu / sigma));
        check(&law, abs_mean, mu - 41.0 * sigma, &[mu], &xs);
    }
}

#[test]
fn truncated_normal_matches_the_reference_on_both_branches() {
    let cases = [
        // F(lo) ≤ 0.5: the paper's N[0,∞) laws and a two-sided one.
        (3.0, 0.5, 0.0, f64::INFINITY),
        (5.0, 0.4, 0.0, f64::INFINITY),
        (0.1, 0.3, 0.0, f64::INFINITY),
        (0.0, 1.0, -1.0, 2.0),
        // F(lo) > 0.5: right-tail truncations, down to a mass of ~1e-15.
        (10.0, 1.0, 12.0, f64::INFINITY),
        (0.0, 1.0, 5.0, 7.0),
        (100.0, 1.0, 108.0, f64::INFINITY),
    ];
    for (mu, sigma, lo, hi) in cases {
        let law = Truncated::new(Normal::new(mu, sigma).unwrap(), lo, hi).unwrap();
        let top = hi.min(lo.max(mu) + 12.0 * sigma);
        let mut xs = probes(&law);
        xs.extend([lo - 1.0, top]);
        let mode = mu.clamp(lo, hi);
        // E|X| is the mean on [0, ∞) and below 1 on [−1, 2].
        let abs_mean = if lo >= 0.0 { law.mean() } else { 1.0 };
        check(&law, abs_mean, lo, &[mode], &xs);
        assert_eq!(law.partial_mean(lo), Some(0.0));
    }
}

#[test]
fn exponential_matches_the_reference() {
    for rate in [0.01, 0.3, 1.0, 20.0, 1e3] {
        let law = Exponential::new(rate).unwrap();
        let mut xs = probes(&law);
        xs.push(-1.0);
        check(&law, law.mean(), 0.0, &[], &xs);
        assert_eq!(law.partial_mean(f64::INFINITY), Some(law.mean()));
    }
}

#[test]
fn uniform_matches_the_reference_below_inside_and_above_its_support() {
    for (a, b) in [(0.0, 1.0), (2.0, 5.0), (-3.0, 1.0), (0.05, 0.17)] {
        let law = Uniform::new(a, b).unwrap();
        let w = b - a;
        let xs: Vec<f64> = [-0.5, 0.0, 0.1, 0.5, 0.9, 1.0, 1.5]
            .iter()
            .map(|t| a + t * w)
            .collect();
        let abs_mean = if a >= 0.0 {
            law.mean()
        } else {
            (a * a + b * b) / (2.0 * w)
        };
        check(&law, abs_mean, a - w, &[a, b], &xs);
    }
}

#[test]
fn lognormal_matches_the_reference_for_sigma_in_0_01_to_2() {
    for sigma in [0.01, 0.05, 0.2, 0.7, 1.3, 2.0] {
        for mu in [-2.5, 0.0, 1.5] {
            let law = LogNormal::new(mu, sigma).unwrap();
            let mode = (mu - sigma * sigma).exp();
            let mut xs = probes(&law);
            xs.push(-1.0);
            check(&law, law.mean(), 0.0, &[mode], &xs);
        }
    }
}

#[test]
fn gamma_matches_the_reference_for_shapes_below_and_above_one() {
    // Shapes below 1 are the Gamma sums of fewer than one exponential
    // task: the density is singular at 0, `t·pdf(t) ~ t^k` is not.
    for shape in [0.05, 0.3, 0.8, 1.0, 2.5, 12.0, 150.0] {
        for scale in [0.02, 0.5, 4.0] {
            let law = Gamma::new(shape, scale).unwrap();
            let mode = ((shape - 1.0) * scale).max(0.0);
            let mut xs = probes(&law);
            xs.push(-1.0);
            check(&law, law.mean(), 0.0, &[mode], &xs);
        }
    }
}

#[test]
fn normal_mixture_matches_the_reference() {
    // The flexible trace learner's Gaussian-mixture fallback.
    let law = Mixture::new(vec![
        (0.7, Normal::new(4.0, 0.3).unwrap()),
        (0.3, Normal::new(9.0, 0.5).unwrap()),
    ])
    .unwrap();
    let mut xs = probes(&law);
    xs.push(5.0);
    check(&law, law.mean(), 4.0 - 41.0 * 0.3, &[4.0, 9.0], &xs);
}

#[test]
fn laws_without_a_closed_form_report_none() {
    let weibull = resq_dist::Weibull::new(2.0, 3.0).unwrap();
    assert_eq!(weibull.partial_mean(1.0), None);
    assert_eq!(weibull.upper_partial_mean(1.0), None);
    let truncated = Truncated::above(weibull, 0.5).unwrap();
    assert_eq!(truncated.partial_mean(1.0), None);
}
