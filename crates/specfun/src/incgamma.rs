//! Regularized incomplete gamma functions `P(a, x)` ([`gamma_p`]),
//! `Q(a, x)` ([`gamma_q`]) and the inverse of `P` ([`inv_gamma_p`]).
//!
//! `P(a, x)` is the CDF of the `Gamma(a, 1)` law; the paper's static
//! strategy with Gamma-distributed task times (§4.2.2) integrates against
//! `f_{S_n}` with `S_n ~ Gamma(nk, θ)`, whose CDF is `P(nk, x/θ)`.
//!
//! Series expansion for `x < a + 1`, Lentz continued fraction otherwise —
//! the classic pairing that converges quickly on both sides.

use crate::gamma::ln_gamma;

const EPS: f64 = 1e-15;
const FPMIN: f64 = f64::MIN_POSITIVE / EPS;
const MAX_ITER: usize = 600;

/// `exp(-x + a ln x - ln Γ(a))`, the common prefactor, computed in log
/// space to postpone overflow/underflow.
#[inline]
fn prefactor(a: f64, x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Lower series without domain checks, for internal reuse (`erf` is built
/// on `P(1/2, x²)`). Valid for `a > 0`, `0 < x < a + 1.5`.
pub(crate) fn gamma_p_raw(a: f64, x: f64) -> f64 {
    gamma_p_series(a, x)
}

/// The Lentz continued-fraction factor `h` with
/// `Q(a, x) = e^{−x + a ln x − ln Γ(a)} · h`, exposed for callers that need
/// to attach a different prefactor (e.g. the scaled `erfcx`).
pub(crate) fn gamma_q_cf_factor(a: f64, x: f64) -> f64 {
    gamma_q_cf_h(a, x)
}

/// Lower series: `P(a,x) = prefactor * Σ_{n≥0} x^n / (a (a+1) ... (a+n))`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * prefactor(a, x)
}

/// Upper continued fraction (modified Lentz): yields `Q(a, x)`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    prefactor(a, x) * gamma_q_cf_h(a, x)
}

/// The continued-fraction factor of `Q(a, x)`, without the prefactor.
fn gamma_q_cf_h(a: f64, x: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized lower incomplete gamma function
/// `P(a, x) = γ(a, x) / Γ(a)`, the CDF of `Gamma(shape = a, scale = 1)`.
///
/// Requires `a > 0` and `x ≥ 0`; returns NaN otherwise.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    if !(a > 0.0) || !(x >= 0.0) {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x.is_infinite() {
        return 1.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`,
/// accurate in the right tail.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    if !(a > 0.0) || !(x >= 0.0) {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    if x.is_infinite() {
        return 0.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Inverse of [`gamma_p`] in `x`: returns the `x ≥ 0` with `P(a, x) = p`.
///
/// Wilson–Hilferty initial guess refined by safeguarded Newton iterations
/// (the derivative is the Gamma pdf). Used for Gamma quantiles and for
/// Gamma-law sampling by inversion. Requires `a > 0`, `p ∈ [0, 1]`.
pub fn inv_gamma_p(a: f64, p: f64) -> f64 {
    if !(a > 0.0) || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Wilson–Hilferty: x ≈ a (1 − 1/(9a) + z √(1/(9a)))³ with z = Φ⁻¹(p).
    let z = crate::normal::norm_quantile(p);
    let t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * a.sqrt());
    let mut x = if t > 0.0 { a * t * t * t } else { 0.0 };
    if x <= 0.0 || !x.is_finite() {
        // Small-a fallback: P(a,x) ≈ x^a / (a Γ(a+1)) for x → 0, inverted.
        x = (p * a * ln_gamma(a).exp()).powf(1.0 / a).max(1e-300);
    }

    // Safeguarded Newton with a bracketing interval.
    let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
    for _ in 0..80 {
        let f = gamma_p(a, x) - p;
        if f > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        if f.abs() < 1e-14 * p.min(1.0 - p).max(1e-12) {
            break;
        }
        // pdf = exp(-x + (a-1) ln x − lnΓ(a))
        let ln_pdf = -x + (a - 1.0) * x.ln() - ln_gamma(a);
        let step = f * (-ln_pdf).exp();
        let mut next = x - step;
        if !(next > lo) || !(next < hi) || !next.is_finite() {
            next = if hi.is_finite() {
                0.5 * (lo + hi)
            } else {
                (x * 2.0).max(lo + 1.0)
            };
        }
        if (next - x).abs() <= 1e-15 * x.abs() {
            x = next;
            break;
        }
        x = next;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed-form reference values:
    /// `P(1, x) = 1 − e^{−x}`, `P(2, x) = 1 − e^{−x}(1 + x)`,
    /// `P(3, x) = 1 − e^{−x}(1 + x + x²/2)`, `P(1/2, x) = erf(√x)`.
    const P_REFS: &[(f64, f64, f64)] = &[
        (1.0, 1.0, 0.6321205588285577),
        (1.0, 0.5, 0.3934693402873666),
        (2.0, 1.0, 0.2642411176571153),
        (0.5, 0.5, 0.6826894921370859), // erf(1/√2), the 1σ probability
        (0.5, 2.0, 0.9544997361036416), // erf(√2), the 2σ probability
        (3.0, 5.0, 0.8753479805169189),
    ];

    #[test]
    fn gamma_p_matches_reference() {
        for &(a, x, want) in P_REFS {
            let got = gamma_p(a, x);
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-12, "P({a},{x}) = {got}, want {want}, rel={rel}");
        }
    }

    /// For integer shape `n`, `Q(n, x) = e^{−x} Σ_{k=0}^{n−1} x^k/k!`
    /// (the Poisson–Gamma duality). Exact independent cross-check.
    #[test]
    fn integer_shape_poisson_identity() {
        for &n in &[1usize, 2, 5, 10, 25, 60] {
            for &x in &[0.5, 1.0, 5.0, 10.0, 30.0, 80.0] {
                let mut term = 1.0f64; // x^0/0!
                let mut sum = 1.0f64;
                for k in 1..n {
                    term *= x / k as f64;
                    sum += term;
                }
                let want = (-x).exp() * sum;
                let got = gamma_q(n as f64, x);
                let tol = 1e-12 * want.abs().max(1e-300);
                assert!(
                    (got - want).abs() < tol.max(1e-15),
                    "Q({n},{x}) = {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn p_plus_q_is_one() {
        for &(a, x) in &[(0.3, 0.1), (1.0, 2.0), (7.7, 3.3), (50.0, 60.0)] {
            let s = gamma_p(a, x) + gamma_q(a, x);
            assert!((s - 1.0).abs() < 1e-13, "a={a}, x={x}");
        }
    }

    #[test]
    fn q_right_tail_accuracy() {
        // Q(1, x) = e^{-x} exactly.
        for &x in &[5.0, 20.0, 100.0, 500.0] {
            let got = gamma_q(1.0, x);
            let want = (-x).exp();
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-12, "Q(1,{x}) = {got}, want {want}");
        }
    }

    #[test]
    fn exponential_cdf_special_case() {
        // P(1, x) = 1 - e^{-x}.
        for &x in &[0.01, 0.5, 1.0, 3.0, 10.0] {
            let got = gamma_p(1.0, x);
            let want = 1.0 - (-x).exp();
            assert!((got - want).abs() < 1e-14, "x={x}");
        }
    }

    #[test]
    fn monotone_in_x() {
        let a = 2.5;
        let mut prev = 0.0;
        for i in 1..100 {
            let x = 0.1 * i as f64;
            let p = gamma_p(a, x);
            assert!(p >= prev, "P not monotone at x={x}");
            prev = p;
        }
    }

    #[test]
    fn invalid_inputs_are_nan() {
        assert!(gamma_p(-1.0, 1.0).is_nan());
        assert!(gamma_p(0.0, 1.0).is_nan());
        assert!(gamma_p(1.0, -0.5).is_nan());
        assert!(gamma_q(-1.0, 1.0).is_nan());
        assert!(inv_gamma_p(0.0, 0.5).is_nan());
        assert!(inv_gamma_p(1.0, 1.5).is_nan());
    }

    #[test]
    fn boundaries() {
        assert_eq!(gamma_p(3.0, 0.0), 0.0);
        assert_eq!(gamma_q(3.0, 0.0), 1.0);
        assert_eq!(gamma_p(3.0, f64::INFINITY), 1.0);
        assert_eq!(inv_gamma_p(3.0, 0.0), 0.0);
        assert_eq!(inv_gamma_p(3.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn inverse_round_trip() {
        for &a in &[0.2, 0.5, 1.0, 2.0, 5.0, 17.0, 120.0] {
            for i in 1..20 {
                let p = i as f64 / 20.0;
                let x = inv_gamma_p(a, p);
                let back = gamma_p(a, x);
                assert!((back - p).abs() < 1e-10, "a={a}, p={p}, x={x}, back={back}");
            }
        }
    }

    #[test]
    fn inverse_round_trip_tails() {
        for &a in &[0.5, 3.0, 30.0] {
            for &p in &[1e-10, 1e-6, 1.0 - 1e-10] {
                let x = inv_gamma_p(a, p);
                let back = gamma_p(a, x);
                let denom = p.min(1.0 - p).max(1e-12);
                assert!(
                    ((back - p) / denom).abs() < 1e-6,
                    "a={a}, p={p}, x={x}, back={back}"
                );
            }
        }
    }
}
