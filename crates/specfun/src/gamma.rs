//! Gamma function family: [`ln_gamma`], [`gamma`], [`digamma`],
//! [`trigamma`].
//!
//! `ln_gamma` uses the Lanczos approximation (g = 7, 9 coefficients),
//! accurate to ~1e-13 relative over the positive reals; the reflection
//! formula extends it to negative non-integer arguments. `digamma` and
//! `trigamma` (needed for Gamma-law maximum-likelihood fitting in
//! `resq-dist`) use upward recurrence into the asymptotic regime.

use std::f64::consts::PI;

const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the absolute value of the Gamma function, `ln|Γ(x)|`.
///
/// Defined for all `x` except non-positive integers (returns `inf` there,
/// matching the pole). `ln_gamma(NaN) = NaN`.
pub fn ln_gamma(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 && x == x.floor() {
        return f64::INFINITY; // pole
    }
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx).
        let s = (PI * x).sin().abs();
        return PI.ln() - s.ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    crate::LN_SQRT_2PI + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The Gamma function `Γ(x)`.
///
/// Computed via `exp(ln_gamma)` with sign handling from the reflection
/// formula. Overflows to `inf` for `x ≳ 171.6`.
pub fn gamma(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 && x == x.floor() {
        return f64::NAN; // poles at 0, -1, -2, ...
    }
    if x < 0.5 {
        // Sign of Γ(x) for negative x alternates between integer intervals.
        return PI / ((PI * x).sin() * gamma(1.0 - x));
    }
    ln_gamma(x).exp()
}

/// The digamma function `ψ(x) = d/dx ln Γ(x)`.
///
/// Uses the recurrence `ψ(x) = ψ(x+1) − 1/x` to shift into `x ≥ 6`, then
/// the asymptotic expansion. Reflection handles negative non-integers.
pub fn digamma(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 && x == x.floor() {
        return f64::NAN;
    }
    if x < 0.0 {
        // ψ(1-x) - ψ(x) = π cot(πx)
        return digamma(1.0 - x) - PI / (PI * x).tan();
    }
    let mut x = x;
    let mut acc = 0.0;
    while x < 12.0 {
        acc -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic: ψ(x) ~ ln x − 1/(2x) − Σ B_{2k}/(2k x^{2k}).
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    acc + x.ln()
        - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
}

/// The trigamma function `ψ'(x)`, the derivative of [`digamma`].
pub fn trigamma(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 && x == x.floor() {
        return f64::NAN;
    }
    if x < 0.0 {
        // ψ'(1-x) + ψ'(x) = π² / sin²(πx)
        let s = (PI * x).sin();
        return PI * PI / (s * s) - trigamma(1.0 - x);
    }
    let mut x = x;
    let mut acc = 0.0;
    while x < 12.0 {
        acc += 1.0 / (x * x);
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    acc + inv
        * (1.0
            + 0.5 * inv
            + inv2 * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0))))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LN_GAMMA_REFS: &[(f64, f64)] = &[
        (0.5, 0.5723649429247001), // ln sqrt(pi)
        (1.0, 0.0),
        (1.5, -0.12078223763524522),
        (2.0, 0.0),
        (3.0, std::f64::consts::LN_2), // ln Γ(3) = ln 2
        (10.0, 12.801827480081469),
        (100.0, 359.1342053695754),
        (0.1, 2.252712651734206),
        (1e-3, 6.907178885383853),
    ];

    #[test]
    fn ln_gamma_matches_reference() {
        for &(x, want) in LN_GAMMA_REFS {
            let got = ln_gamma(x);
            let tol = 1e-12 * want.abs().max(1.0);
            assert!(
                (got - want).abs() < tol,
                "ln_gamma({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn gamma_integers_are_factorials() {
        let mut fact = 1.0;
        for n in 1..20 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            let got = gamma(n as f64);
            assert!(
                ((got - fact) / fact).abs() < 1e-12,
                "Gamma({n}) = {got}, want {fact}"
            );
        }
    }

    #[test]
    fn gamma_half() {
        assert!((gamma(0.5) - PI.sqrt()).abs() < 1e-13);
        // Γ(-0.5) = -2√π
        assert!((gamma(-0.5) + 2.0 * PI.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn gamma_recurrence() {
        for &x in &[0.3, 1.7, 4.2, 9.9, 33.3] {
            let lhs = gamma(x + 1.0);
            let rhs = x * gamma(x);
            assert!(((lhs - rhs) / rhs).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn gamma_poles() {
        assert!(gamma(0.0).is_nan());
        assert!(gamma(-3.0).is_nan());
        assert_eq!(ln_gamma(0.0), f64::INFINITY);
        assert_eq!(ln_gamma(-2.0), f64::INFINITY);
    }

    const DIGAMMA_REFS: &[(f64, f64)] = &[
        (1.0, -0.5772156649015329), // -EulerGamma
        (2.0, 0.42278433509846713),
        (0.5, -1.9635100260214235),
        (10.0, 2.251752589066721),
        (100.0, 4.600161852738087),
        (0.1, -10.423754940411076),
    ];

    #[test]
    fn digamma_matches_reference() {
        for &(x, want) in DIGAMMA_REFS {
            let got = digamma(x);
            assert!(
                (got - want).abs() < 1e-11 * want.abs().max(1.0),
                "digamma({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn digamma_recurrence() {
        for &x in &[0.2, 1.3, 5.5, 40.0] {
            let lhs = digamma(x + 1.0);
            let rhs = digamma(x) + 1.0 / x;
            assert!((lhs - rhs).abs() < 1e-11 * rhs.abs().max(1.0), "x={x}");
        }
    }

    #[test]
    fn digamma_negative_reflection() {
        // ψ(-0.5) = 2 - γ - 2 ln 2 ≈ 0.03648997397857652
        let got = digamma(-0.5);
        assert!((got - 0.03648997397857652).abs() < 1e-10, "got {got}");
    }

    const TRIGAMMA_REFS: &[(f64, f64)] = &[
        (1.0, 1.6449340668482264), // pi^2/6
        (0.5, 4.934802200544679),  // pi^2/2
        (2.0, 0.6449340668482264),
        (10.0, 0.10516633568168575),
    ];

    #[test]
    fn trigamma_matches_reference() {
        for &(x, want) in TRIGAMMA_REFS {
            let got = trigamma(x);
            assert!(
                ((got - want) / want).abs() < 1e-11,
                "trigamma({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn trigamma_recurrence() {
        for &x in &[0.7, 2.2, 8.8] {
            let lhs = trigamma(x + 1.0);
            let rhs = trigamma(x) - 1.0 / (x * x);
            assert!(((lhs - rhs) / rhs).abs() < 1e-10, "x={x}");
        }
    }

    #[test]
    fn digamma_is_lngamma_derivative() {
        // Central finite difference of ln_gamma vs digamma.
        for &x in &[0.8, 2.5, 7.0, 55.0] {
            let h = 1e-6 * x;
            let fd = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h);
            assert!(
                (fd - digamma(x)).abs() < 1e-6 * digamma(x).abs().max(1.0),
                "x={x}"
            );
        }
    }
}
