//! Cross-validation between the two independent numerical stacks:
//! quadrature (`resq-numerics`) vs closed-form special functions
//! (`resq-specfun`). Agreement here means an error in either would have
//! to be matched by a compensating error in the other — strong evidence
//! both are right.

use resq_numerics::{adaptive_simpson, integrate_to_inf, GaussLegendre};
use resq_specfun::*;

const SQRT_PI: f64 = 1.772_453_850_905_516;

#[test]
fn erf_equals_integral_of_gaussian() {
    // erf(x) = 2/√π ∫_0^x e^{−t²} dt, checked across the range.
    for &x in &[0.1, 0.5, 0.84375, 1.0, 1.5, 2.0, 3.0, 4.5] {
        let quad = adaptive_simpson(|t| (-t * t).exp(), 0.0, x, 1e-13).value * 2.0 / SQRT_PI;
        let cf = erf(x);
        assert!(
            (quad - cf).abs() < 1e-11,
            "x={x}: quadrature {quad} vs erf {cf}"
        );
    }
}

#[test]
fn erfc_equals_tail_integral() {
    // erfc(x) = 2/√π ∫_x^∞ e^{−t²} dt — semi-infinite transform path.
    for &x in &[0.5, 1.0, 2.0, 3.0] {
        let quad = integrate_to_inf(|t| (-t * t).exp(), x, 1e-14).value * 2.0 / SQRT_PI;
        let cf = erfc(x);
        assert!(
            ((quad - cf) / cf).abs() < 1e-7,
            "x={x}: quadrature {quad} vs erfc {cf}"
        );
    }
}

#[test]
fn gamma_function_equals_eulers_integral() {
    // Γ(z) = ∫_0^∞ t^{z−1} e^{−t} dt for a spread of z.
    for &z in &[1.5, 2.0, 3.3, 5.0, 7.7] {
        let quad = integrate_to_inf(|t| t.powf(z - 1.0) * (-t).exp(), 1e-12, 1e-12).value;
        let cf = gamma(z);
        assert!(
            ((quad - cf) / cf).abs() < 1e-8,
            "z={z}: quadrature {quad} vs Γ {cf}"
        );
    }
}

#[test]
fn incomplete_gamma_equals_partial_integral() {
    // P(a, x)·Γ(a) = ∫_0^x t^{a−1} e^{−t} dt.
    for &(a, x) in &[(2.0, 1.0), (3.5, 2.0), (5.0, 8.0), (1.0, 0.5)] {
        let quad = adaptive_simpson(|t| t.powf(a - 1.0) * (-t).exp(), 0.0, x, 1e-13).value;
        let cf = gamma_p(a, x) * gamma(a);
        assert!(
            ((quad - cf) / cf).abs() < 1e-9,
            "a={a}, x={x}: quadrature {quad} vs P·Γ {cf}"
        );
    }
}

#[test]
fn incomplete_beta_equals_partial_integral() {
    // I_x(a,b)·B(a,b) = ∫_0^x t^{a−1}(1−t)^{b−1} dt (a, b ≥ 1 to keep the
    // integrand bounded for plain Simpson).
    for &(a, b, x) in &[(2.0, 3.0, 0.4), (1.5, 1.5, 0.7), (4.0, 2.0, 0.25)] {
        let quad =
            adaptive_simpson(|t| t.powf(a - 1.0) * (1.0 - t).powf(b - 1.0), 0.0, x, 1e-13).value;
        let cf = inc_beta(a, b, x) * ln_beta(a, b).exp();
        assert!(
            ((quad - cf) / cf).abs() < 1e-9,
            "a={a}, b={b}, x={x}: quadrature {quad} vs I·B {cf}"
        );
    }
}

#[test]
fn norm_cdf_equals_density_integral() {
    // Φ(x) − Φ(a) = ∫_a^x φ(t) dt with both Simpson and Gauss–Legendre.
    let gl = GaussLegendre::new(48);
    for &(a, x) in &[(-3.0, 1.0), (-1.0, 2.5), (0.0, 0.5), (-6.0, 6.0)] {
        let want = norm_cdf(x) - norm_cdf(a);
        let simpson = adaptive_simpson(norm_pdf, a, x, 1e-13).value;
        let gauss = gl.integrate(norm_pdf, a, x);
        assert!((simpson - want).abs() < 1e-11, "simpson [{a},{x}]");
        assert!((gauss - want).abs() < 1e-11, "gauss [{a},{x}]");
    }
}

#[test]
fn lambert_w_inverts_x_exp_x_found_by_root_finding() {
    // Solve t e^t = z by Brent and compare with W0.
    for &z in &[0.1, 1.0, 10.0, 100.0, 1e4] {
        let root = resq_numerics::brent_root(|t| t * t.exp() - z, 0.0, 20.0, 1e-14).unwrap();
        let w = lambert_w0(z);
        assert!((root - w).abs() < 1e-9, "z={z}: brent {root} vs W0 {w}");
    }
}

#[test]
fn normal_quantile_agrees_with_brent_inversion() {
    for &p in &[0.01, 0.1, 0.3, 0.5, 0.9, 0.999] {
        let root = resq_numerics::brent_root(|x| norm_cdf(x) - p, -10.0, 10.0, 1e-14).unwrap();
        let q = norm_quantile(p);
        assert!((root - q).abs() < 1e-9, "p={p}: brent {root} vs Φ⁻¹ {q}");
    }
}

#[test]
fn optimizer_matches_calculus_on_expected_work_objective() {
    // max (x−a)(R−x)/(b−a) over [a,b]: calculus says (R+a)/2; Brent agrees;
    // and the derivative root-finder agrees too.
    let (a, b, r) = (1.0, 7.5, 10.0);
    let obj = |x: f64| (x - a) * (r - x) / (b - a);
    let max = resq_numerics::brent_max(obj, a, b, 1e-12);
    assert!((max.x - 0.5 * (r + a)).abs() < 1e-7);
    let droot = resq_numerics::brent_root(|x| (r - x) - (x - a), a, b, 1e-14).unwrap();
    assert!((droot - max.x).abs() < 1e-7);
}

#[test]
fn poisson_tail_gamma_duality_via_quadrature() {
    // Σ_{k≤n} e^{−λ} λ^k/k! = Q(n+1, λ) = 1 − ∫_0^λ t^n e^{−t} dt / n!.
    let (n, lam) = (6u64, 3.0f64);
    let mut sum = 0.0;
    for k in 0..=n {
        sum += (-lam + k as f64 * lam.ln() - ln_factorial(k)).exp();
    }
    let integral = adaptive_simpson(|t| t.powi(n as i32) * (-t).exp(), 0.0, lam, 1e-13).value;
    let via_quad = 1.0 - integral / factorial(n);
    assert!(
        (sum - via_quad).abs() < 1e-12,
        "sum {sum} vs quadrature {via_quad}"
    );
    assert!((sum - gamma_q(n as f64 + 1.0, lam)).abs() < 1e-12);
}
