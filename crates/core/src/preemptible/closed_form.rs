//! Per-law optima of §3.2 — closed forms where the paper derives them,
//! first-order-condition roots elsewhere.
//!
//! Every function returns the optimal lead time `X_opt ∈ [a, min(b, R)]`
//! maximizing `E[W(X)]` for the corresponding truncated checkpoint law.
//! The generic [`super::Preemptible::optimize`] agrees with these (the
//! test-suite checks it); they exist because they are the paper's actual
//! results and because they are orders of magnitude cheaper.

use crate::error::CoreError;
use resq_specfun::{lambert_w0, norm_pdf};

fn validate(a: f64, b: f64, r: f64) -> Result<(), CoreError> {
    if !(r > 0.0) || !r.is_finite() {
        return Err(CoreError::InvalidReservation { r });
    }
    if !(a > 0.0) || !(a < b) || !(b <= r) {
        return Err(CoreError::CheckpointSupportOutOfRange { a, b, r });
    }
    Ok(())
}

/// §3.2.1 — Uniform law on `[a, b]`:
/// `X_opt = min((R + a)/2, b)`.
pub fn uniform_x_opt(a: f64, b: f64, r: f64) -> Result<f64, CoreError> {
    validate(a, b, r)?;
    Ok((0.5 * (r + a)).min(b))
}

/// §3.2.2 — Exponential(λ) truncated to `[a, b]`:
/// `X_opt = min((−W₀(e^{−λa + λR + 1}) + λR + 1)/λ, b)`
/// with `W₀` the principal Lambert branch.
///
/// For large `λ(R − a)` the W argument `e^{−λa+λR+1}` overflows `f64`;
/// the asymptotic `W₀(e^z) = z − ln z + ln z/z + …` is used there, keeping
/// the formula valid for any reservation scale.
pub fn exponential_x_opt(lambda: f64, a: f64, b: f64, r: f64) -> Result<f64, CoreError> {
    validate(a, b, r)?;
    if !(lambda > 0.0) || !lambda.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "lambda",
            value: lambda,
        });
    }
    let z = -lambda * a + lambda * r + 1.0;
    let w = if z < 700.0 {
        lambert_w0(z.exp())
    } else {
        // W0(e^z) for huge z: solve w + ln w = z asymptotically.
        let l1 = z;
        let l2 = z.ln();
        l1 - l2 + l2 / l1 + l2 * (l2 - 2.0) / (2.0 * l1 * l1)
    };
    let x = (-w + lambda * r + 1.0) / lambda;
    Ok(x.min(b))
}

/// §3.2.3 — Normal(μ, σ²) truncated to `[a, b]`.
///
/// No closed form: the optimum is the root `c ∈ (a, R)` of
/// `g'(X) = φ((X−μ)/σ)(R−X)/σ − [Φ((X−μ)/σ) − Φ((a−μ)/σ)]`,
/// clamped to `b` (`X_opt = min(c, b)`). The paper proves a root exists
/// and is a maximum; we find it with Brent.
pub fn normal_x_opt(mu: f64, sigma: f64, a: f64, b: f64, r: f64) -> Result<f64, CoreError> {
    validate(a, b, r)?;
    if !(sigma > 0.0) || !sigma.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "sigma",
            value: sigma,
        });
    }
    let phi_a = resq_specfun::norm_cdf((a - mu) / sigma);
    let gprime = |x: f64| {
        let z = (x - mu) / sigma;
        norm_pdf(z) * (r - x) / sigma - (resq_specfun::norm_cdf(z) - phi_a)
    };
    // g'(a) > 0 and g'(R) < 0 (paper, intermediate value theorem) — but
    // degenerate inputs (e.g. sigma so small the density underflows at
    // both endpoints) can defeat the bracket, so the failure is a typed
    // error rather than a panic.
    let c = resq_numerics::brent_root(gprime, a, r, 1e-12)?;
    Ok(c.min(b))
}

/// §3.2.4 — LogNormal(μ, σ) truncated to `[a, b]`.
///
/// Same structure as the Normal case with `ln` transforms:
/// root of `φ((ln X−μ)/σ)(R−X)/(σX) − [Φ((ln X−μ)/σ) − Φ((ln a−μ)/σ)]`.
pub fn lognormal_x_opt(mu: f64, sigma: f64, a: f64, b: f64, r: f64) -> Result<f64, CoreError> {
    validate(a, b, r)?;
    if !(sigma > 0.0) || !sigma.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "sigma",
            value: sigma,
        });
    }
    let phi_a = resq_specfun::norm_cdf((a.ln() - mu) / sigma);
    let gprime = |x: f64| {
        let z = (x.ln() - mu) / sigma;
        norm_pdf(z) * (r - x) / (sigma * x) - (resq_specfun::norm_cdf(z) - phi_a)
    };
    // Same IVT argument as the Normal case: g'(a) > 0, g'(R) < 0, with
    // the same typed-error escape hatch for degenerate inputs.
    let c = resq_numerics::brent_root(gprime, a, r, 1e-12)?;
    Ok(c.min(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preemptible::Preemptible;
    use resq_dist::{Exponential, LogNormal, Normal, Truncated, Uniform};

    #[test]
    fn uniform_both_paper_cases() {
        // Fig 1(a): a=1, b=7.5, R=10 → (R+a)/2 = 5.5 < b.
        assert_eq!(uniform_x_opt(1.0, 7.5, 10.0).unwrap(), 5.5);
        // Fig 1(b): a=1, b=5, R=10 → saturates at b.
        assert_eq!(uniform_x_opt(1.0, 5.0, 10.0).unwrap(), 5.0);
    }

    #[test]
    fn uniform_matches_generic_optimizer() {
        for &(a, b, r) in &[
            (1.0, 7.5, 10.0),
            (1.0, 5.0, 10.0),
            (0.5, 3.0, 4.0),
            (2.0, 9.0, 20.0),
        ] {
            let closed = uniform_x_opt(a, b, r).unwrap();
            let m = Preemptible::new(Uniform::new(a, b).unwrap(), r).unwrap();
            let numeric = m.optimize().lead_time;
            assert!(
                (closed - numeric).abs() < 1e-6,
                "a={a} b={b} r={r}: closed {closed} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn exponential_fig2a_interior() {
        // Fig 2(a): λ=1/2, a=1, b=5, R=10. Exact optimization of the
        // formula gives X_opt ≈ 3.82 (the paper's "≈3.9" is a plot read).
        let x = exponential_x_opt(0.5, 1.0, 5.0, 10.0).unwrap();
        assert!((x - 3.82).abs() < 0.02, "X_opt {x}");
        assert!(x < 5.0);
    }

    #[test]
    fn exponential_fig2b_saturates() {
        // Fig 2(b): λ=1/2, a=1, b=3, R=10 → X_opt = b = 3.
        let x = exponential_x_opt(0.5, 1.0, 3.0, 10.0).unwrap();
        assert_eq!(x, 3.0);
    }

    #[test]
    fn exponential_matches_generic_optimizer() {
        for &(lambda, a, b, r) in &[
            (0.5, 1.0, 5.0, 10.0),
            (0.5, 1.0, 3.0, 10.0),
            (2.0, 0.2, 2.0, 6.0),
            (0.1, 1.0, 9.0, 10.0),
        ] {
            let closed = exponential_x_opt(lambda, a, b, r).unwrap();
            let c = Truncated::new(Exponential::new(lambda).unwrap(), a, b).unwrap();
            let m = Preemptible::new(c, r).unwrap();
            let numeric = m.optimize().lead_time;
            assert!(
                (closed - numeric).abs() < 1e-5,
                "λ={lambda} a={a} b={b} r={r}: closed {closed} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn exponential_huge_scale_does_not_overflow() {
        // λ(R−a) ≈ 2000: e^z overflows, asymptotic branch takes over.
        let x = exponential_x_opt(2.0, 1.0, 999.0, 1000.0).unwrap();
        assert!(x.is_finite() && (1.0..=999.0).contains(&x), "X_opt {x}");
        // Compare with generic optimizer.
        let c = Truncated::new(Exponential::new(2.0).unwrap(), 1.0, 999.0).unwrap();
        let m = Preemptible::new(c, 1000.0).unwrap();
        let numeric = m.optimize();
        // Expected-work difference is what matters at this scale.
        assert!(
            (m.expected_work(x) - numeric.expected_work).abs() < 1e-6 * numeric.expected_work,
            "closed {} vs numeric {}",
            m.expected_work(x),
            numeric.expected_work
        );
    }

    #[test]
    fn normal_fig3a_interior() {
        // Fig 3(a): N(3.5, 1) on [1, 7.5], R = 10 → interior optimum.
        let x = normal_x_opt(3.5, 1.0, 1.0, 7.5, 10.0).unwrap();
        assert!(x > 1.0 && x < 7.5, "X_opt {x}");
        let c = Truncated::new(Normal::new(3.5, 1.0).unwrap(), 1.0, 7.5).unwrap();
        let m = Preemptible::new(c, 10.0).unwrap();
        let numeric = m.optimize().lead_time;
        assert!(
            (x - numeric).abs() < 1e-5,
            "closed {x} vs numeric {numeric}"
        );
    }

    #[test]
    fn normal_fig3b_saturates() {
        // Fig 3(b): N(3.5, 1) on [1, 4.7], R = 10 → X_opt = b.
        let x = normal_x_opt(3.5, 1.0, 1.0, 4.7, 10.0).unwrap();
        assert_eq!(x, 4.7);
    }

    #[test]
    fn lognormal_both_cases() {
        // Fig 4-style parameters: LogNormal(μ=1, σ=0.35) has mean ≈ 2.9.
        // Wide b → interior; tight b → saturated.
        let interior = lognormal_x_opt(1.0, 0.35, 1.0, 9.0, 10.0).unwrap();
        assert!(interior > 1.0 && interior < 9.0);
        let c = Truncated::new(LogNormal::new(1.0, 0.35).unwrap(), 1.0, 9.0).unwrap();
        let m = Preemptible::new(c, 10.0).unwrap();
        let numeric = m.optimize().lead_time;
        assert!(
            (interior - numeric).abs() < 1e-5,
            "closed {interior} vs numeric {numeric}"
        );

        let saturated = lognormal_x_opt(1.0, 0.35, 1.0, 3.0, 10.0).unwrap();
        assert_eq!(saturated, 3.0);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(uniform_x_opt(0.0, 5.0, 10.0).is_err());
        assert!(uniform_x_opt(1.0, 11.0, 10.0).is_err());
        assert!(exponential_x_opt(-1.0, 1.0, 5.0, 10.0).is_err());
        assert!(normal_x_opt(3.0, 0.0, 1.0, 5.0, 10.0).is_err());
        assert!(lognormal_x_opt(1.0, -0.5, 1.0, 5.0, 10.0).is_err());
        assert!(uniform_x_opt(1.0, 5.0, f64::NAN).is_err());
    }

    #[test]
    fn optimum_never_below_pessimistic_value() {
        // For a spread of parameters, E[W(X_opt)] ≥ E[W(b)].
        for &(a, b, r) in &[(1.0, 7.5, 10.0), (1.0, 5.0, 10.0), (0.3, 2.0, 3.0)] {
            let m = Preemptible::new(Uniform::new(a, b).unwrap(), r).unwrap();
            let x = uniform_x_opt(a, b, r).unwrap();
            assert!(m.expected_work(x) >= m.expected_work(b) - 1e-12);
        }
    }
}
