//! Scalar root finding: [`bisect`], [`brent_root`] (and
//! [`brent_root_from`], for a bracket with known end values) and
//! [`newton_safeguarded`].
//!
//! Used for the first-order conditions of §3 (`dE[W(X)]/dX = 0` for
//! Normal/LogNormal checkpoint laws) and the dynamic-strategy threshold
//! `W_int` of §4.3 (the crossing of `E[W_C]` and `E[W_{+1}]`).

use crate::NumericsError;

/// Plain bisection on `[a, b]`; requires `f(a)` and `f(b)` of opposite
/// signs (zero endpoint values are returned immediately).
///
/// Converges unconditionally; `tol` is the absolute width of the final
/// interval.
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
) -> Result<f64, NumericsError> {
    let mut fa = f(a);
    if fa == 0.0 {
        return Ok(a);
    }
    let fb = f(b);
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() || fa.is_nan() || fb.is_nan() {
        return Err(NumericsError::NoBracket);
    }
    let mut iters = resq_obs::metrics::ROOT_ITERATIONS.tally();
    for _ in 0..200 {
        iters.inc();
        let m = 0.5 * (a + b);
        if (b - a).abs() <= tol || m == a || m == b {
            return Ok(m);
        }
        let fm = f(m);
        if fm == 0.0 {
            return Ok(m);
        }
        if fm.signum() == fa.signum() {
            a = m;
            fa = fm;
        } else {
            b = m;
        }
    }
    Err(NumericsError::NonConvergence {
        method: "bisect",
        iterations: 200,
    })
}

/// Brent's method (inverse quadratic interpolation + secant + bisection)
/// on `[a, b]`; requires a sign change. `tol` is the absolute x-tolerance.
///
/// The workhorse root finder: superlinear on smooth functions, never worse
/// than bisection. Evaluates both ends, then runs [`brent_root_from`].
pub fn brent_root<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
) -> Result<f64, NumericsError> {
    let (fa, fb) = (f(a), f(b));
    brent_root_from(f, (a, fa), (b, fb), tol)
}

/// [`brent_root`] on a bracket whose end values are already known,
/// `fa = f(a)` and `fb = f(b)`: a caller that evaluated both ends while
/// bracketing (a sign-change scan) hands them over instead of paying
/// for them twice.
pub fn brent_root_from<F: FnMut(f64) -> f64>(
    mut f: F,
    (mut a, mut fa): (f64, f64),
    (mut b, mut fb): (f64, f64),
    tol: f64,
) -> Result<f64, NumericsError> {
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() || fa.is_nan() || fb.is_nan() {
        return Err(NumericsError::NoBracket);
    }
    let _span = resq_obs::span::enter(resq_obs::span_name::BRENT);
    let (mut c, mut fc) = (a, fa);
    let mut d = b - a;
    let mut e = d;
    let mut iters = resq_obs::metrics::ROOT_ITERATIONS.tally();
    for _ in 0..200 {
        iters.inc();
        if fb.abs() > fc.abs() {
            // Ensure b is the best estimate.
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 2.0 * f64::EPSILON * b.abs() + 0.5 * tol;
        let xm = 0.5 * (c - b);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(b);
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            // Attempt inverse quadratic interpolation / secant.
            let s = fb / fa;
            let (mut p, mut q) = if a == c {
                (2.0 * xm * s, 1.0 - s)
            } else {
                let q = fa / fc;
                let r = fb / fc;
                (
                    s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0)),
                    (q - 1.0) * (r - 1.0) * (s - 1.0),
                )
            };
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            let min1 = 3.0 * xm * q - (tol1 * q).abs();
            let min2 = (e * q).abs();
            if 2.0 * p < min1.min(min2) {
                e = d;
                d = p / q;
            } else {
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        a = b;
        fa = fb;
        b += if d.abs() > tol1 { d } else { tol1.copysign(xm) };
        fb = f(b);
        if (fb > 0.0) == (fc > 0.0) {
            c = a;
            fc = fa;
            d = b - a;
            e = d;
        }
    }
    Err(NumericsError::NonConvergence {
        method: "brent",
        iterations: 200,
    })
}

/// Newton's method with a bisection safeguard inside `[lo, hi]`.
///
/// `fdf` returns `(f(x), f'(x))`. The bracket must contain a sign change;
/// steps leaving the bracket fall back to bisection, so convergence is
/// guaranteed. Useful when the derivative is available analytically (e.g.
/// the concave `E[W(X)]` optimality conditions).
pub fn newton_safeguarded<F: FnMut(f64) -> (f64, f64)>(
    mut fdf: F,
    lo: f64,
    hi: f64,
    tol: f64,
) -> Result<f64, NumericsError> {
    let (flo, _) = fdf(lo);
    if flo == 0.0 {
        return Ok(lo);
    }
    let (fhi, _) = fdf(hi);
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.signum() == fhi.signum() || flo.is_nan() || fhi.is_nan() {
        return Err(NumericsError::NoBracket);
    }
    // Orient so f(a) < 0 < f(b).
    let (mut a, mut b) = if flo < 0.0 { (lo, hi) } else { (hi, lo) };
    let mut x = 0.5 * (lo + hi);
    let mut iters = resq_obs::metrics::ROOT_ITERATIONS.tally();
    for _ in 0..100 {
        iters.inc();
        let (fx, dfx) = fdf(x);
        if fx == 0.0 {
            return Ok(x);
        }
        if fx < 0.0 {
            a = x;
        } else {
            b = x;
        }
        let newton = x - fx / dfx;
        let inside = if a < b {
            newton > a && newton < b
        } else {
            newton > b && newton < a
        };
        let next = if dfx != 0.0 && newton.is_finite() && inside {
            newton
        } else {
            0.5 * (a + b)
        };
        if (next - x).abs() <= tol {
            return Ok(next);
        }
        x = next;
    }
    Err(NumericsError::NonConvergence {
        method: "newton",
        iterations: 100,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-11);
    }

    #[test]
    fn bisect_rejects_non_bracket() {
        assert_eq!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12),
            Err(NumericsError::NoBracket)
        );
    }

    #[test]
    fn bisect_exact_endpoint() {
        assert_eq!(bisect(|x| x, 0.0, 5.0, 1e-12), Ok(0.0));
        assert_eq!(bisect(|x| x - 5.0, 0.0, 5.0, 1e-12), Ok(5.0));
    }

    #[test]
    fn brent_matches_known_roots() {
        type Case<'a> = (&'a dyn Fn(f64) -> f64, f64, f64, f64);
        let cases: &[Case] = &[
            (&|x: f64| x * x - 2.0, 0.0, 2.0, std::f64::consts::SQRT_2),
            (&|x: f64| x.cos() - x, 0.0, 1.0, 0.7390851332151607),
            (&|x: f64| x.exp() - 3.0, 0.0, 2.0, 3.0f64.ln()),
            (
                &|x: f64| x.powi(3) - 2.0 * x - 5.0,
                2.0,
                3.0,
                2.0945514815423265,
            ),
        ];
        for (f, a, b, want) in cases {
            let r = brent_root(f, *a, *b, 1e-14).unwrap();
            assert!((r - want).abs() < 1e-10, "root {r}, want {want}");
        }
    }

    #[test]
    fn brent_handles_flat_tails() {
        // Nearly flat away from the root: Brent still converges.
        let r = brent_root(|x: f64| (x - 3.0).tanh(), 0.0, 10.0, 1e-13).unwrap();
        assert!((r - 3.0).abs() < 1e-10);
    }

    #[test]
    fn brent_from_known_ends_skips_them_and_matches_brent() {
        let f = |x: f64| x.cos() - x;
        let mut probes = Vec::new();
        let r = brent_root_from(
            |x| {
                probes.push(x);
                f(x)
            },
            (0.0, f(0.0)),
            (1.0, f(1.0)),
            1e-14,
        )
        .unwrap();
        assert!(
            !probes.contains(&0.0) && !probes.contains(&1.0),
            "{probes:?}"
        );
        let both_ends = brent_root(f, 0.0, 1.0, 1e-14).unwrap();
        assert_eq!(r.to_bits(), both_ends.to_bits());
        assert_eq!(
            brent_root_from(f, (-1.0, 2.0), (1.0, 2.0), 1e-12),
            Err(NumericsError::NoBracket)
        );
    }

    #[test]
    fn brent_rejects_non_bracket() {
        assert!(brent_root(|x| x * x + 1.0, -1.0, 1.0, 1e-12).is_err());
    }

    #[test]
    fn newton_safeguarded_sqrt() {
        let r = newton_safeguarded(|x| (x * x - 7.0, 2.0 * x), 0.0, 7.0, 1e-14).unwrap();
        assert!((r - 7.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn newton_safeguarded_falls_back_on_bad_derivative() {
        // Derivative reported as zero everywhere -> pure bisection path.
        let r = newton_safeguarded(|x| (x - 2.5, 0.0), 0.0, 10.0, 1e-12).unwrap();
        assert!((r - 2.5).abs() < 1e-10);
    }

    #[test]
    fn newton_safeguarded_rejects_non_bracket() {
        assert!(newton_safeguarded(|x| (x * x + 1.0, 2.0 * x), -1.0, 1.0, 1e-12).is_err());
    }

    #[test]
    fn all_methods_agree() {
        let f = |x: f64| x.sin() - 0.5;
        let want = std::f64::consts::FRAC_PI_6;
        let b = bisect(f, 0.0, 1.0, 1e-13).unwrap();
        let br = brent_root(f, 0.0, 1.0, 1e-13).unwrap();
        let n = newton_safeguarded(|x| (x.sin() - 0.5, x.cos()), 0.0, 1.0, 1e-13).unwrap();
        for r in [b, br, n] {
            assert!((r - want).abs() < 1e-10, "{r} vs {want}");
        }
    }
}
