//! Scalar optimization: Brent minimization ([`brent_min`]/[`brent_max`]),
//! grid-refined global maximization ([`grid_max`], and
//! [`grid_max_bracketed`] where the objective has cheap bounds) and
//! integer argmax ([`integer_argmax`]).
//!
//! The paper's optima are mostly maxima of smooth concave (or at least
//! unimodal) objectives — `E[W(X)]` over `X ∈ [a, R]`, the continuous
//! relaxations `f(y)`, `g(y)`, `h(y)` of `E(n)` over `y > 0`. [`grid_max`]
//! does a coarse scan first, so no unimodality assumption is required;
//! [`integer_argmax`] then settles `n_opt = ⌊y⌋` vs `⌈y⌉` exactly as the
//! paper prescribes.

/// Result of a scalar optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extremum {
    /// Location of the extremum.
    pub x: f64,
    /// Objective value at `x`.
    pub value: f64,
}

const GOLDEN: f64 = 0.381_966_011_250_105_1; // (3 - sqrt(5)) / 2

/// Brent's parabolic-interpolation minimizer on `[a, b]`.
///
/// Finds a local minimum of `f`; for unimodal `f` this is the global
/// minimum on the interval. `xtol` is the absolute x-tolerance.
pub fn brent_min<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, xtol: f64) -> Extremum {
    let _span = resq_obs::span::enter(resq_obs::span_name::BRENT);
    let (mut a, mut b) = if a <= b { (a, b) } else { (b, a) };
    let mut x = a + GOLDEN * (b - a);
    let mut w = x;
    let mut v = x;
    let mut fx = f(x);
    let mut fw = fx;
    let mut fv = fx;
    let mut d: f64 = 0.0;
    let mut e: f64 = 0.0;
    let mut iters = resq_obs::metrics::OPTIMIZER_ITERATIONS.tally();
    for _ in 0..200 {
        iters.inc();
        let m = 0.5 * (a + b);
        let tol1 = xtol.max(1e-15) + f64::EPSILON * x.abs();
        let tol2 = 2.0 * tol1;
        if (x - m).abs() <= tol2 - 0.5 * (b - a) {
            break;
        }
        let mut use_golden = true;
        if e.abs() > tol1 {
            // Fit a parabola through (v, fv), (w, fw), (x, fx).
            let r = (x - w) * (fx - fv);
            let q2 = (x - v) * (fx - fw);
            let mut p = (x - v) * q2 - (x - w) * r;
            let mut q = 2.0 * (q2 - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let etemp = e;
            e = d;
            if p.abs() < (0.5 * q * etemp).abs() && p > q * (a - x) && p < q * (b - x) {
                // Accept the parabolic step.
                d = p / q;
                let u = x + d;
                if u - a < tol2 || b - u < tol2 {
                    d = tol1.copysign(m - x);
                }
                use_golden = false;
            }
        }
        if use_golden {
            e = if x < m { b - x } else { a - x };
            d = GOLDEN * e;
        }
        let u = if d.abs() >= tol1 {
            x + d
        } else {
            x + tol1.copysign(d)
        };
        let fu = f(u);
        if fu <= fx {
            if u < x {
                b = x;
            } else {
                a = x;
            }
            v = w;
            fv = fw;
            w = x;
            fw = fx;
            x = u;
            fx = fu;
        } else {
            if u < x {
                a = u;
            } else {
                b = u;
            }
            if fu <= fw || w == x {
                v = w;
                fv = fw;
                w = u;
                fw = fu;
            } else if fu <= fv || v == x || v == w {
                v = u;
                fv = fu;
            }
        }
    }
    Extremum { x, value: fx }
}

/// Brent maximization: [`brent_min`] on `-f`.
pub fn brent_max<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, xtol: f64) -> Extremum {
    let m = brent_min(|x| -f(x), a, b, xtol);
    Extremum {
        x: m.x,
        value: -m.value,
    }
}

/// Configuration for [`grid_max`].
#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    /// Number of coarse grid points (≥ 3).
    pub points: usize,
    /// x-tolerance of the Brent refinement.
    pub xtol: f64,
}

impl Default for GridSpec {
    fn default() -> Self {
        Self {
            points: 256,
            xtol: 1e-10,
        }
    }
}

/// Global maximization on `[a, b]`: coarse scan over `spec.points` evenly
/// spaced samples, then Brent refinement in the best bracketing cell pair.
///
/// Robust against multimodality at the grid resolution; the endpoints are
/// always candidates (the paper's `X_opt = b` saturation case lands
/// exactly on an endpoint). This is [`grid_max_bracketed`] with no
/// bracket: every grid point is evaluated.
pub fn grid_max<F: FnMut(f64) -> f64>(f: F, a: f64, b: f64, spec: GridSpec) -> Extremum {
    grid_max_bracketed(f, |_, _| (f64::NEG_INFINITY, f64::INFINITY), a, b, spec)
}

/// [`grid_max`] that evaluates `f` only at grid points that can win.
///
/// `bounds(x, bar)` brackets the objective: `lower ≤ f(x) ≤ upper`. Every
/// grid point's bracket is computed first, every 16th grid point's
/// before the rest, and the largest `lower` is the bar: the maximum is
/// at least that. `bounds` is handed the bar so far, so it can stop
/// tightening a bracket once its `upper` is below that: such a point is
/// skipped whatever its bracket, and its `lower` cannot raise the bar.
/// The coarse points come first so the bar is high before most brackets
/// are computed. Grid points are then visited in order of decreasing
/// `upper`, and `f` is evaluated until the next `upper` falls below the
/// bar or the best value evaluated so far; no point from there on can
/// reach it. If the best evaluated value ends below the bar (a NaN
/// where a bound promised a value, or a violated lower bound), the
/// skipped points are evaluated as well.
///
/// With valid upper bounds the result is bit-identical to the full scan:
/// a skipped point's value lies strictly below the best, so the best
/// grid point (the first on ties) and the Brent refinement around it are
/// the same. If `bounds` loosens a bracket only where its loose `upper`
/// is below the bar it is handed, the final bar, the evaluated points
/// and the result do not depend on the order the brackets are computed
/// in. A NaN bound counts as open. The `OPTIMIZER_ITERATIONS` counter
/// counts the grid points actually evaluated.
pub fn grid_max_bracketed<F, B>(f: F, bounds: B, a: f64, b: f64, spec: GridSpec) -> Extremum
where
    F: FnMut(f64) -> f64,
    B: FnMut(f64, f64) -> (f64, f64),
{
    let order = bar_first(spec.points.max(3));
    let (e, evaluated) = grid_max_bracketed_in(f, bounds, a, b, spec, order);
    resq_obs::metrics::OPTIMIZER_ITERATIONS.add(evaluated as u64);
    e
}

/// The order [`grid_max_bracketed`] computes brackets in over `n` grid
/// points: every 16th point, then the rest, each in grid order.
fn bar_first(n: usize) -> impl Iterator<Item = usize> {
    const STRIDE: usize = 16;
    (0..n)
        .step_by(STRIDE)
        .chain((0..n).filter(|i| i % STRIDE != 0))
}

/// [`grid_max_bracketed`] with the brackets computed in `order`, a
/// permutation of the grid's indices; also returns how many grid points
/// it evaluated.
fn grid_max_bracketed_in<F, B>(
    mut f: F,
    mut bounds: B,
    a: f64,
    b: f64,
    spec: GridSpec,
    order: impl Iterator<Item = usize>,
) -> (Extremum, usize)
where
    F: FnMut(f64) -> f64,
    B: FnMut(f64, f64) -> (f64, f64),
{
    assert!(a <= b, "invalid interval [{a}, {b}]");
    let n = spec.points.max(3);
    if a == b {
        let value = f(a);
        return (Extremum { x: a, value }, 0);
    }
    let xs = crate::linspace(a, b, n);
    let mut bar = f64::NEG_INFINITY;
    let mut uppers = vec![f64::INFINITY; n];
    for i in order {
        let (lower, upper) = bounds(xs[i], bar);
        if lower > bar {
            bar = lower;
        }
        if !upper.is_nan() {
            uppers[i] = upper;
        }
    }
    // Best-first: a stable sort keeps grid order among equal bounds.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| uppers[j].total_cmp(&uppers[i]));
    let mut fs = vec![f64::NEG_INFINITY; n];
    let mut eval = |i: usize| {
        let v = f(xs[i]);
        fs[i] = if v.is_nan() { f64::NEG_INFINITY } else { v };
        fs[i]
    };
    let mut best_v = f64::NEG_INFINITY;
    let mut evaluated = 0;
    for &i in &order {
        if uppers[i] < bar.max(best_v) {
            break;
        }
        best_v = best_v.max(eval(i));
        evaluated += 1;
    }
    if best_v < bar {
        for &i in &order[evaluated..] {
            eval(i);
        }
        evaluated = n;
    }
    let mut best_i = 0usize;
    best_v = f64::NEG_INFINITY;
    for (i, &v) in fs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best_i = i;
        }
    }
    // Refine inside the two cells adjacent to the best sample.
    let lo = xs[best_i.saturating_sub(1)];
    let hi = xs[(best_i + 1).min(n - 1)];
    let refined = brent_max(&mut f, lo, hi, spec.xtol);
    let e = if refined.value >= best_v {
        refined
    } else {
        Extremum {
            x: xs[best_i],
            value: best_v,
        }
    };
    (e, evaluated)
}

/// Picks the integer in `[lo, hi]` maximizing `f`, as the paper does for
/// `n_opt` (continuous relaxation optimum rounded to the better of
/// `⌊y⌋`/`⌈y⌉` — except here we scan all integers, which is exact and
/// cheap for reservation-scale `n`).
///
/// Returns `(n, f(n))`. Panics if `lo > hi`.
pub fn integer_argmax<F: FnMut(u64) -> f64>(mut f: F, lo: u64, hi: u64) -> (u64, f64) {
    assert!(lo <= hi, "empty integer range [{lo}, {hi}]");
    let mut best_n = lo;
    let mut best_v = f64::NEG_INFINITY;
    for n in lo..=hi {
        let v = f(n);
        if v > best_v {
            best_v = v;
            best_n = n;
        }
    }
    resq_obs::metrics::OPTIMIZER_ITERATIONS.add(hi - lo + 1);
    (best_n, best_v)
}

/// Rounds a continuous-relaxation optimum `y` to the better of `⌊y⌋`/`⌈y⌉`
/// under `f`, clamped into `[lo, hi]` — the paper's exact prescription for
/// converting `y_opt` into `n_opt` (§4.2).
pub fn round_to_better_integer<F: FnMut(u64) -> f64>(
    mut f: F,
    y: f64,
    lo: u64,
    hi: u64,
) -> (u64, f64) {
    let fl = (y.floor().max(lo as f64) as u64).clamp(lo, hi);
    let ce = (y.ceil().max(lo as f64) as u64).clamp(lo, hi);
    let vf = f(fl);
    if fl == ce {
        return (fl, vf);
    }
    let vc = f(ce);
    if vf >= vc {
        (fl, vf)
    } else {
        (ce, vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_min_parabola() {
        let r = brent_min(|x| (x - 1.7) * (x - 1.7) + 0.25, -10.0, 10.0, 1e-12);
        assert!((r.x - 1.7).abs() < 1e-8, "x = {}", r.x);
        assert!((r.value - 0.25).abs() < 1e-12);
    }

    #[test]
    fn brent_max_concave() {
        // The paper's Uniform-law objective (x-a)(R-x): max at (R+a)/2.
        let (a, r) = (1.0, 10.0);
        let e = brent_max(|x| (x - a) * (r - x), a, r, 1e-12);
        assert!((e.x - 5.5).abs() < 1e-8, "x = {}", e.x);
        assert!((e.value - 4.5 * 4.5).abs() < 1e-10);
    }

    #[test]
    fn brent_min_transcendental() {
        // min of x - ln x at x = 1.
        let e = brent_min(|x: f64| x - x.ln(), 0.1, 5.0, 1e-12);
        assert!((e.x - 1.0).abs() < 1e-7);
        assert!((e.value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn brent_handles_boundary_minimum() {
        // Monotone increasing: minimum at left endpoint.
        let e = brent_min(|x| x, 2.0, 5.0, 1e-12);
        assert!(e.x - 2.0 < 1e-6, "x = {}", e.x);
        assert!(e.value - 2.0 < 1e-6);
    }

    #[test]
    fn grid_max_finds_global_among_local_optima() {
        // Two humps: global at x ≈ 4, local at x ≈ 1.
        let f = |x: f64| {
            (-(x - 1.0) * (x - 1.0) / 0.1).exp() + 2.0 * (-(x - 4.0) * (x - 4.0) / 0.1).exp()
        };
        let e = grid_max(f, 0.0, 6.0, GridSpec::default());
        assert!((e.x - 4.0).abs() < 1e-6, "x = {}", e.x);
        assert!((e.value - 2.0).abs() < 1e-8);
    }

    #[test]
    fn grid_max_endpoint_maximum() {
        // Decreasing on the whole interval: max at left endpoint.
        let e = grid_max(|x| -x, 1.0, 7.5, GridSpec::default());
        assert!((e.x - 1.0).abs() < 1e-8);
        // Increasing: max at right endpoint (the X_opt = b saturation case).
        let e = grid_max(|x| x, 1.0, 7.5, GridSpec::default());
        assert!((e.x - 7.5).abs() < 1e-8);
    }

    #[test]
    fn grid_max_degenerate_interval() {
        let e = grid_max(|x| x * x, 3.0, 3.0, GridSpec::default());
        assert_eq!(e.x, 3.0);
        assert_eq!(e.value, 9.0);
    }

    /// Runs [`grid_max_bracketed`] and counts the objective's calls.
    fn bracketed_counting(
        f: impl Fn(f64) -> f64,
        bounds: impl FnMut(f64, f64) -> (f64, f64),
        a: f64,
        b: f64,
    ) -> (Extremum, usize) {
        let mut calls = 0;
        let e = grid_max_bracketed(
            |x| {
                calls += 1;
                f(x)
            },
            bounds,
            a,
            b,
            GridSpec::default(),
        );
        (e, calls)
    }

    fn bits(e: Extremum) -> (u64, u64) {
        (e.x.to_bits(), e.value.to_bits())
    }

    #[test]
    fn bracketed_search_equals_the_full_grid() {
        // Three humps of near-equal height on a sloped floor, bracketed
        // with uneven slack on both sides.
        let f = |x: f64| {
            (-(x - 1.0) * (x - 1.0) / 0.05).exp()
                + 1.02 * (-(x - 3.3) * (x - 3.3) / 0.02).exp()
                + 0.98 * (-(x - 5.2) * (x - 5.2) / 0.1).exp()
                + 0.01 * x
        };
        let slack = |x: f64| 0.05 * (1.0 + (7.0 * x).sin().abs());
        let full = grid_max(f, 0.0, 6.0, GridSpec::default());
        for (name, scale) in [("tight", 0.0), ("loose", 1.0), ("very loose", 10.0)] {
            let bounds = |x: f64| (f(x) - scale * slack(x), f(x) + scale * slack(x));
            let (e, calls) = bracketed_counting(f, |x, _| bounds(x), 0.0, 6.0);
            assert_eq!(bits(e), bits(full), "{name}");
            if scale <= 1.0 {
                assert!(calls < 128, "{name}: {calls} calls");
            }
            // A bracket that stays loose wherever its loose upper bound
            // is already below the bar evaluates the same points.
            let lazy = |x: f64, bar: f64| {
                let loose = (f(x) - 2.0, f(x) + 2.0);
                if loose.1 < bar {
                    loose
                } else {
                    bounds(x)
                }
            };
            let (lazy_e, lazy_calls) = bracketed_counting(f, lazy, 0.0, 6.0);
            assert_eq!((bits(lazy_e), lazy_calls), (bits(e), calls), "{name}");
        }
        // An always-open bracket evaluates every grid point.
        let open = |_: f64, _: f64| (f64::NEG_INFINITY, f64::INFINITY);
        let (e, calls) = bracketed_counting(f, open, 0.0, 6.0);
        assert_eq!(bits(e), bits(full));
        assert!(calls >= 256, "{calls} calls");
    }

    #[test]
    fn bar_first_order_matches_grid_order() {
        // Brackets that stay loose wherever their loose upper bound is
        // already below the bar they are handed. Computed in grid order
        // or bar-first, they leave the same bar, so the search evaluates
        // the same points, counts the same iterations and returns the
        // same bits; bar-first leaves more of them loose.
        let f = |x: f64| {
            (-(x - 1.0) * (x - 1.0) / 0.05).exp()
                + 1.02 * (-(x - 3.3) * (x - 3.3) / 0.02).exp()
                + 0.98 * (-(x - 5.2) * (x - 5.2) / 0.1).exp()
                + 0.01 * x
        };
        let tight = |x: f64| 0.05 * (1.0 + (7.0 * x).sin().abs());
        let n = GridSpec::default().points;
        let run = |order: Vec<usize>| {
            let mut evaluated = Vec::new();
            let mut loose = 0;
            let (e, count) = grid_max_bracketed_in(
                |x| {
                    evaluated.push(x.to_bits());
                    f(x)
                },
                |x, bar| {
                    if f(x) + 0.3 < bar {
                        loose += 1;
                        (f(x) - 0.3, f(x) + 0.3)
                    } else {
                        (f(x) - tight(x), f(x) + tight(x))
                    }
                },
                0.0,
                6.0,
                GridSpec::default(),
                order.into_iter(),
            );
            evaluated.sort_unstable();
            ((bits(e), evaluated, count), loose)
        };
        let (in_grid_order, loose_in_grid_order) = run((0..n).collect());
        let (in_bar_first, loose_bar_first) = run(bar_first(n).collect());
        assert_eq!(in_bar_first, in_grid_order);
        assert!(
            loose_bar_first > loose_in_grid_order,
            "{loose_bar_first} vs {loose_in_grid_order}"
        );
        let mut order: Vec<usize> = bar_first(n).collect();
        order.sort_unstable();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn bracketed_search_keeps_the_first_of_tied_grid_points() {
        // A flat top: grid points from x = 2 to x = 3 all reach exactly
        // 1.0, and the full scan refines around the first of them.
        let f = |x: f64| {
            if (2.0..=3.0).contains(&x) {
                1.0
            } else {
                0.5 - 0.01 * x
            }
        };
        let full = grid_max(f, 0.0, 6.0, GridSpec::default());
        // Exact brackets, where later tied points are skipped only if
        // the search wrongly treated "not above the best" as "below".
        let (e, _) = bracketed_counting(f, |x, _| (f(x), f(x)), 0.0, 6.0);
        assert_eq!(bits(e), bits(full));
        // Brackets that rank the later tied points first: the first one's
        // upper bound only equals the best value by then, which is not
        // below it, so it is still evaluated and still wins.
        let bounds = |x: f64, _| (f(x), f(x) + 0.1 * (x - 2.0).max(0.0));
        let (e, _) = bracketed_counting(f, bounds, 0.0, 6.0);
        assert_eq!(bits(e), bits(full));
    }

    #[test]
    fn bracketed_search_evaluates_skipped_points_below_the_bar() {
        // The bar point's bound promises 10, but the objective is NaN
        // there: the best evaluated value ends below the bar, so every
        // skipped point is evaluated and the full scan's answer stands.
        let xs = crate::linspace(0.0, 6.0, 256);
        let bar_x = xs[100];
        let f = |x: f64| {
            if x == bar_x {
                f64::NAN
            } else {
                -(x - 4.0) * (x - 4.0)
            }
        };
        let bounds = |x: f64, _| {
            if x == bar_x {
                (10.0, 11.0)
            } else {
                (f(x), f(x))
            }
        };
        let full = grid_max(f, 0.0, 6.0, GridSpec::default());
        let (e, calls) = bracketed_counting(f, bounds, 0.0, 6.0);
        assert_eq!(bits(e), bits(full));
        assert!(calls >= 256, "{calls} calls");
        // A violated lower bound elsewhere falls back the same way.
        let f = |x: f64| -(x - 4.0) * (x - 4.0);
        let bounds = |x: f64, _| {
            if x == xs[10] {
                (5.0, 6.0)
            } else {
                (f(x), f(x))
            }
        };
        let (e, calls) = bracketed_counting(f, bounds, 0.0, 6.0);
        assert_eq!(bits(e), bits(grid_max(f, 0.0, 6.0, GridSpec::default())));
        assert!(calls >= 256, "{calls} calls");
    }

    #[test]
    fn bracketed_search_on_a_degenerate_interval() {
        let (e, calls) = bracketed_counting(|x| x * x, |_, _| (100.0, 100.0), 3.0, 3.0);
        assert_eq!(
            bits(e),
            bits(grid_max(|x| x * x, 3.0, 3.0, GridSpec::default()))
        );
        assert_eq!((e.x, e.value, calls), (3.0, 9.0, 1));
    }

    #[test]
    fn integer_argmax_quadratic() {
        // f(n) = -(n-7)^2 peaks at n=7.
        let (n, v) = integer_argmax(|n| -((n as f64 - 7.0).powi(2)), 1, 30);
        assert_eq!(n, 7);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn integer_argmax_prefers_first_on_tie() {
        let (n, _) = integer_argmax(|n| if n == 3 || n == 5 { 1.0 } else { 0.0 }, 1, 10);
        assert_eq!(n, 3);
    }

    #[test]
    fn round_to_better_integer_picks_larger_value() {
        // Continuous optimum y=7.4 but f(8) > f(7) here.
        let f = |n: u64| if n == 8 { 10.0 } else { 5.0 };
        let (n, v) = round_to_better_integer(f, 7.4, 1, 100);
        assert_eq!(n, 8);
        assert_eq!(v, 10.0);
        // And the paper's Fig 5 case: y=7.4 with f(7) > f(8).
        let f = |n: u64| if n == 7 { 20.9 } else { 17.6 };
        let (n, v) = round_to_better_integer(f, 7.4, 1, 100);
        assert_eq!(n, 7);
        assert!((v - 20.9).abs() < 1e-12);
    }

    #[test]
    fn round_to_better_integer_clamps() {
        let (n, _) = round_to_better_integer(|n| n as f64, 0.2, 1, 100);
        assert_eq!(n, 1);
        let (n, _) = round_to_better_integer(|n| n as f64, 250.7, 1, 100);
        assert_eq!(n, 100);
    }

    #[test]
    #[should_panic(expected = "empty integer range")]
    fn integer_argmax_empty_range_panics() {
        let _ = integer_argmax(|_| 0.0, 5, 2);
    }
}
