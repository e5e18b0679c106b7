//! Deterministic quadrature: adaptive Simpson, runtime-generated
//! Gauss–Legendre rules, and semi-infinite transforms.
//!
//! The paper's expectations are all smooth one-dimensional integrals of
//! products of polynomials, Gaussians and distribution CDFs; adaptive
//! Simpson with a modest tolerance resolves them to ~1e-10 and the
//! Gauss–Legendre rules provide an independent cross-check (used by the
//! test-suite) plus a fast fixed-cost path for Monte-Carlo-scale workloads.

/// Outcome of an adaptive quadrature: the integral estimate, an error
/// estimate, and the number of integrand evaluations spent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadResult {
    /// Estimated value of the integral.
    pub value: f64,
    /// Conservative absolute error estimate.
    pub error: f64,
    /// Number of function evaluations used.
    pub evals: usize,
}

impl QuadResult {
    /// A value known without quadrature error: an empty interval or a
    /// finite sum.
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            error: 0.0,
            evals: 0,
        }
    }

    /// The convergence test of [`adaptive_simpson_checked`] for the
    /// requested tolerance `tol`: `Err` when the value or the error
    /// estimate is non-finite, or the error estimate is more than 1000×
    /// `tol`. The value is never touched, so a caller holding one result
    /// can report it both as is and checked.
    pub fn converged(self, tol: f64) -> Result<Self, crate::NumericsError> {
        let budget = 1000.0 * tol.max(f64::MIN_POSITIVE);
        if !self.value.is_finite() || !self.error.is_finite() || self.error > budget {
            return Err(crate::NumericsError::QuadratureTolerance {
                error: self.error,
                tol,
            });
        }
        Ok(self)
    }
}

const MAX_DEPTH: u32 = 52;
/// Levels of unconditional refinement before the error criterion may stop
/// the recursion; with the 16 initial panels this gives a guaranteed
/// sampling resolution of `(b − a)/128` — enough for the narrowest
/// checkpoint laws used in practice (σ ≥ 1e-2 of the interval) at a
/// quarter of the cost of deeper forcing.
const MIN_DEPTH: u32 = MAX_DEPTH - 3;

/// Adaptive Simpson quadrature of `f` over the finite interval `[a, b]`
/// with absolute tolerance `tol`.
///
/// Handles `a > b` by sign flip and `a == b` as zero. The integrand must
/// be finite on `[a, b]`; NaN evaluations poison the result (NaN out).
pub fn adaptive_simpson<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, tol: f64) -> QuadResult {
    if a == b {
        return QuadResult::exact(0.0);
    }
    if a > b {
        let mut r = adaptive_simpson(f, b, a, tol);
        r.value = -r.value;
        return r;
    }
    let _span = resq_obs::span::enter(resq_obs::span_name::QUAD);
    let mut evals = 0usize;
    let mut eval = |x: f64| {
        evals += 1;
        f(x)
    };
    // Pre-split into fixed panels so narrow features (e.g. a checkpoint
    // law with tiny σ inside a long reservation) cannot hide between the
    // three initial samples of a single global panel.
    const PANELS: usize = 16;
    let h = (b - a) / PANELS as f64;
    let panel_tol = tol.max(f64::MIN_POSITIVE) / PANELS as f64;
    let mut value = crate::sum::NeumaierSum::new();
    let mut error = 0.0;
    for i in 0..PANELS {
        let lo = a + h * i as f64;
        let hi = if i == PANELS - 1 { b } else { lo + h };
        let flo = eval(lo);
        let fhi = eval(hi);
        let mid = 0.5 * (lo + hi);
        let fmid = eval(mid);
        let whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi);
        let (v, e) = simpson_rec(
            &mut eval, lo, hi, flo, fmid, fhi, whole, panel_tol, MAX_DEPTH,
        );
        value.add(v);
        error += e;
    }
    // One batched metric update per quadrature call, not per evaluation.
    resq_obs::metrics::QUADRATURE_EVALS.add(evals as u64);
    QuadResult {
        value: value.value(),
        error,
        evals,
    }
}

/// [`adaptive_simpson`] with a convergence check: returns `Err` when the
/// recursion bottomed out with a conservative error estimate still far
/// (1000×) above the requested tolerance, or produced a non-finite
/// value, instead of silently handing back the best-effort estimate.
///
/// Use this on input-driven paths (CLI specs, learned laws) where a
/// surprise integrand should become a readable error, not a silently
/// wrong number.
pub fn adaptive_simpson_checked<F: FnMut(f64) -> f64>(
    f: F,
    a: f64,
    b: f64,
    tol: f64,
) -> Result<QuadResult, crate::NumericsError> {
    adaptive_simpson(f, a, b, tol).converged(tol)
}

#[allow(clippy::too_many_arguments)]
fn simpson_rec<F: FnMut(f64) -> f64>(
    f: &mut F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> (f64, f64) {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
    let right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
    let delta = left + right - whole;
    // Richardson: Simpson error on the refined estimate is delta/15.
    if depth == 0 || (depth <= MIN_DEPTH && delta.abs() <= 15.0 * tol) {
        return (left + right + delta / 15.0, delta.abs() / 15.0);
    }
    let (lv, le) = simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1);
    let (rv, re) = simpson_rec(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1);
    (lv + rv, le + re)
}

/// Fixed-order Gauss–Legendre rule with nodes and weights computed at
/// construction time by Newton iteration on the Legendre recurrence.
///
/// Exact for polynomials of degree `2n − 1`; an `n = 64` rule resolves the
/// paper's smooth integrands to near machine precision on moderate
/// intervals.
#[derive(Debug, Clone)]
pub struct GaussLegendre {
    /// Nodes in `(-1, 1)`, ascending.
    nodes: Vec<f64>,
    /// Matching weights (positive, summing to 2).
    weights: Vec<f64>,
}

impl GaussLegendre {
    /// Builds the `n`-point rule. Panics if `n == 0`; infallible callers
    /// with literal orders keep this, input-driven callers should prefer
    /// [`GaussLegendre::try_new`].
    pub fn new(n: usize) -> Self {
        Self::try_new(n).expect("Gauss-Legendre order must be positive")
    }

    /// Builds the `n`-point rule, rejecting `n == 0` with a typed error.
    pub fn try_new(n: usize) -> Result<Self, crate::NumericsError> {
        if n == 0 {
            return Err(crate::NumericsError::InvalidInput {
                what: "Gauss-Legendre order must be positive",
            });
        }
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        let m = n.div_ceil(2);
        for i in 0..m {
            // Tricomi initial guess for the i-th root of P_n.
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            let mut dp = 0.0;
            for _ in 0..100 {
                // Evaluate P_n(x) and P'_n(x) by the three-term recurrence.
                let mut p0 = 1.0;
                let mut p1 = x;
                for k in 2..=n {
                    let k = k as f64;
                    let p2 = ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k;
                    p0 = p1;
                    p1 = p2;
                }
                dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
                let dx = p1 / dp;
                x -= dx;
                if dx.abs() < 1e-15 {
                    break;
                }
            }
            let w = 2.0 / ((1.0 - x * x) * dp * dp);
            nodes[i] = -x;
            nodes[n - 1 - i] = x;
            weights[i] = w;
            weights[n - 1 - i] = w;
        }
        if n % 2 == 1 {
            nodes[n / 2] = 0.0;
        }
        Ok(Self { nodes, weights })
    }

    /// Number of nodes.
    pub fn order(&self) -> usize {
        self.nodes.len()
    }

    /// Integrates `f` over `[a, b]` with the fixed rule.
    pub fn integrate<F: FnMut(f64) -> f64>(&self, mut f: F, a: f64, b: f64) -> f64 {
        let c = 0.5 * (b - a);
        let d = 0.5 * (a + b);
        let mut acc = crate::sum::NeumaierSum::new();
        for (&x, &w) in self.nodes.iter().zip(&self.weights) {
            acc.add(w * f(c * x + d));
        }
        resq_obs::metrics::QUADRATURE_EVALS.add(self.nodes.len() as u64);
        c * acc.value()
    }

    /// Integrates `f` over `[a, b]` split into `segments` equal pieces —
    /// useful when the integrand has localized features the global rule
    /// would miss.
    pub fn integrate_composite<F: FnMut(f64) -> f64>(
        &self,
        mut f: F,
        a: f64,
        b: f64,
        segments: usize,
    ) -> f64 {
        assert!(segments > 0);
        let h = (b - a) / segments as f64;
        let mut acc = crate::sum::NeumaierSum::new();
        for s in 0..segments {
            let lo = a + h * s as f64;
            acc.add(self.integrate(&mut f, lo, lo + h));
        }
        acc.value()
    }
}

/// Coarse segment count used by [`gauss_legendre_checked`]; the fine
/// pass doubles it, so the a-posteriori error estimate compares two
/// genuinely different discretizations.
pub const GL_CHECK_SEGMENTS: usize = 2;

/// Coarse-segment ceiling accepted by [`gauss_legendre_checked_from`].
/// Past this the fixed-order budget stops being meaningfully cheaper
/// than the adaptive integrator, so callers asking for more resolution
/// are clamped here and the a-posteriori check decides the rest.
pub const GL_MAX_SEGMENTS: usize = 16;

/// Fixed-cost quadrature for smooth integrands: composite Gauss–Legendre
/// at two resolutions (`GL_CHECK_SEGMENTS` and twice that many
/// segments), accepting the fine estimate when the two agree within
/// `gl_tol` (absolute, plus the same amount per unit of magnitude). When
/// the panels disagree — a kink, an endpoint singularity, a feature the
/// node spacings sample differently — falls back to
/// [`adaptive_simpson_checked`] at `fallback_tol`, so a genuinely hard
/// integrand surfaces as a typed error instead of a silently wrong
/// number.
///
/// The agreement check can only see what at least one resolution
/// samples: a feature narrow enough that *both* node sets step over it
/// entirely passes undetected (the `_blind_to_fully_aliased_` test pins
/// this down). That is inherent to any fixed-sample a-posteriori check —
/// callers that know their integrand carries a feature narrower than
/// `(b − a) / GL_CHECK_SEGMENTS` — a CDF shoulder inside a wide window,
/// say — must size the panels to the feature via
/// [`gauss_legendre_checked_from`] rather than rely on the fallback
/// triggering.
///
/// Cost on the accepting path is `3 · GL_CHECK_SEGMENTS · order(gl)`
/// evaluations — for the solver's order-20 rule an order of magnitude
/// below the adaptive integrator's forced-refinement floor.
pub fn gauss_legendre_checked<F: FnMut(f64) -> f64>(
    gl: &GaussLegendre,
    f: F,
    a: f64,
    b: f64,
    gl_tol: f64,
    fallback_tol: f64,
) -> Result<QuadResult, crate::NumericsError> {
    gauss_legendre_checked_from(gl, f, a, b, GL_CHECK_SEGMENTS, gl_tol, fallback_tol)
}

/// [`gauss_legendre_checked`] with a caller-chosen coarse segment count
/// (clamped to `GL_CHECK_SEGMENTS..=GL_MAX_SEGMENTS`; the fine pass
/// doubles it). The a-posteriori agreement check and the adaptive
/// fallback are unchanged — the segment count is a *hint* that sizes the
/// panels to the narrowest feature the caller knows about, so that the
/// two resolutions sample it rather than alias it. The solver derives
/// the hint from the checkpoint law's central-quantile width (see
/// `resq_core`), which is what keeps its `E(n)` integrand — a smooth
/// density times a sharp CDF shoulder — on the fixed-cost path.
pub fn gauss_legendre_checked_from<F: FnMut(f64) -> f64>(
    gl: &GaussLegendre,
    mut f: F,
    a: f64,
    b: f64,
    segments: usize,
    gl_tol: f64,
    fallback_tol: f64,
) -> Result<QuadResult, crate::NumericsError> {
    if a == b {
        return Ok(QuadResult::exact(0.0));
    }
    let segments = segments.clamp(GL_CHECK_SEGMENTS, GL_MAX_SEGMENTS);
    let coarse = gl.integrate_composite(&mut f, a, b, segments);
    let fine = gl.integrate_composite(&mut f, a, b, 2 * segments);
    let err = (fine - coarse).abs();
    if fine.is_finite() && err <= gl_tol * (1.0 + fine.abs()) {
        return Ok(QuadResult {
            value: fine,
            error: err,
            evals: 3 * segments * gl.order(),
        });
    }
    adaptive_simpson_checked(f, a, b, fallback_tol)
}

/// Integrates `f` over the semi-infinite interval `[a, ∞)` by the rational
/// substitution `x = a + t/(1−t)`, `dx = dt/(1−t)²`, `t ∈ [0, 1)`.
///
/// The integrand must decay (at least like `x^{-2-ε}`) for the transform
/// to be integrable; distribution tails (Gaussian, Gamma, etc.) qualify.
pub fn integrate_to_inf<F: FnMut(f64) -> f64>(mut f: F, a: f64, tol: f64) -> QuadResult {
    // Stop slightly short of t = 1; the omitted mass corresponds to
    // x > ~1e14, far beyond any distribution support used here.
    const T_MAX: f64 = 1.0 - 1e-14;
    adaptive_simpson(
        |t| {
            let om = 1.0 - t;
            let x = a + t / om;
            let v = f(x) / (om * om);
            if v.is_finite() {
                v
            } else {
                0.0
            }
        },
        0.0,
        T_MAX,
        tol,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpson_polynomial_exact() {
        // Simpson is exact on cubics even without refinement.
        let r = adaptive_simpson(|x| 3.0 * x * x - 2.0 * x + 1.0, 0.0, 2.0, 1e-12);
        // ∫ = x³ − x² + x |₀² = 8 − 4 + 2 = 6
        assert!((r.value - 6.0).abs() < 1e-12, "got {}", r.value);
    }

    #[test]
    fn simpson_known_integrals() {
        type Case<'a> = (&'a dyn Fn(f64) -> f64, f64, f64, f64);
        let cases: &[Case] = &[
            (&|x: f64| x.sin(), 0.0, std::f64::consts::PI, 2.0),
            (&|x: f64| x.exp(), 0.0, 1.0, std::f64::consts::E - 1.0),
            (&|x: f64| 1.0 / x, 1.0, std::f64::consts::E, 1.0),
            (&|x: f64| (-x * x).exp(), -8.0, 8.0, std::f64::consts::PI.sqrt()),
        ];
        for (f, a, b, want) in cases {
            let r = adaptive_simpson(f, *a, *b, 1e-12);
            assert!(
                (r.value - want).abs() < 1e-10,
                "∫ on [{a},{b}] = {}, want {want}",
                r.value
            );
            assert!(r.error < 1e-8);
        }
    }

    #[test]
    fn simpson_reversed_bounds_flips_sign() {
        let fwd = adaptive_simpson(|x| x.cos(), 0.0, 1.0, 1e-12);
        let rev = adaptive_simpson(|x| x.cos(), 1.0, 0.0, 1e-12);
        assert!((fwd.value + rev.value).abs() < 1e-14);
    }

    #[test]
    fn simpson_zero_width() {
        let r = adaptive_simpson(|x| x * x, 3.0, 3.0, 1e-12);
        assert_eq!(r.value, 0.0);
        assert_eq!(r.evals, 0);
    }

    #[test]
    fn simpson_handles_sharp_peak() {
        // Narrow Gaussian at 0.7 inside [0, 10]: mass ≈ σ√(2π). The
        // guaranteed resolution is (b−a)/128 ≈ 0.08, so σ = 0.05 is the
        // sharpest feature the default integrator is specified to catch
        // (sharper ones should use GaussLegendre::integrate_composite).
        let sigma = 0.05;
        let r = adaptive_simpson(
            |x| (-(x - 0.7) * (x - 0.7) / (2.0 * sigma * sigma)).exp(),
            0.0,
            10.0,
            1e-13,
        );
        let want = sigma * (2.0 * std::f64::consts::PI).sqrt();
        assert!(
            ((r.value - want) / want).abs() < 1e-6,
            "got {}, want {want}",
            r.value
        );
    }

    #[test]
    fn gauss_legendre_nodes_properties() {
        for n in [1usize, 2, 3, 5, 8, 16, 33, 64] {
            let gl = GaussLegendre::new(n);
            assert_eq!(gl.order(), n);
            // Weights positive, sum to 2 (integral of 1 over [-1,1]).
            let wsum: f64 = gl.weights.iter().sum();
            assert!((wsum - 2.0).abs() < 1e-13, "n={n}: weight sum {wsum}");
            assert!(gl.weights.iter().all(|&w| w > 0.0));
            // Nodes ascending, symmetric.
            for w in gl.nodes.windows(2) {
                assert!(w[1] > w[0], "n={n}: nodes not ascending");
            }
            for i in 0..n {
                assert!(
                    (gl.nodes[i] + gl.nodes[n - 1 - i]).abs() < 1e-14,
                    "n={n}: asymmetric nodes"
                );
            }
        }
    }

    #[test]
    fn gauss_legendre_exact_for_high_degree_polynomials() {
        // n-point rule is exact through degree 2n-1.
        let gl = GaussLegendre::new(8);
        // ∫_{-1}^{1} x^14 dx = 2/15.
        let got = gl.integrate(|x| x.powi(14), -1.0, 1.0);
        assert!((got - 2.0 / 15.0).abs() < 1e-14, "got {got}");
        // Degree 16 must NOT be exact (sanity that the test means something).
        let got16 = gl.integrate(|x| x.powi(16), -1.0, 1.0);
        assert!((got16 - 2.0 / 17.0).abs() > 1e-10);
    }

    #[test]
    fn gauss_legendre_matches_simpson_on_smooth_integrand() {
        let f = |x: f64| (x.sin() + 1.5).ln() * (-0.3 * x).exp();
        let gl = GaussLegendre::new(64).integrate(f, 0.0, 5.0);
        let si = adaptive_simpson(f, 0.0, 5.0, 1e-13).value;
        assert!((gl - si).abs() < 1e-10, "gl={gl} simpson={si}");
    }

    #[test]
    fn gauss_legendre_composite_resolves_peak() {
        let sigma = 1e-3;
        let f = |x: f64| (-(x - 0.7) * (x - 0.7) / (2.0 * sigma * sigma)).exp();
        let gl = GaussLegendre::new(32);
        let got = gl.integrate_composite(f, 0.0, 10.0, 2000);
        let want = sigma * (2.0 * std::f64::consts::PI).sqrt();
        assert!(((got - want) / want).abs() < 1e-8);
    }

    #[test]
    fn semi_infinite_gaussian_tail() {
        // ∫_0^∞ e^{-x²/2} dx = √(π/2).
        let r = integrate_to_inf(|x| (-0.5 * x * x).exp(), 0.0, 1e-12);
        let want = (std::f64::consts::PI / 2.0).sqrt();
        assert!(
            ((r.value - want) / want).abs() < 1e-9,
            "got {}, want {want}",
            r.value
        );
    }

    #[test]
    fn semi_infinite_exponential() {
        // ∫_a^∞ λ e^{-λx} dx = e^{-λa}.
        let lambda = 0.5;
        let a = 1.0;
        let r = integrate_to_inf(|x| lambda * (-lambda * x).exp(), a, 1e-12);
        let want = (-lambda * a).exp();
        assert!(((r.value - want) / want).abs() < 1e-9);
    }

    #[test]
    fn semi_infinite_polynomial_decay() {
        // ∫_1^∞ x^{-3} dx = 1/2.
        let r = integrate_to_inf(|x| x.powi(-3), 1.0, 1e-12);
        assert!((r.value - 0.5).abs() < 1e-8, "got {}", r.value);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn gauss_legendre_zero_order_panics() {
        let _ = GaussLegendre::new(0);
    }

    #[test]
    fn gl_checked_accepts_smooth_integrand_cheaply() {
        let gl = GaussLegendre::new(20);
        let f = |x: f64| (-0.5 * (x - 3.0) * (x - 3.0)).exp() * x;
        let fast = gauss_legendre_checked(&gl, f, 0.0, 8.0, 1e-9, 1e-11).unwrap();
        let reference = adaptive_simpson(f, 0.0, 8.0, 1e-12);
        assert!(
            (fast.value - reference.value).abs() < 1e-9,
            "{} vs {}",
            fast.value,
            reference.value
        );
        // The accepting path must cost the fixed GL budget, far below
        // adaptive Simpson's forced-refinement floor.
        assert_eq!(fast.evals, 3 * GL_CHECK_SEGMENTS * 20);
        assert!(fast.evals < reference.evals / 2, "{} vs {}", fast.evals, reference.evals);
    }

    #[test]
    fn gl_checked_segment_hint_keeps_sharp_shoulder_on_fixed_cost_path() {
        // A sharp-but-resolvable shoulder: aliased by the default
        // 2/4-segment pair, comfortably captured once the panels are
        // sized to the feature — the shape of the solver's `E(n)`
        // integrand where the checkpoint-CDF transition falls inside a
        // wide integration window.
        let gl = GaussLegendre::new(20);
        let f = |x: f64| 1.0 / (1.0 + ((x - 7.0) / 0.1).exp());
        let reference = adaptive_simpson(f, 0.0, 10.0, 1e-12);
        let hinted =
            gauss_legendre_checked_from(&gl, f, 0.0, 10.0, GL_MAX_SEGMENTS, 1e-9, 1e-12).unwrap();
        assert!(
            (hinted.value - reference.value).abs() < 1e-7,
            "{} vs {}",
            hinted.value,
            reference.value
        );
        // Fixed GL budget at the hinted resolution, no adaptive fallback.
        assert_eq!(hinted.evals, 3 * GL_MAX_SEGMENTS * 20);
        assert!(hinted.evals < reference.evals, "{} vs {}", hinted.evals, reference.evals);
        // Out-of-range hints clamp rather than panic or over-spend.
        let clamped =
            gauss_legendre_checked_from(&gl, f, 0.0, 10.0, 1024, 1e-9, 1e-12).unwrap();
        assert_eq!(clamped.evals, 3 * GL_MAX_SEGMENTS * 20);
    }

    #[test]
    fn gl_checked_falls_back_on_hard_integrand() {
        // A spike far narrower than even the finest hinted panels: the
        // resolutions disagree once at least one node lands on it, the
        // fallback adaptive pass takes over and still gets it right.
        let gl = GaussLegendre::new(20);
        let sigma = 1e-3;
        let f = |x: f64| (-(x - 0.7) * (x - 0.7) / (2.0 * sigma * sigma)).exp();
        let r =
            gauss_legendre_checked_from(&gl, f, 0.0, 10.0, GL_MAX_SEGMENTS, 1e-9, 1e-12).unwrap();
        let want = sigma * (2.0 * std::f64::consts::PI).sqrt();
        assert!(((r.value - want) / want).abs() < 1e-6, "got {}", r.value);
        assert!(r.evals > 3 * GL_MAX_SEGMENTS * 20, "fallback did not run");
    }

    #[test]
    fn gl_checked_agreement_is_blind_to_fully_aliased_features() {
        // The documented limitation: a feature missed by BOTH check
        // resolutions passes the agreement test and returns a silently
        // smooth-looking answer (here: a 1e-3-wide spike that every
        // node of the 2- and 4-segment panels steps over, yielding
        // 0 ≈ 0). This is inherent to any fixed-sample a-posteriori
        // check and is exactly why callers that know their narrowest
        // feature must size the panels with
        // `gauss_legendre_checked_from` — as the solver does with the
        // checkpoint law's CDF-shoulder width.
        let gl = GaussLegendre::new(20);
        let sigma = 1e-3;
        let f = |x: f64| (-(x - 0.7) * (x - 0.7) / (2.0 * sigma * sigma)).exp();
        let blind = gauss_legendre_checked(&gl, f, 0.0, 10.0, 1e-9, 1e-12).unwrap();
        assert_eq!(blind.value, 0.0, "aliasing contract changed — update the docs");
        assert_eq!(blind.evals, 3 * GL_CHECK_SEGMENTS * 20);
    }

    #[test]
    fn gl_checked_surfaces_nonfinite_as_error() {
        // Asymmetric interval around the pole so the panel sums cannot
        // cancel to a spurious agreement: the resolutions disagree, the
        // adaptive fallback runs, and its non-convergence surfaces as a
        // typed error.
        let gl = GaussLegendre::new(8);
        let r = gauss_legendre_checked(&gl, |x: f64| 1.0 / (x - 0.5), 0.0, 0.91, 1e-12, 1e-12);
        assert!(r.is_err(), "non-integrable integrand must not pass");
    }

    #[test]
    fn gl_checked_zero_width() {
        let gl = GaussLegendre::new(8);
        let r = gauss_legendre_checked(&gl, |x: f64| x, 2.0, 2.0, 1e-9, 1e-11).unwrap();
        assert_eq!(r.value, 0.0);
        assert_eq!(r.evals, 0);
    }
}
