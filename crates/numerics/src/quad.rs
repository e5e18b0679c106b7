//! Deterministic quadrature: adaptive Gauss–Kronrod, adaptive Simpson,
//! runtime-generated Gauss–Legendre rules, and semi-infinite transforms.
//!
//! The paper's expectations are all smooth one-dimensional integrals of
//! products of polynomials, Gaussians and distribution CDFs. The exact
//! §4 integrals run through [`adaptive_gauss_kronrod`] (QUADPACK's QAG
//! scheme on `qk15` panels), which reaches 1e-11 on them with a few
//! hundred evaluations; [`adaptive_gauss_kronrod_batch`] is the same
//! scheme with an integrand that evaluates a whole panel per call.
//! Adaptive Simpson stays as the slow reference and
//! for the few callers whose integrands it suits; the Gauss–Legendre
//! rules provide an independent cross-check (used by the test-suite)
//! plus a fast fixed-cost path for the planners' searches.

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

    /// The convergence test of both adaptive integrators
    /// ([`adaptive_simpson_checked`], and the exact §4 integrals on
    /// [`adaptive_gauss_kronrod`]) for the requested tolerance `tol`:
    /// `Err` when the value or the error
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

/// Equal panels both adaptive integrators start from: pre-splitting
/// keeps narrow features (a checkpoint law with tiny σ inside a long
/// reservation, say) from hiding between the samples of one global
/// panel.
const PANELS: usize = 16;

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

/// Panel cap of [`adaptive_gauss_kronrod`]: once this many panels exist
/// it stops bisecting and returns the estimate with its error as they
/// stand.
const GK_MAX_PANELS: usize = 2048;

/// Abscissae of QUADPACK's `qk15` on `[−1, 1]`, from the outermost in;
/// the centre `0` is implicit. Indices 1, 3 and 5 are the 7-point Gauss
/// nodes.
const XGK: [f64; 7] = [
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.20778495500789848,
];

/// 15-point Kronrod weights of [`XGK`], then of the centre.
const WGK: [f64; 8] = [
    0.022935322010529224,
    0.06309209262997856,
    0.10479001032225019,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
];

/// 7-point Gauss weights of `XGK[1]`, `XGK[3]`, `XGK[5]`, then of the
/// centre.
const WG: [f64; 4] = [
    0.1294849661688697,
    0.27970539148927664,
    0.3818300505051189,
    0.4179591836734694,
];

/// One panel of [`adaptive_gauss_kronrod`].
#[derive(Debug, Clone, Copy)]
struct GkPanel {
    a: f64,
    b: f64,
    /// The K15 estimate.
    value: f64,
    /// QUADPACK's error estimate, floored at the panel's round-off.
    error: f64,
    /// The estimate is all round-off (or the panel cannot be halved):
    /// its halves would carry the same floor, so it is never bisected.
    settled: bool,
}

/// Abscissae of one `qk15` panel: the batch an integrand of
/// [`adaptive_gauss_kronrod_batch`] evaluates per call.
pub const GK_PANEL_NODES: usize = 15;

/// One `qk15` panel's abscissae, or the integrand's values there.
pub type GkPanelPoints = [f64; GK_PANEL_NODES];

/// QUADPACK's `qk15` on `[a, b]`: the K15 value and the G7/K15
/// difference, scaled by `resasc·min(1, (200·|K − G|/resasc)^1.5)` and
/// floored at `50·ε·resabs`, the round-off of the panel's sum. `f`
/// evaluates the panel's 15 abscissae in one call.
fn qk15<F: FnMut(&GkPanelPoints, &mut GkPanelPoints)>(f: &mut F, a: f64, b: f64) -> GkPanel {
    let centre = 0.5 * (a + b);
    let half = 0.5 * (b - a);
    let mut xs = [centre; GK_PANEL_NODES];
    for (j, &x) in XGK.iter().enumerate() {
        let dx = half * x;
        (xs[2 * j + 1], xs[2 * j + 2]) = (centre - dx, centre + dx);
    }
    let mut fx = [0.0; GK_PANEL_NODES];
    f(&xs, &mut fx);
    let fc = fx[0];
    let pairs: [(f64, f64); 7] = std::array::from_fn(|j| (fx[2 * j + 1], fx[2 * j + 2]));
    let mut res_g = WG[3] * fc;
    let mut res_k = WGK[7] * fc;
    let mut res_abs = res_k.abs();
    for (j, &(lo, hi)) in pairs.iter().enumerate() {
        res_k += WGK[j] * (lo + hi);
        res_abs += WGK[j] * (lo.abs() + hi.abs());
        if j % 2 == 1 {
            res_g += WG[j / 2] * (lo + hi);
        }
    }
    let mean = 0.5 * res_k;
    let mut res_asc = WGK[7] * (fc - mean).abs();
    for (j, &(lo, hi)) in pairs.iter().enumerate() {
        res_asc += WGK[j] * ((lo - mean).abs() + (hi - mean).abs());
    }
    let width = half.abs();
    let (res_abs, res_asc) = (res_abs * width, res_asc * width);
    let mut error = ((res_k - res_g) * half).abs();
    if res_asc != 0.0 && error != 0.0 {
        error = res_asc * (200.0 * error / res_asc).powf(1.5).min(1.0);
    }
    let floor = if res_abs > f64::MIN_POSITIVE / (50.0 * f64::EPSILON) {
        50.0 * f64::EPSILON * res_abs
    } else {
        0.0
    };
    GkPanel {
        a,
        b,
        value: res_k * half,
        error: error.max(floor),
        settled: error <= floor,
    }
}

/// Global adaptive Gauss–Kronrod quadrature of `f` over `[a, b]` with
/// absolute tolerance `tol`: QUADPACK's QAG scheme (Piessens et al.,
/// 1983) on `qk15` panels, with QAGP's breakpoints.
///
/// The interval starts as [`adaptive_simpson`]'s 16 equal panels, cut
/// again at every `breakpoints` entry strictly inside `(a, b)` (any
/// order; duplicates are ignored) — the places the caller knows the
/// integrand has a kink. Then the panel with the largest error estimate
/// is bisected, the leftmost on a tie, until the summed estimate is at
/// most `tol`, every panel left is settled at its round-off floor, or
/// 2048 panels exist. The value is the Neumaier sum of the panels in
/// ascending `x`, so the result depends only on the inputs.
///
/// A smooth integrand costs 240 evaluations (16 × 15); the error
/// estimate is QUADPACK's, conservative on smooth panels, so
/// [`QuadResult::converged`] keeps its meaning. Handles `a > b` by sign
/// flip and `a == b` as zero; the integrand is never evaluated at `a`
/// or `b`. NaN evaluations poison the result (NaN out).
///
/// This is the per-point form of [`adaptive_gauss_kronrod_batch`]: it
/// evaluates `f` at each panel's abscissae in turn, so the two give the
/// same bits and the same `evals` for the same function.
pub fn adaptive_gauss_kronrod<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
    breakpoints: &[f64],
) -> QuadResult {
    let per_point = |xs: &GkPanelPoints, out: &mut GkPanelPoints| {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = f(x);
        }
    };
    adaptive_gauss_kronrod_batch(per_point, a, b, tol, breakpoints)
}

/// [`adaptive_gauss_kronrod`] with an integrand that evaluates one
/// `qk15` panel per call: `f(xs, out)` writes `f(xs[i])` into `out[i]`.
/// The abscissae come in the order the per-point form evaluates them:
/// the centre, then each pair `centre ∓ dx` from the outermost in. For
/// an integrand that is cheaper over many points at once (checkpoint
/// CDFs on lanes); `evals` counts every abscissa, as the per-point form
/// does.
pub fn adaptive_gauss_kronrod_batch<F: FnMut(&GkPanelPoints, &mut GkPanelPoints)>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
    breakpoints: &[f64],
) -> QuadResult {
    if a == b {
        return QuadResult::exact(0.0);
    }
    if a > b {
        let mut r = adaptive_gauss_kronrod_batch(f, b, a, tol, breakpoints);
        r.value = -r.value;
        return r;
    }
    let _span = resq_obs::span::enter(resq_obs::span_name::QUAD);
    let mut evals = 0usize;
    let mut eval = |xs: &GkPanelPoints, out: &mut GkPanelPoints| {
        evals += GK_PANEL_NODES;
        f(xs, out)
    };
    let h = (b - a) / PANELS as f64;
    let mut edges: Vec<f64> = (1..PANELS)
        .map(|i| a + h * i as f64)
        .chain(breakpoints.iter().copied().filter(|&x| a < x && x < b))
        .collect();
    edges.sort_unstable_by(f64::total_cmp);
    edges.dedup();
    edges.push(b);
    let mut panels = Vec::with_capacity(edges.len() + 64);
    let mut lo = a;
    for &hi in &edges {
        panels.push(qk15(&mut eval, lo, hi));
        lo = hi;
    }
    let error = loop {
        let mut error = 0.0;
        let mut worst: Option<usize> = None;
        for (i, p) in panels.iter().enumerate() {
            error += p.error;
            if !p.settled && worst.map_or(true, |w| p.error > panels[w].error) {
                worst = Some(i);
            }
        }
        // `!(error > tol)` also stops on a NaN estimate.
        if !(error > tol) || panels.len() >= GK_MAX_PANELS {
            break error;
        }
        let Some(i) = worst else { break error };
        let GkPanel { a: lo, b: hi, .. } = panels[i];
        let mid = 0.5 * (lo + hi);
        if !(lo < mid && mid < hi) {
            panels[i].settled = true;
            continue;
        }
        panels[i] = qk15(&mut eval, lo, mid);
        panels.insert(i + 1, qk15(&mut eval, mid, hi));
    };
    let value: crate::sum::NeumaierSum = panels.iter().map(|p| p.value).collect();
    // One batched metric update per quadrature call, not per evaluation.
    resq_obs::metrics::QUADRATURE_EVALS.add(evals as u64);
    QuadResult {
        value: value.value(),
        error,
        evals,
    }
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
        let (c, d) = half_width_and_mid(a, b);
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

/// Half-width and midpoint of the panel `[a, b]`: a Gauss–Legendre node
/// `t ∈ (−1, 1)` lands at `half·t + mid`.
fn half_width_and_mid(a: f64, b: f64) -> (f64, f64) {
    (0.5 * (b - a), 0.5 * (a + b))
}

/// Smallest coarse segment count of [`gauss_legendre_two_resolution`];
/// the fine pass doubles it, so the a-posteriori error estimate compares
/// two genuinely different discretizations.
const GL_CHECK_SEGMENTS: usize = 2;

/// Coarse-segment ceiling of [`gauss_legendre_two_resolution`]. Past
/// this the fixed-order budget stops being meaningfully cheaper than the
/// adaptive integrator, so callers asking for more resolution are
/// clamped here and the a-posteriori check decides the rest.
const GL_MAX_SEGMENTS: usize = 16;

/// Fixed-cost quadrature for smooth integrands with an a-posteriori
/// check: composite Gauss–Legendre over `[a, b]` at `k` and `2k` equal
/// segments, `k = segments` clamped to `2..=16`. Returns the fine
/// estimate when it is finite and the two agree within
/// `tol·(1 + |fine|)`; `None` otherwise — a kink, an endpoint
/// singularity, a feature the two node sets sample differently — and
/// the caller takes its slower path. `Some(0.0)` when `a == b`.
///
/// `segments` is a hint that sizes the panels to the narrowest feature
/// the caller knows about. The agreement check can only see what at
/// least one resolution samples: a feature narrow enough that *both*
/// node sets step over it entirely passes undetected (the
/// `_blind_to_fully_aliased_` test pins this down). That is inherent to
/// any fixed-sample a-posteriori check, so a caller whose integrand
/// carries a feature narrower than `(b − a) / 2` — a CDF shoulder inside
/// a wide window, say — must ask for enough segments that the feature
/// spans one. The solver derives the hint from the checkpoint law's
/// central-quantile width (see `resq_core`), which keeps its integrands
/// — a smooth density times a sharp CDF shoulder — on this fixed-cost
/// path.
///
/// Cost is `3·k·order(gl)` evaluations — for the solver's order-20 rule
/// at `k = 2` an order of magnitude below the adaptive integrator's
/// forced-refinement floor.
pub fn gauss_legendre_two_resolution<F: FnMut(f64) -> f64>(
    gl: &GaussLegendre,
    mut f: F,
    a: f64,
    b: f64,
    segments: usize,
    tol: f64,
) -> Option<f64> {
    if a == b {
        return Some(0.0);
    }
    let segments = segments.clamp(GL_CHECK_SEGMENTS, GL_MAX_SEGMENTS);
    let coarse = gl.integrate_composite(&mut f, a, b, segments);
    let fine = gl.integrate_composite(&mut f, a, b, 2 * segments);
    agreed(coarse, fine, tol)
}

/// The two-resolution check: `fine` when it is finite and within
/// `tol·(1 + |fine|)` of `coarse`.
fn agreed(coarse: f64, fine: f64, tol: f64) -> Option<f64> {
    (fine.is_finite() && (fine - coarse).abs() <= tol * (1.0 + fine.abs())).then_some(fine)
}

/// The abscissas of [`gauss_legendre_two_resolution`]'s two passes over
/// one window, for a caller that integrates many functions there. It
/// tabulates what they share at [`TwoResolutionNodes::xs`] once and
/// hands each function's values to [`TwoResolutionNodes::integrate`],
/// which returns the bits `gauss_legendre_two_resolution` would. The
/// window moves in place ([`TwoResolutionNodes::cover`]) and keeps its
/// storage.
#[derive(Debug, Clone, Default)]
pub struct TwoResolutionNodes {
    /// Coarse segments after clamping; 0 for an empty window.
    segments: usize,
    /// The rule's weights, one panel's worth.
    weights: Vec<f64>,
    /// Half-width of each panel: the coarse pass's, then the fine pass's.
    half_widths: Vec<f64>,
    /// Every panel's abscissas in panel order, one per weight.
    xs: Vec<f64>,
}

impl TwoResolutionNodes {
    /// The nodes of `gl` over `[a, b]` for the coarse-segment hint
    /// `segments`, clamped as [`gauss_legendre_two_resolution`] clamps it.
    pub fn new(gl: &GaussLegendre, a: f64, b: f64, segments: usize) -> Self {
        let mut nodes = Self::default();
        nodes.cover(gl, a, b, segments);
        nodes
    }

    /// Moves the nodes of `gl` to `[a, b]` at the hint `segments`.
    pub fn cover(&mut self, gl: &GaussLegendre, a: f64, b: f64, segments: usize) {
        self.weights.clone_from(&gl.weights);
        self.half_widths.clear();
        self.xs.clear();
        self.segments = 0;
        if a == b {
            return;
        }
        self.segments = segments.clamp(GL_CHECK_SEGMENTS, GL_MAX_SEGMENTS);
        for panels in [self.segments, 2 * self.segments] {
            let h = (b - a) / panels as f64;
            for s in 0..panels {
                let lo = a + h * s as f64;
                let (c, d) = half_width_and_mid(lo, lo + h);
                self.half_widths.push(c);
                self.xs.extend(gl.nodes.iter().map(|&t| c * t + d));
            }
        }
    }

    /// The abscissas, coarse pass first.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// [`gauss_legendre_two_resolution`] at tolerance `tol` of the
    /// function whose value at `xs()[i]` is `value(i)`, called once per
    /// node in order. Counts `quadrature_evals` as that function does.
    pub fn integrate(&self, mut value: impl FnMut(usize) -> f64, tol: f64) -> Option<f64> {
        if self.segments == 0 {
            return Some(0.0);
        }
        let mut i = 0;
        let mut pass = |panels: &[f64]| {
            let mut acc = crate::sum::NeumaierSum::new();
            for &c in panels {
                let mut panel = crate::sum::NeumaierSum::new();
                for &w in &self.weights {
                    panel.add(w * value(i));
                    i += 1;
                }
                acc.add(c * panel.value());
            }
            acc.value()
        };
        let (coarse, fine) = self.half_widths.split_at(self.segments);
        let coarse = pass(coarse);
        let fine = pass(fine);
        resq_obs::metrics::QUADRATURE_EVALS.add(self.xs.len() as u64);
        agreed(coarse, fine, tol)
    }
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
    adaptive_gauss_kronrod(
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
        &[],
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
            (
                &|x: f64| (-x * x).exp(),
                -8.0,
                8.0,
                std::f64::consts::PI.sqrt(),
            ),
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
    fn gk_weights_integrate_one() {
        let kronrod = 2.0 * WGK[..7].iter().sum::<f64>() + WGK[7];
        let gauss = 2.0 * WG[..3].iter().sum::<f64>() + WG[3];
        assert!((kronrod - 2.0).abs() < 4e-16, "{kronrod}");
        assert!((gauss - 2.0).abs() < 4e-16, "{gauss}");
    }

    /// A panel integrand that evaluates `f` at each abscissa in turn.
    fn per_point(f: impl Fn(f64) -> f64) -> impl FnMut(&GkPanelPoints, &mut GkPanelPoints) {
        move |xs, out| {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = f(x);
            }
        }
    }

    #[test]
    fn gk_panel_exact_on_polynomials_to_degree_22() {
        // K15 integrates x^k exactly through k = 3·7 + 1; G7 only
        // through 13, so the estimate is round-off below that degree and
        // honest above it.
        for k in 0..=22 {
            let p = qk15(&mut per_point(|x: f64| x.powi(k)), 0.0, 1.0);
            let want = 1.0 / (k + 1) as f64;
            assert!(
                (p.value - want).abs() < 4e-16,
                "x^{k}: {} vs {want}",
                p.value
            );
            assert!(p.error >= (p.value - want).abs(), "x^{k}: {p:?}");
        }
        let p = qk15(&mut per_point(|x: f64| x.powi(14)), 0.0, 1.0);
        assert!(
            !p.settled && p.error > 1e-9,
            "G7 is not exact at degree 14: {p:?}"
        );
    }

    #[test]
    fn gk_known_integrals() {
        type Case<'a> = (&'a dyn Fn(f64) -> f64, f64, f64, f64);
        let cases: &[Case] = &[
            (&|x: f64| x.sin(), 0.0, std::f64::consts::PI, 2.0),
            (&|x: f64| x.exp(), 0.0, 1.0, std::f64::consts::E - 1.0),
            (&|x: f64| 1.0 / x, 1.0, std::f64::consts::E, 1.0),
            (
                &|x: f64| (-x * x).exp(),
                -8.0,
                8.0,
                std::f64::consts::PI.sqrt(),
            ),
        ];
        for (f, a, b, want) in cases {
            let r = adaptive_gauss_kronrod(f, *a, *b, 1e-12, &[]);
            assert!(
                (r.value - want).abs() < 1e-14,
                "∫ on [{a},{b}] = {}, want {want}",
                r.value
            );
            assert!(r.error <= 1e-12, "{r:?}");
            assert_eq!(r.evals, 16 * 15, "smooth: no bisection needed");
        }
    }

    #[test]
    fn gk_reversed_bounds_and_zero_width() {
        let fwd = adaptive_gauss_kronrod(|x| x.cos(), 0.0, 1.0, 1e-12, &[0.5]);
        let rev = adaptive_gauss_kronrod(|x| x.cos(), 1.0, 0.0, 1e-12, &[0.5]);
        assert_eq!(rev.value.to_bits(), (-fwd.value).to_bits());
        assert_eq!((rev.error, rev.evals), (fwd.error, fwd.evals));
        let r = adaptive_gauss_kronrod(|x| x * x, 3.0, 3.0, 1e-12, &[3.0]);
        assert_eq!(r, QuadResult::exact(0.0));
    }

    #[test]
    fn gk_handles_sharp_peak() {
        // The σ = 0.05 peak of `simpson_handles_sharp_peak`: the 16
        // panels' 240 nodes sample it, and bisection resolves it.
        let sigma = 0.05;
        let r = adaptive_gauss_kronrod(
            |x| (-(x - 0.7) * (x - 0.7) / (2.0 * sigma * sigma)).exp(),
            0.0,
            10.0,
            1e-13,
            &[],
        );
        let want = sigma * (2.0 * std::f64::consts::PI).sqrt();
        assert!(
            (r.value - want).abs() < 1e-13,
            "got {}, want {want}",
            r.value
        );
        assert!(r.error <= 1e-13, "{r:?}");
    }

    #[test]
    fn gk_constant_costs_240_evaluations() {
        let r = adaptive_gauss_kronrod(|_| 2.5, -1.0, 3.0, 1e-11, &[]);
        assert_eq!(r.evals, 240);
        assert!((r.value - 10.0).abs() < 1e-14, "{r:?}");
        // Simpson's forced refinement costs more than twice that.
        assert!(adaptive_simpson(|_| 2.5, -1.0, 3.0, 1e-11).evals > 2 * r.evals);
    }

    #[test]
    fn gk_error_estimate_bounds_the_true_error() {
        type Case<'a> = (&'a dyn Fn(f64) -> f64, f64, f64, f64);
        let cases: &[Case] = &[
            (&|x: f64| x.sin(), 0.0, 20.0, 1.0 - 20f64.cos()),
            (
                &|x: f64| (3.0 * x).cos(),
                -2.0,
                5.0,
                ((15f64).sin() + (6f64).sin()) / 3.0,
            ),
            (
                &|x: f64| 1.0 / (1.0 + x * x),
                -30.0,
                30.0,
                2.0 * 30f64.atan(),
            ),
            (&|x: f64| (-x).exp(), 0.0, 40.0, 1.0 - (-40f64).exp()),
            (&|x: f64| x.sqrt(), 1.0, 9.0, 52.0 / 3.0),
            (&|x: f64| x * (2.0 * x).sin(), 0.0, 12.0, {
                // ∫ x·sin 2x = sin(2x)/4 − x·cos(2x)/2
                24f64.sin() / 4.0 - 6.0 * 24f64.cos()
            }),
        ];
        for (i, (f, a, b, want)) in cases.iter().enumerate() {
            for tol in [1e-3, 1e-6, 1e-9, 1e-12] {
                let r = adaptive_gauss_kronrod(f, *a, *b, tol, &[]);
                let gap = (r.value - want).abs();
                assert!(
                    gap <= r.error,
                    "case {i} at {tol:e}: gap {gap:e} > estimate {r:?}"
                );
                assert!(r.error <= tol, "case {i} at {tol:e}: {r:?}");
            }
        }
    }

    #[test]
    fn gk_breakpoints_resolve_kinks() {
        // A piecewise-linear integrand with kinks off the panel edges:
        // with them as breakpoints every panel is exact, without them
        // the kinked panels have to be bisected.
        let f = |x: f64| (x - 0.3).abs() + (x - 0.71).abs();
        let want =
            (0.3f64.powi(2) + 0.7f64.powi(2)) / 2.0 + (0.71f64.powi(2) + 0.29f64.powi(2)) / 2.0;
        let cut = adaptive_gauss_kronrod(f, 0.0, 1.0, 1e-13, &[0.71, 0.3, 0.3, -2.0, 1.0, 7.0]);
        assert!((cut.value - want).abs() < 1e-15, "{cut:?} vs {want}");
        assert_eq!(cut.evals, 18 * 15, "16 panels cut twice, none bisected");
        let blind = adaptive_gauss_kronrod(f, 0.0, 1.0, 1e-13, &[]);
        assert!((blind.value - want).abs() < 1e-13, "{blind:?} vs {want}");
        assert!(blind.evals > 2 * cut.evals, "{blind:?}");
        // The order and repetition of breakpoints do not matter.
        let shuffled = adaptive_gauss_kronrod(f, 0.0, 1.0, 1e-13, &[7.0, 0.3, 0.71]);
        assert_eq!(shuffled, cut);
    }

    #[test]
    fn gk_batch_integrand_gives_the_per_point_bits() {
        // Each integrand once per point and once per panel, the panel
        // form in whole-array steps: the peak and the jump bisect, the
        // kinked one is cut at its breakpoints.
        let sigma = 0.05;
        let peak = |x: f64| (-(x - 0.7) * (x - 0.7) / (2.0 * sigma * sigma)).exp();
        let peak_panel = |xs: &GkPanelPoints, out: &mut GkPanelPoints| {
            let d = xs.map(|x| x - 0.7);
            *out = d.map(|d| -d * d / (2.0 * sigma * sigma)).map(f64::exp);
        };
        let jump = std::f64::consts::FRAC_1_SQRT_2;
        let step = |x: f64| if x < jump { 1.0 } else { 0.0 };
        let step_panel = |xs: &GkPanelPoints, out: &mut GkPanelPoints| {
            *out = xs.map(|x| (x < jump) as u8 as f64);
        };
        let kinks = |x: f64| (x - 0.3).abs() + (x - 0.71).abs();
        let kinks_panel = |xs: &GkPanelPoints, out: &mut GkPanelPoints| {
            let left = xs.map(|x| (x - 0.3).abs());
            for ((o, &x), l) in out.iter_mut().zip(xs).zip(left) {
                *o = l + (x - 0.71).abs();
            }
        };
        let cases = [
            (
                adaptive_gauss_kronrod(peak, 0.0, 10.0, 1e-13, &[]),
                adaptive_gauss_kronrod_batch(peak_panel, 0.0, 10.0, 1e-13, &[]),
            ),
            (
                adaptive_gauss_kronrod(step, 0.0, 1.0, 1e-11, &[]),
                adaptive_gauss_kronrod_batch(step_panel, 0.0, 1.0, 1e-11, &[]),
            ),
            (
                adaptive_gauss_kronrod(kinks, 0.0, 1.0, 1e-13, &[0.71, 0.3]),
                adaptive_gauss_kronrod_batch(kinks_panel, 0.0, 1.0, 1e-13, &[0.71, 0.3]),
            ),
            (
                adaptive_gauss_kronrod(kinks, 1.0, 0.0, 1e-13, &[0.3]),
                adaptive_gauss_kronrod_batch(kinks_panel, 1.0, 0.0, 1e-13, &[0.3]),
            ),
        ];
        for (i, (scalar, batch)) in cases.iter().enumerate() {
            assert_eq!(batch.value.to_bits(), scalar.value.to_bits(), "case {i}");
            assert_eq!(batch.error.to_bits(), scalar.error.to_bits(), "case {i}");
            assert_eq!(batch.evals, scalar.evals, "case {i}");
        }
        // The first two bisect; the cut one needs no bisection.
        assert!(cases[0].1.evals > 240 && cases[1].1.evals > 240);
        assert_eq!(cases[2].1.evals, 18 * 15);
    }

    #[test]
    fn gk_jump_is_localised_and_nan_stops() {
        // A step at an irrational point: bisection homes in on it.
        let jump = std::f64::consts::FRAC_1_SQRT_2;
        let r = adaptive_gauss_kronrod(|x| if x < jump { 1.0 } else { 0.0 }, 0.0, 1.0, 1e-11, &[]);
        assert!(
            (r.value - jump).abs() <= r.error && r.error <= 1e-11,
            "{r:?}"
        );
        assert!(r.evals < 2000, "{r:?}");
        let nan =
            adaptive_gauss_kronrod(|x| if x > 0.5 { f64::NAN } else { x }, 0.0, 1.0, 1e-11, &[]);
        assert!(nan.value.is_nan() && nan.converged(1e-11).is_err());
        assert_eq!(nan.evals, 240, "a NaN estimate stops the bisection");
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

    /// Runs [`gauss_legendre_two_resolution`] and counts its integrand
    /// evaluations.
    fn two_resolution_counted(
        gl: &GaussLegendre,
        f: impl Fn(f64) -> f64,
        a: f64,
        b: f64,
        segments: usize,
        tol: f64,
    ) -> (Option<f64>, usize) {
        let mut evals = 0;
        let counted = |x: f64| {
            evals += 1;
            f(x)
        };
        let value = gauss_legendre_two_resolution(gl, counted, a, b, segments, tol);
        (value, evals)
    }

    #[test]
    fn gl_checked_accepts_smooth_integrand_cheaply() {
        let gl = GaussLegendre::new(20);
        let f = |x: f64| (-0.5 * (x - 3.0) * (x - 3.0)).exp() * x;
        let (fast, evals) = two_resolution_counted(&gl, f, 0.0, 8.0, GL_CHECK_SEGMENTS, 1e-9);
        let fast = fast.expect("smooth integrand passes the check");
        let reference = adaptive_simpson(f, 0.0, 8.0, 1e-12);
        assert!(
            (fast - reference.value).abs() < 1e-9,
            "{fast} vs {}",
            reference.value
        );
        // The accepting path must cost the fixed GL budget, far below
        // adaptive Simpson's forced-refinement floor.
        assert_eq!(evals, 3 * GL_CHECK_SEGMENTS * 20);
        assert!(
            evals < reference.evals / 2,
            "{evals} vs {}",
            reference.evals
        );
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
        let (hinted, evals) = two_resolution_counted(&gl, f, 0.0, 10.0, GL_MAX_SEGMENTS, 1e-9);
        let hinted = hinted.expect("the hinted panels resolve the shoulder");
        assert!(
            (hinted - reference.value).abs() < 1e-7,
            "{hinted} vs {}",
            reference.value
        );
        // Fixed GL budget at the hinted resolution.
        assert_eq!(evals, 3 * GL_MAX_SEGMENTS * 20);
        assert!(evals < reference.evals, "{evals} vs {}", reference.evals);
        // Out-of-range hints clamp rather than panic or over-spend.
        for huge in [1024, usize::MAX] {
            let (clamped, evals) = two_resolution_counted(&gl, f, 0.0, 10.0, huge, 1e-9);
            assert_eq!(clamped, Some(hinted));
            assert_eq!(evals, 3 * GL_MAX_SEGMENTS * 20);
        }
    }

    #[test]
    fn gl_checked_rejects_hard_integrand() {
        // A spike far narrower than even the finest hinted panels: the
        // resolutions disagree once at least one node lands on it, and
        // the check leaves the integral to the caller's slower path,
        // where adaptive Simpson gets it right.
        let gl = GaussLegendre::new(20);
        let sigma = 1e-3;
        let f = |x: f64| (-(x - 0.7) * (x - 0.7) / (2.0 * sigma * sigma)).exp();
        let (r, evals) = two_resolution_counted(&gl, f, 0.0, 10.0, GL_MAX_SEGMENTS, 1e-9);
        assert_eq!(r, None);
        assert_eq!(evals, 3 * GL_MAX_SEGMENTS * 20);
        let slow = adaptive_simpson(f, 0.0, 10.0, 1e-12).value;
        let want = sigma * (2.0 * std::f64::consts::PI).sqrt();
        assert!(((slow - want) / want).abs() < 1e-6, "got {slow}");
    }

    #[test]
    fn gl_checked_agreement_is_blind_to_fully_aliased_features() {
        // The documented limitation: a feature missed by BOTH check
        // resolutions passes the agreement test and returns a silently
        // smooth-looking answer (here: a 1e-3-wide spike that every
        // node of the 2- and 4-segment panels steps over, yielding
        // 0 ≈ 0). This is inherent to any fixed-sample a-posteriori
        // check and is exactly why callers that know their narrowest
        // feature must size the panels with the `segments` hint — as the
        // solver does with the checkpoint law's CDF-shoulder width.
        let gl = GaussLegendre::new(20);
        let sigma = 1e-3;
        let f = |x: f64| (-(x - 0.7) * (x - 0.7) / (2.0 * sigma * sigma)).exp();
        let (blind, evals) = two_resolution_counted(&gl, f, 0.0, 10.0, GL_CHECK_SEGMENTS, 1e-9);
        assert_eq!(
            blind,
            Some(0.0),
            "aliasing contract changed — update the docs"
        );
        assert_eq!(evals, 3 * GL_CHECK_SEGMENTS * 20);
    }

    #[test]
    fn gl_checked_rejects_non_integrable_pole() {
        // Asymmetric interval around the pole so the panel sums cannot
        // cancel to a spurious agreement: the resolutions disagree and
        // the check does not pass the integral.
        let gl = GaussLegendre::new(8);
        let f = |x: f64| 1.0 / (x - 0.5);
        let r = gauss_legendre_two_resolution(&gl, f, 0.0, 0.91, GL_CHECK_SEGMENTS, 1e-12);
        assert_eq!(r, None, "non-integrable integrand must not pass");
    }

    #[test]
    fn two_resolution_nodes_give_the_closure_pass_bits() {
        let gl = GaussLegendre::new(20);
        let f = |x: f64| (-(x - 1.3) * (x - 1.3) / 0.01).exp() * x.ln_1p();
        let mut moved = TwoResolutionNodes::new(&gl, 5.0, 9.0, 7);
        for (a, b, segments, tol) in [
            (0.0, 3.0, 2, 1e-6),
            (0.2, 2.9, 9, 1e-6),
            (0.5, 2.5, 40, 1e-9),
            (0.0, 3.0, 2, 1e-14),
            (1.0, 1.0, 4, 1e-6),
        ] {
            let want = gauss_legendre_two_resolution(&gl, f, a, b, segments, tol);
            let nodes = TwoResolutionNodes::new(&gl, a, b, segments);
            let got = nodes.integrate(|i| f(nodes.xs()[i]), tol);
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "[{a}, {b}]");
            moved.cover(&gl, a, b, segments);
            assert_eq!(moved.xs(), nodes.xs());
        }
        // The 1e-14 window is rejected, the empty one holds no node.
        assert!(gauss_legendre_two_resolution(&gl, f, 0.0, 3.0, 2, 1e-14).is_none());
        assert!(moved.xs().is_empty());
    }

    #[test]
    fn gl_checked_zero_width() {
        let gl = GaussLegendre::new(8);
        let (r, evals) = two_resolution_counted(&gl, |x: f64| x, 2.0, 2.0, GL_CHECK_SEGMENTS, 1e-9);
        assert_eq!(r, Some(0.0));
        assert_eq!(evals, 0);
    }
}
