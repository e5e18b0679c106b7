//! Error function family: [`erf`], [`erfc`], [`erfcx`] and the inverses
//! [`inv_erf`], [`inv_erfc`].
//!
//! Every `erfc` value for `x ≥ 1e-8` comes from one fast kernel
//! (`erfc_positive`): a 12-term Taylor series about the nearest node
//! `x_k = k/128`, whose node values are tabulated once from
//! [`erfc_reference`]. [`erf`] (for `x² ≥ 1.5`), [`erfcx`] (for
//! `x² < 1.5`) and, through [`erfc`], `norm_cdf`/`norm_sf` reach the
//! same kernel, so every Normal, LogNormal and truncated-Normal CDF
//! shares it. [`erfc_into`] runs the same kernel on eight lanes, for a
//! caller with many arguments at once, with [`erfc`]'s bits.
//!
//! [`erfc_reference`] is the slow reference the kernel is checked
//! against: the regularized incomplete gamma identity
//! `erfc(x) = Q(1/2, x²)` (for `x ≥ 0`), evaluated through the
//! series/continued-fraction machinery of [`crate::incgamma`]. The small-`x`
//! branch of [`erf`] and the large-`x` branch of [`erfcx`] use that
//! machinery directly. The inverses go through Acklam's Normal-quantile
//! approximation refined by a Halley step.

use crate::incgamma::{gamma_p_raw, gamma_q_cf_factor};
use std::sync::OnceLock;

const SQRT_PI: f64 = 1.772_453_850_905_516;

/// `2/√π`, the magnitude of `erfc'(0)`.
const TWO_OVER_SQRT_PI: f64 = 2.0 / SQRT_PI;

/// Kernel nodes per unit of `x`: `x_k = k/128`, so every `|x − x_k|`
/// the kernel sees is at most `1/256` and `x_k²` is exact in `f64`.
const NODES_PER_UNIT: f64 = 128.0;

/// Node count: `x_k` for `k < NODES` covers `[0, 27)`, the whole range
/// where `erfc` is not 0 in `f64`.
const NODES: usize = 27 * 128;

/// Taylor terms per kernel evaluation (even: the loop takes two a step).
const TERMS: usize = 12;

/// `1/k!` for `k ≤ TERMS`: the Taylor coefficients' factorials.
const INV_FACT: [f64; TERMS + 1] = [
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
];

/// The error function `erf(x) = 2/√π ∫_0^x e^{−t²} dt`.
///
/// `erf(NaN) = NaN`, `erf(±inf) = ±1`.
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax < 1e-8 {
        // Leading series term, avoids the 0/0 in the gamma form at x = 0.
        return x * TWO_OVER_SQRT_PI;
    }
    let v = if ax * ax < 1.5 {
        gamma_p_raw(0.5, ax * ax)
    } else {
        1.0 - erfc_positive(ax)
    };
    if x >= 0.0 {
        v
    } else {
        -v
    }
}

/// The kernel's node table: `[erfc_reference(x_k), (2/√π)·e^{−x_k²}]` for
/// `x_k = k/128`, `k < NODES` (55 KB, built once on first use).
fn nodes() -> &'static [[f64; 2]; NODES] {
    static NODES_TABLE: OnceLock<Box<[[f64; 2]; NODES]>> = OnceLock::new();
    NODES_TABLE.get_or_init(|| {
        let table: Box<[[f64; 2]]> = (0..NODES)
            .map(|k| {
                let xk = k as f64 / NODES_PER_UNIT;
                [erfc_reference(xk), TWO_OVER_SQRT_PI * (-(xk * xk)).exp()]
            })
            .collect();
        table.try_into().expect("one row per node")
    })
}

/// `erfc(x)` for `x ≥ 1e-8`: the fast kernel.
///
/// With `x_k` the nearest node and `t = x_k − x` (exact, `|t| ≤ 1/256`),
///
/// ```text
/// erfc(x_k − t) = erfc(x_k) + (2/√π)·e^{−x_k²} · Σ_{n≥0} H_n(x_k)·t^{n+1}/(n+1)!
/// ```
///
/// from `erfc^{(n+1)}(x) = −(2/√π)(−1)^n H_n(x) e^{−x²}` and the Hermite
/// recurrence `H_{n+1} = 2x H_n − 2n H_{n−1}`, truncated after 12 terms
/// (the first omitted term is below `1e-18` relative for `|t| ≤ 1/256`). The
/// node values come from [`erfc_reference`] and `exp`; there are no
/// fitted constants. Past the last node (`x ≥ 26.996`, where the values
/// are subnormal) the same series runs from `x = 3455/128` with
/// `|t| < 1/128`, and `x ≥ 27` underflows to 0 as in the reference.
///
/// **Error budget** against [`erfc_reference`], checked over
/// `[−6, 27)` by the tests: relative error at most `24·(1 + 2x²)·ε`,
/// plus a few units of the smallest subnormal where the value is
/// subnormal. The `2x²` is the condition number of `erfc` at `x`:
/// rounding `x²` inside the reference alone moves it by that much. At
/// every node the kernel returns the reference value itself.
#[inline]
fn erfc_positive(x: f64) -> f64 {
    if x >= 27.0 {
        return 0.0;
    }
    let [erfc_k, dens_k, a, t] = nearest_node(nodes(), x);
    erfc_k + dens_k * taylor_sum([a], [t])[0]
}

/// The kernel's node nearest to `x ∈ [1e-8, 27)`:
/// `[erfc(x_k), (2/√π)·e^{−x_k²}, a = 2x_k, t = x_k − x]`.
#[inline(always)]
fn nearest_node(table: &[[f64; 2]; NODES], x: f64) -> [f64; 4] {
    // Nearest node; `x·128` is exact and `x ≥ 1e-8`, so the cast truncates
    // a non-negative value.
    let k = ((x * NODES_PER_UNIT + 0.5) as usize).min(NODES - 1);
    let [erfc_k, dens_k] = table[k];
    let xk = k as f64 / NODES_PER_UNIT;
    // Exact by Sterbenz's lemma (x and x_k are within a factor 2 for
    // k ≥ 1, and t = −x for k = 0).
    [erfc_k, dens_k, 2.0 * xk, xk - x]
}

/// The kernel's Taylor sum `Σ_{n<12} H_n(x_k)·t^{n+1}/(n+1)!` for
/// `a = 2x_k`, on `W` independent lanes. The scalar kernel is the
/// one-lane instance, and every lane runs its operations in its order,
/// so each rounds exactly as the scalar kernel does.
#[inline(always)]
fn taylor_sum<const W: usize>(a: [f64; W], t: [f64; W]) -> [f64; W] {
    // Two terms a step: the pair (H_n, H_{n+1}) advances to
    // (H_{n+2}, H_{n+3}) by
    //   H_{n+2} = a·H_{n+1} − 2(n+1)·H_n,
    //   H_{n+3} = (a² − 2(n+2))·H_{n+1} − 2(n+1)·a·H_n,
    // which halves the serial chain of the one-step recurrence.
    let t2 = t.map(|t| t * t);
    let (mut h0, mut h1) = ([1.0; W], a);
    let (mut p0, mut p1) = (t, t2);
    let (mut s0, mut s1) = ([0.0; W], [0.0; W]);
    for n in (0..TERMS).step_by(2) {
        let m = (2 * (n + 1)) as f64;
        for l in 0..W {
            s0[l] += h0[l] * p0[l] * INV_FACT[n + 1];
            s1[l] += h1[l] * p1[l] * INV_FACT[n + 2];
            (h0[l], h1[l]) = (
                a[l] * h1[l] - m * h0[l],
                (a[l] * a[l] - (m + 2.0)) * h1[l] - m * a[l] * h0[l],
            );
            p0[l] *= t2[l];
            p1[l] *= t2[l];
        }
    }
    let mut sum = [0.0; W];
    for l in 0..W {
        sum[l] = s0[l] + s1[l];
    }
    sum
}

/// Lanes per group of [`erfc_lanes`]: one AVX2 register of `f64`.
const GROUP: usize = 4;

/// Lanes of [`erfc_into`]'s kernel: two groups, whose independent
/// chains overlap.
const LANES: usize = 2 * GROUP;

/// [`erfc`] of each of `LANES` arguments, bit for bit. The special
/// values, the `|x| < 1e-8` branch and the reflection are chosen per
/// lane after the series instead of by branching before it; a lane
/// outside the kernel's domain `[1e-8, 27)` (NaN included) runs the
/// series at 1 and drops the result.
#[inline(always)]
fn erfc_lanes(x: [f64; LANES]) -> [f64; LANES] {
    let table = nodes();
    let ax = x.map(f64::abs);
    let mut node = [[0.0; 4]; LANES];
    for l in 0..LANES {
        let arg = if ax[l] >= 1e-8 && ax[l] < 27.0 {
            ax[l]
        } else {
            1.0
        };
        node[l] = nearest_node(table, arg);
    }
    let mut series = [0.0; LANES];
    for (node, series) in node.chunks_exact(GROUP).zip(series.chunks_exact_mut(GROUP)) {
        // The group's `a = 2x_k` and `t = x_k − x` columns.
        let a = std::array::from_fn(|l| node[l][2]);
        let t = std::array::from_fn(|l| node[l][3]);
        let sum = taylor_sum::<GROUP>(a, t);
        for (series, (&[erfc_k, dens_k, ..], sum)) in series.iter_mut().zip(node.iter().zip(sum)) {
            *series = erfc_k + dens_k * sum;
        }
    }
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        let tiny = 1.0 - ax[l] * TWO_OVER_SQRT_PI;
        let positive = if ax[l] >= 27.0 { 0.0 } else { series[l] };
        let v = if ax[l] < 1e-8 { tiny } else { positive };
        let reflected = 2.0 - v;
        let signed = if x[l] >= 0.0 { v } else { reflected };
        out[l] = if x[l].is_nan() { f64::NAN } else { signed };
    }
    out
}

/// [`erfc_into`] at whatever width the caller's target features allow:
/// the generic build (SSE2 on x86-64) where [`erfc_into`] calls it, AVX2
/// inside [`erfc_into_avx2`]. Runs whole groups of `LANES` points: the
/// last group ends at the last point and may overlap the one before it,
/// recomputing a few points with the same bits. Fewer than `LANES`
/// points are padded.
#[inline(always)]
fn erfc_into_lanes(xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    if n < LANES {
        let mut lanes = [0.0; LANES];
        lanes[..n].copy_from_slice(xs);
        out.copy_from_slice(&erfc_lanes(lanes)[..n]);
        return;
    }
    let starts = (0..n - LANES).step_by(LANES).chain([n - LANES]);
    for i in starts {
        let x = xs[i..i + LANES].try_into().expect("LANES points");
        out[i..i + LANES].copy_from_slice(&erfc_lanes(x));
    }
}

/// [`erfc_into`] on four-wide AVX2 registers. FMA stays disabled, so
/// no multiply-add is contracted and every lane rounds as the generic
/// build does.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn erfc_into_avx2(xs: &[f64], out: &mut [f64]) {
    erfc_into_lanes(xs, out)
}

/// [`erfc`] of every `xs[i]` into `out[i]`, with the same bits, eight
/// lanes at a time: the batch form for callers that evaluate many
/// arguments at once (a quadrature panel's checkpoint CDFs).
///
/// The width comes from the CPU alone: AVX2 where
/// `is_x86_feature_detected!` reports it, the generic build elsewhere.
/// Both run the scalar kernel's IEEE operations lane by lane in the
/// same order, with no fused multiply-add, so the answer does not
/// depend on the width.
///
/// # Panics
///
/// If `xs` and `out` differ in length.
pub fn erfc_into(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "erfc_into: one output per argument");
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked on the line above.
        unsafe { erfc_into_avx2(xs, out) };
        return;
    }
    erfc_into_lanes(xs, out)
}

/// The slow reference for `erfc(x)`, `x ≥ 1e-8`: the series
/// `1 − P(1/2, x²)` for `x² < 1.5`, the Lentz continued fraction for
/// `Q(1/2, x²)` up to `x < 27`, then 0.
fn erfc_positive_reference(x: f64) -> f64 {
    let z = x * x;
    if z < 1.5 {
        1.0 - gamma_p_raw(0.5, z)
    } else if x < 27.0 {
        // Q(1/2, x²) = prefactor · CF, prefactor = e^{−x²} x / √π.
        let h = gamma_q_cf_factor(0.5, z);
        (-z).exp() * x / SQRT_PI * h
    } else {
        0.0 // underflows below f64::MIN_POSITIVE around x ≈ 26.6
    }
}

/// `erfc(x)` with the positive branch `positive` (used for `x ≥ 1e-8`):
/// the special values and the reflection both [`erfc`] and
/// [`erfc_reference`] share.
#[inline(always)]
fn erfc_from(x: f64, positive: impl Fn(f64) -> f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    let v = if ax < 1e-8 {
        1.0 - ax * TWO_OVER_SQRT_PI
    } else {
        positive(ax)
    };
    if x >= 0.0 {
        v
    } else {
        // erfc(x) = 2 − erfc(−x); no cancellation since erfc(−x) ∈ (0, 1].
        2.0 - v
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Keeps full relative accuracy for large positive `x` until the result
/// underflows (near `x ≈ 26.6`). `erfc(-inf) = 2`, `erfc(+inf) = 0`.
/// Evaluated by the fast Taylor kernel described in the module docs:
/// within `24·(1 + 2x²)·ε` relative of [`erfc_reference`].
pub fn erfc(x: f64) -> f64 {
    erfc_from(x, erfc_positive)
}

/// The slow reference evaluation of [`erfc`]: `Q(1/2, x²)` through the
/// incomplete-gamma series (`x² < 1.5`) and Lentz continued fraction
/// (up to `x < 27`, 0 beyond). Its cost grows with the continued
/// fraction's length, which peaks for `x` between 1.3 and 2.
///
/// Same special values as [`erfc`]. It exists to check the fast kernel
/// against and to build the kernel's node table; the ziggurat sampler's
/// table area also uses it, so Normal draws never depend on the kernel.
pub fn erfc_reference(x: f64) -> f64 {
    erfc_from(x, erfc_positive_reference)
}

/// The scaled complementary error function `erfcx(x) = e^{x²} erfc(x)`.
///
/// Stays finite for arbitrarily large positive `x` (asymptotically
/// `1/(x√π)`); overflows for very negative `x` as the definition demands.
pub fn erfcx(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.0 {
        return 2.0 * (x * x).exp() - erfcx(-x);
    }
    let z = x * x;
    if z < 1.5 {
        return z.exp() * erfc(x);
    }
    // e^{x²} · e^{−x²} x/√π · CF = x·CF/√π, no exponentials at all.
    x * gamma_q_cf_factor(0.5, z) / SQRT_PI
}

/// Inverse complementary error function: the `x` with `erfc(x) = p`,
/// for `p ∈ (0, 2)`. Returns `±inf` at the endpoints `p = 0` / `p = 2`
/// and NaN outside `[0, 2]`.
pub fn inv_erfc(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=2.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::INFINITY;
    }
    if p == 2.0 {
        return f64::NEG_INFINITY;
    }
    // erfc(x) = p  <=>  Φ(−x√2) = p/2  <=>  x = −Φ⁻¹(p/2)/√2.
    -crate::normal::norm_quantile(0.5 * p) / std::f64::consts::SQRT_2
}

/// Inverse error function: the `x` with `erf(x) = y`, for `y ∈ (−1, 1)`.
/// Returns `±inf` at `y = ±1` and NaN outside `[−1, 1]`.
pub fn inv_erf(y: f64) -> f64 {
    if y.is_nan() || y.abs() > 1.0 {
        return f64::NAN;
    }
    if y == 1.0 {
        return f64::INFINITY;
    }
    if y == -1.0 {
        return f64::NEG_INFINITY;
    }
    if y >= 0.0 {
        inv_erfc(1.0 - y)
    } else {
        -inv_erfc(1.0 + y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values (mpmath, 30 digits, rounded to f64).
    const ERF_REFS: &[(f64, f64)] = &[
        (0.0, 0.0),
        (1e-10, 1.1283791670955126e-10),
        (0.1, 0.1124629160182849),
        (0.5, 0.5204998778130465),
        (0.84375, 0.7672256612323421), // independently cross-checked via Taylor series
        (1.0, 0.8427007929497149),
        (1.25, 0.9229001282564582),
        (2.0, 0.9953222650189527),
        (3.0, 0.9999779095030014),
        (5.0, 0.9999999999984626),
    ];

    const ERFC_REFS: &[(f64, f64)] = &[
        (0.5, 0.4795001221869535),
        (1.0, 0.15729920705028513),
        (2.0, 0.004677734981063127),
        (3.0, 2.209_049_699_858_544e-5),
        (5.0, 1.537_459_794_428_035e-12),
        (10.0, 2.0884875837625447e-45),
        (20.0, 5.3958656116079005e-176),
        (-1.0, 1.8427007929497148),
        (-3.0, 1.9999779095030015),
    ];

    #[test]
    fn erf_matches_reference() {
        for &(x, want) in ERF_REFS {
            let got = erf(x);
            assert!(
                (got - want).abs() <= 1e-15 + 1e-13 * want.abs(),
                "erf({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erfc_matches_reference() {
        for &(x, want) in ERFC_REFS {
            let got = erfc(x);
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-11, "erfc({x}) = {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn erf_is_odd() {
        for &x in &[0.01, 0.3, 0.9, 1.1, 2.5, 4.0] {
            assert_eq!(erf(x), -erf(-x));
        }
    }

    #[test]
    fn erf_erfc_complement() {
        for i in 0..200 {
            let x = -5.0 + 0.05 * i as f64;
            let s = erf(x) + erfc(x);
            assert!((s - 1.0).abs() < 1e-14, "x={x}, erf+erfc={s}");
        }
    }

    #[test]
    fn erf_continuity_at_branch_switch() {
        // Branch switch at x² = 1.5 (x ≈ 1.2247).
        let a = erf(1.224744871);
        let b = erf(1.224744872);
        assert!((a - b).abs() < 1e-9, "discontinuity {}", (a - b).abs());
        // The erfc kernel switches nodes at every (k + ½)/128: the two
        // expansions must agree there to within the budget (the true step
        // between adjacent floats is ~2x² ulps, inside the allowance).
        for k in 0..NODES - 1 {
            let mid = (k as f64 + 0.5) / NODES_PER_UNIT;
            let below = f64::from_bits(mid.to_bits() - 1);
            let (a, b) = (erfc(below), erfc(mid));
            assert!(
                (a - b).abs() <= allowance(mid, b),
                "jump at x = {mid}: {a:e} vs {b:e}"
            );
        }
    }

    #[test]
    fn erf_limits() {
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert!(erf(f64::NAN).is_nan());
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn erfcx_matches_definition_moderate_x() {
        for &x in &[0.0f64, 0.5, 1.0, 2.0, 3.0, 5.0] {
            let want = (x * x).exp() * erfc(x);
            let got = erfcx(x);
            let rel = if want != 0.0 {
                ((got - want) / want).abs()
            } else {
                got.abs()
            };
            assert!(rel < 1e-12, "erfcx({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erfcx_large_x_asymptotic() {
        // erfcx(x) ~ 1/(x√π) (1 − 1/(2x²) + ...).
        let x = 1e6;
        let got = erfcx(x);
        let lead = 1.0 / (x * SQRT_PI);
        assert!(((got - lead) / lead).abs() < 1e-9);
    }

    #[test]
    fn erfcx_negative() {
        let x = -1.0f64;
        let want = (x * x).exp() * erfc(x);
        assert!(((erfcx(x) - want) / want).abs() < 1e-12);
    }

    #[test]
    fn inv_erf_round_trip() {
        for i in 1..100 {
            let y = -0.99 + 0.02 * i as f64;
            let x = inv_erf(y);
            assert!(
                (erf(x) - y).abs() < 1e-12,
                "inv_erf({y}) = {x}, erf back = {}",
                erf(x)
            );
        }
    }

    #[test]
    fn inv_erfc_round_trip_small_p() {
        for &p in &[1e-300, 1e-100, 1e-20, 1e-10, 1e-3, 0.5, 1.0, 1.5, 1.999] {
            let x = inv_erfc(p);
            let back = erfc(x);
            let rel = ((back - p) / p).abs();
            assert!(rel < 1e-10, "inv_erfc({p}) = {x}, erfc back = {back}");
        }
    }

    #[test]
    fn inv_erf_edge_cases() {
        assert_eq!(inv_erf(1.0), f64::INFINITY);
        assert_eq!(inv_erf(-1.0), f64::NEG_INFINITY);
        assert!(inv_erf(1.5).is_nan());
        assert!(inv_erfc(-0.1).is_nan());
        assert_eq!(inv_erfc(1.0), 0.0);
    }

    /// The `24` of the kernel's error budget `24·(1 + 2x²)·ε`.
    const ERFC_BUDGET: f64 = 24.0;

    /// Eight units of the smallest positive subnormal (the literal
    /// `5e-324` rounds to it): the absolute slack allowed where the
    /// reference itself is subnormal (x ≳ 26.55) and relative error has
    /// no meaning.
    const SUBNORMAL_SLACK: f64 = 8.0 * 5e-324;

    /// The kernel's allowance at `x` around a reference value `r`.
    fn allowance(x: f64, r: f64) -> f64 {
        ERFC_BUDGET * (1.0 + 2.0 * x * x) * f64::EPSILON * r.abs() + SUBNORMAL_SLACK
    }

    fn slow_tests() -> bool {
        std::env::var("RESQ_SLOW_TESTS")
            .map(|v| v == "1")
            .unwrap_or(false)
    }

    /// Sweeps `n` points of a golden-ratio sequence over `[−6, 27)`
    /// against the reference, and every width of [`erfc_into`] against
    /// [`erfc`]'s bits at the same points; returns the largest error as
    /// a multiple of the allowance.
    fn budget_sweep(n: u64) -> f64 {
        const PHI_FRAC: f64 = 0.618_033_988_749_894_9;
        const BLOCK: u64 = 4096;
        let mut worst: f64 = 0.0;
        let mut xs = Vec::with_capacity(BLOCK as usize);
        for start in (0..n).step_by(BLOCK as usize) {
            xs.clear();
            for i in start..(start + BLOCK).min(n) {
                let u = (0.5 + i as f64 * PHI_FRAC).fract();
                let x = -6.0 + 33.0 * u;
                let (got, want) = (erfc(x), erfc_reference(x));
                let ratio = (got - want).abs() / allowance(x, want);
                assert!(
                    ratio <= 1.0,
                    "erfc({x:e}) = {got:e}, reference {want:e}: {ratio} x the budget"
                );
                worst = worst.max(ratio);
                xs.push(x);
            }
            assert_lanes_match(&xs);
        }
        worst
    }

    /// One width of [`erfc_into`], by name.
    type Width = (&'static str, fn(&[f64], &mut [f64]));

    /// Every width of [`erfc_into`] this CPU runs: the generic build,
    /// AVX2 where the CPU has it, and the dispatched entry.
    fn widths() -> Vec<Width> {
        let mut widths: Vec<Width> = vec![("generic", erfc_into_lanes), ("dispatched", erfc_into)];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            widths.push(("avx2", |xs, out| {
                // SAFETY: pushed only where the CPU supports AVX2.
                unsafe { erfc_into_avx2(xs, out) }
            }));
        }
        widths
    }

    /// Asserts that every width of [`erfc_into`] gives [`erfc`]'s bits
    /// at every point of `xs`.
    fn assert_lanes_match(xs: &[f64]) {
        let mut out = vec![0.0; xs.len()];
        for (width, erfc_into) in widths() {
            erfc_into(xs, &mut out);
            for (&x, &got) in xs.iter().zip(&out) {
                assert_eq!(
                    got.to_bits(),
                    erfc(x).to_bits(),
                    "{width}: erfc_into at {x:e} ({:#018x}) gave {got:e}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn erfc_kernel_meets_budget_against_reference() {
        // 10⁵ points in the default tier, 10⁷ under RESQ_SLOW_TESTS.
        let n = if slow_tests() { 10_000_000 } else { 100_000 };
        let worst = budget_sweep(n);
        eprintln!("erfc kernel: worst error {worst:.3} x budget over {n} points");
    }

    #[test]
    fn erfc_into_gives_erfc_bits_at_every_width() {
        // Special values and the edges of every branch.
        let edge = |x: f64| {
            [
                x,
                f64::from_bits(x.to_bits() - 1),
                f64::from_bits(x.to_bits() + 1),
            ]
        };
        let mut xs = vec![
            0.0,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0 / 256.0,
            26.99,
        ];
        xs.extend(edge(1e-8));
        xs.extend(edge(27.0));
        xs.extend(edge(1.0));
        let nodes = (0..NODES).map(|k| k as f64 / NODES_PER_UNIT);
        let mids = (0..NODES).map(|k| (k as f64 + 0.5) / NODES_PER_UNIT);
        xs.extend(nodes.chain(mids));
        xs.extend(xs.clone().into_iter().map(|x| -x));
        // A dense sweep of [−30, 30] and random bit patterns.
        xs.extend((0..1_000_000).map(|i| -30.0 + 6e-5 * i as f64));
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        xs.extend((0..1_000_000).map(|_| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            f64::from_bits(z ^ (z >> 31))
        }));
        assert_lanes_match(&xs);
        // Every length from 0 to 3·LANES + 1 at several offsets, so the
        // padded, whole and overlapping groups all run.
        for n in 0..=3 * LANES + 1 {
            for offset in [0, 1, 5, 11] {
                assert_lanes_match(&xs[offset..offset + n]);
            }
        }
    }

    #[test]
    fn erfc_kernel_is_the_reference_at_every_node() {
        // At a node the Taylor offset is exactly 0, so the kernel returns
        // the tabulated reference value itself.
        for k in 1..NODES {
            let xk = k as f64 / NODES_PER_UNIT;
            assert_eq!(
                erfc(xk).to_bits(),
                erfc_reference(xk).to_bits(),
                "x_k = {xk}"
            );
            assert_eq!(
                erfc(-xk).to_bits(),
                erfc_reference(-xk).to_bits(),
                "x_k = -{xk}"
            );
        }
    }

    #[test]
    fn erfc_special_values() {
        for f in [erfc, erfc_reference] {
            assert!(f(f64::NAN).is_nan());
            assert_eq!(f(f64::INFINITY), 0.0);
            assert_eq!(f(f64::NEG_INFINITY), 2.0);
            assert_eq!(f(0.0), 1.0);
            assert_eq!(f(-0.0), 1.0);
            // The x < 1e-8 branch: leading series term, on both sides.
            assert_eq!(f(1e-9), 1.0 - 1e-9 * TWO_OVER_SQRT_PI);
            assert_eq!(f(-1e-9), 2.0 - (1.0 - 1e-9 * TWO_OVER_SQRT_PI));
            // Underflow to 0 at x = 27; subnormal but positive just below.
            assert_eq!(f(27.0), 0.0);
            assert_eq!(f(40.0), 0.0);
            assert_eq!(f(-27.0), 2.0);
            let tail = f(26.99);
            assert!(
                tail > 0.0 && tail < f64::MIN_POSITIVE,
                "erfc(26.99) = {tail:e}"
            );
        }
    }

    #[test]
    fn erfc_reflection_sums_to_two() {
        for i in 0..4000 {
            let x = 0.007 * i as f64;
            let s = erfc(x) + erfc(-x);
            assert!((s - 2.0).abs() <= 2.0 * f64::EPSILON, "x = {x}: {s}");
        }
    }
}
