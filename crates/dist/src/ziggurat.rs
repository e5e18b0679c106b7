//! Ziggurat sampler for the standard Normal (Marsaglia & Tsang 2000,
//! Doornik's 256-layer parameterization) — the single Normal kernel
//! behind every Gaussian draw in this crate since the PR-10 throughput
//! engine: `Normal`/`LogNormal` scalar *and* batch paths, the
//! truncated-Normal rejection kernel's parent draws, and the
//! Marsaglia–Tsang Gamma squeeze all consume it.
//!
//! # Construction
//!
//! The unnormalized density `f(x) = exp(−x²/2)` on `[0, ∞)` is covered
//! by `N = 256` equal-area regions: the base region (the rectangle
//! `[0, R] × [0, f(R)]` plus the entire tail `x > R`) and 255 stacked
//! rectangles `[0, x_i] × [f(x_i), f(x_{i+1})]`. With
//! `R = 3.6541528853610088` the common area is
//!
//! ```text
//! V = R·f(R) + ∫_R^∞ f(t) dt = R·f(R) + √(2π)·Φ̄(R) ≈ 4.92867323·10⁻³
//! ```
//!
//! and the layer edges follow from the recurrence
//! `x_{i+1} = f⁻¹(f(x_i) + V/x_i)` seeded with `x_1 = R` (plus the
//! virtual base width `x_0 = V/f(R)`). The table-closure test below
//! pins `f(x_255) + V/x_255 = f(0) = 1` to machine precision, which is
//! the statement that the 256 areas exactly exhaust the density — the
//! one equation that makes the sampler exact rather than approximate.
//!
//! # Per-draw cost and exhaustive tail handling
//!
//! One `u64` provides the layer index (8 bits), the sign (1 bit) and a
//! 53-bit mantissa uniform. ≈ 98.9% of draws accept immediately with
//! one compare and one multiply — no `ln`, no `sqrt`, no division
//! (the polar method this replaced paid `ln + sqrt` per accepted pair
//! and rejected ≈ 21.5% of candidate points). The two slow paths are
//! *exact*, not truncations:
//!
//! * **wedge** (`x_{i+1} ≤ x < x_i`): accept iff a fresh uniform height
//!   in `[f(x_i), f(x_{i+1})]` lands under `f(x)`;
//! * **tail** (`x > R`, probability `√(2π)·Φ̄(R)/ (2·256·V)` ≈ 1/9418
//!   per draw): Marsaglia's exact tail method — `x = −ln(u₁)/R`,
//!   `y = −ln(u₂)`, accept `R + x` iff `2y > x²` — whose accepted
//!   values have exactly the conditional law of `|Z|` given `|Z| > R`,
//!   for *every* `x` down the tail (no cutoff). Open-interval uniforms
//!   keep `ln` finite, so no input word can produce `±inf`/NaN.
//!
//! Every draw consumes a deterministic function of the RNG stream, so
//! the kernel is draw-order preserving by construction: batch fills
//! call the same per-draw routine and are bit-identical to scalar
//! loops on the same stream (proved in tests here and in
//! `tests/determinism.rs`).

use crate::traits::{u64_to_uniform01, uniform01_open_left};
use rand::RngCore;
use std::sync::OnceLock;

/// Number of equal-area regions (one base + `N_LAYERS − 1` rectangles).
const N_LAYERS: usize = 256;

/// Right edge of the base rectangle: the classic 256-layer value.
pub(crate) const R_TAIL: f64 = 3.654_152_885_361_009;

/// Ziggurat tables: `x[i]` layer edges (descending, `x[0]` is the
/// virtual base width `V/f(R)`, `x[256] = 0`) and `f[i] = exp(−x[i]²/2)`
/// (ascending to `f[256] = 1`).
pub(crate) struct Tables {
    pub(crate) x: [f64; N_LAYERS + 1],
    pub(crate) f: [f64; N_LAYERS + 1],
    /// Common region area `V` (kept for the closure test).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) v: f64,
}

/// Unnormalized standard-Normal density `exp(−x²/2)`.
#[inline]
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Inverse of [`density`] on `[0, ∞)`: `sqrt(−2 ln y)`.
#[inline]
fn density_inv(y: f64) -> f64 {
    (-2.0 * y.ln()).sqrt()
}

fn build_tables() -> Tables {
    // V = R·f(R) + √(2π)·Φ̄(R): rectangle part plus exact tail mass, with
    // Φ̄(R) = erfc(R/√2)/2 from the reference evaluation, so the table (and
    // every Normal draw) does not move with the fast `erfc` kernel.
    let f_r = density(R_TAIL);
    let tail = 0.5 * resq_specfun::erfc_reference(R_TAIL / resq_specfun::SQRT_2);
    let v = R_TAIL * f_r + resq_specfun::SQRT_2PI * tail;
    let mut x = [0.0f64; N_LAYERS + 1];
    let mut f = [0.0f64; N_LAYERS + 1];
    x[0] = v / f_r; // virtual base width: P(tail branch | i = 0) = 1 − R/x[0]
    x[1] = R_TAIL;
    for i in 1..N_LAYERS - 1 {
        // Next edge up: f(x_{i+1}) = f(x_i) + V/x_i.
        x[i + 1] = density_inv(density(x[i]) + v / x[i]);
    }
    x[N_LAYERS] = 0.0;
    for i in 0..=N_LAYERS {
        f[i] = density(x[i]);
    }
    Tables { x, f, v }
}

/// The process-wide tables; built once, deterministically, from `R_TAIL`.
pub(crate) fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

/// One draw against already-resolved tables — the batch kernel hoists
/// the [`tables()`] lookup (an atomic-acquire `OnceLock` probe) out of
/// its loop and calls this directly; measured at roughly 2× the
/// throughput of re-probing per draw.
#[inline(always)]
fn standard_normal_with<R: RngCore + ?Sized>(t: &Tables, rng: &mut R) -> f64 {
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xFF) as usize;
        // Sign applied branchlessly: every candidate below is ≥ 0, so
        // OR-ing bit 8 of the draw word into the IEEE sign bit negates
        // exactly when the sign bit is set — no select, no multiply.
        let sign_bit = (bits & 0x100) << 55;
        // 53-bit mantissa uniform in [0, 1); bit-compatible with
        // `uniform01`'s construction but carved from the same word as
        // the layer index (disjoint bits), so a draw usually costs one
        // RNG word total.
        let u = u64_to_uniform01(bits);
        let x = u * t.x[i];
        if x < t.x[i + 1] {
            // Strictly inside layer i's rectangle-under-the-curve part.
            return f64::from_bits(x.to_bits() | sign_bit);
        }
        if i == 0 {
            // Base region, outside the [0, R] rectangle: exact tail.
            loop {
                let u1 = uniform01_open_left(rng);
                let u2 = uniform01_open_left(rng);
                let xt = -u1.ln() / R_TAIL;
                let yt = -u2.ln();
                if 2.0 * yt > xt * xt {
                    return f64::from_bits((R_TAIL + xt).to_bits() | sign_bit);
                }
            }
        }
        // Wedge: uniform height in [f(x_i), f(x_{i+1})] under f(x)?
        let u2 = u64_to_uniform01(rng.next_u64());
        if t.f[i] + u2 * (t.f[i + 1] - t.f[i]) < density(x) {
            return f64::from_bits(x.to_bits() | sign_bit);
        }
    }
}

/// One standard-Normal variate by the ziggurat method.
///
/// Draw-order preserving contract: consumes exactly one `u64` on the
/// ≈ 98.9% fast path, one more per wedge test, and two per tail
/// attempt — a pure function of the stream, independent of batch size
/// or scheduling.
#[inline]
pub(crate) fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    standard_normal_with(tables(), rng)
}

/// Fills `out` with standard-Normal variates; bit-identical to
/// `out.len()` scalar [`standard_normal`] calls on the same stream (the
/// table pointer is hoisted, the per-draw stream consumption is not
/// changed).
#[inline]
pub(crate) fn fill_standard_normal<R: RngCore + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let t = tables();
    for slot in out.iter_mut() {
        *slot = standard_normal_with(t, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn table_closure_exhausts_the_density() {
        // The recurrence must climb exactly to f(0) = 1: the 255th
        // rectangle's top edge is f(x_255) + V/x_255 and the construction
        // is exact iff that equals 1. This pins R_TAIL and V jointly —
        // a wrong constant in either shows up here as a closure gap.
        let t = tables();
        let top = density(t.x[N_LAYERS - 1]) + t.v / t.x[N_LAYERS - 1];
        assert!(
            (top - 1.0).abs() < 1e-8,
            "ziggurat closure gap: f(x_255) + V/x_255 = {top}"
        );
        assert_eq!(t.x[N_LAYERS], 0.0);
        assert_eq!(t.f[N_LAYERS], 1.0);
    }

    #[test]
    fn table_area_is_pinned_to_its_bits() {
        // V fixes every layer edge, so its bits fix every Normal draw:
        // the Fig. 8 goldens and the Monte-Carlo references depend on
        // this value, computed through `erfc_reference`.
        let v = tables().v;
        assert_eq!(v.to_bits(), 0x3f74_3016_a5a4_3735, "V = {v:e}");
    }

    #[test]
    fn table_shape_invariants() {
        let t = tables();
        for i in 0..N_LAYERS {
            assert!(t.x[i] > t.x[i + 1], "x not strictly descending at {i}");
            assert!(t.f[i] < t.f[i + 1], "f not strictly ascending at {i}");
        }
        // Every finite layer has the common area V.
        for i in 1..N_LAYERS {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!(
                (area - t.v).abs() < 1e-15,
                "layer {i} area {area} != V {}",
                t.v
            );
        }
        // Virtual base width covers the tail: x[0] = V/f(R) > R.
        assert!(t.x[0] > R_TAIL);
        assert!((t.x[0] * t.f[1] - t.v).abs() < 1e-16 * 10.0);
    }

    #[test]
    fn draws_are_deterministic_and_batch_matches_scalar() {
        let mut a = Xoshiro256pp::new(2024);
        let mut b = Xoshiro256pp::new(2024);
        let scalar: Vec<f64> = (0..10_000).map(|_| standard_normal(&mut a)).collect();
        let mut batch = vec![0.0f64; 10_000];
        fill_standard_normal(&mut b, &mut batch);
        assert_eq!(scalar, batch);
        // Both RNGs sit at the same stream position afterwards.
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn moments_and_symmetry() {
        let mut rng = Xoshiro256pp::new(7);
        let n = 400_000;
        let (mut sum, mut sum2, mut sum3) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            assert!(z.is_finite());
            sum += z;
            sum2 += z * z;
            sum3 += z * z * z;
        }
        let m = sum / n as f64;
        let v = sum2 / n as f64 - m * m;
        let skew = sum3 / n as f64;
        assert!(m.abs() < 0.01, "mean {m}");
        assert!((v - 1.0).abs() < 0.01, "variance {v}");
        assert!(skew.abs() < 0.03, "third moment {skew}");
    }

    #[test]
    fn tail_region_has_exact_mass_and_law() {
        // Exhaustive tail handling: the fraction of |Z| beyond R must
        // match 2·Φ̄(R), and the exceedances must follow the conditional
        // tail law (checked through its quartiles).
        let mut rng = Xoshiro256pp::new(99);
        let n = 4_000_000u64;
        let mut tail: Vec<f64> = Vec::new();
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            if z.abs() > R_TAIL {
                tail.push(z.abs());
            }
        }
        let want_p = 2.0 * resq_specfun::norm_sf(R_TAIL);
        let got_p = tail.len() as f64 / n as f64;
        // Binomial std error ≈ sqrt(p/n) ≈ 8e-6; allow 4σ.
        assert!(
            (got_p - want_p).abs() < 4.0 * (want_p / n as f64).sqrt(),
            "tail mass {got_p} vs {want_p} ({} exceedances)",
            tail.len()
        );
        assert!(tail.len() > 300, "not enough tail samples to test the law");
        tail.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let sf_r = resq_specfun::norm_sf(R_TAIL);
        for &q in &[0.25f64, 0.5, 0.75] {
            // Conditional quantile: Φ̄(x) = (1 − q)·Φ̄(R).
            let want = resq_specfun::norm_quantile(1.0 - (1.0 - q) * sf_r);
            let got = tail[((q * tail.len() as f64) as usize).min(tail.len() - 1)];
            assert!(
                (got - want).abs() < 0.05,
                "tail quartile {q}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn no_input_word_pattern_panics_or_escapes_support() {
        // Adversarial stream: an RNG that replays extreme words (all
        // zeros / all ones patterns push u to the edges of every layer).
        struct Replay {
            words: Vec<u64>,
            i: usize,
        }
        impl rand::RngCore for Replay {
            fn next_u32(&mut self) -> u32 {
                (self.next_u64() >> 32) as u32
            }
            fn next_u64(&mut self) -> u64 {
                let len = self.words.len();
                let w = self.words[self.i % len];
                self.i += 1;
                // Perturb so the tail loop cannot cycle forever on a
                // rejecting pair.
                self.words[self.i % len] = w
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(self.i as u64);
                w
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                for chunk in dest.chunks_mut(8) {
                    let b = self.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&b[..chunk.len()]);
                }
            }
            fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
                self.fill_bytes(dest);
                Ok(())
            }
        }
        let mut rng = Replay {
            words: vec![0, u64::MAX, 0x100, 0xFF, u64::MAX << 11, (1u64 << 11) - 1],
            i: 0,
        };
        for _ in 0..10_000 {
            let z = standard_normal(&mut rng);
            assert!(z.is_finite(), "non-finite draw {z}");
        }
    }
}
