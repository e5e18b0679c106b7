//! Trait hierarchy shared by every law in this crate.

use rand::RngCore;

/// Moments common to all distributions.
pub trait Distribution {
    /// Expected value.
    fn mean(&self) -> f64;
    /// Variance.
    fn variance(&self) -> f64;
    /// Standard deviation, `sqrt(variance)`.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// A continuous law on (a subset of) the real line.
///
/// Implementations must satisfy, up to numerical tolerance:
/// `cdf` non-decreasing with limits 0/1 at the support bounds,
/// `pdf ≥ 0`, and `quantile(cdf(x)) = x` on the interior of the support.
pub trait Continuous: Distribution {
    /// Probability density at `x` (0 outside the support).
    fn pdf(&self, x: f64) -> f64;
    /// `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;
    /// [`Continuous::cdf`] of every `xs[i]` into `out[i]`, with the same
    /// bits; `xs` and `out` have the same length. The default is the
    /// per-point loop. A law whose CDF goes through `erfc` overrides it
    /// with one [`resq_specfun::erfc_into`] call, so a caller holding
    /// many points at once (a quadrature panel) gets them on lanes.
    fn cdf_into(&self, xs: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.cdf(x);
        }
    }
    /// `inf { x : cdf(x) ≥ p }` for `p ∈ [0, 1]`.
    fn quantile(&self, p: f64) -> f64;
    /// Support as `(lower, upper)` (may be infinite).
    fn support(&self) -> (f64, f64);
    /// Survival function `P(X > x)`; override when a tail-accurate form
    /// exists.
    fn sf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }
    /// Natural log of the density, for likelihood computations.
    fn ln_pdf(&self, x: f64) -> f64 {
        self.pdf(x).ln()
    }
    /// Partial expectation `E[X·1{X ≤ x}] = ∫_{−∞}^x t·pdf(t) dt`, when
    /// the law has a closed form for it; `None` otherwise, and callers
    /// integrate `t·pdf(t)` themselves.
    fn partial_mean(&self, _x: f64) -> Option<f64> {
        None
    }
    /// Upper partial expectation `E[X·1{X > x}]`: `mean − partial_mean`
    /// unless overridden. Override when a tail-accurate form exists, as
    /// for [`Continuous::sf`].
    fn upper_partial_mean(&self, x: f64) -> Option<f64> {
        self.partial_mean(x).map(|m| self.mean() - m)
    }
}

/// A discrete law on the non-negative integers.
pub trait Discrete: Distribution {
    /// Probability mass at `k`.
    fn pmf(&self, k: u64) -> f64;
    /// `P(X ≤ k)`.
    fn cdf(&self, k: u64) -> f64;
    /// Smallest `k` with `cdf(k) ≥ p`.
    fn quantile(&self, p: f64) -> u64;
    /// Natural log of the mass, for likelihood computations.
    fn ln_pmf(&self, k: u64) -> f64 {
        self.pmf(k).ln()
    }
}

/// Object-safe random variate generation.
///
/// Takes `&mut dyn RngCore` so policies and simulators can hold boxed
/// distributions; discrete laws return their value as `f64` for a uniform
/// interface (the paper treats Poisson task durations as real work
/// amounts too).
pub trait Sample {
    /// Draws one variate.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Draws `n` variates into a fresh vector.
    fn sample_vec(&self, rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Fills `out` with variates — the one batch entry point, used by the
    /// Monte-Carlo kernels.
    ///
    /// Generic over the generator so a caller holding a *concrete* RNG
    /// gets a fully inlined kernel — no per-draw virtual dispatch,
    /// generator state kept in registers across the whole block; callers
    /// holding a trait object pass `R = dyn RngCore`. The `Self: Sized`
    /// bound keeps the trait object-safe by excluding this method from
    /// the vtable.
    ///
    /// Contract: the batch is bit-identical to `out.len()` repeated
    /// [`Sample::sample`] calls on the same stream and leaves the
    /// generator at the same position (*draw-order preserving*), for any
    /// `R`. The default implementation is that loop; specialized kernels
    /// only reorganize the work. `tests/batch_contract.rs` checks every
    /// sampler in this crate.
    #[inline]
    fn sample_batch_mono<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64])
    where
        Self: Sized,
    {
        let mut rng = rng;
        for slot in out.iter_mut() {
            *slot = self.sample(&mut rng);
        }
    }
}

/// Uniform `[0, 1)` draw, the basic building block of all samplers in
/// this crate (53-bit mantissa method). Generic over the generator so
/// monomorphized kernels inline it; `R = dyn RngCore` works too.
#[inline]
pub(crate) fn uniform01<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 53 random mantissa bits / 2^53, in [0, 1).
    (rng.next_u64() >> 11) as f64 * (1.0 / 9007199254740992.0)
}

/// Uniform `(0, 1]` draw, safe for logarithms.
#[inline]
pub(crate) fn uniform01_open_left<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    1.0 - uniform01(rng)
}

/// Converts one 64-bit word to a `[0, 1)` uniform exactly like
/// [`uniform01`] does.
#[inline]
pub(crate) fn u64_to_uniform01(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / 9007199254740992.0)
}

/// Fills `out` with `[0, 1)` uniforms, fetching the underlying 64-bit
/// words through `fill_bytes` in blocks so a batch costs one virtual RNG
/// call per [`UNIFORM_BLOCK`] draws instead of one per draw.
///
/// Every RNG in this crate implements `fill_bytes` as little-endian
/// packed `next_u64` words (see [`crate::rng::rand_core_fill`]), and each
/// block is a whole number of words, so the words consumed — and hence
/// the uniforms produced — are bit-identical to repeated [`uniform01`]
/// calls: this helper is draw-order preserving.
pub(crate) fn fill_uniform01<R: RngCore + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut bytes = [0u8; UNIFORM_BLOCK * 8];
    for chunk in out.chunks_mut(UNIFORM_BLOCK) {
        let buf = &mut bytes[..chunk.len() * 8];
        rng.fill_bytes(buf);
        for (slot, word) in chunk.iter_mut().zip(buf.chunks_exact(8)) {
            *slot = u64_to_uniform01(u64::from_le_bytes(word.try_into().unwrap()));
        }
    }
}

/// Words per `fill_bytes` call in [`fill_uniform01`]; bounds the stack
/// buffer while keeping the virtual-call amortization near its asymptote.
pub(crate) const UNIFORM_BLOCK: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn uniform01_in_range() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let u = uniform01(&mut rng);
            assert!((0.0..1.0).contains(&u));
            let v = uniform01_open_left(&mut rng);
            assert!(v > 0.0 && v <= 1.0);
        }
    }

    #[test]
    fn fill_uniform01_matches_scalar_draws_bitwise() {
        use crate::rng::Xoshiro256pp;
        // Cross a block boundary (64) and a partial tail.
        for n in [0usize, 1, 7, 63, 64, 65, 200] {
            let mut a = Xoshiro256pp::new(12345);
            let mut b = Xoshiro256pp::new(12345);
            let mut batch = vec![0.0f64; n];
            fill_uniform01(&mut a, &mut batch);
            let scalar: Vec<f64> = (0..n).map(|_| uniform01(&mut b)).collect();
            assert_eq!(batch, scalar, "n = {n}");
            // Both RNGs must be left at the same stream position.
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniform01_mean_near_half() {
        let mut rng = SplitMix64::new(7);
        let n = 100_000;
        let s: f64 = (0..n).map(|_| uniform01(&mut rng)).sum();
        let mean = s / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }
}
