//! Lattice memoization for repeated scalar-function evaluation.
//!
//! The §4.2 static-strategy search evaluates the same checkpoint-fit
//! probability `c ↦ P(C ≤ c)` at hundreds of quadrature nodes for every
//! candidate task count `y`, even though the function itself never
//! changes across the search. [`LatticeCache`] precomputes it once on a
//! uniform lattice and serves reads by linear interpolation — turning
//! the per-node cost from a full CDF evaluation (for the paper's
//! truncated-Normal laws: an `erfc`-based tail computation) into two
//! table reads and a multiply.
//!
//! This is a *search-phase* accelerator: interpolation error is bounded
//! by `h²·max|f″|/8` (`h` the lattice step), plenty to locate an optimum
//! but not a substitute for exact evaluation. Callers re-evaluate the
//! exact objective at the winner — see `StaticStrategy::optimize`.

/// A scalar function tabulated on a uniform lattice over `[a, b]`,
/// evaluated by linear interpolation (clamped to the endpoint values
/// outside the interval).
#[derive(Debug, Clone)]
pub struct LatticeCache {
    a: f64,
    b: f64,
    inv_h: f64,
    values: Vec<f64>,
}

impl LatticeCache {
    /// Tabulates `f` at `n + 1` equally spaced points spanning `[a, b]`.
    ///
    /// # Panics
    /// If `a < b` does not hold, either bound is non-finite, or `n == 0`.
    pub fn build(mut f: impl FnMut(f64) -> f64, a: f64, b: f64, n: usize) -> Self {
        assert!(a < b && a.is_finite() && b.is_finite(), "bad interval [{a}, {b}]");
        assert!(n > 0, "lattice needs at least one cell");
        let h = (b - a) / n as f64;
        let values = (0..=n)
            .map(|i| {
                // Hit `b` exactly on the last node despite rounding.
                let x = if i == n { b } else { a + i as f64 * h };
                f(x)
            })
            .collect();
        Self {
            a,
            b,
            inv_h: n as f64 / (b - a),
            values,
        }
    }

    /// Interpolated value at `x`; clamps to the tabulated endpoint values
    /// outside `[a, b]`.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        if x <= self.a {
            return self.values[0];
        }
        if x >= self.b {
            return self.values[self.values.len() - 1];
        }
        let t = (x - self.a) * self.inv_h;
        let i = (t as usize).min(self.values.len() - 2);
        let frac = t - i as f64;
        self.values[i] + frac * (self.values[i + 1] - self.values[i])
    }

    /// Number of lattice cells (`n` from [`LatticeCache::build`]).
    pub fn cells(&self) -> usize {
        self.values.len() - 1
    }

    /// The saturation nodes `(zero, one)` of a tabulated probability:
    /// `zero` is the last node of the leading run of nodes whose value is
    /// exactly 0, `one` the first node of the trailing run whose value is
    /// exactly 1. Interpolating between two equal nodes returns their
    /// value, so [`LatticeCache::eval`] is 0 on `[a, zero]` and 1 on
    /// `[one, b]` (at `zero` and `one` themselves, up to the rounding of
    /// `x` onto the lattice). Either is `None` when the first (last)
    /// node is not exactly 0 (1).
    pub fn saturation_nodes(&self) -> (Option<f64>, Option<f64>) {
        let n = self.cells();
        let zeros = self.values.iter().take_while(|&&v| v == 0.0).count();
        let ones = self.values.iter().rev().take_while(|&&v| v == 1.0).count();
        let zero = (zeros > 0).then(|| self.node(zeros - 1));
        let one = (ones > 0).then(|| self.node(n + 1 - ones));
        (zero, one)
    }

    /// Abscissa of node `i`, as [`LatticeCache::build`] placed it.
    fn node(&self, i: usize) -> f64 {
        let n = self.cells();
        if i == n {
            self.b
        } else {
            self.a + i as f64 * ((self.b - self.a) / n as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_nodes_and_linear_between() {
        let cache = LatticeCache::build(|x| 3.0 * x + 1.0, 0.0, 10.0, 16);
        assert_eq!(cache.cells(), 16);
        // A linear function is reproduced exactly everywhere.
        for k in 0..100 {
            let x = 0.1 * k as f64;
            assert!((cache.eval(x) - (3.0 * x + 1.0)).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn clamps_outside_interval() {
        let cache = LatticeCache::build(|x| x * x, 1.0, 2.0, 8);
        assert_eq!(cache.eval(0.0), 1.0);
        assert_eq!(cache.eval(5.0), 4.0);
    }

    #[test]
    fn interpolation_error_is_second_order() {
        let f = |x: f64| (0.7 * x).sin();
        let coarse = LatticeCache::build(f, 0.0, 30.0, 256);
        let fine = LatticeCache::build(f, 0.0, 30.0, 4096);
        let mut worst_coarse = 0.0f64;
        let mut worst_fine = 0.0f64;
        for k in 0..3000 {
            let x = 0.01 * k as f64;
            worst_coarse = worst_coarse.max((coarse.eval(x) - f(x)).abs());
            worst_fine = worst_fine.max((fine.eval(x) - f(x)).abs());
        }
        // h shrinks 16× → error shrinks ~256×. The absolute bound is
        // h²·max|f″|/8 = (30/4096)²·0.49/8 ≈ 3.3e-6.
        assert!(worst_fine < worst_coarse / 100.0, "{worst_fine} vs {worst_coarse}");
        assert!(worst_fine < 5e-6, "worst_fine = {worst_fine}");
    }

    #[test]
    fn saturation_nodes_bound_the_exact_zero_and_one_runs() {
        // A clamped ramp: exactly 0 up to x = 2, exactly 1 from x = 6.
        let ramp = |x: f64| ((x - 2.0) / 4.0).clamp(0.0, 1.0);
        let cache = LatticeCache::build(ramp, 0.0, 8.0, 16);
        assert_eq!(cache.saturation_nodes(), (Some(2.0), Some(6.0)));
        for k in 0..=80 {
            let x = 0.1 * k as f64;
            if x <= 2.0 {
                assert_eq!(cache.eval(x), 0.0, "x = {x}");
            }
            if x >= 6.0 {
                assert_eq!(cache.eval(x), 1.0, "x = {x}");
            }
        }
        // A fit that never reaches 1, like a retry model's success
        // profile: only the zero run exists.
        let capped = LatticeCache::build(|x| 0.9 * ramp(x), 0.0, 8.0, 16);
        assert_eq!(capped.saturation_nodes(), (Some(2.0), None));
        // Saturated at both ends from the first and the last node.
        let all_ones = LatticeCache::build(|_| 1.0, 0.0, 1.0, 4);
        assert_eq!(all_ones.saturation_nodes(), (None, Some(0.0)));
        let all_zeros = LatticeCache::build(|_| 0.0, 0.0, 1.0, 4);
        assert_eq!(all_zeros.saturation_nodes(), (Some(1.0), None));
    }

    #[test]
    fn endpoint_nodes_are_exact() {
        let cache = LatticeCache::build(|x| x.exp(), 0.3, 1.7, 7);
        assert_eq!(cache.eval(0.3), 0.3f64.exp());
        assert_eq!(cache.eval(1.7), 1.7f64.exp());
    }
}
