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
//! A probability that never decreases, such as a CDF, is exactly 1 from
//! its first exact 1 on: [`LatticeCache::build_cdf`] ([`tabulate_cdf`])
//! stops calling the function there and fills the rest of the table
//! with 1.0, and records the saturation nodes as it goes.
//!
//! This is a *search-phase* accelerator: interpolation error is bounded
//! by `h²·max|f″|/8` (`h` the lattice step), plenty to locate an optimum
//! but not a substitute for exact evaluation. Callers re-evaluate the
//! exact objective at the winner — see `StaticStrategy::optimize`.

/// Evaluates `f`, a probability that never decreases (a CDF, say), at
/// the ascending points `xs`. From the first value that is exactly 1.0
/// on, every later point takes 1.0 without a call: `f` cannot exceed 1
/// and cannot decrease. Returns the values and the index of that first
/// 1.0 (`xs.len()` when no value is).
///
/// The result equals `xs.map(f)` bit for bit whenever `f` keeps the
/// contract. Debug builds still evaluate every skipped point and
/// `debug_assert!` that it gives exactly 1.0, so a test suite run with
/// debug assertions checks the contract on every function it tabulates.
pub fn tabulate_cdf(
    mut f: impl FnMut(f64) -> f64,
    xs: impl IntoIterator<Item = f64>,
) -> (Vec<f64>, usize) {
    let xs = xs.into_iter();
    let mut values = Vec::with_capacity(xs.size_hint().0);
    let mut first_one = None;
    for x in xs {
        if first_one.is_some() {
            if cfg!(debug_assertions) {
                let v = f(x);
                debug_assert!(
                    v == 1.0,
                    "a non-decreasing probability fell from 1 to {v} at {x}"
                );
            }
            values.push(1.0);
            continue;
        }
        let v = f(x);
        if v == 1.0 {
            first_one = Some(values.len());
        }
        values.push(v);
    }
    let first_one = first_one.unwrap_or(values.len());
    (values, first_one)
}

/// A scalar function tabulated on a uniform lattice over `[a, b]`,
/// evaluated by linear interpolation (clamped to the endpoint values
/// outside the interval).
#[derive(Debug, Clone)]
pub struct LatticeCache {
    a: f64,
    b: f64,
    inv_h: f64,
    values: Vec<f64>,
    /// Length of the leading run of nodes whose value is exactly 0.
    zeros: usize,
    /// Length of the trailing run of nodes whose value is exactly 1.
    ones: usize,
}

impl LatticeCache {
    /// Tabulates `f` at `n + 1` equally spaced points spanning `[a, b]`.
    ///
    /// # Panics
    /// If `a < b` does not hold, either bound is non-finite, or `n == 0`.
    pub fn build(f: impl FnMut(f64) -> f64, a: f64, b: f64, n: usize) -> Self {
        let values: Vec<f64> = Self::nodes(a, b, n).map(f).collect();
        let ones = values.iter().rev().take_while(|&&v| v == 1.0).count();
        Self::from_values(a, b, values, ones)
    }

    /// [`LatticeCache::build`] for `f` a probability that never
    /// decreases, such as a CDF: the nodes are evaluated in ascending
    /// order up to the first whose value is exactly 1.0, and every later
    /// node is 1.0 without a call ([`tabulate_cdf`], which also says how
    /// debug builds check the contract). The table equals
    /// [`LatticeCache::build`]'s bit for bit.
    ///
    /// # Panics
    /// As [`LatticeCache::build`].
    pub fn build_cdf(f: impl FnMut(f64) -> f64, a: f64, b: f64, n: usize) -> Self {
        let (values, first_one) = tabulate_cdf(f, Self::nodes(a, b, n));
        let ones = values.len() - first_one;
        Self::from_values(a, b, values, ones)
    }

    /// The `n + 1` node abscissas over `[a, b]`, ascending.
    fn nodes(a: f64, b: f64, n: usize) -> impl Iterator<Item = f64> {
        assert!(
            a < b && a.is_finite() && b.is_finite(),
            "bad interval [{a}, {b}]"
        );
        assert!(n > 0, "lattice needs at least one cell");
        let h = (b - a) / n as f64;
        // Hit `b` exactly on the last node despite rounding.
        (0..=n).map(move |i| if i == n { b } else { a + i as f64 * h })
    }

    fn from_values(a: f64, b: f64, values: Vec<f64>, ones: usize) -> Self {
        let zeros = values.iter().take_while(|&&v| v == 0.0).count();
        Self {
            a,
            b,
            inv_h: (values.len() - 1) as f64 / (b - a),
            values,
            zeros,
            ones,
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
    /// node is not exactly 0 (1). Both were recorded when the table was
    /// built, so this reads no table entry.
    pub fn saturation_nodes(&self) -> (Option<f64>, Option<f64>) {
        let n = self.cells();
        let zero = (self.zeros > 0).then(|| self.node(self.zeros - 1));
        let one = (self.ones > 0).then(|| self.node(n + 1 - self.ones));
        (zero, one)
    }

    /// The first node whose value is at least `level`, and that value,
    /// on a table that never decreases (as [`LatticeCache::build_cdf`]
    /// requires of its function); `None` when no node reaches `level`.
    /// Between two nodes [`LatticeCache::eval`] interpolates between
    /// their values, so on such a table it is at least this value from
    /// this node on and below `level` before it.
    pub fn first_node_reaching(&self, level: f64) -> Option<(f64, f64)> {
        let i = self.values.partition_point(|&v| v < level);
        (i < self.values.len()).then(|| (self.node(i), self.values[i]))
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
        assert!(
            worst_fine < worst_coarse / 100.0,
            "{worst_fine} vs {worst_coarse}"
        );
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

    type Cdf = fn(f64) -> f64;

    /// The non-decreasing probabilities of the `build_cdf` tests over
    /// `[0, 8]`: a clamped ramp, a step, a ramp capped below 1 (a retry
    /// model's success profile) and the constant 1.
    fn cdfs() -> [(&'static str, Cdf); 4] {
        [
            ("ramp", |x| ((x - 2.0) / 4.0).clamp(0.0, 1.0)),
            ("step", |x| if x < 5.0 { 0.0 } else { 1.0 }),
            ("capped", |x| 0.9 * ((x - 2.0) / 4.0).clamp(0.0, 1.0)),
            ("ones", |_| 1.0),
        ]
    }

    #[test]
    fn build_cdf_equals_build_bit_for_bit() {
        for (name, f) in cdfs() {
            for n in [1, 16, 4096] {
                let full = LatticeCache::build(f, 0.0, 8.0, n);
                let cdf = LatticeCache::build_cdf(f, 0.0, 8.0, n);
                let bits =
                    |c: &LatticeCache| c.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&cdf), bits(&full), "{name}, n = {n}");
                assert_eq!(cdf.inv_h.to_bits(), full.inv_h.to_bits(), "{name}, n = {n}");
                // The recorded saturation nodes equal a rescan of the table.
                let zeros = full.values.iter().take_while(|&&v| v == 0.0).count();
                let ones = full.values.iter().rev().take_while(|&&v| v == 1.0).count();
                assert_eq!((cdf.zeros, cdf.ones), (zeros, ones), "{name}, n = {n}");
                assert_eq!(
                    cdf.saturation_nodes(),
                    full.saturation_nodes(),
                    "{name}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn build_cdf_stops_calling_at_the_first_exact_one() {
        // Nodes 0, 0.5, …, 8: the ramp first reaches 1 at x = 6 (node
        // 12), the step at x = 5 (node 10), the constant at node 0; the
        // capped ramp never does.
        for ((name, f), first_one) in cdfs().into_iter().zip([12, 10, 17, 0]) {
            let mut calls = 0;
            let (values, first) = tabulate_cdf(
                |x| {
                    calls += 1;
                    f(x)
                },
                LatticeCache::nodes(0.0, 8.0, 16),
            );
            assert_eq!(values.len(), 17, "{name}");
            assert_eq!(first, first_one, "{name}");
            // Debug builds evaluate the skipped nodes to check them.
            let want = if cfg!(debug_assertions) {
                17
            } else {
                (first_one + 1).min(17)
            };
            assert_eq!(calls, want, "{name}");
        }
    }

    #[test]
    fn first_node_reaching_finds_each_level() {
        // Nodes 0, 0.5, …, 8 of the clamped ramp (x − 2)/4.
        let ramp = LatticeCache::build_cdf(cdfs()[0].1, 0.0, 8.0, 16);
        assert_eq!(ramp.first_node_reaching(0.25), Some((3.0, 0.25)));
        assert_eq!(ramp.first_node_reaching(0.3), Some((3.5, 0.375)));
        assert_eq!(ramp.first_node_reaching(1.0), Some((6.0, 1.0)));
        assert_eq!(ramp.first_node_reaching(0.0), Some((0.0, 0.0)));
        let capped = LatticeCache::build_cdf(cdfs()[2].1, 0.0, 8.0, 16);
        assert_eq!(capped.first_node_reaching(0.9), Some((6.0, 0.9)));
        assert_eq!(capped.first_node_reaching(0.95), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "fell from 1")]
    fn build_cdf_checks_the_contract_in_debug_builds() {
        LatticeCache::build_cdf(|x| if x == 1.0 { 1.0 } else { 0.5 }, 0.0, 2.0, 4);
    }

    #[test]
    fn endpoint_nodes_are_exact() {
        let cache = LatticeCache::build(|x| x.exp(), 0.3, 1.7, 7);
        assert_eq!(cache.eval(0.3), 0.3f64.exp());
        assert_eq!(cache.eval(1.7), 1.7f64.exp());
    }
}
