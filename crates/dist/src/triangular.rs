//! Triangular law on `[a, b]` with mode `c` — the distribution engineers
//! reach for when only "min / typical / max" checkpoint durations are
//! known (exactly the information a batch system's accounting exposes).
//! Already bounded, so it plugs into §3 without truncation.

use crate::traits::{uniform01, Continuous, Distribution, Sample};
use crate::{require_finite, DistError};
use rand::RngCore;

/// Triangular distribution with support `[a, b]` and mode `c ∈ [a, b]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangular {
    a: f64,
    b: f64,
    c: f64,
}

impl Triangular {
    /// Creates `Triangular(a, c, b)`; requires `a < b` and `c ∈ [a, b]`.
    pub fn new(a: f64, c: f64, b: f64) -> Result<Self, DistError> {
        require_finite("a", a)?;
        require_finite("b", b)?;
        require_finite("c", c)?;
        if !(a < b) {
            return Err(DistError::EmptyInterval { lo: a, hi: b });
        }
        if !(a..=b).contains(&c) {
            return Err(DistError::ParameterOutOfRange {
                name: "mode",
                value: c,
            });
        }
        Ok(Self { a, b, c })
    }

    /// Lower bound `a`.
    pub fn lower(&self) -> f64 {
        self.a
    }

    /// Mode `c`.
    pub fn mode(&self) -> f64 {
        self.c
    }

    /// Upper bound `b`.
    pub fn upper(&self) -> f64 {
        self.b
    }
}

impl Distribution for Triangular {
    fn mean(&self) -> f64 {
        (self.a + self.b + self.c) / 3.0
    }

    fn variance(&self) -> f64 {
        let (a, b, c) = (self.a, self.b, self.c);
        (a * a + b * b + c * c - a * b - a * c - b * c) / 18.0
    }
}

impl Continuous for Triangular {
    fn pdf(&self, x: f64) -> f64 {
        let (a, b, c) = (self.a, self.b, self.c);
        if x < a || x > b {
            0.0
        } else if x < c {
            2.0 * (x - a) / ((b - a) * (c - a))
        } else if x > c {
            2.0 * (b - x) / ((b - a) * (b - c))
        } else {
            // x == c: peak (left/right limits agree when a < c < b;
            // degenerate-edge modes use the finite one-sided limit).
            2.0 / (b - a)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        let (a, b, c) = (self.a, self.b, self.c);
        if x <= a {
            0.0
        } else if x >= b {
            1.0
        } else if x <= c {
            (x - a) * (x - a) / ((b - a) * (c - a))
        } else {
            1.0 - (b - x) * (b - x) / ((b - a) * (b - c))
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        let (a, b, c) = (self.a, self.b, self.c);
        let fc = (c - a) / (b - a);
        if p <= fc {
            a + (p * (b - a) * (c - a)).sqrt()
        } else {
            b - ((1.0 - p) * (b - a) * (b - c)).sqrt()
        }
    }

    fn support(&self) -> (f64, f64) {
        (self.a, self.b)
    }
}

impl Sample for Triangular {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.quantile(uniform01(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(Triangular::new(1.0, 3.0, 7.5).is_ok());
        assert!(Triangular::new(1.0, 0.5, 7.5).is_err()); // mode below a
        assert!(Triangular::new(1.0, 8.0, 7.5).is_err()); // mode above b
        assert!(Triangular::new(7.5, 3.0, 1.0).is_err()); // inverted
                                                          // Edge modes are allowed.
        assert!(Triangular::new(1.0, 1.0, 7.5).is_ok());
        assert!(Triangular::new(1.0, 7.5, 7.5).is_ok());
    }

    #[test]
    fn moments() {
        let t = Triangular::new(1.0, 3.0, 7.5).unwrap();
        assert!((t.mean() - (1.0 + 3.0 + 7.5) / 3.0).abs() < 1e-15);
        let want_var = (1.0 + 9.0 + 56.25 - 3.0 - 7.5 - 22.5) / 18.0;
        assert!((t.variance() - want_var).abs() < 1e-12);
    }

    #[test]
    fn cdf_pdf_consistency() {
        let t = Triangular::new(1.0, 3.0, 7.5).unwrap();
        assert_eq!(t.cdf(0.5), 0.0);
        assert_eq!(t.cdf(8.0), 1.0);
        // CDF at the mode = (c−a)/(b−a).
        assert!((t.cdf(3.0) - 2.0 / 6.5).abs() < 1e-12);
        // pdf integrates to cdf.
        let r = resq_numerics::adaptive_simpson(|x| t.pdf(x), 1.0, 5.0, 1e-12);
        assert!((r.value - t.cdf(5.0)).abs() < 1e-9);
        // peak value 2/(b−a).
        assert!((t.pdf(3.0) - 2.0 / 6.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_round_trip() {
        let t = Triangular::new(1.0, 3.0, 7.5).unwrap();
        for i in 0..=50 {
            let p = i as f64 / 50.0;
            assert!((t.cdf(t.quantile(p)) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn sampling_moments() {
        let t = Triangular::new(1.0, 3.0, 7.5).unwrap();
        let mut rng = Xoshiro256pp::new(99);
        let n = 200_000;
        let xs = t.sample_vec(&mut rng, n);
        assert!(xs.iter().all(|&x| (1.0..=7.5).contains(&x)));
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - t.mean()).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn edge_mode_laws() {
        // Mode at a: strictly decreasing density; at b: increasing.
        let down = Triangular::new(0.0, 0.0, 1.0).unwrap();
        assert!(down.pdf(0.1) > down.pdf(0.9));
        let up = Triangular::new(0.0, 1.0, 1.0).unwrap();
        assert!(up.pdf(0.9) > up.pdf(0.1));
        // Quantile round trip still holds.
        for i in 1..10 {
            let p = i as f64 / 10.0;
            assert!((down.cdf(down.quantile(p)) - p).abs() < 1e-12);
            assert!((up.cdf(up.quantile(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn works_in_preemptible_model() {
        // min/typical/max checkpoint spec directly usable in §3.
        let t = Triangular::new(1.0, 3.0, 7.5).unwrap();
        let m = resq_core_shim::preemptible_check(t);
        assert!(m > 0.0);
    }

    /// Minimal stand-in so this test does not depend on resq-core
    /// (which depends on this crate): evaluate E[W(X)] by hand.
    mod resq_core_shim {
        use crate::{Continuous, Triangular};
        pub fn preemptible_check(t: Triangular) -> f64 {
            let r = 10.0;
            let x = 5.0;
            t.cdf(x) * (r - x)
        }
    }
}
