//! Drift detection on checkpoint-duration streams.
//!
//! A learned `D_C` goes stale when the application's footprint grows or
//! the filesystem degrades; planning with a stale model quietly erodes
//! the §3/§4 guarantees. This module watches the stream of observed
//! durations and raises a signal when the law has shifted, so the
//! operator (or an automated loop) re-learns and re-plans:
//!
//! * [`CusumDetector`] — classical two-sided CUSUM on standardized
//!   deviations from the reference model: sensitive to small persistent
//!   mean shifts, robust to isolated outliers.
//! * [`WindowKsDetector`] — sliding-window Kolmogorov–Smirnov against
//!   the reference law: distribution-free, catches shape changes (e.g.
//!   variance blow-ups) CUSUM misses.

use resq_dist::{ks_test, Continuous};

/// Two-sided CUSUM detector on standardized residuals.
#[derive(Debug, Clone)]
pub struct CusumDetector {
    mean: f64,
    sd: f64,
    /// Slack `k` in σ units (typical 0.5): shifts smaller than `k·σ` are
    /// tolerated.
    k: f64,
    /// Decision threshold `h` in σ units (typical 4–6).
    h: f64,
    /// Winsorization bound (default 3σ): standardized residuals are
    /// clamped to `[−clamp, clamp]` before accumulation, so one extreme
    /// outlier raises the statistic by at most `clamp − k` (standard
    /// robust-CUSUM practice; without it a single 25σ I/O hiccup fires
    /// the alarm on the spot).
    clamp: f64,
    hi: f64,
    lo: f64,
    observations: u64,
}

impl CusumDetector {
    /// Creates a detector around the reference `(mean, sd)` with slack
    /// `k` and threshold `h` (both in σ units).
    ///
    /// # Panics
    /// Panics if `sd`, `k` or `h` is not positive and finite.
    pub fn new(mean: f64, sd: f64, k: f64, h: f64) -> Self {
        assert!(sd > 0.0 && sd.is_finite(), "sd must be positive");
        assert!(k > 0.0 && h > 0.0, "k and h must be positive");
        Self {
            mean,
            sd,
            k,
            h,
            clamp: 3.0,
            hi: 0.0,
            lo: 0.0,
            observations: 0,
        }
    }

    /// Overrides the winsorization bound (σ units, must exceed `k`).
    pub fn with_clamp(mut self, clamp: f64) -> Self {
        assert!(clamp > self.k, "clamp must exceed the slack k");
        self.clamp = clamp;
        self
    }

    /// Convenience: detector for a fitted continuous law with the
    /// conventional `k = 0.5`, `h = 5`.
    pub fn for_model<D: Continuous>(model: &D) -> Self {
        Self::new(
            resq_dist::Distribution::mean(model),
            resq_dist::Distribution::std_dev(model).max(1e-12),
            0.5,
            5.0,
        )
    }

    /// Feeds one observation; returns `true` if drift is signalled.
    /// The statistics keep accumulating after a signal; call
    /// [`Self::reset`] once the model has been re-learned.
    pub fn observe(&mut self, x: f64) -> bool {
        let z = ((x - self.mean) / self.sd).clamp(-self.clamp, self.clamp);
        self.hi = (self.hi + z - self.k).max(0.0);
        self.lo = (self.lo - z - self.k).max(0.0);
        self.observations += 1;
        self.drifted()
    }

    /// Whether the accumulated evidence exceeds the threshold.
    pub fn drifted(&self) -> bool {
        self.hi > self.h || self.lo > self.h
    }

    /// Signed drift direction: `+1` upward (slower checkpoints), `-1`
    /// downward, `0` none.
    pub fn direction(&self) -> i8 {
        if self.hi > self.h {
            1
        } else if self.lo > self.h {
            -1
        } else {
            0
        }
    }

    /// Observations consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Clears the accumulated statistics (after re-learning).
    pub fn reset(&mut self) {
        self.hi = 0.0;
        self.lo = 0.0;
        self.observations = 0;
    }
}

/// Sliding-window KS detector against a reference law.
#[derive(Debug, Clone)]
pub struct WindowKsDetector<D: Continuous> {
    reference: D,
    window: Vec<f64>,
    capacity: usize,
    /// Reject the no-drift hypothesis below this p-value.
    p_threshold: f64,
}

impl<D: Continuous> WindowKsDetector<D> {
    /// Creates a detector with the given window size (≥ 8) and p-value
    /// threshold (e.g. 1e-4).
    pub fn new(reference: D, window: usize, p_threshold: f64) -> Self {
        Self {
            reference,
            window: Vec::with_capacity(window.max(8)),
            capacity: window.max(8),
            p_threshold,
        }
    }

    /// Feeds one observation; returns `Some(p_value)` once the window is
    /// full and the KS test rejects, `None` otherwise.
    pub fn observe(&mut self, x: f64) -> Option<f64> {
        if self.window.len() == self.capacity {
            self.window.remove(0);
        }
        self.window.push(x);
        if self.window.len() < self.capacity {
            return None;
        }
        let out = ks_test(&self.window, &self.reference);
        (out.p_value < self.p_threshold).then_some(out.p_value)
    }

    /// Current window fill.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True before any observation.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Normal, Sample, Truncated, Xoshiro256pp};

    fn reference() -> Truncated<Normal> {
        Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap()
    }

    #[test]
    fn cusum_quiet_on_in_control_stream() {
        // In control, the alarm still fires eventually: the run length
        // is roughly geometric with mean ARL0. Siegmund's approximation
        // gives the one-sided ARL0 = (e^{2kb} − 2kb − 1) / (2k²) with
        // b = h + 1.166 (≈ 938 at the defaults k = 0.5, h = 5), and the
        // two one-sided statistics halve it (≈ 469). Over 200 streams
        // the mean run length has a standard error of ≈ ARL0/√200 ≈ 33,
        // so it must lie within ±5 standard errors of the theory.
        let (k, h) = (0.5, 5.0);
        let b: f64 = h + 1.166;
        let arl0 = ((2.0 * k * b).exp() - 2.0 * k * b - 1.0) / (2.0 * k * k) / 2.0;
        let law = reference();
        let streams = 200u64;
        let cap = 100_000u64;
        let total: u64 = (0..streams)
            .map(|i| {
                let mut det = CusumDetector::for_model(&law);
                let mut rng = Xoshiro256pp::for_stream(1, i);
                (1..=cap)
                    .find(|_| det.observe(law.sample(&mut rng)))
                    .unwrap_or(cap)
            })
            .sum();
        let mean = total as f64 / streams as f64;
        let band = 5.0 * arl0 / (streams as f64).sqrt();
        assert!(
            (mean - arl0).abs() < band,
            "mean in-control run length {mean:.1} outside {arl0:.1} ± {band:.1}"
        );
    }

    #[test]
    fn cusum_detects_upward_mean_shift_quickly() {
        let mut det = CusumDetector::for_model(&reference());
        let mut rng = Xoshiro256pp::new(2);
        // Checkpoints got 1σ slower (5.0 → 5.4).
        let shifted = Truncated::above(Normal::new(5.4, 0.4).unwrap(), 0.0).unwrap();
        let mut fired_at = None;
        for i in 0..500 {
            if det.observe(shifted.sample(&mut rng)) {
                fired_at = Some(i);
                break;
            }
        }
        let fired_at = fired_at.expect("drift missed");
        assert!(fired_at < 60, "needed {fired_at} observations");
        assert_eq!(det.direction(), 1);
        det.reset();
        assert!(!det.drifted());
        assert_eq!(det.observations(), 0);
    }

    #[test]
    fn cusum_detects_downward_shift() {
        let mut det = CusumDetector::for_model(&reference());
        let mut rng = Xoshiro256pp::new(3);
        let faster = Truncated::above(Normal::new(4.5, 0.4).unwrap(), 0.0).unwrap();
        let mut fired = false;
        for _ in 0..200 {
            if det.observe(faster.sample(&mut rng)) {
                fired = true;
                break;
            }
        }
        assert!(fired);
        assert_eq!(det.direction(), -1);
    }

    #[test]
    fn cusum_tolerates_isolated_outliers() {
        // Winsorization caps the outlier's contribution at clamp − k =
        // 2.5, half the threshold h = 5; the in-control stream then
        // drains ~k per observation, so an isolated 25σ outlier must not
        // fire the alarm.
        let mut det = CusumDetector::for_model(&reference());
        let mut rng = Xoshiro256pp::new(4);
        let law = reference();
        for _ in 0..100 {
            assert!(
                !det.observe(law.sample(&mut rng)),
                "false alarm pre-outlier"
            );
        }
        det.observe(15.0); // isolated 25σ outlier
        assert!(!det.drifted(), "single outlier tripped CUSUM");
        for i in 0..100 {
            if det.observe(law.sample(&mut rng)) {
                panic!("outlier aftermath tripped CUSUM at +{i}");
            }
        }
    }

    #[test]
    fn clamp_is_configurable_and_validated() {
        let mut loose = CusumDetector::new(5.0, 0.4, 0.5, 5.0).with_clamp(30.0);
        // Without winsorization a single 25σ outlier fires immediately.
        assert!(loose.observe(15.0));
    }

    #[test]
    #[should_panic(expected = "clamp must exceed")]
    fn clamp_below_slack_rejected() {
        let _ = CusumDetector::new(5.0, 0.4, 0.5, 5.0).with_clamp(0.1);
    }

    #[test]
    fn window_ks_detects_variance_change() {
        // Mean unchanged, σ tripled: CUSUM would be slow, KS sees it.
        let mut det = WindowKsDetector::new(reference(), 200, 1e-4);
        let mut rng = Xoshiro256pp::new(5);
        let noisy = Truncated::above(Normal::new(5.0, 1.2).unwrap(), 0.0).unwrap();
        let mut fired = false;
        for _ in 0..2000 {
            if det.observe(noisy.sample(&mut rng)).is_some() {
                fired = true;
                break;
            }
        }
        assert!(fired, "variance change missed");
    }

    #[test]
    fn window_ks_quiet_in_control() {
        let mut det = WindowKsDetector::new(reference(), 200, 1e-6);
        let mut rng = Xoshiro256pp::new(6);
        let law = reference();
        for i in 0..3000 {
            if let Some(p) = det.observe(law.sample(&mut rng)) {
                panic!("false alarm at {i} (p = {p:.2e})");
            }
        }
        assert_eq!(det.len(), 200);
        assert!(!det.is_empty());
    }

    #[test]
    #[should_panic(expected = "sd must be positive")]
    fn cusum_rejects_bad_sd() {
        let _ = CusumDetector::new(5.0, 0.0, 0.5, 5.0);
    }
}
