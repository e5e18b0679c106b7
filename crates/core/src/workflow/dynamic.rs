//! §4.3 — the dynamic strategy: decide checkpoint-vs-continue at the end
//! of every task, given the work `W_n` actually done so far.
//!
//! At work level `w`:
//!
//! ```text
//! E[W_C]   = w · P(C ≤ R − w)                          (checkpoint now)
//! E[W_{+1}] = ∫_0^{R−w} (x + w) · P(C ≤ R−w−x) f_X(x) dx  (one more task)
//! ```
//!
//! Checkpoint iff `E[W_C] ≥ E[W_{+1}]`. For IID tasks the comparison only
//! depends on `w`, so the rule is a fixed work threshold `W_int` — the
//! crossing of the two curves the paper plots in Figures 8–10.
//!
//! The checkpoint enters only through its fit probability
//! ([`CheckpointFit`]): a law's `P(C ≤ c)`, or a retry model's success
//! profile `S(c)` for the retry-aware rule.

use crate::error::CoreError;
use crate::solve_cache::{fit_lattice, SolveCache};
use crate::workflow::fit::{validate_checkpoint, CheckpointFit};
use crate::workflow::task_law::TaskDuration;
use resq_numerics::{GaussLegendre, LatticeCache};

/// §4.3 model: IID task law, checkpoint (support in `[0, ∞)`),
/// reservation `R`.
///
/// ```
/// use resq_dist::{Normal, Truncated};
/// use resq_core::DynamicStrategy;
///
/// // Figure 8: tasks ~ N[0,∞)(3, 0.5²), C ~ N[0,∞)(5, 0.4²), R = 29.
/// let task = Truncated::above(Normal::new(3.0, 0.5)?, 0.0)?;
/// let ckpt = Truncated::above(Normal::new(5.0, 0.4)?, 0.0)?;
/// let d = DynamicStrategy::new(task, ckpt, 29.0)?;
///
/// let w_int = d.threshold()?.unwrap();
/// assert!((w_int - 20.3).abs() < 0.3);          // paper: W_int ≈ 20.3
/// assert!(!d.should_checkpoint(15.0));          // keep computing
/// assert!(d.should_checkpoint(22.0));           // checkpoint now
/// # Ok::<(), resq_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynamicStrategy<X: TaskDuration, C: CheckpointFit> {
    task: X,
    ckpt: C,
    r: f64,
}

impl<X: TaskDuration, C: CheckpointFit> DynamicStrategy<X, C> {
    /// Builds the model; the inputs must pass [`DynamicStrategy::validate`].
    pub fn new(task: X, ckpt: C, r: f64) -> Result<Self, CoreError> {
        Self::validate(&task, &ckpt, r)?;
        Ok(Self { task, ckpt, r })
    }

    /// The checks [`DynamicStrategy::new`] applies: `R` positive finite,
    /// checkpoint support in `[0, ∞)`, `R` within the checkpoint model's
    /// horizon, positive mean task duration.
    pub fn validate(task: &X, ckpt: &C, r: f64) -> Result<(), CoreError> {
        validate_checkpoint(ckpt, r)?;
        if !(task.mean() > 0.0) {
            return Err(CoreError::InvalidTaskLaw("task mean must be positive"));
        }
        Ok(())
    }

    /// Reservation length `R`.
    pub fn reservation(&self) -> f64 {
        self.r
    }

    /// The task law.
    pub fn task(&self) -> &X {
        &self.task
    }

    /// The checkpoint: a law, or a retry model over one.
    pub fn checkpoint_law(&self) -> &C {
        &self.ckpt
    }

    /// `E[W_C](w) = w · P(C ≤ R − w)`: expected saved work when
    /// checkpointing right now with `w` work done.
    pub fn expect_checkpoint_now(&self, w: f64) -> f64 {
        if w <= 0.0 {
            return 0.0;
        }
        w * self.ckpt.fit_probability(self.r - w)
    }

    /// `E[W_{+1}](w)`: expected saved work when running exactly one more
    /// task before checkpointing.
    pub fn expect_one_more(&self, w: f64) -> f64 {
        self.task.expected_one_more(w.max(0.0), self.r, &self.ckpt)
    }

    /// The §4.3 decision rule: checkpoint iff `E[W_C] ≥ E[W_{+1}]`.
    pub fn should_checkpoint(&self, w: f64) -> bool {
        self.expect_checkpoint_now(w) >= self.expect_one_more(w)
    }

    /// The work threshold `W_int`: the first crossing of `E[W_C]` over
    /// `E[W_{+1}]` (Figures 8–10). Below it, continuing wins; above it,
    /// checkpointing wins.
    ///
    /// Returns `Ok(None)` if checkpointing never wins before `R` (can
    /// happen when `R` is too short for even one checkpoint to plausibly
    /// fit — then everything is lost regardless);
    /// [`CoreError::Numerics`] when the `E[W_{+1}]` quadrature fails to
    /// converge at a deciding scan point.
    ///
    /// Runs the `W_int` scan (`scan_threshold`) with a fast classifier
    /// (`FastScan`): a point whose checkpoint-now minus one-more diff is
    /// certified below zero — by a closed-form bound, or else by that
    /// bound plus the `E[W_{+1}]` kernel over the checkpoint's shoulder,
    /// on this call's fit lattice and fixed-order Gauss–Legendre, beyond
    /// a guard band — is accepted as "continue wins" without an exact
    /// evaluation. Every deciding value goes through the exact
    /// convergence-checked integrand, so the returned `W_int` is
    /// bit-identical to an all-exact scan.
    pub fn threshold(&self) -> Result<Option<f64>, CoreError> {
        let _span = resq_obs::span::enter(resq_obs::span_name::SOLVE_DYNAMIC);
        self.scan(&fit_lattice(&self.ckpt, self.r), &SolveCache::new())
    }

    /// [`DynamicStrategy::threshold`] on `fit`, the fit lattice of
    /// this strategy's checkpoint over `[0, R]` that the caller built
    /// once for every planner of one solve.
    pub(crate) fn threshold_on(
        &self,
        fit: &LatticeCache,
        cache: &SolveCache,
    ) -> Result<Option<f64>, CoreError> {
        let _span = resq_obs::span::enter(resq_obs::span_name::SOLVE_DYNAMIC);
        self.scan(fit, cache)
    }

    /// The `W_int` scan of [`DynamicStrategy::threshold`] on `fit`.
    fn scan(&self, fit: &LatticeCache, cache: &SolveCache) -> Result<Option<f64>, CoreError> {
        let fast = FastScan::new(self, fit, cache.gl());
        let clearly_negative = |w| fast.negative(w);
        let one_more = |w: f64| {
            self.task
                .expected_one_more_checked(w.max(0.0), self.r, &self.ckpt)
        };
        scan_threshold(
            self.r,
            |w| Ok(self.expect_checkpoint_now(w) - one_more(w)?),
            |w| self.expect_checkpoint_now(w) - self.expect_one_more(w),
            Some(&clearly_negative),
        )
    }
}

/// The fit levels of the layer-cake certificate ([`FastScan::layer_cake`]):
/// `i/16` for `i = 15, …, 1`.
const LAYERS: usize = 16;

/// The fast classifier of [`DynamicStrategy::threshold`]'s scan:
/// two sound tests that a scan point's exact diff
/// `E[W_C](w) − E[W_{+1}](w)` is negative, each with margin `guard`.
struct FastScan<'a, X: TaskDuration, C: CheckpointFit> {
    strategy: &'a DynamicStrategy<X, C>,
    fit: &'a LatticeCache,
    /// Where the tabulated fit is exactly 1 from on (`None` when it
    /// never is, as for a retry model's `S(c)`).
    sure_fit_from: Option<f64>,
    /// The layer cake's nodes `(c_i, v_i)` after the saturation node
    /// (`c_0`, `v_0 = 1`): the first lattice node whose value reaches
    /// each fit level `i/16`, descending, each node once. Empty when the
    /// fit never reaches 1.
    layers: Vec<(f64, f64)>,
    gl: &'a GaussLegendre,
    /// Narrowest structure the quadrature kernel carries: the checkpoint
    /// law's CDF shoulder or the task density's bulk, whichever is
    /// tighter — sizes its panels so its check resolutions sample the
    /// feature instead of aliasing it (and uselessly failing over to
    /// the exact path at every point).
    feature: f64,
    /// Quadrature worst case: lattice interpolation (~1e-5-scale on the
    /// CDF, amplified by the ~R-unit integrand) plus the 1e-6 GL
    /// agreement band. The guard is ~1000× that.
    guard: f64,
}

impl<'a, X: TaskDuration, C: CheckpointFit> FastScan<'a, X, C> {
    fn new(
        strategy: &'a DynamicStrategy<X, C>,
        fit: &'a LatticeCache,
        gl: &'a GaussLegendre,
    ) -> Self {
        let sure_fit_from = fit.saturation_nodes().1;
        let mut layers: Vec<(f64, f64)> = Vec::new();
        if let Some(one) = sure_fit_from {
            for i in (1..LAYERS).rev() {
                let Some((c, v)) = fit.first_node_reaching(i as f64 / LAYERS as f64) else {
                    continue;
                };
                if c < layers.last().map_or(one, |&(last, _)| last) {
                    layers.push((c, v));
                }
            }
        }
        let feature = strategy
            .ckpt
            .fit_shoulder()
            .min(strategy.task.fast_kernel_feature().unwrap_or(f64::INFINITY));
        Self {
            strategy,
            fit,
            sure_fit_from,
            layers,
            gl,
            feature,
            guard: 1e-3 * (1.0 + strategy.r),
        }
    }

    /// Whether the point `w` is certified negative: first by closed
    /// forms alone ([`FastScan::layer_cake`]), then by the closed form
    /// plus the quadrature kernel over the rest of the window
    /// ([`FastScan::one_more_fast`]).
    fn negative(&self, w: f64) -> bool {
        let now = self.strategy.expect_checkpoint_now(w);
        let sure = self.sure_fit(w);
        if self.layer_cake(w, now, sure) {
            return true;
        }
        self.one_more_fast(w, sure)
            .is_some_and(|one_more| now - one_more < -self.guard)
    }

    /// The layer-cake certificate: whether a closed-form lower bound on
    /// `E[W_{+1}](w)` exceeds `now = E[W_C](w)` by more than `guard`.
    ///
    /// A lattice node's value is the exact fit there and the fit never
    /// decreases, so `fit(c) ≥ v_i` for `c ≥ c_i`, and `fit(c) ≥ Σ_i (v_i
    /// − v_{i+1})·1{c ≥ c_i}` over the saturation node and
    /// [`FastScan::layers`] (`v` past the last node is 0). With
    /// `G(q) = E[(X + w)·1{0 ≤ X ≤ q}]`
    /// ([`TaskDuration::expected_one_more_sure_fit`]) that gives
    /// `E[W_{+1}](w) ≥ Σ_i (v_i − v_{i+1})·G(R − w − c_i)`. Cut after
    /// level `j`, the bound is `B_j = B_{j−1} + v_j·(G_j − G_{j−1})` from
    /// `B_0 = G_0`, `sure`'s closed form; the levels are tried in order
    /// until one certifies, one `G` each.
    fn layer_cake(&self, w: f64, now: f64, sure: Option<(f64, f64)>) -> bool {
        let Some((_, mut bound)) = sure else {
            return false;
        };
        if now - bound < -self.guard {
            return true;
        }
        let d = self.strategy;
        let mut below = bound;
        for &(c, v) in &self.layers {
            let Some(g) = d.task.expected_one_more_sure_fit(w, d.r - w - c) else {
                return false;
            };
            bound += v * (g - below);
            if now - bound < -self.guard {
                return true;
            }
            below = g;
        }
        false
    }

    /// The closed-form certificate's bound. The fit is 1 on `[one, ∞)`,
    /// so a task of length `x ≤ q = R − w − one` leaves the checkpoint
    /// room to fit for sure, and `E[W_{+1}](w) ≥ E[(X + w)·1{X ≤ q}]`
    /// ([`TaskDuration::expected_one_more_sure_fit`]). Returns `q` and
    /// that bound; a point where `E[W_C](w)` falls below the bound by
    /// more than `guard` is negative. `None` when the fit never reaches
    /// 1 or the law has no partial mean.
    fn sure_fit(&self, w: f64) -> Option<(f64, f64)> {
        let d = self.strategy;
        let q = d.r - w - self.sure_fit_from?;
        Some((q, d.task.expected_one_more_sure_fit(w, q)?))
    }

    /// The quadrature certificate's estimate of `E[W_{+1}](w)`: the
    /// closed form `sure` from [`FastScan::sure_fit`] plus the fast kernel
    /// ([`TaskDuration::expected_one_more_fast`]) over tasks longer than
    /// its `q`, the stretch where the fit is below 1; the kernel over the
    /// whole window when there is no closed form. A point where it
    /// exceeds `E[W_C](w)` by more than `guard` is negative.
    fn one_more_fast(&self, w: f64, sure: Option<(f64, f64)>) -> Option<f64> {
        let d = self.strategy;
        let (from, lower) = sure.unwrap_or((f64::NEG_INFINITY, 0.0));
        let shoulder =
            d.task
                .expected_one_more_fast(w, d.r, from, self.fit, self.gl, self.feature)?;
        Some(lower + shoulder)
    }
}

/// The `W_int` search of every §4.3 threshold: a 96-point scan of
/// `[0, R]` for the first sign change of the checkpoint-now minus
/// one-more diff from negative to non-negative, refined by Brent.
///
/// `exact` is the convergence-checked diff; it decides every scan point
/// that the optional fast classifier `clearly_negative` does not
/// certify negative. The `w = 0` seed is evaluated only when it ends a
/// bracket. Brent starts from the bracket's exact end values and runs
/// on `plain`, the same diff without the convergence check, so no `w`
/// is integrated twice. Without a classifier this is bit-identical to
/// an eager all-exact scan.
///
/// `Ok(None)` when continuing still wins at `w = R`; `Ok(Some(0.0))`
/// when checkpointing already wins at `w = 0⁺`.
pub(crate) fn scan_threshold(
    r: f64,
    exact: impl Fn(f64) -> Result<f64, CoreError>,
    plain: impl FnMut(f64) -> f64,
    clearly_negative: Option<&dyn Fn(f64) -> bool>,
) -> Result<Option<f64>, CoreError> {
    const POINTS: usize = 96;
    let step = r / POINTS as f64;
    let mut prev_w = 0.0;
    // Exact diff at the previous scan point; `None` until a bracket
    // needs it: the classifier certified the point negative, or it is
    // the `w = 0` seed.
    let mut prev_d: Option<f64> = None;
    for i in 1..=POINTS {
        let w = step * i as f64;
        if clearly_negative.is_some_and(|negative| negative(w)) {
            prev_w = w;
            prev_d = None;
            continue;
        }
        let d = exact(w)?;
        if d >= 0.0 {
            let pd = match prev_d {
                Some(v) => v,
                None => exact(prev_w)?,
            };
            if pd < 0.0 {
                let root = resq_numerics::brent_root_from(plain, (prev_w, pd), (w, d), 1e-9);
                return Ok(Some(root.unwrap_or(w)));
            }
        }
        prev_w = w;
        prev_d = Some(d);
    }
    // A last point certified negative or still negative: continuing
    // wins up to `R`. A non-negative last point without a crossing:
    // checkpointing is already preferable at `w = 0⁺`.
    Ok(match prev_d {
        Some(d) if d >= 0.0 => Some(0.0),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use resq_dist::{Distribution, Exponential, Gamma, LogNormal, Normal, Poisson, Sample};
    use resq_dist::{Truncated, Uniform};
    use resq_numerics::{GaussLegendre, LatticeCache};
    use std::cell::{Cell, RefCell};

    fn ckpt(mu_c: f64, sigma_c: f64) -> Truncated<Normal> {
        Truncated::above(Normal::new(mu_c, sigma_c).unwrap(), 0.0).unwrap()
    }

    fn trunc_normal_task(mu: f64, sigma: f64) -> Truncated<Normal> {
        Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
    }

    #[test]
    fn construction_validates() {
        let t = trunc_normal_task(3.0, 0.5);
        assert!(DynamicStrategy::new(t, ckpt(5.0, 0.4), 29.0).is_ok());
        assert!(DynamicStrategy::new(t, ckpt(5.0, 0.4), -1.0).is_err());
        assert!(DynamicStrategy::new(t, Normal::new(5.0, 0.4).unwrap(), 29.0).is_err());
    }

    #[test]
    fn figure8_truncated_normal_tasks() {
        // Fig 8: μ=3, σ=0.5, μC=5, σC=0.4, R=29 → W_int ≈ 20.3.
        let d = DynamicStrategy::new(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), 29.0).unwrap();
        let w_int = d.threshold().unwrap().expect("threshold exists");
        assert!((w_int - 20.3).abs() < 0.3, "W_int = {w_int}");
        // Below the threshold: continue; above: checkpoint.
        assert!(!d.should_checkpoint(w_int - 1.0));
        assert!(d.should_checkpoint(w_int + 1.0));
    }

    #[test]
    fn figure9_gamma_tasks() {
        // Fig 9: k=1, θ=0.5, μC=2, σC=0.4, R=10 → W_int ≈ 6.4.
        let d = DynamicStrategy::new(Gamma::new(1.0, 0.5).unwrap(), ckpt(2.0, 0.4), 10.0).unwrap();
        let w_int = d.threshold().unwrap().expect("threshold exists");
        assert!((w_int - 6.4).abs() < 0.2, "W_int = {w_int}");
    }

    #[test]
    fn figure10_poisson_tasks() {
        // Fig 10: λ=3, μC=5, σC=0.4, R=29 → W_int ≈ 18.9.
        let d = DynamicStrategy::new(Poisson::new(3.0).unwrap(), ckpt(5.0, 0.4), 29.0).unwrap();
        let w_int = d.threshold().unwrap().expect("threshold exists");
        assert!((w_int - 18.9).abs() < 0.4, "W_int = {w_int}");
    }

    #[test]
    fn expectation_curves_have_paper_shape() {
        let d = DynamicStrategy::new(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), 29.0).unwrap();
        // E[W_C] rises ~linearly while the checkpoint fits comfortably...
        assert!((d.expect_checkpoint_now(10.0) - 10.0).abs() < 1e-6);
        // ...then collapses near the deadline.
        assert!(d.expect_checkpoint_now(28.0) < 0.1);
        // E[W_{+1}] ≈ w + μ while both task and checkpoint fit.
        assert!((d.expect_one_more(10.0) - 13.0).abs() < 1e-4);
        // And is 0 at w = R.
        assert_eq!(d.expect_one_more(29.0), 0.0);
        assert_eq!(d.expect_checkpoint_now(0.0), 0.0);
    }

    #[test]
    fn no_threshold_when_reservation_hopeless() {
        // R = 1 with checkpoint mean 5: nothing can ever be saved, and
        // E[W_C] stays below E[W_{+1}] essentially everywhere or both are
        // ~0. Either a None or a tiny threshold is acceptable — what
        // matters is that the policy cannot promise saved work.
        let d = DynamicStrategy::new(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), 1.0).unwrap();
        if let Some(w) = d.threshold().unwrap() {
            assert!(d.expect_checkpoint_now(w) < 1e-6);
        }
    }

    #[test]
    fn threshold_grows_with_reservation() {
        let mk = |r: f64| {
            DynamicStrategy::new(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), r)
                .unwrap()
                .threshold()
                .unwrap()
                .unwrap()
        };
        let w20 = mk(20.0);
        let w29 = mk(29.0);
        let w40 = mk(40.0);
        assert!(w20 < w29 && w29 < w40, "{w20} {w29} {w40}");
        // The gap R − W_int stays near μC + μ-ish (the "reserve" the
        // strategy keeps for one more task + checkpoint).
        assert!((29.0 - w29) - (40.0 - w40) < 0.5);
    }

    /// The pre-fast-path reference: an all-exact 96-point scan plus
    /// Brent refinement, written against the public curve accessors.
    fn reference_threshold<X: TaskDuration, C: CheckpointFit>(
        d: &DynamicStrategy<X, C>,
    ) -> Option<f64> {
        let diff = |w: f64| d.expect_checkpoint_now(w) - d.expect_one_more(w);
        const POINTS: usize = 96;
        let step = d.reservation() / POINTS as f64;
        let mut prev_w = 0.0;
        let mut prev_d = diff(0.0);
        for i in 1..=POINTS {
            let w = step * i as f64;
            let dv = diff(w);
            if prev_d < 0.0 && dv >= 0.0 {
                let root = resq_numerics::brent_root(diff, prev_w, w, 1e-9);
                return Some(root.unwrap_or(w));
            }
            prev_w = w;
            prev_d = dv;
        }
        if prev_d >= 0.0 {
            Some(0.0)
        } else {
            None
        }
    }

    /// One task law of each other family `/decide` serves: Uniform,
    /// Exponential and LogNormal.
    fn decide_laws() -> (Uniform, Exponential, LogNormal) {
        (
            Uniform::new(2.0, 5.0).unwrap(),
            Exponential::new(0.3).unwrap(),
            LogNormal::new(1.0, 0.3).unwrap(),
        )
    }

    #[test]
    fn fast_scan_threshold_is_bit_identical_to_exact_scan() {
        // W_int feeds results/ artifacts and MC threshold policies: the
        // fast-classification scan must reproduce the all-exact scan to
        // the bit, not merely to tolerance.
        let tn = DynamicStrategy::new(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), 29.0).unwrap();
        let ga = DynamicStrategy::new(Gamma::new(1.0, 0.5).unwrap(), ckpt(2.0, 0.4), 10.0).unwrap();
        let po = DynamicStrategy::new(Poisson::new(3.0).unwrap(), ckpt(5.0, 0.4), 29.0).unwrap();
        assert_eq!(
            tn.threshold().unwrap().map(f64::to_bits),
            reference_threshold(&tn).map(f64::to_bits)
        );
        assert_eq!(
            ga.threshold().unwrap().map(f64::to_bits),
            reference_threshold(&ga).map(f64::to_bits)
        );
        assert_eq!(
            po.threshold().unwrap().map(f64::to_bits),
            reference_threshold(&po).map(f64::to_bits)
        );
        // The other task laws `/decide` serves.
        let (un, ex, ln) = decide_laws();
        let un = DynamicStrategy::new(un, ckpt(3.0, 0.24), 29.0).unwrap();
        let ex = DynamicStrategy::new(ex, ckpt(2.9, 0.232), 29.0).unwrap();
        let ln = DynamicStrategy::new(ln, ckpt(5.0, 0.4), 29.0).unwrap();
        assert_eq!(
            un.threshold().unwrap().map(f64::to_bits),
            reference_threshold(&un).map(f64::to_bits)
        );
        assert_eq!(
            ex.threshold().unwrap().map(f64::to_bits),
            reference_threshold(&ex).map(f64::to_bits)
        );
        assert_eq!(
            ln.threshold().unwrap().map(f64::to_bits),
            reference_threshold(&ln).map(f64::to_bits)
        );
    }

    /// A task law that delegates every method to `inner`, records each
    /// `w` at which an exact `E[W_{+1}]` integral is evaluated and counts
    /// the calls of the quadrature kernel.
    struct Counting<X> {
        inner: X,
        exact_ws: RefCell<Vec<f64>>,
        kernel_calls: Cell<usize>,
    }

    impl<X> Counting<X> {
        fn new(inner: X) -> Self {
            Self {
                inner,
                exact_ws: RefCell::new(Vec::new()),
                kernel_calls: Cell::new(0),
            }
        }
    }

    impl<X: Distribution> Distribution for Counting<X> {
        fn mean(&self) -> f64 {
            self.inner.mean()
        }
        fn variance(&self) -> f64 {
            self.inner.variance()
        }
        fn std_dev(&self) -> f64 {
            self.inner.std_dev()
        }
    }

    impl<X: Sample> Sample for Counting<X> {
        fn sample(&self, rng: &mut dyn RngCore) -> f64 {
            self.inner.sample(rng)
        }
        fn sample_vec(&self, rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
            self.inner.sample_vec(rng, n)
        }
        fn sample_batch_mono<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
            self.inner.sample_batch_mono(rng, out)
        }
    }

    impl<X: TaskDuration> TaskDuration for Counting<X> {
        fn expected_one_more(&self, w: f64, r: f64, ckpt: &dyn CheckpointFit) -> f64 {
            self.exact_ws.borrow_mut().push(w);
            self.inner.expected_one_more(w, r, ckpt)
        }
        fn expected_one_more_checked(
            &self,
            w: f64,
            r: f64,
            ckpt: &dyn CheckpointFit,
        ) -> Result<f64, CoreError> {
            self.exact_ws.borrow_mut().push(w);
            self.inner.expected_one_more_checked(w, r, ckpt)
        }
        fn expected_one_more_fast(
            &self,
            w: f64,
            r: f64,
            from: f64,
            fit: &LatticeCache,
            gl: &GaussLegendre,
            feature: f64,
        ) -> Option<f64> {
            self.kernel_calls.set(self.kernel_calls.get() + 1);
            self.inner
                .expected_one_more_fast(w, r, from, fit, gl, feature)
        }
        fn fast_kernel_feature(&self) -> Option<f64> {
            self.inner.fast_kernel_feature()
        }
        fn expected_one_more_sure_fit(&self, w: f64, q: f64) -> Option<f64> {
            self.inner.expected_one_more_sure_fit(w, q)
        }
    }

    /// Runs `threshold` on a counting wrapper of `task`; returns the
    /// threshold and every `w` an exact integral ran at.
    fn counted_threshold<X: TaskDuration>(
        task: X,
        ckpt: Truncated<Normal>,
        r: f64,
    ) -> (Option<f64>, Vec<f64>) {
        let d = DynamicStrategy::new(Counting::new(task), ckpt, r).unwrap();
        let w_int = d.threshold().unwrap();
        let ws = d.task().exact_ws.borrow().clone();
        (w_int, ws)
    }

    #[test]
    fn threshold_integrates_each_deciding_w_once() {
        let (un, ex, ln) = decide_laws();
        let cases = [
            (
                "fig8",
                counted_threshold(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), 29.0),
            ),
            (
                "fig9",
                counted_threshold(Gamma::new(1.0, 0.5).unwrap(), ckpt(2.0, 0.4), 10.0),
            ),
            (
                "fig10",
                counted_threshold(Poisson::new(3.0).unwrap(), ckpt(5.0, 0.4), 29.0),
            ),
            ("uniform", counted_threshold(un, ckpt(3.0, 0.24), 29.0)),
            ("exponential", counted_threshold(ex, ckpt(2.9, 0.232), 29.0)),
            ("lognormal", counted_threshold(ln, ckpt(5.0, 0.4), 29.0)),
        ];
        for (name, (w_int, ws)) in &cases {
            assert!(w_int.is_some(), "{name}: no threshold");
            let mut bits: Vec<u64> = ws.iter().map(|w| w.to_bits()).collect();
            bits.sort_unstable();
            bits.dedup();
            assert_eq!(
                bits.len(),
                ws.len(),
                "{name}: a w was integrated twice: {ws:?}"
            );
        }
        // Fig. 8's first scan point is fast-certified negative, so the
        // widest and costliest integral, the w = 0 seed, never runs.
        let (_, fig8_ws) = &cases[0].1;
        assert!(
            !fig8_ws.contains(&0.0),
            "fig8 integrated the w = 0 seed: {fig8_ws:?}"
        );
    }

    /// Sweeps `w` over `[0, R]` (401 points and the 96 scan points) and
    /// checks every point each certificate accepts: the closed-form
    /// bound lies below the exact `E[W_{+1}]`, and wherever the closed
    /// form alone, the layer cake or the closed form plus the
    /// shoulder-only quadrature certifies a point, the exact diff is
    /// negative. Returns, over the scan points, how many the quadrature
    /// certificate accepts, how many of those the closed form accepts
    /// too, and how many points that the closed form leaves the layer
    /// cake accepts.
    fn check_sure_fit<X: TaskDuration>(
        name: &str,
        d: &DynamicStrategy<X, Truncated<Normal>>,
    ) -> (usize, usize, usize) {
        let cache = SolveCache::new();
        let fit = fit_lattice(d.checkpoint_law(), d.reservation());
        let fast = FastScan::new(d, &fit, cache.gl());
        let one = fast
            .sure_fit_from
            .expect("a checkpoint law's fit saturates");
        assert!(
            !fast.layers.is_empty(),
            "{name}: no layer below the saturation node"
        );
        let r = d.reservation();
        let by_closed_form = |w: f64| {
            let now = d.expect_checkpoint_now(w);
            fast.sure_fit(w)
                .is_some_and(|(_, lower)| now - lower < -fast.guard)
        };
        let by_layer_cake =
            |w: f64| fast.layer_cake(w, d.expect_checkpoint_now(w), fast.sure_fit(w));
        let by_quadrature = |w: f64| {
            let now = d.expect_checkpoint_now(w);
            fast.one_more_fast(w, fast.sure_fit(w))
                .is_some_and(|one_more| now - one_more < -fast.guard)
        };
        let scan: Vec<f64> = (1..=96).map(|i| r / 96.0 * i as f64).collect();
        let sweep = (0..=400).map(|i| r * i as f64 / 400.0);
        let (mut closed_form, mut layer_cake, mut quadrature) = (0, 0, 0);
        for w in sweep.chain(scan.iter().copied()) {
            let exact = d.expect_one_more(w);
            if let Some(lower) = d.task().expected_one_more_sure_fit(w, r - w - one) {
                assert!(
                    lower <= exact + 1e-9,
                    "{name} w = {w}: bound {lower} > {exact}"
                );
            }
            let diff = d.expect_checkpoint_now(w) - exact;
            if by_closed_form(w) {
                closed_form += 1;
                assert!(
                    diff < 0.0,
                    "{name} w = {w}: the closed form certified {diff}"
                );
                assert!(
                    by_layer_cake(w),
                    "{name} w = {w}: the layer cake starts there"
                );
            }
            if by_layer_cake(w) {
                layer_cake += 1;
                assert!(
                    diff < 0.0,
                    "{name} w = {w}: the layer cake certified {diff}"
                );
            }
            if by_quadrature(w) {
                quadrature += 1;
                assert!(
                    diff < 0.0,
                    "{name} w = {w}: the quadrature certified {diff}"
                );
            }
            assert_eq!(fast.negative(w), by_layer_cake(w) || by_quadrature(w));
        }
        assert!(closed_form > 0, "{name}: the closed form accepted no point");
        assert!(quadrature > 0, "{name}: the quadrature accepted no point");
        assert!(layer_cake >= closed_form);
        let by_quadrature: Vec<f64> = scan.iter().copied().filter(|&w| by_quadrature(w)).collect();
        let both = by_quadrature.iter().filter(|&&w| by_closed_form(w)).count();
        let layers_only = scan
            .iter()
            .filter(|&&w| by_layer_cake(w) && !by_closed_form(w))
            .count();
        (by_quadrature.len(), both, layers_only)
    }

    #[test]
    fn sure_fit_certificate_is_sound_and_carries_the_scan() {
        let (un, ex, ln) = decide_laws();
        let fig8 = DynamicStrategy::new(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), 29.0).unwrap();
        let fig9 = DynamicStrategy::new(Gamma::new(1.0, 0.5).unwrap(), ckpt(2.0, 0.4), 10.0);
        let fig10 = DynamicStrategy::new(Poisson::new(3.0).unwrap(), ckpt(5.0, 0.4), 29.0);
        let un = DynamicStrategy::new(un, ckpt(3.0, 0.24), 29.0).unwrap();
        let ex = DynamicStrategy::new(ex, ckpt(2.9, 0.232), 29.0).unwrap();
        let ln = DynamicStrategy::new(ln, ckpt(5.0, 0.4), 29.0).unwrap();
        let mut layers_only = vec![
            check_sure_fit("fig9", &fig9.unwrap()).2,
            check_sure_fit("fig10", &fig10.unwrap()).2,
            check_sure_fit("uniform", &un).2,
            check_sure_fit("exponential", &ex).2,
            check_sure_fit("lognormal", &ln).2,
        ];
        // At Fig. 8 the closed form must carry most of what quadrature
        // certifies (56 of 67 scan points), and the scan must use it: the
        // quadrature kernel runs at fewer than a third of the scan points
        // below W_int (about 11 of 67), not at every one.
        let (quadrature, both, fig8_layers_only) = check_sure_fit("fig8", &fig8);
        layers_only.push(fig8_layers_only);
        // The layer cake certifies scan points the closed form leaves, in
        // every case.
        assert!(layers_only.iter().all(|&n| n > 0), "{layers_only:?}");
        assert!(
            both as f64 >= 0.7 * quadrature as f64,
            "fig8: the closed form accepts {both} of the {quadrature} points quadrature certifies"
        );
        let counted = Counting::new(trunc_normal_task(3.0, 0.5));
        let fig8 = DynamicStrategy::new(counted, ckpt(5.0, 0.4), 29.0).unwrap();
        let w_int = fig8.threshold().unwrap().expect("threshold exists");
        let below = (w_int / (29.0 / 96.0)) as usize;
        let calls = fig8.task().kernel_calls.get();
        assert!(
            3 * calls < below,
            "fig8: quadrature ran at {calls} of {below} points"
        );
    }

    #[test]
    fn decision_is_monotone_in_work() {
        // Once checkpointing wins it keeps winning (single crossing in
        // the operational range).
        let d = DynamicStrategy::new(Gamma::new(1.0, 0.5).unwrap(), ckpt(2.0, 0.4), 10.0).unwrap();
        let w_int = d.threshold().unwrap().unwrap();
        let mut crossed = false;
        for i in 0..100 {
            let w = 10.0 * i as f64 / 100.0;
            if w > w_int + 0.05 && w < 10.0 - 2.0 {
                // comfortably past threshold but checkpoint still fits
                assert!(d.should_checkpoint(w), "w={w} should checkpoint");
                crossed = true;
            }
        }
        assert!(crossed);
    }
}
