//! [`DynLaw`] — the one type-erased continuous law.
//!
//! The CLI parses law strings into it, and the fitter ([`crate::fit`])
//! and the trace learner hand their models back in it, so a law whose
//! type is only known at run time still plugs into the strongly-typed
//! planners and simulators. It forwards every method of
//! [`Distribution`], [`Continuous`] and [`Sample`] (partial means, the
//! log-density, the batch CDF and the batch kernel included) to the law
//! it wraps, so it answers every one of them exactly as that law does.

use crate::{Continuous, Distribution, Sample};
use rand::RngCore;
use std::fmt::Debug;
use std::sync::Arc;

/// Object-safe bundle of everything [`DynLaw`] forwards.
trait ErasedLaw: Debug + Send + Sync {
    fn pdf(&self, x: f64) -> f64;
    fn cdf(&self, x: f64) -> f64;
    fn cdf_into(&self, xs: &[f64], out: &mut [f64]);
    fn sf(&self, x: f64) -> f64;
    fn quantile(&self, p: f64) -> f64;
    fn support(&self) -> (f64, f64);
    fn ln_pdf(&self, x: f64) -> f64;
    fn partial_mean(&self, x: f64) -> Option<f64>;
    fn upper_partial_mean(&self, x: f64) -> Option<f64>;
    fn mean(&self) -> f64;
    fn variance(&self) -> f64;
    fn sample(&self, rng: &mut dyn RngCore) -> f64;
    /// [`Sample::sample_batch_mono`] with `R = dyn RngCore`; keeps a
    /// batched trial from degrading to one virtual call per draw.
    fn sample_batch(&self, rng: &mut dyn RngCore, out: &mut [f64]);
}

impl<D: Continuous + Sample + Debug + Send + Sync> ErasedLaw for D {
    fn pdf(&self, x: f64) -> f64 {
        Continuous::pdf(self, x)
    }
    fn cdf(&self, x: f64) -> f64 {
        Continuous::cdf(self, x)
    }
    fn cdf_into(&self, xs: &[f64], out: &mut [f64]) {
        Continuous::cdf_into(self, xs, out)
    }
    fn sf(&self, x: f64) -> f64 {
        Continuous::sf(self, x)
    }
    fn quantile(&self, p: f64) -> f64 {
        Continuous::quantile(self, p)
    }
    fn support(&self) -> (f64, f64) {
        Continuous::support(self)
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        Continuous::ln_pdf(self, x)
    }
    fn partial_mean(&self, x: f64) -> Option<f64> {
        Continuous::partial_mean(self, x)
    }
    fn upper_partial_mean(&self, x: f64) -> Option<f64> {
        Continuous::upper_partial_mean(self, x)
    }
    fn mean(&self) -> f64 {
        Distribution::mean(self)
    }
    fn variance(&self) -> f64 {
        Distribution::variance(self)
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        Sample::sample(self, rng)
    }
    fn sample_batch(&self, rng: &mut dyn RngCore, out: &mut [f64]) {
        Sample::sample_batch_mono(self, rng, out)
    }
}

/// A type-erased continuous law that answers as the law it wraps.
///
/// Cloning shares the wrapped law.
///
/// ```
/// use resq_dist::{Continuous, DynLaw, Normal, Truncated};
///
/// let law = Truncated::above(Normal::new(5.0, 0.4)?, 0.0)?;
/// let erased = DynLaw::new(law);
/// assert_eq!(erased.partial_mean(5.0), law.partial_mean(5.0));
/// # Ok::<(), resq_dist::DistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynLaw(Arc<dyn ErasedLaw>);

impl DynLaw {
    /// Erases the type of `law`.
    pub fn new<D: Continuous + Sample + Debug + Send + Sync + 'static>(law: D) -> Self {
        Self(Arc::new(law))
    }
}

impl Distribution for DynLaw {
    fn mean(&self) -> f64 {
        self.0.mean()
    }
    fn variance(&self) -> f64 {
        self.0.variance()
    }
}

impl Continuous for DynLaw {
    fn pdf(&self, x: f64) -> f64 {
        self.0.pdf(x)
    }
    fn cdf(&self, x: f64) -> f64 {
        self.0.cdf(x)
    }
    fn cdf_into(&self, xs: &[f64], out: &mut [f64]) {
        self.0.cdf_into(xs, out)
    }
    fn sf(&self, x: f64) -> f64 {
        self.0.sf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.0.quantile(p)
    }
    fn support(&self) -> (f64, f64) {
        self.0.support()
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        self.0.ln_pdf(x)
    }
    fn partial_mean(&self, x: f64) -> Option<f64> {
        self.0.partial_mean(x)
    }
    fn upper_partial_mean(&self, x: f64) -> Option<f64> {
        self.0.upper_partial_mean(x)
    }
}

impl Sample for DynLaw {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.0.sample(rng)
    }
    fn sample_batch_mono<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        let mut rng = rng;
        self.0.sample_batch(&mut rng, out)
    }
}
