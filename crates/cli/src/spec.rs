//! Textual distribution specifications, e.g. `uniform:1,7.5`,
//! `normal:3,0.5`, `exponential:0.5`, `lognormal:1,0.35`, `gamma:1,0.5`,
//! `poisson:3`, optionally truncated with `@a,b` (`normal:3.5,1@1,7.5`)
//! or half-truncated with `@0,` (`normal:5,0.4@0,` — the paper's
//! `N_{[0,∞)}`). Parsed laws are wrapped in [`DynLaw`], which implements
//! the real `resq` traits so they plug straight into `Preemptible`,
//! `DynamicStrategy`, `ConvolutionStatic` and the simulators, and
//! answers every one of them exactly as the law it wraps.

use crate::args::ArgError;
use rand::RngCore;
use resq::dist::{
    Continuous, Distribution, Exponential, Gamma, LogNormal, Normal, Poisson, Sample, Truncated,
    Uniform,
};

/// Object-safe bundle of everything a type-erased law must provide.
pub trait ErasedLaw: Send + Sync {
    /// Density.
    fn pdf(&self, x: f64) -> f64;
    /// CDF.
    fn cdf(&self, x: f64) -> f64;
    /// Survival function.
    fn sf(&self, x: f64) -> f64;
    /// Quantile.
    fn quantile(&self, p: f64) -> f64;
    /// Support.
    fn support(&self) -> (f64, f64);
    /// Log-density.
    fn ln_pdf(&self, x: f64) -> f64;
    /// Partial expectation `E[X·1{X ≤ x}]`, when in closed form.
    fn partial_mean(&self, x: f64) -> Option<f64>;
    /// Upper partial expectation `E[X·1{X > x}]`, when in closed form.
    fn upper_partial_mean(&self, x: f64) -> Option<f64>;
    /// Mean.
    fn mean(&self) -> f64;
    /// Variance.
    fn variance(&self) -> f64;
    /// Draw one variate.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;
    /// Fill a slice with variates via the law's batch kernel —
    /// [`Sample::sample_batch_mono`] with `R = dyn RngCore`; keeps
    /// `simulate`'s batched trials from degrading to one virtual call
    /// per draw.
    fn sample_batch(&self, rng: &mut dyn RngCore, out: &mut [f64]);
}

impl<D: Continuous + Sample + Send + Sync> ErasedLaw for D {
    fn pdf(&self, x: f64) -> f64 {
        Continuous::pdf(self, x)
    }
    fn cdf(&self, x: f64) -> f64 {
        Continuous::cdf(self, x)
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

/// A type-erased continuous law implementing the `resq` traits, so CLI
/// strings flow into the library's strongly-typed API.
pub struct DynLaw(pub Box<dyn ErasedLaw>);

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

/// `TaskDuration` comes from the library's blanket impl over this
/// marker, so `plan-dynamic` runs the same §4.3 kernels, convergence
/// check and scan certificates on a CLI law as on the law it wraps.
impl resq::core::workflow::task_law::ContinuousTask for DynLaw {}

/// A parsed law: continuous (possibly truncated) or Poisson.
pub enum LawSpec {
    /// Any continuous law.
    Continuous(DynLaw),
    /// Poisson (discrete) — valid as a task law only.
    Poisson(Poisson),
}

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

fn parse_params(raw: &str, n: usize, what: &str) -> Result<Vec<f64>, ArgError> {
    let parts: Vec<&str> = raw.split(',').collect();
    if parts.len() != n {
        return Err(err(format!("{what} expects {n} parameter(s), got `{raw}`")));
    }
    parts
        .iter()
        .map(|p| {
            p.trim()
                .parse::<f64>()
                .map_err(|_| err(format!("bad number `{p}` in `{raw}`")))
        })
        .collect()
}

fn boxed<D>(law: D, trunc: Option<(f64, f64)>) -> Result<DynLaw, ArgError>
where
    D: Continuous + Sample + Send + Sync + 'static,
{
    match trunc {
        None => Ok(DynLaw(Box::new(law))),
        Some((lo, hi)) => {
            let t = Truncated::new(law, lo, hi).map_err(|e| err(e.to_string()))?;
            Ok(DynLaw(Box::new(t)))
        }
    }
}

/// Parses a law spec string.
pub fn parse_law(raw: &str) -> Result<LawSpec, ArgError> {
    // Split optional truncation suffix `@lo,hi` (empty side = infinite).
    let (body, trunc) = match raw.split_once('@') {
        None => (raw, None),
        Some((body, t)) => {
            let (lo_s, hi_s) = t
                .split_once(',')
                .ok_or_else(|| err(format!("truncation `@{t}` must be `@lo,hi`")))?;
            let lo = if lo_s.trim().is_empty() {
                f64::NEG_INFINITY
            } else {
                lo_s.trim()
                    .parse()
                    .map_err(|_| err(format!("bad truncation bound `{lo_s}`")))?
            };
            let hi = if hi_s.trim().is_empty() {
                f64::INFINITY
            } else {
                hi_s.trim()
                    .parse()
                    .map_err(|_| err(format!("bad truncation bound `{hi_s}`")))?
            };
            (body, Some((lo, hi)))
        }
    };
    let (name, params) = body
        .split_once(':')
        .ok_or_else(|| err(format!("law `{body}` must be `name:params`")))?;
    let law = match name {
        "uniform" => {
            let p = parse_params(params, 2, "uniform")?;
            boxed(Uniform::new(p[0], p[1]).map_err(|e| err(e.to_string()))?, trunc)?
        }
        "exponential" | "exp" => {
            let p = parse_params(params, 1, "exponential")?;
            boxed(Exponential::new(p[0]).map_err(|e| err(e.to_string()))?, trunc)?
        }
        "normal" => {
            let p = parse_params(params, 2, "normal")?;
            boxed(Normal::new(p[0], p[1]).map_err(|e| err(e.to_string()))?, trunc)?
        }
        "lognormal" => {
            let p = parse_params(params, 2, "lognormal")?;
            boxed(
                LogNormal::new(p[0], p[1]).map_err(|e| err(e.to_string()))?,
                trunc,
            )?
        }
        "gamma" => {
            let p = parse_params(params, 2, "gamma")?;
            boxed(Gamma::new(p[0], p[1]).map_err(|e| err(e.to_string()))?, trunc)?
        }
        "poisson" => {
            if trunc.is_some() {
                return Err(err("poisson does not support truncation"));
            }
            let p = parse_params(params, 1, "poisson")?;
            return Ok(LawSpec::Poisson(
                Poisson::new(p[0]).map_err(|e| err(e.to_string()))?,
            ));
        }
        other => {
            return Err(err(format!(
                "unknown law `{other}` (expected uniform/exponential/normal/lognormal/gamma/poisson)"
            )))
        }
    };
    Ok(LawSpec::Continuous(law))
}

/// Parses a retry-policy spec for `resq simulate --retry`:
/// `none` (single attempt), `immediate:K`, `backoff:K,D` (delay `D`
/// between attempts), or `workon` (give up and work on after a failed
/// write).
pub fn parse_retry(raw: &str) -> Result<resq::RetryPolicy, ArgError> {
    let policy = match raw.split_once(':') {
        None => match raw {
            "none" => resq::RetryPolicy::Immediate { max_attempts: 1 },
            "workon" => resq::RetryPolicy::GiveUpAndWorkOn,
            other => {
                return Err(err(format!(
                    "unknown retry policy `{other}` (expected none/immediate:K/backoff:K,D/workon)"
                )))
            }
        },
        Some(("immediate", k)) => resq::RetryPolicy::Immediate {
            max_attempts: k
                .trim()
                .parse()
                .map_err(|_| err(format!("bad attempt count `{k}` in retry spec")))?,
        },
        Some(("backoff", params)) => {
            let (k, d) = params
                .split_once(',')
                .ok_or_else(|| err(format!("retry `backoff:{params}` must be `backoff:K,D`")))?;
            resq::RetryPolicy::Backoff {
                max_attempts: k
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("bad attempt count `{k}` in retry spec")))?,
                delay: d
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("bad backoff delay `{d}` in retry spec")))?,
            }
        }
        Some((other, _)) => {
            return Err(err(format!(
                "unknown retry policy `{other}` (expected none/immediate:K/backoff:K,D/workon)"
            )))
        }
    };
    policy.validate().map_err(|e| err(e.to_string()))?;
    Ok(policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_families() {
        for raw in [
            "uniform:1,7.5",
            "exponential:0.5",
            "exp:0.5",
            "normal:3,0.5",
            "lognormal:1,0.35",
            "gamma:1,0.5",
        ] {
            assert!(matches!(parse_law(raw), Ok(LawSpec::Continuous(_))), "{raw}");
        }
        assert!(matches!(parse_law("poisson:3"), Ok(LawSpec::Poisson(_))));
    }

    #[test]
    fn parses_retry_specs() {
        assert_eq!(
            parse_retry("none").unwrap(),
            resq::RetryPolicy::Immediate { max_attempts: 1 }
        );
        assert_eq!(
            parse_retry("immediate:3").unwrap(),
            resq::RetryPolicy::Immediate { max_attempts: 3 }
        );
        assert_eq!(
            parse_retry("backoff:4,0.5").unwrap(),
            resq::RetryPolicy::Backoff {
                max_attempts: 4,
                delay: 0.5
            }
        );
        assert_eq!(parse_retry("workon").unwrap(), resq::RetryPolicy::GiveUpAndWorkOn);
        for bad in [
            "immediate:0",
            "immediate:x",
            "backoff:2",
            "backoff:2,-1",
            "exponential",
            "",
            "backoff:,",
        ] {
            assert!(parse_retry(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn truncation_suffix() {
        let LawSpec::Continuous(law) = parse_law("normal:5,0.4@0,").unwrap() else {
            panic!("expected continuous");
        };
        let (lo, hi) = Continuous::support(&law);
        assert_eq!(lo, 0.0);
        assert_eq!(hi, f64::INFINITY);
        // Two-sided.
        let LawSpec::Continuous(law) = parse_law("normal:3.5,1@1,7.5").unwrap() else {
            panic!()
        };
        assert_eq!(Continuous::support(&law), (1.0, 7.5));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_law("nope:1").is_err());
        assert!(parse_law("normal").is_err());
        assert!(parse_law("normal:1").is_err());
        assert!(parse_law("normal:a,b").is_err());
        assert!(parse_law("poisson:3@0,").is_err());
        assert!(parse_law("uniform:7.5,1").is_err());
        assert!(parse_law("normal:3,1@5").is_err());
    }

    #[test]
    fn dyn_law_plugs_into_library_types() {
        let LawSpec::Continuous(law) = parse_law("uniform:1,7.5").unwrap() else {
            panic!()
        };
        let model = resq::Preemptible::new(law, 10.0).unwrap();
        let plan = model.optimize();
        assert!((plan.lead_time - 5.5).abs() < 1e-5);
    }

    /// The bits of every closed form a planner reads from `law`: partial
    /// means, log-density, the fast-kernel feature and the sure-fit bound
    /// of `E[W_{+1}]`, over a sweep of its support.
    fn closed_form_bits<D: resq::core::workflow::task_law::TaskDuration + Continuous>(
        law: &D,
    ) -> Vec<Option<u64>> {
        let mut bits = vec![law.fast_kernel_feature().map(f64::to_bits)];
        for k in 0..=40 {
            let x = 0.25 * k as f64;
            bits.push(law.partial_mean(x).map(f64::to_bits));
            bits.push(law.upper_partial_mean(x).map(f64::to_bits));
            bits.push(Some(law.ln_pdf(x).to_bits()));
            bits.push(law.expected_one_more_sure_fit(1.5, x).map(f64::to_bits));
        }
        bits
    }

    #[test]
    fn cli_laws_answer_as_the_laws_they_wrap() {
        fn parsed(raw: &str) -> DynLaw {
            match parse_law(raw).unwrap() {
                LawSpec::Continuous(law) => law,
                LawSpec::Poisson(_) => panic!("{raw} is continuous"),
            }
        }
        let normal = Truncated::new(Normal::new(3.0, 0.5).unwrap(), 0.0, f64::INFINITY).unwrap();
        let lognormal = LogNormal::new(1.0, 0.35).unwrap();
        let cases = [
            ("normal:3,0.5@0,", closed_form_bits(&normal)),
            ("lognormal:1,0.35", closed_form_bits(&lognormal)),
            ("uniform:1,5", closed_form_bits(&Uniform::new(1.0, 5.0).unwrap())),
            ("gamma:2,1.5", closed_form_bits(&Gamma::new(2.0, 1.5).unwrap())),
        ];
        for (raw, want) in cases {
            assert_eq!(closed_form_bits(&parsed(raw)), want, "{raw}");
        }
    }

    #[test]
    fn dyn_law_dynamic_strategy() {
        let LawSpec::Continuous(task) = parse_law("normal:3,0.5@0,").unwrap() else {
            panic!()
        };
        let LawSpec::Continuous(ckpt) = parse_law("normal:5,0.4@0,").unwrap() else {
            panic!()
        };
        let d = resq::DynamicStrategy::new(task, ckpt, 29.0).unwrap();
        let w = d.threshold().unwrap().unwrap();
        assert!((w - 20.3).abs() < 0.3, "W_int = {w}");
    }
}
