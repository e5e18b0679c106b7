//! Property-based tests for the distribution substrate: CDF axioms,
//! quantile inversion, truncation normalization, sampling support.

use proptest::prelude::*;
use rand::RngCore;
use resq_dist::*;

/// Checks the Continuous axioms on a probe grid.
fn check_continuous_axioms<D: Continuous>(d: &D, probes: &[f64]) -> Result<(), TestCaseError> {
    let mut prev_x = f64::NEG_INFINITY;
    let mut prev_c = 0.0;
    let mut sorted = probes.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for &x in &sorted {
        let c = d.cdf(x);
        prop_assert!((0.0..=1.0).contains(&c), "cdf({x}) = {c}");
        if x >= prev_x {
            prop_assert!(c >= prev_c - 1e-12, "cdf not monotone at {x}");
        }
        prop_assert!(d.pdf(x) >= 0.0, "pdf({x}) < 0");
        prop_assert!(
            (d.cdf(x) + d.sf(x) - 1.0).abs() < 1e-9,
            "cdf+sf != 1 at {x}"
        );
        prev_x = x;
        prev_c = c;
    }
    Ok(())
}

fn check_quantile_inversion<D: Continuous>(d: &D, ps: &[f64]) -> Result<(), TestCaseError> {
    for &p in ps {
        let x = d.quantile(p);
        let back = d.cdf(x);
        prop_assert!(
            (back - p).abs() < 1e-7,
            "quantile({p}) = {x}, cdf back = {back}"
        );
    }
    Ok(())
}

fn check_samples_in_support<D: Continuous + Sample>(
    d: &D,
    rng: &mut dyn RngCore,
) -> Result<(), TestCaseError> {
    let (lo, hi) = d.support();
    for _ in 0..64 {
        let x = d.sample(rng);
        prop_assert!(
            x >= lo - 1e-12 && x <= hi + 1e-12,
            "sample {x} outside [{lo},{hi}]"
        );
    }
    Ok(())
}

const PS: [f64; 7] = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn uniform_axioms(a in -50.0f64..50.0, w in 0.01f64..100.0, seed in 0u64..1000) {
        let d = Uniform::new(a, a + w).unwrap();
        let probes: Vec<f64> = (0..20).map(|i| a - 1.0 + (w + 2.0) * i as f64 / 19.0).collect();
        check_continuous_axioms(&d, &probes)?;
        check_quantile_inversion(&d, &PS)?;
        let mut rng = Xoshiro256pp::new(seed);
        check_samples_in_support(&d, &mut rng)?;
    }

    #[test]
    fn exponential_axioms(lambda in 0.01f64..20.0, seed in 0u64..1000) {
        let d = Exponential::new(lambda).unwrap();
        let probes: Vec<f64> = (0..20).map(|i| i as f64 / lambda / 4.0).collect();
        check_continuous_axioms(&d, &probes)?;
        check_quantile_inversion(&d, &PS)?;
        let mut rng = Xoshiro256pp::new(seed);
        check_samples_in_support(&d, &mut rng)?;
    }

    #[test]
    fn normal_axioms(mu in -20.0f64..20.0, sigma in 0.01f64..10.0, seed in 0u64..1000) {
        let d = Normal::new(mu, sigma).unwrap();
        let probes: Vec<f64> = (-10..=10).map(|i| mu + sigma * i as f64 / 2.0).collect();
        check_continuous_axioms(&d, &probes)?;
        check_quantile_inversion(&d, &PS)?;
        let mut rng = Xoshiro256pp::new(seed);
        check_samples_in_support(&d, &mut rng)?;
    }

    #[test]
    fn lognormal_axioms(mu in -2.0f64..3.0, sigma in 0.05f64..1.5, seed in 0u64..1000) {
        let d = LogNormal::new(mu, sigma).unwrap();
        let med = mu.exp();
        let probes: Vec<f64> = (0..20).map(|i| med * (0.1 + 0.3 * i as f64)).collect();
        check_continuous_axioms(&d, &probes)?;
        check_quantile_inversion(&d, &PS)?;
        let mut rng = Xoshiro256pp::new(seed);
        check_samples_in_support(&d, &mut rng)?;
    }

    #[test]
    fn gamma_axioms(k in 0.2f64..30.0, theta in 0.05f64..5.0, seed in 0u64..1000) {
        let d = Gamma::new(k, theta).unwrap();
        let m = d.mean();
        let probes: Vec<f64> = (0..20).map(|i| m * i as f64 / 5.0).collect();
        check_continuous_axioms(&d, &probes)?;
        check_quantile_inversion(&d, &PS)?;
        let mut rng = Xoshiro256pp::new(seed);
        check_samples_in_support(&d, &mut rng)?;
    }

    #[test]
    fn weibull_axioms(k in 0.3f64..8.0, lam in 0.1f64..10.0, seed in 0u64..1000) {
        let d = Weibull::new(k, lam).unwrap();
        let probes: Vec<f64> = (0..20).map(|i| lam * i as f64 / 5.0).collect();
        check_continuous_axioms(&d, &probes)?;
        check_quantile_inversion(&d, &PS)?;
        let mut rng = Xoshiro256pp::new(seed);
        check_samples_in_support(&d, &mut rng)?;
    }

    #[test]
    fn truncated_normal_axioms(
        mu in -5.0f64..10.0,
        sigma in 0.1f64..3.0,
        lo in -2.0f64..4.0,
        w in 0.5f64..8.0,
        seed in 0u64..1000,
    ) {
        let parent = Normal::new(mu, sigma).unwrap();
        let Ok(d) = Truncated::new(parent, lo, lo + w) else {
            // Zero-mass interval under extreme parameters: acceptable.
            return Ok(());
        };
        let probes: Vec<f64> = (0..20).map(|i| lo - 0.5 + (w + 1.0) * i as f64 / 19.0).collect();
        check_continuous_axioms(&d, &probes)?;
        check_quantile_inversion(&d, &PS)?;
        let mut rng = Xoshiro256pp::new(seed);
        for _ in 0..64 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo && x <= lo + w, "sample {x} escaped truncation");
        }
        // Truncated mass integrates to ~1.
        let total = resq_numerics::adaptive_simpson(|x| d.pdf(x), lo, lo + w, 1e-10).value;
        prop_assert!((total - 1.0).abs() < 1e-6, "mass {total}");
    }

    #[test]
    fn truncation_preserves_relative_probabilities(
        lo in 0.5f64..2.0,
        w in 0.5f64..4.0,
    ) {
        // For x,y inside the interval: P_trunc(X≤x)/P_trunc(X≤y) relation
        // to parent probabilities.
        let parent = Exponential::new(0.5).unwrap();
        let hi = lo + w;
        let d = Truncated::new(parent, lo, hi).unwrap();
        let x = lo + 0.3 * w;
        let want = (parent.cdf(x) - parent.cdf(lo)) / (parent.cdf(hi) - parent.cdf(lo));
        prop_assert!((d.cdf(x) - want).abs() < 1e-10);
    }

    #[test]
    fn poisson_axioms(lambda in 0.1f64..80.0, seed in 0u64..1000) {
        let d = Poisson::new(lambda).unwrap();
        // pmf sums to ~1 over a wide window.
        let hi = (lambda + 12.0 * lambda.sqrt()) as u64 + 12;
        let mass: f64 = (0..=hi).map(|k| d.pmf(k)).sum();
        prop_assert!((mass - 1.0).abs() < 1e-8, "mass {mass}");
        // cdf is monotone.
        let mut prev = 0.0;
        for k in 0..=hi.min(200) {
            let c = d.cdf(k);
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
        // Samples are integers within a plausible window.
        let mut rng = Xoshiro256pp::new(seed);
        for _ in 0..32 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= 0.0 && x == x.floor());
        }
    }

    #[test]
    fn empirical_cdf_bounds(data in prop::collection::vec(-100.0f64..100.0, 1..200), probe in -120.0f64..120.0) {
        let e = Empirical::new(&data).unwrap();
        let c = e.cdf(probe);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(e.min() <= e.max());
        prop_assert!(e.variance() >= 0.0);
    }

    #[test]
    fn fitted_model_reproduces_moments(mu in 1.0f64..10.0, sigma in 0.1f64..1.0, seed in 0u64..100) {
        let truth = Normal::new(mu, sigma).unwrap();
        let mut rng = Xoshiro256pp::new(seed);
        let data = truth.sample_vec(&mut rng, 4000);
        let best = fit_best(&data).unwrap();
        prop_assert!((best.model.mean() - mu).abs() < 0.2 * sigma.max(0.5), "mean {}", best.model.mean());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn beta_axioms(alpha in 0.3f64..20.0, beta_p in 0.3f64..20.0, seed in 0u64..1000) {
        let d = Beta::new(alpha, beta_p).unwrap();
        let probes: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        check_continuous_axioms(&d, &probes)?;
        check_quantile_inversion(&d, &PS)?;
        let mut rng = Xoshiro256pp::new(seed);
        check_samples_in_support(&d, &mut rng)?;
        // Mean identity.
        prop_assert!((d.mean() - alpha / (alpha + beta_p)).abs() < 1e-12);
    }

    #[test]
    fn pareto_axioms(scale in 0.2f64..5.0, shape in 0.5f64..8.0, seed in 0u64..1000) {
        let d = Pareto::new(scale, shape).unwrap();
        let probes: Vec<f64> = (0..20).map(|i| scale * (1.0 + 0.4 * i as f64)).collect();
        check_continuous_axioms(&d, &probes)?;
        check_quantile_inversion(&d, &PS)?;
        let mut rng = Xoshiro256pp::new(seed);
        check_samples_in_support(&d, &mut rng)?;
    }

    #[test]
    fn triangular_axioms(
        a in -10.0f64..10.0,
        w in 0.5f64..20.0,
        mode_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let b = a + w;
        let c = a + mode_frac * w;
        let d = Triangular::new(a, c, b).unwrap();
        let probes: Vec<f64> = (0..=20).map(|i| a - 0.5 + (w + 1.0) * i as f64 / 20.0).collect();
        check_continuous_axioms(&d, &probes)?;
        check_quantile_inversion(&d, &PS)?;
        let mut rng = Xoshiro256pp::new(seed);
        check_samples_in_support(&d, &mut rng)?;
        // Mean identity.
        prop_assert!((d.mean() - (a + b + c) / 3.0).abs() < 1e-10);
    }
}
