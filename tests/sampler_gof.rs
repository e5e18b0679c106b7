//! Kolmogorov–Smirnov goodness-of-fit tier for every continuous sampler
//! in `resq-dist`: the scalar path (`Sample::sample` in a loop) against
//! the law's analytic CDF at fixed seeds, tails included.
//!
//! The batch path (`Sample::sample_batch_mono`) needs no KS leg of its
//! own: every batch kernel is bit-identical to repeated scalar draws,
//! which `crates/dist/tests/batch_contract.rs` checks for every sampler.
//! Here batch fills of awkward lengths are only checked to stay inside
//! the support.
//!
//! Seeds are fixed, so every p-value below is a deterministic number and
//! the thresholds are not flaky: a failure means a sampler actually
//! regressed. The default tier draws 4 000 variates per law; the
//! high-resolution tier (200 000 variates, tight p-value floors) runs
//! only when `RESQ_SLOW_TESTS=1` — CI runs it as a separate job.

use resq::dist::{
    ks_test, Beta, Continuous, Exponential, Gamma, LogNormal, Mixture, Normal, Pareto, Sample,
    Triangular, Truncated, Uniform, Weibull, Xoshiro256pp,
};

/// True when the slow, high-resolution tier is requested.
fn slow_enabled() -> bool {
    std::env::var("RESQ_SLOW_TESTS")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// KS-checks `law`'s scalar path with `n` variates, and checks that
/// batch fills stay inside the support.
fn check_gof<D: Continuous + Sample>(name: &str, law: &D, seed: u64, n: usize, p_floor: f64) {
    let mut rng = Xoshiro256pp::new(seed);
    let scalar = law.sample_vec(&mut rng, n);
    let out = ks_test(&scalar, law);
    assert!(
        out.p_value > p_floor,
        "{name}: scalar path rejected by KS (D = {:.5}, p = {:.3e}, n = {n})",
        out.statistic,
        out.p_value
    );

    // Batch fills of awkward lengths (odd, sub-block, just past a
    // refill boundary) — exercises the ziggurat fill tail, the
    // truncated rejection refill, and the uniform-block tail.
    for (i, &len) in [1usize, 7, 63, 65].iter().enumerate() {
        let mut rng = Xoshiro256pp::new(seed.wrapping_add(100 + i as u64));
        let mut out_buf = vec![0.0f64; len];
        law.sample_batch_mono(&mut rng, &mut out_buf);
        let (lo, hi) = law.support();
        for &x in &out_buf {
            assert!(
                x >= lo && x <= hi && x.is_finite(),
                "{name}: batch draw {x} outside support [{lo}, {hi}] at len {len}"
            );
        }
    }
}

/// Runs the whole sampler roster through [`check_gof`].
fn run_roster(n: usize, p_floor: f64) {
    check_gof("uniform", &Uniform::new(1.0, 7.5).unwrap(), 11, n, p_floor);
    check_gof(
        "exponential",
        &Exponential::new(0.5).unwrap(),
        12,
        n,
        p_floor,
    );
    check_gof("normal", &Normal::new(3.0, 0.5).unwrap(), 13, n, p_floor);
    check_gof(
        "lognormal",
        &LogNormal::new(1.0, 0.35).unwrap(),
        14,
        n,
        p_floor,
    );
    check_gof(
        "gamma",
        &Gamma::new(9.0, 1.0 / 3.0).unwrap(),
        15,
        n,
        p_floor,
    );
    check_gof("weibull", &Weibull::new(1.5, 2.0).unwrap(), 16, n, p_floor);
    check_gof("beta", &Beta::new(2.0, 3.0).unwrap(), 17, n, p_floor);
    check_gof("pareto", &Pareto::new(1.0, 3.0).unwrap(), 18, n, p_floor);
    check_gof(
        "triangular",
        &Triangular::new(1.0, 3.0, 7.5).unwrap(),
        19,
        n,
        p_floor,
    );
    // The paper's N_[0,∞) task and checkpoint laws: mass ≈ 1, so both
    // paths sample by rejection from the parent — which almost never
    // rejects at this mass.
    check_gof(
        "truncated-normal (rejection regime, task law)",
        &Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap(),
        20,
        n,
        p_floor,
    );
    check_gof(
        "truncated-normal (rejection regime, ckpt law)",
        &Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap(),
        21,
        n,
        p_floor,
    );
    // N(0,1) on [−2, 2] (mass ≈ 0.954): ~4.5% of parent draws are
    // rejected, so the rejection loop actually runs.
    check_gof(
        "truncated-normal (rejection regime, ~4.5% rejects)",
        &Truncated::new(Normal::new(0.0, 1.0).unwrap(), -2.0, 2.0).unwrap(),
        26,
        n,
        p_floor,
    );
    // A deep tail slice (mass ≈ 0.021 < 0.9): sampling must switch to
    // quantile inversion, never rejection.
    check_gof(
        "truncated-normal (inversion regime, tail slice)",
        &Truncated::new(Normal::new(0.0, 1.0).unwrap(), 2.0, 3.0).unwrap(),
        22,
        n,
        p_floor,
    );
    // A central slice with mass just below the rejection cutoff.
    check_gof(
        "truncated-normal (inversion regime, central slice)",
        &Truncated::new(Normal::new(3.0, 0.5).unwrap(), 2.6, 3.4).unwrap(),
        23,
        n,
        p_floor,
    );
    // Truncated non-Normal parent (exercises the generic parent path).
    check_gof(
        "truncated-exponential",
        &Truncated::new(Exponential::new(0.5).unwrap(), 1.0, 5.0).unwrap(),
        24,
        n,
        p_floor,
    );
    check_gof(
        "mixture of normals",
        &Mixture::new(vec![
            (0.4, Normal::new(2.0, 0.5).unwrap()),
            (0.6, Normal::new(5.0, 1.0).unwrap()),
        ])
        .unwrap(),
        25,
        n,
        p_floor,
    );
}

#[test]
fn every_sampler_passes_ks_on_both_paths() {
    run_roster(4_000, 1e-3);
}

#[test]
fn every_sampler_passes_high_resolution_ks_when_enabled() {
    if !slow_enabled() {
        eprintln!("skipped: set RESQ_SLOW_TESTS=1 to run the high-resolution KS tier");
        return;
    }
    run_roster(200_000, 1e-3);
}
