//! Kolmogorov–Smirnov goodness-of-fit tier for every continuous sampler
//! in `resq-dist`, covering BOTH draw paths against the law's analytic
//! CDF at fixed seeds:
//!
//! * the scalar path (`Sample::sample` in a loop), and
//! * the batch path (`Sample::sample_batch_mono` filling a whole
//!   buffer), driven both through a trait-object generator
//!   (`R = dyn RngCore`, as `dyn`-holding callers reach it) and with a
//!   concrete generator (the Monte-Carlo hot entry since the ziggurat
//!   throughput engine) —
//!
//! including the kernels that change draw order (the mask-repair
//! Truncated rejection kernel), which are only *statistically*
//! equivalent to the scalar path and therefore need a distributional
//! test, not a bitwise one. The ziggurat Normal / LogNormal batch
//! kernels are draw-order preserving (bitwise tests live in
//! `tests/determinism.rs` and in `resq-dist`); here they are KS-checked
//! as distributions in their own right, tails included.
//!
//! Seeds are fixed, so every p-value below is a deterministic number and
//! the thresholds are not flaky: a failure means a sampler actually
//! regressed. The default tier draws 4 000 variates per law; the
//! high-resolution tier (200 000 variates, tight p-value floors) runs
//! only when `RESQ_SLOW_TESTS=1` — CI runs it as a separate job.

use rand::RngCore;
use resq::dist::{
    ks_test, Beta, Continuous, Exponential, Gamma, LogNormal, Mixture, Normal, Pareto, Sample,
    Triangular, Truncated, Uniform, Weibull, Xoshiro256pp,
};

/// True when the slow, high-resolution tier is requested.
fn slow_enabled() -> bool {
    std::env::var("RESQ_SLOW_TESTS").map(|v| v == "1").unwrap_or(false)
}

/// KS-checks `law` on both draw paths with `n` variates per path.
///
/// The scalar, dyn batch, and monomorphized samples use different seeds on
/// purpose: the paths are independent draws from the same law, and
/// reusing a seed would make a check vacuous for draw-order-preserving
/// kernels (identical bits trivially share a KS statistic).
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

    let mut rng = Xoshiro256pp::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let dyn_rng: &mut dyn RngCore = &mut rng;
    let mut batch = vec![0.0f64; n];
    law.sample_batch_mono(dyn_rng, &mut batch);
    let out = ks_test(&batch, law);
    assert!(
        out.p_value > p_floor,
        "{name}: dyn batch path rejected by KS (D = {:.5}, p = {:.3e}, n = {n})",
        out.statistic,
        out.p_value
    );

    // Monomorphized batch entry with a concrete generator — the
    // Monte-Carlo hot path (ziggurat Normal / LogNormal fills, the
    // mask-repair Truncated kernel) compiled without virtual dispatch.
    let mut rng = Xoshiro256pp::new(seed ^ 0x5851_f42d_4c95_7f2d);
    let mut mono = vec![0.0f64; n];
    law.sample_batch_mono(&mut rng, &mut mono);
    let out = ks_test(&mono, law);
    assert!(
        out.p_value > p_floor,
        "{name}: monomorphized batch path rejected by KS (D = {:.5}, p = {:.3e}, n = {n})",
        out.statistic,
        out.p_value
    );

    // Batch fills of awkward lengths (odd, sub-block, just past a
    // refill boundary) must hit the same law — exercises the ziggurat
    // fill tail, the mask-repair tile remainder, and the uniform-block
    // tail.
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
    check_gof("exponential", &Exponential::new(0.5).unwrap(), 12, n, p_floor);
    check_gof("normal", &Normal::new(3.0, 0.5).unwrap(), 13, n, p_floor);
    check_gof("lognormal", &LogNormal::new(1.0, 0.35).unwrap(), 14, n, p_floor);
    check_gof("gamma", &Gamma::new(9.0, 1.0 / 3.0).unwrap(), 15, n, p_floor);
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
    // The paper's N_[0,∞) task and checkpoint laws: mass ≈ 1, so the
    // batch kernel takes the rejection-from-parent-batch branch.
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
    // A deep tail slice (mass ≈ 0.021 < 0.9): the batch kernel must
    // switch to buffered quantile inversion, never rejection.
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
