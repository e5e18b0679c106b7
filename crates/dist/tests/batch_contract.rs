//! The `Sample::sample_batch_mono` contract, checked for every sampler in
//! `resq-dist`: filling a batch is bit-identical to the same number of
//! repeated `Sample::sample` calls and leaves the generator at the same
//! stream position — through a concrete generator (the Monte-Carlo hot
//! path) and through a `dyn RngCore` trait object alike.
//!
//! Lengths cross the 64-word uniform block and the 8-slot task block of
//! the simulators. `Truncated` is covered in both of its regimes, with
//! rejection laws whose reject rate ranges from ~1e-9 (the paper's
//! `N_[0,∞)` laws) to ~10%.

use rand::RngCore;
use resq_dist::{
    Beta, Constant, Continuous, DynLaw, Empirical, Exponential, Gamma, LogNormal, Mixture, Normal,
    Pareto, Poisson, Sample, Triangular, Truncated, Uniform, Weibull, Xoshiro256pp,
};

const LENGTHS: [usize; 8] = [0, 1, 7, 8, 63, 64, 65, 200];
const SEEDS: u64 = 200;

/// Asserts the contract for `law` over every seed and length.
fn check<D: Sample>(name: &str, law: &D) {
    for seed in 0..SEEDS {
        for &n in &LENGTHS {
            let stream = || Xoshiro256pp::for_stream(seed, n as u64);

            let mut rng = stream();
            let scalar: Vec<u64> = (0..n).map(|_| law.sample(&mut rng).to_bits()).collect();
            let next_word = rng.next_u64();

            let mut rng = stream();
            let mut out = vec![0.0f64; n];
            law.sample_batch_mono(&mut rng, &mut out);
            let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            assert_eq!(
                bits, scalar,
                "{name}: concrete batch bits, seed {seed}, n {n}"
            );
            assert_eq!(
                rng.next_u64(),
                next_word,
                "{name}: concrete batch stream position, seed {seed}, n {n}"
            );

            let mut rng = stream();
            let dyn_rng: &mut dyn RngCore = &mut rng;
            let mut out = vec![0.0f64; n];
            law.sample_batch_mono(dyn_rng, &mut out);
            let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, scalar, "{name}: dyn batch bits, seed {seed}, n {n}");
            assert_eq!(
                dyn_rng.next_u64(),
                next_word,
                "{name}: dyn batch stream position, seed {seed}, n {n}"
            );
        }
    }
}

/// A truncation of `parent` to `[lo, hi]` whose parent mass lies in
/// `mass`.
fn truncated<D: Continuous>(
    parent: D,
    lo: f64,
    hi: f64,
    mass: std::ops::RangeInclusive<f64>,
) -> Truncated<D> {
    let t = Truncated::new(parent, lo, hi).unwrap();
    assert!(
        mass.contains(&t.parent_mass()),
        "parent mass {} outside {mass:?}",
        t.parent_mass()
    );
    t
}

#[test]
fn untruncated_samplers_batch_like_repeated_scalar_draws() {
    check("uniform", &Uniform::new(1.0, 7.5).unwrap());
    check("exponential", &Exponential::new(0.5).unwrap());
    check("normal", &Normal::new(3.0, 0.5).unwrap());
    check("lognormal", &LogNormal::new(1.0, 0.35).unwrap());
    check("gamma", &Gamma::new(9.0, 1.0 / 3.0).unwrap());
    check("gamma (shape < 1)", &Gamma::new(0.5, 2.0).unwrap());
    check("weibull", &Weibull::new(1.5, 2.0).unwrap());
    check("beta", &Beta::new(2.0, 3.0).unwrap());
    check("pareto", &Pareto::new(1.0, 3.0).unwrap());
    check("triangular", &Triangular::new(1.0, 3.0, 7.5).unwrap());
    check("poisson", &Poisson::new(3.0).unwrap());
    check("poisson (large mean)", &Poisson::new(200.0).unwrap());
    check("constant", &Constant::new(4.0).unwrap());
    check(
        "empirical",
        &Empirical::new(&[4.1, 5.3, 4.8, 6.0, 5.1, 4.4]).unwrap(),
    );
    check(
        "mixture of normals",
        &Mixture::new(vec![
            (0.4, Normal::new(2.0, 0.5).unwrap()),
            (0.6, Normal::new(5.0, 1.0).unwrap()),
        ])
        .unwrap(),
    );
    check(
        "type-erased lognormal",
        &DynLaw::new(LogNormal::new(1.0, 0.35).unwrap()),
    );
    // The erased batch entry point must reach the truncated kernel.
    check(
        "type-erased N_[0,∞)(5, 0.4²)",
        &DynLaw::new(Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap()),
    );
}

#[test]
fn truncated_samplers_batch_like_repeated_scalar_draws_in_both_regimes() {
    // Rejection regime (parent mass ≥ 0.9). The paper's N_[0,∞) laws
    // reject at most once in ~1e9 draws; the others reject 4.5–10%.
    check(
        "paper task law N_[0,∞)(3, 0.5²)",
        &truncated(
            Normal::new(3.0, 0.5).unwrap(),
            0.0,
            f64::INFINITY,
            0.999..=1.0,
        ),
    );
    check(
        "paper ckpt law N_[0,∞)(5, 0.4²)",
        &truncated(
            Normal::new(5.0, 0.4).unwrap(),
            0.0,
            f64::INFINITY,
            0.999..=1.0,
        ),
    );
    check(
        "N(0,1) on [-2, 2]",
        &truncated(Normal::new(0.0, 1.0).unwrap(), -2.0, 2.0, 0.95..=0.96),
    );
    check(
        "N(0,1) on [-1.65, 1.65]",
        &truncated(Normal::new(0.0, 1.0).unwrap(), -1.65, 1.65, 0.9..=0.91),
    );
    check(
        "exponential on [0, 4.7]",
        &truncated(Exponential::new(0.5).unwrap(), 0.0, 4.7, 0.9..=0.91),
    );
    check(
        "gamma on [1.5, 6]",
        &truncated(Gamma::new(9.0, 1.0 / 3.0).unwrap(), 1.5, 6.0, 0.9..=1.0),
    );
    // Inversion regime (parent mass < 0.9).
    check(
        "N(0,1) tail slice [2, 3]",
        &truncated(Normal::new(0.0, 1.0).unwrap(), 2.0, 3.0, 0.0..=0.89),
    );
    check(
        "N(3, 0.5²) central slice [2.6, 3.4]",
        &truncated(Normal::new(3.0, 0.5).unwrap(), 2.6, 3.4, 0.0..=0.89),
    );
    check(
        "exponential on [1, 5]",
        &truncated(Exponential::new(0.5).unwrap(), 1.0, 5.0, 0.0..=0.89),
    );
    check(
        "lognormal on [1, 2.5]",
        &truncated(LogNormal::new(1.0, 0.35).unwrap(), 1.0, 2.5, 0.0..=0.89),
    );
}
