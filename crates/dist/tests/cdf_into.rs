//! The `Continuous::cdf_into` contract: the CDF of a batch of points is
//! bit-identical to `Continuous::cdf` at each point. Checked for the laws
//! that override it (Normal, LogNormal, `Truncated` in both of its
//! regimes), for `DynLaw`, which forwards it, and for a law on the
//! default per-point loop, at lengths on both sides of the eight-lane
//! `erfc` kernel's groups.

use rand::RngCore;
use resq_dist::{Continuous, DynLaw, Gamma, LogNormal, Normal, Truncated, Xoshiro256pp};

const LENGTHS: [usize; 8] = [0, 1, 7, 8, 9, 15, 64, 65];

/// Points across `law`'s support and past it, special values first,
/// then seeded draws over a window around the central quantiles.
fn points<D: Continuous>(law: &D, seed: u64) -> Vec<f64> {
    let (lo, hi) = law.support();
    let (q_lo, q_hi) = (law.quantile(1e-6), law.quantile(1.0 - 1e-6));
    let pad = 0.5 * (q_hi - q_lo);
    let mut xs = vec![
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        5e-324,
        q_lo,
        q_hi,
    ];
    xs.extend([lo, hi].into_iter().filter(|x| x.is_finite()));
    let mut rng = Xoshiro256pp::new(seed);
    xs.extend((0..200).map(|_| {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        q_lo - pad + u * (q_hi - q_lo + 2.0 * pad)
    }));
    xs
}

/// Asserts the contract for `law` at every length and several offsets.
fn check<D: Continuous>(name: &str, law: &D) {
    for seed in 0..4 {
        let xs = points(law, seed);
        for &n in &LENGTHS {
            for offset in [0, 3, 9, xs.len() - n] {
                let xs = &xs[offset..offset + n];
                let mut out = vec![f64::NAN; n];
                law.cdf_into(xs, &mut out);
                for (&x, &got) in xs.iter().zip(&out) {
                    assert_eq!(
                        got.to_bits(),
                        law.cdf(x).to_bits(),
                        "{name}: cdf_into at {x:e} gave {got:e}, seed {seed}, n {n}"
                    );
                }
            }
        }
    }
}

#[test]
fn cdf_into_gives_the_per_point_bits() {
    let normal = Normal::new(5.0, 0.4).unwrap();
    let lognormal = LogNormal::from_mean_sd(3.0, 0.6).unwrap();
    // F(lo) ≈ 1e-36: the CDF-difference regime, on lanes.
    let ckpt = Truncated::above(normal, 0.0).unwrap();
    // F(lo) = Φ(2) > 0.5: the survival-difference regime, per point.
    let right_tail = Truncated::new(Normal::standard(), 2.0, 5.0).unwrap();
    let two_sided = Truncated::new(Normal::new(3.5, 1.0).unwrap(), 1.0, 7.5).unwrap();
    let gamma = Gamma::new(3.0, 0.5).unwrap();
    check("normal", &normal);
    check("lognormal", &lognormal);
    check("truncated normal", &ckpt);
    check("right-tail truncation", &right_tail);
    check("two-sided truncation", &two_sided);
    check("gamma (per-point default)", &gamma);
    check("dyn truncated normal", &DynLaw::new(ckpt));
    check("dyn lognormal", &DynLaw::new(lognormal));
    check("dyn right-tail truncation", &DynLaw::new(right_tail));
}
