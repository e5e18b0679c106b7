//! Bit-level pin of the served exact path and the convolution planner.
//!
//! `lattice::solve_exact` answers every `/decide` query the lattice does
//! not: `X_opt` (§3), the static plan `n_opt` and `E(n_opt)` (§4.2) and
//! the dynamic threshold `W_int` (§4.3). This file pins all four, to the
//! bit and `n_opt` exactly, over seeded queries spread across the box
//! the `decide_mix` benchmark draws from — 64 per family inside it and
//! 16 per family just above one axis's upper end, with `R` log-uniform
//! in `[10, 1000]`. It also pins every value of
//! `ConvolutionStatic::expected_work_upto` (the static planner of
//! Uniform and LogNormal tasks) for four task laws at 512 and 1024
//! cells.
//!
//! The fast paths inside the planners (fit lattices, fixed-order
//! quadrature, closed forms, certificates) only steer searches and
//! classify scan points; every reported value comes from the exact
//! settle, scan and Brent refinement. A change to a fast path must
//! therefore leave these bits alone. `n_opt` is pinned per query, so a
//! search that lands on the other side of an integer names the query.

use resq_core::lattice::{solve_exact, PolicyQuery, TaskParams};
use resq_core::{ConvolutionStatic, SolveCache};
use resq_dist::{Continuous, Gamma, LogNormal, Normal, Truncated, Uniform, Weibull};

/// `σ_C/µ_C` of every query, as `decide_mix` sends them.
const CKPT_SIGMA_RATIO: f64 = 0.08;

/// Queries per family inside the box, and just outside it.
const INSIDE: usize = 64;
const OUTSIDE: usize = 16;

/// SplitMix64: the seeded query stream.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    fn within(&mut self, (lo, hi): (f64, f64)) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The families in golden order, with their `decide_mix` boxes in
/// `R`-normalised coordinates; the last axis is always `µ_C/R`.
const FAMILIES: [(&str, &[(f64, f64)]); 4] = [
    // task_lo, task_width, ckpt_mean
    ("uniform", &[(0.02, 0.20), (0.02, 0.20), (0.05, 0.30)]),
    // task_mean, ckpt_mean
    ("exponential", &[(0.05, 0.30), (0.05, 0.30)]),
    // task_mean, task_cv, ckpt_mean
    ("normal", &[(0.05, 0.30), (0.05, 0.30), (0.05, 0.30)]),
    ("lognormal", &[(0.05, 0.30), (0.05, 0.30), (0.05, 0.30)]),
];

/// One family's queries: [`INSIDE`] uniform in its box, then
/// [`OUTSIDE`] with one axis just above its upper end (by 1–10% of the
/// axis width, as `decide_mix` places its outside queries).
fn queries(family: usize) -> Vec<PolicyQuery> {
    let (_, axes) = FAMILIES[family];
    let mut rng = Rng(0xE8AC_7000 + family as u64);
    (0..INSIDE + OUTSIDE)
        .map(|i| {
            let mut c: Vec<f64> = axes.iter().map(|&a| rng.within(a)).collect();
            if i >= INSIDE {
                let axis = i % axes.len();
                let (lo, hi) = axes[axis];
                c[axis] = hi + rng.within((0.01, 0.10)) * (hi - lo);
            }
            let r = 10.0 * 100f64.powf(rng.unit());
            let task = match family {
                0 => TaskParams::Uniform {
                    lo: c[0] * r,
                    hi: (c[0] + c[1]) * r,
                },
                1 => TaskParams::Exponential { mean: c[0] * r },
                2 => TaskParams::Normal {
                    mean: c[0] * r,
                    sigma: c[1] * c[0] * r,
                },
                _ => TaskParams::LogNormal {
                    mean: c[0] * r,
                    sd: c[1] * c[0] * r,
                },
            };
            let ckpt_mean = c[c.len() - 1] * r;
            PolicyQuery {
                task,
                ckpt_mean,
                ckpt_sigma: CKPT_SIGMA_RATIO * ckpt_mean,
                r,
            }
        })
        .collect()
}

/// Every query's `n_opt`, and one hash of the bits of every `X_opt`,
/// `n_opt`, `E(n_opt)` and `W_int` (a sentinel when none exists).
fn solve_family(family: usize) -> (Vec<u64>, u64) {
    let mut cache = SolveCache::new();
    let mut hash = Fnv::new();
    let mut n_opt = Vec::new();
    for q in queries(family) {
        let a = solve_exact(&q, &mut cache).unwrap_or_else(|e| panic!("{q:?}: {e}"));
        n_opt.push(a.n_opt);
        hash.word(a.x_opt.to_bits());
        hash.word(a.n_opt);
        hash.word(a.expected_work.to_bits());
        hash.word(a.w_int.map_or(u64::MAX, f64::to_bits));
    }
    (n_opt, hash.0)
}

/// `n_opt` per query, then the family's bit hash, in [`FAMILIES`] order.
const SOLVES: [(&[u64], u64); 4] = [
    // uniform
    (
        &[
            3, 6, 7, 4, 10, 9, 3, 4, 4, 5, 3, 4, 3, 2, 8, 4, 5, 5, 3, 5, 4, 6, 4, 6, 6, 8, 3, 3, 4,
            10, 3, 5, 3, 6, 3, 3, 3, 3, 4, 3, 5, 5, 2, 3, 4, 4, 5, 5, 4, 6, 12, 5, 6, 14, 8, 6, 9,
            3, 3, 3, 3, 3, 4, 4, 2, 4, 2, 3, 4, 2, 3, 2, 3, 5, 6, 2, 2, 2, 2, 3,
        ],
        0x05d4_2efa_5f18_c6d0,
    ),
    // exponential
    (
        &[
            2, 5, 2, 4, 3, 10, 13, 4, 2, 3, 4, 2, 5, 2, 3, 3, 3, 5, 7, 3, 2, 7, 2, 3, 4, 7, 2, 3,
            3, 6, 6, 9, 3, 12, 12, 3, 2, 8, 4, 4, 4, 11, 3, 2, 2, 10, 2, 2, 2, 2, 5, 2, 5, 2, 7, 9,
            3, 2, 4, 5, 4, 4, 4, 2, 2, 5, 2, 2, 2, 4, 2, 3, 2, 2, 2, 3, 2, 3, 2, 5,
        ],
        0x2b2a_794e_b1cf_5a34,
    ),
    // normal
    (
        &[
            7, 11, 3, 6, 13, 10, 3, 2, 3, 16, 6, 10, 8, 4, 3, 11, 2, 8, 3, 4, 3, 3, 3, 14, 2, 3, 6,
            3, 5, 5, 3, 3, 10, 6, 4, 3, 5, 6, 3, 9, 5, 2, 7, 2, 6, 3, 2, 3, 4, 9, 7, 2, 6, 4, 2, 3,
            9, 4, 3, 3, 5, 16, 3, 7, 3, 5, 2, 4, 9, 2, 3, 6, 2, 4, 6, 2, 4, 3, 2, 4,
        ],
        0x5ab5_cd3e_26ef_c00a,
    ),
    // lognormal
    (
        &[
            2, 5, 12, 3, 4, 2, 3, 6, 8, 4, 4, 2, 2, 3, 3, 4, 6, 4, 3, 6, 4, 5, 9, 4, 3, 2, 6, 3, 4,
            3, 6, 5, 3, 9, 3, 3, 4, 8, 5, 4, 3, 4, 2, 9, 16, 2, 4, 5, 4, 10, 8, 3, 6, 3, 5, 14, 4,
            7, 2, 5, 7, 9, 3, 4, 3, 2, 2, 3, 6, 2, 5, 4, 2, 4, 2, 2, 3, 3, 2, 3,
        ],
        0xb731_adb4_65e2_8b9f,
    ),
];

#[test]
fn exact_answers_are_pinned() {
    for (family, &(want_n, want_hash)) in SOLVES.iter().enumerate() {
        let name = FAMILIES[family].0;
        let (n_opt, hash) = solve_family(family);
        let qs = queries(family);
        for (i, (got, want)) in n_opt.iter().zip(want_n).enumerate() {
            assert_eq!(got, want, "{name} query {i}: n_opt moved at {:?}", qs[i]);
        }
        assert_eq!(n_opt.len(), want_n.len(), "{name}: {n_opt:?}");
        assert_eq!(hash, want_hash, "{name}: answer bits moved");
    }
}

fn ckpt(mu: f64, sigma: f64) -> Truncated<Normal> {
    Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
}

/// Hash of every `E(n)` bit of one convolution sweep, `n` up to the
/// planner's own search bound `2R/E[X] + 10`.
fn sweep_hash<X: Continuous>(task: &X, ckpt: Truncated<Normal>, r: f64, cells: usize) -> u64 {
    let conv = ConvolutionStatic::new(task, ckpt, r, cells).unwrap();
    let n_max = (2.0 * r / task.mean()) as u64 + 10;
    let mut hash = Fnv::new();
    for v in conv.expected_work_upto(n_max) {
        hash.word(v.to_bits());
    }
    hash.0
}

/// Per law, the sweep hashes at 512 and 1024 cells.
const SWEEPS: [(&str, [u64; 2]); 6] = [
    ("lognormal", [0x3d8f_a50f_8b6b_621a, 0x0d68_2c8a_48c5_9d4e]),
    (
        "lognormal-unit-r",
        [0xe9b9_eb60_777f_edd1, 0x3502_c8f4_fef0_70a5],
    ),
    ("uniform", [0xa133_79fb_7066_c2aa, 0x1a0c_295d_81d4_69b6]),
    (
        "uniform-unit-r",
        [0xad7c_1d82_6da0_b675, 0xaf22_83b9_f90f_8f87],
    ),
    ("weibull", [0xd85d_0d88_9591_6c1c, 0xda16_e139_1421_5006]),
    ("gamma", [0x11fc_d07b_d671_0d93, 0xe6db_bc9c_9424_1f6c]),
];

#[test]
fn convolution_sweeps_are_pinned() {
    let sweeps = |task: &dyn Fn(usize) -> u64| [task(512), task(1024)];
    let lognormal = LogNormal::from_mean_sd(3.0, 0.6).unwrap();
    let lognormal_unit = LogNormal::from_mean_sd(0.12, 0.03).unwrap();
    let uniform = Uniform::new(2.0, 5.0).unwrap();
    let uniform_unit = Uniform::new(0.05, 0.17).unwrap();
    let weibull = Weibull::new(2.0, 3.0).unwrap();
    let gamma = Gamma::new(1.0, 0.5).unwrap();
    let got = [
        sweeps(&|m| sweep_hash(&lognormal, ckpt(5.0, 0.4), 30.0, m)),
        sweeps(&|m| sweep_hash(&lognormal_unit, ckpt(0.2, 0.016), 1.0, m)),
        sweeps(&|m| sweep_hash(&uniform, ckpt(3.0, 0.24), 29.0, m)),
        sweeps(&|m| sweep_hash(&uniform_unit, ckpt(0.1, 0.008), 1.0, m)),
        sweeps(&|m| sweep_hash(&weibull, ckpt(4.0, 0.5), 25.0, m)),
        sweeps(&|m| sweep_hash(&gamma, ckpt(2.0, 0.4), 10.0, m)),
    ];
    for ((name, want), got) in SWEEPS.iter().zip(&got) {
        assert_eq!(got, want, "{name}: E(n) bits moved (512, 1024 cells)");
    }
}
