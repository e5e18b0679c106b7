//! The error budget of the served exact path, and its bounded worst case.
//!
//! `lattice::solve_exact` divides every length of a query by `R`, runs
//! the §3/§4 planners at `R = 1` and multiplies `X_opt`, `E(n_opt)` and
//! `W_int` back by `R`. The answers are homogeneous in the time scale,
//! so only the planners' absolute tolerances move: at `R = 1` they act
//! relative to `R`. This file holds that change to a stated budget
//! against the planners run directly at `R` (the reference below, which
//! is how `solve_exact` answered before it normalised), over seeded
//! queries spread across the box the `decide_mix` benchmark draws from:
//!
//! | quantity | budget |
//! |---|---|
//! | `n_opt`, whether `W_int` exists | equal |
//! | `E(n_opt)` | `1e-10·R` |
//! | `W_int` | `2e-9·R` (Brent's `1e-9` stopping tolerance, now at `R = 1`) |
//! | `X_opt` | `1e-7·R` |
//!
//! The release-only corner test pins what the normalisation buys: the
//! ROADMAP's low-CV queries cost the same at `R = 1000` as at `R = 1`.

use resq_core::lattice::{solve_exact, PolicyAnswer, PolicyQuery, TaskParams};
use resq_core::{ConvolutionStatic, DynamicStrategy, SolveCache, StaticStrategy};
use resq_dist::{Continuous, Exponential, Gamma, LogNormal, Normal, Truncated, Uniform};
use resq_numerics::{grid_max, GridSpec};
use std::time::{Duration, Instant};

/// `σ_C/µ_C` of every query, as `decide_mix` sends them.
const CKPT_SIGMA_RATIO: f64 = 0.08;

/// Grid cells of the convolution planner `solve_exact` uses for Uniform
/// and LogNormal tasks.
const CONV_GRID_CELLS: usize = 512;

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

    fn within(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// Eight queries per family, uniform in each family's lattice box (task
/// CV in `[0.05, 0.30]`), with `R` log-uniform in `[10, 1000]`.
fn queries() -> Vec<PolicyQuery> {
    let mut rng = Rng(0x5CA1_E0DD);
    let mut out = Vec::new();
    for family in 0..4 {
        for _ in 0..8 {
            let r = 10.0 * 100f64.powf(rng.unit());
            let task = match family {
                0 => {
                    let lo = rng.within(0.02, 0.20) * r;
                    TaskParams::Uniform {
                        lo,
                        hi: lo + rng.within(0.02, 0.20) * r,
                    }
                }
                1 => TaskParams::Exponential {
                    mean: rng.within(0.05, 0.30) * r,
                },
                2 => {
                    let mean = rng.within(0.05, 0.30) * r;
                    TaskParams::Normal {
                        mean,
                        sigma: rng.within(0.05, 0.30) * mean,
                    }
                }
                _ => {
                    let mean = rng.within(0.05, 0.30) * r;
                    TaskParams::LogNormal {
                        mean,
                        sd: rng.within(0.05, 0.30) * mean,
                    }
                }
            };
            let ckpt_mean = rng.within(0.05, 0.30) * r;
            out.push(PolicyQuery {
                task,
                ckpt_mean,
                ckpt_sigma: CKPT_SIGMA_RATIO * ckpt_mean,
                r,
            });
        }
    }
    out
}

/// The planners `solve_exact` runs, run directly at the query's `R`.
fn planners_at_r(q: &PolicyQuery) -> PolicyAnswer {
    let ckpt = Truncated::above(Normal::new(q.ckpt_mean, q.ckpt_sigma).unwrap(), 0.0).unwrap();
    let spec = GridSpec {
        points: 256,
        xtol: 1e-10,
    };
    let x_opt = grid_max(|x| ckpt.cdf(x) * (q.r - x), 0.0, q.r, spec).x;
    let plan = match q.task {
        TaskParams::Exponential { mean } => {
            StaticStrategy::new(Gamma::new(1.0, mean).unwrap(), ckpt, q.r)
                .and_then(|s| s.optimize())
        }
        TaskParams::Normal { mean, sigma } => {
            StaticStrategy::new(Normal::new(mean, sigma).unwrap(), ckpt, q.r)
                .and_then(|s| s.optimize())
        }
        TaskParams::Uniform { lo, hi } => {
            ConvolutionStatic::new(&Uniform::new(lo, hi).unwrap(), ckpt, q.r, CONV_GRID_CELLS)
                .map(|s| s.optimize())
        }
        TaskParams::LogNormal { mean, sd } => {
            let law = LogNormal::from_mean_sd(mean, sd).unwrap();
            ConvolutionStatic::new(&law, ckpt, q.r, CONV_GRID_CELLS).map(|s| s.optimize())
        }
    }
    .unwrap();
    let w_int = match q.task {
        TaskParams::Exponential { mean } => {
            DynamicStrategy::new(Exponential::new(1.0 / mean).unwrap(), ckpt, q.r)
                .and_then(|d| d.threshold())
        }
        TaskParams::Normal { mean, sigma } => {
            let task = Truncated::above(Normal::new(mean, sigma).unwrap(), 0.0).unwrap();
            DynamicStrategy::new(task, ckpt, q.r).and_then(|d| d.threshold())
        }
        TaskParams::Uniform { lo, hi } => {
            DynamicStrategy::new(Uniform::new(lo, hi).unwrap(), ckpt, q.r)
                .and_then(|d| d.threshold())
        }
        TaskParams::LogNormal { mean, sd } => {
            DynamicStrategy::new(LogNormal::from_mean_sd(mean, sd).unwrap(), ckpt, q.r)
                .and_then(|d| d.threshold())
        }
    }
    .unwrap();
    PolicyAnswer {
        x_opt,
        n_opt: plan.n_opt,
        expected_work: plan.expected_work,
        w_int,
        source: resq_core::AnswerSource::Exact,
    }
}

#[test]
fn solving_at_unit_r_stays_within_the_error_budget() {
    for q in queries() {
        let got = solve_exact(&q, &mut SolveCache::new()).unwrap();
        let want = planners_at_r(&q);
        let r = q.r;
        assert_eq!(got.n_opt, want.n_opt, "n_opt at {q:?}");
        let de = (got.expected_work - want.expected_work).abs();
        assert!(de <= 1e-10 * r, "E(n_opt) moved by {de} at {q:?}");
        let dx = (got.x_opt - want.x_opt).abs();
        assert!(dx <= 1e-7 * r, "X_opt moved by {dx} at {q:?}");
        match (got.w_int, want.w_int) {
            (Some(a), Some(b)) => {
                let dw = (a - b).abs();
                assert!(dw <= 2e-9 * r, "W_int moved by {dw} at {q:?}");
            }
            (None, None) => {}
            (a, b) => panic!("W_int presence differs: {a:?} vs {b:?} at {q:?}"),
        }
    }
}

/// The ROADMAP's corner: tasks `N(0.1R, (0.001R)²)`, Normal and
/// LogNormal, with checkpoints `N[0,∞)(0.1R, (0.008R)²)`. Solved at the
/// query's own `R`, a Normal one took over 30 s at `R = 1000`. Each
/// solve must now finish within a second at `R = 1` and `R = 1000`, and
/// `W_int/R` must not move by a bit between them. Timings are only
/// meaningful in an optimised build, so debug builds skip it.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock bound: run with --release")]
fn low_cv_corner_costs_the_same_at_every_r() {
    let query = |task: fn(f64) -> TaskParams, r: f64| PolicyQuery {
        task: task(r),
        ckpt_mean: 0.1 * r,
        ckpt_sigma: 0.008 * r,
        r,
    };
    let normal = |r: f64| TaskParams::Normal {
        mean: 0.1 * r,
        sigma: 0.001 * r,
    };
    let lognormal = |r: f64| TaskParams::LogNormal {
        mean: 0.1 * r,
        sd: 0.001 * r,
    };
    for (name, task) in [
        ("normal", normal as fn(f64) -> TaskParams),
        ("lognormal", lognormal),
    ] {
        let mut w_per_r = Vec::new();
        for r in [1.0, 1000.0] {
            let q = query(task, r);
            let start = Instant::now();
            let a = solve_exact(&q, &mut SolveCache::new()).unwrap();
            let took = start.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "{name} at R = {r} took {took:?}"
            );
            w_per_r.push(a.w_int.expect("the corner has a threshold") / r);
        }
        assert_eq!(
            w_per_r[0].to_bits(),
            w_per_r[1].to_bits(),
            "{name}: {w_per_r:?}"
        );
    }
}
