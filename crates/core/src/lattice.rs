//! Precomputed policy lattices: O(µs) checkpoint decisions.
//!
//! Even with the solver fast path, a single `solve/dynamic` call costs
//! milliseconds — fine for a CLI, fatal for a service answering "take
//! the final checkpoint now?" per task boundary across a fleet. This
//! module precomputes the paper's decision quantities over a dense grid
//! of law shape parameters **normalized by the reservation length `R`**
//! and answers queries by multilinear interpolation in microseconds:
//!
//! * `X_opt` — the §3 preemptible lead time, `argmax F_C(x)·(R−x)`;
//! * `n_opt` / `E(n_opt)` — the §4.2 static plan and its value;
//! * `W_int` — the §4.3 dynamic work threshold.
//!
//! **Normalization.** Every quantity above is positively homogeneous in
//! the time scale: scaling `R`, `D_X` and `D_C` by `s` scales `X_opt`,
//! `E(n_opt)` and `W_int` by `s` and leaves `n_opt` unchanged. A lattice
//! therefore stores answers for `R = 1` over *normalized* shape
//! parameters (`µ_X/R`, `σ_X/µ_X`, `µ_C/R`, …; see [`LawFamily`]) and a
//! query at any `R` rescales on the way out. Gridded checkpoint laws
//! are the paper's truncated Normals `N_{[0,∞)}(µ_C, ρ·µ_C)` with a
//! fixed shape ratio `ρ` ([`CKPT_SIGMA_RATIO`] by default — the paper's
//! `(5, 0.4)` instance has `ρ = 0.08`); queries with a different ratio
//! miss the lattice and take the exact path.
//!
//! **Exactness discipline** (same contract as the PR-5 solver fast
//! path: the table steers, the exact solver answers when in doubt).
//! Two gates protect every served lookup. At *build* time the grid is
//! calibrated: each cell is exact-solved at its center and at the
//! `{¼, ¾}` quarter-points of every axis ([`CALIBRATION_PROBES`]), and
//! the cell is marked unserveable if any measured residual approaches
//! the tolerance ([`CALIBRATION_MARGIN`]); this catches bias shared by
//! the fine and coarse interpolants — and kinks from `n_opt` plateau
//! steps crossing a cell — that no runtime estimate can see. At
//! *query* time lookups are additionally checked by the
//! two-resolution estimate of [`resq_numerics::NdGrid`]:
//! if the fine and stride-2 coarse interpolants disagree by more than
//! the artifact's tolerance (relative, floored at [`REL_FLOOR`] in
//! `R = 1` units), or the cell failed calibration, or the query lies
//! outside the grid, the query falls back to the exact solvers
//! ([`solve_exact`], run at `R = 1`) and is counted in the
//! `lattice_lookup_misses_total` / `lattice_fallbacks_total` metrics.
//!
//! **Artifact.** [`PolicyLattice::save`] serializes the lattice as a
//! versioned ([`FORMAT`]), FNV-1a-fingerprinted JSON document with a
//! provenance manifest sidecar; [`PolicyLattice::load`] returns a typed
//! [`LatticeError`] (never panics) on corrupt input. The format is
//! specified in `docs/LATTICES.md`.

use crate::error::CoreError;
use crate::solve_cache::{fit_lattice, SolveCache};
use crate::workflow::convolution::ConvolutionStatic;
use crate::workflow::dynamic::DynamicStrategy;
use crate::workflow::statics::{StaticPlan, StaticStrategy};
use resq_dist::{Continuous, Exponential, Gamma, LogNormal, Normal, Truncated, Uniform};
use resq_numerics::{for_each_cell_probe, for_each_node, grid_max, GridSpec, NdAxis, NdGrid};
use resq_obs::metrics::{
    LATTICE_FALLBACKS_TOTAL, LATTICE_LOOKUP_HITS_TOTAL, LATTICE_LOOKUP_MISSES_TOTAL,
};
use resq_obs::tracectx::{fnv1a, FNV_OFFSET};
use resq_obs::{json, span, span_name, RunManifest};
use std::path::{Path, PathBuf};

/// Format tag of the serialized artifact (bump on layout changes).
pub const FORMAT: &str = "resq-policy-lattice/v1";

/// Default shape ratio `ρ = σ_C/µ_C` of the gridded checkpoint laws
/// `N_{[0,∞)}(µ_C, ρ·µ_C)`. `0.08` is the paper's `(5, 0.4)` instance.
pub const CKPT_SIGMA_RATIO: f64 = 0.08;

/// Default a-posteriori tolerance: a lookup is served when the fine and
/// coarse interpolants agree to 2% relative (floored at [`REL_FLOOR`]);
/// otherwise the exact solver answers.
pub const DEFAULT_TOLERANCE: f64 = 0.02;

/// Absolute floor (in `R = 1` units) of the relative-error denominator,
/// so near-zero fields don't force needless fallbacks.
pub const REL_FLOOR: f64 = 0.05;

/// Fraction of the tolerance a cell's *measured* probe residual may
/// reach during build-time calibration before the cell is marked
/// unserveable. Probes sit at per-axis fractions `{¼, ½, ¾}` of each
/// cell ([`CALIBRATION_PROBES`]); under the quadratic error model the
/// worst interior point exceeds the best-covering probe by at most the
/// ratio of the per-axis profile peaks, `t(1−t)|_{½} / t(1−t)|_{¼} =
/// 4/3` — so a margin of `0.75 = 1/(4/3)` makes a passing calibration
/// cover the whole cell.
pub const CALIBRATION_MARGIN: f64 = 0.75;

/// Per-axis probe fractions of the build-time calibration sweep: every
/// cell is exact-solved at the cartesian product of these offsets
/// (center plus all quarter-points — `3^d` probes per cell), catching
/// error peaks that sit away from the center when an `n_opt` plateau
/// step kinks a policy surface inside the cell.
pub const CALIBRATION_PROBES: [f64; 3] = [0.25, 0.5, 0.75];

/// Sentinel stored for `W_int` where the dynamic strategy has no useful
/// threshold (`DynamicStrategy::threshold` returned `None`). Kept
/// strictly negative so interpolation across the boundary is detectable
/// via cell bounds.
const W_INT_NONE: f64 = -1.0;

/// Grid cells of the Stieltjes-convolution static planner used for task
/// families not closed under IID summation (Uniform, LogNormal).
const CONV_GRID_CELLS: usize = 512;

/// Task-law families a lattice can grid. Each has 2–3 normalized shape
/// axes (the checkpoint mean `µ_C/R` is always the last):
///
/// | family        | axes                               | exact static path      |
/// |---------------|------------------------------------|------------------------|
/// | `Uniform`     | `task_lo`, `task_width`, `ckpt_mean` | convolution planner |
/// | `Exponential` | `task_mean`, `ckpt_mean`           | `Gamma(1, µ_X)` closed |
/// | `Normal`      | `task_mean`, `task_cv`, `ckpt_mean` | Normal closed form    |
/// | `LogNormal`   | `task_mean`, `task_cv`, `ckpt_mean` | convolution planner   |
///
/// Pareto and Mixture laws are deliberately not gridded — see
/// `docs/KNOWN_ISSUES.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LawFamily {
    /// `Uniform(a, b)` task durations; axes `a/R` and `(b−a)/R`.
    Uniform,
    /// `Exponential(λ)` task durations; axis `E[X]/R = 1/(λR)`.
    Exponential,
    /// `Normal(µ, σ)` tasks (σ ≪ µ on the grid, so the §4.2 closed
    /// family applies); axes `µ/R` and the coefficient of variation
    /// `σ/µ`. The dynamic strategy uses the `N_{[0,∞)}` truncation,
    /// mirroring the paper's Fig. 8 instance.
    Normal,
    /// `LogNormal` tasks parameterized by their mean and coefficient of
    /// variation (`sd/mean`), which normalize by `R` cleanly (the
    /// log-space `µ` does not).
    LogNormal,
}

impl LawFamily {
    /// Stable lower-case name used in artifacts and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            LawFamily::Uniform => "uniform",
            LawFamily::Exponential => "exponential",
            LawFamily::Normal => "normal",
            LawFamily::LogNormal => "lognormal",
        }
    }

    /// Inverse of [`LawFamily::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "uniform" => Some(LawFamily::Uniform),
            "exponential" | "exp" => Some(LawFamily::Exponential),
            "normal" => Some(LawFamily::Normal),
            "lognormal" => Some(LawFamily::LogNormal),
            _ => None,
        }
    }

    /// All supported families.
    pub const ALL: &'static [LawFamily] = &[
        LawFamily::Uniform,
        LawFamily::Exponential,
        LawFamily::Normal,
        LawFamily::LogNormal,
    ];

    /// Canonical artifact file name, e.g. `lattice_exponential.json`.
    pub fn artifact_file_name(&self) -> String {
        format!("lattice_{}.json", self.name())
    }

    fn axis_names(&self) -> &'static [&'static str] {
        match self {
            LawFamily::Uniform => &["task_lo", "task_width", "ckpt_mean"],
            LawFamily::Exponential => &["task_mean", "ckpt_mean"],
            LawFamily::Normal | LawFamily::LogNormal => &["task_mean", "task_cv", "ckpt_mean"],
        }
    }
}

/// Task-law shape parameters of a [`PolicyQuery`], in *actual* (not
/// normalized) time units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskParams {
    /// `Uniform(lo, hi)`, `0 ≤ lo < hi`.
    Uniform {
        /// Lower support bound.
        lo: f64,
        /// Upper support bound.
        hi: f64,
    },
    /// `Exponential` with the given mean (`1/λ`).
    Exponential {
        /// Mean task duration.
        mean: f64,
    },
    /// `Normal(mean, sigma)`.
    Normal {
        /// Mean task duration.
        mean: f64,
        /// Standard deviation.
        sigma: f64,
    },
    /// `LogNormal` with the given mean and standard deviation.
    LogNormal {
        /// Mean task duration.
        mean: f64,
        /// Standard deviation.
        sd: f64,
    },
}

impl TaskParams {
    /// The family this parameter set belongs to.
    pub fn family(&self) -> LawFamily {
        match self {
            TaskParams::Uniform { .. } => LawFamily::Uniform,
            TaskParams::Exponential { .. } => LawFamily::Exponential,
            TaskParams::Normal { .. } => LawFamily::Normal,
            TaskParams::LogNormal { .. } => LawFamily::LogNormal,
        }
    }
}

/// One policy question: task law, truncated-Normal checkpoint law
/// (parent parameters, truncated at 0) and reservation length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyQuery {
    /// Task-duration law.
    pub task: TaskParams,
    /// Mean of the checkpoint law's Normal parent (`µ_C`).
    pub ckpt_mean: f64,
    /// Standard deviation of the checkpoint law's Normal parent (`σ_C`).
    pub ckpt_sigma: f64,
    /// Reservation length `R`.
    pub r: f64,
}

impl PolicyQuery {
    /// Rejects NaN/∞ and degenerate law parameters with a typed error.
    pub fn validate(&self) -> Result<(), CoreError> {
        fn pos(name: &'static str, v: f64) -> Result<(), CoreError> {
            // `!(v > 0.0)` also catches NaN.
            if !(v > 0.0) || !v.is_finite() {
                return Err(CoreError::InvalidParameter { name, value: v });
            }
            Ok(())
        }
        match self.task {
            TaskParams::Uniform { lo, hi } => {
                if !(lo >= 0.0) || !lo.is_finite() {
                    return Err(CoreError::InvalidParameter {
                        name: "task_lo",
                        value: lo,
                    });
                }
                if !(hi > lo) || !hi.is_finite() {
                    return Err(CoreError::InvalidParameter {
                        name: "task_hi",
                        value: hi,
                    });
                }
            }
            TaskParams::Exponential { mean } => pos("task_mean", mean)?,
            TaskParams::Normal { mean, sigma } => {
                pos("task_mean", mean)?;
                pos("task_sigma", sigma)?;
            }
            TaskParams::LogNormal { mean, sd } => {
                pos("task_mean", mean)?;
                pos("task_sd", sd)?;
            }
        }
        pos("ckpt_mean", self.ckpt_mean)?;
        pos("ckpt_sigma", self.ckpt_sigma)?;
        pos("reservation", self.r)
    }

    /// Normalized grid coordinates (see [`LawFamily`] for the axis
    /// meaning); the query's own validation must have passed.
    fn coords(&self) -> Vec<f64> {
        let r = self.r;
        match self.task {
            TaskParams::Uniform { lo, hi } => vec![lo / r, (hi - lo) / r, self.ckpt_mean / r],
            TaskParams::Exponential { mean } => vec![mean / r, self.ckpt_mean / r],
            TaskParams::Normal { mean, sigma } => {
                vec![mean / r, sigma / mean, self.ckpt_mean / r]
            }
            TaskParams::LogNormal { mean, sd } => vec![mean / r, sd / mean, self.ckpt_mean / r],
        }
    }
}

/// Where a [`PolicyAnswer`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// Served by multilinear interpolation from the precomputed grid.
    Lattice,
    /// Computed by the exact solvers (out-of-grid query or a-posteriori
    /// error check failure).
    Exact,
}

/// The paper's decision quantities for one [`PolicyQuery`], in actual
/// time units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyAnswer {
    /// §3 preemptible lead time `X_opt` (depends on `D_C` and `R` only).
    pub x_opt: f64,
    /// §4.2 static plan: checkpoint after `n_opt` tasks.
    pub n_opt: u64,
    /// Expected saved work `E(n_opt)` of the static plan.
    pub expected_work: f64,
    /// §4.3 dynamic work threshold, `None` when no useful threshold
    /// exists (the reservation is too short for a checkpoint to
    /// plausibly fit).
    pub w_int: Option<f64>,
    /// Interpolated or exact.
    pub source: AnswerSource,
}

impl PolicyAnswer {
    /// The §4.3 online rule: checkpoint at the first task boundary with
    /// accumulated work `w ≥ W_int` (never, if no threshold exists).
    pub fn should_checkpoint(&self, w: f64) -> bool {
        match self.w_int {
            Some(t) => w >= t,
            None => false,
        }
    }

    /// The static plan as a [`StaticPlan`] (integer plan == relaxation
    /// here: the lattice stores the settled integer optimum).
    pub fn static_plan(&self) -> StaticPlan {
        StaticPlan {
            y_opt: self.n_opt as f64,
            n_opt: self.n_opt,
            expected_work: self.expected_work,
        }
    }
}

/// One normalized grid axis of a [`LatticeSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpec {
    /// Axis name (see [`LawFamily`] for the per-family axis lists).
    pub name: String,
    /// Lower bound (normalized by `R`).
    pub lo: f64,
    /// Upper bound (normalized by `R`).
    pub hi: f64,
    /// Node count — odd and ≥ 3 (the two-resolution check needs the
    /// stride-2 sub-grid to share nodes with the fine grid).
    pub points: usize,
}

impl AxisSpec {
    fn to_nd(&self) -> Result<NdAxis, CoreError> {
        Ok(NdAxis::new(self.lo, self.hi, self.points)?)
    }
}

/// Build recipe for a [`PolicyLattice`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatticeSpec {
    /// Task-law family to grid.
    pub family: LawFamily,
    /// Normalized axes, in the family's canonical order.
    pub axes: Vec<AxisSpec>,
    /// Shape ratio `σ_C/µ_C` of the gridded checkpoint laws.
    pub ckpt_sigma_ratio: f64,
    /// A-posteriori interpolation tolerance served lookups must meet.
    pub tolerance: f64,
}

impl LatticeSpec {
    /// Default grid for a family: ranges covering the paper's instances
    /// (e.g. Fig. 8's `µ_X/R ≈ 0.10`, `σ_X/µ_X ≈ 0.17`, `µ_C/R ≈ 0.17`,
    /// `ρ = 0.08`) with per-family node counts balancing density against
    /// offline build cost.
    pub fn defaults(family: LawFamily) -> Self {
        let axis = |name: &str, lo: f64, hi: f64, points: usize| AxisSpec {
            name: name.to_string(),
            lo,
            hi,
            points,
        };
        let axes = match family {
            LawFamily::Uniform => vec![
                axis("task_lo", 0.02, 0.20, 9),
                axis("task_width", 0.02, 0.20, 9),
                axis("ckpt_mean", 0.05, 0.30, 9),
            ],
            LawFamily::Exponential => vec![
                axis("task_mean", 0.05, 0.30, 13),
                axis("ckpt_mean", 0.05, 0.30, 13),
            ],
            LawFamily::Normal => vec![
                axis("task_mean", 0.05, 0.30, 9),
                axis("task_cv", 0.05, 0.30, 9),
                axis("ckpt_mean", 0.05, 0.30, 9),
            ],
            LawFamily::LogNormal => vec![
                axis("task_mean", 0.05, 0.30, 9),
                axis("task_cv", 0.05, 0.30, 9),
                axis("ckpt_mean", 0.05, 0.30, 9),
            ],
        };
        Self {
            family,
            axes,
            ckpt_sigma_ratio: CKPT_SIGMA_RATIO,
            tolerance: DEFAULT_TOLERANCE,
        }
    }

    /// Overrides every axis's node count (smoke grids, tests).
    pub fn with_points(mut self, points: usize) -> Self {
        for a in &mut self.axes {
            a.points = points;
        }
        self
    }

    fn validate(&self) -> Result<Vec<NdAxis>, CoreError> {
        let names = self.family.axis_names();
        if self.axes.len() != names.len() || self.axes.iter().zip(names).any(|(a, n)| a.name != *n)
        {
            return Err(CoreError::InvalidTaskLaw(
                "lattice axes do not match the family's canonical axis list",
            ));
        }
        if !(self.ckpt_sigma_ratio > 0.0) || !(self.ckpt_sigma_ratio < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "ckpt_sigma_ratio",
                value: self.ckpt_sigma_ratio,
            });
        }
        if !(self.tolerance > 0.0) || !(self.tolerance < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "tolerance",
                value: self.tolerance,
            });
        }
        self.axes.iter().map(AxisSpec::to_nd).collect()
    }
}

/// Reconstructs the query a node's normalized coordinates describe, at
/// reservation `r` (the builder uses `r = 1`).
fn query_at(family: LawFamily, coords: &[f64], ckpt_sigma_ratio: f64, r: f64) -> PolicyQuery {
    let task = match family {
        LawFamily::Uniform => TaskParams::Uniform {
            lo: coords[0] * r,
            hi: (coords[0] + coords[1]) * r,
        },
        LawFamily::Exponential => TaskParams::Exponential {
            mean: coords[0] * r,
        },
        LawFamily::Normal => TaskParams::Normal {
            mean: coords[0] * r,
            sigma: coords[0] * coords[1] * r,
        },
        LawFamily::LogNormal => TaskParams::LogNormal {
            mean: coords[0] * r,
            sd: coords[0] * coords[1] * r,
        },
    };
    let ckpt_mean = coords[coords.len() - 1] * r;
    PolicyQuery {
        task,
        ckpt_mean,
        ckpt_sigma: ckpt_sigma_ratio * ckpt_mean,
        r,
    }
}

fn ckpt_law(q: &PolicyQuery) -> Result<Truncated<Normal>, CoreError> {
    let parent = Normal::new(q.ckpt_mean, q.ckpt_sigma)?;
    Ok(Truncated::above(parent, 0.0)?)
}

/// Answers a [`PolicyQuery`] with the exact solvers (the reference the
/// lattice is built from, falls back to, and is verified against):
/// `X_opt` by grid-refined maximization of `F_C(x)·(R−x)`, the static
/// plan via the family's closed-form [`StaticStrategy`] (Exponential ≡
/// `Gamma(1, µ)`, Normal) or the [`ConvolutionStatic`] planner (Uniform,
/// LogNormal), and `W_int` via [`DynamicStrategy`].
///
/// The solvers run at `R = 1`: every length of the query is divided by
/// `R`, and `X_opt`, `E(n_opt)` and `W_int` are multiplied back by it.
/// The answers are homogeneous in the time scale (module docs), so this
/// changes nothing but the solvers' absolute tolerances, which then act
/// relative to `R` and cost the same at every `R`. A query already at
/// `R = 1` (every lattice node) is solved exactly as given.
pub fn solve_exact(q: &PolicyQuery, cache: &mut SolveCache) -> Result<PolicyAnswer, CoreError> {
    q.validate()?;
    let r = q.r;
    let unit = solve_at_unit_r(&per_unit_r(q), cache)?;
    Ok(PolicyAnswer {
        x_opt: unit.x_opt * r,
        expected_work: unit.expected_work * r,
        w_int: unit.w_int.map(|w| w * r),
        ..unit
    })
}

/// `q` with every length divided by its reservation: the same question
/// at `R = 1`.
fn per_unit_r(q: &PolicyQuery) -> PolicyQuery {
    let r = q.r;
    let task = match q.task {
        TaskParams::Uniform { lo, hi } => TaskParams::Uniform {
            lo: lo / r,
            hi: hi / r,
        },
        TaskParams::Exponential { mean } => TaskParams::Exponential { mean: mean / r },
        TaskParams::Normal { mean, sigma } => TaskParams::Normal {
            mean: mean / r,
            sigma: sigma / r,
        },
        TaskParams::LogNormal { mean, sd } => TaskParams::LogNormal {
            mean: mean / r,
            sd: sd / r,
        },
    };
    PolicyQuery {
        task,
        ckpt_mean: q.ckpt_mean / r,
        ckpt_sigma: q.ckpt_sigma / r,
        r: 1.0,
    }
}

/// The exact solvers on `q` as given: [`solve_exact`] at `R = 1`.
fn solve_at_unit_r(q: &PolicyQuery, cache: &mut SolveCache) -> Result<PolicyAnswer, CoreError> {
    let ckpt = ckpt_law(q)?;

    // §3: X_opt depends on the checkpoint law and R only. The objective
    // is valid for any law with mass in [0, R]; the endpoints are grid
    // candidates, so the saturation cases land exactly on 0 or R.
    let x_opt = grid_max(
        |x| ckpt.cdf(x) * (q.r - x),
        0.0,
        q.r,
        GridSpec {
            points: 256,
            xtol: 1e-10,
        },
    )
    .x;

    // One fit lattice for every planner of this solve: it tabulates
    // this query's checkpoint and nothing else.
    let fit = fit_lattice(&ckpt, q.r);

    // §4.2: static plan through the family's exact path.
    let plan = match q.task {
        TaskParams::Exponential { mean } => {
            StaticStrategy::new(Gamma::new(1.0, mean)?, ckpt, q.r)?.optimize_on(&fit, cache)?
        }
        TaskParams::Normal { mean, sigma } => {
            StaticStrategy::new(Normal::new(mean, sigma)?, ckpt, q.r)?.optimize_on(&fit, cache)?
        }
        TaskParams::Uniform { lo, hi } => {
            ConvolutionStatic::new(&Uniform::new(lo, hi)?, ckpt, q.r, CONV_GRID_CELLS)?.optimize()
        }
        TaskParams::LogNormal { mean, sd } => ConvolutionStatic::new(
            &LogNormal::from_mean_sd(mean, sd)?,
            ckpt,
            q.r,
            CONV_GRID_CELLS,
        )?
        .optimize(),
    };

    // §4.3: dynamic threshold.
    let w_int = match q.task {
        TaskParams::Exponential { mean } => {
            DynamicStrategy::new(Exponential::new(1.0 / mean)?, ckpt, q.r)?
                .threshold_on(&fit, cache)?
        }
        TaskParams::Normal { mean, sigma } => {
            let task = Truncated::above(Normal::new(mean, sigma)?, 0.0)?;
            DynamicStrategy::new(task, ckpt, q.r)?.threshold_on(&fit, cache)?
        }
        TaskParams::Uniform { lo, hi } => {
            DynamicStrategy::new(Uniform::new(lo, hi)?, ckpt, q.r)?.threshold_on(&fit, cache)?
        }
        TaskParams::LogNormal { mean, sd } => {
            DynamicStrategy::new(LogNormal::from_mean_sd(mean, sd)?, ckpt, q.r)?
                .threshold_on(&fit, cache)?
        }
    };

    Ok(PolicyAnswer {
        x_opt,
        n_opt: plan.n_opt,
        expected_work: plan.expected_work,
        w_int,
        source: AnswerSource::Exact,
    })
}

/// Precomputes a [`PolicyLattice`] for `spec`: one exact solve per grid
/// node at `R = 1`, plus one per grid *cell* for calibration, under the
/// `lattice/build` span. Single-threaded and fully deterministic —
/// building the same spec twice yields byte-identical artifacts.
pub fn build(spec: &LatticeSpec) -> Result<PolicyLattice, CoreError> {
    let nd_axes = spec.validate()?;
    let _span = span::enter(span_name::LATTICE_BUILD);
    let total: usize = nd_axes.iter().map(|a| a.points).product();
    let mut x_opt = Vec::with_capacity(total);
    let mut n_opt = Vec::with_capacity(total);
    let mut e_n_opt = Vec::with_capacity(total);
    let mut w_int = Vec::with_capacity(total);
    let mut cache = SolveCache::new();
    let mut first_err: Option<CoreError> = None;
    for_each_node(&nd_axes, |_, coords| {
        if first_err.is_some() {
            return;
        }
        let q = query_at(spec.family, coords, spec.ckpt_sigma_ratio, 1.0);
        match solve_exact(&q, &mut cache) {
            Ok(a) => {
                x_opt.push(a.x_opt);
                n_opt.push(a.n_opt as f64);
                e_n_opt.push(a.expected_work);
                w_int.push(a.w_int.unwrap_or(W_INT_NONE));
            }
            Err(e) => first_err = Some(e),
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    let grid = |values: Vec<f64>| NdGrid::new(nd_axes.clone(), values).map_err(CoreError::from);
    let x_opt = grid(x_opt)?;
    let n_opt = grid(n_opt)?;
    let e_n_opt = grid(e_n_opt)?;
    let w_int = grid(w_int)?;

    // Calibration sweep: exact-solve every cell at its center and
    // quarter-points and measure the true interpolation residual. The
    // runtime two-resolution check estimates error from fine/coarse
    // disagreement, which is blind to bias both resolutions share —
    // e.g. the consistent chord offset over a convex stretch of the
    // `E(n_opt)` surface, or a kink where an `n_opt` plateau step
    // crosses the cell (there the error peaks *off*-center, which is
    // why one center probe is not enough). Cells where any probe's
    // residual approaches the tolerance are marked unserveable and
    // answer via the exact fallback instead.
    let margin = CALIBRATION_MARGIN * spec.tolerance;
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(REL_FLOOR);
    let mut cell_ok = vec![true; x_opt.cell_count()];
    let mut calib_err: Option<CoreError> = None;
    for_each_cell_probe(&nd_axes, &CALIBRATION_PROBES, |flat, coords| {
        if calib_err.is_some() || !cell_ok[flat] {
            return;
        }
        let q = query_at(spec.family, coords, spec.ckpt_sigma_ratio, 1.0);
        let exact = match solve_exact(&q, &mut cache) {
            Ok(a) => a,
            Err(e) => {
                calib_err = Some(e);
                return;
            }
        };
        let ok_x = rel(x_opt.interpolate(coords), exact.x_opt) <= margin;
        let ok_e = rel(e_n_opt.interpolate(coords), exact.expected_work) <= margin;
        let ok_n = (n_opt.interpolate(coords).round() - exact.n_opt as f64).abs() <= 1.0;
        let (w_lo, w_hi) = w_int.cell_bounds(coords);
        let ok_w = match exact.w_int {
            // Serve-time would interpolate a threshold here: measure it.
            Some(w) if w_lo >= 0.0 => rel(w_int.interpolate(coords).max(0.0), w) <= margin,
            // A sentinel-mixed cell falls back at serve time anyway; an
            // all-sentinel cell would confidently answer `None` against
            // an exact threshold — refuse it.
            Some(_) => w_hi >= 0.0,
            // Exact says no threshold: only a cell that cannot serve a
            // confident `Some` is consistent.
            None => w_lo < 0.0,
        };
        cell_ok[flat] = ok_x && ok_e && ok_n && ok_w;
    });
    if let Some(e) = calib_err {
        return Err(e);
    }

    let mut lattice = PolicyLattice {
        family: spec.family,
        axis_names: spec.axes.iter().map(|a| a.name.clone()).collect(),
        ckpt_sigma_ratio: spec.ckpt_sigma_ratio,
        tolerance: spec.tolerance,
        x_opt,
        n_opt,
        e_n_opt,
        w_int,
        cell_ok,
        fingerprint: 0,
    };
    lattice.fingerprint = lattice.compute_fingerprint();
    Ok(lattice)
}

/// Typed error from loading a serialized lattice artifact. Corrupt
/// artifacts surface as values of this enum — never panics.
#[derive(Debug, Clone, PartialEq)]
pub enum LatticeError {
    /// Filesystem error (message includes the path).
    Io(String),
    /// The file is not valid JSON.
    Parse(String),
    /// The `format` tag is missing or not [`FORMAT`].
    Format {
        /// What the artifact claimed (`"<missing>"` if absent).
        found: String,
    },
    /// The recomputed FNV-1a fingerprint does not match the stored one —
    /// the payload was altered after serialization.
    Fingerprint {
        /// Fingerprint stored in the artifact.
        stored: String,
        /// Fingerprint recomputed from the payload.
        actual: String,
    },
    /// Structurally invalid payload (wrong shapes, non-finite values,
    /// unknown family, …).
    Malformed(String),
}

impl std::fmt::Display for LatticeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatticeError::Io(m) => write!(f, "lattice artifact I/O error: {m}"),
            LatticeError::Parse(m) => write!(f, "lattice artifact is not valid JSON: {m}"),
            LatticeError::Format { found } => {
                write!(f, "lattice artifact format `{found}` is not `{FORMAT}`")
            }
            LatticeError::Fingerprint { stored, actual } => write!(
                f,
                "lattice artifact fingerprint mismatch: stored {stored}, recomputed {actual}"
            ),
            LatticeError::Malformed(m) => write!(f, "malformed lattice artifact: {m}"),
        }
    }
}

impl std::error::Error for LatticeError {}

/// A precomputed policy lattice: four scalar fields (`X_opt`, `n_opt`,
/// `E(n_opt)`, `W_int`) on a shared normalized parameter grid, plus the
/// query logic described in the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyLattice {
    family: LawFamily,
    axis_names: Vec<String>,
    ckpt_sigma_ratio: f64,
    tolerance: f64,
    x_opt: NdGrid,
    n_opt: NdGrid,
    e_n_opt: NdGrid,
    w_int: NdGrid,
    /// Build-time calibration verdict per grid cell (row-major, last
    /// axis fastest): `false` cells answer via the exact fallback.
    cell_ok: Vec<bool>,
    fingerprint: u64,
}

impl PolicyLattice {
    /// The gridded task-law family.
    pub fn family(&self) -> LawFamily {
        self.family
    }

    /// Shape ratio `σ_C/µ_C` of the gridded checkpoint laws.
    pub fn ckpt_sigma_ratio(&self) -> f64 {
        self.ckpt_sigma_ratio
    }

    /// A-posteriori tolerance served lookups meet.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// FNV-1a fingerprint of the payload, as stored in the artifact.
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }

    /// The normalized grid axes, as [`AxisSpec`]s.
    pub fn axes(&self) -> Vec<AxisSpec> {
        self.axis_names
            .iter()
            .zip(self.x_opt.axes())
            .map(|(name, a)| AxisSpec {
                name: name.clone(),
                lo: a.lo,
                hi: a.hi,
                points: a.points,
            })
            .collect()
    }

    /// Total grid nodes.
    pub fn node_count(&self) -> usize {
        self.x_opt.len()
    }

    /// Calibration coverage: `(serveable, total)` grid cells. Cells
    /// that failed the build-time center-residual sweep answer via the
    /// exact fallback; low coverage is the signal to rebuild with more
    /// points per axis.
    pub fn cell_coverage(&self) -> (usize, usize) {
        (
            self.cell_ok.iter().filter(|&&b| b).count(),
            self.cell_ok.len(),
        )
    }

    /// The query `coords` (normalized, in-grid or not) describe at
    /// reservation `r` — the inverse of the normalization, used by
    /// `resq lattice verify` and the tests to sample in-grid queries.
    pub fn query_for_coords(&self, coords: &[f64], r: f64) -> PolicyQuery {
        query_at(self.family, coords, self.ckpt_sigma_ratio, r)
    }

    /// Normalized coordinates for `q`, or `None` when the query cannot
    /// be served by this lattice regardless of range (different family,
    /// incompatible checkpoint shape ratio).
    fn normalize(&self, q: &PolicyQuery) -> Option<Vec<f64>> {
        if q.task.family() != self.family {
            return None;
        }
        let ratio = q.ckpt_sigma / q.ckpt_mean;
        if (ratio - self.ckpt_sigma_ratio).abs() > 1e-9 * (1.0 + self.ckpt_sigma_ratio) {
            return None;
        }
        Some(q.coords())
    }

    /// Answers `q`: interpolated lookup when the query is in-grid and
    /// the two-resolution error check passes, exact solve otherwise.
    /// Runs under the `solve/lattice_lookup` span and tallies
    /// `lattice_lookup_{hits,misses}_total` / `lattice_fallbacks_total`.
    pub fn query(
        &self,
        q: &PolicyQuery,
        cache: &mut SolveCache,
    ) -> Result<PolicyAnswer, CoreError> {
        q.validate()?;
        let _span = span::enter(span_name::SOLVE_LATTICE_LOOKUP);
        let coords = match self.normalize(q) {
            Some(c) if self.e_n_opt.contains(&c) => c,
            _ => {
                LATTICE_LOOKUP_MISSES_TOTAL.inc();
                return solve_exact(q, cache);
            }
        };
        match self.interpolate(&coords) {
            Some(mut a) => {
                LATTICE_LOOKUP_HITS_TOTAL.inc();
                a.x_opt *= q.r;
                a.expected_work *= q.r;
                a.w_int = a.w_int.map(|w| w * q.r);
                Ok(a)
            }
            None => {
                LATTICE_FALLBACKS_TOTAL.inc();
                solve_exact(q, cache)
            }
        }
    }

    /// The interpolated answer at normalized `coords` (in `R = 1`
    /// units), or `None` when the a-posteriori discipline rejects it:
    ///
    /// * the enclosing cell failed build-time calibration — some
    ///   probe's exact-solved residual approached the tolerance
    ///   ([`CALIBRATION_PROBES`], [`CALIBRATION_MARGIN`]);
    /// * continuous fields (`X_opt`, `E(n_opt)`, `W_int`): fine vs
    ///   coarse relative disagreement above the tolerance;
    /// * `n_opt`: fine and coarse interpolants rounding to different
    ///   integers, or the enclosing cell spanning more than one plateau
    ///   step (the integer field is a staircase — interpolating across
    ///   a two-step jump is meaningless);
    /// * `W_int`: the enclosing cell mixing threshold and no-threshold
    ///   (sentinel) nodes.
    fn interpolate(&self, coords: &[f64]) -> Option<PolicyAnswer> {
        if !self.cell_ok[self.x_opt.cell_index(coords)] {
            return None;
        }
        let tol = self.tolerance;
        let rel_ok = |est: f64, v: f64| est <= tol * v.abs().max(REL_FLOOR);

        let (x, x_est) = self.x_opt.interpolate_checked(coords);
        if !rel_ok(x_est, x) {
            return None;
        }
        let (e, e_est) = self.e_n_opt.interpolate_checked(coords);
        if !rel_ok(e_est, e) {
            return None;
        }

        let n_fine = self.n_opt.interpolate(coords).round();
        let n_coarse = self.n_opt.interpolate_coarse(coords).round();
        let (n_lo, n_hi) = self.n_opt.cell_bounds(coords);
        if n_fine != n_coarse || n_hi - n_lo > 1.5 || n_fine < 1.0 {
            return None;
        }

        let (w_lo, w_hi) = self.w_int.cell_bounds(coords);
        let w_int = if w_hi < 0.0 {
            // The whole cell is in the no-threshold region.
            None
        } else if w_lo < 0.0 {
            // Cell straddles the threshold-existence boundary.
            return None;
        } else {
            let (w, w_est) = self.w_int.interpolate_checked(coords);
            if !rel_ok(w_est, w) {
                return None;
            }
            Some(w.max(0.0))
        };

        Some(PolicyAnswer {
            x_opt: x,
            n_opt: n_fine as u64,
            expected_work: e,
            w_int,
            source: AnswerSource::Lattice,
        })
    }

    /// 64-bit FNV-1a over the canonical payload bytes.
    fn compute_fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.family.name().as_bytes());
        h = fnv1a(h, &self.ckpt_sigma_ratio.to_bits().to_le_bytes());
        h = fnv1a(h, &self.tolerance.to_bits().to_le_bytes());
        for (name, a) in self.axis_names.iter().zip(self.x_opt.axes()) {
            h = fnv1a(h, name.as_bytes());
            h = fnv1a(h, &a.lo.to_bits().to_le_bytes());
            h = fnv1a(h, &a.hi.to_bits().to_le_bytes());
            h = fnv1a(h, &(a.points as u64).to_le_bytes());
        }
        for &b in &self.cell_ok {
            h = fnv1a(h, &[b as u8]);
        }
        for field in [&self.x_opt, &self.n_opt, &self.e_n_opt, &self.w_int] {
            for v in field.values() {
                h = fnv1a(h, &v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Serializes the lattice as the versioned artifact document
    /// (`docs/LATTICES.md`). Deterministic: the same lattice always
    /// renders the same bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"format\": \"{FORMAT}\",\n"));
        out.push_str(&format!("  \"family\": \"{}\",\n", self.family.name()));
        out.push_str("  \"ckpt_sigma_ratio\": ");
        json::write_f64(&mut out, self.ckpt_sigma_ratio);
        out.push_str(",\n  \"tolerance\": ");
        json::write_f64(&mut out, self.tolerance);
        out.push_str(&format!(
            ",\n  \"fingerprint\": \"{}\",\n",
            self.fingerprint()
        ));
        out.push_str("  \"axes\": [\n");
        let axes = self.axes();
        for (i, a) in axes.iter().enumerate() {
            out.push_str("    {\"name\": ");
            json::write_escaped(&mut out, &a.name);
            out.push_str(", \"lo\": ");
            json::write_f64(&mut out, a.lo);
            out.push_str(", \"hi\": ");
            json::write_f64(&mut out, a.hi);
            out.push_str(&format!(", \"points\": {}}}", a.points));
            out.push_str(if i + 1 < axes.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"cell_ok\": [");
        for (j, &b) in self.cell_ok.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push(if b { '1' } else { '0' });
        }
        out.push_str("],\n  \"fields\": {\n");
        let fields: [(&str, &NdGrid); 4] = [
            ("x_opt", &self.x_opt),
            ("n_opt", &self.n_opt),
            ("e_n_opt", &self.e_n_opt),
            ("w_int", &self.w_int),
        ];
        for (i, (name, grid)) in fields.iter().enumerate() {
            out.push_str(&format!("    \"{name}\": ["));
            for (j, &v) in grid.values().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json::write_f64(&mut out, v);
            }
            out.push(']');
            out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses and validates an artifact document: format tag, family,
    /// axis shapes, field lengths, finiteness, then the fingerprint.
    pub fn from_json(text: &str) -> Result<Self, LatticeError> {
        let root = json::parse(text).map_err(|e| LatticeError::Parse(e.to_string()))?;
        let format = root
            .get("format")
            .and_then(|v| v.as_str())
            .unwrap_or("<missing>");
        if format != FORMAT {
            return Err(LatticeError::Format {
                found: format.to_string(),
            });
        }
        let bad = |m: &str| LatticeError::Malformed(m.to_string());
        let family_name = root
            .get("family")
            .and_then(|v| v.as_str())
            .ok_or_else(|| bad("missing `family`"))?;
        let family = LawFamily::from_name(family_name)
            .ok_or_else(|| bad(&format!("unknown family `{family_name}`")))?;
        let finite_pos = |key: &str| -> Result<f64, LatticeError> {
            let v = root
                .get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| bad(&format!("missing numeric `{key}`")))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(bad(&format!("`{key}` must be finite and positive")));
            }
            Ok(v)
        };
        let ckpt_sigma_ratio = finite_pos("ckpt_sigma_ratio")?;
        let tolerance = finite_pos("tolerance")?;
        let Some(json::JsonValue::Array(axes_json)) = root.get("axes") else {
            return Err(bad("missing `axes` array"));
        };
        let mut axis_names = Vec::with_capacity(axes_json.len());
        let mut nd_axes = Vec::with_capacity(axes_json.len());
        for a in axes_json {
            let name = a
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or_else(|| bad("axis missing `name`"))?;
            let lo = a
                .get("lo")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| bad("axis missing `lo`"))?;
            let hi = a
                .get("hi")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| bad("axis missing `hi`"))?;
            let points = a
                .get("points")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| bad("axis missing `points`"))? as usize;
            axis_names.push(name.to_string());
            nd_axes.push(
                NdAxis::new(lo, hi, points).map_err(|e| bad(&format!("axis `{name}`: {e}")))?,
            );
        }
        let expect_names = family.axis_names();
        if axis_names.len() != expect_names.len()
            || axis_names.iter().zip(expect_names).any(|(a, b)| a != b)
        {
            return Err(bad("axes do not match the family's canonical axis list"));
        }
        let total: usize = nd_axes.iter().map(|a| a.points).product();
        let cells: usize = nd_axes.iter().map(|a| a.points - 1).product();
        let Some(json::JsonValue::Array(raw_cells)) = root.get("cell_ok") else {
            return Err(bad("missing `cell_ok` array"));
        };
        if raw_cells.len() != cells {
            return Err(bad(&format!(
                "`cell_ok` has {} entries, grid has {cells} cells",
                raw_cells.len()
            )));
        }
        let mut cell_ok = Vec::with_capacity(cells);
        for v in raw_cells {
            match v.as_u64() {
                Some(0) => cell_ok.push(false),
                Some(1) => cell_ok.push(true),
                _ => return Err(bad("`cell_ok` entries must be 0 or 1")),
            }
        }
        let fields = root
            .get("fields")
            .ok_or_else(|| bad("missing `fields` object"))?;
        let read_field = |key: &str, allow_sentinel: bool| -> Result<NdGrid, LatticeError> {
            let Some(json::JsonValue::Array(raw)) = fields.get(key) else {
                return Err(bad(&format!("missing field array `{key}`")));
            };
            if raw.len() != total {
                return Err(bad(&format!(
                    "field `{key}` has {} values, grid has {total} nodes",
                    raw.len()
                )));
            }
            let mut values = Vec::with_capacity(total);
            for v in raw {
                let x = v
                    .as_f64()
                    .ok_or_else(|| bad(&format!("field `{key}` holds a non-number")))?;
                if !x.is_finite() || (!allow_sentinel && x < 0.0) {
                    return Err(bad(&format!("field `{key}` holds an invalid value {x}")));
                }
                values.push(x);
            }
            NdGrid::new(nd_axes.clone(), values).map_err(|e| bad(&format!("field `{key}`: {e}")))
        };
        let x_opt = read_field("x_opt", false)?;
        let n_opt = read_field("n_opt", false)?;
        let e_n_opt = read_field("e_n_opt", false)?;
        let w_int = read_field("w_int", true)?;
        let stored = root
            .get("fingerprint")
            .and_then(|v| v.as_str())
            .ok_or_else(|| bad("missing `fingerprint`"))?
            .to_string();
        let fingerprint = u64::from_str_radix(&stored, 16)
            .map_err(|_| bad("fingerprint is not a 64-bit hex string"))?;
        let lattice = Self {
            family,
            axis_names,
            ckpt_sigma_ratio,
            tolerance,
            x_opt,
            n_opt,
            e_n_opt,
            w_int,
            cell_ok,
            fingerprint,
        };
        let actual = lattice.compute_fingerprint();
        if actual != fingerprint {
            return Err(LatticeError::Fingerprint {
                stored,
                actual: format!("{actual:016x}"),
            });
        }
        Ok(lattice)
    }

    /// Writes the artifact plus its provenance manifest sidecar
    /// (`lattice_X.json` → `lattice_X.manifest.json`, via
    /// [`RunManifest`]); returns the sidecar path. The artifact lands
    /// atomically ([`resq_obs::write_atomic`]): a builder killed
    /// mid-write — say, by a reservation expiring — leaves either the
    /// previous complete lattice or the new one, never a torn file that
    /// would quarantine on the next load.
    pub fn save(&self, path: &Path) -> std::io::Result<PathBuf> {
        resq_obs::write_atomic(path, self.to_json().as_bytes())?;
        let mut manifest = RunManifest::new("lattice/build")
            .config("format", FORMAT)
            .config("family", self.family.name())
            .config("nodes", self.node_count() as u64)
            .config(
                "cells_serveable",
                format!("{}/{}", self.cell_coverage().0, self.cell_coverage().1),
            )
            .config("fingerprint", self.fingerprint())
            .config("ckpt_sigma_ratio", self.ckpt_sigma_ratio)
            .config("tolerance", self.tolerance);
        for a in self.axes() {
            manifest = manifest.config(
                format!("axis.{}", a.name),
                format!("[{}, {}] x{}", a.lo, a.hi, a.points),
            );
        }
        manifest.write_for(path)
    }

    /// Reads and validates an artifact from disk.
    pub fn load(path: &Path) -> Result<Self, LatticeError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| LatticeError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Small but real exponential-family lattice, shared across tests
    /// (building one takes a noticeable fraction of a second).
    fn exp_lattice() -> &'static PolicyLattice {
        static LATTICE: OnceLock<PolicyLattice> = OnceLock::new();
        LATTICE.get_or_init(|| {
            let mut spec = LatticeSpec::defaults(LawFamily::Exponential).with_points(5);
            spec.axes[0].lo = 0.10;
            spec.axes[0].hi = 0.30;
            spec.axes[1].lo = 0.10;
            spec.axes[1].hi = 0.30;
            build(&spec).expect("exponential lattice builds")
        })
    }

    fn exp_query(task_mean_n: f64, ckpt_mean_n: f64, r: f64) -> PolicyQuery {
        PolicyQuery {
            task: TaskParams::Exponential {
                mean: task_mean_n * r,
            },
            ckpt_mean: ckpt_mean_n * r,
            ckpt_sigma: CKPT_SIGMA_RATIO * ckpt_mean_n * r,
            r,
        }
    }

    #[test]
    fn build_then_roundtrip_is_identity() {
        let l = exp_lattice();
        let text = l.to_json();
        let back = PolicyLattice::from_json(&text).unwrap();
        assert_eq!(*l, back);
        assert_eq!(back.to_json(), text, "serialization is canonical");
    }

    #[test]
    fn build_is_deterministic() {
        let mut spec = LatticeSpec::defaults(LawFamily::Exponential).with_points(3);
        spec.axes[0].lo = 0.15;
        spec.axes[0].hi = 0.25;
        spec.axes[1].lo = 0.15;
        spec.axes[1].hi = 0.25;
        let a = build(&spec).unwrap();
        let b = build(&spec).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn in_grid_lookup_matches_exact_within_tolerance() {
        let l = exp_lattice();
        let mut cache = SolveCache::new();
        // Mid-cell queries at several reservation scales.
        for &(tm, cm, r) in &[(0.145, 0.22, 1.0), (0.21, 0.13, 10.0), (0.27, 0.27, 29.0)] {
            let q = exp_query(tm, cm, r);
            let got = l.query(&q, &mut cache).unwrap();
            let want = solve_exact(&q, &mut cache).unwrap();
            if got.source == AnswerSource::Exact {
                // A legitimate fallback: must equal the exact answer.
                assert_eq!(got.n_opt, want.n_opt);
                continue;
            }
            let tol = l.tolerance();
            let floor = REL_FLOOR * r;
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(floor);
            assert!(
                rel(got.x_opt, want.x_opt) <= tol,
                "x_opt {} vs {}",
                got.x_opt,
                want.x_opt
            );
            assert!(
                rel(got.expected_work, want.expected_work) <= tol,
                "E(n_opt) {} vs {}",
                got.expected_work,
                want.expected_work
            );
            assert!(
                (got.n_opt as i64 - want.n_opt as i64).abs() <= 1,
                "n_opt {} vs {} (plateau discipline allows 1)",
                got.n_opt,
                want.n_opt
            );
            match (got.w_int, want.w_int) {
                (Some(a), Some(b)) => assert!(rel(a, b) <= tol, "w_int {a} vs {b}"),
                (a, b) => panic!("w_int presence mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn answers_scale_with_r() {
        // The same normalized point at two reservations: answers scale
        // linearly, n_opt identical. Coverage is partial by design
        // (calibration refuses cells), so probe for a served point
        // rather than hard-coding one.
        let l = exp_lattice();
        let mut cache = SolveCache::new();
        let (ok, cells) = l.cell_coverage();
        assert!(ok > 0, "fixture lattice serves no cells ({ok}/{cells})");
        let mut found = None;
        'scan: for i in 1..40 {
            for j in 1..40 {
                let (m, c) = (0.10 + 0.005 * i as f64, 0.10 + 0.005 * j as f64);
                let a = l.query(&exp_query(m, c, 1.0), &mut cache).unwrap();
                if a.source == AnswerSource::Lattice {
                    found = Some((m, c, a));
                    break 'scan;
                }
            }
        }
        let (m, c, a) = found.expect("no in-grid point is served by the lattice");
        let b = l.query(&exp_query(m, c, 50.0), &mut cache).unwrap();
        assert_eq!(a.source, AnswerSource::Lattice);
        assert_eq!(b.source, AnswerSource::Lattice);
        assert_eq!(a.n_opt, b.n_opt);
        assert!((a.x_opt * 50.0 - b.x_opt).abs() < 1e-9);
        assert!((a.expected_work * 50.0 - b.expected_work).abs() < 1e-9);
        assert!((a.w_int.unwrap() * 50.0 - b.w_int.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn out_of_grid_queries_fall_back_to_exact() {
        let l = exp_lattice();
        let mut cache = SolveCache::new();
        // task_mean/R = 0.4 is above the grid's 0.3 ceiling.
        let q = exp_query(0.4, 0.2, 10.0);
        let a = l.query(&q, &mut cache).unwrap();
        assert_eq!(a.source, AnswerSource::Exact);
        // Wrong family: a Normal query against an exponential lattice.
        let q = PolicyQuery {
            task: TaskParams::Normal {
                mean: 3.0,
                sigma: 0.5,
            },
            ckpt_mean: 5.0,
            ckpt_sigma: 0.4,
            r: 29.0,
        };
        assert_eq!(l.query(&q, &mut cache).unwrap().source, AnswerSource::Exact);
        // Incompatible checkpoint shape ratio.
        let mut q = exp_query(0.2, 0.2, 10.0);
        q.ckpt_sigma = 0.5 * q.ckpt_mean;
        assert_eq!(l.query(&q, &mut cache).unwrap().source, AnswerSource::Exact);
    }

    #[test]
    fn at_grid_edge_queries_are_served_by_clamped_cells() {
        let l = exp_lattice();
        let mut cache = SolveCache::new();
        // Exactly on the grid corner: in-domain, answered from the
        // boundary cell (node value, so the two-resolution gap is 0).
        let q = exp_query(0.30, 0.30, 10.0);
        let a = l.query(&q, &mut cache).unwrap();
        assert_eq!(a.source, AnswerSource::Lattice);
        // A hair beyond the edge is out-of-grid.
        let q = exp_query(0.300001, 0.30, 10.0);
        assert_eq!(l.query(&q, &mut cache).unwrap().source, AnswerSource::Exact);
    }

    #[test]
    fn nan_and_degenerate_parameters_are_typed_errors() {
        let l = exp_lattice();
        let mut cache = SolveCache::new();
        for q in [
            exp_query(f64::NAN, 0.2, 10.0),
            exp_query(0.2, f64::NAN, 10.0),
            exp_query(-0.1, 0.2, 10.0),
            exp_query(0.2, 0.2, f64::NAN),
            exp_query(0.2, 0.2, -5.0),
            exp_query(0.2, 0.2, f64::INFINITY),
        ] {
            assert!(
                matches!(
                    l.query(&q, &mut cache),
                    Err(CoreError::InvalidParameter { .. })
                ),
                "{q:?} must be rejected"
            );
        }
        // Degenerate uniform support.
        let q = PolicyQuery {
            task: TaskParams::Uniform { lo: 2.0, hi: 2.0 },
            ckpt_mean: 1.0,
            ckpt_sigma: 0.08,
            r: 10.0,
        };
        assert!(q.validate().is_err());
    }

    #[test]
    fn corrupted_artifacts_load_as_typed_errors() {
        let l = exp_lattice();
        let good = l.to_json();

        assert!(matches!(
            PolicyLattice::from_json("{ not json"),
            Err(LatticeError::Parse(_))
        ));
        assert!(matches!(
            PolicyLattice::from_json("{\"format\": \"something/v9\"}"),
            Err(LatticeError::Format { .. })
        ));
        // Tampered payload value: fingerprint mismatch.
        let needle = "\"tolerance\": 0.02";
        assert!(good.contains(needle), "fixture drifted");
        let tampered = good.replace(needle, "\"tolerance\": 0.03");
        assert!(matches!(
            PolicyLattice::from_json(&tampered),
            Err(LatticeError::Fingerprint { .. })
        ));
        // Truncated field array.
        let truncated = {
            let ix = good.find("\"n_opt\": [").unwrap();
            let rest = &good[ix..];
            let comma = ix + rest.find(',').unwrap();
            format!("{}{}", &good[..comma], {
                let close = comma + good[comma..].find(']').unwrap();
                &good[close..]
            })
        };
        assert!(matches!(
            PolicyLattice::from_json(&truncated),
            Err(LatticeError::Malformed(_)) | Err(LatticeError::Parse(_))
        ));
        // Missing file.
        assert!(matches!(
            PolicyLattice::load(Path::new("/nonexistent/lattice.json")),
            Err(LatticeError::Io(_))
        ));
    }

    #[test]
    fn save_writes_artifact_and_manifest_sidecar() {
        let dir = std::env::temp_dir().join(format!("resq-lattice-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lattice_exponential.json");
        let sidecar = exp_lattice().save(&path).unwrap();
        assert_eq!(sidecar, dir.join("lattice_exponential.manifest.json"));
        let back = PolicyLattice::load(&path).unwrap();
        assert_eq!(back, *exp_lattice());
        let manifest = json::parse(&std::fs::read_to_string(&sidecar).unwrap()).unwrap();
        assert_eq!(
            manifest.get("tool").and_then(|t| t.as_str()),
            Some("lattice/build")
        );
        let config = manifest.get("config").unwrap();
        assert_eq!(
            config.get("fingerprint").and_then(|f| f.as_str()),
            Some(exp_lattice().fingerprint()).as_deref()
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn planner_variants_agree_with_query() {
        let mut cache = SolveCache::new();
        let q = exp_query(0.17, 0.17, 20.0);
        let a = exp_lattice().query(&q, &mut cache).unwrap();
        let plan = a.static_plan();
        assert_eq!(plan.n_opt, a.n_opt);
        assert_eq!(plan.expected_work, a.expected_work);
        if let Some(w) = a.w_int {
            assert!(a.should_checkpoint(w + 0.1));
            assert!(!a.should_checkpoint(w - 0.1));
        }
    }

    #[test]
    fn spec_validation_rejects_bad_grids() {
        // Even point count.
        let spec = LatticeSpec::defaults(LawFamily::Exponential).with_points(4);
        assert!(build(&spec).is_err());
        // Wrong axis list for the family.
        let mut spec = LatticeSpec::defaults(LawFamily::Exponential);
        spec.axes[0].name = "nope".into();
        assert!(build(&spec).is_err());
        // Degenerate tolerance.
        let mut spec = LatticeSpec::defaults(LawFamily::Exponential);
        spec.tolerance = 0.0;
        assert!(build(&spec).is_err());
    }

    #[test]
    fn normal_family_node_agrees_with_fig8_scale() {
        // One Normal-family node solved exactly at the paper's Fig. 5/8
        // scale: N(3, 0.5), ckpt N[0,∞)(5, 0.4), R ≈ 29–30. Checks the
        // exact reference path the lattice is built from.
        let mut cache = SolveCache::new();
        let q = PolicyQuery {
            task: TaskParams::Normal {
                mean: 3.0,
                sigma: 0.5,
            },
            ckpt_mean: 5.0,
            ckpt_sigma: 0.4,
            r: 30.0,
        };
        let a = solve_exact(&q, &mut cache).unwrap();
        assert_eq!(a.n_opt, 7, "paper Fig. 5: n_opt = 7 at R = 30");
        assert!((a.expected_work - 20.9).abs() < 0.1);
        let q29 = PolicyQuery { r: 29.0, ..q };
        let a29 = solve_exact(&q29, &mut cache).unwrap();
        let w = a29.w_int.expect("Fig. 8 has a threshold");
        assert!(
            (w - 20.3).abs() < 0.3,
            "paper Fig. 8: W_int ≈ 20.3, got {w}"
        );
    }
}
