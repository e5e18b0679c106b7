//! §4 — stochastic linear workflows.
//!
//! The application is a chain of tasks with IID stochastic durations
//! `X_i ~ D_X`; a checkpoint (duration `C ~ D_C`, the paper uses
//! `N_{[0,∞)}(μ_C, σ_C²)`) can only be taken at the end of a task.
//!
//! * [`fit`] — what the planners need from a checkpoint
//!   ([`fit::CheckpointFit`]): the probability that it completes in the
//!   time left, from a law's CDF or a retry model's success profile.
//! * [`sum_law`] — the closure-under-summation abstraction ([`sum_law::IidSum`])
//!   the static strategy needs: Normal, Gamma and Poisson task laws.
//! * [`statics`] — §4.2: pick the checkpoint-after-`n_opt`-tasks plan
//!   before execution by maximizing `E(n)` through its continuous
//!   relaxation.
//! * [`dynamic`] — §4.3: at the end of each task compare
//!   `E[W_C]` (checkpoint now) against `E[W_{+1}]` (run one more task),
//!   yielding the work threshold `W_int`.
//! * [`task_law`] — the per-task abstraction the dynamic strategy needs
//!   (any continuous law, or Poisson for the discrete instantiation).
//! * [`heterogeneous`] — the paper's *general instance* (§4.1/§5):
//!   per-task duration and checkpoint laws, with the generalized
//!   one-step rule and a full dynamic-programming solver.
//! * [`convolution`] — static strategy for *arbitrary* task laws via
//!   numeric self-convolution of the task density (drops the paper's
//!   closed-under-summation restriction).

pub mod convolution;
pub mod deterministic;
pub mod dynamic;
pub mod fit;
pub mod heterogeneous;
pub mod statics;
pub mod sum_law;
pub mod task_law;
