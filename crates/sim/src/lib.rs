#![warn(missing_docs)]

//! # resq-sim
//!
//! Discrete-event simulation of fixed-length reservations — the
//! experimental campaign the paper proposes as future work ("either via
//! simulations using traces or through actual application runs").
//!
//! The simulator executes the `resq-core` policies on sampled task and
//! checkpoint durations and measures the work actually saved, which
//! Monte-Carlo-validates every analytic expectation in the paper:
//!
//! * [`preemptible`] — single-reservation execution of §3 policies
//!   (fixed lead time `X`), plus the clairvoyant oracle.
//! * [`workflow`] — single-reservation execution of §4 policies (static
//!   `n_opt`, dynamic threshold, pessimistic worst-case provisioning).
//! * [`faults`] — the same §4 trial under unreliable checkpoint writes,
//!   retry policies and fail-stop errors, plus its §3 counterpart.
//! * [`campaign`] — multi-reservation execution with recovery cost and
//!   the §4.4 continue-vs-drop rules under both billing models.
//! * [`failures`] — the paper's future-work extension: fail-stop errors
//!   (Poisson) striking *inside* the reservation, plus the Young/Daly
//!   periodic-checkpoint baseline for that regime.
//! * [`monte_carlo`] — the parallel trial runner: deterministic
//!   per-trial RNG streams (reproducible for any thread count) fanned
//!   out over scoped threads.
//! * [`stats`] — Welford summaries, confidence intervals, quantiles and
//!   histograms for reporting.
//! * [`workload`] — convergence-driven iterative jobs (the paper's
//!   "unknown number of tasks, whose number depends on the convergence
//!   rate").
//!
//! Every §4 simulator runs one trial loop (the private `trial` module):
//! [`workflow`] and [`faults`] run it once per trial, while [`campaign`]
//! and [`failures`] chain it as stretches of work and decide recovery
//! and continuation between stretches.

pub mod campaign;
pub mod failures;
pub mod faults;
pub mod monte_carlo;
pub mod preemptible;
pub mod stats;
mod trial;
pub mod workflow;
pub mod workload;

pub use campaign::{CampaignConfig, CampaignOutcome, CampaignSimulator};
pub use failures::{
    young_daly_period, FailureOutcome, FailureWorkflowSim, PeriodicCheckpointPolicy,
};
pub use faults::{
    FaultyOutcome, FaultyPreemptibleOutcome, FaultyWorkflowSim, ReliabilityInjector,
    RetryPreemptibleSim,
};
pub use monte_carlo::{
    run_trials, run_trials_batched, run_trials_observed, MonteCarloConfig, CHUNK,
};
pub use preemptible::{PreemptibleOutcome, PreemptibleSim};
pub use stats::{Histogram, Summary, Welford};
pub use workflow::{BatchScratch, WorkflowOutcome, WorkflowSim};
pub use workload::{ConvergenceModel, IterativeJob};
