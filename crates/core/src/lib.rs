#![warn(missing_docs)]

//! # resq-core
//!
//! The primary contribution of *"When to checkpoint at the end of a
//! fixed-length reservation?"* (Barbut, Benoit, Herault, Robert, Vivien,
//! FTXS'23), as a Rust library.
//!
//! An application runs inside a reservation of known length `R`; the final
//! checkpoint's duration `C` is random with law `D_C`. The library answers
//! *when to start that checkpoint* so the **expected saved work** is
//! maximal, in the paper's two scenarios:
//!
//! * [`preemptible`] — §3: a checkpoint may start at any instant.
//!   [`preemptible::Preemptible`] evaluates `E[W(X)]` for any truncated
//!   checkpoint law and optimizes it; [`preemptible::closed_form`] holds
//!   the paper's analytic optima (Uniform, Exponential-via-Lambert-W) and
//!   the numeric ones (Normal, LogNormal).
//! * [`workflow`] — §4: the application is a chain of IID stochastic
//!   tasks; checkpoints only at task boundaries.
//!   [`workflow::statics::StaticStrategy`] computes `n_opt` before execution
//!   (§4.2, Normal/Gamma/Poisson task laws via their closure under IID
//!   summation); [`workflow::dynamic::DynamicStrategy`] decides checkpoint-vs-
//!   continue at the end of every task (§4.3) and exposes the work
//!   threshold `W_int`.
//! * [`policy`] — the common [`policy::PreemptiblePolicy`] /
//!   [`policy::WorkflowPolicy`] interfaces so the `resq-sim` Monte-Carlo
//!   engine can execute and compare all strategies (optimal, pessimistic
//!   `X = C_max`, oracle, static, dynamic).
//! * [`reservation`] — §4.4 and beyond: multi-reservation campaigns with
//!   recovery cost, continue-vs-drop decisions and the two billing models
//!   discussed by the paper (pay-per-reservation vs pay-per-use).
//! * [`lattice`] — precomputed policy lattices: the paper's decision
//!   quantities (`X_opt`, `n_opt`, `E(n_opt)`, `W_int`) tabulated offline
//!   over normalized law-shape grids and answered in O(µs) by checked
//!   multilinear interpolation, with exact-solver fallback.

pub mod controller;
pub mod error;
pub mod lattice;
pub mod policy;
pub mod preemptible;
pub mod reliability;
pub mod reservation;
pub mod risk;
pub mod solve_cache;
pub mod workflow;

pub use controller::{ControllerState, ReservationController};
pub use error::CoreError;
pub use lattice::{
    AnswerSource, AxisSpec, LatticeError, LatticeSpec, LawFamily, PolicyAnswer, PolicyLattice,
    PolicyQuery, TaskParams,
};
pub use policy::{
    Action, DynamicWorkflowPolicy, FixedLeadPolicy, PessimisticWorkflowPolicy, PreemptiblePolicy,
    StaticWorkflowPolicy, WorkflowPolicy,
};
pub use preemptible::{CheckpointPlan, Preemptible};
pub use reliability::{
    exponential_retry_success, uniform_retry_success, CheckpointReliability, RetryPolicy,
    RetryPreemptible,
};
pub use reservation::{BillingModel, CampaignModel, ContinuationRule};
pub use risk::RiskProfile;
pub use solve_cache::SolveCache;
pub use workflow::convolution::ConvolutionStatic;
pub use workflow::deterministic::{DeterministicPlan, DeterministicWorkflow};
pub use workflow::dynamic::DynamicStrategy;
pub use workflow::fit::CheckpointFit;
pub use workflow::heterogeneous::{DpSolution, HeterogeneousDynamic, Stage};
pub use workflow::statics::{StaticPlan, StaticStrategy};
pub use workflow::sum_law::IidSum;
pub use workflow::task_law::TaskDuration;
