#![warn(missing_docs)]

//! # resq — when to checkpoint at the end of a fixed-length reservation?
//!
//! A Rust implementation of Barbut, Benoit, Herault, Robert & Vivien,
//! *"When to checkpoint at the end of a fixed-length reservation?"*
//! (FTXS'23 / SC 2023 workshops), plus the simulation and trace-learning
//! machinery needed to use it in practice.
//!
//! ## The problem
//!
//! Your job holds a reservation of `R` seconds. Before it expires you
//! must checkpoint or lose everything — but the checkpoint's duration
//! `C` is random. Checkpoint too late and it may not finish; too early
//! and you waste compute. This crate computes the timing that maximizes
//! the **expected saved work**:
//!
//! ```
//! use resq::dist::Uniform;
//! use resq::Preemptible;
//!
//! // Checkpoint takes between 1 and 7.5 s; reservation is 10 s.
//! let ckpt = Uniform::new(1.0, 7.5)?;
//! let model = Preemptible::new(ckpt, 10.0)?;
//! let plan = model.optimize();
//!
//! // Start the checkpoint 5.5 s before the end — not at the worst case!
//! assert!((plan.lead_time - 5.5).abs() < 1e-6);
//! assert!(plan.expected_work > 3.1);           // vs 2.5 for worst-case
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Modules
//!
//! The facade re-exports the workspace crates:
//!
//! * [`specfun`] — special functions (`erf`, `Γ`, incomplete gamma,
//!   Lambert `W`) built from scratch.
//! * [`numerics`] — quadrature, root finding, scalar optimization.
//! * [`dist`] — distributions, truncation, sampling, fitting, KS tests.
//! * [`core`] (also re-exported at the top level) — the paper's
//!   strategies: [`Preemptible`] (§3), [`StaticStrategy`] (§4.2),
//!   [`DynamicStrategy`] (§4.3), policies, multi-reservation campaigns.
//! * [`sim`] — reservation simulator + parallel Monte-Carlo harness.
//! * [`traces`] — learning the checkpoint law from logs.
//! * [`obs`] — structured run events, global metrics and provenance
//!   manifests (the observability layer threaded through all of the
//!   above).

pub use resq_core::{
    Action, AnswerSource, AxisSpec, CampaignModel, CheckpointFit, CheckpointPlan,
    CheckpointReliability, ControllerState, ConvolutionStatic, CoreError, DeterministicPlan,
    DeterministicWorkflow, DpSolution, DynamicStrategy, DynamicWorkflowPolicy, FixedLeadPolicy,
    HeterogeneousDynamic, LatticeError, LatticeSpec, LawFamily, PessimisticWorkflowPolicy,
    PolicyAnswer, PolicyLattice, PolicyQuery, Preemptible, PreemptiblePolicy,
    ReservationController, RetryPolicy, RetryPreemptible, SolveCache, Stage, StaticPlan,
    StaticStrategy, StaticWorkflowPolicy, TaskDuration, TaskParams, WorkflowPolicy,
};

/// Special functions (re-export of `resq-specfun`).
pub mod specfun {
    pub use resq_specfun::*;
}

/// Numerical substrate (re-export of `resq-numerics`).
pub mod numerics {
    pub use resq_numerics::*;
}

/// Probability distributions (re-export of `resq-dist`).
pub mod dist {
    pub use resq_dist::*;
}

/// The paper's strategies (re-export of `resq-core`).
pub mod core {
    pub use resq_core::*;
}

/// Reservation simulator and Monte-Carlo harness (re-export of
/// `resq-sim`).
pub mod sim {
    pub use resq_sim::*;
}

/// Trace recording and distribution learning (re-export of
/// `resq-traces`).
pub mod traces {
    pub use resq_traces::*;
}

/// Observability: structured run events, metrics and provenance
/// manifests (re-export of `resq-obs`).
pub mod obs {
    pub use resq_obs::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_the_headline_api() {
        use crate::dist::Uniform;
        let model = crate::Preemptible::new(Uniform::new(1.0, 7.5).unwrap(), 10.0).unwrap();
        let plan = model.optimize();
        assert!((plan.lead_time - 5.5).abs() < 1e-6);
    }
}
