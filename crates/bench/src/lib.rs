#![warn(missing_docs)]

//! # resq-bench
//!
//! Experiment harness regenerating **every figure of the paper** plus the
//! extension experiments of DESIGN.md, and the `perf_baseline` timing
//! harness.
//!
//! Each `fig*` binary (see `src/bin/`) calls into [`figures`], which
//! computes the plotted series with the `resq` library, writes it as CSV
//! under `results/`, and prints a *paper-vs-measured* check for every
//! numeric anchor the paper states. `all_figures` runs the lot and exits
//! non-zero if any anchor drifts out of tolerance — the reproduction's
//! executable regression gate.

pub mod experiments;
pub mod figures;
pub mod report;

pub use report::{Anchor, FigureResult};
