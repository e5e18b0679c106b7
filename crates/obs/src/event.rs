//! Typed event rows for the structured run log.
//!
//! An [`Event`] is an ordered list of key/value fields serialized as one
//! JSON object per line, with `"type"` always first. Field order is
//! emission order, so a fixed seed produces a byte-identical log.
//!
//! Determinism contract (enforced by `tests/determinism.rs`):
//!
//! * event rows never carry wall-clock times — wall time belongs in the
//!   [`RunManifest`](crate::RunManifest) sidecar;
//! * the `run-started` row never carries the worker thread count, so
//!   logs are comparable across `--threads` settings;
//! * producers emit per-chunk buffers in deterministic chunk order.

use crate::json::{write_escaped, write_f64};
use std::fmt::Write as _;

/// Canonical event-type strings, the `"type"` field of every row.
///
/// These constants are the single source of truth for the event schema
/// names: `docs/OBSERVABILITY.md` is checked against
/// [`event_type::ALL`] by `tests/docs_sync.rs`.
pub mod event_type {
    /// First row of every run: configuration echo (distributions,
    /// reservation, policy, seed, trial count). Never contains the
    /// thread count.
    pub const RUN_STARTED: &str = "run-started";
    /// One row per completed trial chunk, in chunk order: cumulative
    /// trials finished and running mean of the primary statistic.
    pub const CHUNK_PROGRESS: &str = "chunk-progress";
    /// Detail row for a sampled trial (every `sample-every`-th trial
    /// index): per-trial outcome fields.
    pub const TRIAL_SAMPLE: &str = "trial-sample";
    /// A policy decision observed during a sampled trial: whether the
    /// threshold rule fired, at what remaining-time value.
    pub const CHECKPOINT_DECISION: &str = "checkpoint-decision";
    /// Outcome of a checkpoint retry schedule observed during a sampled
    /// trial under fault injection: attempts made, whether any attempt
    /// succeeded, and the time consumed by the schedule.
    pub const RETRY_OUTCOME: &str = "retry-outcome";
    /// Last row of every run: final summary statistics.
    pub const RUN_FINISHED: &str = "run-finished";

    /// Every event type, for docs-sync checks and exhaustive matching.
    pub const ALL: &[&str] = &[
        RUN_STARTED,
        CHUNK_PROGRESS,
        TRIAL_SAMPLE,
        CHECKPOINT_DECISION,
        RETRY_OUTCOME,
        RUN_FINISHED,
    ];
}

#[derive(Debug, Clone, PartialEq)]
enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

/// One structured event row, built field-by-field and serialized as a
/// single JSON object (one JSONL line, no trailing newline).
///
/// ```
/// use resq_obs::{event_type, Event};
///
/// let row = Event::new(event_type::CHUNK_PROGRESS)
///     .u64("chunk", 3)
///     .u64("trials_done", 16384)
///     .f64("running_mean", 2.25);
/// assert_eq!(
///     row.to_json(),
///     r#"{"type":"chunk-progress","chunk":3,"trials_done":16384,"running_mean":2.25}"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    event_type: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Starts a row of the given type (use the [`event_type`] constants).
    pub fn new(event_type: &'static str) -> Self {
        Self {
            event_type,
            fields: Vec::new(),
        }
    }

    /// The row's `"type"` field.
    pub fn event_type(&self) -> &'static str {
        self.event_type
    }

    /// Appends an unsigned integer field.
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, FieldValue::U64(value)));
        self
    }

    /// Appends a signed integer field.
    pub fn i64(mut self, key: &'static str, value: i64) -> Self {
        self.fields.push((key, FieldValue::I64(value)));
        self
    }

    /// Appends a float field (non-finite values serialize as `null`).
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, FieldValue::F64(value)));
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &'static str, value: bool) -> Self {
        self.fields.push((key, FieldValue::Bool(value)));
        self
    }

    /// Appends a string field.
    pub fn str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.fields.push((key, FieldValue::Str(value.into())));
        self
    }

    /// Serializes the row as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 24);
        out.push_str("{\"type\":");
        write_escaped(&mut out, self.event_type);
        for (key, value) in &self.fields {
            out.push(',');
            write_escaped(&mut out, key);
            out.push(':');
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) => write_f64(&mut out, *v),
                FieldValue::Bool(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::Str(v) => write_escaped(&mut out, v),
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn row_serializes_in_field_order_with_type_first() {
        let row = Event::new(event_type::RUN_STARTED)
            .u64("seed", 42)
            .f64("reservation", 29.0)
            .bool("oracle", false)
            .str("task", "normal:3,0.5@0,");
        let text = row.to_json();
        assert!(text.starts_with("{\"type\":\"run-started\","));
        let seed_at = text.find("\"seed\"").unwrap();
        let res_at = text.find("\"reservation\"").unwrap();
        assert!(seed_at < res_at, "field order must be emission order");
        let parsed = json::parse(&text).unwrap();
        assert_eq!(parsed.get("seed").unwrap().as_u64(), Some(42));
        assert_eq!(parsed.get("oracle").unwrap().as_bool(), Some(false));
        assert_eq!(
            parsed.get("task").unwrap().as_str(),
            Some("normal:3,0.5@0,")
        );
    }

    #[test]
    fn every_event_type_is_listed_once() {
        let mut seen = std::collections::BTreeSet::new();
        for t in event_type::ALL {
            assert!(seen.insert(*t), "duplicate event type {t}");
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let row = Event::new(event_type::RUN_FINISHED).f64("mean", f64::INFINITY);
        assert!(row.to_json().contains("\"mean\":null"));
    }
}
