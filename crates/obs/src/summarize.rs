//! Post-hoc aggregation of run artifacts: the library behind the `resq
//! obs` subcommands.
//!
//! * [`LogSummary`] folds a `--log-json` event log (JSONL rows) into
//!   per-phase event counts and the run's headline facts — the trial
//!   count, seed, and the final summary statistics — without re-running
//!   anything (`resq obs summarize run.jsonl`).
//! * [`manifest_diff`] compares two provenance manifests key by key and
//!   reports the drift — which config knobs, seeds or toolchain facts
//!   changed between two runs (`resq obs diff a.manifest.json
//!   b.manifest.json`).
//!
//! Both operate on the hand-rolled [`crate::json`] values, so they work
//! on any artifact this workspace produces and stay within the
//! offline-crates policy.

use crate::json::{self, JsonValue};
use std::collections::BTreeMap;

/// Aggregate view of one structured event log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogSummary {
    /// Total rows (including unparseable ones).
    pub rows: u64,
    /// Rows that failed to parse as JSON objects with a `"type"` field.
    pub malformed: u64,
    /// Event count per `"type"`, sorted by type name.
    pub by_type: Vec<(String, u64)>,
    /// `command` field of the `run-started` row, when present.
    pub command: Option<String>,
    /// `seed` field of the `run-started` row, when present.
    pub seed: Option<u64>,
    /// `trials` reported by the final `run-finished` row, falling back
    /// to the largest `trials_done` of any `chunk-progress` row.
    pub trials: Option<u64>,
    /// Every field of the last `run-finished` row (key, rendered value),
    /// in emission-independent (sorted) key order, `type` excluded.
    pub finished: Vec<(String, String)>,
}

impl LogSummary {
    /// Folds an iterator of JSONL lines (without trailing newlines; blank
    /// lines are skipped) into a summary.
    pub fn from_lines<'a, I: IntoIterator<Item = &'a str>>(lines: I) -> Self {
        let mut rows = 0u64;
        let mut malformed = 0u64;
        let mut by_type: BTreeMap<String, u64> = BTreeMap::new();
        let mut command = None;
        let mut seed = None;
        let mut trials: Option<u64> = None;
        let mut max_trials_done: Option<u64> = None;
        let mut finished = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            rows += 1;
            let Ok(row) = json::parse(line) else {
                malformed += 1;
                continue;
            };
            let Some(ty) = row.get("type").and_then(|t| t.as_str()) else {
                malformed += 1;
                continue;
            };
            *by_type.entry(ty.to_string()).or_insert(0) += 1;
            match ty {
                "run-started" => {
                    if command.is_none() {
                        command = row
                            .get("command")
                            .and_then(|c| c.as_str())
                            .map(String::from);
                    }
                    if seed.is_none() {
                        seed = row.get("seed").and_then(|s| s.as_u64());
                    }
                }
                "chunk-progress" => {
                    if let Some(done) = row.get("trials_done").and_then(|t| t.as_u64()) {
                        max_trials_done = Some(max_trials_done.unwrap_or(0).max(done));
                    }
                }
                "run-finished" => {
                    if let Some(t) = row.get("trials").and_then(|t| t.as_u64()) {
                        trials = Some(t);
                    }
                    if let Some(map) = row.entries() {
                        finished = map
                            .iter()
                            .filter(|(k, _)| k.as_str() != "type")
                            .map(|(k, v)| (k.clone(), v.render()))
                            .collect();
                    }
                }
                _ => {}
            }
        }
        Self {
            rows,
            malformed,
            by_type: by_type.into_iter().collect(),
            command,
            seed,
            trials: trials.or(max_trials_done),
            finished,
        }
    }

    /// The count for one event type (0 when absent).
    pub fn count(&self, event_type: &str) -> u64 {
        self.by_type
            .iter()
            .find(|(t, _)| t == event_type)
            .map_or(0, |&(_, n)| n)
    }

    /// Human-readable report, as printed by `resq obs summarize`.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("rows              : {}\n", self.rows));
        if self.malformed > 0 {
            out.push_str(&format!("malformed rows    : {}\n", self.malformed));
        }
        out.push_str("events:\n");
        for (ty, n) in &self.by_type {
            out.push_str(&format!("  {ty:<22} {n:>10}\n"));
        }
        if let Some(cmd) = &self.command {
            out.push_str(&format!("command           : {cmd}\n"));
        }
        if let Some(seed) = self.seed {
            out.push_str(&format!("seed              : {seed}\n"));
        }
        if let Some(trials) = self.trials {
            out.push_str(&format!("trials            : {trials}\n"));
        }
        if !self.finished.is_empty() {
            out.push_str("finished:\n");
            for (k, v) in &self.finished {
                out.push_str(&format!("  {k:<22} {v}\n"));
            }
        }
        out
    }
}

/// One differing key between two manifests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// Dotted key path (`seed`, `config.threshold`, …).
    pub key: String,
    /// Rendered value in the first manifest (`None` = absent).
    pub a: Option<String>,
    /// Rendered value in the second manifest (`None` = absent).
    pub b: Option<String>,
}

/// Compares two parsed manifests (or any two flat-ish JSON objects):
/// top-level keys plus one level of nesting for object values (the
/// manifest's `config` block). Returns the differing keys in sorted
/// order; an empty result means the manifests agree on every key.
pub fn manifest_diff(a: &JsonValue, b: &JsonValue) -> Vec<DiffEntry> {
    let mut keys: Vec<String> = Vec::new();
    let mut collect = |v: &JsonValue| {
        if let Some(map) = v.entries() {
            for (k, val) in map {
                if let Some(nested) = val.entries() {
                    for nk in nested.keys() {
                        keys.push(format!("{k}.{nk}"));
                    }
                } else {
                    keys.push(k.clone());
                }
            }
        }
    };
    collect(a);
    collect(b);
    keys.sort();
    keys.dedup();

    let lookup = |root: &JsonValue, key: &str| -> Option<String> {
        let v = match key.split_once('.') {
            Some((outer, inner)) => root.get(outer)?.get(inner),
            None => root.get(key),
        };
        v.map(JsonValue::render)
    };

    keys.into_iter()
        .filter_map(|key| {
            let va = lookup(a, &key);
            let vb = lookup(b, &key);
            if va == vb {
                None
            } else {
                Some(DiffEntry { key, a: va, b: vb })
            }
        })
        .collect()
}

/// Human-readable drift report, as printed by `resq obs diff`.
pub fn format_diff(entries: &[DiffEntry]) -> String {
    if entries.is_empty() {
        return "manifests agree on every key\n".to_string();
    }
    let mut out = format!("{} differing key(s):\n", entries.len());
    for e in entries {
        let a = e.a.as_deref().unwrap_or("(absent)");
        let b = e.b.as_deref().unwrap_or("(absent)");
        out.push_str(&format!("  {:<24} {a} -> {b}\n", e.key));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{event_type, Event};
    use crate::sink::{MemorySink, RunSink};

    #[test]
    fn summary_counts_types_and_extracts_headline_facts() {
        let sink = MemorySink::new();
        sink.emit(
            Event::new(event_type::RUN_STARTED)
                .str("command", "simulate")
                .u64("trials", 9000)
                .u64("seed", 5),
        );
        for c in 0..3u64 {
            sink.emit(
                Event::new(event_type::CHUNK_PROGRESS)
                    .u64("chunk", c)
                    .u64("trials_done", (c + 1) * 3000)
                    .f64("running_mean", 1.5),
            );
        }
        sink.emit(
            Event::new(event_type::TRIAL_SAMPLE)
                .u64("trial", 0)
                .f64("value", 2.0),
        );
        sink.emit(
            Event::new(event_type::RUN_FINISHED)
                .u64("trials", 9000)
                .f64("mean_saved_work", 8.25),
        );
        let lines = sink.lines();
        let summary = LogSummary::from_lines(lines.iter().map(String::as_str));
        assert_eq!(summary.rows, 6);
        assert_eq!(summary.malformed, 0);
        assert_eq!(summary.count(event_type::CHUNK_PROGRESS), 3);
        assert_eq!(summary.count(event_type::RUN_STARTED), 1);
        assert_eq!(summary.command.as_deref(), Some("simulate"));
        assert_eq!(summary.seed, Some(5));
        assert_eq!(summary.trials, Some(9000));
        let mean = summary
            .finished
            .iter()
            .find(|(k, _)| k == "mean_saved_work")
            .unwrap();
        assert_eq!(mean.1, "8.25");
        let text = summary.format();
        assert!(text.contains("chunk-progress"));
        assert!(text.contains("trials            : 9000"));
    }

    #[test]
    fn summary_falls_back_to_chunk_progress_for_trials() {
        let lines = [
            r#"{"type":"run-started","command":"simulate"}"#,
            r#"{"type":"chunk-progress","chunk":0,"trials_done":4096}"#,
            r#"{"type":"chunk-progress","chunk":1,"trials_done":5000}"#,
        ];
        let s = LogSummary::from_lines(lines);
        assert_eq!(s.trials, Some(5000));
    }

    #[test]
    fn summary_tolerates_garbage_lines() {
        let lines = [
            "not json",
            r#"{"no_type":1}"#,
            "",
            r#"{"type":"run-finished"}"#,
        ];
        let s = LogSummary::from_lines(lines);
        assert_eq!(s.rows, 3); // blank line skipped
        assert_eq!(s.malformed, 2);
        assert_eq!(s.count("run-finished"), 1);
    }

    #[test]
    fn diff_reports_config_and_provenance_drift() {
        let a = json::parse(
            r#"{"tool":"resq simulate","config":{"threshold":"20.3","task":"normal:3,0.5@0,"},
                "seed":42,"threads":8,"crate_version":"0.1.0","git_rev":"aaa"}"#,
        )
        .unwrap();
        let b = json::parse(
            r#"{"tool":"resq simulate","config":{"threshold":"20.5","task":"normal:3,0.5@0,"},
                "seed":42,"threads":4,"crate_version":"0.1.0","git_rev":"bbb"}"#,
        )
        .unwrap();
        let diff = manifest_diff(&a, &b);
        let keys: Vec<&str> = diff.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, vec!["config.threshold", "git_rev", "threads"]);
        let t = &diff[0];
        assert_eq!(t.a.as_deref(), Some("\"20.3\""));
        assert_eq!(t.b.as_deref(), Some("\"20.5\""));
        let text = format_diff(&diff);
        assert!(text.contains("3 differing key(s)"));
        assert!(text.contains("config.threshold"));
    }

    #[test]
    fn diff_flags_keys_present_on_one_side_only() {
        let a = json::parse(r#"{"seed":1,"config":{}}"#).unwrap();
        let b = json::parse(r#"{"seed":1,"config":{},"trials":100}"#).unwrap();
        let diff = manifest_diff(&a, &b);
        assert_eq!(diff.len(), 1);
        assert_eq!(diff[0].key, "trials");
        assert_eq!(diff[0].a, None);
        assert_eq!(diff[0].b.as_deref(), Some("100"));
        assert!(format_diff(&diff).contains("(absent) -> 100"));
    }

    #[test]
    fn identical_manifests_diff_empty() {
        let a = json::parse(r#"{"tool":"t","config":{"x":"1"},"seed":7}"#).unwrap();
        let diff = manifest_diff(&a, &a.clone());
        assert!(diff.is_empty());
        assert_eq!(format_diff(&diff), "manifests agree on every key\n");
    }
}
