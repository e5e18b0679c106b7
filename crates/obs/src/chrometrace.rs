//! Chrome `trace_event` export of a structured event log: turns an
//! `events.jsonl` file into JSON that loads directly in
//! `chrome://tracing` and Perfetto (`resq obs export-trace`).
//!
//! **The time axis is logical, not wall-clock.** Event rows carry no
//! timestamps by design — wall time is quarantined in the manifest so
//! logs stay byte-identical across thread counts — so the exporter uses
//! the *cumulative trial count* as `ts`: a `chunk-progress` row becomes
//! a duration (`"ph":"X"`) slice from the previous chunk's cumulative
//! count to its own, and sampled per-trial rows become instant events
//! (`"ph":"i"`) at their trial index. The rendered timeline therefore
//! shows *progress structure* (chunk boundaries, sample cadence, retry
//! clusters), not seconds — and, as a corollary, the export is a pure
//! function of the log bytes, which is what makes the golden
//! byte-stability test possible (`tests/telemetry.rs`).
//!
//! Each run in the log becomes one trace "process": `pid` is the run's
//! `run_id` folded to 31 bits (the full 16-hex-digit id is preserved in
//! the process-name metadata and in every slice's `args`); logs from
//! before run ids existed fall back to the run's ordinal position in
//! the file.

use crate::json::{self, JsonValue};

/// A finished export: the trace JSON plus what went into it.
#[derive(Debug, Clone)]
pub struct TraceExport {
    /// The Chrome `trace_event` JSON document.
    pub json: String,
    /// Event rows converted into trace events.
    pub events: usize,
    /// Distinct runs (`run-started` rows, plus one synthetic run if
    /// rows precede the first `run-started`).
    pub runs: usize,
    /// Lines skipped: blank, unparseable, or missing a `type` field.
    pub skipped: usize,
}

struct RunCtx {
    pid: u32,
    /// Cumulative trials through the last `chunk-progress` row.
    trials_done: u64,
}

fn fold_pid(run_id: u64) -> u32 {
    ((run_id ^ (run_id >> 32)) as u32) & 0x7fff_ffff
}

/// Renders the fields of `row` (minus the listed keys) as a JSON
/// object. `JsonValue` keeps numbers as their original text and its
/// object keys sorted, so the output is a pure function of the input
/// bytes.
fn args_from(row: &JsonValue, skip: &[&str]) -> String {
    let mut out = String::from("{");
    let mut first = true;
    if let JsonValue::Object(map) = row {
        for (key, value) in map {
            if skip.contains(&key.as_str()) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            json::write_escaped(&mut out, key);
            out.push(':');
            out.push_str(&value.render());
        }
    }
    out.push('}');
    out
}

fn u64_field(row: &JsonValue, key: &str) -> Option<u64> {
    row.get(key).and_then(|v| v.as_u64())
}

fn str_field<'a>(row: &'a JsonValue, key: &str) -> Option<&'a str> {
    row.get(key).and_then(|v| v.as_str())
}

/// Converts one event log (the raw text of an `events.jsonl` file) to
/// Chrome `trace_event` JSON.
///
/// Errors with a one-line message when the text contains **zero**
/// parseable event rows — an empty or wholly corrupt file must fail
/// loudly, not export an empty-but-plausible trace. Partially
/// truncated logs (some valid rows, a torn final line) still export;
/// the torn line counts into [`TraceExport::skipped`].
pub fn export(text: &str) -> Result<TraceExport, String> {
    let mut events: Vec<String> = Vec::new();
    let mut skipped = 0usize;
    let mut converted = 0usize;
    let mut runs = 0usize;
    let mut cur: Option<RunCtx> = None;

    let ensure_run = |cur: &mut Option<RunCtx>,
                      runs: &mut usize,
                      events: &mut Vec<String>|
     -> u32 {
        if cur.is_none() {
            // Rows before any run-started: a synthetic process so the
            // trace still renders.
            *runs += 1;
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"resq run #{} (no run-started row)\"}}}}",
                *runs
            ));
            *cur = Some(RunCtx {
                pid: 0,
                trials_done: 0,
            });
        }
        cur.as_ref().unwrap().pid
    };

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(row) = json::parse(line) else {
            skipped += 1;
            continue;
        };
        let Some(ty) = str_field(&row, "type").map(str::to_string) else {
            skipped += 1;
            continue;
        };
        match ty.as_str() {
            "run-started" => {
                runs += 1;
                let command = str_field(&row, "command").unwrap_or("?");
                let (pid, label) =
                    match str_field(&row, "run_id").and_then(|h| u64::from_str_radix(h, 16).ok()) {
                        Some(run_id) => (fold_pid(run_id), format!("{run_id:016x}")),
                        None => (runs as u32, format!("#{runs}")),
                    };
                let mut proc_label = String::new();
                json::write_escaped(&mut proc_label, &format!("resq {command} run {label}"));
                events.push(format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":{proc_label}}}}}"
                ));
                events.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"trials (logical time)\"}}}}"
                ));
                events.push(format!(
                    "{{\"name\":\"run-started\",\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":0,\"s\":\"p\",\"args\":{}}}",
                    args_from(&row, &["type"])
                ));
                cur = Some(RunCtx {
                    pid,
                    trials_done: 0,
                });
            }
            "chunk-progress" => {
                let pid = ensure_run(&mut cur, &mut runs, &mut events);
                let done = u64_field(&row, "trials_done").unwrap_or(0);
                let ctx = cur.as_mut().unwrap();
                let start = ctx.trials_done.min(done);
                let chunk = u64_field(&row, "chunk").unwrap_or(0);
                events.push(format!(
                    "{{\"name\":\"chunk {chunk}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{start},\"dur\":{},\"args\":{}}}",
                    done - start,
                    args_from(&row, &["type", "chunk"])
                ));
                ctx.trials_done = ctx.trials_done.max(done);
            }
            "trial-sample" | "checkpoint-decision" | "retry-outcome" => {
                let pid = ensure_run(&mut cur, &mut runs, &mut events);
                let trial = u64_field(&row, "trial").unwrap_or(0);
                events.push(format!(
                    "{{\"name\":\"{ty}\",\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":{trial},\"s\":\"t\",\"args\":{}}}",
                    args_from(&row, &["type"])
                ));
            }
            "run-finished" => {
                let pid = ensure_run(&mut cur, &mut runs, &mut events);
                let ctx = cur.as_mut().unwrap();
                let dur = u64_field(&row, "trials").unwrap_or(ctx.trials_done);
                events.push(format!(
                    "{{\"name\":\"run\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":0,\"dur\":{dur},\"args\":{}}}",
                    args_from(&row, &["type"])
                ));
                cur = None;
            }
            _ => {
                // Forward compatibility: unknown row types become plain
                // instants so nothing in a newer log is silently lost.
                let pid = ensure_run(&mut cur, &mut runs, &mut events);
                let mut name = String::new();
                json::write_escaped(&mut name, &ty);
                events.push(format!(
                    "{{\"name\":{name},\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"s\":\"t\",\"args\":{}}}",
                    cur.as_ref().map_or(0, |c| c.trials_done),
                    args_from(&row, &["type"])
                ));
            }
        }
        converted += 1;
    }

    if converted == 0 {
        return Err(
            "no event rows found (empty, truncated before the first complete line, or not an events.jsonl file)"
                .to_string(),
        );
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"exporter\":\"resq obs export-trace\",\"time_axis\":\"logical: ts/dur count trials, not wall time\"}}\n");
    Ok(TraceExport {
        json: out,
        events: converted,
        runs,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"type\":\"run-started\",\"command\":\"simulate\",\"trials\":9000,\"seed\":42,\"run_id\":\"00000000000000ff\"}\n",
        "{\"type\":\"chunk-progress\",\"chunk\":0,\"trials_done\":4096,\"running_mean\":2.5,\"run_id\":\"00000000000000ff\"}\n",
        "{\"type\":\"trial-sample\",\"trial\":2000,\"value\":3.25,\"run_id\":\"00000000000000ff\"}\n",
        "{\"type\":\"chunk-progress\",\"chunk\":1,\"trials_done\":8192,\"running_mean\":2.4,\"run_id\":\"00000000000000ff\"}\n",
        "{\"type\":\"run-finished\",\"trials\":9000,\"mean_saved_work\":2.41,\"run_id\":\"00000000000000ff\"}\n",
    );

    #[test]
    fn export_is_parseable_and_structured() {
        let out = export(SAMPLE).expect("export");
        assert_eq!(out.runs, 1);
        assert_eq!(out.events, 5);
        assert_eq!(out.skipped, 0);
        let doc = json::parse(&out.json).expect("trace JSON parses");
        let JsonValue::Array(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents not an array");
        };
        // 2 metadata + run-started instant + 2 chunk slices + 1 sample
        // instant + run slice.
        assert_eq!(events.len(), 7);
        // The second chunk starts where the first ended.
        let chunk1 = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("chunk 1"))
            .unwrap();
        assert_eq!(chunk1.get("ts").unwrap().as_u64(), Some(4096));
        assert_eq!(chunk1.get("dur").unwrap().as_u64(), Some(4096));
        // pid folds the run id; args keep the exported row fields.
        assert_eq!(chunk1.get("pid").unwrap().as_u64(), Some(0xff));
        assert_eq!(
            chunk1
                .get("args")
                .unwrap()
                .get("run_id")
                .and_then(|v| v.as_str()),
            Some("00000000000000ff")
        );
    }

    #[test]
    fn export_is_byte_stable() {
        let a = export(SAMPLE).unwrap().json;
        let b = export(SAMPLE).unwrap().json;
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_garbage_inputs_error() {
        assert!(export("").is_err());
        assert!(export("\n\n").is_err());
        assert!(export("{\"no\":\"type\"}\n{torn").is_err());
    }

    #[test]
    fn torn_tail_line_is_skipped_not_fatal() {
        let text = format!("{SAMPLE}{{\"type\":\"chunk-progress\",\"chunk\":2,");
        let out = export(&text).expect("partial log still exports");
        assert_eq!(out.skipped, 1);
        assert_eq!(out.events, 5);
    }

    #[test]
    fn rows_without_run_started_get_a_synthetic_process() {
        let text = "{\"type\":\"trial-sample\",\"trial\":5,\"value\":1.0}\n";
        let out = export(text).expect("export");
        assert_eq!(out.runs, 1);
        assert!(out.json.contains("no run-started row"));
    }
}
