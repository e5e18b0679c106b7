//! `perfbench` — the repository's benchmark. One run measures one
//! workload for a fixed time and prints its metrics; `BENCHMARK.json` at
//! the repository root lists the workloads and metrics, and
//! `perfbench/README.md` says what each one measures.
//!
//! ```text
//! perfbench --workload <decide_mix|decide_wire|mc_fig8|mc_faulty>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`,
//! with the end-to-end metrics for `--trace 0` and the per-layer ones
//! for `--trace 1`. The exit status is non-zero when any answer was
//! wrong. Host facts, the result and (traced runs) the spans are also
//! written under `.bench_out/`.

mod decide;
mod gen;
mod mc;
mod speed;
mod stats;
mod trace;

use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <decide_mix|decide_wire|mc_fig8|mc_faulty> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// End-to-end metrics (`--trace 0`) with their units, as listed in
/// `BENCHMARK.json`. A request is one decision (`decide_*`) or one
/// Monte-Carlo run of `mc::TRIALS_PER_RUN` trials (`mc_*`); throughput
/// counts decisions or trials per second.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) with their units. A layer the
/// workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.parse_us.p50", "us"),
    ("serve.decide_us.p50", "us"),
    ("serve.decide_us.p99", "us"),
    ("serve.render_us.p50", "us"),
    ("lattice.lookup_us.p50", "us"),
    ("lattice.lookup_us.p99", "us"),
    ("lattice.hit_ratio", "ratio"),
    ("lattice.hit_ratio.uniform", "ratio"),
    ("lattice.hit_ratio.exponential", "ratio"),
    ("lattice.hit_ratio.normal", "ratio"),
    ("lattice.hit_ratio.lognormal", "ratio"),
    ("lattice.build_s.exponential", "s"),
    ("lattice.build_s.uniform", "s"),
    ("solve.exact_ms.uniform.p50", "ms"),
    ("solve.exact_ms.uniform.p99", "ms"),
    ("solve.exact_ms.exponential.p50", "ms"),
    ("solve.exact_ms.exponential.p99", "ms"),
    ("solve.exact_ms.normal.p50", "ms"),
    ("solve.exact_ms.normal.p99", "ms"),
    ("solve.exact_ms.lognormal.p50", "ms"),
    ("solve.exact_ms.lognormal.p99", "ms"),
    ("solve.exact_count", "count"),
    ("solve_cache.hit_ratio", "ratio"),
    ("wire.http.rtt_us.p50", "us"),
    ("wire.http.rtt_us.p99", "us"),
    ("wire.framed.rtt_us.p50", "us"),
    ("wire.framed.rtt_us.p99", "us"),
    ("wire.overhead_us", "us"),
    ("admission.rejected", "count"),
    ("serve.timeouts", "count"),
    ("decide_fail_ratio", "ratio"),
    ("mc.run_s", "s"),
    ("sim.trial_ns", "ns"),
    ("mc.runner_overhead_ratio", "ratio"),
    ("dist.task_draw_ns", "ns"),
    ("dist.ckpt_draw_ns", "ns"),
    ("rng.stream_ns", "ns"),
    ("sim.tasks_per_trial", "count"),
    ("sim.ckpt_success_ratio", "ratio"),
    ("faults.attempts_per_trial", "count"),
    ("faults.write_failure_ratio", "ratio"),
    ("faults.killed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured.
pub struct Report {
    pub attempted: u64,
    /// Requests that errored, were shed, timed out or were answered
    /// wrongly.
    pub failed: u64,
    /// Wrong answers (and failed consistency checks): any makes the run
    /// incorrect.
    pub wrong: u64,
    pub metrics: Vec<(String, f64)>,
    pub spans: Vec<trace::Span>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let pos = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = flag("--workload")?.to_string();
    if !["decide_mix", "decide_wire", "mc_fig8", "mc_faulty"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = flag("--seed")?
        .parse()
        .map_err(|_| "--seed takes a non-negative integer".to_string())?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, arg: &str) -> String {
    std::process::Command::new(program)
        .arg(arg)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's git revision, read from `./.git` only.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()?
                    .lines()
                    .find_map(|l| {
                        let (hash, name) = l.split_once(' ')?;
                        (name == reference).then(|| hash.to_string())
                    })
            })
            .unwrap_or(head),
    }
}

/// Host facts recorded with every result, as a JSON object: runs on
/// different hosts are not comparable.
fn host_facts() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::from("{\"nproc\":");
    resq::obs::json::write_escaped(&mut out, &command_line("nproc", "--all"));
    out.push_str(&format!(
        ",\"available_parallelism\":{parallelism},\"cpu_model\":"
    ));
    resq::obs::json::write_escaped(&mut out, &cpu);
    out.push_str(",\"rustc\":");
    resq::obs::json::write_escaped(&mut out, &command_line("rustc", "--version"));
    out.push_str(",\"git_rev\":");
    resq::obs::json::write_escaped(&mut out, &git_rev());
    out.push('}');
    out
}

/// The result line: every metric of `table`, in order.
fn result_line(report: &Report, table: &[(&str, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.wrong == 0,
        report.attempted,
        report.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    out
}

/// Writes the result (with host facts) and, for traced runs, the spans
/// under `.bench_out/`, and prints each layer's self time.
fn save_outputs(args: &Args, host: &str, line: &str, spans: &[trace::Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!("{{\"host\":{host},\"result\":{line}}}\n"),
    )?;
    if args.trace {
        trace::write_json(&dir.join(format!("{stem}-spans.json")), host, spans)?;
        eprintln!(
            "perfbench: {:<16} {:>8} {:>12} {:>12}",
            "layer", "spans", "total ms", "self ms"
        );
        for t in trace::layer_times(spans) {
            eprintln!(
                "perfbench: {:<16} {:>8} {:>12.3} {:>12.3}",
                t.layer.name(),
                t.count,
                t.total_ns / 1e6,
                t.self_ns / 1e6
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host_facts();
    eprintln!("perfbench: host {host}");
    let result = match args.workload.as_str() {
        "decide_mix" => decide::run_mix(&args),
        "decide_wire" => decide::run_wire(&args),
        "mc_fig8" => mc::run(mc::Instance::Fig8, &args),
        _ => mc::run(mc::Instance::Faulty, &args),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report.metrics.push(("peak_rss_mb".into(), peak_rss_mb()));
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        if let Some((_, v)) = report.metrics.iter().find(|(n, _)| n == name) {
            eprintln!("perfbench: {name:<32} {v:>16.6} {unit}");
        }
    }
    let line = result_line(&report, table);
    if let Err(e) = save_outputs(&args, &host, &line, &report.spans) {
        eprintln!("perfbench: writing .bench_out: {e}");
    }
    println!("{line}");
    if report.wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq::obs::json::{self, JsonValue};

    /// `BENCHMARK.json` and the printed metrics must not drift apart.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(JsonValue::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks `{key}`"),
            }
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let report = Report {
            attempted: 3,
            failed: 0,
            wrong: 0,
            metrics: vec![("setup_s".into(), 1.25)],
            spans: Vec::new(),
        };
        let line = result_line(&report, END_TO_END);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        let metrics = v.get("metrics").and_then(JsonValue::entries).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
    }
}
