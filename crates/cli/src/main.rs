//! `resq` — command-line planner for end-of-reservation checkpointing.
//!
//! ```text
//! resq plan-preemptible --ckpt uniform:1,7.5 --reservation 10
//! resq plan-static      --task normal:3,0.5 --ckpt normal:5,0.4@0, --reservation 30
//! resq plan-dynamic     --task normal:3,0.5@0, --ckpt normal:5,0.4@0, --reservation 29
//! resq simulate         --task normal:3,0.5@0, --ckpt normal:5,0.4@0, --reservation 29 \
//!                       --threshold 20.3 --trials 100000 [--seed 1] [--log-json run.jsonl]
//! resq learn            --trace ckpts.jsonl --reservation 30
//! ```
//!
//! See `resq_cli::USAGE` for the full flag reference, including the
//! observability flags (`--log-json`, `--metrics`, `--progress`)
//! documented in `docs/OBSERVABILITY.md`.

use resq::dist::{Distribution, Xoshiro256pp};
use resq::obs::{
    chrometrace, event_type, http, metrics::Counter, span, tracectx, Event, JsonlSink, NullSink,
    RunInfo, RunManifest, RunRegistry, RunSink, TraceCtx, TracedSink,
};
use resq::core::policy::ThresholdWorkflowPolicy;
use resq::sim::{
    run_trials_batched, BatchScratch, FaultyOutcome, FaultyWorkflowSim, MonteCarloConfig,
    ReliabilityInjector, WorkflowSim,
};
use resq::dist::{Sample, Uniform};
use resq::{
    AnswerSource, CheckpointReliability, ConvolutionStatic, DynamicStrategy, LatticeSpec,
    LawFamily, PolicyLattice, PolicyQuery, Preemptible, SolveCache, StaticStrategy, TaskParams,
};
use resq_cli::args::{ArgError, Args};
use resq_cli::serve::{self, DecisionService, LoadOptions, LoadProto};
use resq_cli::spec::{parse_law, parse_retry, DynLaw, LawSpec};
use resq_cli::{
    BENCH_ACTIONS, LATTICE_ACTIONS, LATTICE_FAMILIES, LOAD_PROTOS, METRICS_FORMATS, OBS_ACTIONS,
    USAGE,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    match run(tokens) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn run(tokens: Vec<String>) -> Result<(), ArgError> {
    let args = Args::parse(tokens)?;
    // Validate the exposition choice up front so a typo fails before an
    // expensive run, not after it.
    let metrics_format = match args.get("metrics-format") {
        Some(fmt) if METRICS_FORMATS.contains(&fmt) => Some(fmt.to_string()),
        Some(other) => {
            return Err(ArgError(format!(
                "flag `--metrics-format` expects one of {}, got `{other}`",
                METRICS_FORMATS.join("|")
            )))
        }
        None if args.bool_flag("metrics") => Some("summary".to_string()),
        None => None,
    };
    if !args.positionals.is_empty()
        && !matches!(
            args.command.as_deref(),
            Some("obs") | Some("lattice") | Some("bench")
        )
    {
        return Err(ArgError(format!(
            "unexpected positional argument `{}`",
            args.positionals[0]
        )));
    }
    // `--serve <addr>`: publish the live telemetry endpoints for the
    // duration of the command. The server reads atomic metric/span/run
    // snapshots only, and the flag is excluded from the run fingerprint,
    // so attaching a scraper cannot change results or event logs.
    let server = match args.get("serve") {
        Some(addr) => {
            let s = http::serve(http::ServerConfig::new(addr))
                .map_err(|e| ArgError(format!("cannot serve on `{addr}`: {e}")))?;
            eprintln!("telemetry         : http://{}/metrics", s.local_addr());
            Some(s)
        }
        None => None,
    };
    let result = match args.command.as_deref() {
        Some("plan-preemptible") => plan_preemptible(&args),
        Some("plan-static") => plan_static(&args),
        Some("plan-dynamic") => plan_dynamic(&args),
        Some("simulate") => simulate(&args),
        Some("learn") => learn(&args),
        Some("obs") => obs_command(&args),
        Some("lattice") => lattice_command(&args),
        Some("serve") => serve_command(&args),
        Some("bench") => bench_command(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(ArgError(format!("unknown command `{other}`"))),
    };
    if result.is_ok() {
        match metrics_format.as_deref() {
            Some("prometheus") => eprint!("{}", resq::obs::metrics::format_prometheus()),
            Some("json") => eprintln!("{}", resq::obs::metrics::format_json()),
            Some(_) => eprint!("{}", resq::obs::metrics::format_summary()),
            None => {}
        }
    }
    if let Some(server) = server {
        server.stop();
    }
    result
}

/// The `resq obs` subcommand family: post-hoc inspection of artifacts
/// written by `--log-json` (see [`OBS_ACTIONS`]).
fn obs_command(args: &Args) -> Result<(), ArgError> {
    let usage = || {
        ArgError(format!(
            "usage: resq obs <{}> <file>...",
            OBS_ACTIONS.join("|")
        ))
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read `{path}`: {e}")))
    };
    match args.positionals.first().map(String::as_str) {
        Some("summarize") => {
            let path = args.positionals.get(1).ok_or_else(usage)?;
            let text = read(path)?;
            let summary = resq::obs::LogSummary::from_lines(text.lines());
            // A file with zero parseable event rows (empty, wholly
            // corrupt, or truncated before the first complete line) is
            // an error, not an all-zeros summary that looks plausible.
            if summary.rows == summary.malformed {
                return Err(ArgError(format!(
                    "`{path}` contains no event rows (empty, truncated, or not an events.jsonl file)"
                )));
            }
            print!("{}", summary.format());
            Ok(())
        }
        Some("serve") => obs_serve(args),
        Some("export-trace") => {
            let path = args.positionals.get(1).ok_or_else(usage)?;
            let text = read(path)?;
            let export = chrometrace::export(&text).map_err(|e| ArgError(format!("`{path}`: {e}")))?;
            match args.get("out") {
                Some(out) => {
                    resq::obs::write_atomic(std::path::Path::new(out), export.json.as_bytes())
                        .map_err(|e| ArgError(format!("cannot write `{out}`: {e}")))?;
                    eprintln!("trace written     : {out}");
                }
                None => print!("{}", export.json),
            }
            eprintln!(
                "events converted  : {} ({} run(s), {} line(s) skipped)",
                export.events, export.runs, export.skipped
            );
            Ok(())
        }
        Some("diff") => {
            let (pa, pb) = match (args.positionals.get(1), args.positionals.get(2)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(usage()),
            };
            let parse = |path: &str| {
                read(path).and_then(|text| {
                    resq::obs::json::parse(&text)
                        .map_err(|e| ArgError(format!("`{path}` is not valid JSON: {e}")))
                })
            };
            let (a, b) = (parse(pa)?, parse(pb)?);
            let diff = resq::obs::summarize::manifest_diff(&a, &b);
            print!("{}", resq::obs::summarize::format_diff(&diff));
            Ok(())
        }
        _ => Err(usage()),
    }
}

/// Incremental reader for `resq obs serve <events.jsonl>`: re-reads the
/// file from the last seen offset, applies complete lines to the global
/// [`RunRegistry`], and keeps a torn final line buffered until the
/// writer completes it.
struct LogTailer {
    path: std::path::PathBuf,
    offset: u64,
    partial: String,
    current: Option<std::sync::Arc<RunInfo>>,
    ordinal: u64,
}

impl LogTailer {
    fn new(path: std::path::PathBuf) -> Self {
        Self {
            path,
            offset: 0,
            partial: String::new(),
            current: None,
            ordinal: 0,
        }
    }

    /// Reads newly appended bytes and applies the complete lines.
    /// Transient I/O errors are skipped (the next poll retries); a
    /// shrunken file is treated as rotation and re-read from the start.
    fn poll(&mut self) {
        use std::io::{Read, Seek, SeekFrom};
        let Ok(mut file) = std::fs::File::open(&self.path) else {
            return;
        };
        let len = file.metadata().map(|m| m.len()).unwrap_or(0);
        if len < self.offset {
            self.offset = 0;
            self.partial.clear();
            self.current = None;
        }
        if len == self.offset || file.seek(SeekFrom::Start(self.offset)).is_err() {
            return;
        }
        let mut buf = String::new();
        if file.take(len - self.offset).read_to_string(&mut buf).is_err() {
            return;
        }
        self.offset = len;
        self.partial.push_str(&buf);
        while let Some(nl) = self.partial.find('\n') {
            let line: String = self.partial[..nl].trim().to_string();
            self.partial.drain(..=nl);
            if !line.is_empty() {
                self.apply(&line);
            }
        }
    }

    fn apply(&mut self, line: &str) {
        let Ok(row) = resq::obs::json::parse(line) else {
            return;
        };
        let Some(ty) = row.get("type").and_then(|v| v.as_str()) else {
            return;
        };
        match ty {
            "run-started" => {
                self.ordinal += 1;
                // Logs from before run ids existed still get a row on
                // /runs, keyed by their ordinal position in the file.
                let run_id = row
                    .get("run_id")
                    .and_then(|v| v.as_str())
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .unwrap_or(self.ordinal);
                let command = row
                    .get("command")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string();
                let seed = row.get("seed").and_then(|v| v.as_u64()).unwrap_or(0);
                let trials = row.get("trials").and_then(|v| v.as_u64()).unwrap_or(0);
                let info = RunInfo::new(run_id, command, seed, trials);
                RunRegistry::global().register(info.clone());
                self.current = Some(info);
            }
            "chunk-progress" => {
                if let (Some(run), Some(done)) =
                    (&self.current, row.get("trials_done").and_then(|v| v.as_u64()))
                {
                    run.set_progress(done);
                }
            }
            "run-finished" => {
                if let Some(run) = self.current.take() {
                    if let Some(trials) = row.get("trials").and_then(|v| v.as_u64()) {
                        run.set_progress(trials);
                    }
                    run.mark_finished();
                }
            }
            _ => {}
        }
    }
}

/// `resq obs serve [<events.jsonl>] [--addr <host:port>]`: the
/// standalone telemetry server. Serves every [`http::ENDPOINTS`] path;
/// with an events file, tails it into the run registry so `/runs`
/// reflects the log's progress live. Runs until SIGTERM/SIGINT, then
/// shuts the server down and exits 0.
fn obs_serve(args: &Args) -> Result<(), ArgError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:9779");
    let events_path = args.positionals.get(1).map(std::path::PathBuf::from);
    if let Some(path) = &events_path {
        if !path.is_file() {
            return Err(ArgError(format!(
                "cannot tail `{}`: not a readable file",
                path.display()
            )));
        }
    }
    // Signal handling is the shared `resq_obs::http` implementation —
    // one signal(2) binding for `obs serve`, `resq serve` and `--serve`.
    http::install_stop_signal_handlers();
    let server = http::serve(http::ServerConfig::new(addr))
        .map_err(|e| ArgError(format!("cannot serve on `{addr}`: {e}")))?;
    eprintln!(
        "serving           : http://{} ({})",
        server.local_addr(),
        http::ENDPOINTS.join(" ")
    );
    let mut tailer = events_path.map(|p| {
        eprintln!("tailing           : {}", p.display());
        LogTailer::new(p)
    });
    while !http::stop_requested() {
        if let Some(t) = tailer.as_mut() {
            t.poll();
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    server.stop();
    eprintln!("stopped cleanly   : signal received, accept loop joined");
    Ok(())
}

/// `resq serve`: the long-running checkpoint-decision daemon. Answers
/// `POST /decide` and `POST /decide/batch` (plus every telemetry
/// endpoint) on `--addr`, optionally the length-prefixed TCP fast path
/// on `--tcp-addr`, through a [`DecisionService`] that tries the
/// per-family policy lattices first and falls back to sharded exact
/// solves. SIGHUP hot-reloads the lattice artifacts (atomic slot swap;
/// corrupt artifacts quarantine to exact-only instead of killing the
/// daemon); `--chaos-spec` (or `RESQ_CHAOS_SPEC`) arms deterministic
/// fault injection; `--deadline-ms` bounds each decision with a typed
/// `timeout` error. Runs until SIGTERM/SIGINT, then drains in-flight
/// requests, joins every server thread and exits 0.
fn serve_command(args: &Args) -> Result<(), ArgError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:9779");
    let workers = args.u64_or("workers", 4)?.max(1) as usize;
    let shards = args.u64_or("shards", 8)?.max(1) as usize;
    let max_inflight = args.u64_or("max-inflight", 64)?.max(1) as usize;
    let deadline_ms = args.u64_or("deadline-ms", 1000)?;
    let deadline = (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms));
    let chaos_spec = args
        .get("chaos-spec")
        .map(String::from)
        .or_else(|| std::env::var("RESQ_CHAOS_SPEC").ok());
    let chaos = match &chaos_spec {
        Some(spec) => Some(Arc::new(
            resq::obs::chaos::ChaosPolicy::parse(spec)
                .map_err(|e| ArgError(format!("flag `--chaos-spec`: {e}")))?,
        )),
        None => None,
    };
    if let Some(policy) = &chaos {
        // Chaos injects real worker panics; the capture hook keeps them
        // on single greppable lines (the chaos CI tier asserts no raw
        // `panicked at` ever reaches the daemon log). Production runs
        // keep the default hook.
        resq::obs::chaos::install_panic_capture_hook();
        eprintln!("chaos             : {}", policy.describe());
    }
    let lattice_dir = args
        .get("lattice-dir")
        .map(String::from)
        .unwrap_or_else(|| std::env::var("RESQ_RESULTS_DIR").unwrap_or_else(|_| "results".into()));
    let service =
        Arc::new(DecisionService::new(Vec::new(), shards, max_inflight).with_deadline(deadline));
    for note in service.reload_from_dir(std::path::Path::new(&lattice_dir)) {
        eprintln!("lattice           : {note}");
    }
    http::install_stop_signal_handlers();
    http::install_reload_signal_handler();
    let mut cfg = http::ServerConfig::new(addr);
    cfg.workers = workers;
    cfg.queue_depth = 64;
    cfg.chaos = chaos.clone();
    let server = http::serve_with(cfg, serve::http_handler(Arc::clone(&service)))
        .map_err(|e| ArgError(format!("cannot serve on `{addr}`: {e}")))?;
    eprintln!(
        "serving           : http://{} (POST {} + {})",
        server.local_addr(),
        serve::DECIDE_ENDPOINTS.join(" "),
        http::ENDPOINTS.join(" ")
    );
    let framed = match args.get("tcp-addr") {
        Some(tcp_addr) => {
            let mut cfg = http::ServerConfig::new(tcp_addr);
            cfg.workers = workers;
            cfg.queue_depth = 64;
            cfg.chaos = chaos.clone();
            let s = http::serve_framed(cfg, serve::frame_handler(Arc::clone(&service)))
                .map_err(|e| ArgError(format!("cannot serve on `{tcp_addr}`: {e}")))?;
            eprintln!(
                "fast path         : tcp://{} (u32-LE length-prefixed JSON)",
                s.local_addr()
            );
            Some(s)
        }
        None => None,
    };
    while !http::stop_requested() {
        if http::take_reload_request() {
            // SIGHUP: swap the lattice slots atomically under live
            // traffic; requests in flight finish on the artifact they
            // already hold.
            eprintln!("reload requested  : re-reading {lattice_dir}");
            for note in service.reload_from_dir(std::path::Path::new(&lattice_dir)) {
                eprintln!("lattice           : {note}");
            }
            eprintln!("reload complete   : {} quarantined", service.quarantined_count());
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    // Graceful drain: stop() answers the requests in flight before the
    // workers join (the CI serve job asserts the zero line below).
    server.stop();
    if let Some(s) = framed {
        s.stop();
    }
    eprintln!("stopped cleanly   : signal received, servers drained");
    eprintln!("in-flight at exit : {}", service.inflight());
    Ok(())
}

/// The `resq bench` subcommand family (see [`BENCH_ACTIONS`]).
fn bench_command(args: &Args) -> Result<(), ArgError> {
    match args.positionals.first().map(String::as_str) {
        Some("serve") => bench_serve(args),
        Some("chaos") => bench_chaos(args),
        _ => Err(ArgError(format!(
            "usage: resq bench <{}> [--flags]",
            BENCH_ACTIONS.join("|")
        ))),
    }
}

/// The load harnesses' `--proto` flag (default framed, see
/// [`LOAD_PROTOS`]).
fn load_proto(args: &Args) -> Result<LoadProto, ArgError> {
    match args.get("proto") {
        None | Some("framed") => Ok(LoadProto::Framed),
        Some("http") => Ok(LoadProto::Http),
        Some(other) => Err(ArgError(format!(
            "flag `--proto` expects one of {}, got `{other}`",
            LOAD_PROTOS.join("|")
        ))),
    }
}

/// The load harnesses' workload: the 5-node exponential lattice and the
/// request body of its first served query. The query is in-grid, so the
/// load exercises the O(µs) lattice path (the fallback path is tracked
/// by perf_baseline's `solve/dynamic`) and every correct answer byte is
/// known up front. `what` names the harness in errors.
fn bench_workload(what: &str) -> Result<(PolicyLattice, String), ArgError> {
    let spec = LatticeSpec::defaults(LawFamily::Exponential).with_points(5);
    let lattice = resq::core::lattice::build(&spec)
        .map_err(|e| ArgError(format!("cannot build the {what} lattice: {e}")))?;
    let query = serve::served_queries(&lattice).next().ok_or_else(|| {
        ArgError(format!(
            "no served lattice query to drive the {what} load with"
        ))
    })?;
    let body = serve::render_request(&query, Some(10.0));
    Ok((lattice, body))
}

/// Runs `opts`' load against an in-process daemon: `lattice` behind a
/// [`DecisionService`] on a 4-worker, 64-deep server speaking
/// `opts.proto` on an ephemeral loopback port, faulted by `chaos` when
/// given. Points `opts` at that port and stops the server after the
/// load; returns the report and the admission slots still held then.
fn load_in_process(
    what: &str,
    lattice: PolicyLattice,
    opts: &mut LoadOptions,
    chaos: Option<Arc<resq::obs::chaos::ChaosPolicy>>,
) -> Result<(serve::LoadReport, usize), ArgError> {
    let admission = (opts.connections * 2).max(64);
    let service = Arc::new(DecisionService::new(vec![lattice], 8, admission));
    let mut cfg = http::ServerConfig::new("127.0.0.1:0");
    cfg.workers = 4;
    cfg.queue_depth = 64;
    cfg.chaos = chaos;
    let server = match opts.proto {
        LoadProto::Http => http::serve_with(cfg, serve::http_handler(Arc::clone(&service))),
        LoadProto::Framed => http::serve_framed(cfg, serve::frame_handler(Arc::clone(&service))),
    }
    .map_err(|e| ArgError(format!("cannot bind the in-process {what} daemon: {e}")))?;
    opts.addr = server.local_addr().to_string();
    let result = serve::run_load(opts);
    server.stop();
    Ok((result.map_err(ArgError)?, service.inflight()))
}

/// `resq bench serve`: closed-loop load harness for the decision
/// daemon. Without `--addr`, builds a small exponential lattice, stands
/// the daemon up in-process on an ephemeral loopback port, hammers it
/// and tears it down; with `--addr`, targets an already-running daemon
/// (the CI smoke load). `--min-throughput` turns the report into a gate.
fn bench_serve(args: &Args) -> Result<(), ArgError> {
    let connections = args.u64_or("connections", 8)?.max(1) as usize;
    let requests = args.u64_or("requests", 200)?.max(1) as usize;
    let batch_size = args.u64_or("batch-size", 1)?.max(1) as usize;
    let proto = load_proto(args)?;
    let min_throughput = match args.get("min-throughput") {
        Some(_) => Some(args.require_f64("min-throughput")?),
        None => None,
    };
    let (lattice, body) = bench_workload("bench")?;
    let retries = args.u64_or("retries", 0)? as usize;
    let backoff_ms = args.u64_or("backoff-ms", 5)?;
    let deadline_s = args.u64_or("deadline-s", 0)?;
    let mut opts = LoadOptions::new(String::new(), proto, body);
    opts.connections = connections;
    opts.requests = requests;
    opts.batch_size = batch_size;
    opts.max_attempts = retries + 1;
    opts.backoff_ms = backoff_ms;
    opts.deadline = (deadline_s > 0).then(|| std::time::Duration::from_secs(deadline_s));
    let before = resq::obs::metrics::Snapshot::capture();
    let report = match args.get("addr") {
        Some(addr) => {
            opts.addr = addr.to_string();
            serve::run_load(&opts).map_err(ArgError)?
        }
        None => load_in_process("bench", lattice, &mut opts, None)?.0,
    };
    let delta = resq::obs::metrics::Snapshot::capture().delta(&before);
    println!("connections       : {}", report.connections);
    println!("requests ok       : {}", report.requests);
    println!("decisions         : {}", report.decisions);
    println!("errors            : {}", report.errors);
    println!("retries           : {}", report.retries);
    println!("elapsed           : {:.3} s", report.elapsed.as_secs_f64());
    println!("throughput        : {:.0} decisions/s", report.throughput());
    println!(
        "latency           : p50 {:.1} µs, p90 {:.1} µs, p99 {:.1} µs",
        report.p50_nanos / 1e3,
        report.p90_nanos / 1e3,
        report.p99_nanos / 1e3
    );
    println!(
        "pipeline          : {} lattice hits, {} exact fallbacks, {} shed",
        delta.counter("decide_lattice_hits_total"),
        delta.counter("decide_fallbacks_total"),
        delta.counter("decide_rejected_total")
    );
    if let Some(min) = min_throughput {
        if report.throughput() < min {
            return Err(ArgError(format!(
                "throughput {:.0} decisions/s is below the --min-throughput gate {min:.0}",
                report.throughput()
            )));
        }
    }
    Ok(())
}

/// `resq bench chaos`: the closed-loop chaos tier. Stands the decision
/// daemon up with a seeded fault schedule (worker panics, torn and
/// byte-flipped responses, accept stalls, slow writers — plus
/// deliberately slow client writes), drives it with the retrying load
/// client, and gates on full recovery: every request eventually answers,
/// every successful answer is byte-identical to a clean solve, no
/// admission slot leaks, no panic escapes the worker pool. With
/// `--addr` it drives an already-running daemon (started with the same
/// `--chaos-spec`) instead of the in-process one.
fn bench_chaos(args: &Args) -> Result<(), ArgError> {
    let seed = args.u64_or("seed", 42)?;
    let connections = args.u64_or("connections", 8)?.max(1) as usize;
    let requests = args.u64_or("requests", 50)?.max(1) as usize;
    let batch_size = args.u64_or("batch-size", 1)?.max(1) as usize;
    let proto = load_proto(args)?;
    let spec = args
        .get("chaos-spec")
        .map(String::from)
        .unwrap_or_else(|| {
            format!("seed={seed},panic=0.05,torn=0.1,flip=0.1,stall=0.03,slow=0.05")
        });
    let policy = Arc::new(
        resq::obs::chaos::ChaosPolicy::parse(&spec)
            .map_err(|e| ArgError(format!("flag `--chaos-spec`: {e}")))?,
    );
    let (lattice, body) = bench_workload("chaos")?;
    // Every correct response byte, precomputed on a clean service over
    // the identical (deterministic) lattice build — this also matches an
    // external daemon started from the same artifact spec.
    let clean = DecisionService::new(vec![lattice.clone()], 2, 8);
    let expected = if batch_size > 1 {
        let batch = format!("[{}]", vec![body.as_str(); batch_size].join(","));
        clean.answer_batch(&batch)
    } else {
        clean.answer_single(&body)
    }
    .map_err(|e| ArgError(format!("reference solve failed: {}", e.message)))?;
    // Injected worker panics are expected: capture them as greppable
    // recovery lines instead of the default `panicked at` output.
    resq::obs::chaos::install_panic_capture_hook();
    let mut opts = LoadOptions::new(String::new(), proto, body);
    opts.connections = connections;
    opts.requests = requests;
    opts.batch_size = batch_size;
    // A generous retry budget is the point: the gate below asserts that
    // under a fault schedule every request *eventually* lands clean.
    opts.max_attempts = 40;
    opts.backoff_ms = 2;
    opts.deadline = Some(std::time::Duration::from_secs(120));
    opts.expect_body = Some(expected);
    opts.slow_every = 7;
    opts.seed = seed;
    let before = resq::obs::metrics::Snapshot::capture();
    eprintln!("chaos spec        : {}", policy.describe());
    let (report, leaked) = match args.get("addr") {
        Some(addr) => {
            opts.addr = addr.to_string();
            (serve::run_load(&opts).map_err(ArgError)?, None)
        }
        None => {
            let (report, inflight) =
                load_in_process("chaos", lattice, &mut opts, Some(Arc::clone(&policy)))?;
            (report, Some(inflight))
        }
    };
    let delta = resq::obs::metrics::Snapshot::capture().delta(&before);
    println!("connections       : {}", report.connections);
    println!("requests ok       : {}", report.requests);
    println!("errors            : {}", report.errors);
    println!("retries           : {}", report.retries);
    println!("corrupt detected  : {}", report.corrupt);
    println!("workers restarted : {}", delta.counter("workers_restarted_total"));
    println!("faulted conns     : {} planned", policy.connections_planned());
    if let Some(inflight) = leaked {
        println!("in-flight at exit : {inflight}");
        if inflight != 0 {
            return Err(ArgError(format!(
                "chaos run leaked {inflight} admission slot(s)"
            )));
        }
    }
    if report.errors > 0 {
        return Err(ArgError(format!(
            "chaos run failed: {} request(s) never recovered (seed {seed})",
            report.errors
        )));
    }
    let target = (connections * requests) as u64;
    if report.requests != target {
        return Err(ArgError(format!(
            "chaos run incomplete: {}/{} requests answered (seed {seed})",
            report.requests, target
        )));
    }
    println!(
        "chaos run clean   : {target} requests recovered byte-identical under seed {seed}"
    );
    Ok(())
}

/// The `resq lattice` subcommand family: precomputed policy lattices
/// (see [`LATTICE_ACTIONS`] and `docs/LATTICES.md`).
fn lattice_command(args: &Args) -> Result<(), ArgError> {
    match args.positionals.first().map(String::as_str) {
        Some("build") => lattice_build(args),
        Some("query") => lattice_query(args),
        Some("verify") => lattice_verify(args),
        _ => Err(ArgError(format!(
            "usage: resq lattice <{}> [<artifact.json>] [--flags]",
            LATTICE_ACTIONS.join("|")
        ))),
    }
}

/// `--family` flag, validated against the gridded families.
fn lattice_family(args: &Args) -> Result<Option<LawFamily>, ArgError> {
    match args.get("family") {
        None => Ok(None),
        Some(name) => LawFamily::from_name(name).map(Some).ok_or_else(|| {
            ArgError(format!(
                "unknown law family `{name}` (supported: {})",
                LATTICE_FAMILIES.join("|")
            ))
        }),
    }
}

/// Resolves the artifact path: an explicit positional operand wins;
/// otherwise `$RESQ_RESULTS_DIR/lattice_<family>.json` (the same results
/// directory the bench tools write to; default `results/`).
fn lattice_artifact_path(
    args: &Args,
    family: Option<LawFamily>,
) -> Result<std::path::PathBuf, ArgError> {
    if let Some(p) = args.positionals.get(1) {
        return Ok(std::path::PathBuf::from(p));
    }
    let family = family.ok_or_else(|| {
        ArgError("give an artifact path or --family to derive the default one".to_string())
    })?;
    let dir = std::env::var("RESQ_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    Ok(std::path::PathBuf::from(dir).join(family.artifact_file_name()))
}

/// Parses `--task` into lattice shape parameters — the shared
/// [`serve::task_params`] implementation (same parser the decision
/// daemon runs on its `"task"` wire field), with the flag named in the
/// error.
fn lattice_task_params(raw: &str) -> Result<TaskParams, ArgError> {
    serve::task_params(raw).map_err(|e| ArgError(format!("`--task` {}", e.0)))
}

fn lattice_build(args: &Args) -> Result<(), ArgError> {
    let family = lattice_family(args)?
        .ok_or_else(|| ArgError("missing required flag `--family`".to_string()))?;
    let mut spec = LatticeSpec::defaults(family);
    if let Some(points) = args.get("points") {
        let points: usize = points
            .parse()
            .map_err(|_| ArgError(format!("flag `--points` expects an integer, got `{points}`")))?;
        spec = spec.with_points(points);
    }
    spec.ckpt_sigma_ratio = args.f64_or("ckpt-sigma-ratio", spec.ckpt_sigma_ratio)?;
    spec.tolerance = args.f64_or("tolerance", spec.tolerance)?;
    let path = lattice_artifact_path(args, Some(family))?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| ArgError(format!("cannot create `{}`: {e}", dir.display())))?;
        }
    }
    let obs = Obs::from_args("lattice build", args)?;
    obs.emit(
        Event::new(event_type::RUN_STARTED)
            .str("command", "lattice build")
            .str("family", family.name())
            .f64("ckpt_sigma_ratio", spec.ckpt_sigma_ratio)
            .f64("tolerance", spec.tolerance),
    );
    let start = Instant::now();
    let lattice = resq::core::lattice::build(&spec).map_err(|e| ArgError(e.to_string()))?;
    let sidecar = lattice
        .save(&path)
        .map_err(|e| ArgError(format!("cannot write `{}`: {e}", path.display())))?;
    println!("family        : {}", family.name());
    for a in lattice.axes() {
        println!("  axis {:<10} : [{}, {}] x{} nodes (per unit R)", a.name, a.lo, a.hi, a.points);
    }
    println!("grid nodes    : {} (exact solves)", lattice.node_count());
    let (ok, cells) = lattice.cell_coverage();
    println!("serveable     : {ok}/{cells} cells passed calibration (rest fall back exact)");
    println!("tolerance     : {}", lattice.tolerance());
    println!("fingerprint   : {}", lattice.fingerprint());
    println!("artifact      : {}", path.display());
    println!("manifest      : {}", sidecar.display());
    println!("build time    : {:.2} s", start.elapsed().as_secs_f64());
    obs.emit(
        Event::new(event_type::RUN_FINISHED)
            .u64("nodes", lattice.node_count() as u64)
            .str("fingerprint", lattice.fingerprint()),
    );
    obs.finish(
        RunManifest::new("resq lattice build")
            .config("family", family.name())
            .config("artifact", path.display())
            .config("fingerprint", lattice.fingerprint()),
    )
}

fn lattice_query(args: &Args) -> Result<(), ArgError> {
    let task = lattice_task_params(args.require("task")?)?;
    let r = args.require_f64("reservation")?;
    let ckpt_mean = args.require_f64("ckpt-mean")?;
    let path = lattice_artifact_path(args, Some(task.family()))?;
    let lattice = PolicyLattice::load(&path).map_err(|e| ArgError(e.to_string()))?;
    let ckpt_sigma = args.f64_or("ckpt-sigma", lattice.ckpt_sigma_ratio() * ckpt_mean)?;
    let q = PolicyQuery {
        task,
        ckpt_mean,
        ckpt_sigma,
        r,
    };
    let obs = Obs::from_args("lattice query", args)?;
    obs.emit(
        Event::new(event_type::RUN_STARTED)
            .str("command", "lattice query")
            .str("task", args.require("task")?)
            .f64("ckpt_mean", ckpt_mean)
            .f64("ckpt_sigma", ckpt_sigma)
            .f64("reservation", r),
    );
    let mut cache = SolveCache::new();
    let t0 = Instant::now();
    let a = lattice.query(&q, &mut cache).map_err(|e| ArgError(e.to_string()))?;
    let micros = t0.elapsed().as_secs_f64() * 1e6;
    println!(
        "artifact          : {} (fingerprint {})",
        path.display(),
        lattice.fingerprint()
    );
    println!(
        "source            : {}",
        match a.source {
            AnswerSource::Lattice => "lattice (interpolated, error check passed)",
            AnswerSource::Exact => "exact solver (out-of-grid, or error check fell back)",
        }
    );
    println!("lead time X_opt   : {:.4} s before the end (preemptible, paper §3)", a.x_opt);
    println!("n_opt             : checkpoint after {} tasks (static, paper §4.2)", a.n_opt);
    println!("E[saved work]     : {:.4}", a.expected_work);
    match a.w_int {
        Some(w) => println!("threshold W_int   : {w:.4} (dynamic, paper §4.3)"),
        None => println!("threshold W_int   : none (reservation too short for a checkpoint to plausibly fit)"),
    }
    println!("answer time       : {micros:.1} µs");
    obs.emit(
        Event::new(event_type::RUN_FINISHED)
            .str(
                "source",
                match a.source {
                    AnswerSource::Lattice => "lattice",
                    AnswerSource::Exact => "exact",
                },
            )
            .f64("x_opt", a.x_opt)
            .u64("n_opt", a.n_opt)
            .f64("expected_work", a.expected_work)
            .f64("w_int", a.w_int.unwrap_or(-1.0)),
    );
    obs.finish(
        RunManifest::new("resq lattice query")
            .config("artifact", path.display())
            .config("fingerprint", lattice.fingerprint())
            .config("task", args.require("task")?)
            .config("ckpt_mean", ckpt_mean)
            .config("reservation", r),
    )
}

fn lattice_verify(args: &Args) -> Result<(), ArgError> {
    let path = lattice_artifact_path(args, lattice_family(args)?)?;
    let lattice = PolicyLattice::load(&path).map_err(|e| ArgError(e.to_string()))?;
    let samples = args.u64_or("samples", 100)?;
    let seed = args.u64_or("seed", 42)?;
    let tolerance = args.f64_or("tolerance", lattice.tolerance())?;
    let obs = Obs::from_args("lattice verify", args)?;
    obs.emit(
        Event::new(event_type::RUN_STARTED)
            .str("command", "lattice verify")
            .str("fingerprint", lattice.fingerprint())
            .u64("samples", samples)
            .u64("seed", seed)
            .f64("tolerance", tolerance),
    );
    let mut rng = Xoshiro256pp::for_stream(seed, 0);
    let unit = Uniform::new(0.0, 1.0).expect("unit uniform");
    let axes = lattice.axes();
    let mut cache = SolveCache::new();
    let (mut served, mut fell_back, mut plateau_off_by_one, mut failures) = (0u64, 0u64, 0u64, 0u64);
    let mut max_rel: f64 = 0.0;
    for i in 0..samples {
        // Random in-grid point, random reservation scale: the exact
        // solver sees the *denormalized* query, so this also exercises
        // the normalization round trip.
        let coords: Vec<f64> = axes
            .iter()
            .map(|a| a.lo + unit.sample(&mut rng) * (a.hi - a.lo))
            .collect();
        let r = 1.0 + 99.0 * unit.sample(&mut rng);
        let q = lattice.query_for_coords(&coords, r);
        let got = lattice.query(&q, &mut cache).map_err(|e| ArgError(e.to_string()))?;
        if got.source == AnswerSource::Exact {
            // The discipline chose the exact path: correct by definition.
            fell_back += 1;
            continue;
        }
        served += 1;
        let want = resq::core::lattice::solve_exact(&q, &mut cache)
            .map_err(|e| ArgError(e.to_string()))?;
        let floor = resq::core::lattice::REL_FLOOR * r;
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(floor);
        let mut worst = rel(got.x_opt, want.x_opt).max(rel(got.expected_work, want.expected_work));
        let mut bad = false;
        match (got.w_int, want.w_int) {
            (Some(a), Some(b)) => worst = worst.max(rel(a, b)),
            (None, None) => {}
            _ => bad = true,
        }
        // E(n) is flat near its integer optimum, so a served lookup may
        // sit one plateau step off the exact argmax; more is a failure.
        match (got.n_opt as i64 - want.n_opt as i64).abs() {
            0 => {}
            1 => plateau_off_by_one += 1,
            _ => bad = true,
        }
        max_rel = max_rel.max(worst);
        if worst > tolerance || bad {
            failures += 1;
            eprintln!(
                "sample {i}: rel err {worst:.4} > {tolerance} (or structural mismatch) at {q:?}"
            );
        }
    }
    println!("artifact          : {} (fingerprint {})", path.display(), lattice.fingerprint());
    println!("samples           : {samples} random in-grid points (seed {seed})");
    println!("served by lattice : {served}");
    println!("exact fallbacks   : {fell_back} (discipline engaged, answers exact)");
    println!("max rel error     : {max_rel:.5} (tolerance {tolerance})");
    println!("n_opt off-by-one  : {plateau_off_by_one} (plateau boundary, E(n) agrees within tolerance)");
    obs.emit(
        Event::new(event_type::RUN_FINISHED)
            .u64("served", served)
            .u64("fallbacks", fell_back)
            .u64("failures", failures)
            .f64("max_rel_error", max_rel),
    );
    obs.finish(
        RunManifest::new("resq lattice verify")
            .config("artifact", path.display())
            .config("fingerprint", lattice.fingerprint())
            .config("samples", samples)
            .config("tolerance", tolerance)
            .seed(seed),
    )?;
    if failures > 0 {
        return Err(ArgError(format!(
            "lattice verify FAILED: {failures} of {samples} lookups exceeded the bound"
        )));
    }
    Ok(())
}

/// Per-command observability bundle: the event sink (JSONL when
/// `--log-json` is given, null otherwise) wrapped in a [`TracedSink`]
/// that stamps the run's trace context onto every row, plus everything
/// needed to write the provenance manifest sidecar at the end.
struct Obs {
    sink: TracedSink<Box<dyn RunSink>>,
    command: String,
    log_path: Option<std::path::PathBuf>,
    start: Instant,
}

impl Obs {
    /// Flags outside the determinism contract. They must not enter the
    /// run fingerprint: re-running the same semantic configuration with
    /// a different thread count, exposition switch or output path must
    /// keep the event log byte-identical — `run_id` fields included.
    const NON_SEMANTIC_FLAGS: &'static [&'static str] = &[
        "threads",
        "progress",
        "metrics",
        "metrics-format",
        "log-json",
        "serve",
        "addr",
        "out",
    ];

    fn from_args(command: &str, args: &Args) -> Result<Self, ArgError> {
        let (sink, log_path): (Box<dyn RunSink>, _) = match args.get("log-json") {
            Some(path) => {
                let sink = JsonlSink::create(path)
                    .map_err(|e| ArgError(format!("cannot create log `{path}`: {e}")))?;
                (Box::new(sink), Some(std::path::PathBuf::from(path)))
            }
            None => (Box::new(NullSink), None),
        };
        // Flag keys come out of a BTreeMap, so the pair order (and with
        // it the fingerprint) is stable across invocations.
        let pairs: Vec<(&str, &str)> = args
            .keys()
            .filter(|k| !Self::NON_SEMANTIC_FLAGS.contains(k))
            .map(|k| (k, args.get(k).unwrap_or("")))
            .collect();
        let ctx = TraceCtx::derive(command, pairs.into_iter());
        Ok(Self {
            sink: TracedSink::new(sink, ctx),
            command: command.to_string(),
            log_path,
            start: Instant::now(),
        })
    }

    fn ctx(&self) -> &TraceCtx {
        self.sink.ctx()
    }

    fn emit(&self, event: Event) {
        self.sink.emit(event);
    }

    /// Registers the run in the global [`RunRegistry`] (the `/runs`
    /// endpoint) and installs it as the thread's current run so the
    /// Monte-Carlo workers publish live progress to it. The returned
    /// guard marks the run finished on drop — hold it across the main
    /// trial pass only, so replay passes don't inflate the counter.
    fn enter_run(&self, seed: u64, trials: u64) -> tracectx::RunGuard {
        let info = RunInfo::with_spans(
            self.ctx().run_id,
            self.command.clone(),
            seed,
            trials,
            span::current(),
        );
        RunRegistry::global().register(info.clone());
        tracectx::enter_run(info)
    }

    /// Flushes the event log and, when logging, writes the manifest
    /// sidecar (`run.jsonl` → `run.manifest.json`) stamped with the
    /// elapsed wall time and the run's trace fingerprint.
    fn finish(&self, manifest: RunManifest) -> Result<(), ArgError> {
        self.sink.flush();
        if let Some(path) = &self.log_path {
            let sidecar = manifest
                .config("run_id", self.ctx().run_id_hex())
                .wall_time_secs(self.start.elapsed().as_secs_f64())
                .write_for(path)
                .map_err(|e| ArgError(format!("cannot write manifest: {e}")))?;
            eprintln!("manifest written  : {}", sidecar.display());
        }
        Ok(())
    }
}

fn continuous(args: &Args, key: &str) -> Result<DynLaw, ArgError> {
    match parse_law(args.require(key)?)? {
        LawSpec::Continuous(law) => Ok(law),
        LawSpec::Poisson(_) => Err(ArgError(format!(
            "`--{key}` must be a continuous law (poisson is discrete)"
        ))),
    }
}

fn plan_preemptible(args: &Args) -> Result<(), ArgError> {
    let ckpt = continuous(args, "ckpt")?;
    let ckpt_raw = args.require("ckpt")?.to_string();
    let r = args.require_f64("reservation")?;
    let min_success = args.f64_or("min-success", 0.0)?;
    let obs = Obs::from_args("plan-preemptible", args)?;
    obs.emit(
        Event::new(event_type::RUN_STARTED)
            .str("command", "plan-preemptible")
            .str("ckpt", ckpt_raw.as_str())
            .f64("reservation", r)
            .f64("min_success", min_success),
    );
    let model = Preemptible::new(ckpt, r).map_err(|e| ArgError(e.to_string()))?;
    let plan = model
        .optimize_with_min_success(min_success)
        .map_err(|e| ArgError(e.to_string()))?;
    let pess = model.pessimistic();
    println!("reservation R         : {r}");
    println!("checkpoint support    : [{:.4}, {:.4}]", model.checkpoint_bounds().0, model.checkpoint_bounds().1);
    println!("optimal lead time X   : {:.4} s before the end", plan.lead_time);
    println!("  expected saved work : {:.4}", plan.expected_work);
    println!("  success probability : {:.4}", plan.success_probability);
    println!("pessimistic (X = b)   : saves {:.4} (always succeeds)", pess.expected_work);
    println!(
        "gain over pessimistic : {:+.2}%",
        100.0 * (plan.expected_work / pess.expected_work - 1.0)
    );
    println!("oracle upper bound    : {:.4}", model.oracle_expected_work());
    if min_success > 0.0 {
        println!("success-probability floor honoured: {min_success}");
    }
    obs.emit(
        Event::new(event_type::RUN_FINISHED)
            .f64("lead_time", plan.lead_time)
            .f64("expected_work", plan.expected_work)
            .f64("success_probability", plan.success_probability),
    );
    obs.finish(
        RunManifest::new("resq plan-preemptible")
            .config("ckpt", ckpt_raw)
            .config("reservation", r)
            .config("min_success", min_success),
    )
}

fn plan_static(args: &Args) -> Result<(), ArgError> {
    let r = args.require_f64("reservation")?;
    let ckpt = continuous(args, "ckpt")?;
    let task_raw = args.require("task")?;
    let obs = Obs::from_args("plan-static", args)?;
    obs.emit(
        Event::new(event_type::RUN_STARTED)
            .str("command", "plan-static")
            .str("task", task_raw)
            .str("ckpt", args.require("ckpt")?)
            .f64("reservation", r),
    );
    let plan = match parse_law(task_raw)? {
        LawSpec::Poisson(p) => StaticStrategy::new(p, ckpt, r)
            .map_err(|e| ArgError(e.to_string()))?
            .optimize()
            .map_err(|e| ArgError(e.to_string()))?,
        LawSpec::Continuous(task) => {
            // Exact family strategies exist for plain Normal/Gamma; the
            // convolution planner covers everything uniformly here.
            ConvolutionStatic::new(&task, ckpt, r, 1024)
                .map_err(|e| ArgError(e.to_string()))?
                .optimize()
        }
    };
    println!("reservation R  : {r}");
    println!("n_opt          : checkpoint after {} tasks", plan.n_opt);
    println!("E[saved work]  : {:.4}", plan.expected_work);
    obs.emit(
        Event::new(event_type::RUN_FINISHED)
            .u64("n_opt", plan.n_opt)
            .f64("expected_work", plan.expected_work),
    );
    obs.finish(
        RunManifest::new("resq plan-static")
            .config("task", task_raw)
            .config("ckpt", args.require("ckpt")?)
            .config("reservation", r),
    )
}

fn plan_dynamic(args: &Args) -> Result<(), ArgError> {
    let r = args.require_f64("reservation")?;
    let ckpt = continuous(args, "ckpt")?;
    let task = continuous(args, "task")?;
    let obs = Obs::from_args("plan-dynamic", args)?;
    obs.emit(
        Event::new(event_type::RUN_STARTED)
            .str("command", "plan-dynamic")
            .str("task", args.require("task")?)
            .str("ckpt", args.require("ckpt")?)
            .f64("reservation", r),
    );
    let task_mean = task.mean();
    let d = DynamicStrategy::new(task, ckpt, r).map_err(|e| ArgError(e.to_string()))?;
    match d.threshold().map_err(|e| ArgError(e.to_string()))? {
        Some(w) => {
            println!("reservation R     : {r}");
            println!("task mean         : {task_mean:.4}");
            println!("threshold W_int   : {w:.4}");
            println!("rule              : checkpoint at the first task boundary with work >= W_int");
            println!("E[W_C](W_int)     : {:.4}", d.expect_checkpoint_now(w));
            obs.emit(
                Event::new(event_type::RUN_FINISHED)
                    .bool("has_threshold", true)
                    .f64("threshold", w),
            );
        }
        None => {
            println!("no useful threshold: the reservation is too short for a checkpoint to plausibly fit");
            obs.emit(Event::new(event_type::RUN_FINISHED).bool("has_threshold", false));
        }
    }
    obs.finish(
        RunManifest::new("resq plan-dynamic")
            .config("task", args.require("task")?)
            .config("ckpt", args.require("ckpt")?)
            .config("reservation", r),
    )
}

/// The trial kernel `resq simulate` runs: the plain §4 simulator, or the
/// fault-injected one when any fault flag is given.
enum SimKernel {
    Plain(WorkflowSim<DynLaw, DynLaw>),
    Faulty(FaultyWorkflowSim<DynLaw, DynLaw>),
}

impl SimKernel {
    /// One trial on `rng`, batched through `scratch`. Plain outcomes
    /// carry no retry telemetry.
    fn run(
        &self,
        policy: &ThresholdWorkflowPolicy,
        rng: &mut Xoshiro256pp,
        scratch: &mut BatchScratch,
    ) -> FaultyOutcome {
        match self {
            Self::Plain(sim) => FaultyOutcome {
                outcome: sim.run_once_batched(policy, rng, scratch),
                ..FaultyOutcome::default()
            },
            Self::Faulty(sim) => sim.run_once_batched(policy, rng, scratch),
        }
    }
}

/// `resq simulate`: Monte-Carlo runs of the dynamic threshold rule.
///
/// Any fault-injection flag — unreliable checkpoint writes
/// (`--ckpt-fail-prob`), a retry policy (`--retry`) or fail-stop errors
/// (`--failstop-rate`) — switches to the fault-injected kernel, which
/// adds `retry-outcome` rows for sampled trials and echoes the
/// `ckpt_attempts_total` / `ckpt_failures_total` counter deltas in the
/// manifest. Without them the plain kernel runs, and its event logs stay
/// byte-identical to previous releases.
fn simulate(args: &Args) -> Result<(), ArgError> {
    let q = args.f64_or("ckpt-fail-prob", 0.0)?;
    let failstop_rate = args.f64_or("failstop-rate", 0.0)?;
    let faulty = q != 0.0 || failstop_rate != 0.0 || args.get("retry").is_some();
    let r = args.require_f64("reservation")?;
    let ckpt = continuous(args, "ckpt")?;
    let task = continuous(args, "task")?;
    let threshold = args.require_f64("threshold")?;
    let trials = args.u64_or("trials", 100_000)?;
    let seed = args.u64_or("seed", 42)?;
    let threads = args.u64_or("threads", 0)? as usize;
    let sample_every = args.u64_or("sample-every", 10_000)?;
    let progress = args.bool_flag("progress");
    if trials == 0 {
        return Err(ArgError("flag `--trials` must be at least 1".into()));
    }
    if !(0.0..1.0).contains(&q) {
        return Err(ArgError(format!(
            "flag `--ckpt-fail-prob` must be in [0, 1), got {q}"
        )));
    }
    let retry_raw = args.get("retry").unwrap_or("immediate:3");
    let retry = parse_retry(retry_raw)?;
    let reliability = if q > 0.0 {
        CheckpointReliability::PerAttempt { p: 1.0 - q }
    } else {
        CheckpointReliability::Reliable
    };
    let injector =
        ReliabilityInjector::new(reliability, failstop_rate).map_err(|e| ArgError(e.to_string()))?;
    // The planner's own checks: a trial only ends once the reservation
    // expires or the policy checkpoints, so a non-finite reservation or a
    // task law that never advances the clock would run forever.
    DynamicStrategy::validate(&task, &ckpt, r).map_err(|e| ArgError(e.to_string()))?;
    // A NaN threshold compares false against every work level, so the
    // policy would never checkpoint.
    if threshold.is_nan() {
        return Err(ArgError(
            "flag `--threshold` must be a number, got NaN".into(),
        ));
    }
    let obs = Obs::from_args("simulate", args)?;
    // Config echo. Deliberately NO thread count here: the event log is
    // byte-identical for a fixed seed regardless of --threads (threads
    // and wall time are provenance and live in the manifest).
    let mut started = Event::new(event_type::RUN_STARTED)
        .str("command", "simulate")
        .str("task", args.require("task")?)
        .str("ckpt", args.require("ckpt")?)
        .f64("reservation", r)
        .f64("threshold", threshold)
        .u64("trials", trials)
        .u64("seed", seed)
        .u64("sample_every", sample_every);
    if faulty {
        started = started
            .f64("ckpt_fail_prob", q)
            .str("retry", retry_raw)
            .f64("failstop_rate", failstop_rate);
    }
    obs.emit(started);
    let kernel = if faulty {
        SimKernel::Faulty(FaultyWorkflowSim {
            reservation: r,
            task,
            ckpt,
            injector,
            retry,
        })
    } else {
        SimKernel::Plain(WorkflowSim {
            reservation: r,
            task,
            ckpt,
        })
    };
    let policy = ThresholdWorkflowPolicy { threshold };
    let cfg = MonteCarloConfig {
        trials,
        seed,
        threads,
    };
    let tick = (trials / 20).max(1);
    let done = AtomicU64::new(0);
    let note_progress = || {
        if progress {
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            if d % tick == 0 {
                eprintln!("progress          : {d}/{trials} trials");
            }
        }
    };
    // Counter deltas for the main pass only (the replay pass below
    // re-runs sampled trials and would double-count).
    let attempts_before = resq::obs::metrics::CKPT_ATTEMPTS_TOTAL.get();
    let failures_before = resq::obs::metrics::CKPT_FAILURES_TOTAL.get();
    // Live-run registration: `/runs` reports this run's progress while
    // the main pass executes. The guard is dropped (marking the run
    // finished) before the replay pass below, so re-running sampled
    // trial streams does not inflate the progress counter.
    let run_guard = obs.enter_run(seed, trials);
    // Successes and fail-stop kills are counted in the same pass: each
    // worker tallies locally and flushes once, when it finishes, and
    // integer sums do not depend on how chunks were spread over workers.
    let successes = Counter::new("simulate_successes", "trials whose checkpoint succeeded");
    let kills = Counter::new("simulate_kills", "trials killed by a fail-stop error");
    let saved = run_trials_batched(
        cfg,
        &obs.sink,
        sample_every,
        || (BatchScratch::new(), successes.tally(), kills.tally()),
        |_, rng, (scratch, succeeded, killed)| {
            note_progress();
            let o = kernel.run(&policy, rng, scratch);
            succeeded.add(u64::from(o.outcome.checkpoint_succeeded));
            killed.add(u64::from(o.killed_by_failstop));
            o.outcome.work_saved
        },
    );
    drop(run_guard);
    let ckpt_attempts = resq::obs::metrics::CKPT_ATTEMPTS_TOTAL.get() - attempts_before;
    let ckpt_failures = resq::obs::metrics::CKPT_FAILURES_TOTAL.get() - failures_before;
    let success = successes.get() as f64 / trials as f64;
    let killed = kills.get() as f64 / trials as f64;
    // Policy decisions (and retry telemetry) for the sampled trials,
    // re-derived serially in index order so the log stays deterministic.
    if obs.sink.enabled() && sample_every > 0 {
        let mut scratch = BatchScratch::new();
        let mut i = 0;
        while i < trials {
            let mut rng = Xoshiro256pp::for_stream(seed, i);
            let o = kernel.run(&policy, &mut rng, &mut scratch);
            obs.emit(
                Event::new(event_type::CHECKPOINT_DECISION)
                    .u64("trial", i)
                    .f64("threshold", threshold)
                    .f64("work_at_checkpoint", o.outcome.work_at_checkpoint)
                    .u64("tasks_completed", o.outcome.tasks_completed)
                    .bool("attempted", o.outcome.checkpoint_attempted)
                    .bool("succeeded", o.outcome.checkpoint_succeeded),
            );
            if faulty {
                obs.emit(o.retry_event(i));
            }
            i += sample_every;
        }
    }
    let (lo, hi) = saved.ci95();
    let mut finished = Event::new(event_type::RUN_FINISHED)
        .u64("trials", saved.n)
        .f64("mean_saved_work", saved.mean)
        .f64("std_error", saved.std_error)
        .f64("ci95_lo", lo)
        .f64("ci95_hi", hi)
        .f64("success_rate", success);
    if faulty {
        finished = finished
            .f64("failstop_rate_observed", killed)
            .u64("ckpt_attempts", ckpt_attempts)
            .u64("ckpt_failures", ckpt_failures);
    }
    obs.emit(
        finished
            .f64("min_saved", saved.min)
            .f64("max_saved", saved.max),
    );
    println!("trials            : {trials} (seed {seed})");
    if faulty {
        println!(
            "fault model       : write fails w.p. {q}, retry {retry_raw}, fail-stop rate {failstop_rate}"
        );
    }
    println!("mean saved work   : {:.4}  (95% CI [{lo:.4}, {hi:.4}])", saved.mean);
    println!("success rate      : {success:.4}");
    if faulty {
        println!("killed by failstop: {killed:.4}");
        println!("ckpt attempts     : {ckpt_attempts} total, {ckpt_failures} failed");
    }
    println!("min / max saved   : {:.4} / {:.4}", saved.min, saved.max);
    let resolved_threads = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    };
    let mut manifest = RunManifest::new("resq simulate")
        .config("task", args.require("task")?)
        .config("ckpt", args.require("ckpt")?)
        .config("reservation", r)
        .config("threshold", threshold)
        .config("sample_every", sample_every);
    if faulty {
        manifest = manifest
            .config("ckpt_fail_prob", q)
            .config("retry", retry_raw)
            .config("failstop_rate", failstop_rate)
            .config("ckpt_attempts_total", ckpt_attempts)
            .config("ckpt_failures_total", ckpt_failures);
    }
    obs.finish(
        manifest
            .seed(seed)
            .threads(resolved_threads)
            .trials(trials),
    )
}

fn learn(args: &Args) -> Result<(), ArgError> {
    let r = args.require_f64("reservation")?;
    let path = args.require("trace")?;
    let obs = Obs::from_args("learn", args)?;
    obs.emit(
        Event::new(event_type::RUN_STARTED)
            .str("command", "learn")
            .str("trace", path)
            .f64("reservation", r),
    );
    let log = resq::traces::TraceLog::load(std::path::Path::new(path))
        .map_err(|e| ArgError(format!("cannot read trace `{path}`: {e}")))?;
    let durations = log.completed_durations();
    let learned = resq::traces::learn_checkpoint_law(
        &durations,
        resq::traces::learn::LearnConfig::default(),
    )
    .map_err(|e| ArgError(e.to_string()))?;
    let (plan, pess) = learned.plan(r).map_err(|e| ArgError(e.to_string()))?;
    println!("trace             : {} completed checkpoints", learned.observations);
    println!("fitted family     : {:?}", learned.model.family());
    println!("  mean / sd       : {:.4} / {:.4}", learned.model.mean(), learned.model.variance().sqrt());
    println!("  KS statistic    : {:.4} (p = {:.3e})", learned.ks_statistic, learned.ks_p_value);
    println!("support [a, b]    : [{:.4}, {:.4}]", learned.support.0, learned.support.1);
    println!("optimal lead time : {:.4} s before the end", plan.lead_time);
    println!("  E[saved work]   : {:.4}", plan.expected_work);
    println!("pessimistic plan  : lead {:.4}, saves {:.4}", pess.lead_time, pess.expected_work);
    obs.emit(
        Event::new(event_type::RUN_FINISHED)
            .u64("observations", learned.observations as u64)
            .str("family", format!("{:?}", learned.model.family()))
            .f64("ks_statistic", learned.ks_statistic)
            .f64("lead_time", plan.lead_time)
            .f64("expected_work", plan.expected_work),
    );
    obs.finish(
        RunManifest::new("resq learn")
            .config("trace", path)
            .config("reservation", r),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<(), ArgError> {
        run(tokens.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run_tokens(&["help"]).is_ok());
        assert!(run_tokens(&[]).is_ok());
        assert!(run_tokens(&["frobnicate"]).is_err());
    }

    #[test]
    fn plan_preemptible_happy_path() {
        assert!(run_tokens(&[
            "plan-preemptible",
            "--ckpt",
            "uniform:1,7.5",
            "--reservation",
            "10"
        ])
        .is_ok());
    }

    #[test]
    fn plan_preemptible_with_slo_floor() {
        assert!(run_tokens(&[
            "plan-preemptible",
            "--ckpt",
            "uniform:1,7.5",
            "--reservation",
            "10",
            "--min-success",
            "0.9"
        ])
        .is_ok());
        assert!(run_tokens(&[
            "plan-preemptible",
            "--ckpt",
            "uniform:1,7.5",
            "--reservation",
            "10",
            "--min-success",
            "1.5"
        ])
        .is_err());
    }

    #[test]
    fn plan_preemptible_rejects_unbounded_law() {
        assert!(run_tokens(&[
            "plan-preemptible",
            "--ckpt",
            "normal:5,0.4",
            "--reservation",
            "10"
        ])
        .is_err());
    }

    #[test]
    fn plan_static_poisson_and_continuous() {
        assert!(run_tokens(&[
            "plan-static",
            "--task",
            "poisson:3",
            "--ckpt",
            "normal:5,0.4@0,",
            "--reservation",
            "29"
        ])
        .is_ok());
        assert!(run_tokens(&[
            "plan-static",
            "--task",
            "gamma:1,0.5",
            "--ckpt",
            "normal:2,0.4@0,",
            "--reservation",
            "10"
        ])
        .is_ok());
    }

    #[test]
    fn plan_dynamic_happy_path() {
        assert!(run_tokens(&[
            "plan-dynamic",
            "--task",
            "normal:3,0.5@0,",
            "--ckpt",
            "normal:5,0.4@0,",
            "--reservation",
            "29"
        ])
        .is_ok());
    }

    #[test]
    fn simulate_happy_path() {
        assert!(run_tokens(&[
            "simulate",
            "--task",
            "normal:3,0.5@0,",
            "--ckpt",
            "normal:5,0.4@0,",
            "--reservation",
            "29",
            "--threshold",
            "20.3",
            "--trials",
            "2000"
        ])
        .is_ok());
    }

    #[test]
    fn simulate_requires_threshold() {
        assert!(run_tokens(&[
            "simulate",
            "--task",
            "normal:3,0.5@0,",
            "--ckpt",
            "normal:5,0.4@0,",
            "--reservation",
            "29"
        ])
        .is_err());
    }

    #[test]
    fn simulate_with_observability_writes_log_and_manifest() {
        let dir = std::env::temp_dir().join("resq-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("run.jsonl");
        assert!(run_tokens(&[
            "simulate",
            "--task",
            "normal:3,0.5@0,",
            "--ckpt",
            "normal:5,0.4@0,",
            "--reservation",
            "29",
            "--threshold",
            "20.3",
            "--trials",
            "5000",
            "--sample-every",
            "1000",
            "--metrics",
            "--log-json",
            log.to_str().unwrap(),
        ])
        .is_ok());
        let text = std::fs::read_to_string(&log).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.first().unwrap().contains("run-started"));
        assert!(lines.last().unwrap().contains("run-finished"));
        assert!(text.contains("chunk-progress"));
        assert!(text.contains("trial-sample"));
        assert!(text.contains("checkpoint-decision"));
        for line in &lines {
            resq::obs::json::parse(line).expect("every log line parses as JSON");
        }
        let manifest_path = dir.join("run.manifest.json");
        let manifest = std::fs::read_to_string(&manifest_path).unwrap();
        let m = resq::obs::json::parse(&manifest).unwrap();
        assert_eq!(m.get("tool").unwrap().as_str(), Some("resq simulate"));
        assert!(m.get("wall_time_secs").unwrap().as_f64().unwrap() >= 0.0);
        std::fs::remove_file(&log).ok();
        std::fs::remove_file(&manifest_path).ok();
    }

    #[test]
    fn simulate_event_log_is_thread_count_invariant() {
        let dir = std::env::temp_dir().join("resq-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let capture = |threads: &str, name: &str| {
            let log = dir.join(name);
            run_tokens(&[
                "simulate",
                "--task",
                "normal:3,0.5@0,",
                "--ckpt",
                "normal:5,0.4@0,",
                "--reservation",
                "29",
                "--threshold",
                "20.3",
                "--trials",
                "9000",
                "--seed",
                "5",
                "--sample-every",
                "2000",
                "--threads",
                threads,
                "--log-json",
                log.to_str().unwrap(),
            ])
            .unwrap();
            let text = std::fs::read_to_string(&log).unwrap();
            std::fs::remove_file(&log).ok();
            std::fs::remove_file(dir.join(name.replace(".jsonl", ".manifest.json"))).ok();
            text
        };
        let one = capture("1", "t1.jsonl");
        let four = capture("4", "t4.jsonl");
        assert_eq!(one, four, "event log must not depend on --threads");
    }

    #[test]
    fn plan_commands_accept_log_json() {
        let dir = std::env::temp_dir().join("resq-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("plan.jsonl");
        assert!(run_tokens(&[
            "plan-preemptible",
            "--ckpt",
            "uniform:1,7.5",
            "--reservation",
            "10",
            "--log-json",
            log.to_str().unwrap(),
        ])
        .is_ok());
        let text = std::fs::read_to_string(&log).unwrap();
        assert!(text.starts_with("{\"type\":\"run-started\""));
        assert!(text.lines().last().unwrap().contains("run-finished"));
        std::fs::remove_file(&log).ok();
        std::fs::remove_file(dir.join("plan.manifest.json")).ok();
    }

    #[test]
    fn learn_round_trip_via_tempfile() {
        use resq::dist::{Normal, Truncated};
        use resq::traces::SyntheticTrace;
        let dir = std::env::temp_dir().join("resq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let truth = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        SyntheticTrace::clean(truth)
            .generate(2000, 3)
            .save(&path)
            .unwrap();
        assert!(run_tokens(&[
            "learn",
            "--trace",
            path.to_str().unwrap(),
            "--reservation",
            "30"
        ])
        .is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn learn_missing_file_is_clean_error() {
        let e = run_tokens(&["learn", "--trace", "/nonexistent.jsonl", "--reservation", "30"]);
        assert!(e.is_err());
    }

    #[test]
    fn metrics_format_is_validated_before_the_run() {
        // Invalid format fails fast, even though the run itself would work.
        assert!(run_tokens(&[
            "plan-preemptible",
            "--ckpt",
            "uniform:1,7.5",
            "--reservation",
            "10",
            "--metrics-format",
            "xml"
        ])
        .is_err());
        for fmt in METRICS_FORMATS {
            assert!(run_tokens(&[
                "plan-preemptible",
                "--ckpt",
                "uniform:1,7.5",
                "--reservation",
                "10",
                "--metrics-format",
                fmt
            ])
            .is_ok());
        }
    }

    #[test]
    fn positionals_are_rejected_outside_obs() {
        assert!(run_tokens(&["plan-preemptible", "stray", "--ckpt", "uniform:1,7.5"]).is_err());
    }

    #[test]
    fn obs_requires_a_known_action_and_operands() {
        assert!(run_tokens(&["obs"]).is_err());
        assert!(run_tokens(&["obs", "frobnicate"]).is_err());
        assert!(run_tokens(&["obs", "summarize"]).is_err());
        assert!(run_tokens(&["obs", "summarize", "/nonexistent.jsonl"]).is_err());
        assert!(run_tokens(&["obs", "diff", "/only-one.json"]).is_err());
    }

    #[test]
    fn obs_summarize_round_trips_a_simulate_log() {
        let dir = std::env::temp_dir().join("resq-cli-obs-summarize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("run.jsonl");
        run_tokens(&[
            "simulate",
            "--task",
            "normal:3,0.5@0,",
            "--ckpt",
            "normal:5,0.4@0,",
            "--reservation",
            "29",
            "--threshold",
            "20.3",
            "--trials",
            "9000",
            "--seed",
            "5",
            "--sample-every",
            "2000",
            "--log-json",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&log).unwrap();
        let summary = resq::obs::LogSummary::from_lines(text.lines());
        // The summary reproduces the run's trial count and per-phase
        // event counts exactly.
        assert_eq!(summary.trials, Some(9000));
        assert_eq!(summary.seed, Some(5));
        assert_eq!(summary.command.as_deref(), Some("simulate"));
        assert_eq!(summary.malformed, 0);
        assert_eq!(summary.count("run-started"), 1);
        assert_eq!(summary.count("run-finished"), 1);
        assert_eq!(summary.count("chunk-progress"), 3); // ceil(9000/4096)
        assert_eq!(summary.count("trial-sample"), 5); // trials 0,2000,...,8000
        assert_eq!(summary.count("checkpoint-decision"), 5);
        // And the subcommand itself accepts the artifact.
        assert!(run_tokens(&["obs", "summarize", log.to_str().unwrap()]).is_ok());
        std::fs::remove_file(&log).ok();
        std::fs::remove_file(dir.join("run.manifest.json")).ok();
    }

    #[test]
    fn lattice_build_query_verify_round_trip() {
        let dir = std::env::temp_dir().join("resq-cli-lattice-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lattice_exponential.json");
        let p = path.to_str().unwrap();
        assert!(run_tokens(&[
            "lattice", "build", p, "--family", "exponential", "--points", "3"
        ])
        .is_ok());
        // In-grid query (task mean 0.2, ckpt mean 0.2, R = 1): answered
        // from the lattice or by a legitimate fallback, never an error.
        assert!(run_tokens(&[
            "lattice",
            "query",
            p,
            "--task",
            "exponential:5",
            "--ckpt-mean",
            "0.2",
            "--reservation",
            "1"
        ])
        .is_ok());
        // Out-of-grid query falls back to the exact solver, still ok.
        assert!(run_tokens(&[
            "lattice",
            "query",
            p,
            "--task",
            "exponential:0.5",
            "--ckpt-mean",
            "5",
            "--reservation",
            "10"
        ])
        .is_ok());
        assert!(
            run_tokens(&["lattice", "verify", p, "--samples", "5", "--seed", "3"]).is_ok(),
            "served lookups must agree with the exact solver"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(dir.join("lattice_exponential.manifest.json")).ok();
    }

    #[test]
    fn lattice_requires_action_and_inputs() {
        assert!(run_tokens(&["lattice"]).is_err());
        assert!(run_tokens(&["lattice", "frobnicate"]).is_err());
        // build without --family, or with an un-gridded family.
        assert!(run_tokens(&["lattice", "build"]).is_err());
        assert!(run_tokens(&["lattice", "build", "--family", "pareto"]).is_err());
        // verify with neither a path nor --family cannot resolve the
        // artifact; with a missing file it is a clean error.
        assert!(run_tokens(&["lattice", "verify"]).is_err());
        assert!(run_tokens(&["lattice", "verify", "/nonexistent/lattice.json"]).is_err());
        // query rejects truncation suffixes and non-gridded law syntax.
        assert!(run_tokens(&[
            "lattice",
            "query",
            "/nonexistent/lattice.json",
            "--task",
            "normal:3,0.5@0,",
            "--ckpt-mean",
            "5",
            "--reservation",
            "29"
        ])
        .is_err());
    }

    #[test]
    fn lattice_corrupted_artifact_is_clean_error() {
        let dir = std::env::temp_dir().join("resq-cli-lattice-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lattice_exponential.json");
        std::fs::write(&path, "{\"format\": \"something-else/v0\"}").unwrap();
        let e = run_tokens(&[
            "lattice",
            "query",
            path.to_str().unwrap(),
            "--task",
            "exponential:5",
            "--ckpt-mean",
            "0.2",
            "--reservation",
            "1",
        ]);
        assert!(e.is_err(), "wrong format tag must be a typed error, not a panic");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn obs_summarize_rejects_empty_and_corrupt_logs() {
        let dir = std::env::temp_dir().join("resq-cli-obs-empty-test");
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let e = run_tokens(&["obs", "summarize", empty.to_str().unwrap()]);
        assert!(e.is_err(), "empty log must be an error, not an all-zeros summary");
        let garbage = dir.join("garbage.jsonl");
        std::fs::write(&garbage, "not json at all\n{\"no\":\"type\"}\n{torn").unwrap();
        let e = run_tokens(&["obs", "summarize", garbage.to_str().unwrap()]);
        assert!(e.is_err(), "wholly corrupt log must be an error");
        assert!(e.unwrap_err().0.contains("no event rows"));
        for f in ["empty.jsonl", "garbage.jsonl"] {
            std::fs::remove_file(dir.join(f)).ok();
        }
    }

    #[test]
    fn obs_export_trace_round_trips_a_simulate_log() {
        let dir = std::env::temp_dir().join("resq-cli-export-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("run.jsonl");
        run_tokens(&[
            "simulate",
            "--task",
            "normal:3,0.5@0,",
            "--ckpt",
            "normal:5,0.4@0,",
            "--reservation",
            "29",
            "--threshold",
            "20.3",
            "--trials",
            "9000",
            "--seed",
            "5",
            "--sample-every",
            "2000",
            "--log-json",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let out = dir.join("trace.json");
        assert!(run_tokens(&[
            "obs",
            "export-trace",
            log.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .is_ok());
        let doc = resq::obs::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap();
        assert!(matches!(events, resq::obs::json::JsonValue::Array(v) if !v.is_empty()));
        // Empty logs error rather than exporting a plausible empty trace.
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(run_tokens(&["obs", "export-trace", empty.to_str().unwrap()]).is_err());
        for f in ["run.jsonl", "run.manifest.json", "trace.json", "empty.jsonl"] {
            std::fs::remove_file(dir.join(f)).ok();
        }
    }

    /// Serializes tests that drive serve loops through the process-wide
    /// stop flag, so one test clearing the flag cannot strand another
    /// test's loop.
    static STOP_FLAG_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn obs_serve_exits_cleanly_once_stopped() {
        let _guard = STOP_FLAG_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        // The stop flag doubles as the test hook for the signal path:
        // pre-setting it makes the serve loop exit on its first check.
        http::request_stop();
        assert!(run_tokens(&["obs", "serve", "--addr", "127.0.0.1:0"]).is_ok());
        http::clear_stop_request();
        // A missing events file is a clean startup error.
        assert!(run_tokens(&["obs", "serve", "/nonexistent.jsonl"]).is_err());
    }

    #[test]
    fn serve_daemon_exits_cleanly_once_stopped() {
        let _guard = STOP_FLAG_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        http::request_stop();
        // No lattice artifacts in the temp dir: every family reports
        // exact-only and the daemon still starts and drains.
        let dir = std::env::temp_dir().join("resq-serve-cmd-test");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(run_tokens(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--tcp-addr",
            "127.0.0.1:0",
            "--lattice-dir",
            dir.to_str().unwrap(),
        ])
        .is_ok());
        http::clear_stop_request();
        // A bad address is a clean startup error, not a hang.
        assert!(run_tokens(&["serve", "--addr", "definitely-not-an-addr"]).is_err());
    }

    #[test]
    fn bench_serve_runs_an_in_process_load() {
        // Tiny closed loop against the in-process daemon; also checks
        // the --min-throughput gate fires when set impossibly high.
        assert!(run_tokens(&[
            "bench",
            "serve",
            "--connections",
            "2",
            "--requests",
            "10",
        ])
        .is_ok());
        let gated = run_tokens(&[
            "bench",
            "serve",
            "--connections",
            "1",
            "--requests",
            "2",
            "--min-throughput",
            "1e15",
        ]);
        assert!(gated.is_err(), "impossible throughput gate must fail");
        assert!(run_tokens(&["bench", "nope"]).is_err());
    }

    #[test]
    fn simulate_accepts_in_process_serve_flag() {
        assert!(run_tokens(&[
            "simulate",
            "--task",
            "normal:3,0.5@0,",
            "--ckpt",
            "normal:5,0.4@0,",
            "--reservation",
            "29",
            "--threshold",
            "20.3",
            "--trials",
            "2000",
            "--serve",
            "127.0.0.1:0"
        ])
        .is_ok());
        // An unbindable address fails before the run, not after it.
        assert!(run_tokens(&[
            "simulate",
            "--task",
            "normal:3,0.5@0,",
            "--ckpt",
            "normal:5,0.4@0,",
            "--reservation",
            "29",
            "--threshold",
            "20.3",
            "--trials",
            "2000",
            "--serve",
            "256.0.0.1:1"
        ])
        .is_err());
    }

    #[test]
    fn event_rows_carry_a_joinable_run_id() {
        let dir = std::env::temp_dir().join("resq-cli-runid-test");
        std::fs::create_dir_all(&dir).unwrap();
        let capture = |seed: &str, name: &str| {
            let log = dir.join(name);
            run_tokens(&[
                "simulate",
                "--task",
                "normal:3,0.5@0,",
                "--ckpt",
                "normal:5,0.4@0,",
                "--reservation",
                "29",
                "--threshold",
                "20.3",
                "--trials",
                "2000",
                "--seed",
                seed,
                "--log-json",
                log.to_str().unwrap(),
            ])
            .unwrap();
            let text = std::fs::read_to_string(&log).unwrap();
            std::fs::remove_file(&log).ok();
            std::fs::remove_file(dir.join(name.replace(".jsonl", ".manifest.json"))).ok();
            text
        };
        let a = capture("1", "a.jsonl");
        let b = capture("2", "b.jsonl");
        let run_id_of = |text: &str| {
            let row = resq::obs::json::parse(text.lines().next().unwrap()).unwrap();
            row.get("run_id").and_then(|v| v.as_str()).map(String::from)
        };
        let (ida, idb) = (run_id_of(&a).unwrap(), run_id_of(&b).unwrap());
        assert_eq!(ida.len(), 16);
        assert_ne!(ida, idb, "seed is semantic, so the fingerprint must differ");
        // Every row of a run carries the same run_id.
        for line in a.lines() {
            let row = resq::obs::json::parse(line).unwrap();
            assert_eq!(row.get("run_id").and_then(|v| v.as_str()), Some(ida.as_str()));
        }
    }

    #[test]
    fn obs_diff_compares_two_manifests() {
        let dir = std::env::temp_dir().join("resq-cli-obs-diff-test");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |seed: &str, name: &str| {
            let log = dir.join(name);
            run_tokens(&[
                "simulate",
                "--task",
                "normal:3,0.5@0,",
                "--ckpt",
                "normal:5,0.4@0,",
                "--reservation",
                "29",
                "--threshold",
                "20.3",
                "--trials",
                "2000",
                "--seed",
                seed,
                "--log-json",
                log.to_str().unwrap(),
            ])
            .unwrap();
            dir.join(name.replace(".jsonl", ".manifest.json"))
        };
        let a = run("1", "a.jsonl");
        let b = run("2", "b.jsonl");
        assert!(run_tokens(&["obs", "diff", a.to_str().unwrap(), b.to_str().unwrap()]).is_ok());
        let pa = resq::obs::json::parse(&std::fs::read_to_string(&a).unwrap()).unwrap();
        let pb = resq::obs::json::parse(&std::fs::read_to_string(&b).unwrap()).unwrap();
        let diff = resq::obs::summarize::manifest_diff(&pa, &pb);
        let keys: Vec<&str> = diff.iter().map(|e| e.key.as_str()).collect();
        assert!(keys.contains(&"seed"), "seed drift detected: {keys:?}");
        for name in ["a.jsonl", "b.jsonl", "a.manifest.json", "b.manifest.json"] {
            std::fs::remove_file(dir.join(name)).ok();
        }
    }
}
