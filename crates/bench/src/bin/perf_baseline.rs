//! `perf_baseline` — the perf-trajectory harness: times the workspace's
//! hot paths and writes `BENCH_perf.json` at the repo root so the
//! number-crunching cost of each PR is visible in review diffs.
//!
//! [`collect`] lists the timed entries: quadrature, root finding and
//! Lambert W, the §3/§4 planners (`solve/*`), policy-lattice lookups,
//! the Monte-Carlo thread sweeps on the scalar and batched paths
//! (`mc/*`, `mc_batched/*`), the batched run under a live `/metrics`
//! scraper (`serve_scrape`) and the decision daemon end to end
//! (`serve_decide`). Entries whose timing the host cannot honestly
//! support are tagged `"degraded": true` — a thread-sweep entry asking
//! for more workers than `available_parallelism`, or a client and
//! server sharing a single core. [`GATES`] holds every gate, one row
//! each.
//!
//! ```text
//! perf_baseline                 full mode: write BENCH_perf.json at the repo root
//! perf_baseline --smoke         tiny iteration counts (CI)
//! perf_baseline --out <path>    redirect the report
//! perf_baseline --check <path> [--baseline <committed>]
//!                               validate a report against the schema and run the
//!                               gates on it (and those comparing it with a baseline)
//! perf_baseline --scaling-smoke report-free multicore probe: time the batched
//!                               sweep's two ends and run its gate
//! ```
//!
//! Exit codes: `0` every applicable gate ran and passed; `1` a gate or
//! the schema failed; `2` usage error; `3` passed, but at least one
//! gate was skipped (degraded entries, single-core host, or a report
//! mode the gate does not run on) — the consolidated skip notice lists
//! which. `3` is a pass for CI purposes, distinguishable from the
//! fully-gated `0`.
//!
//! Timings are wall-clock facts: like manifests, `BENCH_perf.json` is
//! provenance and is *expected* to differ between machines and runs, so
//! `--baseline` is meaningful when the fresh run and the committed
//! baseline come from the same machine (the local pre-commit workflow).

use resq::core::policy::ThresholdWorkflowPolicy;
use resq::dist::{Normal, Truncated, Uniform};
use resq::sim::stats::quantile;
use resq::sim::{
    run_trials_batched, run_trials_observed, BatchScratch, MonteCarloConfig, WorkflowSim,
};
use resq::{DynamicStrategy, LatticeSpec, LawFamily, Preemptible, SolveCache, StaticStrategy};
use resq_dist::Poisson;
use resq_numerics::{adaptive_simpson, brent_root};
use resq_obs::span::{self, SpanRegistry};
use resq_obs::{json, NullSink};
use resq_specfun::{lambert_w0, lambert_wm1};
use std::hint::black_box;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Schema identifier written into (and required of) every report.
/// `v7`: every `mc/threads_*` and `mc_batched/threads_*` entry carries a
/// derived `parallel_efficiency` field — `(threads_1 time / entry time)
/// / threads`, 1.0 for a perfectly scaling sweep point. v6 added
/// `serve_decide`; v5 the `degraded` honesty tag + `serve_scrape`; v4
/// `solve/lattice_lookup`; v3 per-entry `threads` and provenance
/// `available_parallelism`.
const SCHEMA: &str = "resq-perf-baseline/v7";

/// Every gate the harness runs, one row each. The Monte-Carlo rows read
/// the median: on a busy host a few preempted iterations inflate the
/// mean by 10% and more, and the gates should measure the code, not the
/// scheduler.
#[rustfmt::skip]
const GATES: &[Gate] = {
    use Limit::*; use Pass::*; use Skip::*; use Stat::*;
    &[
        // The batched sampler path must pay for itself on one thread.
        Gate { name: "batched-vs-scalar", mode: "full", entry: "mc_batched/threads_1", over: None,
               stat: Mean, pass: Below, limit: Times(1.0, "mc/threads_1"), skip: Degraded },
        // One iteration is a 40 000-trial fig. 8 run, so 4 ms is 10⁷
        // trials per second per core.
        Gate { name: "mc-throughput", mode: "full", entry: "mc_batched/threads_1", over: None,
               stat: P50, pass: AtMost, limit: Fixed(4_000_000.0), skip: Never },
        Gate { name: "mc-scaling", mode: "full", entry: "mc_batched/threads_1",
               over: Some("mc_batched/threads_max"), stat: P50, pass: AtLeast, limit: Fixed(1.7),
               skip: OneCpu },
        // A 10 Hz scraper of the interference-free snapshots costs at most 5%.
        Gate { name: "serve_scrape", mode: "full", entry: "serve_scrape", over: None,
               stat: Mean, pass: AtMost, limit: Times(1.05, "mc_batched/threads_1"),
               skip: Degraded },
        // The lattice path answers in microseconds; the daemon must not
        // bury that under wire or locking overhead.
        Gate { name: "serve_decide", mode: "full", entry: "serve_decide", over: None,
               stat: P50, pass: AtMost, limit: Fixed(50_000.0), skip: Degraded },
        // 25% absorbs same-machine jitter on the solver entries (under
        // 10%); real regressions have shown up as 2× and more.
        Gate { name: "regression", mode: "full", entry: "solve/", over: None,
               stat: Mean, pass: AtMost, limit: TimesBaseline(1.25), skip: Degraded },
        // Looser than mc-scaling: shared CI runners throttle and
        // co-schedule, and a serialized parallel path still shows ≈ 1.0×.
        Gate { name: "scaling-smoke", mode: "scaling-smoke", entry: "mc_batched/threads_1",
               over: Some("mc_batched/threads_max"), stat: P50, pass: AtLeast, limit: Fixed(1.5),
               skip: OneCpu },
    ]
};

/// One gate: a row of [`GATES`].
struct Gate {
    name: &'static str,
    /// The report mode it runs on: `full` (`--check`; smoke iteration
    /// counts are too small for wall-clock gates) or `scaling-smoke`.
    mode: &'static str,
    /// The entry it reads; a name ending in `/` reads each entry under
    /// that prefix on its own.
    entry: &'static str,
    /// With `Some(other)`, the reading is the entry's statistic over
    /// `other`'s: a speedup.
    over: Option<&'static str>,
    stat: Stat,
    pass: Pass,
    limit: Limit,
    skip: Skip,
}

/// `nanos_per_iter` or `p50_nanos`.
#[derive(Clone, Copy, Debug)]
enum Stat {
    Mean,
    P50,
}

/// How the reading must compare with the limit to pass.
#[derive(Clone, Copy, Debug)]
enum Pass {
    Below,
    AtMost,
    AtLeast,
}

/// A fixed limit; a multiple of the same statistic of another entry of
/// the report; or a multiple of the same entry's statistic in the
/// baseline, which runs the row only under `--baseline` and skips, not
/// lists, an entry the baseline lacks.
#[derive(Clone, Copy)]
enum Limit {
    Fixed(f64),
    Times(f64, &'static str),
    TimesBaseline(f64),
}

/// Skip never; when an entry the gate reads, in either report, is
/// tagged degraded; or on a host with one CPU, which cannot show a
/// speedup, or when the entry the speedup divides by is degraded. A
/// `--scaling-smoke` run also skips a `OneCpu` row when its CPU-bound
/// probe ([`probe_speedup`]) shows less parallelism than the row's
/// bound: such a host reports several CPUs but cannot run them at once.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Skip {
    Never,
    Degraded,
    OneCpu,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Pass,
    Skip,
    Fail,
}

/// A gate's verdict, with the reading against the limit or the reason
/// it was skipped.
struct Outcome {
    gate: &'static str,
    verdict: Verdict,
    detail: String,
}

impl Gate {
    /// The single entries the row names; `--check` requires them all.
    fn named(&self) -> impl Iterator<Item = &'static str> {
        let against = match self.limit {
            Limit::Times(_, name) => Some(name),
            _ => None,
        };
        let subject = Some(self.entry).filter(|e| !e.ends_with('/'));
        [subject, self.over, against].into_iter().flatten()
    }

    /// Evaluates the row: nothing when the invocation does not ask for
    /// it (a baseline row without `--baseline`), one skip when a
    /// report's mode or the host rules it out, else one outcome per entry.
    fn evaluate(&self, report: &Report, baseline: Option<&Report>) -> Vec<Outcome> {
        let outcome = |verdict, detail| Outcome {
            gate: self.name,
            verdict,
            detail,
        };
        let reports = match (self.limit, baseline) {
            (Limit::TimesBaseline(_), None) => return Vec::new(),
            (Limit::TimesBaseline(_), Some(base)) => vec![report, base],
            _ => vec![report],
        };
        let unfit = reports.iter().find(|r| r.mode != self.mode);
        let unfit = unfit.map(|r| format!("runs on `{}` reports, not `{}`", self.mode, r.mode));
        if let Some(reason) = unfit.or_else(|| self.host_skip(report)) {
            return vec![outcome(Verdict::Skip, reason)];
        }
        let prefix = self.entry.ends_with('/');
        report
            .entries
            .iter()
            .filter(|e| e.name == self.entry || (prefix && e.name.starts_with(self.entry)))
            .filter_map(|e| self.verdict(e, report, baseline))
            .map(|(verdict, detail)| outcome(verdict, detail))
            .collect()
    }

    /// Why the host keeps the row from running; decided before any
    /// entry is read, so `--scaling-smoke` times nothing it would skip.
    fn host_skip(&self, report: &Report) -> Option<String> {
        if self.skip != Skip::OneCpu {
            return None;
        }
        let cpus = report.available_parallelism;
        if cpus < 2 {
            return Some(format!(
                "available_parallelism = {cpus}, cannot measure a multicore speedup"
            ));
        }
        let bound = match self.limit {
            Limit::Fixed(bound) => bound,
            _ => return None,
        };
        let probe = report.probe_speedup.filter(|&probe| probe < bound)?;
        Some(format!(
            "a CPU-bound probe ran {probe:.2}x faster on {cpus} threads than on 1, \
             below the {bound}x bound: the host cannot show a multicore speedup"
        ))
    }

    /// The verdict on one entry, or `None` when the baseline has no such
    /// entry yet and there is nothing to regress against.
    fn verdict(
        &self,
        subject: &Entry,
        report: &Report,
        baseline: Option<&Report>,
    ) -> Option<(Verdict, String)> {
        let find = |name: &str| {
            report
                .entry(name)
                .expect("check() requires every named entry")
        };
        let over = self.over.map(find);
        let (factor, against) = match self.limit {
            Limit::Fixed(limit) => (limit, None),
            Limit::Times(factor, name) => (factor, Some(find(name))),
            Limit::TimesBaseline(factor) => (factor, Some(baseline?.entry(&subject.name)?)),
        };
        let watched = match self.skip {
            Skip::Never => [None; 3],
            Skip::Degraded => [Some(subject), over, against],
            Skip::OneCpu => [over, None, None],
        };
        if let Some(e) = watched.into_iter().flatten().find(|e| e.degraded) {
            return Some((Verdict::Skip, format!("`{}` is tagged degraded", e.name)));
        }
        let stat = |e: &Entry| match self.stat {
            Stat::Mean => e.nanos_per_iter,
            Stat::P50 => e.p50_nanos,
        };
        let reading = stat(subject) / over.map_or(1.0, stat);
        let limit = factor * against.map_or(1.0, stat);
        let passes = match self.pass {
            Pass::Below => reading < limit,
            Pass::AtMost => reading <= limit,
            Pass::AtLeast => reading >= limit,
        };
        let (stat, name, pass) = (self.stat, &subject.name, self.pass);
        let per = over.map_or(String::new(), |o| format!(" / {}", o.name));
        let detail = format!("{stat:?} {name}{per} = {reading}, limit {pass:?} {limit}");
        Some((if passes { Verdict::Pass } else { Verdict::Fail }, detail))
    }
}

/// One timed hot path.
struct Entry {
    name: String,
    iters: u64,
    /// Worker threads the timed workload used (1 for single-threaded
    /// solver/quadrature entries; the `mc/threads_N` sweep varies it).
    threads: usize,
    /// The host could not honestly time this entry (more workers
    /// requested than `available_parallelism`, or `serve_scrape` on a
    /// single core). The gates' skip rules read it.
    degraded: bool,
    total_nanos: u64,
    nanos_per_iter: f64,
    p50_nanos: f64,
    p90_nanos: f64,
    p99_nanos: f64,
    /// `(threads_1 nanos_per_iter / this nanos_per_iter) / threads` for
    /// the Monte-Carlo thread-sweep entries (schema v7): 1.0 means the
    /// sweep point scaled perfectly, ≈ `1/threads` means it didn't
    /// scale at all. `None` (omitted from the JSON) for entries outside
    /// the `mc*/threads_*` families.
    parallel_efficiency: Option<f64>,
}

/// Times `iters` repetitions of `work`, each under a span in a fresh
/// scoped registry (so the measurement includes the instrumentation the
/// library really runs with), recording one exact `Instant` duration per
/// iteration. Quantiles are order statistics of those durations — not
/// histogram-bucket read-backs.
fn time_entry(name: &str, iters: u64, threads: usize, mut work: impl FnMut()) -> Entry {
    let registry = SpanRegistry::new();
    let mut durations: Vec<f64> = Vec::with_capacity(iters as usize);
    {
        let _scope = span::scoped(registry.clone());
        for _ in 0..iters {
            let t0 = Instant::now();
            {
                let _span = span::enter(name);
                work();
            }
            durations.push(t0.elapsed().as_nanos() as f64);
        }
    }
    let recorded = registry
        .snapshot()
        .into_iter()
        .find(|s| s.path == name)
        .expect("the timed span must be in its own registry");
    assert_eq!(recorded.count, iters, "span machinery dropped iterations");
    let total: f64 = durations.iter().sum();
    Entry {
        name: name.to_string(),
        iters,
        threads,
        degraded: threads > host_parallelism(),
        total_nanos: total as u64,
        nanos_per_iter: total / iters as f64,
        p50_nanos: quantile(&durations, 0.50),
        p90_nanos: quantile(&durations, 0.90),
        p99_nanos: quantile(&durations, 0.99),
        parallel_efficiency: None,
    }
}

/// Worker threads the host can really run at once.
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Scales a full-mode iteration count down for `--smoke`.
fn scaled(full: u64, smoke: bool) -> u64 {
    if smoke {
        (full / 20).max(2)
    } else {
        full
    }
}

/// Times one full 40 000-trial Monte-Carlo run per iteration, through
/// either the per-trial scalar path (`batched = false`, the `mc/*`
/// entries) or the chunk-buffered batched path (`batched = true`,
/// `mc_batched/*`). Both use the same workload: the fig. 8
/// truncated-Normal workflow at the same trial count, seed and thread
/// count, so the two families are directly comparable per iteration.
fn mc_entry(name: &str, threads: usize, smoke: bool, batched: bool) -> Entry {
    let trials = scaled(40_000, smoke).max(100);
    let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
    let ckpt = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
    let sim = WorkflowSim {
        reservation: 29.0,
        task,
        ckpt,
    };
    let policy = ThresholdWorkflowPolicy { threshold: 20.3 };
    let cfg = MonteCarloConfig {
        trials,
        seed: 42,
        threads,
    };
    // 30 full-mode iterations: enough per-iteration samples that p90
    // and p99 are *distinct* order statistics (at 6 iterations both
    // quantiles interpolated between the same two top samples and the
    // report showed p90 == p99 on every mc entry).
    time_entry(name, scaled(30, smoke), threads, || {
        let s = if batched {
            run_trials_batched(cfg, &NullSink, 0, BatchScratch::new, |_, rng, scratch| {
                sim.run_once_batched(&policy, rng, scratch).work_saved
            })
        } else {
            run_trials_observed(cfg, &NullSink, 0, |_, rng| {
                sim.run_once(&policy, rng).work_saved
            })
        };
        black_box(s.mean);
    })
}

/// Times the `mc_batched/threads_1` workload with a live telemetry
/// server bound on a loopback ephemeral port and a scraper thread
/// issuing `GET /metrics` every 100 ms (10 Hz) for the duration. The
/// delta against the scraper-free `mc_batched/threads_1` entry is the
/// whole cost of live exposition; on a single-core host the scraper
/// steals the workload's CPU, so the entry is tagged degraded.
fn serve_scrape_entry(smoke: bool) -> Entry {
    let server = resq_obs::http::serve(resq_obs::http::ServerConfig::new("127.0.0.1:0"))
        .expect("serve_scrape: bind telemetry server");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            // do-while: on a single-core host this thread may first be
            // scheduled only after a short workload already set `stop`,
            // so always complete at least one scrape before checking.
            loop {
                if let Ok(mut conn) = std::net::TcpStream::connect(addr) {
                    let _ = conn.write_all(
                        b"GET /metrics HTTP/1.1\r\nHost: perf\r\nConnection: close\r\n\r\n",
                    );
                    let mut body = String::new();
                    let _ = conn.read_to_string(&mut body);
                    if body.contains("200 OK") {
                        scrapes += 1;
                    }
                }
                if stop.load(Ordering::Relaxed) {
                    return scrapes;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        })
    };
    let mut entry = mc_entry("serve_scrape", 1, smoke, true);
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper
        .join()
        .expect("serve_scrape: scraper thread panicked");
    assert!(
        scrapes > 0,
        "serve_scrape: scraper never completed a request"
    );
    server.stop();
    entry.degraded = host_parallelism() < 2;
    entry
}

/// Times the decision daemon end to end: an in-process
/// `DecisionService` over a prebuilt exponential lattice, served on the
/// length-prefixed TCP fast path on a loopback ephemeral port, driven by
/// [`resq_cli::serve::run_load`]'s closed loop — the exact
/// client-to-answer round-trip `resq bench serve` measures. Quantiles
/// are the load harness's exact per-request order statistics; on a
/// single-core host client and daemon share one CPU, so the entry is
/// tagged degraded.
fn serve_decide_entry(smoke: bool) -> Entry {
    use resq_cli::serve::{self, DecisionService, LoadOptions, LoadProto};
    let lattice = exponential_lattice(smoke);
    let query = serve::served_queries(&lattice)
        .next()
        .expect("serve_decide: no served lattice query to drive");
    let body = serve::render_request(&query, Some(10.0));
    let connections = 2usize;
    let service = Arc::new(DecisionService::new(vec![lattice], 4, 64));
    let mut cfg = resq_obs::http::ServerConfig::new("127.0.0.1:0");
    cfg.workers = 2;
    cfg.queue_depth = 64;
    let server = resq_obs::http::serve_framed(cfg, serve::frame_handler(Arc::clone(&service)))
        .expect("serve_decide: bind daemon");
    // Retry knobs stay at their off defaults (one attempt, no body
    // check): the measured path must be the same bytes-in/bytes-out
    // loop this entry has always gated.
    let mut opts = LoadOptions::new(server.local_addr().to_string(), LoadProto::Framed, body);
    opts.connections = connections;
    opts.requests = scaled(2000, smoke).max(50) as usize;
    let report = serve::run_load(&opts).expect("serve_decide: load run");
    server.stop();
    assert_eq!(report.errors, 0, "serve_decide: load saw error responses");
    Entry {
        name: "serve_decide".to_string(),
        iters: report.decisions,
        threads: connections,
        // Client threads + daemon workers need more than one CPU for
        // the round-trip numbers to mean anything.
        degraded: host_parallelism() < 2,
        total_nanos: report.elapsed.as_nanos() as u64,
        nanos_per_iter: report.elapsed.as_nanos() as f64 / report.decisions as f64,
        p50_nanos: report.p50_nanos,
        p90_nanos: report.p90_nanos,
        p99_nanos: report.p99_nanos,
        parallel_efficiency: None,
    }
}

/// The exponential-family lattice the lookup and daemon entries answer
/// from, built outside any timed region.
fn exponential_lattice(smoke: bool) -> resq::PolicyLattice {
    let spec = LatticeSpec::defaults(LawFamily::Exponential);
    let spec = if smoke { spec.with_points(5) } else { spec };
    resq::core::lattice::build(&spec).expect("lattice build")
}

fn collect(smoke: bool) -> Vec<Entry> {
    let n_threads = host_parallelism();
    let mut entries = Vec::new();

    entries.push(time_entry(
        "quad/adaptive_simpson",
        scaled(400, smoke),
        1,
        || {
            let r = adaptive_simpson(
                |x| (-0.5 * x * x).exp() * (1.0 + x).ln_1p(),
                0.0,
                8.0,
                1e-10,
            );
            black_box(r.value);
        },
    ));

    entries.push(time_entry(
        "roots/brent_root",
        scaled(2000, smoke),
        1,
        || {
            let r = brent_root(|x| x.exp() - 3.0 * x, 0.0, 1.0, 1e-12);
            black_box(r.unwrap());
        },
    ));

    entries.push(time_entry(
        "specfun/lambert_w",
        scaled(20_000, smoke),
        1,
        || {
            black_box(lambert_w0(black_box(1.5)));
            black_box(lambert_wm1(black_box(-0.2)));
        },
    ));

    entries.push(time_entry(
        "solve/preemptible",
        scaled(40, smoke),
        1,
        || {
            let law = Uniform::new(1.0, 7.5).unwrap();
            let model = Preemptible::new(law, 10.0).unwrap();
            black_box(model.optimize().expected_work);
        },
    ));

    // A fresh strategy every iteration: what one solve costs.
    entries.push(time_entry("solve/static", scaled(40, smoke), 1, || {
        let task = Poisson::new(3.0).unwrap();
        let ckpt = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        let plan = StaticStrategy::new(task, ckpt, 29.0)
            .unwrap()
            .optimize()
            .unwrap();
        black_box(plan.n_opt);
    }));

    entries.push(time_entry(
        "solve/static_normal",
        scaled(40, smoke),
        1,
        || {
            let ckpt = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
            let plan = StaticStrategy::new(Normal::new(3.0, 0.5).unwrap(), ckpt, 30.0)
                .unwrap()
                .optimize()
                .unwrap();
            black_box(plan.n_opt);
        },
    ));

    entries.push(time_entry("solve/dynamic", scaled(40, smoke), 1, || {
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let ckpt = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        let w = DynamicStrategy::new(task, ckpt, 29.0)
            .unwrap()
            .threshold()
            .unwrap();
        black_box(w);
    }));

    // The O(µs) decision path: in-grid queries against a prebuilt
    // exponential-family lattice. Build and query selection happen
    // outside the timed region; only served (interpolated) queries are
    // cycled, so the entry times the lookup itself, not the exact-solver
    // fallback (which `solve/dynamic` above already tracks).
    entries.push({
        let lattice = exponential_lattice(smoke);
        let queries: Vec<_> = resq_cli::serve::served_queries(&lattice).collect();
        assert!(!queries.is_empty(), "no served lattice queries to time");
        let mut cache = SolveCache::new();
        let mut i = 0usize;
        time_entry(
            "solve/lattice_lookup",
            scaled(20_000, smoke),
            1,
            move || {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(lattice.query(q, &mut cache).expect("timed query").n_opt);
            },
        )
    });

    entries.push(mc_entry("mc/threads_1", 1, smoke, false));
    entries.push(mc_entry("mc/threads_2", 2, smoke, false));
    entries.push(mc_entry("mc/threads_max", n_threads.max(2), smoke, false));

    entries.push(mc_entry("mc_batched/threads_1", 1, smoke, true));
    entries.push(mc_entry("mc_batched/threads_2", 2, smoke, true));
    entries.push(mc_entry(
        "mc_batched/threads_max",
        n_threads.max(2),
        smoke,
        true,
    ));

    entries.push(serve_scrape_entry(smoke));

    entries.push(serve_decide_entry(smoke));

    // Schema v7 derived metric: parallel efficiency of every
    // thread-sweep point against its own family's `threads_1` run —
    // recorded even for degraded entries (the tag says what to make of
    // it) so flat sweeps are visible as numbers, not just by eyeballing
    // nanos_per_iter columns.
    for fam in ["mc", "mc_batched"] {
        let base = entries
            .iter()
            .find(|e| e.name == format!("{fam}/threads_1"))
            .map(|e| e.nanos_per_iter);
        if let Some(base) = base {
            let prefix = format!("{fam}/threads_");
            for e in entries.iter_mut().filter(|e| e.name.starts_with(&prefix)) {
                e.parallel_efficiency = Some((base / e.nanos_per_iter) / e.threads as f64);
            }
        }
    }

    entries
}

/// Renders the report: schema tag, per-hot-path entries, and a
/// manifest-style provenance block (all the wall-clock facts live here
/// and in the entries — nothing in the library's event logs).
fn render(entries: &[Entry], mode: &str, wall_time_secs: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let mut row = String::from("    {");
        row.push_str("\"name\": ");
        json::write_escaped(&mut row, &e.name);
        row.push_str(&format!(
            ", \"iters\": {}, \"threads\": {}, \"degraded\": {}, \"total_nanos\": {}, \
             \"nanos_per_iter\": {:.1}, \"p50_nanos\": {:.1}, \"p90_nanos\": {:.1}, \
             \"p99_nanos\": {:.1}",
            e.iters,
            e.threads,
            e.degraded,
            e.total_nanos,
            e.nanos_per_iter,
            e.p50_nanos,
            e.p90_nanos,
            e.p99_nanos
        ));
        if let Some(pe) = e.parallel_efficiency {
            row.push_str(&format!(", \"parallel_efficiency\": {pe:.4}"));
        }
        row.push('}');
        if i + 1 < entries.len() {
            row.push(',');
        }
        row.push('\n');
        out.push_str(&row);
    }
    out.push_str("  ],\n");
    let available = host_parallelism();
    let git_rev = match resq_obs::git_rev() {
        Some(rev) => format!("\"{rev}\""),
        None => "null".to_string(),
    };
    out.push_str(&format!(
        "  \"provenance\": {{\"tool\": \"resq-bench perf_baseline\", \"mode\": \"{mode}\", \
         \"available_parallelism\": {available}, \"crate_version\": \"{}\", \
         \"git_rev\": {git_rev}, \"wall_time_secs\": {wall_time_secs:.3}}}\n",
        env!("CARGO_PKG_VERSION")
    ));
    out.push_str("}\n");
    out
}

/// A report as the gates read it; `mode` is `full`, `smoke`, or
/// `scaling-smoke` for the entries `--scaling-smoke` times.
struct Report {
    mode: String,
    available_parallelism: u64,
    /// The host's measured parallelism ([`probe_speedup`]); only
    /// `--scaling-smoke` measures it, a stored report has none.
    probe_speedup: Option<f64>,
    entries: Vec<Entry>,
}

impl Report {
    fn entry(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// Parses a report after validating the schema: tag, per-entry numeric
/// fields (including v3's `threads` and v7's `parallel_efficiency` on
/// the thread-sweep entries), v5's boolean `degraded`, and the
/// provenance block with `available_parallelism`.
fn load_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("`{path}` is not valid JSON: {e}"))?;
    let schema = root
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or("missing `schema` tag")?;
    if schema != SCHEMA {
        return Err(format!("schema `{schema}`, expected `{SCHEMA}`"));
    }
    let Some(json::JsonValue::Array(rows)) = root.get("entries") else {
        return Err("`entries` must be an array".to_string());
    };
    if rows.is_empty() {
        return Err("`entries` is empty".to_string());
    }
    let mut entries = Vec::with_capacity(rows.len());
    for e in rows {
        let name = e
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("entry missing `name`")?;
        let num = |key: &str| match e.get(key).and_then(|v| v.as_f64()) {
            Some(v) if v.is_finite() && v >= 0.0 => Ok(v),
            Some(_) => Err(format!("entry `{name}` has non-finite `{key}`")),
            None => Err(format!("entry `{name}` missing numeric `{key}`")),
        };
        let entry = Entry {
            name: name.to_string(),
            iters: num("iters")? as u64,
            threads: num("threads")? as usize,
            total_nanos: num("total_nanos")? as u64,
            nanos_per_iter: num("nanos_per_iter")?,
            p50_nanos: num("p50_nanos")?,
            p90_nanos: num("p90_nanos")?,
            p99_nanos: num("p99_nanos")?,
            degraded: e
                .get("degraded")
                .and_then(|v| v.as_bool())
                .ok_or_else(|| format!("entry `{name}` missing boolean `degraded`"))?,
            parallel_efficiency: e.get("parallel_efficiency").and_then(|v| v.as_f64()),
        };
        // v7: the Monte-Carlo thread-sweep entries must carry the
        // derived efficiency (other entries must not need it, so it
        // stays optional for them).
        let sweep = name.starts_with("mc/threads_") || name.starts_with("mc_batched/threads_");
        if sweep
            && !entry
                .parallel_efficiency
                .is_some_and(|pe| pe.is_finite() && pe > 0.0)
        {
            return Err(format!(
                "entry `{name}` lacks a positive `parallel_efficiency` (v7)"
            ));
        }
        if entry.iters == 0 || entry.threads == 0 {
            return Err(format!(
                "entry `{name}` ran zero iterations or claims zero threads"
            ));
        }
        entries.push(entry);
    }
    let prov = root.get("provenance").ok_or("missing `provenance` block")?;
    for key in ["tool", "mode", "crate_version"] {
        prov.get(key)
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("provenance missing `{key}`"))?;
    }
    let available_parallelism = prov
        .get("available_parallelism")
        .and_then(|v| v.as_u64())
        .ok_or("provenance missing `available_parallelism`")?;
    if prov.get("git_rev").is_none() {
        return Err("provenance missing `git_rev`".to_string());
    }
    let mode = prov
        .get("mode")
        .and_then(|v| v.as_str())
        .unwrap_or("unknown")
        .to_string();
    Ok(Report {
        mode,
        available_parallelism,
        probe_speedup: None,
        entries,
    })
}

/// `--check`: evaluates the `full` rows after requiring each entry they
/// name, of a smoke report too, where they then list themselves as
/// skipped.
fn check(report: &Report, baseline: Option<&Report>) -> Vec<Outcome> {
    let rows = GATES.iter().filter(|g| g.mode == "full");
    let missing: Vec<Outcome> = rows
        .clone()
        .flat_map(|g| g.named().map(move |name| (g.name, name)))
        .filter(|(_, name)| report.entry(name).is_none())
        .map(|(gate, name)| Outcome {
            gate,
            verdict: Verdict::Fail,
            detail: format!("the report has no `{name}` entry"),
        })
        .collect();
    if !missing.is_empty() {
        return missing;
    }
    rows.flat_map(|g| g.evaluate(report, baseline)).collect()
}

/// How much faster `threads` threads run a fixed CPU-bound loop than
/// one thread: `threads` copies of the loop at once against one copy
/// alone, each the fastest of three runs. About `threads` on a host
/// that really runs them in parallel, about 1 on one that does not.
fn probe_speedup(threads: usize) -> f64 {
    fn spin() -> u64 {
        let mut x = black_box(0u64);
        for _ in 0..20_000_000u64 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        black_box(x)
    }
    let fastest = |n: usize| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::thread::scope(|s| {
                    for _ in 0..n {
                        s.spawn(spin);
                    }
                });
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let one = fastest(1);
    threads as f64 * one / fastest(threads)
}

/// `--scaling-smoke`: a report-free probe for CI that times the batched
/// fig. 8 workload at one thread and at the host's parallelism, and
/// evaluates the `scaling-smoke` rows on those two entries. A host whose
/// CPU-bound probe already misses a row's bound skips the row.
fn scaling_smoke() -> Vec<Outcome> {
    let n = host_parallelism();
    let probe = (n >= 2).then(|| probe_speedup(n));
    match probe {
        Some(p) => println!("scaling smoke: available_parallelism = {n}, probe speedup {p:.2}x"),
        None => println!("scaling smoke: available_parallelism = {n}"),
    }
    let mut report = Report {
        mode: "scaling-smoke".to_string(),
        available_parallelism: n as u64,
        probe_speedup: probe,
        entries: Vec::new(),
    };
    let rows = GATES.iter().filter(|g| g.mode == "scaling-smoke");
    if rows.clone().any(|g| g.host_skip(&report).is_none()) {
        report.entries = vec![
            mc_entry("mc_batched/threads_1", 1, false, true),
            mc_entry("mc_batched/threads_max", n, false, true),
        ];
    }
    rows.flat_map(|g| g.evaluate(&report, None)).collect()
}

/// Prints the outcomes, the skips as one consolidated notice, and
/// returns the exit code: `1` if a gate failed, `3` if one was skipped,
/// `0` when every gate ran and passed.
fn conclude(outcomes: &[Outcome]) -> i32 {
    let with = |verdict| outcomes.iter().filter(move |o| o.verdict == verdict);
    with(Verdict::Pass).for_each(|o| println!("  gate {}: {} ok", o.gate, o.detail));
    with(Verdict::Fail).for_each(|o| eprintln!("gate {} failed: {}", o.gate, o.detail));
    if with(Verdict::Fail).next().is_some() {
        return 1;
    }
    let skips: Vec<&Outcome> = with(Verdict::Skip).collect();
    if skips.is_empty() {
        return 0;
    }
    println!("passed with {} skipped gate(s):", skips.len());
    skips
        .iter()
        .for_each(|o| println!("  - {}: {}", o.gate, o.detail));
    println!("exit 3: passed-with-skips (0 = all gates ran and passed)");
    3
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut run_scaling_smoke = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = it.next().cloned(),
            "--check" => check_path = it.next().cloned(),
            "--baseline" => baseline_path = it.next().cloned(),
            "--scaling-smoke" => run_scaling_smoke = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: perf_baseline [--smoke] [--out <path>] \
                     [--check <path> [--baseline <path>]] [--scaling-smoke]"
                );
                std::process::exit(2);
            }
        }
    }
    if run_scaling_smoke {
        std::process::exit(conclude(&scaling_smoke()));
    }
    if let Some(path) = check_path {
        let load = |path: &str| {
            load_report(path).unwrap_or_else(|e| {
                eprintln!("perf report check failed: {e}");
                std::process::exit(1);
            })
        };
        let (report, baseline) = (load(&path), baseline_path.as_deref().map(load));
        println!("{path}: schema ok ({} entries)", report.entries.len());
        std::process::exit(conclude(&check(&report, baseline.as_ref())));
    }
    let start = Instant::now();
    let entries = collect(smoke);
    let mode = if smoke { "smoke" } else { "full" };
    let report = render(&entries, mode, start.elapsed().as_secs_f64());
    let path = out_path.unwrap_or_else(|| "BENCH_perf.json".to_string());
    resq_obs::write_atomic(std::path::Path::new(&path), report.as_bytes()).unwrap_or_else(|e| {
        eprintln!("cannot write `{path}`: {e}");
        std::process::exit(1);
    });
    for e in &entries {
        println!(
            "{:<24} {:>8} iters  {:>14.1} ns/iter  (p50 {:.0}, p99 {:.0})",
            e.name, e.iters, e.nanos_per_iter, e.p50_nanos, e.p99_nanos
        );
    }
    println!("report written    : {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, threads: usize, mean: f64, p50: f64) -> Entry {
        Entry {
            name: name.to_string(),
            iters: 30,
            threads,
            degraded: false,
            total_nanos: (mean * 30.0) as u64,
            nanos_per_iter: mean,
            p50_nanos: p50,
            p90_nanos: p50,
            p99_nanos: p50,
            parallel_efficiency: None,
        }
    }

    /// A full-mode report from a two-CPU host on which every `--check`
    /// row runs and passes.
    fn full() -> Report {
        Report {
            mode: "full".to_string(),
            available_parallelism: 2,
            probe_speedup: None,
            entries: vec![
                entry("solve/static", 1, 100_000.0, 100_000.0),
                entry("solve/dynamic", 1, 12e6, 12e6),
                entry("mc/threads_1", 1, 10e6, 10e6),
                entry("mc_batched/threads_1", 1, 3.2e6, 3.4e6),
                entry("mc_batched/threads_max", 2, 1.6e6, 1.7e6),
                entry("serve_scrape", 1, 3.3e6, 3.3e6),
                entry("serve_decide", 2, 15e3, 20e3),
            ],
        }
    }

    fn smoke() -> Report {
        Report {
            mode: "smoke".to_string(),
            ..full()
        }
    }

    /// `report` with `edit` applied to its entry `name`.
    fn with(mut report: Report, name: &str, edit: impl FnOnce(&mut Entry)) -> Report {
        edit(
            report
                .entries
                .iter_mut()
                .find(|e| e.name == name)
                .expect("entry to edit"),
        );
        report
    }

    fn degraded(report: Report, name: &str) -> Report {
        with(report, name, |e| e.degraded = true)
    }

    /// Asserts the exit code and exactly which gates were skipped.
    #[track_caller]
    fn assert_outcome(outcomes: &[Outcome], code: i32, skipped: &[&str]) {
        let skips: Vec<&str> = outcomes
            .iter()
            .filter(|o| o.verdict == Verdict::Skip)
            .map(|o| o.gate)
            .collect();
        assert_eq!((conclude(outcomes), skips.as_slice()), (code, skipped));
    }

    /// How many of `gate`'s outcomes passed.
    fn passes(outcomes: &[Outcome], gate: &str) -> usize {
        outcomes
            .iter()
            .filter(|o| o.gate == gate && o.verdict == Verdict::Pass)
            .count()
    }

    #[test]
    fn batched_vs_scalar_row() {
        let outcomes = check(&full(), None);
        assert_outcome(&outcomes, 0, &[]);
        assert_eq!(passes(&outcomes, "batched-vs-scalar"), 1);
        // Equal means fail: the batched path must be strictly faster.
        let equal = with(full(), "mc_batched/threads_1", |e| e.nanos_per_iter = 10e6);
        assert_outcome(&check(&equal, None), 1, &[]);
        let slower = with(full(), "mc_batched/threads_1", |e| e.nanos_per_iter = 11e6);
        assert_outcome(&check(&slower, None), 1, &[]);
        let scalar = degraded(full(), "mc/threads_1");
        assert_outcome(&check(&scalar, None), 3, &["batched-vs-scalar"]);
        let batched = degraded(full(), "mc_batched/threads_1");
        assert_outcome(
            &check(&batched, None),
            3,
            &["batched-vs-scalar", "serve_scrape"],
        );
    }

    #[test]
    fn mc_throughput_row() {
        let at = |p50| {
            let r = with(full(), "mc_batched/threads_max", |e| e.p50_nanos = 2e6);
            with(r, "mc_batched/threads_1", |e| e.p50_nanos = p50)
        };
        let outcomes = check(&at(4e6), None);
        assert_outcome(&outcomes, 0, &[]);
        assert_eq!(passes(&outcomes, "mc-throughput"), 1);
        assert_outcome(&check(&at(4_000_001.0), None), 1, &[]);
        // The row never skips: a degraded entry does not excuse it.
        let excused = degraded(at(4_000_001.0), "mc_batched/threads_1");
        assert_outcome(
            &check(&excused, None),
            1,
            &["batched-vs-scalar", "serve_scrape"],
        );
    }

    #[test]
    fn mc_scaling_row() {
        // 3.4 ms over 2 ms is a speedup of exactly 1.7.
        let exact = with(full(), "mc_batched/threads_max", |e| e.p50_nanos = 2e6);
        let outcomes = check(&exact, None);
        assert_outcome(&outcomes, 0, &[]);
        assert_eq!(passes(&outcomes, "mc-scaling"), 1);
        let slow = with(full(), "mc_batched/threads_max", |e| e.p50_nanos = 2.1e6);
        assert_outcome(&check(&slow, None), 1, &[]);
        let one_cpu = Report {
            available_parallelism: 1,
            ..slow
        };
        assert_outcome(&check(&one_cpu, None), 3, &["mc-scaling"]);
        let tmax = degraded(full(), "mc_batched/threads_max");
        assert_outcome(&check(&tmax, None), 3, &["mc-scaling"]);
    }

    #[test]
    fn serve_scrape_row() {
        // 3.36 ms is exactly 1.05 × the 3.2 ms batched mean.
        let exact = with(full(), "serve_scrape", |e| e.nanos_per_iter = 3.36e6);
        let outcomes = check(&exact, None);
        assert_outcome(&outcomes, 0, &[]);
        assert_eq!(passes(&outcomes, "serve_scrape"), 1);
        let over = with(full(), "serve_scrape", |e| e.nanos_per_iter = 3.37e6);
        assert_outcome(&check(&over, None), 1, &[]);
        let scrape = degraded(full(), "serve_scrape");
        assert_outcome(&check(&scrape, None), 3, &["serve_scrape"]);
    }

    #[test]
    fn serve_decide_row() {
        let exact = with(full(), "serve_decide", |e| e.p50_nanos = 50_000.0);
        let outcomes = check(&exact, None);
        assert_outcome(&outcomes, 0, &[]);
        assert_eq!(passes(&outcomes, "serve_decide"), 1);
        let over = with(full(), "serve_decide", |e| e.p50_nanos = 50_001.0);
        assert_outcome(&check(&over, None), 1, &[]);
        let decide = degraded(full(), "serve_decide");
        assert_outcome(&check(&decide, None), 3, &["serve_decide"]);
    }

    #[test]
    fn regression_row() {
        let base = full();
        // Without a baseline the row is not asked for.
        assert_eq!(passes(&check(&full(), None), "regression"), 0);
        let exact = with(full(), "solve/static", |e| e.nanos_per_iter = 125_000.0);
        let outcomes = check(&exact, Some(&base));
        assert_outcome(&outcomes, 0, &[]);
        assert_eq!(
            passes(&outcomes, "regression"),
            2,
            "one pass per solve/* entry"
        );
        let slower = with(full(), "solve/static", |e| e.nanos_per_iter = 125_001.0);
        assert_outcome(&check(&slower, Some(&base)), 1, &[]);
        let fresh = degraded(full(), "solve/static");
        assert_outcome(&check(&fresh, Some(&base)), 3, &["regression"]);
        let committed = degraded(full(), "solve/static");
        let outcomes = check(&full(), Some(&committed));
        assert_outcome(&outcomes, 3, &["regression"]);
        assert!(outcomes.iter().any(|o| o.detail.contains("`solve/static`")));
        // An entry the baseline lacks is not evaluated, and not listed.
        let mut new = full();
        new.entries.push(entry("solve/new", 1, 5.0, 5.0));
        let outcomes = check(&new, Some(&base));
        assert_outcome(&outcomes, 0, &[]);
        assert_eq!(passes(&outcomes, "regression"), 2);
        assert_outcome(&check(&full(), Some(&smoke())), 3, &["regression"]);
    }

    #[test]
    fn scaling_smoke_row() {
        let run_probed = |cpus: u64, probe: Option<f64>, entries: Vec<Entry>| -> Vec<Outcome> {
            let report = Report {
                mode: "scaling-smoke".to_string(),
                available_parallelism: cpus,
                probe_speedup: probe,
                entries,
            };
            GATES
                .iter()
                .filter(|g| g.mode == "scaling-smoke")
                .flat_map(|g| g.evaluate(&report, None))
                .collect()
        };
        let run = |cpus: u64, entries: Vec<Entry>| run_probed(cpus, Some(2.0), entries);
        let timed = |tmax_p50| {
            vec![
                entry("mc_batched/threads_1", 1, 3e6, 3e6),
                entry("mc_batched/threads_max", 2, tmax_p50, tmax_p50),
            ]
        };
        // 3 ms over 2 ms is a speedup of exactly 1.5.
        let outcomes = run(2, timed(2e6));
        assert_outcome(&outcomes, 0, &[]);
        assert_eq!(passes(&outcomes, "scaling-smoke"), 1);
        assert_outcome(&run(2, timed(2.1e6)), 1, &[]);
        // One CPU skips before any entry is read, so none need exist.
        assert_outcome(&run(1, Vec::new()), 3, &["scaling-smoke"]);
        // So does a host whose CPU-bound probe shows less parallelism
        // than the bound, whatever the timed entries would have said;
        // the reason names the probe's speedup.
        let throttled = run_probed(2, Some(1.02), Vec::new());
        assert_outcome(&throttled, 3, &["scaling-smoke"]);
        let reason = &throttled[0].detail;
        assert!(reason.contains("1.02x"), "{reason}");
        let ignored = run_probed(2, Some(1.02), timed(2e6));
        assert_outcome(&ignored, 3, &["scaling-smoke"]);
        // A probe at the bound runs the row; the entries decide.
        assert_outcome(&run_probed(2, Some(1.5), timed(2.1e6)), 1, &[]);
    }

    #[test]
    fn smoke_report_lists_every_full_mode_row() {
        let full_rows = [
            "batched-vs-scalar",
            "mc-throughput",
            "mc-scaling",
            "serve_scrape",
            "serve_decide",
        ];
        assert_outcome(&check(&smoke(), None), 3, &full_rows);
        let and_regression: Vec<&str> = full_rows.into_iter().chain(["regression"]).collect();
        assert_outcome(&check(&smoke(), Some(&full())), 3, &and_regression);
    }

    #[test]
    fn check_requires_every_entry_a_row_names() {
        for mode in ["full", "smoke"] {
            for name in [
                "serve_decide",
                "mc/threads_1",
                "mc_batched/threads_max",
                "serve_scrape",
            ] {
                // On one CPU mc-scaling skips, yet still needs its entries.
                let mut report = Report {
                    mode: mode.to_string(),
                    available_parallelism: 1,
                    ..full()
                };
                report.entries.retain(|e| e.name != name);
                let code = conclude(&check(&report, None));
                assert_eq!(code, 1, "{mode} report without {name}");
            }
        }
    }

    #[test]
    fn committed_baseline_skips_exactly_the_degraded_gates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
        let report = load_report(path).expect("the committed report loads");
        let skipped = ["mc-scaling", "serve_scrape", "serve_decide"];
        assert_outcome(&check(&report, None), 3, &skipped);
        let outcomes = check(&report, Some(&report));
        assert_outcome(&outcomes, 3, &skipped);
        let solvers = report
            .entries
            .iter()
            .filter(|e| e.name.starts_with("solve/"));
        assert_eq!(passes(&outcomes, "regression"), solvers.count());
    }

    #[test]
    fn every_gate_is_documented_in_operations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/OPERATIONS.md");
        let doc = std::fs::read_to_string(path).expect("docs/OPERATIONS.md");
        for g in GATES {
            let row = format!("| `{}` |", g.name);
            assert!(
                doc.contains(&row),
                "docs/OPERATIONS.md has no gate table row {row}"
            );
        }
    }
}
