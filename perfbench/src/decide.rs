//! The decision-service workloads. `decide_mix` drives seeded, unshared
//! `/decide` bodies through an in-process `DecisionService`;
//! `decide_wire` replays a catalogue of lattice-answered queries over
//! keep-alive HTTP to the same service behind the shared serving core.
//! Both are closed loops with one client: a job waits for its answer.

use crate::gen::{self, Family, MixStream, Query, WireCandidates};
use crate::speed::Speed;
use crate::stats::{median, quantile, ratio, Latencies};
use crate::trace::{self, Layer, Span, Tracer};
use crate::{Args, Report};
use resq::core::lattice::{self, solve_exact, REL_FLOOR};
use resq::obs::http::{self, Handler, Response, ServerConfig};
use resq::obs::json::{self, JsonValue};
use resq::obs::metrics::{
    DECIDE_FALLBACKS_TOTAL, DECIDE_LATTICE_HITS_TOTAL, DECIDE_REJECTED_TOTAL,
    DECIDE_REQUESTS_TOTAL, DECIDE_TIMEOUTS_TOTAL, SOLVER_CACHE_HITS_TOTAL,
    SOLVER_CACHE_MISSES_TOTAL,
};
use resq::{
    AnswerSource, LatticeSpec, LawFamily, PolicyAnswer, PolicyLattice, PolicyQuery, SolveCache,
};
use resq_cli::serve::{frame_handler, http_handler, render_answer, task_params, DecisionService};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// `resq serve`'s defaults.
const SHARDS: usize = 8;
const MAX_INFLIGHT: usize = 64;
const DEADLINE: Duration = Duration::from_millis(1000);

/// Lattices set-up builds, with nodes per axis. The library's default
/// grids (13 and 9 nodes) take ~26 s to build on a 2-core host and
/// set-up runs several times per run, so the benchmark builds coarse
/// grids (~1.5 s together); the hit ratio they reach is reported per
/// family. Normal and lognormal have none and answer exact-only.
const MIX_LATTICES: &[(LawFamily, usize)] = &[(LawFamily::Exponential, 5), (LawFamily::Uniform, 3)];
const WIRE_LATTICES: &[(LawFamily, usize)] = &[(LawFamily::Exponential, 5)];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Lattice-answered queries in the `decide_wire` catalogue, and the
/// work levels each is asked "checkpoint now?" at.
const CATALOGUE: usize = 256;
const WORK_LEVELS: usize = 16;

/// One answer in this many is re-solved exactly by the correctness
/// check (`decide_mix` requests; `decide_wire` catalogue entries).
const CHECK_EVERY: u64 = 16;

/// Requests traced per run: enough for stable per-layer p99s, few
/// enough to keep the span buffer small.
const MAX_TRACED: u64 = 10_000;

/// Wall time of each lattice build, by family.
type BuildTimes = Vec<(LawFamily, f64)>;

/// The service with its lattices built, and each build's wall time.
fn build_service(
    lattices: &[(LawFamily, usize)],
) -> Result<(Arc<DecisionService>, BuildTimes), String> {
    let mut built = Vec::new();
    let mut build_s = Vec::new();
    for &(family, points) in lattices {
        let t0 = Instant::now();
        let lattice = lattice::build(&LatticeSpec::defaults(family).with_points(points))
            .map_err(|e| format!("building the {} lattice: {e}", family.name()))?;
        build_s.push((family, t0.elapsed().as_secs_f64()));
        built.push(lattice);
    }
    let service = DecisionService::new(built, SHARDS, MAX_INFLIGHT).with_deadline(Some(DEADLINE));
    Ok((Arc::new(service), build_s))
}

/// Parses a `/decide` body with the public calls the service's own
/// parser makes (`resq_obs::json::parse`, `serve::task_params`).
fn parse_body(body: &str) -> Result<(PolicyQuery, f64), String> {
    let v = json::parse(body).map_err(|e| e.to_string())?;
    let num = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("body lacks numeric `{k}`"))
    };
    let task = v
        .get("task")
        .and_then(JsonValue::as_str)
        .ok_or("body lacks `task`")?;
    let q = PolicyQuery {
        task: task_params(task).map_err(|e| e.0)?,
        ckpt_mean: num("ckpt_mean")?,
        ckpt_sigma: num("ckpt_sigma")?,
        r: num("reservation")?,
    };
    Ok((q, num("work")?))
}

/// A `/decide` answer read back from its JSON.
struct Answer {
    lattice: bool,
    x_opt: f64,
    n_opt: u64,
    expected_work: f64,
    w_int: Option<f64>,
}

/// Reads an answer body, checking it is well formed and that its
/// `checkpoint_now` follows its own threshold at `work`.
fn read_answer(body: &str, work: f64) -> Result<Answer, String> {
    let v = json::parse(body).map_err(|e| format!("answer is not JSON ({e}): {body}"))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("answer lacks `{k}`: {body}"))
    };
    let lattice = match v.get("source").and_then(JsonValue::as_str) {
        Some("lattice") => true,
        Some("exact") => false,
        _ => return Err(format!("answer has no source: {body}")),
    };
    let w_int = match v.get("w_int") {
        Some(JsonValue::Null) => None,
        _ => Some(num("w_int")?),
    };
    let now = v
        .get("checkpoint_now")
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("answer lacks `checkpoint_now`: {body}"))?;
    if now != w_int.is_some_and(|w| work >= w) {
        return Err(format!(
            "checkpoint_now contradicts w_int at work {work}: {body}"
        ));
    }
    Ok(Answer {
        lattice,
        x_opt: num("x_opt")?,
        n_opt: v
            .get("n_opt")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("answer lacks `n_opt`: {body}"))?,
        expected_work: num("expected_work")?,
        w_int,
    })
}

/// Re-solves `body`'s query with `solve_exact` and checks `answer`
/// against it: byte-equal when the service answered exactly; within the
/// lattice's `tolerance · max(|v|, REL_FLOOR·R)` rule, `n_opt` ±1 at a
/// plateau boundary, when it answered from the lattice (the rule
/// `resq lattice verify` applies).
fn check_exact(
    service: &DecisionService,
    body: &str,
    answer: &str,
    cache: &mut SolveCache,
) -> Result<(), String> {
    let (q, work) = parse_body(body)?;
    let exact = solve_exact(&q, cache).map_err(|e| format!("reference solve of {body}: {e}"))?;
    let got = read_answer(answer, work)?;
    if !got.lattice {
        let want = render_answer(&exact, Some(work));
        return if want == answer {
            Ok(())
        } else {
            Err(format!(
                "exact answer {answer} differs from the re-solve {want}"
            ))
        };
    }
    let tolerance = service
        .lattice(q.task.family())
        .ok_or_else(|| format!("lattice answer for a family without a lattice: {body}"))?
        .tolerance();
    let floor = REL_FLOOR * q.r;
    let close = |a: f64, b: f64| (a - b).abs() <= tolerance * b.abs().max(floor);
    let w_ok = match (got.w_int, exact.w_int) {
        (Some(a), Some(b)) => close(a, b),
        (None, None) => true,
        _ => false,
    };
    if close(got.x_opt, exact.x_opt)
        && close(got.expected_work, exact.expected_work)
        && w_ok
        && got.n_opt.abs_diff(exact.n_opt) <= 1
    {
        Ok(())
    } else {
        Err(format!(
            "lattice answer {answer} is outside tolerance {tolerance} of the exact {exact:?}"
        ))
    }
}

/// One decision through the service the way its HTTP handler runs it.
fn answer_in_process(service: &DecisionService, body: &str) -> Result<String, String> {
    if !service.admit() {
        return Err("shed: service saturated".into());
    }
    let result = service.answer_single(body);
    service.release();
    result.map_err(|e| e.render())
}

/// `DecisionService::answer_single` rebuilt from the public calls it
/// makes, with a span around each layer. `serve.decide` runs what
/// `DecisionService::decide` runs (the family's lattice from
/// `DecisionService::lattice`, then `PolicyLattice::query` or
/// `solve_exact` on a round-robin solve cache) minus its counters; the
/// per-request deadline is not checked.
fn answer_traced(
    service: &DecisionService,
    caches: &mut [SolveCache],
    tracer: &Tracer,
    request: u64,
    parent: Layer,
    body: &str,
) -> Result<String, String> {
    let (q, work) = tracer.time(request, Layer::Parse, Some(parent), || parse_body(body))?;
    if !tracer.time(request, Layer::Admit, Some(parent), || service.admit()) {
        return Err("shed: service saturated".into());
    }
    let family = q.task.family().name();
    let decide_start = Instant::now();
    let lattice = service.lattice(q.task.family());
    let cache = &mut caches[request as usize % caches.len()];
    let t0 = Instant::now();
    let answer = match &lattice {
        Some(l) => l.query(&q, cache),
        None => solve_exact(&q, cache),
    };
    let t1 = Instant::now();
    let child = match &answer {
        Ok(a) if a.source == AnswerSource::Lattice => Layer::Lookup,
        _ => Layer::Exact,
    };
    tracer.record(request, child, Some(Layer::Decide), family, t0, t1);
    tracer.record(
        request,
        Layer::Decide,
        Some(parent),
        family,
        decide_start,
        Instant::now(),
    );
    service.release();
    let answer = answer.map_err(|e| e.to_string())?;
    Ok(tracer.time(request, Layer::Render, Some(parent), || {
        render_answer(&answer, Some(work))
    }))
}

fn new_caches() -> Vec<SolveCache> {
    (0..SHARDS).map(|_| SolveCache::new()).collect()
}

/// What a run saw, across its phases.
#[derive(Default)]
struct Tally {
    attempted: u64,
    errors: u64,
    wrong: u64,
    /// Per family, in `Family::ALL` order: answers, lattice answers.
    answers: [(u64, u64); 4],
    /// `(body, answer)` pairs picked for the exact re-solve.
    sampled: Vec<(String, String)>,
}

impl Tally {
    fn error(&mut self, msg: &str) {
        self.errors += 1;
        if self.errors <= 3 {
            eprintln!("perfbench: request failed: {msg}");
        }
    }

    fn wrong(&mut self, msg: &str) {
        self.wrong += 1;
        if self.wrong <= 3 {
            eprintln!("perfbench: wrong answer: {msg}");
        }
    }

    fn answered(&mut self, family: Family, lattice: bool) {
        let slot = &mut self.answers[family as usize];
        slot.0 += 1;
        slot.1 += lattice as u64;
    }

    fn report(self, metrics: Vec<(String, f64)>, spans: Vec<Span>) -> Report {
        Report {
            attempted: self.attempted,
            failed: self.errors + self.wrong,
            wrong: self.wrong,
            metrics,
            spans,
        }
    }
}

/// Scaled latencies (µs) of one phase of back-to-back requests, and the
/// scaled time they took in all (s).
struct Phase {
    latencies: Latencies,
    busy: f64,
}

/// Service counters, read before and after the untraced phase.
#[derive(Clone, Copy)]
struct Counters([u64; 7]);

impl Counters {
    fn now() -> Self {
        Counters([
            DECIDE_REQUESTS_TOTAL.get(),
            DECIDE_LATTICE_HITS_TOTAL.get(),
            DECIDE_FALLBACKS_TOTAL.get(),
            DECIDE_REJECTED_TOTAL.get(),
            DECIDE_TIMEOUTS_TOTAL.get(),
            SOLVER_CACHE_HITS_TOTAL.get(),
            SOLVER_CACHE_MISSES_TOTAL.get(),
        ])
    }

    fn since(self, before: Counters) -> Counters {
        let mut d = self.0;
        for (x, b) in d.iter_mut().zip(before.0) {
            *x -= b;
        }
        Counters(d)
    }
}

/// Set-up repeated `repeats` times; the last result serves the run.
struct SetUp<T> {
    value: T,
    setup_s: f64,
    build_s: BuildTimes,
}

fn set_up<T>(
    repeats: usize,
    speed: &mut Speed,
    mut once: impl FnMut() -> Result<(T, BuildTimes), String>,
) -> Result<SetUp<T>, String> {
    let mut times = Vec::new();
    let mut builds: BuildTimes = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        speed.probe();
        let t0 = Instant::now();
        let (value, build) = once()?;
        times.push(t0.elapsed().as_secs_f64() * speed.factor());
        builds.extend(build);
        last = Some(value);
    }
    let mut build_s = Vec::new();
    for family in LawFamily::ALL {
        let of: Vec<f64> = builds
            .iter()
            .filter(|b| b.0 == *family)
            .map(|b| b.1)
            .collect();
        if !of.is_empty() {
            build_s.push((*family, median(&of)));
        }
    }
    Ok(SetUp {
        value: last.expect("at least one set-up ran"),
        setup_s: median(&times),
        build_s,
    })
}

/// The metrics every `decide_*` run reports from its untraced phase.
fn end_to_end(phase: &Phase, setup_s: f64) -> Vec<(String, f64)> {
    vec![
        ("latency_p50_us".into(), phase.latencies.quantile(0.5)),
        ("latency_p99_us".into(), phase.latencies.quantile(0.99)),
        (
            "throughput_per_s".into(),
            phase.latencies.len() as f64 / phase.busy,
        ),
        ("setup_s".into(), setup_s),
    ]
}

/// The per-layer metrics both `decide_*` workloads share.
fn layer_metrics(
    metrics: &mut Vec<(String, f64)>,
    spans: &[Span],
    counters: Counters,
    tally: &Tally,
    build_s: &[(LawFamily, f64)],
    untraced: &Phase,
    traced: &Phase,
) {
    let us = |layer, q| quantile(&trace::durations(spans, layer, None), q) / 1e3;
    let [requests, hits, fallbacks, rejected, timeouts, cache_hits, cache_misses] =
        counters.0.map(|c| c as f64);
    metrics.extend([
        ("serve.parse_us.p50".into(), us(Layer::Parse, 0.5)),
        ("serve.decide_us.p50".into(), us(Layer::Decide, 0.5)),
        ("serve.decide_us.p99".into(), us(Layer::Decide, 0.99)),
        ("serve.render_us.p50".into(), us(Layer::Render, 0.5)),
        ("lattice.lookup_us.p50".into(), us(Layer::Lookup, 0.5)),
        ("lattice.lookup_us.p99".into(), us(Layer::Lookup, 0.99)),
        ("lattice.hit_ratio".into(), ratio(hits, requests)),
        ("solve.exact_count".into(), fallbacks),
        (
            "solve_cache.hit_ratio".into(),
            ratio(cache_hits, cache_hits + cache_misses),
        ),
        ("admission.rejected".into(), rejected),
        ("serve.timeouts".into(), timeouts),
        (
            "decide_fail_ratio".into(),
            ratio((tally.errors + tally.wrong) as f64, tally.attempted as f64),
        ),
        (
            "trace.overhead_ratio".into(),
            traced.latencies.quantile(0.5) / untraced.latencies.quantile(0.5) - 1.0,
        ),
    ]);
    for family in Family::ALL {
        let (answers, lattice) = tally.answers[family as usize];
        let name = family.name();
        metrics.push((
            format!("lattice.hit_ratio.{name}"),
            ratio(lattice as f64, answers as f64),
        ));
        let exact_ms = trace::durations(spans, Layer::Exact, Some(name));
        metrics.push((
            format!("solve.exact_ms.{name}.p50"),
            quantile(&exact_ms, 0.5) / 1e6,
        ));
        metrics.push((
            format!("solve.exact_ms.{name}.p99"),
            quantile(&exact_ms, 0.99) / 1e6,
        ));
    }
    for (family, s) in build_s {
        metrics.push((format!("lattice.build_s.{}", family.name()), *s));
    }
    let times = trace::layer_times(spans);
    if let Some(decide) = times.iter().find(|t| t.layer == Layer::Decide) {
        metrics.push((
            "trace.unattributed_ratio".into(),
            ratio(decide.self_ns, decide.total_ns),
        ));
    }
}

/// Checks the sampled answers against fresh exact solves.
fn verify_sampled(service: &DecisionService, tally: &mut Tally) {
    let mut cache = SolveCache::new();
    for (body, answer) in std::mem::take(&mut tally.sampled) {
        if let Err(e) = check_exact(service, &body, &answer, &mut cache) {
            tally.wrong(&e);
        }
    }
}

// ---------------------------------------------------------------------
// decide_mix
// ---------------------------------------------------------------------

/// One phase of the mix: the stream's next bodies through the service
/// for `seconds` (or `MAX_TRACED` requests when traced).
fn mix_phase(
    service: &DecisionService,
    stream: &mut MixStream,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
    speed: &mut Speed,
) -> Phase {
    let mut caches = new_caches();
    let start = Instant::now();
    let mut latencies = Latencies::new();
    let mut busy = 0.0;
    while start.elapsed().as_secs_f64() < seconds
        && (tracer.is_none() || latencies.len() < MAX_TRACED)
    {
        speed.tick();
        let req = stream.next().expect("the mix stream is endless");
        let body = req.body();
        let id = tally.attempted;
        tally.attempted += 1;
        let t0 = Instant::now();
        let result = match tracer {
            None => answer_in_process(service, &body),
            Some(t) => answer_traced(service, &mut caches, t, id, Layer::Request, &body),
        };
        let t1 = Instant::now();
        if let Some(t) = tracer {
            t.record(id, Layer::Request, None, req.query.family.name(), t0, t1);
        }
        let scaled = (t1 - t0).as_secs_f64() * speed.factor();
        latencies.record(scaled * 1e6);
        busy += scaled;
        let answer = match result {
            Ok(answer) => answer,
            Err(e) => {
                tally.error(&format!("{e} for {body}"));
                continue;
            }
        };
        match read_answer(&answer, req.work) {
            Err(e) => tally.wrong(&e),
            Ok(a) => {
                tally.answered(req.query.family, a.lattice);
                if gen::sampled_for_check(seed, id, CHECK_EVERY) {
                    tally.sampled.push((body, answer));
                }
            }
        }
    }
    Phase { latencies, busy }
}

pub fn run_mix(args: &Args) -> Result<Report, String> {
    let mut speed = Speed::new();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let setup = set_up(repeats, &mut speed, || build_service(MIX_LATTICES))?;
    let service = setup.value;
    let mut stream = MixStream::new(args.seed);
    let mut tally = Tally::default();

    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before = Counters::now();
    let untraced = mix_phase(
        &service,
        &mut stream,
        args.seed,
        untraced_s,
        None,
        &mut tally,
        &mut speed,
    );
    let counters = Counters::now().since(before);
    let mut metrics = end_to_end(&untraced, setup.setup_s);
    let mut spans = Vec::new();
    if args.trace {
        let tracer = Tracer::new();
        let traced = mix_phase(
            &service,
            &mut stream,
            args.seed,
            args.seconds / 2.0,
            Some(&tracer),
            &mut tally,
            &mut speed,
        );
        spans = tracer.spans();
        layer_metrics(
            &mut metrics,
            &spans,
            counters,
            &tally,
            &setup.build_s,
            &untraced,
            &traced,
        );
    }
    eprintln!(
        "perfbench: {} decisions ({} untraced), {} re-solved exactly",
        tally.attempted,
        untraced.latencies.len(),
        tally.sampled.len()
    );
    speed.report();
    verify_sampled(&service, &mut tally);
    Ok(tally.report(metrics, spans))
}

// ---------------------------------------------------------------------
// decide_wire
// ---------------------------------------------------------------------

fn server_config() -> ServerConfig {
    let mut cfg = ServerConfig::new("127.0.0.1:0");
    cfg.workers = 1;
    cfg
}

/// One request of the replay plan: its body, its HTTP bytes and the
/// answer the in-process service gives for it.
struct Planned {
    body: String,
    http: Vec<u8>,
    expected: Vec<u8>,
}

/// The cells of `lattice` that passed build-time calibration, read from
/// its artifact document (`axes` and the row-major, last-axis-fastest
/// `cell_ok`), as normalized `(lo, hi)` bounds per axis. Each cell is cut
/// to the half along every axis next to its stride-2 (coarse) node,
/// where the lattice's two-resolution check passes most often: a miss
/// costs the catalogue an exact solve.
fn serveable_cells(lattice: &PolicyLattice) -> Result<Vec<Vec<(f64, f64)>>, String> {
    let doc = json::parse(&lattice.to_json()).map_err(|e| format!("lattice artifact: {e}"))?;
    let JsonValue::Array(mask) = doc.get("cell_ok").ok_or("artifact lacks cell_ok")? else {
        return Err("artifact cell_ok is not an array".into());
    };
    let axes = lattice.axes();
    let mut cells = Vec::new();
    for (flat, ok) in mask.iter().enumerate() {
        if ok.as_u64() != Some(1) {
            continue;
        }
        let mut rest = flat;
        let mut bounds = vec![(0.0, 0.0); axes.len()];
        for (a, axis) in axes.iter().enumerate().rev() {
            let per_axis = axis.points - 1;
            let i = rest % per_axis;
            rest /= per_axis;
            let step = (axis.hi - axis.lo) / per_axis as f64;
            let near = axis.lo + (i + i % 2) as f64 * step;
            let far = near + if i % 2 == 0 { 0.5 } else { -0.5 } * step;
            bounds[a] = (near.min(far), near.max(far));
        }
        cells.push(bounds);
    }
    if cells.is_empty() {
        return Err("no lattice cell passed calibration".into());
    }
    Ok(cells)
}

/// The first `CATALOGUE` queries of the seeded exponential stream over
/// the lattice's serveable cells that the service answers from its
/// lattice, with those answers.
fn catalogue(service: &DecisionService, seed: u64) -> Result<Vec<(Query, PolicyAnswer)>, String> {
    let lattice = service
        .lattice(LawFamily::Exponential)
        .ok_or("the wire service has no exponential lattice")?;
    let mut out = Vec::with_capacity(CATALOGUE);
    for (tried, q) in WireCandidates::new(seed, serveable_cells(&lattice)?).enumerate() {
        if out.len() == CATALOGUE {
            break;
        }
        if tried >= 4 * CATALOGUE {
            return Err(format!(
                "only {} of {tried} candidates hit the lattice",
                out.len()
            ));
        }
        let (pq, _) = parse_body(&q.body(0.0))?;
        let answer = service.decide(&pq).map_err(|e| e.render())?;
        if answer.source == AnswerSource::Lattice {
            out.push((q, answer));
        }
    }
    Ok(out)
}

/// A keep-alive HTTP/1.1 client for `POST /decide`.
struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl HttpClient {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::new(),
        }
    }

    /// Sends one request and reads its response: status and body. Any
    /// transport error drops the connection; the next call reconnects.
    fn post(&mut self, request: &[u8]) -> Result<(u16, Vec<u8>), String> {
        let result = self.exchange(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, request: &[u8]) -> Result<(u16, Vec<u8>), String> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(Duration::from_secs(10)))
                .map_err(|e| e.to_string())?;
            self.stream = Some(s);
            self.buf.clear();
        }
        self.stream
            .as_mut()
            .expect("connected above")
            .write_all(request)
            .map_err(|e| format!("send: {e}"))?;
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line: {head}"))?;
        let (mut len, mut close) = (0usize, false);
        for line in head.lines() {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad content-length: {head}"))?;
                } else if k.eq_ignore_ascii_case("connection") {
                    close = v.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 4096];
        let stream = self
            .stream
            .as_mut()
            .expect("fill runs on an open connection");
        match stream.read(&mut chunk) {
            Ok(0) => Err("connection closed mid-response".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One phase of the replay: the plan, cycled, over one keep-alive
/// connection for `seconds` (or `MAX_TRACED` requests when traced).
fn wire_phase(
    addr: SocketAddr,
    plan: &[Planned],
    seconds: f64,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
    speed: &mut Speed,
) -> Phase {
    let mut client = HttpClient::new(addr);
    let start = Instant::now();
    let mut latencies = Latencies::new();
    let mut busy = 0.0;
    while start.elapsed().as_secs_f64() < seconds
        && (tracer.is_none() || latencies.len() < MAX_TRACED)
    {
        speed.tick();
        let p = &plan[latencies.len() as usize % plan.len()];
        let id = tally.attempted;
        tally.attempted += 1;
        let t0 = Instant::now();
        let result = client.post(&p.http);
        let t1 = Instant::now();
        if let Some(t) = tracer {
            t.record(id, Layer::Request, None, "exponential", t0, t1);
        }
        let scaled = (t1 - t0).as_secs_f64() * speed.factor();
        latencies.record(scaled * 1e6);
        busy += scaled;
        match result {
            Err(e) => tally.error(&e),
            Ok((200, body)) if body == p.expected => tally.answered(Family::Exponential, true),
            Ok((200, body)) => tally.wrong(&format!(
                "{} differs from the in-process answer {}",
                String::from_utf8_lossy(&body),
                String::from_utf8_lossy(&p.expected)
            )),
            Ok((status, body)) => tally.error(&format!(
                "HTTP {status}: {}",
                String::from_utf8_lossy(&body)
            )),
        }
    }
    Phase { latencies, busy }
}

/// The benchmark's own handler for the traced phase: `POST /decide`
/// through [`answer_traced`], numbering requests in the order the single
/// client sends them, from `first`.
fn traced_handler(service: Arc<DecisionService>, tracer: Arc<Tracer>, first: u64) -> Handler {
    let next = AtomicU64::new(first);
    let caches = Mutex::new(new_caches());
    Arc::new(move |req: &http::Request| {
        let id = next.fetch_add(1, Ordering::SeqCst);
        let t0 = Instant::now();
        let body = String::from_utf8_lossy(&req.body);
        let result = {
            let mut caches = caches.lock().expect("solve caches lock poisoned");
            answer_traced(&service, &mut caches, &tracer, id, Layer::Handle, &body)
        };
        let response = match result {
            Ok(answer) => Response::ok("application/json", answer),
            Err(e) => {
                Response::error_with_body(500, "Internal Server Error", "application/json", e)
            }
        };
        tracer.record(
            id,
            Layer::Handle,
            Some(Layer::Request),
            "exponential",
            t0,
            Instant::now(),
        );
        response
    })
}

/// Round trips (µs) of one pass of the plan over the length-prefixed
/// framed protocol.
fn framed_pass(addr: SocketAddr, plan: &[Planned], tally: &mut Tally) -> Result<Vec<f64>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut latencies = Vec::with_capacity(plan.len());
    for p in plan {
        let mut frame = (p.body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(p.body.as_bytes());
        tally.attempted += 1;
        let t0 = Instant::now();
        let exchanged = (|| -> std::io::Result<Vec<u8>> {
            stream.write_all(&frame)?;
            let mut len = [0u8; 4];
            stream.read_exact(&mut len)?;
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            stream.read_exact(&mut payload)?;
            Ok(payload)
        })();
        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
        match exchanged {
            Err(e) => return Err(format!("framed exchange: {e}")),
            Ok(payload) if payload == p.expected => tally.answered(Family::Exponential, true),
            Ok(payload) => tally.wrong(&format!(
                "framed answer {}",
                String::from_utf8_lossy(&payload)
            )),
        }
    }
    Ok(latencies)
}

/// Pins the calling thread, and every thread it spawns later, to the CPU
/// it is running on. Client and server then hand each request over on
/// one core: otherwise a round trip costs 16, 23 or 37 µs on a 2-core
/// host depending on where the scheduler places the two threads, and
/// that placement, not the request path, sets the run's figures.
fn pin_to_current_cpu() -> Option<i32> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments. `sched_setaffinity`
    // reads `cpusetsize` bytes from `mask`, which is a live local array of
    // exactly that size; pid 0 names the calling thread.
    unsafe {
        let cpu = sched_getcpu();
        let mut mask = [0u64; 16];
        let slot = usize::try_from(cpu).ok().filter(|&c| c < 64 * mask.len())?;
        mask[slot / 64] |= 1 << (slot % 64);
        (sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0).then_some(cpu)
    }
}

pub fn run_wire(args: &Args) -> Result<Report, String> {
    match pin_to_current_cpu() {
        Some(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
        None => eprintln!("perfbench: could not pin to one CPU; running unpinned"),
    }
    let mut speed = Speed::new();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut servers = Vec::new();
    let setup = set_up(repeats, &mut speed, || {
        let (service, build_s) = build_service(WIRE_LATTICES)?;
        let server = http::serve_with(server_config(), http_handler(Arc::clone(&service)))
            .map_err(|e| format!("binding the decision server: {e}"))?;
        let addr = server.local_addr();
        servers.push(server);
        Ok(((service, addr), build_s))
    })?;
    let last = servers.pop().expect("at least one set-up ran");
    for spare in servers {
        spare.stop();
    }
    let (service, addr) = setup.value;

    let t0 = Instant::now();
    let catalogue = catalogue(&service, args.seed)?;
    eprintln!(
        "perfbench: catalogue built in {:.2} s",
        t0.elapsed().as_secs_f64()
    );
    let queries: Vec<Query> = catalogue.iter().map(|c| c.0.clone()).collect();
    let plan: Vec<Planned> = gen::wire_plan(args.seed, &queries, WORK_LEVELS)
        .into_iter()
        .map(|(i, work)| {
            let body = queries[i].body(work);
            Planned {
                http: format!(
                    "POST /decide HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes(),
                expected: render_answer(&catalogue[i].1, Some(work)).into_bytes(),
                body,
            }
        })
        .collect();
    // Replies are compared byte for byte with the in-process answers,
    // and those are re-solved exactly for a seeded sample of the
    // catalogue.
    let mut tally = Tally::default();
    for (i, p) in plan.iter().take(CATALOGUE).enumerate() {
        if gen::sampled_for_check(args.seed, i as u64, CHECK_EVERY) {
            tally.sampled.push((
                p.body.clone(),
                String::from_utf8_lossy(&p.expected).into_owned(),
            ));
        }
    }

    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before = Counters::now();
    let untraced = wire_phase(addr, &plan, untraced_s, None, &mut tally, &mut speed);
    let counters = Counters::now().since(before);
    last.stop();
    let mut metrics = end_to_end(&untraced, setup.setup_s);
    let mut spans = Vec::new();
    if args.trace {
        let tracer = Arc::new(Tracer::new());
        let server = http::serve_with(
            server_config(),
            traced_handler(Arc::clone(&service), Arc::clone(&tracer), tally.attempted),
        )
        .map_err(|e| format!("binding the traced server: {e}"))?;
        let traced = wire_phase(
            server.local_addr(),
            &plan,
            args.seconds / 2.0,
            Some(&tracer),
            &mut tally,
            &mut speed,
        );
        server.stop();
        spans = tracer.spans();

        let framed_server =
            http::serve_framed(server_config(), frame_handler(Arc::clone(&service)))
                .map_err(|e| format!("binding the framed server: {e}"))?;
        let framed = framed_pass(framed_server.local_addr(), &plan, &mut tally);
        framed_server.stop();
        let framed = framed?;

        let mut in_process = Vec::with_capacity(plan.len());
        for p in &plan {
            let t0 = Instant::now();
            let answer = answer_in_process(&service, &p.body);
            in_process.push(t0.elapsed().as_secs_f64() * 1e6);
            if answer.as_deref().map(str::as_bytes) != Ok(&p.expected[..]) {
                tally.wrong(&format!("in-process answer {answer:?} for {}", p.body));
            }
        }
        layer_metrics(
            &mut metrics,
            &spans,
            counters,
            &tally,
            &setup.build_s,
            &untraced,
            &traced,
        );
        let http_p50 = untraced.latencies.quantile(0.5);
        metrics.extend([
            ("wire.http.rtt_us.p50".into(), http_p50),
            (
                "wire.http.rtt_us.p99".into(),
                untraced.latencies.quantile(0.99),
            ),
            ("wire.framed.rtt_us.p50".into(), median(&framed)),
            ("wire.framed.rtt_us.p99".into(), quantile(&framed, 0.99)),
            ("wire.overhead_us".into(), http_p50 - median(&in_process)),
        ]);
    }
    eprintln!(
        "perfbench: {} decisions ({} untraced) over a {}-query catalogue, {} re-solved exactly",
        tally.attempted,
        untraced.latencies.len(),
        catalogue.len(),
        tally.sampled.len()
    );
    speed.report();
    verify_sampled(&service, &mut tally);
    Ok(tally.report(metrics, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_bodies_parse_to_the_generated_laws() {
        for req in MixStream::new(5).take(200) {
            let (q, work) = parse_body(&req.body()).expect("generated bodies parse");
            assert_eq!(work, req.work);
            assert_eq!(q.r, req.query.reservation);
            assert_eq!(q.task.family().name(), req.query.family.name());
            q.validate().expect("generated queries are valid");
        }
    }

    #[test]
    fn answers_are_checked_against_their_own_threshold() {
        let ok = r#"{"source":"lattice","x_opt":1,"n_opt":3,"expected_work":2,"w_int":5,"checkpoint_now":true}"#;
        assert!(read_answer(ok, 6.0).is_ok());
        assert!(read_answer(ok, 4.0).is_err());
        let none = r#"{"source":"exact","x_opt":1,"n_opt":3,"expected_work":2,"w_int":null,"checkpoint_now":false}"#;
        assert!(!read_answer(none, 4.0).unwrap().lattice);
        assert!(read_answer(r#"{"error":{"kind":"parse"}}"#, 1.0).is_err());
    }
}
