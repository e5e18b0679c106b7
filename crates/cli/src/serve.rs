//! The `resq serve` decision service: a long-running daemon answering
//! "checkpoint now?" queries over HTTP (`POST /decide`,
//! `POST /decide/batch`) and a length-prefixed TCP fast path, built on
//! `resq_obs::http`'s dependency-free server core.
//!
//! The decision pipeline per request:
//!
//! 1. parse the wire JSON into a [`PolicyQuery`] (law specs use the same
//!    syntax as `resq lattice query --task`, via [`task_params`]);
//! 2. try the precomputed [`PolicyLattice`] for the query's law family —
//!    the O(µs) interpolation path with its built-in a-posteriori
//!    error discipline (`docs/LATTICES.md`);
//! 3. fall back to the exact solvers on one of several [`SolveCache`]
//!    shards behind their own locks (round-robin shard pick, so
//!    concurrent fallbacks don't serialize on one lock).
//!
//! Every answer is deterministic in the query: the lattice interpolation
//! is pure, and the exact solvers are deterministic and share nothing
//! between queries but the immutable quadrature rule a shard holds — so
//! concurrent clients observe byte-identical response bodies for
//! identical queries, whatever the shard answered before
//! (`tests/serve.rs` hammers this invariant from many threads).
//!
//! Admission control is a bounded in-flight counter: past
//! `max_inflight` the service answers `429` + `Retry-After` (a typed
//! `saturated` error on the framed path) and counts the shed in
//! `decide_rejected_total`; the accept-queue itself sheds with `503`
//! (see `resq_obs::http`). Counters `decide_requests_total`,
//! `decide_lattice_hits_total`, `decide_fallbacks_total` and the
//! `decide_queue_depth` gauge expose the pipeline on `/metrics`; each
//! decision runs under a `serve/decide` span.
//!
//! Wire errors are *typed*, never panics: any byte sequence fed into
//! the parsers produces either an answer or an
//! `{"error":{"kind":…,"message":…}}` body
//! (`crates/cli/tests/serve_proptests.rs` fuzzes this discipline).
//!
//! [`run_load`] is the closed-loop load harness behind
//! `resq bench serve` and the `serve_decide` perf-baseline entry.

use crate::args::ArgError;
use resq::core::lattice::{solve_exact, CKPT_SIGMA_RATIO};
use resq::dist::SplitMix64;
use resq::obs::http::{self, FrameHandler, Handler, Request, Response};
use resq::obs::json::{self, write_escaped, write_f64, JsonValue};
use resq::obs::metrics::{
    DECIDE_FALLBACKS_TOTAL, DECIDE_LATTICE_HITS_TOTAL, DECIDE_QUEUE_DEPTH, DECIDE_REJECTED_TOTAL,
    DECIDE_REQUESTS_TOTAL, DECIDE_TIMEOUTS_TOTAL, LATTICE_QUARANTINED_TOTAL,
};
use resq::obs::span::{self, span_name};
use resq::{
    AnswerSource, LawFamily, PolicyAnswer, PolicyLattice, PolicyQuery, SolveCache, TaskParams,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The decision endpoints mounted next to `resq_obs::http::ENDPOINTS`
/// on the daemon's HTTP port; `tests/docs_sync.rs` pins this list
/// against `docs/OBSERVABILITY.md`.
pub const DECIDE_ENDPOINTS: &[&str] = &["/decide", "/decide/batch"];

/// Largest accepted `/decide/batch` array.
pub const MAX_BATCH: usize = 256;

/// A typed wire-layer error: every malformed or rejected request maps
/// to one of these (never a panic), rendered as
/// `{"error":{"kind":…,"message":…}}`.
#[derive(Debug, Clone)]
pub struct DecideError {
    /// Stable machine-readable kind: `parse`, `spec`, `domain`,
    /// `batch`, `method`, `saturated` or `timeout`.
    pub kind: &'static str,
    /// The HTTP status the error maps to.
    pub status: u16,
    /// Human-readable detail.
    pub message: String,
}

impl DecideError {
    fn parse(message: impl Into<String>) -> Self {
        Self {
            kind: "parse",
            status: 400,
            message: message.into(),
        }
    }

    fn spec(message: impl Into<String>) -> Self {
        Self {
            kind: "spec",
            status: 400,
            message: message.into(),
        }
    }

    fn domain(message: impl Into<String>) -> Self {
        Self {
            kind: "domain",
            status: 422,
            message: message.into(),
        }
    }

    fn saturated(max_inflight: usize) -> Self {
        Self {
            kind: "saturated",
            status: 429,
            message: format!("decision service at max in-flight ({max_inflight}); retry after 1s"),
        }
    }

    fn timeout(deadline: Duration) -> Self {
        DECIDE_TIMEOUTS_TOTAL.inc();
        Self {
            kind: "timeout",
            status: 504,
            message: format!(
                "decision exceeded the per-request deadline ({} ms)",
                deadline.as_millis()
            ),
        }
    }

    /// Renders the typed error body (stable field order, no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::from("{\"error\":{\"kind\":\"");
        out.push_str(self.kind);
        out.push_str("\",\"message\":");
        write_escaped(&mut out, &self.message);
        out.push_str("}}");
        out
    }

    fn reason(&self) -> &'static str {
        match self.status {
            400 => "Bad Request",
            413 => "Content Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            504 => "Gateway Timeout",
            _ => "Service Unavailable",
        }
    }

    /// The error as an HTTP response (`Retry-After` on `429`).
    pub fn into_response(self) -> Response {
        let resp = Response::error_with_body(
            self.status,
            self.reason(),
            "application/json",
            self.render(),
        );
        if self.status == 429 {
            resp.with_header("Retry-After: 1")
        } else {
            resp
        }
    }
}

/// Parses a task-law spec into lattice shape parameters — the shared
/// implementation behind `resq lattice query --task` and the daemon's
/// `"task"` field. Same law syntax as the planner commands for the four
/// gridded families; truncation suffixes are rejected (the grid's task
/// laws are the plain families).
pub fn task_params(raw: &str) -> Result<TaskParams, ArgError> {
    let err = || {
        ArgError(format!(
            "task law `{raw}`: decision queries take uniform:a,b | exponential:lambda | \
             normal:mu,sigma | lognormal:mu,sigma (no truncation suffix)"
        ))
    };
    if raw.contains('@') {
        return Err(err());
    }
    let (name, params) = raw.split_once(':').ok_or_else(err)?;
    let nums: Vec<f64> = params
        .split(',')
        .map(|p| p.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| err())?;
    match (name, nums.as_slice()) {
        ("uniform", [a, b]) => Ok(TaskParams::Uniform { lo: *a, hi: *b }),
        ("exponential" | "exp", [lambda]) => Ok(TaskParams::Exponential { mean: 1.0 / lambda }),
        ("normal", [mu, sigma]) => Ok(TaskParams::Normal {
            mean: *mu,
            sigma: *sigma,
        }),
        // Same log-space (mu, sigma) convention as the LAW SYNTAX;
        // converted to the (mean, sd) axes the lattice normalizes.
        ("lognormal", [mu, sigma]) => {
            let mean = (mu + sigma * sigma / 2.0).exp();
            let sd = mean * ((sigma * sigma).exp() - 1.0).sqrt();
            Ok(TaskParams::LogNormal { mean, sd })
        }
        _ => Err(err()),
    }
}

/// The inverse of [`task_params`]: a spec string that parses back to the
/// same [`TaskParams`] (`f64` `Display` round-trips exactly).
pub fn task_spec(p: &TaskParams) -> String {
    match p {
        TaskParams::Uniform { lo, hi } => format!("uniform:{lo},{hi}"),
        TaskParams::Exponential { mean } => format!("exponential:{}", 1.0 / mean),
        TaskParams::Normal { mean, sigma } => format!("normal:{mean},{sigma}"),
        TaskParams::LogNormal { mean, sd } => {
            // Back to log-space (mu, sigma), inverting `task_params`.
            let sigma2 = (1.0 + (sd / mean).powi(2)).ln();
            let mu = mean.ln() - sigma2 / 2.0;
            format!("lognormal:{mu},{}", sigma2.sqrt())
        }
    }
}

/// Renders one `/decide` request body for a query (the wire format the
/// daemon parses) — used by the load harness and tests.
pub fn render_request(q: &PolicyQuery, work: Option<f64>) -> String {
    let mut out = String::from("{\"task\":\"");
    out.push_str(&task_spec(&q.task));
    out.push_str("\",\"ckpt_mean\":");
    write_f64(&mut out, q.ckpt_mean);
    out.push_str(",\"ckpt_sigma\":");
    write_f64(&mut out, q.ckpt_sigma);
    out.push_str(",\"reservation\":");
    write_f64(&mut out, q.r);
    if let Some(w) = work {
        out.push_str(",\"work\":");
        write_f64(&mut out, w);
    }
    out.push('}');
    out
}

/// Renders one decision answer (stable field order, `write_f64`
/// formatting — byte-identical for identical answers, which is what the
/// concurrency test pins). `checkpoint_now` appears only when the
/// request carried a `"work"` level.
pub fn render_answer(ans: &PolicyAnswer, work: Option<f64>) -> String {
    let mut out = String::from("{\"source\":\"");
    out.push_str(match ans.source {
        AnswerSource::Lattice => "lattice",
        AnswerSource::Exact => "exact",
    });
    out.push_str("\",\"x_opt\":");
    write_f64(&mut out, ans.x_opt);
    out.push_str(",\"n_opt\":");
    out.push_str(&ans.n_opt.to_string());
    out.push_str(",\"expected_work\":");
    write_f64(&mut out, ans.expected_work);
    out.push_str(",\"w_int\":");
    match ans.w_int {
        Some(w) => write_f64(&mut out, w),
        None => out.push_str("null"),
    }
    if let Some(w) = work {
        out.push_str(",\"checkpoint_now\":");
        out.push_str(if ans.should_checkpoint(w) {
            "true"
        } else {
            "false"
        });
    }
    out.push('}');
    out
}

/// Why a family slot currently has no (or a specific) lattice — the
/// per-family view `/healthz/ready` reports.
#[derive(Debug, Clone)]
enum SlotState {
    /// No artifact on disk: exact-solver-only, the normal degraded-free
    /// state for families nobody built a lattice for.
    Absent,
    /// A verified lattice is serving.
    Loaded { fingerprint: String },
    /// An artifact existed but failed verification (torn file, bad
    /// fingerprint, wrong format): quarantined, family answers
    /// exact-only, readiness reports `degraded`.
    Quarantined { error: String },
}

/// The daemon's shared state: per-family policy lattices (lattice-first
/// pipeline) and exact-solve shards (fallback), plus the
/// admission counter. Lattice slots are hot-swappable (`RwLock` +
/// `Arc`): a SIGHUP reload replaces a slot atomically while concurrent
/// requests keep serving from whichever artifact they already cloned.
pub struct DecisionService {
    /// Indexed by position in [`LawFamily::ALL`].
    lattices: Vec<RwLock<Option<Arc<PolicyLattice>>>>,
    /// Why each slot is the way it is (same indexing).
    slot_states: Mutex<Vec<SlotState>>,
    shards: Vec<Mutex<SolveCache>>,
    next_shard: AtomicUsize,
    inflight: AtomicUsize,
    max_inflight: usize,
    max_batch: usize,
    /// Per-request decision deadline; answers past it become typed
    /// `timeout` errors (`None` disables).
    deadline: Option<Duration>,
}

impl DecisionService {
    /// Builds a service over the given lattices (families without one
    /// fall back to exact solves), `shards` exact-solve shards and
    /// an admission cap of `max_inflight` concurrent requests.
    pub fn new(lattices: Vec<PolicyLattice>, shards: usize, max_inflight: usize) -> Self {
        let mut slots: Vec<Option<Arc<PolicyLattice>>> =
            LawFamily::ALL.iter().map(|_| None).collect();
        let mut states: Vec<SlotState> = LawFamily::ALL.iter().map(|_| SlotState::Absent).collect();
        for lat in lattices {
            let idx = LawFamily::ALL
                .iter()
                .position(|f| *f == lat.family())
                .expect("every lattice family is in LawFamily::ALL");
            states[idx] = SlotState::Loaded {
                fingerprint: lat.fingerprint(),
            };
            slots[idx] = Some(Arc::new(lat));
        }
        Self {
            lattices: slots.into_iter().map(RwLock::new).collect(),
            slot_states: Mutex::new(states),
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(SolveCache::new()))
                .collect(),
            next_shard: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            max_inflight: max_inflight.max(1),
            max_batch: MAX_BATCH,
            deadline: None,
        }
    }

    /// Sets the per-request decision deadline (`None` disables — the
    /// default). `Duration::ZERO` makes every request time out, which is
    /// how tests pin the typed error path.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The loaded lattice for a family, if any — an owned `Arc` clone,
    /// so a concurrent hot reload swapping the slot cannot invalidate an
    /// answer already in flight.
    pub fn lattice(&self, family: LawFamily) -> Option<Arc<PolicyLattice>> {
        let idx = LawFamily::ALL.iter().position(|f| *f == family)?;
        self.lattices[idx]
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// (Re)loads every per-family lattice artifact
    /// (`lattice_<family>.json`) from `dir`, swapping each slot
    /// atomically; in-flight requests finish on the artifact they
    /// already hold. Per family:
    ///
    /// * a verifying artifact replaces the slot (`Loaded`);
    /// * a missing artifact empties it (`Absent`, exact-only — the
    ///   normal state for unbuilt families);
    /// * a corrupt artifact (torn JSON, fingerprint mismatch, wrong
    ///   format) is **quarantined**: the slot empties, the family
    ///   degrades to exact-only answers, `lattice_quarantined_total`
    ///   counts it and `/healthz/ready` reports `degraded` — the daemon
    ///   never dies on a bad artifact.
    ///
    /// Returns one human-readable note per family.
    pub fn reload_from_dir(&self, dir: &Path) -> Vec<String> {
        let mut notes = Vec::new();
        for (idx, family) in LawFamily::ALL.iter().enumerate() {
            let path = dir.join(family.artifact_file_name());
            let (slot, state, note) = if !path.is_file() {
                (
                    None,
                    SlotState::Absent,
                    format!(
                        "{:<12} exact-only ({} not found)",
                        family.name(),
                        path.display()
                    ),
                )
            } else {
                match PolicyLattice::load(&path) {
                    Ok(lat) => {
                        let note = format!(
                            "{:<12} lattice {} ({} nodes, tol {})",
                            family.name(),
                            lat.fingerprint(),
                            lat.node_count(),
                            lat.tolerance()
                        );
                        let state = SlotState::Loaded {
                            fingerprint: lat.fingerprint(),
                        };
                        (Some(Arc::new(lat)), state, note)
                    }
                    Err(e) => {
                        LATTICE_QUARANTINED_TOTAL.inc();
                        let note = format!(
                            "{:<12} QUARANTINED, exact-only ({}: {e})",
                            family.name(),
                            path.display()
                        );
                        (
                            None,
                            SlotState::Quarantined {
                                error: e.to_string(),
                            },
                            note,
                        )
                    }
                }
            };
            *self.lattices[idx]
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner()) = slot;
            self.slot_states
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())[idx] = state;
            notes.push(note);
        }
        notes
    }

    /// Families currently quarantined (artifact present but rejected).
    pub fn quarantined_count(&self) -> usize {
        self.slot_states
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .filter(|s| matches!(s, SlotState::Quarantined { .. }))
            .count()
    }

    /// The `/healthz/ready` payload: overall `status` (`ok`, or
    /// `degraded` when any family is quarantined), drain state, the
    /// quarantine count and a per-family map
    /// (`lattice:<fingerprint>` / `exact-only` / `quarantined: <why>`).
    pub fn readiness_json(&self, draining: bool) -> String {
        let states = self
            .slot_states
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        let quarantined = states
            .iter()
            .filter(|s| matches!(s, SlotState::Quarantined { .. }))
            .count();
        let mut out = String::from("{\"status\":\"");
        out.push_str(if quarantined > 0 { "degraded" } else { "ok" });
        out.push_str("\",\"draining\":");
        out.push_str(if draining { "true" } else { "false" });
        out.push_str(&format!(",\"quarantined\":{quarantined}"));
        out.push_str(",\"families\":{");
        for (i, (family, state)) in LawFamily::ALL.iter().zip(states.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, family.name());
            out.push(':');
            let rendered = match state {
                SlotState::Absent => "exact-only".to_string(),
                SlotState::Loaded { fingerprint } => format!("lattice:{fingerprint}"),
                SlotState::Quarantined { error } => format!("quarantined: {error}"),
            };
            write_escaped(&mut out, &rendered);
        }
        out.push_str("}}");
        out
    }

    /// Requests currently admitted and not yet answered.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Admits one request or sheds it (`decide_rejected_total`); every
    /// `true` must be paired with a [`DecisionService::release`].
    pub fn admit(&self) -> bool {
        let prev = self.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.max_inflight {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            DECIDE_REJECTED_TOTAL.inc();
            return false;
        }
        DECIDE_QUEUE_DEPTH.add(1);
        true
    }

    /// Releases an admitted request.
    pub fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        DECIDE_QUEUE_DEPTH.sub(1);
    }

    /// `σ_C` default when the request omits `ckpt_sigma`: the family
    /// lattice's gridded ratio (so defaults hit the grid), else the
    /// build-time default ratio.
    fn sigma_ratio(&self, family: LawFamily) -> f64 {
        self.lattice(family)
            .map(|l| l.ckpt_sigma_ratio())
            .unwrap_or(CKPT_SIGMA_RATIO)
    }

    /// Parses one wire request object into a query plus the optional
    /// work level.
    fn parse_one(&self, v: &JsonValue) -> Result<(PolicyQuery, Option<f64>), DecideError> {
        if v.entries().is_none() {
            return Err(DecideError::parse("request must be a JSON object"));
        }
        let task_raw = v
            .get("task")
            .and_then(|t| t.as_str())
            .ok_or_else(|| DecideError::parse("missing string field `task`"))?;
        let task = task_params(task_raw).map_err(|e| DecideError::spec(e.0))?;
        let num = |name: &str| -> Result<f64, DecideError> {
            v.get(name)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| DecideError::parse(format!("missing numeric field `{name}`")))
        };
        let ckpt_mean = num("ckpt_mean")?;
        let r = num("reservation")?;
        let ckpt_sigma = match v.get("ckpt_sigma") {
            None => self.sigma_ratio(task.family()) * ckpt_mean,
            Some(_) => num("ckpt_sigma")?,
        };
        let work = match v.get("work") {
            None => None,
            Some(_) => Some(num("work")?),
        };
        let q = PolicyQuery {
            task,
            ckpt_mean,
            ckpt_sigma,
            r,
        };
        q.validate()
            .map_err(|e| DecideError::domain(e.to_string()))?;
        Ok((q, work))
    }

    /// One decision through the pipeline: lattice first, sharded exact
    /// fallback; counted and spanned.
    pub fn decide(&self, q: &PolicyQuery) -> Result<PolicyAnswer, DecideError> {
        let _span = span::enter(span_name::SERVE_DECIDE);
        DECIDE_REQUESTS_TOTAL.inc();
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut cache = match self.shards[shard].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                // A thread panicked while holding this shard. Reset
                // its state (correctness never depended on it) and
                // clear the poison so later locks are clean.
                let mut guard = poisoned.into_inner();
                *guard = SolveCache::new();
                self.shards[shard].clear_poison();
                guard
            }
        };
        let answer = match self.lattice(q.task.family()) {
            Some(lattice) => lattice.query(q, &mut cache),
            None => solve_exact(q, &mut cache),
        }
        .map_err(|e| DecideError::domain(e.to_string()))?;
        drop(cache);
        match answer.source {
            AnswerSource::Lattice => DECIDE_LATTICE_HITS_TOTAL.inc(),
            AnswerSource::Exact => DECIDE_FALLBACKS_TOTAL.inc(),
        }
        Ok(answer)
    }

    /// Deliberately panics while holding solve-cache shard 0 — the test
    /// hook for the poisoned-shard recovery path in
    /// [`DecisionService::decide`]. Hidden from docs; never reachable
    /// from the wire.
    #[doc(hidden)]
    pub fn poison_first_shard_for_test(&self) {
        let shards = &self.shards;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shards[0].lock().unwrap();
            panic!("test: poison the shard");
        }));
    }

    /// The typed timeout check: maps an elapsed decision past the
    /// configured deadline to a `timeout` error (counted in
    /// `decide_timeouts_total`).
    fn check_deadline(&self, started: Instant) -> Result<(), DecideError> {
        match self.deadline {
            Some(d) if started.elapsed() >= d => Err(DecideError::timeout(d)),
            _ => Ok(()),
        }
    }

    /// Answers one `/decide` body: parse, decide, render. An answer
    /// computed past the per-request deadline is replaced by a typed
    /// `timeout` error — the client has given up; a late answer must
    /// say so rather than pretend it was on time.
    pub fn answer_single(&self, text: &str) -> Result<String, DecideError> {
        let started = Instant::now();
        let v = json::parse(text).map_err(|e| DecideError::parse(e.to_string()))?;
        let (q, work) = self.parse_one(&v)?;
        let ans = self.decide(&q)?;
        self.check_deadline(started)?;
        Ok(render_answer(&ans, work))
    }

    /// Answers one `/decide/batch` body: a JSON array of request
    /// objects, answered item-by-item with inline typed errors (one bad
    /// item does not fail its neighbors). Once the per-request deadline
    /// passes, remaining items get inline `timeout` errors instead of
    /// being solved.
    pub fn answer_batch(&self, text: &str) -> Result<String, DecideError> {
        let started = Instant::now();
        let v = json::parse(text).map_err(|e| DecideError::parse(e.to_string()))?;
        let JsonValue::Array(items) = v else {
            return Err(DecideError::parse("batch body must be a JSON array"));
        };
        if items.len() > self.max_batch {
            return Err(DecideError {
                kind: "batch",
                status: 413,
                message: format!(
                    "batch of {} exceeds the {} item cap; split the request",
                    items.len(),
                    self.max_batch
                ),
            });
        }
        let mut out = String::from("[");
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match self.check_deadline(started).and_then(|()| {
                self.parse_one(item)
                    .and_then(|(q, work)| self.decide(&q).map(|a| (a, work)))
            }) {
                Ok((ans, work)) => out.push_str(&render_answer(&ans, work)),
                Err(e) => out.push_str(&e.render()),
            }
        }
        out.push(']');
        Ok(out)
    }

    /// Answers one framed payload: a leading `[` (after ASCII
    /// whitespace) selects batch semantics. Always returns a JSON body —
    /// answers or a typed error.
    pub fn answer_frame(&self, payload: &[u8]) -> String {
        if !self.admit() {
            return DecideError::saturated(self.max_inflight).render();
        }
        let result = match std::str::from_utf8(payload) {
            Err(_) => Err(DecideError::parse("frame payload is not valid UTF-8")),
            Ok(text) => {
                if text.trim_start().starts_with('[') {
                    self.answer_batch(text)
                } else {
                    self.answer_single(text)
                }
            }
        };
        self.release();
        result.unwrap_or_else(|e| e.render())
    }
}

/// The daemon's HTTP handler: `POST /decide` and `POST /decide/batch`
/// through `service`, every other path delegated to the telemetry plane
/// ([`http::telemetry_response`]) so one port serves decisions *and*
/// `/metrics`, `/healthz`, `/runs`, `/spans`.
pub fn http_handler(service: Arc<DecisionService>) -> Handler {
    Arc::new(move |req: &Request| {
        let batch = match (req.method.as_str(), req.path.as_str()) {
            // The daemon's readiness carries its lattice/quarantine
            // state; the shared telemetry plane handles the rest
            // (including `/healthz` liveness).
            ("GET", "/healthz/ready") => {
                return Response::ok(
                    "application/json",
                    service.readiness_json(http::stop_requested()),
                );
            }
            ("POST", "/decide") => false,
            ("POST", "/decide/batch") => true,
            (_, "/decide") | (_, "/decide/batch") => {
                return Response::error_with_body(
                    405,
                    "Method Not Allowed",
                    "application/json",
                    DecideError {
                        kind: "method",
                        status: 405,
                        message: "the decision endpoints are POST-only".to_string(),
                    }
                    .render(),
                )
                .with_header("Allow: POST");
            }
            _ => return http::telemetry_response(req),
        };
        if !service.admit() {
            return DecideError::saturated(service.max_inflight).into_response();
        }
        let text = String::from_utf8_lossy(&req.body).into_owned();
        let result = if batch {
            service.answer_batch(&text)
        } else {
            service.answer_single(&text)
        };
        service.release();
        match result {
            Ok(body) => Response::ok("application/json", body),
            Err(e) => e.into_response(),
        }
    })
}

/// The daemon's frame handler for [`http::serve_framed`].
pub fn frame_handler(service: Arc<DecisionService>) -> FrameHandler {
    Arc::new(move |payload: &[u8]| service.answer_frame(payload).into_bytes())
}

// ---------------------------------------------------------------------
// Closed-loop load harness (`resq bench serve`, perf_baseline).
// ---------------------------------------------------------------------

/// The queries the load harnesses drive: 16 points on the diagonal of
/// `lattice`'s parameter box at `R = 29`, in diagonal order, keeping
/// those the lattice answers itself rather than by exact fallback.
///
/// Lazy, so a caller that needs only the first served query probes no
/// further than it.
pub fn served_queries(lattice: &PolicyLattice) -> impl Iterator<Item = PolicyQuery> + '_ {
    let axes = lattice.axes();
    let mut cache = SolveCache::new();
    (0..16)
        .map(move |k| {
            let f = (k as f64 + 0.5) / 16.0;
            let coords: Vec<f64> = axes.iter().map(|a| a.lo + f * (a.hi - a.lo)).collect();
            lattice.query_for_coords(&coords, 29.0)
        })
        .filter(move |q| {
            lattice
                .query(q, &mut cache)
                .is_ok_and(|a| a.source == AnswerSource::Lattice)
        })
}

/// Which wire protocol [`run_load`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadProto {
    /// Keep-alive HTTP `POST /decide` (or `/decide/batch`).
    Http,
    /// The length-prefixed TCP fast path.
    Framed,
}

/// Options for [`run_load`]. Build with [`LoadOptions::new`] (retry and
/// chaos knobs default off: one attempt per request, no body check, no
/// deadline — exactly the pre-retry behavior the perf baseline pins).
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Target address (`host:port`).
    pub addr: String,
    /// Wire protocol.
    pub proto: LoadProto,
    /// Concurrent closed-loop connections (one thread each).
    pub connections: usize,
    /// Requests issued per connection.
    pub requests: usize,
    /// Decisions per request (`> 1` uses batch semantics).
    pub batch_size: usize,
    /// One decision-request JSON object (see [`render_request`]).
    pub body: String,
    /// Attempts per request before it counts as an error (1 = no
    /// retry). Failed attempts reconnect: against a chaos server the
    /// faults are per-connection, so a fresh connection draws a fresh
    /// fault plan.
    pub max_attempts: usize,
    /// Base backoff between attempts; attempt `k` waits
    /// `backoff_ms × 2^(k-1)` plus seeded jitter, capped at 1 s. A
    /// `Retry-After` hint from a `429`/`503` answer overrides the
    /// exponential schedule.
    pub backoff_ms: u64,
    /// Total wall-clock budget per connection thread: once spent, the
    /// thread stops issuing (remaining requests count as errors).
    pub deadline: Option<Duration>,
    /// Expected response body: a `200`/ok answer whose body differs is
    /// *detected corruption* — counted, retried, never a success. The
    /// service is deterministic, so chaos runs know every correct byte
    /// in advance.
    pub expect_body: Option<String>,
    /// Every Nth request is written in two chunks with a short gap — a
    /// deliberately slow client probing the server's read deadline
    /// (0 disables).
    pub slow_every: usize,
    /// Seed for the retry-jitter PRNG.
    pub seed: u64,
}

impl LoadOptions {
    /// A single-connection, single-request, retry-free load against
    /// `addr`; adjust fields from there.
    pub fn new(addr: impl Into<String>, proto: LoadProto, body: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            proto,
            connections: 1,
            requests: 1,
            batch_size: 1,
            body: body.into(),
            max_attempts: 1,
            backoff_ms: 5,
            deadline: None,
            expect_body: None,
            slow_every: 0,
            seed: 42,
        }
    }
}

/// What a [`run_load`] run measured. Latency quantiles are exact order
/// statistics over every per-request round-trip.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections driven.
    pub connections: usize,
    /// Requests completed successfully.
    pub requests: u64,
    /// Decisions answered (`requests × batch_size`).
    pub decisions: u64,
    /// Failed requests (transport errors or error responses) after all
    /// retry attempts were spent.
    pub errors: u64,
    /// Retry attempts issued (beyond each request's first attempt).
    pub retries: u64,
    /// Answers whose body did not match [`LoadOptions::expect_body`] —
    /// detected corruption, retried like any other failure.
    pub corrupt: u64,
    /// Wall-clock duration of the whole closed loop.
    pub elapsed: Duration,
    /// Median request round-trip in nanoseconds.
    pub p50_nanos: f64,
    /// 90th-percentile round-trip.
    pub p90_nanos: f64,
    /// 99th-percentile round-trip.
    pub p99_nanos: f64,
}

impl LoadReport {
    /// Sustained decisions per second over the closed loop.
    pub fn throughput(&self) -> f64 {
        self.decisions as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Reads one HTTP response off a keep-alive connection; returns the
/// status code, any `Retry-After` seconds hint, and the body.
fn read_http_response(stream: &mut TcpStream) -> std::io::Result<(u16, Option<u64>, Vec<u8>)> {
    let mut head = Vec::new();
    let mut one = [0u8; 1];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = stream.read(&mut one)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        head.push(one[0]);
        if head.len() > 64 * 1024 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "oversized response head",
            ));
        }
    }
    let head_str = String::from_utf8_lossy(&head).into_owned();
    let status: u16 = head_str
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let header_num = |name: &str| -> Option<u64> {
        head_str.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case(name)
                .then(|| v.trim().parse().ok())?
        })
    };
    let len = header_num("content-length").unwrap_or(0) as usize;
    let retry_after = header_num("retry-after");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok((status, retry_after, body))
}

/// What one attempt at one request produced.
enum Attempt {
    /// `200`/ok answer whose body passed the (optional) expected-body
    /// check.
    Ok,
    /// `200`/ok answer whose body failed the check: detected corruption.
    Corrupt,
    /// Error answer or transport failure; the hint is the server's
    /// `Retry-After` seconds when it sent one.
    Failed { retry_after: Option<u64> },
}

/// One request attempt on an open connection. `slow` splits the request
/// bytes into two writes with a short gap — the deliberately slow
/// client.
fn attempt_once(
    stream: &mut TcpStream,
    proto: LoadProto,
    http_request: &[u8],
    frame: &[u8],
    expect: Option<&[u8]>,
    slow: bool,
) -> Attempt {
    let write_request = |stream: &mut TcpStream, bytes: &[u8]| -> std::io::Result<()> {
        if slow && bytes.len() >= 2 {
            let half = bytes.len() / 2;
            stream.write_all(&bytes[..half])?;
            stream.flush()?;
            std::thread::sleep(Duration::from_millis(20));
            stream.write_all(&bytes[half..])
        } else {
            stream.write_all(bytes)
        }
    };
    match proto {
        LoadProto::Http => {
            if write_request(stream, http_request).is_err() {
                return Attempt::Failed { retry_after: None };
            }
            match read_http_response(stream) {
                Ok((200, _, body)) => match expect {
                    Some(want) if body != want => Attempt::Corrupt,
                    _ => Attempt::Ok,
                },
                Ok((_, retry_after, _)) => Attempt::Failed { retry_after },
                Err(_) => Attempt::Failed { retry_after: None },
            }
        }
        LoadProto::Framed => {
            let result = (|| -> std::io::Result<Vec<u8>> {
                write_request(stream, frame)?;
                let mut len_buf = [0u8; 4];
                stream.read_exact(&mut len_buf)?;
                let len = u32::from_le_bytes(len_buf) as usize;
                let mut payload = vec![0u8; len];
                stream.read_exact(&mut payload)?;
                Ok(payload)
            })();
            match result {
                Ok(payload) if payload.starts_with(b"{\"error\"") => {
                    // The saturated frame advises a 1 s retry in its
                    // message; honor it like HTTP's Retry-After.
                    let retry_after = payload
                        .windows(11)
                        .any(|w| w == b"\"saturated\"")
                        .then_some(1);
                    Attempt::Failed { retry_after }
                }
                Ok(payload) => match expect {
                    Some(want) if payload != want => Attempt::Corrupt,
                    _ => Attempt::Ok,
                },
                Err(_) => Attempt::Failed { retry_after: None },
            }
        }
    }
}

/// Drives a closed-loop load against a running decision server:
/// `connections` threads each issue `requests` back-to-back requests on
/// one persistent connection and time every round-trip. Failed or
/// corrupted attempts retry with exponential backoff + seeded jitter
/// (reconnecting each time — see [`LoadOptions::max_attempts`]),
/// honoring `Retry-After` hints, all inside the optional per-thread
/// deadline budget. Returns the merged report (exact order-statistic
/// quantiles; latencies cover successful attempts only).
pub fn run_load(opts: &LoadOptions) -> Result<LoadReport, String> {
    let body = if opts.batch_size > 1 {
        let mut b = String::from("[");
        for i in 0..opts.batch_size {
            if i > 0 {
                b.push(',');
            }
            b.push_str(&opts.body);
        }
        b.push(']');
        b
    } else {
        opts.body.clone()
    };
    let path = if opts.batch_size > 1 {
        "/decide/batch"
    } else {
        "/decide"
    };
    let http_request = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let frame = http::encode_frame(body.as_bytes());
    let start = Instant::now();
    let mut handles = Vec::new();
    for conn_idx in 0..opts.connections.max(1) {
        let addr = opts.addr.clone();
        let proto = opts.proto;
        let requests = opts.requests;
        let http_request = http_request.clone();
        let frame = frame.clone();
        let max_attempts = opts.max_attempts.max(1);
        let backoff_ms = opts.backoff_ms;
        let deadline = opts.deadline;
        let expect = opts.expect_body.clone();
        let slow_every = opts.slow_every;
        // The retry-jitter PRNG: the connection's own stream, so the load
        // client perturbs no workload RNG stream.
        let mut rng =
            SplitMix64::new(opts.seed ^ (conn_idx as u64).wrapping_mul(0x9E3779B97F4A7C15));
        handles.push(std::thread::spawn(
            move || -> Result<(Vec<f64>, u64, u64, u64), String> {
                let thread_start = Instant::now();
                let budget_spent = |t: &Instant| deadline.is_some_and(|d| t.elapsed() >= d);
                let connect = |addr: &str| -> std::io::Result<TcpStream> {
                    let stream = TcpStream::connect(addr)?;
                    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                    stream.set_nodelay(true)?;
                    Ok(stream)
                };
                let mut stream: Option<TcpStream> =
                    Some(connect(&addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?);
                let expect_bytes = expect.as_deref().map(str::as_bytes);
                let mut latencies = Vec::with_capacity(requests);
                let (mut errors, mut retries, mut corrupt) = (0u64, 0u64, 0u64);
                'requests: for req_idx in 0..requests {
                    let slow = slow_every > 0 && (req_idx + 1) % slow_every == 0;
                    let mut attempts = 0usize;
                    loop {
                        if budget_spent(&thread_start) {
                            // Budget exhausted: this and every remaining
                            // request goes unanswered.
                            errors += (requests - req_idx) as u64;
                            break 'requests;
                        }
                        let s = match stream.as_mut() {
                            Some(s) => s,
                            None => match connect(&addr) {
                                Ok(s) => stream.insert(s),
                                Err(_) => {
                                    attempts += 1;
                                    if attempts >= max_attempts {
                                        errors += 1;
                                        break;
                                    }
                                    retries += 1;
                                    std::thread::sleep(Duration::from_millis(backoff_ms.max(1)));
                                    continue;
                                }
                            },
                        };
                        attempts += 1;
                        let t0 = Instant::now();
                        let outcome = attempt_once(
                            s,
                            proto,
                            http_request.as_bytes(),
                            &frame,
                            expect_bytes,
                            slow,
                        );
                        match outcome {
                            Attempt::Ok => {
                                latencies.push(t0.elapsed().as_nanos() as f64);
                                break;
                            }
                            Attempt::Corrupt => corrupt += 1,
                            Attempt::Failed { .. } => {}
                        }
                        // Every failure path reconnects: faults (and the
                        // keep-alive state a torn response leaves behind)
                        // are per-connection, so a fresh connection is
                        // the recovery unit.
                        stream = None;
                        if attempts >= max_attempts {
                            errors += 1;
                            break;
                        }
                        retries += 1;
                        let hinted = match outcome {
                            Attempt::Failed {
                                retry_after: Some(secs),
                            } => Some(Duration::from_secs(secs)),
                            _ => None,
                        };
                        let wait = hinted.unwrap_or_else(|| {
                            let exp = backoff_ms.max(1) << (attempts as u32 - 1).min(6);
                            Duration::from_millis(exp.min(1000) + rng.next() % backoff_ms.max(1))
                        });
                        let wait = match deadline {
                            Some(d) => wait.min(d.saturating_sub(thread_start.elapsed())),
                            None => wait,
                        };
                        std::thread::sleep(wait);
                    }
                }
                Ok((latencies, errors, retries, corrupt))
            },
        ));
    }
    let mut latencies: Vec<f64> = Vec::new();
    let (mut errors, mut retries, mut corrupt) = (0u64, 0u64, 0u64);
    for h in handles {
        let (lats, errs, rets, corr) = h
            .join()
            .map_err(|_| "load connection thread panicked".to_string())??;
        latencies.extend(lats);
        errors += errs;
        retries += rets;
        corrupt += corr;
    }
    let elapsed = start.elapsed();
    if latencies.is_empty() {
        return Err(format!("no request succeeded against `{}`", opts.addr));
    }
    let requests = latencies.len() as u64;
    Ok(LoadReport {
        connections: opts.connections.max(1),
        requests,
        decisions: requests * opts.batch_size.max(1) as u64,
        errors,
        retries,
        corrupt,
        elapsed,
        p50_nanos: resq::sim::stats::quantile(&latencies, 0.50),
        p90_nanos: resq::sim::stats::quantile(&latencies, 0.90),
        p99_nanos: resq::sim::stats::quantile(&latencies, 0.99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq::LatticeSpec;

    fn exact_only_service() -> DecisionService {
        DecisionService::new(Vec::new(), 2, 8)
    }

    #[test]
    fn task_spec_round_trips_every_family() {
        for p in [
            TaskParams::Uniform { lo: 1.0, hi: 7.5 },
            TaskParams::Exponential { mean: 3.0 },
            TaskParams::Normal {
                mean: 3.0,
                sigma: 0.5,
            },
            TaskParams::LogNormal { mean: 2.0, sd: 0.7 },
        ] {
            let spec = task_spec(&p);
            let back = task_params(&spec).expect("round-trip parse");
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(1.0);
            match (p, back) {
                (TaskParams::Uniform { lo, hi }, TaskParams::Uniform { lo: l2, hi: h2 }) => {
                    assert!(close(lo, l2) && close(hi, h2))
                }
                (TaskParams::Exponential { mean }, TaskParams::Exponential { mean: m2 }) => {
                    assert!(close(mean, m2))
                }
                (
                    TaskParams::Normal { mean, sigma },
                    TaskParams::Normal {
                        mean: m2,
                        sigma: s2,
                    },
                ) => assert!(close(mean, m2) && close(sigma, s2)),
                (
                    TaskParams::LogNormal { mean, sd },
                    TaskParams::LogNormal { mean: m2, sd: s2 },
                ) => assert!(close(mean, m2) && close(sd, s2)),
                (a, b) => panic!("family changed: {a:?} -> {b:?}"),
            }
        }
    }

    #[test]
    fn wire_errors_are_typed() {
        let svc = exact_only_service();
        for (body, kind) in [
            ("", "parse"),
            ("not json", "parse"),
            ("[]", "parse"),            // array into /decide
            ("{}", "parse"),            // missing fields
            ("{\"task\":42}", "parse"), // task not a string
            (
                "{\"task\":\"pareto:1,2\",\"ckpt_mean\":5,\"reservation\":29}",
                "spec",
            ),
            (
                "{\"task\":\"normal:3,0.5@0,\",\"ckpt_mean\":5,\"reservation\":29}",
                "spec",
            ),
            (
                "{\"task\":\"normal:3,0.5\",\"ckpt_mean\":-5,\"reservation\":29}",
                "domain",
            ),
            (
                "{\"task\":\"normal:-3,0.5\",\"ckpt_mean\":5,\"reservation\":29}",
                "domain",
            ),
        ] {
            let err = svc.answer_single(body).expect_err(body);
            assert_eq!(err.kind, kind, "{body} -> {}", err.message);
            let rendered = err.render();
            let parsed = json::parse(&rendered).expect("typed error is valid JSON");
            assert!(parsed.get("error").is_some(), "{rendered}");
        }
    }

    #[test]
    fn batch_answers_inline_errors_without_failing_neighbors() {
        let svc = exact_only_service();
        let good = "{\"task\":\"normal:3,0.5\",\"ckpt_mean\":5,\"ckpt_sigma\":0.4,\"reservation\":29,\"work\":25}";
        let body = format!("[{good},{{\"task\":\"nope\"}},{good}]");
        let out = svc.answer_batch(&body).expect("batch answers");
        let JsonValue::Array(items) = json::parse(&out).expect("valid JSON") else {
            panic!("batch response must be an array: {out}");
        };
        assert_eq!(items.len(), 3);
        assert!(items[0].get("source").is_some());
        assert!(items[1].get("error").is_some());
        assert!(items[2].get("source").is_some());
        // Identical queries render identical bytes.
        assert_eq!(items[0].render(), items[2].render());
        // work=25 >= the fig. 8 threshold (~20.3): checkpoint now.
        assert_eq!(
            items[0].get("checkpoint_now").and_then(|b| b.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn oversized_batch_is_a_typed_413() {
        let svc = exact_only_service();
        let body = format!("[{}]", vec!["{}"; MAX_BATCH + 1].join(","));
        let err = svc.answer_batch(&body).expect_err("over the cap");
        assert_eq!(err.kind, "batch");
        assert_eq!(err.status, 413);
    }

    #[test]
    fn admission_sheds_past_max_inflight() {
        let svc = DecisionService::new(Vec::new(), 1, 2);
        assert!(svc.admit());
        assert!(svc.admit());
        let before = DECIDE_REJECTED_TOTAL.get();
        assert!(!svc.admit(), "third concurrent request must shed");
        assert_eq!(DECIDE_REJECTED_TOTAL.get(), before + 1);
        svc.release();
        assert!(svc.admit(), "released slot is reusable");
        svc.release();
        svc.release();
        assert_eq!(svc.inflight(), 0);
    }

    #[test]
    fn zero_deadline_yields_typed_timeout() {
        let svc = exact_only_service().with_deadline(Some(Duration::ZERO));
        let good =
            "{\"task\":\"normal:3,0.5\",\"ckpt_mean\":5,\"ckpt_sigma\":0.4,\"reservation\":29}";
        let before = DECIDE_TIMEOUTS_TOTAL.get();
        let err = svc.answer_single(good).expect_err("must time out");
        assert_eq!(err.kind, "timeout");
        assert_eq!(err.status, 504);
        assert_eq!(err.reason(), "Gateway Timeout");
        assert!(DECIDE_TIMEOUTS_TOTAL.get() > before);
        // Batch: items past the deadline get inline typed timeouts.
        let out = svc
            .answer_batch(&format!("[{good},{good}]"))
            .expect("batch body still answers");
        let JsonValue::Array(items) = json::parse(&out).expect("valid JSON") else {
            panic!("not an array: {out}");
        };
        for item in &items {
            assert_eq!(
                item.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(|k| k.as_str()),
                Some("timeout"),
                "{out}"
            );
        }
    }

    #[test]
    fn no_deadline_never_times_out() {
        let svc = exact_only_service();
        let good =
            "{\"task\":\"normal:3,0.5\",\"ckpt_mean\":5,\"ckpt_sigma\":0.4,\"reservation\":29}";
        assert!(svc.answer_single(good).is_ok());
    }

    #[test]
    fn poisoned_shard_recovers_and_keeps_answering() {
        let svc = DecisionService::new(Vec::new(), 1, 8);
        let good =
            "{\"task\":\"normal:3,0.5\",\"ckpt_mean\":5,\"ckpt_sigma\":0.4,\"reservation\":29}";
        let clean = svc.answer_single(good).expect("clean answer");
        svc.poison_first_shard_for_test();
        // The single shard is poisoned; the next decision must recover
        // it (reset + clear_poison) and answer byte-identically.
        let after = svc.answer_single(good).expect("answers after poisoning");
        assert_eq!(clean, after, "recovered shard changed the answer");
        // And the shard is clean again, not just recovered-per-call.
        let again = svc.answer_single(good).expect("still answering");
        assert_eq!(clean, again);
    }

    #[test]
    fn reload_quarantines_tampered_artifacts_and_falls_back_exact() {
        let dir = std::env::temp_dir().join(format!(
            "resq-serve-quarantine-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // Build and save a valid exponential lattice, then load it.
        let spec = LatticeSpec::defaults(LawFamily::Exponential).with_points(5);
        let lattice = resq::core::lattice::build(&spec).expect("build small lattice");
        let path = dir.join(LawFamily::Exponential.artifact_file_name());
        lattice.save(&path).expect("save artifact");
        let svc = DecisionService::new(Vec::new(), 2, 8);
        svc.reload_from_dir(&dir);
        assert!(svc.lattice(LawFamily::Exponential).is_some());
        assert_eq!(svc.quarantined_count(), 0);
        let ready = svc.readiness_json(false);
        let parsed = json::parse(&ready).expect("readiness parses");
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("ok"));
        // A lattice-free exact answer for comparison.
        let exact_svc = DecisionService::new(Vec::new(), 2, 8);
        let q = "{\"task\":\"exponential:0.333\",\"ckpt_mean\":5,\"ckpt_sigma\":0.4,\"reservation\":29}";
        let exact_answer = exact_svc.answer_single(q).expect("exact answer");
        // Tamper with the artifact: flip bytes inside the payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        let before = LATTICE_QUARANTINED_TOTAL.get();
        let notes = svc.reload_from_dir(&dir);
        assert!(
            LATTICE_QUARANTINED_TOTAL.get() > before,
            "quarantine not counted"
        );
        assert!(
            svc.lattice(LawFamily::Exponential).is_none(),
            "tampered lattice still serving"
        );
        assert_eq!(svc.quarantined_count(), 1);
        assert!(
            notes.iter().any(|n| n.contains("QUARANTINED")),
            "no quarantine note: {notes:?}"
        );
        // Readiness degrades; answers fall back to exact, byte-identical
        // to a lattice-free service.
        let ready = svc.readiness_json(false);
        let parsed = json::parse(&ready).expect("readiness parses");
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("degraded"));
        assert_eq!(parsed.get("quarantined").unwrap().as_u64(), Some(1));
        let degraded_answer = svc.answer_single(q).expect("degraded answer");
        assert_eq!(
            degraded_answer, exact_answer,
            "degraded mode diverged from exact"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn readiness_reports_draining() {
        let svc = exact_only_service();
        let parsed = json::parse(&svc.readiness_json(true)).expect("parses");
        assert_eq!(parsed.get("draining").unwrap().as_bool(), Some(true));
        assert!(parsed.get("families").is_some());
    }

    #[test]
    fn lattice_hits_and_fallbacks_are_counted() {
        let spec = LatticeSpec::defaults(LawFamily::Exponential).with_points(5);
        let lattice = resq::core::lattice::build(&spec).expect("build small lattice");
        let axes = lattice.axes();
        let mut cache = SolveCache::new();
        let in_grid = (0..16)
            .map(|k| {
                let f = (k as f64 + 0.5) / 16.0;
                let coords: Vec<f64> = axes.iter().map(|a| a.lo + f * (a.hi - a.lo)).collect();
                lattice.query_for_coords(&coords, 29.0)
            })
            .find(|q| {
                lattice
                    .query(q, &mut cache)
                    .map(|a| a.source == AnswerSource::Lattice)
                    .unwrap_or(false)
            })
            .expect("a served lattice query exists");
        let svc = DecisionService::new(vec![lattice], 2, 8);
        let hits0 = DECIDE_LATTICE_HITS_TOTAL.get();
        let falls0 = DECIDE_FALLBACKS_TOTAL.get();
        let a = svc.decide(&in_grid).expect("in-grid decision");
        assert_eq!(a.source, AnswerSource::Lattice);
        assert_eq!(DECIDE_LATTICE_HITS_TOTAL.get(), hits0 + 1);
        // No normal-family lattice loaded: exact fallback.
        let q = PolicyQuery {
            task: TaskParams::Normal {
                mean: 3.0,
                sigma: 0.5,
            },
            ckpt_mean: 5.0,
            ckpt_sigma: 0.4,
            r: 29.0,
        };
        let b = svc.decide(&q).expect("fallback decision");
        assert_eq!(b.source, AnswerSource::Exact);
        assert!(DECIDE_FALLBACKS_TOTAL.get() > falls0);
    }
}
