//! Trace-context propagation: deterministic run identifiers, the sink
//! wrapper that stamps them onto every event row, and the live run
//! registry the HTTP plane serves from.
//!
//! The trace context of a row is the triple **(`run_id`, `trial`,
//! `attempt`)**:
//!
//! * `run_id` — a deterministic 64-bit fingerprint of the run's
//!   *semantic* configuration (command name plus the flag/value pairs
//!   that affect the computed results), appended to every event row by
//!   [`TracedSink`] as a 16-hex-digit string. Two runs with the same
//!   semantic configuration share a `run_id` by design — it is a config
//!   fingerprint, not a unique nonce — which is exactly what makes it
//!   compatible with the determinism contract: re-running with a
//!   different `--threads` or log path must not change the log bytes,
//!   so those flags must not (and do not) enter the hash.
//! * `trial` — the per-trial field already carried by `trial-sample`,
//!   `checkpoint-decision` and `retry-outcome` rows; joins a row to one
//!   trial's RNG stream (`Xoshiro256pp::for_stream(seed, trial)`).
//! * `attempt` — for retry telemetry, the `attempts` field of a
//!   `retry-outcome` row bounds the attempt indices the trial consumed.
//!
//! [`RunRegistry`] is the live side: each in-flight run registers a
//! [`RunInfo`] whose progress counter worker threads bump with a
//! relaxed atomic add. Progress is *observability, not data*: it never
//! lands in event rows, so scraping it cannot perturb the byte-stable
//! log. The registry also hands each run its own span registry, so the
//! `/spans` endpoint can attribute span rows to a `run_id`.

use crate::event::Event;
use crate::sink::RunSink;
use crate::span::SpanRegistry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// FNV-1a 64-bit offset basis: the state [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the 64-bit FNV-1a state `hash`: start from
/// [`FNV_OFFSET`] and feed the fields in a fixed order. The workspace's
/// one fingerprint hash (run ids here, policy-lattice artifacts in
/// `resq-core`).
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The run-level trace context of one telemetry row, constructed once
/// per CLI invocation via [`TraceCtx::derive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCtx {
    /// Deterministic run fingerprint (see the module docs for what
    /// does and does not enter the hash).
    pub run_id: u64,
}

impl TraceCtx {
    /// Derives a run-level context from the command name and its
    /// *semantic* flag/value pairs. Callers must pre-filter flags that
    /// are outside the determinism contract (thread counts, output
    /// paths, exposition switches); pairs are hashed in the order
    /// given, so pass them in a stable (e.g. sorted) order.
    pub fn derive<'a>(command: &str, flags: impl Iterator<Item = (&'a str, &'a str)>) -> Self {
        let mut h = fnv1a(FNV_OFFSET, command.as_bytes());
        for (key, value) in flags {
            h = fnv1a(h, b"\x1f");
            h = fnv1a(h, key.as_bytes());
            h = fnv1a(h, b"=");
            h = fnv1a(h, value.as_bytes());
        }
        Self { run_id: h }
    }

    /// The `run_id` as the 16-hex-digit string event rows carry.
    pub fn run_id_hex(&self) -> String {
        format!("{:016x}", self.run_id)
    }
}

/// Sink wrapper that appends the context's `run_id` to every row it
/// forwards.
///
/// Wrapping the sink — rather than threading a context parameter
/// through every producer signature — means *all* rows of a run
/// acquire the `run_id`, including the ones emitted deep inside
/// `run_trials_observed` and the batched runner. The field is appended
/// last, after the producer's own fields, so existing field order (and
/// therefore byte-level log comparisons between runs of the same
/// configuration) is unchanged.
///
/// ```
/// use resq_obs::{event_type, Event, MemorySink, RunSink, TraceCtx, TracedSink};
///
/// let inner = MemorySink::new();
/// let ctx = TraceCtx::derive("simulate", [("seed", "42")].into_iter());
/// let sink = TracedSink::new(&inner, ctx.clone());
/// sink.emit(Event::new(event_type::RUN_STARTED).u64("seed", 42));
/// let line = inner.lines().remove(0);
/// assert!(line.ends_with(&format!("\"run_id\":\"{}\"}}", ctx.run_id_hex())));
/// ```
pub struct TracedSink<S> {
    inner: S,
    ctx: TraceCtx,
    run_id_hex: String,
}

impl<S: RunSink> TracedSink<S> {
    /// Wraps `inner` so every forwarded row carries `ctx`'s `run_id`.
    pub fn new(inner: S, ctx: TraceCtx) -> Self {
        let run_id_hex = ctx.run_id_hex();
        Self {
            inner,
            ctx,
            run_id_hex,
        }
    }

    /// The wrapped context.
    pub fn ctx(&self) -> &TraceCtx {
        &self.ctx
    }

    /// Consumes the wrapper, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RunSink> RunSink for TracedSink<S> {
    fn emit(&self, event: Event) {
        self.inner
            .emit(event.str("run_id", self.run_id_hex.clone()));
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

// Forwarding impls so `TracedSink` can wrap a borrowed sink or the
// boxed `dyn RunSink` the CLI selects at runtime.
impl<S: RunSink + ?Sized> RunSink for &S {
    fn emit(&self, event: Event) {
        (**self).emit(event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn flush(&self) {
        (**self).flush();
    }
}

impl<S: RunSink + ?Sized> RunSink for Box<S> {
    fn emit(&self, event: Event) {
        self.as_ref().emit(event);
    }

    fn enabled(&self) -> bool {
        self.as_ref().enabled()
    }

    fn flush(&self) {
        self.as_ref().flush();
    }
}

/// Lifecycle of a registered run, as reported by the `/runs` endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// The run is in flight; `trials_done` is still moving.
    Running,
    /// The run completed (its [`RunGuard`] dropped, or the tailed log
    /// contained a `run-finished` row).
    Finished,
}

impl RunState {
    /// Stable lowercase name used in JSON payloads.
    pub fn as_str(self) -> &'static str {
        match self {
            RunState::Running => "running",
            RunState::Finished => "finished",
        }
    }
}

/// One run's live record: identity, configuration echo, and a progress
/// counter workers bump as chunks complete.
#[derive(Debug)]
pub struct RunInfo {
    /// The run's deterministic fingerprint ([`TraceCtx::run_id`]).
    pub run_id: u64,
    /// The command that started the run (`simulate`, …).
    pub command: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// Total trials the run will execute (0 when unknown).
    pub trials: u64,
    trials_done: AtomicU64,
    finished: AtomicBool,
    spans: Arc<SpanRegistry>,
}

impl RunInfo {
    /// Creates a `Running` record with zero progress and a fresh span
    /// registry.
    pub fn new(run_id: u64, command: impl Into<String>, seed: u64, trials: u64) -> Arc<Self> {
        Self::with_spans(run_id, command, seed, trials, SpanRegistry::new())
    }

    /// Like [`RunInfo::new`], but attributes an existing span registry
    /// to the run. The CLI's in-process `--serve` path passes the
    /// registry the command actually records into (the process-global
    /// one), so the `/spans` endpoint can label those spans with this
    /// run's `run_id` without rerouting where spans land.
    pub fn with_spans(
        run_id: u64,
        command: impl Into<String>,
        seed: u64,
        trials: u64,
        spans: Arc<SpanRegistry>,
    ) -> Arc<Self> {
        Arc::new(Self {
            run_id,
            command: command.into(),
            seed,
            trials,
            trials_done: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            spans,
        })
    }

    /// The run's `run_id` in the 16-hex-digit event-row form.
    pub fn run_id_hex(&self) -> String {
        format!("{:016x}", self.run_id)
    }

    /// Trials completed so far (relaxed read — a live scrape may lag a
    /// chunk behind the workers).
    pub fn trials_done(&self) -> u64 {
        self.trials_done.load(Ordering::Relaxed)
    }

    /// Adds completed trials (relaxed; called from worker threads).
    pub fn add_progress(&self, trials: u64) {
        self.trials_done.fetch_add(trials, Ordering::Relaxed);
    }

    /// Sets the absolute progress (used by the standalone log tailer,
    /// where `chunk-progress` rows carry cumulative counts).
    pub fn set_progress(&self, trials_done: u64) {
        self.trials_done.store(trials_done, Ordering::Relaxed);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> RunState {
        if self.finished.load(Ordering::Relaxed) {
            RunState::Finished
        } else {
            RunState::Running
        }
    }

    /// Marks the run finished.
    pub fn mark_finished(&self) {
        self.finished.store(true, Ordering::Relaxed);
    }

    /// The run's own span registry; install it with
    /// [`crate::span::scoped`] so the run's spans are attributable to
    /// its `run_id` on the `/spans` endpoint.
    pub fn spans(&self) -> &Arc<SpanRegistry> {
        &self.spans
    }
}

/// How many finished runs the registry retains; older ones are evicted
/// front-first so a long-lived serving process cannot grow unboundedly.
const MAX_RETAINED_RUNS: usize = 64;

/// The process-wide table of registered runs, in registration order.
#[derive(Default)]
pub struct RunRegistry {
    runs: Mutex<Vec<Arc<RunInfo>>>,
}

impl RunRegistry {
    /// Creates an empty registry (tests; production code uses
    /// [`RunRegistry::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global registry the HTTP plane serves from.
    pub fn global() -> &'static RunRegistry {
        static GLOBAL: OnceLock<RunRegistry> = OnceLock::new();
        GLOBAL.get_or_init(RunRegistry::default)
    }

    /// Registers a run, evicting the oldest *finished* entries beyond
    /// the retention cap.
    pub fn register(&self, info: Arc<RunInfo>) {
        let mut runs = self.runs.lock().expect("run registry poisoned");
        runs.push(info);
        if runs.len() > MAX_RETAINED_RUNS {
            let excess = runs.len() - MAX_RETAINED_RUNS;
            let mut removed = 0;
            runs.retain(|r| {
                if removed < excess && r.state() == RunState::Finished {
                    removed += 1;
                    false
                } else {
                    true
                }
            });
        }
    }

    /// All registered runs, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<RunInfo>> {
        self.runs.lock().expect("run registry poisoned").clone()
    }

    /// Finds the most recently registered run with the given id.
    pub fn find(&self, run_id: u64) -> Option<Arc<RunInfo>> {
        self.runs
            .lock()
            .expect("run registry poisoned")
            .iter()
            .rev()
            .find(|r| r.run_id == run_id)
            .cloned()
    }

    /// Drops every entry (tests).
    pub fn clear(&self) {
        self.runs.lock().expect("run registry poisoned").clear();
    }
}

thread_local! {
    static CURRENT_RUN: std::cell::RefCell<Vec<Arc<RunInfo>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The innermost run installed on this thread by [`enter_run`], if any.
///
/// The Monte-Carlo coordinator reads this once on the coordinating
/// thread and hands the `Arc` to its workers — the same capture
/// pattern `span::current()` uses — so worker progress lands on the
/// right run regardless of which thread runs a chunk.
pub fn current_run() -> Option<Arc<RunInfo>> {
    CURRENT_RUN.with(|stack| stack.borrow().last().cloned())
}

/// Installs `info` as the current run for the guard's lifetime and
/// marks it finished when the guard drops.
pub fn enter_run(info: Arc<RunInfo>) -> RunGuard {
    CURRENT_RUN.with(|stack| stack.borrow_mut().push(info.clone()));
    RunGuard { info }
}

/// RAII guard from [`enter_run`]: pops the thread-local current run
/// and marks the run finished on drop.
pub struct RunGuard {
    info: Arc<RunInfo>,
}

impl RunGuard {
    /// The guarded run.
    pub fn info(&self) -> &Arc<RunInfo> {
        &self.info
    }
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        CURRENT_RUN.with(|stack| {
            stack.borrow_mut().pop();
        });
        self.info.mark_finished();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::event_type;
    use crate::json;
    use crate::sink::MemorySink;

    #[test]
    fn run_id_is_deterministic_and_flag_sensitive() {
        let a = TraceCtx::derive("simulate", [("seed", "42"), ("trials", "1000")].into_iter());
        let b = TraceCtx::derive("simulate", [("seed", "42"), ("trials", "1000")].into_iter());
        let c = TraceCtx::derive("simulate", [("seed", "43"), ("trials", "1000")].into_iter());
        let d = TraceCtx::derive(
            "plan-static",
            [("seed", "42"), ("trials", "1000")].into_iter(),
        );
        assert_eq!(a, b);
        assert_ne!(a.run_id, c.run_id);
        assert_ne!(a.run_id, d.run_id);
        assert_eq!(a.run_id_hex().len(), 16);
    }

    #[test]
    fn key_value_boundaries_do_not_alias() {
        // ("ab","c") must not hash like ("a","bc").
        let a = TraceCtx::derive("x", [("ab", "c")].into_iter());
        let b = TraceCtx::derive("x", [("a", "bc")].into_iter());
        assert_ne!(a.run_id, b.run_id);
    }

    #[test]
    fn traced_sink_appends_context_fields_last() {
        let inner = MemorySink::new();
        let ctx = TraceCtx::derive("simulate", [("seed", "7")].into_iter());
        let hex = ctx.run_id_hex();
        let sink = TracedSink::new(&inner, ctx);
        sink.emit(Event::new(event_type::RETRY_OUTCOME).u64("trial", 12));
        let line = inner.lines().remove(0);
        let row = json::parse(&line).unwrap();
        assert_eq!(row.get("run_id").unwrap().as_str(), Some(hex.as_str()));
        // The context field comes after the producer's own fields.
        assert!(line.find("\"trial\"").unwrap() < line.find("\"run_id\"").unwrap());
    }

    #[test]
    fn traced_sink_forwards_enabled_and_flush() {
        let ctx = TraceCtx::derive("simulate", std::iter::empty());
        let disabled = TracedSink::new(crate::sink::NullSink, ctx.clone());
        assert!(!disabled.enabled());
        let enabled = TracedSink::new(MemorySink::new(), ctx);
        assert!(enabled.enabled());
        enabled.flush();
    }

    #[test]
    fn registry_tracks_progress_and_state() {
        let registry = RunRegistry::new();
        let info = RunInfo::new(0xabcd, "simulate", 42, 1000);
        registry.register(info.clone());
        assert_eq!(info.state(), RunState::Running);
        info.add_progress(400);
        info.add_progress(600);
        assert_eq!(info.trials_done(), 1000);
        {
            let _guard = enter_run(info.clone());
            let seen = current_run().expect("current run set");
            assert_eq!(seen.run_id, 0xabcd);
        }
        assert!(current_run().is_none());
        assert_eq!(info.state(), RunState::Finished);
        assert_eq!(registry.snapshot().len(), 1);
        assert_eq!(registry.find(0xabcd).unwrap().seed, 42);
    }

    #[test]
    fn registry_evicts_oldest_finished_beyond_cap() {
        let registry = RunRegistry::new();
        for i in 0..(MAX_RETAINED_RUNS as u64 + 10) {
            let info = RunInfo::new(i, "simulate", i, 10);
            if i < 20 {
                info.mark_finished();
            }
            registry.register(info);
        }
        let runs = registry.snapshot();
        assert_eq!(runs.len(), MAX_RETAINED_RUNS);
        // The oldest finished entries went first; running ones survive.
        assert!(runs.iter().all(|r| r.run_id >= 10));
    }
}
