//! Process-global metrics: relaxed atomic counters and a power-of-two
//! histogram, cheap enough to leave compiled into release builds.
//!
//! Counters are incremented in *batches* at call sites — e.g. the
//! adaptive quadrature adds its whole evaluation count once per call —
//! so the hot paths pay one relaxed `fetch_add` per operation, not per
//! inner-loop iteration.
//!
//! The canonical metric registry is [`ALL_COUNTERS`] / [`ALL_GAUGES`] /
//! [`ALL_HISTOGRAMS`]; `docs/OBSERVABILITY.md` is checked against those
//! names by `tests/docs_sync.rs`. Three expositions read the registry
//! (selected by the CLI `--metrics-format` flag):
//!
//! * [`format_summary`] — human-readable block (the `--metrics`
//!   default), with p50/p90/p99 estimates for histograms and spans;
//! * [`format_prometheus`] — Prometheus/OpenMetrics text exposition,
//!   suitable for a node-exporter textfile collector;
//! * [`format_json`] — machine-readable snapshot for scripts.
//!
//! Because the registry is process-global, concurrent tests would
//! interfere if they read absolute values; read *deltas* instead via
//! [`Snapshot::capture`] + [`Snapshot::delta`].

use crate::span;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A named, process-global monotone counter.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Declares a counter (used by this crate's statics).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// The metric name, e.g. `quadrature_evals`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Adds `n` (relaxed ordering; totals are exact, inter-counter
    /// ordering is not guaranteed).
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and per-run CLI deltas).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    /// A local accumulator that flushes into this counter when dropped —
    /// one atomic add per call site regardless of how many increments or
    /// early returns the function has.
    pub fn tally(&self) -> Tally<'_> {
        Tally { counter: self, n: 0 }
    }
}

/// Local batch accumulator from [`Counter::tally`]; flushes on drop.
pub struct Tally<'a> {
    counter: &'a Counter,
    n: u64,
}

impl Tally<'_> {
    /// Adds one to the local batch.
    #[inline]
    pub fn inc(&mut self) {
        self.n += 1;
    }

    /// Adds `n` to the local batch.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.n += n;
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        self.counter.add(self.n);
    }
}

/// A named, process-global instantaneous gauge (a level, not a total):
/// queue depths, in-flight request counts. Signed so transient
/// decrement-past-zero races stay visible instead of wrapping.
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// Declares a gauge (used by this crate's statics).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: AtomicI64::new(0),
        }
    }

    /// The metric name, e.g. `decide_queue_depth`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` to the level (relaxed ordering).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from the level.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and per-run CLI deltas).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of buckets in [`Histogram`]: values `0, 1, 2-3, 4-7, …,
/// ≥2^30`.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A named power-of-two histogram: bucket `i` counts observations `v`
/// with `floor(log2(v)) + 1 == i` (bucket 0 counts `v == 0`), saturated
/// into the last bucket. Also tracks the exact sum of observations so
/// Prometheus `_sum`/`_count` series are available.
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Histogram {
    /// Declares a histogram (used by this crate's statics).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            sum: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = bucket_index(value);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of all bucket counts, in bucket order.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, b) in out.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Snapshot of non-empty buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                if n == 0 {
                    None
                } else {
                    Some((bucket_lower_bound(i), n))
                }
            })
            .collect()
    }

    /// Quantile estimate from the bucket boundaries (see
    /// [`quantile_from_buckets`]).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.buckets(), q)
    }

    /// Resets all buckets (and the sum) to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// The bucket index observation `value` falls into.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The inclusive lower bound of bucket `i` (`0, 1, 2, 4, 8, …`).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// The inclusive upper bound of bucket `i` (`0, 1, 3, 7, …`); the
/// saturated last bucket reports `u64::MAX`.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i == HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Estimates the `q`-quantile (`q ∈ [0, 1]`) of a power-of-two bucket
/// array by locating the bucket containing the target rank and
/// interpolating linearly between its bounds. Returns `0.0` for an
/// empty histogram. The estimate is exact for buckets 0 and 1 and
/// within a factor of 2 otherwise — plenty for latency triage.
pub fn quantile_from_buckets(buckets: &[u64; HISTOGRAM_BUCKETS], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut cumulative = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let next = cumulative + n;
        if (next as f64) >= target {
            let lower = bucket_lower_bound(i) as f64;
            let upper = if i == HISTOGRAM_BUCKETS - 1 {
                // Saturated bucket: no upper bound; report its lower edge.
                return lower;
            } else {
                bucket_upper_bound(i) as f64
            };
            let frac = (target - cumulative as f64) / n as f64;
            return lower + frac * (upper - lower);
        }
        cumulative = next;
    }
    bucket_lower_bound(HISTOGRAM_BUCKETS - 1) as f64
}

/// Function evaluations performed by `resq_numerics::quad` integrators.
pub static QUADRATURE_EVALS: Counter = Counter::new(
    "quadrature_evals",
    "integrand evaluations across all quadrature calls",
);

/// Iterations of the Brent/bisection root finders in
/// `resq_numerics::roots`.
pub static ROOT_ITERATIONS: Counter = Counter::new(
    "root_iterations",
    "iterations across all root-finder calls (Brent and bisection)",
);

/// Iterations of the Brent/golden-section optimizers in
/// `resq_numerics::optimize`.
pub static OPTIMIZER_ITERATIONS: Counter = Counter::new(
    "optimizer_iterations",
    "iterations across all 1-D minimizer/maximizer calls",
);

/// Per-trial RNG streams derived by `resq_dist::rng` (`for_stream`).
pub static RNG_STREAM_DERIVATIONS: Counter = Counter::new(
    "rng_stream_derivations",
    "independent RNG streams split off the base seed",
);

/// Monte-Carlo trials completed by `resq_sim::monte_carlo`.
pub static MC_TRIALS_RUN: Counter = Counter::new(
    "mc_trials_run",
    "Monte-Carlo trials completed across all runs",
);

/// Trial chunks completed by the Monte-Carlo work queue.
pub static MC_CHUNKS_RUN: Counter = Counter::new(
    "mc_chunks_run",
    "fixed-size trial chunks drained from the Monte-Carlo work queue",
);

/// Monte-Carlo batch runs started (`run_trials*` calls).
pub static MC_RUNS: Counter = Counter::new(
    "mc_runs",
    "Monte-Carlo batch runs (run_trials calls) started",
);

/// Checkpoint write attempts made under fault injection
/// (`resq_sim::faults`), successful or not.
pub static CKPT_ATTEMPTS_TOTAL: Counter = Counter::new(
    "ckpt_attempts_total",
    "checkpoint write attempts made under fault injection",
);

/// Checkpoint write attempts that failed under fault injection.
pub static CKPT_FAILURES_TOTAL: Counter = Counter::new(
    "ckpt_failures_total",
    "checkpoint write attempts that failed under fault injection",
);

/// Retired: the solvers no longer share fit lattices between calls, so
/// nothing increments it. Kept registered because the benchmark reads it.
pub static SOLVER_CACHE_HITS_TOTAL: Counter = Counter::new(
    "solver_cache_hits_total",
    "retired, always 0: solver fit lattices are no longer cached across calls",
);

/// Retired with [`SOLVER_CACHE_HITS_TOTAL`].
pub static SOLVER_CACHE_MISSES_TOTAL: Counter = Counter::new(
    "solver_cache_misses_total",
    "retired, always 0: each solver call builds its own fit lattice",
);

/// Policy-lattice queries answered by multilinear interpolation (the
/// O(µs) path; see `docs/LATTICES.md`).
pub static LATTICE_LOOKUP_HITS_TOTAL: Counter = Counter::new(
    "lattice_lookup_hits_total",
    "policy-lattice queries answered by multilinear interpolation",
);

/// Policy-lattice queries that fell outside the precomputed grid (wrong
/// family, incompatible checkpoint shape, or coordinates out of range)
/// and were answered by the exact solver instead.
pub static LATTICE_LOOKUP_MISSES_TOTAL: Counter = Counter::new(
    "lattice_lookup_misses_total",
    "policy-lattice queries outside the precomputed grid (answered exactly)",
);

/// In-grid policy-lattice queries whose two-resolution a-posteriori
/// interpolation error estimate exceeded the artifact's tolerance, so
/// the exact solver answered instead.
pub static LATTICE_FALLBACKS_TOTAL: Counter = Counter::new(
    "lattice_fallbacks_total",
    "in-grid lattice queries re-answered exactly after failing the error check",
);

/// HTTP requests accepted by the live telemetry server
/// (`resq_obs::http`), any method or path.
pub static HTTP_REQUESTS_TOTAL: Counter = Counter::new(
    "http_requests_total",
    "HTTP requests accepted by the telemetry server",
);

/// HTTP requests the telemetry server answered with a 4xx/5xx status
/// (or dropped on a read timeout before a request line arrived).
pub static HTTP_ERRORS_TOTAL: Counter = Counter::new(
    "http_errors_total",
    "telemetry-server requests answered with an error status or timed out",
);

/// Checkpoint decisions requested from the `resq serve` daemon
/// (`POST /decide`, `/decide/batch` and the length-prefixed TCP fast
/// path); batch requests count one per item.
pub static DECIDE_REQUESTS_TOTAL: Counter = Counter::new(
    "decide_requests_total",
    "checkpoint decisions requested from the decision service",
);

/// Decisions the service answered from the interpolated policy lattice
/// (the O(µs) path).
pub static DECIDE_LATTICE_HITS_TOTAL: Counter = Counter::new(
    "decide_lattice_hits_total",
    "decision-service answers served by lattice interpolation",
);

/// Decisions the service answered with the exact solver (no lattice for
/// the family, out-of-grid query, or the lattice's own error-check
/// fallback).
pub static DECIDE_FALLBACKS_TOTAL: Counter = Counter::new(
    "decide_fallbacks_total",
    "decision-service answers that fell back to the exact solver",
);

/// Decisions rejected by the admission policy (429/503 + Retry-After)
/// before reaching the solver.
pub static DECIDE_REJECTED_TOTAL: Counter = Counter::new(
    "decide_rejected_total",
    "decision requests shed by the admission/backpressure policy",
);

/// Decisions that exceeded the service's per-request deadline and were
/// answered with a typed `timeout` error instead of a (stale) result.
pub static DECIDE_TIMEOUTS_TOTAL: Counter = Counter::new(
    "decide_timeouts_total",
    "decision requests answered with a typed timeout error past the per-request deadline",
);

/// Connection-worker recoveries: a handler panic was caught by the
/// supervised pool (`catch_unwind` per connection) and the worker slot
/// went back to serving instead of dying.
pub static WORKERS_RESTARTED_TOTAL: Counter = Counter::new(
    "workers_restarted_total",
    "server worker slots respawned after a caught handler panic",
);

/// Lattice artifacts quarantined at load/reload time: the file was
/// present but failed validation (torn JSON, fingerprint mismatch,
/// malformed grid), so the family was flipped to exact-solver-only
/// degraded mode instead of serving corrupt interpolations.
pub static LATTICE_QUARANTINED_TOTAL: Counter = Counter::new(
    "lattice_quarantined_total",
    "policy-lattice artifacts rejected at (re)load and quarantined to exact-only mode",
);

/// Decisions currently being solved by the decision service (admitted,
/// not yet answered) — the backpressure policy rejects new work when
/// this reaches the configured cap.
pub static DECIDE_QUEUE_DEPTH: Gauge = Gauge::new(
    "decide_queue_depth",
    "decision requests admitted and not yet answered",
);

/// Distribution of trials processed per worker thread per run —
/// lopsided buckets mean poor load balance.
pub static MC_WORKER_TRIALS: Histogram = Histogram::new(
    "mc_worker_trials",
    "trials processed per worker thread per Monte-Carlo run (power-of-two buckets)",
);

/// Every registered counter, in display order.
pub static ALL_COUNTERS: &[&Counter] = &[
    &QUADRATURE_EVALS,
    &ROOT_ITERATIONS,
    &OPTIMIZER_ITERATIONS,
    &RNG_STREAM_DERIVATIONS,
    &MC_TRIALS_RUN,
    &MC_CHUNKS_RUN,
    &MC_RUNS,
    &CKPT_ATTEMPTS_TOTAL,
    &CKPT_FAILURES_TOTAL,
    &SOLVER_CACHE_HITS_TOTAL,
    &SOLVER_CACHE_MISSES_TOTAL,
    &LATTICE_LOOKUP_HITS_TOTAL,
    &LATTICE_LOOKUP_MISSES_TOTAL,
    &LATTICE_FALLBACKS_TOTAL,
    &HTTP_REQUESTS_TOTAL,
    &HTTP_ERRORS_TOTAL,
    &DECIDE_REQUESTS_TOTAL,
    &DECIDE_LATTICE_HITS_TOTAL,
    &DECIDE_FALLBACKS_TOTAL,
    &DECIDE_REJECTED_TOTAL,
    &DECIDE_TIMEOUTS_TOTAL,
    &WORKERS_RESTARTED_TOTAL,
    &LATTICE_QUARANTINED_TOTAL,
];

/// Every registered gauge, in display order.
pub static ALL_GAUGES: &[&Gauge] = &[&DECIDE_QUEUE_DEPTH];

/// Every registered histogram, in display order.
pub static ALL_HISTOGRAMS: &[&Histogram] = &[&MC_WORKER_TRIALS];

/// Resets every registered metric (tests; CLI per-run deltas).
pub fn reset_all() {
    for c in ALL_COUNTERS {
        c.reset();
    }
    for g in ALL_GAUGES {
        g.reset();
    }
    for h in ALL_HISTOGRAMS {
        h.reset();
    }
}

/// Snapshot of all counters as `(name, value)` pairs.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    ALL_COUNTERS.iter().map(|c| (c.name(), c.get())).collect()
}

/// Point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The metric name.
    pub name: &'static str,
    /// Sum of observed values at capture time.
    pub sum: u64,
    /// Bucket counts at capture time.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Quantile estimate (see [`quantile_from_buckets`]).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.buckets, q)
    }
}

/// Point-in-time copy of the whole metric registry.
///
/// The registry is process-global, so two concurrent readers (parallel
/// `cargo test` threads, a bench harness timing several stages) see each
/// other's increments in the absolute values. The fix is differential
/// reads: capture before, capture after, and look at
/// [`Snapshot::delta`] — work done *elsewhere on the same thread* is
/// still excluded, and work done on other threads only pollutes the
/// delta if it overlaps the measured window (rather than the process
/// lifetime).
///
/// ```
/// use resq_obs::metrics::{Snapshot, QUADRATURE_EVALS};
///
/// let before = Snapshot::capture();
/// QUADRATURE_EVALS.add(17);
/// let delta = Snapshot::capture().delta(&before);
/// assert_eq!(delta.counter("quadrature_evals"), 17);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter, in display order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, level)` for every registered gauge, in display order.
    pub gauges: Vec<(&'static str, i64)>,
    /// A copy of every registered histogram, in display order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Captures the current value of every registered metric.
    pub fn capture() -> Self {
        Self {
            counters: snapshot(),
            gauges: ALL_GAUGES.iter().map(|g| (g.name(), g.get())).collect(),
            histograms: ALL_HISTOGRAMS
                .iter()
                .map(|h| HistogramSnapshot {
                    name: h.name(),
                    sum: h.sum(),
                    buckets: h.buckets(),
                })
                .collect(),
        }
    }

    /// The change since `earlier`: per-counter and per-bucket saturating
    /// subtraction (a reset between the captures shows as zero, not as
    /// an underflow panic). Gauges are levels, not totals, so the delta
    /// carries the later capture's levels unchanged.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|&(name, v)| {
                let before = earlier
                    .counters
                    .iter()
                    .find(|&&(n, _)| n == name)
                    .map_or(0, |&(_, b)| b);
                (name, v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let before = earlier.histograms.iter().find(|b| b.name == h.name);
                let mut buckets = h.buckets;
                let mut sum = h.sum;
                if let Some(b) = before {
                    for (slot, prev) in buckets.iter_mut().zip(&b.buckets) {
                        *slot = slot.saturating_sub(*prev);
                    }
                    sum = sum.saturating_sub(b.sum);
                }
                HistogramSnapshot {
                    name: h.name,
                    sum,
                    buckets,
                }
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// The value of the named counter (0 when unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The level of the named gauge (0 when unknown).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The named histogram snapshot, when registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Human-readable multi-line summary of all metrics, as printed by the
/// CLI `--metrics` flag (and `--metrics-format summary`). Zero-valued
/// counters are included so the set of lines is predictable for
/// tooling; histograms get p50/p90/p99 estimates from their bucket
/// boundaries. Span timings recorded in the calling thread's current
/// [`span`] registry are appended when any exist.
pub fn format_summary() -> String {
    let mut out = String::from("metrics:\n");
    for c in ALL_COUNTERS {
        out.push_str(&format!("  {:<24} {:>12}  {}\n", c.name(), c.get(), c.help()));
    }
    for g in ALL_GAUGES {
        out.push_str(&format!("  {:<24} {:>12}  {}\n", g.name(), g.get(), g.help()));
    }
    for h in ALL_HISTOGRAMS {
        out.push_str(&format!(
            "  {:<24} {:>12}  {}\n",
            h.name(),
            h.count(),
            h.help()
        ));
        if h.count() > 0 {
            out.push_str(&format!(
                "    p50 {:.0}  p90 {:.0}  p99 {:.0}  sum {}\n",
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.sum(),
            ));
        }
        for (lower, n) in h.nonzero_buckets() {
            out.push_str(&format!("    >= {lower:<12} {n:>10}\n"));
        }
    }
    let spans = span::current().snapshot();
    if !spans.is_empty() {
        out.push_str("spans:\n");
        for s in &spans {
            out.push_str(&format!(
                "  {:<32} {:>8} x  total {:>12} ns  mean {:>10.0} ns  p50 {:.0}  p90 {:.0}  p99 {:.0}\n",
                s.path,
                s.count,
                s.total_nanos,
                s.mean_nanos(),
                s.quantile_nanos(0.50),
                s.quantile_nanos(0.90),
                s.quantile_nanos(0.99),
            ));
        }
    }
    out
}

/// Prefix applied to every metric name in the Prometheus exposition.
pub const PROMETHEUS_PREFIX: &str = "resq_";

/// Metric family name for span-duration histograms in the Prometheus
/// exposition (the span path is the `span` label).
pub const SPAN_DURATION_METRIC: &str = "resq_span_duration_nanos";

fn prometheus_escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn prometheus_escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn prometheus_histogram(
    out: &mut String,
    family: &str,
    labels: &str,
    buckets: &[u64; HISTOGRAM_BUCKETS],
    sum: u64,
) {
    let total: u64 = buckets.iter().sum();
    let last_nonzero = buckets.iter().rposition(|&n| n > 0);
    let mut cumulative = 0u64;
    if let Some(last) = last_nonzero {
        for (i, &n) in buckets.iter().enumerate().take(last + 1) {
            cumulative += n;
            let le = if i == HISTOGRAM_BUCKETS - 1 {
                // The saturated bucket has no finite bound; +Inf below
                // covers it.
                continue;
            } else {
                bucket_upper_bound(i)
            };
            let sep = if labels.is_empty() { "" } else { "," };
            out.push_str(&format!(
                "{family}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
            ));
        }
    }
    let sep = if labels.is_empty() { "" } else { "," };
    out.push_str(&format!(
        "{family}_bucket{{{labels}{sep}le=\"+Inf\"}} {total}\n"
    ));
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{family}_sum{braces} {sum}\n"));
    out.push_str(&format!("{family}_count{braces} {total}\n"));
}

/// Prometheus text exposition of every registered counter and
/// histogram, plus one `resq_span_duration_nanos` histogram per span
/// path recorded in the calling thread's current [`span`] registry.
///
/// The output is valid for a node-exporter *textfile collector*: write
/// it to a `*.prom` file (`resq simulate … --metrics-format prometheus
/// 2>metrics.prom`) and point the collector at the directory. Counter
/// samples carry no timestamp, so the scrape time is used.
pub fn format_prometheus() -> String {
    format_prometheus_from(&Snapshot::capture(), &span::current().snapshot())
}

/// [`format_prometheus`] rendered from an already-captured [`Snapshot`]
/// and span snapshot, so a reader (the HTTP `/metrics` endpoint) can
/// take one consistent capture and format it without racing the
/// workload it is observing.
pub fn format_prometheus_from(snap: &Snapshot, spans: &[span::SpanStats]) -> String {
    let mut out = String::new();
    for c in ALL_COUNTERS {
        let name = format!("{PROMETHEUS_PREFIX}{}", c.name());
        out.push_str(&format!("# HELP {name} {}\n", prometheus_escape_help(c.help())));
        out.push_str(&format!("# TYPE {name} counter\n"));
        out.push_str(&format!("{name} {}\n", snap.counter(c.name())));
    }
    for g in ALL_GAUGES {
        let name = format!("{PROMETHEUS_PREFIX}{}", g.name());
        out.push_str(&format!("# HELP {name} {}\n", prometheus_escape_help(g.help())));
        out.push_str(&format!("# TYPE {name} gauge\n"));
        out.push_str(&format!("{name} {}\n", snap.gauge(g.name())));
    }
    for h in ALL_HISTOGRAMS {
        let Some(hs) = snap.histogram(h.name()) else {
            continue;
        };
        let name = format!("{PROMETHEUS_PREFIX}{}", h.name());
        out.push_str(&format!("# HELP {name} {}\n", prometheus_escape_help(h.help())));
        out.push_str(&format!("# TYPE {name} histogram\n"));
        prometheus_histogram(&mut out, &name, "", &hs.buckets, hs.sum);
    }
    if !spans.is_empty() {
        out.push_str(&format!(
            "# HELP {SPAN_DURATION_METRIC} elapsed wall-clock nanoseconds per span closure\n"
        ));
        out.push_str(&format!("# TYPE {SPAN_DURATION_METRIC} histogram\n"));
        for s in spans {
            let labels = format!("span=\"{}\"", prometheus_escape_label(&s.path));
            prometheus_histogram(&mut out, SPAN_DURATION_METRIC, &labels, &s.buckets, s.total_nanos);
        }
    }
    out
}

/// Machine-readable JSON snapshot of every registered counter and
/// histogram plus the span timings in the calling thread's current
/// [`span`] registry — the `--metrics-format json` output. One JSON
/// object, no trailing newline; histogram buckets are
/// `[lower_bound, count]` pairs for the non-empty buckets.
pub fn format_json() -> String {
    format_json_from(&Snapshot::capture(), &span::current().snapshot())
}

/// [`format_json`] rendered from an already-captured [`Snapshot`] and
/// span snapshot (the HTTP `/metrics.json` endpoint's entry point).
pub fn format_json_from(snap: &Snapshot, spans: &[span::SpanStats]) -> String {
    use crate::json::write_escaped;
    let mut out = String::from("{\"counters\":{");
    for (i, &(name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, name);
        out.push_str(&format!(":{value}"));
    }
    out.push_str("},\"gauges\":{");
    for (i, &(name, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, name);
        out.push_str(&format!(":{value}"));
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, h.name);
        out.push_str(&format!(
            ":{{\"count\":{},\"sum\":{},\"p50\":{:.1},\"p90\":{:.1},\"p99\":{:.1},\"buckets\":[",
            h.count(),
            h.sum,
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99),
        ));
        let mut first = true;
        for (j, &n) in h.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{},{n}]", bucket_lower_bound(j)));
        }
        out.push_str("]}");
    }
    out.push_str("},\"spans\":{");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, &s.path);
        out.push_str(&format!(
            ":{{\"count\":{},\"total_nanos\":{},\"mean_nanos\":{:.1},\"p50_nanos\":{:.1},\"p90_nanos\":{:.1},\"p99_nanos\":{:.1},\"buckets\":[",
            s.count,
            s.total_nanos,
            s.mean_nanos(),
            s.quantile_nanos(0.50),
            s.quantile_nanos(0.90),
            s.quantile_nanos(0.99),
        ));
        let mut first = true;
        for (j, &n) in s.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{},{n}]", bucket_lower_bound(j)));
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        static C: Counter = Counter::new("test_counter", "test");
        C.add(5);
        C.inc();
        C.add(0);
        assert_eq!(C.get(), 6);
        C.reset();
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        static H: Histogram = Histogram::new("test_hist", "test");
        H.record(0);
        H.record(1);
        H.record(2);
        H.record(3);
        H.record(4096);
        assert_eq!(H.count(), 5);
        assert_eq!(H.sum(), 4102);
        let buckets = H.nonzero_buckets();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (4096, 1)]);
        H.reset();
        assert_eq!(H.count(), 0);
        assert_eq!(H.sum(), 0);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for i in 0..HISTOGRAM_BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            if i < HISTOGRAM_BUCKETS - 1 {
                assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            }
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_from_buckets() {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        // 100 observations of exactly 1.
        buckets[1] = 100;
        assert_eq!(quantile_from_buckets(&buckets, 0.5), 1.0);
        assert_eq!(quantile_from_buckets(&buckets, 0.99), 1.0);
        // Add 100 observations in [1024, 2047]: the p99 moves there.
        buckets[11] = 100;
        let p99 = quantile_from_buckets(&buckets, 0.99);
        assert!((1024.0..=2047.0).contains(&p99), "p99 = {p99}");
        let p25 = quantile_from_buckets(&buckets, 0.25);
        assert_eq!(p25, 1.0, "p25 = {p25}");
        // Empty histogram → 0.
        assert_eq!(quantile_from_buckets(&[0; HISTOGRAM_BUCKETS], 0.5), 0.0);
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[11] = 100; // all mass in [1024, 2047]
        let p10 = quantile_from_buckets(&buckets, 0.10);
        let p90 = quantile_from_buckets(&buckets, 0.90);
        assert!(p10 < p90, "p10 {p10} vs p90 {p90}");
        assert!((1024.0..=2047.0).contains(&p10));
        assert!((1024.0..=2047.0).contains(&p90));
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names = std::collections::BTreeSet::new();
        for c in ALL_COUNTERS {
            assert!(names.insert(c.name()), "duplicate metric {}", c.name());
        }
        for g in ALL_GAUGES {
            assert!(names.insert(g.name()), "duplicate metric {}", g.name());
        }
        for h in ALL_HISTOGRAMS {
            assert!(names.insert(h.name()), "duplicate metric {}", h.name());
        }
    }

    #[test]
    fn summary_mentions_every_metric() {
        let text = format_summary();
        for c in ALL_COUNTERS {
            assert!(text.contains(c.name()), "summary missing {}", c.name());
        }
        for g in ALL_GAUGES {
            assert!(text.contains(g.name()), "summary missing {}", g.name());
        }
        for h in ALL_HISTOGRAMS {
            assert!(text.contains(h.name()), "summary missing {}", h.name());
        }
    }

    #[test]
    fn gauge_levels_move_both_ways_and_snapshot() {
        DECIDE_QUEUE_DEPTH.set(0);
        DECIDE_QUEUE_DEPTH.add(5);
        DECIDE_QUEUE_DEPTH.sub(2);
        assert_eq!(DECIDE_QUEUE_DEPTH.get(), 3);
        let snap = Snapshot::capture();
        assert_eq!(snap.gauge("decide_queue_depth"), 3);
        assert_eq!(snap.gauge("no_such_gauge"), 0);
        // A delta carries the later levels unchanged: gauges are levels.
        let later = Snapshot::capture();
        assert_eq!(later.delta(&snap).gauge("decide_queue_depth"), 3);
        DECIDE_QUEUE_DEPTH.reset();
        assert_eq!(DECIDE_QUEUE_DEPTH.get(), 0);
    }

    #[test]
    fn summary_includes_quantiles_for_nonempty_histograms() {
        // Use a private span registry so this test is immune to (and
        // does not disturb) concurrent tests.
        let before = Snapshot::capture();
        MC_WORKER_TRIALS.record(5000);
        let text = format_summary();
        assert!(text.contains("p50"), "summary lost quantiles:\n{text}");
        assert!(text.contains("p99"), "summary lost quantiles:\n{text}");
        let delta = Snapshot::capture().delta(&before);
        assert_eq!(delta.histogram("mc_worker_trials").unwrap().count(), 1);
    }

    #[test]
    fn snapshot_delta_isolates_a_window() {
        let before = Snapshot::capture();
        QUADRATURE_EVALS.add(123);
        MC_WORKER_TRIALS.record(7);
        let delta = Snapshot::capture().delta(&before);
        assert!(delta.counter("quadrature_evals") >= 123);
        let h = delta.histogram("mc_worker_trials").unwrap();
        assert!(h.count() >= 1);
        assert!(h.sum >= 7);
        assert_eq!(delta.counter("no_such_counter"), 0);
        assert!(delta.histogram("no_such_histogram").is_none());
    }

    #[test]
    fn snapshot_delta_survives_reset_between_captures() {
        let before = Snapshot::capture();
        // A reset elsewhere (e.g. another test) must not panic the delta.
        let zeroed = Snapshot {
            counters: before.counters.iter().map(|&(n, _)| (n, 0)).collect(),
            gauges: before.gauges.clone(),
            histograms: before
                .histograms
                .iter()
                .map(|h| HistogramSnapshot {
                    name: h.name,
                    sum: 0,
                    buckets: [0; HISTOGRAM_BUCKETS],
                })
                .collect(),
        };
        let delta = zeroed.delta(&before);
        for &(_, v) in &delta.counters {
            assert_eq!(v, 0);
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = span::SpanRegistry::new();
        let _scope = span::scoped(reg.clone());
        reg.record("solve/preemptible", 1_000);
        reg.record("solve/preemptible", 3_000);
        MC_WORKER_TRIALS.record(10);
        let text = format_prometheus();

        // Every counter appears with HELP, TYPE and a sample line.
        for c in ALL_COUNTERS {
            let name = format!("{PROMETHEUS_PREFIX}{}", c.name());
            assert!(text.contains(&format!("# HELP {name} ")), "missing HELP for {name}");
            assert!(text.contains(&format!("# TYPE {name} counter\n")), "missing TYPE for {name}");
            assert!(text.contains(&format!("\n{name} ")) || text.starts_with(&format!("{name} ")),
                "missing sample for {name}");
        }
        // Every gauge appears with a gauge TYPE and a sample line.
        for g in ALL_GAUGES {
            let name = format!("{PROMETHEUS_PREFIX}{}", g.name());
            assert!(text.contains(&format!("# TYPE {name} gauge\n")), "missing TYPE for {name}");
            assert!(text.contains(&format!("\n{name} ")), "missing sample for {name}");
        }
        // Histogram family with +Inf bucket, _sum, _count.
        assert!(text.contains("# TYPE resq_mc_worker_trials histogram"));
        assert!(text.contains("resq_mc_worker_trials_bucket{le=\"+Inf\"}"));
        assert!(text.contains("resq_mc_worker_trials_sum"));
        assert!(text.contains("resq_mc_worker_trials_count"));
        // Span histogram with the span label.
        assert!(text.contains("# TYPE resq_span_duration_nanos histogram"));
        assert!(text.contains("resq_span_duration_nanos_bucket{span=\"solve/preemptible\",le=\"+Inf\"} 2"));
        assert!(text.contains("resq_span_duration_nanos_sum{span=\"solve/preemptible\"} 4000"));
        assert!(text.contains("resq_span_duration_nanos_count{span=\"solve/preemptible\"} 2"));

        // Bucket series are cumulative: counts never decrease as le grows.
        let mut last: Option<u64> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("resq_span_duration_nanos_bucket{span=\"solve/preemptible\"") {
                let count: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                if let Some(prev) = last {
                    assert!(count >= prev, "bucket series not cumulative: {line}");
                }
                last = Some(count);
            }
        }
        assert!(last.is_some(), "no span buckets found:\n{text}");
    }

    #[test]
    fn json_exposition_parses_and_covers_registry() {
        let reg = span::SpanRegistry::new();
        let _scope = span::scoped(reg.clone());
        reg.record("sim/mc", 2_500);
        let text = format_json();
        let v = crate::json::parse(&text).expect("metrics JSON parses");
        for c in ALL_COUNTERS {
            assert!(
                v.get("counters").unwrap().get(c.name()).is_some(),
                "JSON missing counter {}",
                c.name()
            );
        }
        for g in ALL_GAUGES {
            assert!(
                v.get("gauges").unwrap().get(g.name()).is_some(),
                "JSON missing gauge {}",
                g.name()
            );
        }
        let span_obj = v.get("spans").unwrap().get("sim/mc").unwrap();
        assert_eq!(span_obj.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(span_obj.get("total_nanos").unwrap().as_u64(), Some(2500));
    }
}
