//! Span-level timing: cheap RAII scoped timers forming a named
//! hierarchy, aggregated into power-of-two latency histograms.
//!
//! A [`Span`] measures the wall-clock time between its creation and its
//! drop and records the elapsed nanoseconds into a [`SpanRegistry`]
//! under the span's *path*. Paths form a hierarchy: a span entered while
//! another span is open on the same thread gets the parent's path plus
//! `/` plus its own name (`solve/preemptible` + `brent` →
//! `solve/preemptible/brent`). Spans created with [`Span::root`] ignore
//! the ambient stack, which is how cross-thread work (the Monte-Carlo
//! chunk workers) keeps a stable path regardless of which thread runs
//! it.
//!
//! # Determinism contract
//!
//! Span *structure* — the set of paths and each path's enter count,
//! [`SpanRegistry::structure`] — is deterministic for a fixed workload:
//! it must not depend on thread count or scheduling (proved for the
//! Monte-Carlo harness by `tests/determinism.rs`). The *durations* are
//! wall-clock facts and belong with the other quarantined provenance
//! (manifests, metric summaries) — never in the event log.
//!
//! # Registries
//!
//! Production code records into the process-global registry
//! ([`global`]); the CLI's `--metrics-format` expositions read it.
//! Tests and the perf-baseline harness install a private registry for
//! the current thread with [`scoped`], so parallel `cargo test` threads
//! cannot contaminate each other's span counts. Code that hands work to
//! other threads captures [`current`] once on the coordinating thread
//! and passes the handle into the workers (see
//! `resq_sim::run_trials_observed`). See the worked example on
//! [`Span`].

use crate::metrics::{bucket_index, HISTOGRAM_BUCKETS};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Canonical span paths produced by the workspace's instrumentation.
///
/// These constants are the single source of truth for the span schema:
/// `docs/OBSERVABILITY.md` is checked against [`span_name::ALL`] by
/// `tests/docs_sync.rs`. Leaf names (`brent`, `quad`) nest under
/// whatever span is open at the call site, so the full paths observed
/// in practice include compositions like `solve/preemptible/brent`.
pub mod span_name {
    /// §3 preemptible-model optimization (`Preemptible::optimize*`).
    pub const SOLVE_PREEMPTIBLE: &str = "solve/preemptible";
    /// §4.2 static planning (`StaticStrategy` / `ConvolutionStatic`).
    pub const SOLVE_STATIC: &str = "solve/static";
    /// §4.3 dynamic threshold computation (`DynamicStrategy::threshold`).
    pub const SOLVE_DYNAMIC: &str = "solve/dynamic";
    /// One Monte-Carlo batch run (`run_trials*`). Root span.
    pub const MC_RUN: &str = "sim/mc";
    /// One 4096-trial Monte-Carlo chunk. Root span (chunks execute on
    /// worker threads; a root path keeps the structure thread-invariant).
    pub const MC_CHUNK: &str = "sim/mc/chunk";
    /// One 4096-trial chunk on the batched sampling fast path
    /// (`run_trials_batched`). Root span, same contract as
    /// [`MC_CHUNK`]; a scalar run never records it and a batched run
    /// never records `sim/mc/chunk`, so the two paths are
    /// distinguishable in any span snapshot.
    pub const MC_BATCH: &str = "sim/mc/batch";
    /// Leaf: one Brent root-find or minimization (`resq_numerics`).
    pub const BRENT: &str = "brent";
    /// Leaf: one adaptive-quadrature call (`resq_numerics::quad`).
    pub const QUAD: &str = "quad";
    /// One figure/experiment regeneration in `resq-bench`.
    pub const BENCH_FIGURE: &str = "bench/figure";
    /// Leaf: one evaluation of the §4.2 `E(n)` search objective (fast
    /// Gauss–Legendre path or its adaptive fallback) inside
    /// `StaticStrategy::optimize`. Nests under [`SOLVE_STATIC`] as
    /// `solve/static/objective` in practice.
    pub const SOLVE_OBJECTIVE: &str = "solve/objective";
    /// One policy-lattice query (`PolicyLattice::query`): the O(µs)
    /// interpolated lookup, *including* the exact-solver fallback when
    /// the query is out of grid or fails the a-posteriori error check —
    /// fallback solves nest under it as `solve/lattice_lookup/solve/…`.
    pub const SOLVE_LATTICE_LOOKUP: &str = "solve/lattice_lookup";
    /// One offline policy-lattice precomputation
    /// (`resq_core::lattice::build`); the per-node exact solves nest
    /// under it.
    pub const LATTICE_BUILD: &str = "lattice/build";
    /// One checkpoint decision answered by the `resq serve` daemon
    /// (single request or one batch item). Opened on the connection
    /// worker thread, so the lattice/solver spans it triggers nest under
    /// it (`serve/decide/solve/lattice_lookup`).
    pub const SERVE_DECIDE: &str = "serve/decide";

    /// Every canonical span name, for docs-sync checks.
    pub const ALL: &[&str] = &[
        SOLVE_PREEMPTIBLE,
        SOLVE_STATIC,
        SOLVE_DYNAMIC,
        SOLVE_OBJECTIVE,
        SOLVE_LATTICE_LOOKUP,
        LATTICE_BUILD,
        SERVE_DECIDE,
        MC_RUN,
        MC_CHUNK,
        MC_BATCH,
        BRENT,
        QUAD,
        BENCH_FIGURE,
    ];
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Full `/`-separated span path.
    pub path: String,
    /// Number of times the span was entered and closed.
    pub count: u64,
    /// Total elapsed nanoseconds across all closures.
    pub total_nanos: u64,
    /// Power-of-two histogram of per-closure elapsed nanoseconds
    /// (bucket semantics identical to [`crate::metrics::Histogram`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl SpanStats {
    fn new(path: &str) -> Self {
        Self {
            path: path.to_string(),
            count: 0,
            total_nanos: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    fn record(&mut self, nanos: u64) {
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.buckets[bucket_index(nanos)] += 1;
    }

    /// Mean nanoseconds per closure (0 when never closed).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.count as f64
        }
    }

    /// Quantile estimate from the power-of-two buckets (see
    /// [`crate::metrics::quantile_from_buckets`]).
    pub fn quantile_nanos(&self, q: f64) -> f64 {
        crate::metrics::quantile_from_buckets(&self.buckets, q)
    }
}

/// Where span closures are recorded: a map from span path to
/// [`SpanStats`], behind one mutex (locked once per span *closure*, not
/// per measurement — spans are scoped to whole solves, chunks and
/// figures, so contention is negligible).
#[derive(Debug, Default)]
pub struct SpanRegistry {
    inner: Mutex<BTreeMap<String, SpanStats>>,
}

impl SpanRegistry {
    /// Creates an empty registry behind an [`Arc`] (the handle form
    /// everything in this module passes around).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one closure of `path` taking `nanos`. Only the first
    /// closure of a path allocates its key.
    pub fn record(&self, path: &str, nanos: u64) {
        let mut map = self.inner.lock().expect("span registry poisoned");
        match map.get_mut(path) {
            Some(stats) => stats.record(nanos),
            None => map
                .entry(path.to_string())
                .or_insert_with(|| SpanStats::new(path))
                .record(nanos),
        }
    }

    /// Snapshot of every recorded path, sorted by path.
    pub fn snapshot(&self) -> Vec<SpanStats> {
        let map = self.inner.lock().expect("span registry poisoned");
        map.values().cloned().collect()
    }

    /// The deterministic part of the snapshot: `(path, count)` pairs,
    /// sorted by path. This is what the determinism tests compare across
    /// thread counts — durations are wall-clock and excluded.
    pub fn structure(&self) -> Vec<(String, u64)> {
        let map = self.inner.lock().expect("span registry poisoned");
        map.values().map(|s| (s.path.clone(), s.count)).collect()
    }

    /// Clears all recorded spans.
    pub fn reset(&self) {
        self.inner.lock().expect("span registry poisoned").clear();
    }
}

/// The process-global default registry (what the CLI expositions read).
pub fn global() -> &'static Arc<SpanRegistry> {
    static GLOBAL: OnceLock<Arc<SpanRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(SpanRegistry::new)
}

thread_local! {
    /// Per-thread override stack installed by [`scoped`].
    static REGISTRY_OVERRIDE: RefCell<Vec<Arc<SpanRegistry>>> = const { RefCell::new(Vec::new()) };
    /// The innermost open span's path on this thread (for nesting).
    static PATH_STACK: RefCell<PathStack> = const {
        RefCell::new(PathStack {
            path: String::new(),
            prefixes: Vec::new(),
        })
    };
}

/// The open spans of one thread: the innermost one's full path, and for
/// each open span the length of the path it extended (its parent's).
/// Entering appends `/name`; closing truncates back, so nesting reuses
/// one buffer instead of building each path in a fresh `String`.
struct PathStack {
    path: String,
    prefixes: Vec<usize>,
}

/// The registry spans on this thread currently record into: the
/// innermost [`scoped`] override, or the global default.
pub fn current() -> Arc<SpanRegistry> {
    REGISTRY_OVERRIDE.with(|stack| {
        stack
            .borrow()
            .last()
            .cloned()
            .unwrap_or_else(|| global().clone())
    })
}

/// Installs `registry` as this thread's span destination until the
/// returned guard drops. Nests (innermost wins). Used by tests and the
/// perf-baseline harness to read span data without cross-test
/// interference from the global registry.
pub fn scoped(registry: Arc<SpanRegistry>) -> ScopedRegistry {
    REGISTRY_OVERRIDE.with(|stack| stack.borrow_mut().push(registry));
    ScopedRegistry { _private: () }
}

/// Guard from [`scoped`]; restores the previous registry on drop.
pub struct ScopedRegistry {
    _private: (),
}

impl Drop for ScopedRegistry {
    fn drop(&mut self) {
        REGISTRY_OVERRIDE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// An open RAII span: measures from creation to drop and records the
/// elapsed nanoseconds under its path.
///
/// ```
/// use resq_obs::span::{self, SpanRegistry};
///
/// let reg = SpanRegistry::new();
/// {
///     let _scope = span::scoped(reg.clone());
///     let _solve = span::enter("solve/preemptible");
///     {
///         let _brent = span::enter("brent"); // nests under the open span
///     }
/// }
/// let structure = reg.structure();
/// assert_eq!(
///     structure,
///     vec![
///         ("solve/preemptible".to_string(), 1),
///         ("solve/preemptible/brent".to_string(), 1),
///     ]
/// );
/// ```
#[must_use = "a span measures until it is dropped; binding it to `_` drops immediately"]
pub struct Span {
    registry: Arc<SpanRegistry>,
    start: Instant,
    /// Whether this span pushed onto the thread-local path stack (and
    /// must pop it on drop). Root spans recorded off-stack don't.
    on_stack: bool,
    /// Full path (only stored for off-stack root spans; on-stack spans
    /// read the stack top on drop).
    path: Option<String>,
}

/// Opens a span named `name`, nested under the innermost open span on
/// this thread (if any), recording into [`current`] on drop.
pub fn enter(name: &str) -> Span {
    PATH_STACK.with(|stack| {
        let PathStack { path, prefixes } = &mut *stack.borrow_mut();
        prefixes.push(path.len());
        if prefixes.len() > 1 {
            path.push('/');
        }
        path.push_str(name);
    });
    Span {
        registry: current(),
        start: Instant::now(),
        on_stack: true,
        path: None,
    }
}

impl Span {
    /// Opens a span with the exact path `path`, ignoring the ambient
    /// stack, recording into `registry` on drop. This is the
    /// cross-thread form: a worker thread has no ambient stack, so the
    /// coordinating thread captures [`current`] once and hands the
    /// workers explicit `(registry, path)` pairs — making the recorded
    /// structure independent of which thread runs the work.
    pub fn root(registry: Arc<SpanRegistry>, path: &str) -> Span {
        Span {
            registry,
            start: Instant::now(),
            on_stack: false,
            path: Some(path.to_string()),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if self.on_stack {
            PATH_STACK.with(|stack| {
                let PathStack { path, prefixes } = &mut *stack.borrow_mut();
                if let Some(prefix) = prefixes.pop() {
                    self.registry.record(path, nanos);
                    path.truncate(prefix);
                }
            });
        } else if let Some(path) = &self.path {
            self.registry.record(path, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_slash_paths() {
        let reg = SpanRegistry::new();
        {
            let _scope = scoped(reg.clone());
            let _a = enter("solve/preemptible");
            {
                let _b = enter("brent");
            }
            {
                let _b = enter("brent");
            }
        }
        assert_eq!(
            reg.structure(),
            vec![
                ("solve/preemptible".to_string(), 1),
                ("solve/preemptible/brent".to_string(), 2),
            ]
        );
    }

    #[test]
    fn sibling_and_sequential_spans_do_not_nest() {
        let reg = SpanRegistry::new();
        {
            let _scope = scoped(reg.clone());
            {
                let _a = enter("quad");
            }
            {
                let _b = enter("brent");
            }
        }
        let paths: Vec<String> = reg.structure().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, vec!["brent".to_string(), "quad".to_string()]);
    }

    #[test]
    fn root_spans_ignore_the_ambient_stack() {
        let reg = SpanRegistry::new();
        {
            let _scope = scoped(reg.clone());
            let _outer = enter("sim/mc");
            {
                let _chunk = Span::root(current(), span_name::MC_CHUNK);
            }
        }
        let paths: Vec<String> = reg.structure().into_iter().map(|(p, _)| p).collect();
        assert_eq!(
            paths,
            vec!["sim/mc".to_string(), "sim/mc/chunk".to_string()]
        );
    }

    #[test]
    fn scoped_registry_restores_on_drop() {
        let reg = SpanRegistry::new();
        let before = global().structure().len();
        {
            let _scope = scoped(reg.clone());
            let _s = enter("test/scoped-span-unique");
        }
        {
            // Back on the global registry now; record under a unique name
            // and clean up via reset of our private registry only.
            assert_eq!(reg.structure().len(), 1);
        }
        // The scoped span must not have leaked into the global registry.
        let after = global()
            .structure()
            .iter()
            .filter(|(p, _)| p == "test/scoped-span-unique")
            .count();
        assert_eq!(after, 0);
        let _ = before;
    }

    #[test]
    fn stats_accumulate_durations_and_buckets() {
        let reg = SpanRegistry::new();
        reg.record("x", 0);
        reg.record("x", 1);
        reg.record("x", 1500);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(s.count, 3);
        assert_eq!(s.total_nanos, 1501);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
        assert_eq!(s.buckets[0], 1); // the 0ns closure
        assert_eq!(s.buckets[1], 1); // the 1ns closure
        assert_eq!(s.buckets[11], 1); // 1500 ∈ [1024, 2047]
        assert!(s.mean_nanos() > 0.0);
        reg.reset();
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn worker_thread_root_spans_land_in_captured_registry() {
        let reg = SpanRegistry::new();
        let handle = {
            let reg = reg.clone();
            std::thread::spawn(move || {
                let _s = Span::root(reg, span_name::MC_CHUNK);
            })
        };
        handle.join().unwrap();
        assert_eq!(reg.structure(), vec![(span_name::MC_CHUNK.to_string(), 1)]);
    }

    #[test]
    fn every_canonical_span_name_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for n in span_name::ALL {
            assert!(seen.insert(*n), "duplicate span name {n}");
        }
    }
}
