//! Parallel Monte-Carlo trial runner.
//!
//! Trials are embarrassingly parallel; the only subtlety is
//! **reproducibility**: results must not depend on the number of worker
//! threads. Each trial `i` therefore gets its own RNG
//! `Xoshiro256pp::for_stream(seed, i)` derived from `(seed, i)` alone,
//! and trials are partitioned over scoped threads in
//! contiguous fixed-size chunks, with chunk-local [`Welford`]
//! accumulators streamed back to the coordinator and merged strictly in
//! chunk order — O(threads) live state regardless of trial count.

use crate::stats::{Summary, Welford};
use resq_dist::Xoshiro256pp;
use resq_obs::{event_type, metrics, span, span_name, tracectx, Event, NullSink, RunSink, Span};

/// Configuration of a Monte-Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloConfig {
    /// Number of independent trials.
    pub trials: u64,
    /// Base seed; trial `i` uses the derived stream `(seed, i)`.
    pub seed: u64,
    /// Worker threads; `0` means "use available parallelism".
    pub threads: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        Self {
            trials: 100_000,
            seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

impl MonteCarloConfig {
    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Runs `config.trials` independent trials of `trial` (a function of the
/// trial index and its private RNG returning one scalar metric) and
/// reduces them to a [`Summary`].
///
/// Deterministic for fixed `(trials, seed)` regardless of `threads`.
///
/// ```
/// use resq_dist::{Normal, Sample};
/// use resq_sim::{run_trials, MonteCarloConfig};
///
/// let law = Normal::new(5.0, 0.4)?;
/// let cfg = MonteCarloConfig { trials: 50_000, seed: 1, threads: 0 };
/// let s = run_trials(cfg, |_, rng| law.sample(rng));
/// assert!((s.mean - 5.0).abs() < 0.01);
/// assert!(s.ci95_contains(5.0));
/// # Ok::<(), resq_dist::DistError>(())
/// ```
pub fn run_trials<F>(config: MonteCarloConfig, trial: F) -> Summary
where
    F: Fn(u64, &mut Xoshiro256pp) -> f64 + Sync,
{
    run_trials_observed(config, &NullSink, 0, trial)
}

/// Size of the fixed work-queue chunks. Independent of thread count by
/// design: per-chunk accumulators merged in chunk order make results
/// (and event logs) bit-identical whether 1 or 64 workers run them.
pub const CHUNK: u64 = 4096;

/// [`run_trials`] with structured observability: emits `trial-sample`
/// rows (one per trial index divisible by `sample_every`, when non-zero)
/// and `chunk-progress` rows (one per chunk, with the cumulative trial
/// count and running mean) into `sink`.
///
/// Determinism contract: workers buffer events per chunk; the
/// coordinating thread emits all buffers *in chunk order* after the run,
/// so for a fixed `(trials, seed, sample_every)` the emitted log is
/// byte-identical regardless of `threads`. Rows carry no wall-clock
/// times and no thread counts — that provenance belongs in a
/// [`resq_obs::RunManifest`]. Callers that want framing rows
/// (`run-started` / `run-finished`) emit them around this call, where
/// the full configuration is known.
pub fn run_trials_observed<F>(
    config: MonteCarloConfig,
    sink: &dyn RunSink,
    sample_every: u64,
    trial: F,
) -> Summary
where
    F: Fn(u64, &mut Xoshiro256pp) -> f64 + Sync,
{
    run_trials_core(
        config,
        sink,
        sample_every,
        span_name::MC_CHUNK,
        || (),
        move |i, rng, _scratch: &mut ()| trial(i, rng),
    )
}

/// Batched-sampling variant of [`run_trials_observed`]: each *worker*
/// builds one `scratch` value (`make_scratch`) when it starts and
/// threads it through every trial it runs, so trial kernels reuse their
/// sample buffers (see `WorkflowSim::run_once_batched`) across all the
/// chunks a worker claims — zero allocations on the steady-state hot
/// path — instead of drawing variates one virtual call at a time.
///
/// The determinism contract is unchanged: trial `i` still owns the
/// private stream `for_stream(seed, i)` and per-chunk accumulators merge
/// in chunk order, so results and event logs are bit-identical for any
/// `threads`. Trial kernels reset their scratch at trial entry and never
/// read values a previous trial left behind (scratch is a buffer, not
/// state), so worker-lifetime reuse cannot couple trials across
/// scheduling decisions. Chunks record under the `sim/mc/batch` span
/// (scalar chunks use `sim/mc/chunk`), which is how span snapshots tell
/// the two paths apart.
pub fn run_trials_batched<S, M, F>(
    config: MonteCarloConfig,
    sink: &dyn RunSink,
    sample_every: u64,
    make_scratch: M,
    trial: F,
) -> Summary
where
    S: Send,
    M: Fn() -> S + Sync,
    F: Fn(u64, &mut Xoshiro256pp, &mut S) -> f64 + Sync,
{
    run_trials_core(
        config,
        sink,
        sample_every,
        span_name::MC_BATCH,
        make_scratch,
        trial,
    )
}

/// Shared chunk-parallel harness behind the scalar and batched runners;
/// `chunk_span` names the per-chunk root span, `make_scratch` builds the
/// per-*worker* trial state.
///
/// Aggregation is fully streaming: workers claim chunk indices from an
/// atomic cursor, run each chunk into a chunk-local [`Welford`], and send
/// `(index, accumulator, events)` down a *bounded* channel; the
/// coordinating thread merges results strictly in chunk order through a
/// small reorder buffer. Because indices are claimed in increasing order
/// and the channel applies backpressure, at most
/// `threads + channel-capacity` chunk results are alive at any instant —
/// O(threads) memory however many hundreds of millions of trials run
/// (the retired implementation buffered one slot per chunk for the whole
/// run). Scratch is built once per worker, not once per chunk, so the
/// steady-state hot path performs zero allocations.
fn run_trials_core<S, M, F>(
    config: MonteCarloConfig,
    sink: &dyn RunSink,
    sample_every: u64,
    chunk_span: &'static str,
    make_scratch: M,
    trial: F,
) -> Summary
where
    S: Send,
    M: Fn() -> S + Sync,
    F: Fn(u64, &mut Xoshiro256pp, &mut S) -> f64 + Sync,
{
    metrics::MC_RUNS.inc();
    // Capture the coordinating thread's span registry once and hand it
    // to the chunk runner explicitly: chunk spans then land under the
    // stable `sim/mc/chunk` path in *this* registry no matter which
    // worker thread executes them, keeping span structure (names and
    // counts) invariant under `threads`.
    let spans = span::current();
    // Likewise capture the current run context (if the caller entered
    // one via `tracectx::enter_run`) so worker threads can publish live
    // progress to the run registry. Progress counts are telemetry only
    // — they feed `/runs`, never the event log — so the order workers
    // bump them in does not threaten log determinism.
    let run = tracectx::current_run();
    let _run_span = span::enter(span_name::MC_RUN);
    let observing = sink.enabled();
    let n_chunks = config.trials.div_ceil(CHUNK).max(1) as usize;
    let run_chunk = |c: usize, scratch: &mut S| {
        let _chunk_span = Span::root(spans.clone(), chunk_span);
        let lo = c as u64 * CHUNK;
        let hi = (lo + CHUNK).min(config.trials);
        let mut acc = Welford::new();
        let mut events: Vec<Event> = Vec::new();
        // One bulk tally instead of an atomic increment per trial; the
        // counter's total is unchanged.
        metrics::RNG_STREAM_DERIVATIONS.add(hi - lo);
        for i in lo..hi {
            let mut rng = Xoshiro256pp::for_stream_untallied(config.seed, i);
            let value = trial(i, &mut rng, scratch);
            acc.add(value);
            if observing && sample_every > 0 && i % sample_every == 0 {
                events.push(
                    Event::new(event_type::TRIAL_SAMPLE)
                        .u64("trial", i)
                        .f64("value", value),
                );
            }
        }
        if let Some(r) = &run {
            r.add_progress(hi - lo);
        }
        (acc, events)
    };

    let threads = config.resolved_threads().max(1).min(n_chunks);
    let mut total = Welford::new();
    // In-order merge step shared by the serial and parallel paths: event
    // buffers flush the moment their chunk's turn comes up, and the
    // cumulative progress row is emitted right after — the log is
    // byte-identical to the old buffer-everything implementation.
    let mut merge = |c: usize, partial: &Welford, events: Vec<Event>| {
        for event in events {
            sink.emit(event);
        }
        total.merge(partial);
        if observing {
            sink.emit(
                Event::new(event_type::CHUNK_PROGRESS)
                    .u64("chunk", c as u64)
                    .u64("trials_done", total.count())
                    .f64("running_mean", total.mean()),
            );
        }
    };

    if threads == 1 {
        let mut scratch = make_scratch();
        for c in 0..n_chunks {
            let (acc, events) = run_chunk(c, &mut scratch);
            merge(c, &acc, events);
        }
        metrics::MC_WORKER_TRIALS.record(config.trials);
    } else {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            // Bounded result channel: backpressure caps the number of
            // finished-but-unmerged chunks, which (with the monotone
            // cursor) bounds the coordinator's reorder buffer.
            let (tx, rx) =
                std::sync::mpsc::sync_channel::<(usize, Welford, Vec<Event>)>(threads * 2);
            for _ in 0..threads {
                let tx = tx.clone();
                let run_chunk = &run_chunk;
                let make_scratch = &make_scratch;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut scratch = make_scratch();
                    let mut worker_trials = 0u64;
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let (acc, events) = run_chunk(c, &mut scratch);
                        worker_trials += acc.count();
                        if tx.send((c, acc, events)).is_err() {
                            break;
                        }
                    }
                    metrics::MC_WORKER_TRIALS.record(worker_trials);
                });
            }
            drop(tx);
            // Streaming in-order merge: results may arrive out of order;
            // park early arrivals until their predecessors land.
            let mut pending: std::collections::BTreeMap<usize, (Welford, Vec<Event>)> =
                std::collections::BTreeMap::new();
            let mut next = 0usize;
            while let Ok((c, acc, events)) = rx.recv() {
                pending.insert(c, (acc, events));
                while let Some((acc, events)) = pending.remove(&next) {
                    merge(next, &acc, events);
                    next += 1;
                }
            }
            debug_assert!(pending.is_empty());
        });
    }

    metrics::MC_TRIALS_RUN.add(config.trials);
    metrics::MC_CHUNKS_RUN.add(n_chunks as u64);
    total.summary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Normal, Sample};

    #[test]
    fn deterministic_across_thread_counts() {
        let law = Normal::new(3.0, 0.5).unwrap();
        let run = |threads| {
            run_trials(
                MonteCarloConfig {
                    trials: 20_000,
                    seed: 7,
                    threads,
                },
                |_, rng| law.sample(rng),
            )
        };
        let s1 = run(1);
        let s4 = run(4);
        let s7 = run(7);
        assert_eq!(s1.mean, s4.mean, "1 vs 4 threads");
        assert_eq!(s4.mean, s7.mean, "4 vs 7 threads");
        assert_eq!(s1.std_dev, s7.std_dev);
    }

    #[test]
    fn recovers_known_mean() {
        let law = Normal::new(5.0, 0.4).unwrap();
        let s = run_trials(
            MonteCarloConfig {
                trials: 200_000,
                seed: 11,
                threads: 0,
            },
            |_, rng| law.sample(rng),
        );
        assert!(
            (s.mean - 5.0).abs() < s.ci999_half_width() + 1e-9,
            "mean {} vs 5.0",
            s.mean
        );
        assert!((s.std_dev - 0.4).abs() < 0.01);
        assert_eq!(s.n, 200_000);
    }

    #[test]
    fn different_seeds_differ() {
        let law = Normal::new(0.0, 1.0).unwrap();
        let mk = |seed| {
            run_trials(
                MonteCarloConfig {
                    trials: 5000,
                    seed,
                    threads: 2,
                },
                |_, rng| law.sample(rng),
            )
        };
        assert_ne!(mk(1).mean, mk(2).mean);
    }

    #[test]
    fn observed_run_matches_unobserved_and_logs_in_order() {
        let law = Normal::new(3.0, 0.5).unwrap();
        let cfg = MonteCarloConfig {
            trials: 10_000,
            seed: 13,
            threads: 3,
        };
        let plain = run_trials(cfg, |_, rng| law.sample(rng));
        let sink = resq_obs::MemorySink::new();
        let observed = run_trials_observed(cfg, &sink, 1000, |_, rng| law.sample(rng));
        assert_eq!(
            plain.mean, observed.mean,
            "observation must not perturb results"
        );
        assert_eq!(plain.std_dev, observed.std_dev);

        let lines = sink.lines();
        // 10 sampled trials (0, 1000, ..., 9000) + 3 chunks of 4096.
        let samples: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("trial-sample"))
            .collect();
        let progress: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("chunk-progress"))
            .collect();
        assert_eq!(samples.len(), 10);
        assert_eq!(progress.len(), 3);
        // Chunk-progress rows are cumulative and ordered.
        assert!(progress[0].contains("\"trials_done\":4096"));
        assert!(progress[2].contains("\"trials_done\":10000"));
        // No wall-clock, no thread counts anywhere in the log.
        for l in &lines {
            assert!(!l.contains("threads"), "event log leaked thread count: {l}");
            assert!(!l.contains("wall"), "event log leaked wall time: {l}");
        }
    }

    #[test]
    fn observed_log_is_identical_across_thread_counts() {
        let law = Normal::new(5.0, 0.4).unwrap();
        let capture = |threads| {
            let sink = resq_obs::MemorySink::new();
            let cfg = MonteCarloConfig {
                trials: 20_000,
                seed: 21,
                threads,
            };
            run_trials_observed(cfg, &sink, 500, |_, rng| law.sample(rng));
            sink.lines()
        };
        let log1 = capture(1);
        let log4 = capture(4);
        let log7 = capture(7);
        assert_eq!(log1, log4, "1 vs 4 threads");
        assert_eq!(log4, log7, "4 vs 7 threads");
    }

    #[test]
    fn null_sink_emits_nothing_and_changes_nothing() {
        let cfg = MonteCarloConfig {
            trials: 5000,
            seed: 9,
            threads: 2,
        };
        let a = run_trials(cfg, |i, _| i as f64);
        let b = run_trials_observed(cfg, &resq_obs::NullSink, 100, |i, _| i as f64);
        assert_eq!(a.mean, b.mean);
    }

    #[test]
    fn batched_runner_with_passthrough_trial_matches_scalar() {
        // With a unit scratch and a scalar-drawing trial the batched
        // runner is the same computation as the scalar one — same
        // per-trial streams, same chunk merge order.
        let law = Normal::new(3.0, 0.5).unwrap();
        let cfg = MonteCarloConfig {
            trials: 10_000,
            seed: 17,
            threads: 3,
        };
        let a = run_trials(cfg, |_, rng| law.sample(rng));
        let b = run_trials_batched(
            cfg,
            &resq_obs::NullSink,
            0,
            || (),
            |_, rng, _scratch| law.sample(rng),
        );
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std_dev, b.std_dev);
    }

    #[test]
    fn batched_runner_records_batch_chunk_spans() {
        let registry = resq_obs::span::SpanRegistry::new();
        {
            let _scope = span::scoped(registry.clone());
            let cfg = MonteCarloConfig {
                trials: 9000,
                seed: 4,
                threads: 2,
            };
            run_trials_batched(cfg, &resq_obs::NullSink, 0, || (), |i, _, _| i as f64);
        }
        let structure = registry.structure();
        let paths: Vec<&str> = structure.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec![span_name::MC_RUN, span_name::MC_BATCH]);
        let batch_chunks = structure
            .iter()
            .find(|(p, _)| p == span_name::MC_BATCH)
            .map(|(_, n)| *n)
            .unwrap();
        assert_eq!(batch_chunks, 9000u64.div_ceil(CHUNK));
    }

    #[test]
    fn small_runs_take_serial_path() {
        let s = run_trials(
            MonteCarloConfig {
                trials: 10,
                seed: 1,
                threads: 8,
            },
            |i, _| i as f64,
        );
        assert_eq!(s.n, 10);
        assert!((s.mean - 4.5).abs() < 1e-12);
    }
}
