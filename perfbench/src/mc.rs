//! The Monte-Carlo workloads: `run_trials_batched` at one thread on the
//! paper's Fig. 8 instance (`mc_fig8`) and on Fig. 10's instance under
//! fault injection (`mc_faulty`). One request is one run of
//! [`TRIALS_PER_RUN`] trials, what `resq simulate` runs by default.

use crate::gen;
use crate::speed::Speed;
use crate::stats::{median, ratio, Latencies};
use crate::trace::{Layer, Tracer};
use crate::{Args, Report};
use resq::core::policy::ThresholdWorkflowPolicy;
use resq::dist::{Normal, Poisson, Sample, Truncated, Xoshiro256pp};
use resq::obs::metrics::{CKPT_ATTEMPTS_TOTAL, CKPT_FAILURES_TOTAL};
use resq::obs::NullSink;
use resq::sim::{
    run_trials_batched, BatchScratch, FaultyWorkflowSim, MonteCarloConfig, ReliabilityInjector,
    Summary, WorkflowSim,
};
use resq::{CheckpointReliability, RetryPolicy};
use std::hint::black_box;
use std::time::Instant;

pub const TRIALS_PER_RUN: u64 = 100_000;

/// Trials of the traced run's bare `run_once_batched` loop.
const BARE_TRIALS: u64 = 200_000;

/// Variates (and stream derivations) per probe in the traced run.
const PROBE_DRAWS: usize = 1 << 20;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Standard errors a run's pooled mean may sit from the pinned
/// reference: a 1e-5 two-sided false-alarm rate per run. (3.29, the
/// 1e-3 rate, would reject correct code a few percent of the time
/// across the tens of runs a before/after comparison makes.)
const Z_GATE: f64 = 4.42;

#[derive(Debug, Clone, Copy)]
pub enum Instance {
    Fig8,
    Faulty,
}

impl Instance {
    /// Pinned mean work saved per trial and its standard error, from one
    /// 10⁸-trial run of the instance (`cargo test --release --
    /// --ignored print_references` recomputes them).
    fn reference(self) -> (f64, f64) {
        match self {
            Instance::Fig8 => FIG8_REFERENCE,
            Instance::Faulty => FAULTY_REFERENCE,
        }
    }
}

const FIG8_REFERENCE: (f64, f64) = (21.47849456400151, 0.0002734625936424153);
const FAULTY_REFERENCE: (f64, f64) = (12.625138359999967, 0.0009898331480134726);

/// What one trial produced, for both instances.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    saved: f64,
    tasks: u64,
    ckpt_ok: bool,
    attempts: u32,
    failures: u32,
    killed: bool,
}

/// A trial kernel: one trial on its stream, with scratch buffers.
trait Kernel: Fn(&mut Xoshiro256pp, &mut BatchScratch) -> Outcome + Sync {}

impl<T: Fn(&mut Xoshiro256pp, &mut BatchScratch) -> Outcome + Sync> Kernel for T {}

/// An instance ready to run: its laws (for the draw probe) and its
/// trial kernel.
struct Built<X, C, K> {
    task: X,
    ckpt: C,
    kernel: K,
}

/// Fig. 8: truncated N(3, 0.5) tasks, truncated N(5, 0.4) checkpoints,
/// R = 29, threshold W = 20.3.
fn fig8() -> Result<Built<Truncated<Normal>, Truncated<Normal>, impl Kernel>, String> {
    let law = |mu, sigma| -> Result<Truncated<Normal>, String> {
        let parent = Normal::new(mu, sigma).map_err(|e| e.to_string())?;
        Truncated::above(parent, 0.0).map_err(|e| e.to_string())
    };
    let (task, ckpt) = (law(3.0, 0.5)?, law(5.0, 0.4)?);
    let sim = WorkflowSim {
        reservation: 29.0,
        task,
        ckpt,
    };
    let policy = ThresholdWorkflowPolicy { threshold: 20.3 };
    let kernel = move |rng: &mut Xoshiro256pp, scratch: &mut BatchScratch| {
        let o = sim.run_once_batched(&policy, rng, scratch);
        Outcome {
            saved: o.work_saved,
            tasks: o.tasks_completed,
            ckpt_ok: o.checkpoint_succeeded,
            attempts: 0,
            failures: 0,
            killed: false,
        }
    };
    Ok(Built { task, ckpt, kernel })
}

/// Fig. 10 under faults: Poisson(3) tasks, the same checkpoint law,
/// R = 29, W = 18.9; writes fail with q = 0.2, retry `immediate:3`,
/// fail-stop rate 0.01.
fn faulty() -> Result<Built<Poisson, Truncated<Normal>, impl Kernel>, String> {
    let task = Poisson::new(3.0).map_err(|e| e.to_string())?;
    let parent = Normal::new(5.0, 0.4).map_err(|e| e.to_string())?;
    let ckpt = Truncated::above(parent, 0.0).map_err(|e| e.to_string())?;
    let injector = ReliabilityInjector::new(CheckpointReliability::PerAttempt { p: 0.8 }, 0.01)
        .map_err(|e| e.to_string())?;
    let sim = FaultyWorkflowSim {
        reservation: 29.0,
        task,
        ckpt,
        injector,
        retry: RetryPolicy::Immediate { max_attempts: 3 },
    };
    let policy = ThresholdWorkflowPolicy { threshold: 18.9 };
    let kernel = move |rng: &mut Xoshiro256pp, scratch: &mut BatchScratch| {
        let o = sim.run_once_batched(&policy, rng, scratch);
        Outcome {
            saved: o.outcome.work_saved,
            tasks: o.outcome.tasks_completed,
            ckpt_ok: o.outcome.checkpoint_succeeded,
            attempts: o.ckpt_attempts,
            failures: o.ckpt_failures,
            killed: o.killed_by_failstop,
        }
    };
    Ok(Built { task, ckpt, kernel })
}

/// One request: a single-threaded `run_trials_batched` call.
fn mc_request<K>(kernel: &K, trials: u64, seed: u64) -> Summary
where
    K: Kernel,
{
    let cfg = MonteCarloConfig {
        trials,
        seed,
        threads: 1,
    };
    run_trials_batched(cfg, &NullSink, 0, BatchScratch::new, |_, rng, scratch| {
        kernel(rng, scratch).saved
    })
}

/// Trial summaries merged across runs.
#[derive(Debug, Default)]
struct Pooled {
    n: f64,
    sum: f64,
    sum_sq: f64,
}

impl Pooled {
    fn add(&mut self, s: &Summary) {
        let n = s.n as f64;
        self.n += n;
        self.sum += n * s.mean;
        self.sum_sq += (n - 1.0) * s.std_dev * s.std_dev + n * s.mean * s.mean;
    }

    fn mean(&self) -> f64 {
        self.sum / self.n
    }

    fn std_error(&self) -> f64 {
        let m = self.mean();
        ((self.sum_sq - self.n * m * m) / (self.n - 1.0) / self.n).sqrt()
    }
}

/// Requests run back to back for `seconds`: their scaled latencies and
/// the scaled time they took in all (s).
fn phase<K>(
    kernel: &K,
    seed: u64,
    next: &mut u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    pooled: &mut Pooled,
    speed: &mut Speed,
) -> (Latencies, f64)
where
    K: Kernel,
{
    let start = Instant::now();
    let mut latencies = Latencies::new();
    let mut busy = 0.0;
    while start.elapsed().as_secs_f64() < seconds {
        speed.tick();
        let j = *next;
        *next += 1;
        let t0 = Instant::now();
        let s = black_box(mc_request(
            kernel,
            TRIALS_PER_RUN,
            gen::mc_run_seed(seed, j),
        ));
        let t1 = Instant::now();
        if let Some(t) = tracer {
            t.record(j, Layer::McRun, None, "", t0, t1);
        }
        let scaled = (t1 - t0).as_secs_f64() * speed.factor();
        latencies.record(scaled * 1e6);
        busy += scaled;
        pooled.add(&s);
    }
    (latencies, busy)
}

/// Nanoseconds per variate of `law` drawn in blocks of `block`, the
/// block size the simulator draws it in.
fn ns_per_draw<S: Sample>(law: &S, block: usize, seed: u64) -> f64 {
    let mut rng = Xoshiro256pp::new(seed);
    let mut buf = vec![0.0; block];
    let rounds = PROBE_DRAWS / block;
    let t0 = Instant::now();
    for _ in 0..rounds {
        law.sample_batch_mono(&mut rng, &mut buf);
        black_box(&buf);
    }
    t0.elapsed().as_nanos() as f64 / (rounds * block) as f64
}

pub fn run(instance: Instance, args: &Args) -> Result<Report, String> {
    match instance {
        Instance::Fig8 => measure(instance, args, fig8),
        Instance::Faulty => measure(instance, args, faulty),
    }
}

fn measure<X, C, K>(
    instance: Instance,
    args: &Args,
    build: impl Fn() -> Result<Built<X, C, K>, String>,
) -> Result<Report, String>
where
    X: Sample,
    C: Sample,
    K: Kernel,
{
    // Set-up: build the instance and run one warm-up request, so lazy
    // initialisation (ziggurat tables, page faults) is paid here.
    let mut speed = Speed::new();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut built = None;
    for r in 0..repeats {
        speed.probe();
        let t0 = Instant::now();
        let b = build()?;
        black_box(mc_request(
            &b.kernel,
            TRIALS_PER_RUN,
            gen::mc_run_seed(!args.seed, r as u64),
        ));
        setup_s.push(t0.elapsed().as_secs_f64() * speed.factor());
        built = Some(b);
    }
    let b = built.expect("at least one set-up ran");

    let mut pooled = Pooled::default();
    let mut next = 0u64;
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, busy) = phase(
        &b.kernel,
        args.seed,
        &mut next,
        untraced_s,
        None,
        &mut pooled,
        &mut speed,
    );

    let mut metrics: Vec<(String, f64)> = vec![
        ("latency_p50_us".into(), untraced.quantile(0.5)),
        ("latency_p99_us".into(), untraced.quantile(0.99)),
        (
            "throughput_per_s".into(),
            untraced.len() as f64 * TRIALS_PER_RUN as f64 / busy,
        ),
        ("setup_s".into(), median(&setup_s)),
    ];
    let mut spans = Vec::new();
    let mut wrong = 0u64;

    if args.trace {
        let tracer = Tracer::new();
        let (traced, _) = phase(
            &b.kernel,
            args.seed,
            &mut next,
            args.seconds / 2.0,
            Some(&tracer),
            &mut pooled,
            &mut speed,
        );
        let probe = next;

        // The trial kernel alone, in a bare loop, with its outcome fields.
        let (attempts0, failures0) = (CKPT_ATTEMPTS_TOTAL.get(), CKPT_FAILURES_TOTAL.get());
        let mut scratch = BatchScratch::new();
        let (mut tasks, mut ok, mut attempts, mut failures, mut killed) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let bare_seed = gen::mc_run_seed(args.seed, u64::MAX);
        let t0 = Instant::now();
        for i in 0..BARE_TRIALS {
            let mut rng = Xoshiro256pp::for_stream_untallied(bare_seed, i);
            let o = (b.kernel)(&mut rng, &mut scratch);
            tasks += o.tasks;
            ok += o.ckpt_ok as u64;
            attempts += u64::from(o.attempts);
            failures += u64::from(o.failures);
            killed += o.killed as u64;
        }
        let t1 = Instant::now();
        tracer.record(probe, Layer::Trials, None, "", t0, t1);
        let counted = (
            CKPT_ATTEMPTS_TOTAL.get() - attempts0,
            CKPT_FAILURES_TOTAL.get() - failures0,
        );
        if counted != (attempts, failures) {
            wrong += 1;
            eprintln!(
                "perfbench: ckpt counters moved by {counted:?}, outcomes sum to {:?}",
                (attempts, failures)
            );
        }
        let trial_ns = (t1 - t0).as_nanos() as f64 / BARE_TRIALS as f64;

        let probe_seed = gen::mc_run_seed(args.seed, u64::MAX - 1);
        let t0 = Instant::now();
        let task_ns = ns_per_draw(&b.task, 8, probe_seed);
        tracer.record(probe, Layer::Draws, None, "task", t0, Instant::now());
        let t0 = Instant::now();
        let ckpt_ns = ns_per_draw(&b.ckpt, 1, probe_seed);
        tracer.record(probe + 1, Layer::Draws, None, "ckpt", t0, Instant::now());
        let t0 = Instant::now();
        for i in 0..PROBE_DRAWS as u64 {
            black_box(Xoshiro256pp::for_stream(probe_seed, i));
        }
        let t1 = Instant::now();
        tracer.record(probe, Layer::Streams, None, "", t0, t1);
        let stream_ns = (t1 - t0).as_nanos() as f64 / PROBE_DRAWS as f64;

        spans = tracer.spans();
        let run_s = median(&crate::trace::durations(&spans, Layer::McRun, None)) / 1e9;
        let overhead = 1.0 - TRIALS_PER_RUN as f64 * trial_ns / (run_s * 1e9);
        let bare = BARE_TRIALS as f64;
        metrics.extend([
            ("mc.run_s".into(), run_s),
            ("sim.trial_ns".into(), trial_ns),
            ("mc.runner_overhead_ratio".into(), overhead),
            ("dist.task_draw_ns".into(), task_ns),
            ("dist.ckpt_draw_ns".into(), ckpt_ns),
            ("rng.stream_ns".into(), stream_ns),
            ("sim.tasks_per_trial".into(), tasks as f64 / bare),
            ("sim.ckpt_success_ratio".into(), ok as f64 / bare),
            ("faults.attempts_per_trial".into(), attempts as f64 / bare),
            (
                "faults.write_failure_ratio".into(),
                ratio(failures as f64, attempts as f64),
            ),
            ("faults.killed_ratio".into(), killed as f64 / bare),
            (
                "trace.overhead_ratio".into(),
                traced.quantile(0.5) / untraced.quantile(0.5) - 1.0,
            ),
            // The runner's share of a run: the part no trial accounts for.
            ("trace.unattributed_ratio".into(), overhead),
        ]);
    }

    speed.report();
    let (reference, reference_se) = instance.reference();
    let (mean, se) = (pooled.mean(), pooled.std_error());
    let z = (mean - reference).abs() / (se * se + reference_se * reference_se).sqrt();
    eprintln!(
        "perfbench: pooled mean work saved {mean:.6} ± {se:.6} over {} trials; reference {reference:.6} ± {reference_se:.6}; |z| = {z:.2}",
        pooled.n
    );
    if z.is_nan() || z > Z_GATE {
        wrong += 1;
        eprintln!(
            "perfbench: pooled mean is {z:.2} standard errors from the reference (gate {Z_GATE})"
        );
    }
    Ok(Report {
        attempted: next,
        failed: wrong.min(next),
        wrong,
        metrics,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed of the reference runs; workload runs draw theirs from
    /// `gen::mc_run_seed`, which meets it only by chance (2⁻⁶⁴ per run).
    const REFERENCE_SEED: u64 = 0x00C0_FFEE_0000_0008;

    /// Recomputes the pinned references (slow: minutes, run it in
    /// release mode).
    #[test]
    #[ignore]
    fn print_references() {
        for (name, s) in [
            (
                "FIG8",
                mc_request(&fig8().unwrap().kernel, 100_000_000, REFERENCE_SEED),
            ),
            (
                "FAULTY",
                mc_request(&faulty().unwrap().kernel, 100_000_000, REFERENCE_SEED),
            ),
        ] {
            println!(
                "const {name}_REFERENCE: (f64, f64) = ({:?}, {:?});",
                s.mean, s.std_error
            );
        }
    }

    #[test]
    fn pooled_summaries_match_one_big_sample() {
        let kernel = fig8().unwrap().kernel;
        let whole = mc_request(&kernel, 40_000, 9);
        let mut pooled = Pooled::default();
        pooled.add(&whole);
        pooled.add(&whole);
        assert!((pooled.mean() - whole.mean).abs() < 1e-9);
        let expected_se = whole.std_error / 2f64.sqrt();
        assert!((pooled.std_error() - expected_se).abs() < 1e-3 * expected_se);
    }
}
