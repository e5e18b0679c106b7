//! Fault-injection smoke test: a fixed-seed fault-injected run must
//! reproduce golden retry counters and summary bits, forever. CI runs
//! this as its fault-injection gate — any change to the fault kernel's
//! draw order, the retry schedule, or the counter plumbing shows up here
//! as a diff against numbers recorded at the feature's introduction.
//!
//! Deliberately a SINGLE `#[test]`: the attempt/failure counters are
//! process-global atomics, so two tests running fault kernels in the
//! same binary would race on the deltas.

use resq::core::policy::ThresholdWorkflowPolicy;
use resq::dist::{Gamma, Uniform};
use resq::obs::metrics::{CKPT_ATTEMPTS_TOTAL, CKPT_FAILURES_TOTAL};
use resq::sim::{run_trials, FaultyWorkflowSim, MonteCarloConfig, ReliabilityInjector};
use resq::{CheckpointReliability, RetryPolicy};

#[test]
fn fixed_seed_fault_run_reproduces_golden_counters() {
    let sim = FaultyWorkflowSim {
        reservation: 30.0,
        task: Gamma::new(9.0, 1.0 / 3.0).unwrap(),
        ckpt: Uniform::new(1.0, 2.0).unwrap(),
        injector: ReliabilityInjector::new(CheckpointReliability::PerAttempt { p: 0.6 }, 0.02)
            .unwrap(),
        retry: RetryPolicy::Backoff {
            max_attempts: 3,
            delay: 0.25,
        },
    };
    let policy = ThresholdWorkflowPolicy { threshold: 20.0 };

    CKPT_ATTEMPTS_TOTAL.reset();
    CKPT_FAILURES_TOTAL.reset();
    let summary = run_trials(
        MonteCarloConfig {
            trials: 10_000,
            seed: 2024,
            threads: 2,
        },
        |_, rng| sim.run_once(&policy, rng).outcome.work_saved,
    );
    let attempts = CKPT_ATTEMPTS_TOTAL.get();
    let failures = CKPT_FAILURES_TOTAL.get();

    // Golden values recorded when the fault harness landed. If a change
    // to the kernel moves them, that change broke seed-compatibility of
    // fault-injected runs — update the goldens only with a note in
    // CHANGES.md saying the fault stream contract was intentionally
    // re-keyed.
    assert_eq!(attempts, GOLDEN_ATTEMPTS, "attempt counter drifted");
    assert_eq!(failures, GOLDEN_FAILURES, "failure counter drifted");
    assert_eq!(
        summary.mean.to_bits(),
        GOLDEN_MEAN_BITS,
        "mean drifted: {} vs golden {}",
        summary.mean,
        f64::from_bits(GOLDEN_MEAN_BITS)
    );
    // Sanity on the goldens themselves: with p = 0.6 and ≤3 attempts,
    // failures sit strictly between 0 and attempts.
    assert!(failures > 0 && failures < attempts);
}

// Re-locked 2026-08 when the ziggurat Normal kernel replaced the polar
// pair: the Gamma task law consumes standard normals, so its draw
// stream (and everything downstream of it) re-keyed once. See
// EXPERIMENTS.md and CHANGES.md for the re-lock note.
const GOLDEN_ATTEMPTS: u64 = 9960;
const GOLDEN_FAILURES: u64 = 4111;
const GOLDEN_MEAN_BITS: u64 = 0x40294c10c54a2a9b; // 12.648565450004119
