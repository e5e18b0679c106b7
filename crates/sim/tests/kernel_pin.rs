//! Bit-level pin of the single-shot §4 trial kernels.
//!
//! Runs a fixed range of seeded trials through both kernels of
//! `WorkflowSim` and `FaultyWorkflowSim` (`run_once` and
//! `run_once_batched`) over four law pairs, and — for the fault-injected
//! simulator — every retry policy with fail-stop errors on and off, each
//! under a threshold and a static policy. The two kernels must agree bit
//! for bit on every trial; one hash of every outcome field is pinned per
//! law pair and simulator. Any change to a draw order, a clamp, the
//! retry schedule or an outcome field shows up here as a diff.
//!
//! Deliberately a SINGLE `#[test]`: it also checks the process-global
//! `ckpt_{attempts,failures}_total` counter deltas, which a second test
//! running fault kernels in the same binary would race on.

use resq_core::policy::{StaticWorkflowPolicy, ThresholdWorkflowPolicy, WorkflowPolicy};
use resq_core::{CheckpointReliability, RetryPolicy, TaskDuration};
use resq_dist::{Gamma, Normal, Poisson, Sample, Truncated, Uniform, Xoshiro256pp};
use resq_obs::metrics::{CKPT_ATTEMPTS_TOTAL, CKPT_FAILURES_TOTAL};
use resq_sim::{
    BatchScratch, FaultyOutcome, FaultyWorkflowSim, ReliabilityInjector, WorkflowOutcome,
    WorkflowSim,
};

const TRIALS: u64 = 2_000;
const SEED: u64 = 0x5EED_0013;
const RESERVATION: f64 = 29.0;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn outcome(&mut self, o: &WorkflowOutcome) {
        self.word(o.work_saved.to_bits());
        self.word(o.tasks_completed);
        self.word(o.work_at_checkpoint.to_bits());
        self.word(u64::from(o.checkpoint_attempted));
        self.word(u64::from(o.checkpoint_succeeded));
        self.word(o.checkpoint_duration.to_bits());
        self.word(o.time_used.to_bits());
    }

    fn faulty(&mut self, o: &FaultyOutcome) {
        self.outcome(&o.outcome);
        self.word(u64::from(o.ckpt_attempts));
        self.word(u64::from(o.ckpt_failures));
        self.word(u64::from(o.killed_by_failstop));
    }
}

fn tn(mu: f64, sigma: f64) -> Truncated<Normal> {
    Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
}

/// The two policies every combination runs under.
fn policies() -> [Box<dyn WorkflowPolicy>; 2] {
    [
        Box::new(ThresholdWorkflowPolicy { threshold: 20.3 }),
        Box::new(StaticWorkflowPolicy { n_opt: 6 }),
    ]
}

fn retries() -> [RetryPolicy; 3] {
    [
        RetryPolicy::Immediate { max_attempts: 3 },
        RetryPolicy::Backoff {
            max_attempts: 3,
            delay: 0.5,
        },
        RetryPolicy::GiveUpAndWorkOn,
    ]
}

/// Hashes the plain simulator's trials, checking that both kernels
/// agree on each and that the fault counters did not move.
fn plain<X: TaskDuration, C: Sample>(task: X, ckpt: C) -> u64 {
    let sim = WorkflowSim {
        reservation: RESERVATION,
        task,
        ckpt,
    };
    let before = (CKPT_ATTEMPTS_TOTAL.get(), CKPT_FAILURES_TOTAL.get());
    let mut h = Fnv::new();
    let mut scratch = BatchScratch::new();
    for policy in policies() {
        for i in 0..TRIALS {
            let o = sim.run_once(policy.as_ref(), &mut Xoshiro256pp::for_stream(SEED, i));
            let batched = sim.run_once_batched(
                policy.as_ref(),
                &mut Xoshiro256pp::for_stream(SEED, i),
                &mut scratch,
            );
            assert_eq!(o, batched, "plain kernels disagree on trial {i}");
            h.outcome(&o);
        }
    }
    let after = (CKPT_ATTEMPTS_TOTAL.get(), CKPT_FAILURES_TOTAL.get());
    assert_eq!(
        before, after,
        "the fault-free kernel bumped the fault counters"
    );
    h.0
}

/// Hashes fault-injected trials over every retry policy, fail-stop on
/// and off, and both policies; checks that both kernels agree on each
/// trial and that the counter deltas equal the per-trial attempt and
/// failure counts.
fn faulty<X: TaskDuration + Clone, C: Sample + Clone>(task: X, ckpt: C) -> u64 {
    let mut h = Fnv::new();
    let mut scratch = BatchScratch::new();
    for retry in retries() {
        for failstop_rate in [0.0, 0.02] {
            let sim = FaultyWorkflowSim {
                reservation: RESERVATION,
                task: task.clone(),
                ckpt: ckpt.clone(),
                injector: ReliabilityInjector::new(
                    CheckpointReliability::PerAttempt { p: 0.6 },
                    failstop_rate,
                )
                .unwrap(),
                retry,
            };
            for policy in policies() {
                let before = (CKPT_ATTEMPTS_TOTAL.get(), CKPT_FAILURES_TOTAL.get());
                let (mut attempts, mut failures) = (0u64, 0u64);
                for i in 0..TRIALS {
                    let o = sim.run_once(policy.as_ref(), &mut Xoshiro256pp::for_stream(SEED, i));
                    let batched = sim.run_once_batched(
                        policy.as_ref(),
                        &mut Xoshiro256pp::for_stream(SEED, i),
                        &mut scratch,
                    );
                    assert_eq!(
                        o, batched,
                        "faulty kernels disagree on trial {i} ({retry:?})"
                    );
                    // Both kernels booked the trial's counts.
                    attempts += 2 * u64::from(o.ckpt_attempts);
                    failures += 2 * u64::from(o.ckpt_failures);
                    h.faulty(&o);
                }
                let after = (CKPT_ATTEMPTS_TOTAL.get(), CKPT_FAILURES_TOTAL.get());
                assert_eq!(
                    (after.0 - before.0, after.1 - before.1),
                    (attempts, failures),
                    "counter deltas disagree with the outcomes ({retry:?}, rate {failstop_rate})"
                );
            }
        }
    }
    h.0
}

/// Both simulators on one law pair: plain, then faulty.
fn hashes<X: TaskDuration + Clone, C: Sample + Clone>(task: X, ckpt: C) -> [u64; 2] {
    [plain(task.clone(), ckpt.clone()), faulty(task, ckpt)]
}

#[test]
fn single_shot_kernels_reproduce_pinned_outcome_bits() {
    let got = [
        (
            "truncated-normal tasks / truncated-normal ckpt",
            hashes(tn(3.0, 0.5), tn(5.0, 0.4)),
        ),
        (
            "poisson tasks / truncated-normal ckpt",
            hashes(Poisson::new(3.0).unwrap(), tn(5.0, 0.4)),
        ),
        (
            "gamma tasks / uniform ckpt",
            hashes(
                Gamma::new(9.0, 1.0 / 3.0).unwrap(),
                Uniform::new(1.0, 2.0).unwrap(),
            ),
        ),
        (
            "normal tasks / untruncated normal ckpt",
            hashes(
                Normal::new(3.0, 1.5).unwrap(),
                Normal::new(2.0, 1.5).unwrap(),
            ),
        ),
    ];
    let simulators = ["WorkflowSim", "FaultyWorkflowSim"];
    let mut drift = Vec::new();
    for ((laws, hashes), want) in got.iter().zip(&GOLDEN) {
        for ((simulator, h), w) in simulators.iter().zip(hashes).zip(want) {
            if h != w {
                drift.push(format!(
                    "{simulator} on {laws}: {h:#018x} vs golden {w:#018x}"
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "outcome bits drifted:\n{}",
        drift.join("\n")
    );
}

/// Per law pair: plain, faulty.
const GOLDEN: [[u64; 2]; 4] = [
    [0xdb95286af5121abc, 0x142a6be77dcea75e],
    [0x2f68335b54cd1a3e, 0x59534f25ad74ab01],
    [0x6af3bf866e5535d7, 0x973fca0cca82d131],
    [0x180df36586cde178, 0xdcf35c1518522222],
];
