//! Bit-level pin of the single-shot §4 trial kernels.
//!
//! Hashes the bits of every outcome field of a fixed range of seeded
//! trials for {`WorkflowSim`, `FaultyWorkflowSim`} × {`run_once`,
//! `run_once_batched`} over four law pairs, and — for the fault-injected
//! simulator — every retry policy with fail-stop errors on and off, each
//! under a threshold and a static policy. The goldens were recorded
//! before the trial loop was shared between the simulators; any change
//! to a draw order, a clamp, the retry schedule or an outcome field
//! shows up here as a diff.
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

/// Hashes `run_once` (`batched = false`) or `run_once_batched` trials of
/// the plain simulator; returns the hash and checks that the fault
/// counters did not move.
fn plain<X: TaskDuration, C: Sample>(task: X, ckpt: C, batched: bool) -> u64 {
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
            let mut rng = Xoshiro256pp::for_stream(SEED, i);
            let o = if batched {
                sim.run_once_batched(policy.as_ref(), &mut rng, &mut scratch)
            } else {
                sim.run_once(policy.as_ref(), &mut rng)
            };
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
/// and off, and both policies; checks that the counter deltas equal the
/// per-trial attempt and failure counts.
fn faulty<X: TaskDuration + Clone, C: Sample + Clone>(task: X, ckpt: C, batched: bool) -> u64 {
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
                    let mut rng = Xoshiro256pp::for_stream(SEED, i);
                    let o = if batched {
                        sim.run_once_batched(policy.as_ref(), &mut rng, &mut scratch)
                    } else {
                        sim.run_once(policy.as_ref(), &mut rng)
                    };
                    attempts += u64::from(o.ckpt_attempts);
                    failures += u64::from(o.ckpt_failures);
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

/// Both simulators through both kernels on one law pair, in the order
/// plain scalar, plain batched, faulty scalar, faulty batched.
fn hashes<X: TaskDuration + Clone, C: Sample + Clone>(task: X, ckpt: C) -> [u64; 4] {
    [
        plain(task.clone(), ckpt.clone(), false),
        plain(task.clone(), ckpt.clone(), true),
        faulty(task.clone(), ckpt.clone(), false),
        faulty(task, ckpt, true),
    ]
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
    let kernels = [
        "WorkflowSim::run_once",
        "WorkflowSim::run_once_batched",
        "FaultyWorkflowSim::run_once",
        "FaultyWorkflowSim::run_once_batched",
    ];
    let mut drift = Vec::new();
    for ((laws, hashes), want) in got.iter().zip(&GOLDEN) {
        for ((kernel, h), w) in kernels.iter().zip(hashes).zip(want) {
            if h != w {
                drift.push(format!("{kernel} on {laws}: {h:#018x} vs golden {w:#018x}"));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "outcome bits drifted:\n{}",
        drift.join("\n")
    );
}

/// Per law pair: plain scalar, plain batched, faulty scalar, faulty
/// batched.
const GOLDEN: [[u64; 4]; 4] = [
    [
        0xc1a65d7f9ead32f7,
        0xdb95286af5121abc,
        0x0b03cdbd097d8b18,
        0x7c286d75a2030b73,
    ],
    [
        0x934e4018adb48379,
        0x2f68335b54cd1a3e,
        0xcdc802dbcaf61b43,
        0xcdc802dbcaf61b43,
    ],
    [
        0x6af3bf866e5535d7,
        0x6af3bf866e5535d7,
        0x973fca0cca82d131,
        0x973fca0cca82d131,
    ],
    [
        0x180df36586cde178,
        0x180df36586cde178,
        0xdcf35c1518522222,
        0xdcf35c1518522222,
    ],
];
