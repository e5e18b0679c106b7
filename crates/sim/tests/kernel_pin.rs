//! Bit-level pin of every §4 trial kernel.
//!
//! Runs a fixed range of seeded trials through both kernels of
//! `WorkflowSim` and `FaultyWorkflowSim` (`run_once` and
//! `run_once_batched`) over four law pairs, and — for the fault-injected
//! simulator — every retry policy with fail-stop errors on and off, each
//! under a threshold and a static policy. The two kernels must agree bit
//! for bit on every trial. On the first three law pairs it also runs the
//! two simulators that chain single-shot stretches: `FailureWorkflowSim`
//! over three failure rates and `CampaignSimulator` over both billing
//! models and three continuation rules, each under five policies. One
//! hash of every outcome field is pinned per law pair and simulator. Any
//! change to a draw order, a clamp, the retry schedule, the recovery or
//! continuation rule or an outcome field shows up here as a diff.
//!
//! Deliberately a SINGLE `#[test]`: it also checks the process-global
//! `ckpt_{attempts,failures}_total` counter deltas, which a second test
//! running fault kernels in the same binary would race on.

use resq_core::policy::{StaticWorkflowPolicy, ThresholdWorkflowPolicy, WorkflowPolicy};
use resq_core::reservation::{BillingModel, CampaignModel, ContinuationRule};
use resq_core::{CheckpointReliability, RetryPolicy, TaskDuration};
use resq_dist::{Gamma, Normal, Poisson, Sample, Truncated, Uniform, Xoshiro256pp};
use resq_obs::metrics::{CKPT_ATTEMPTS_TOTAL, CKPT_FAILURES_TOTAL};
use resq_sim::{
    BatchScratch, CampaignConfig, CampaignOutcome, CampaignSimulator, FailureOutcome,
    FailureWorkflowSim, FaultyOutcome, FaultyWorkflowSim, PeriodicCheckpointPolicy,
    ReliabilityInjector, WorkflowOutcome, WorkflowSim,
};

const TRIALS: u64 = 2_000;
/// Trials per (failure rate, policy) of the failure simulator.
const FAILURE_TRIALS: u64 = 1_000;
/// Trials per (billing, continuation, policy) of the campaign simulator.
const CAMPAIGN_TRIALS: u64 = 250;
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

    fn failure(&mut self, o: &FailureOutcome) {
        self.word(o.work_saved.to_bits());
        self.word(o.failures);
        self.word(o.checkpoints);
        self.word(o.failed_checkpoints);
        self.word(o.work_lost.to_bits());
        self.word(o.tasks_completed);
    }

    fn campaign(&mut self, o: &CampaignOutcome) {
        self.word(o.work_done.to_bits());
        self.word(o.reservations);
        self.word(o.cost.to_bits());
        self.word(o.time_used.to_bits());
        self.word(o.checkpoints);
        self.word(o.lost_reservations);
        self.word(u64::from(o.completed));
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

/// The five policies the chaining simulators run under: two §4
/// thresholds, a Young/Daly-style period, a zero period (a checkpoint at
/// every boundary, which stops the failure simulator after its first
/// save) and a static count.
fn chaining_policies() -> [Box<dyn WorkflowPolicy>; 5] {
    [
        Box::new(ThresholdWorkflowPolicy { threshold: 20.3 }),
        Box::new(ThresholdWorkflowPolicy { threshold: 8.0 }),
        Box::new(PeriodicCheckpointPolicy { period: 6.0 }),
        Box::new(PeriodicCheckpointPolicy { period: 0.0 }),
        Box::new(StaticWorkflowPolicy { n_opt: 4 }),
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

/// Hashes the failure simulator's trials over three failure rates and
/// every chaining policy; recoveries draw from the checkpoint law.
fn failure<X: TaskDuration + Clone, C: Sample + Clone>(task: X, ckpt: C) -> u64 {
    let mut h = Fnv::new();
    for failure_rate in [0.0, 0.05, 0.2] {
        let sim = FailureWorkflowSim {
            reservation: RESERVATION,
            task: task.clone(),
            ckpt: ckpt.clone(),
            recovery: ckpt.clone(),
            failure_rate,
        };
        for policy in chaining_policies() {
            for i in 0..FAILURE_TRIALS {
                let rng = &mut Xoshiro256pp::for_stream(SEED, i);
                h.failure(&sim.run_once(policy.as_ref(), rng));
            }
        }
    }
    h.0
}

/// Hashes the campaign simulator's trials over both billing models,
/// three continuation rules and every chaining policy; recoveries draw
/// from the checkpoint law.
fn campaign<X: TaskDuration, C: Sample + Clone>(task: X, ckpt: C) -> u64 {
    let sim = CampaignSimulator {
        task,
        ckpt: ckpt.clone(),
        recovery: ckpt,
    };
    let mut h = Fnv::new();
    for billing in [BillingModel::PerReservation, BillingModel::PerUse] {
        for continuation in [
            ContinuationRule::Drop,
            ContinuationRule::ContinueIfAtLeast(6.0),
            ContinuationRule::ContinueIfAtLeast(15.0),
        ] {
            let config = CampaignConfig {
                model: CampaignModel::new(RESERVATION, 2.0, 100.0, billing, continuation).unwrap(),
                max_reservations: 40,
            };
            for policy in chaining_policies() {
                for i in 0..CAMPAIGN_TRIALS {
                    let rng = &mut Xoshiro256pp::for_stream(SEED, i);
                    h.campaign(&sim.run_once(&config, policy.as_ref(), rng));
                }
            }
        }
    }
    h.0
}

/// Every simulator on one law pair: plain and faulty, then — when
/// `chaining` — failure and campaign. The chaining simulators run no
/// fault injector, so they must leave its counters alone.
fn hashes<X: TaskDuration + Clone, C: Sample + Clone>(
    task: X,
    ckpt: C,
    chaining: bool,
) -> Vec<u64> {
    let mut got = vec![
        plain(task.clone(), ckpt.clone()),
        faulty(task.clone(), ckpt.clone()),
    ];
    if chaining {
        let before = (CKPT_ATTEMPTS_TOTAL.get(), CKPT_FAILURES_TOTAL.get());
        got.push(failure(task.clone(), ckpt.clone()));
        got.push(campaign(task, ckpt));
        let after = (CKPT_ATTEMPTS_TOTAL.get(), CKPT_FAILURES_TOTAL.get());
        assert_eq!(
            before, after,
            "a chaining simulator bumped the fault counters"
        );
    }
    got
}

#[test]
fn single_shot_kernels_reproduce_pinned_outcome_bits() {
    let got = [
        (
            "truncated-normal tasks / truncated-normal ckpt",
            hashes(tn(3.0, 0.5), tn(5.0, 0.4), true),
        ),
        (
            "poisson tasks / truncated-normal ckpt",
            hashes(Poisson::new(3.0).unwrap(), tn(5.0, 0.4), true),
        ),
        (
            "gamma tasks / uniform ckpt",
            hashes(
                Gamma::new(9.0, 1.0 / 3.0).unwrap(),
                Uniform::new(1.0, 2.0).unwrap(),
                true,
            ),
        ),
        (
            "normal tasks / untruncated normal ckpt",
            hashes(
                Normal::new(3.0, 1.5).unwrap(),
                Normal::new(2.0, 1.5).unwrap(),
                false,
            ),
        ),
    ];
    let simulators = [
        "WorkflowSim",
        "FaultyWorkflowSim",
        "FailureWorkflowSim",
        "CampaignSimulator",
    ];
    let mut drift = Vec::new();
    for ((laws, hashes), want) in got.iter().zip(&GOLDEN) {
        assert_eq!(hashes.len(), want.len(), "{laws}: golden row length");
        for ((simulator, h), w) in simulators.iter().zip(hashes).zip(want.iter()) {
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

/// Per law pair: plain, faulty and, on the first three, failure and
/// campaign.
const GOLDEN: [&[u64]; 4] = [
    &[
        0xdb95286af5121abc,
        0x142a6be77dcea75e,
        0x961354fb527f28fa,
        0x6c38d75d6696e0f9,
    ],
    &[
        0x2f68335b54cd1a3e,
        0x59534f25ad74ab01,
        0xb22f1288b4ac50b7,
        0xe65993e7f2ca6af8,
    ],
    &[
        0x6af3bf866e5535d7,
        0x973fca0cca82d131,
        0xd2a1af5ae2414ce6,
        0xa1c7c644a9dc5c95,
    ],
    &[0x180df36586cde178, 0xdcf35c1518522222],
];
