//! Single-reservation execution of §3 (preemptible) policies.
//!
//! One trial: the application computes from time 0; at time `R − X` (the
//! policy's lead time) it stops and checkpoints; the sampled checkpoint
//! duration `C` decides success (`C ≤ X`) or loss of the whole
//! reservation. The oracle variant observes `C` first and checkpoints at
//! `R − C`, saving `R − C` always — the unbeatable upper bound.

use rand::RngCore;
use resq_core::policy::PreemptiblePolicy;
use resq_dist::Sample;

/// Outcome of one simulated preemptible reservation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PreemptibleOutcome {
    /// Work saved by the final checkpoint (0 on failure).
    pub work_saved: f64,
    /// The sampled checkpoint duration.
    pub checkpoint_duration: f64,
    /// Lead time the policy chose.
    pub lead_time: f64,
    /// Whether the checkpoint completed before the reservation ended.
    pub checkpoint_succeeded: bool,
    /// Reservation time actually consumed (computation + checkpoint,
    /// capped at `R`).
    pub time_used: f64,
}

/// Simulator for the §3 scenario: reservation length `R` and a
/// checkpoint-duration law.
#[derive(Debug, Clone)]
pub struct PreemptibleSim<C: Sample> {
    /// Reservation length `R`.
    pub reservation: f64,
    /// Checkpoint-duration law `D_C`.
    pub ckpt: C,
}

impl<C: Sample> PreemptibleSim<C> {
    /// Runs one trial under `policy`.
    pub fn run_once<P: PreemptiblePolicy>(
        &self,
        policy: &P,
        rng: &mut dyn RngCore,
    ) -> PreemptibleOutcome {
        let x = policy.lead_time().clamp(0.0, self.reservation);
        let c = self.ckpt.sample(rng);
        let succeeded = c <= x;
        let work_saved = if succeeded { self.reservation - x } else { 0.0 };
        let time_used = if succeeded {
            (self.reservation - x) + c
        } else {
            self.reservation
        };
        PreemptibleOutcome {
            work_saved,
            checkpoint_duration: c,
            lead_time: x,
            checkpoint_succeeded: succeeded,
            time_used,
        }
    }

    /// Runs one clairvoyant-oracle trial: checkpoint exactly `C` seconds
    /// before the end.
    pub fn run_oracle(&self, rng: &mut dyn RngCore) -> PreemptibleOutcome {
        let c = self.ckpt.sample(rng).min(self.reservation);
        PreemptibleOutcome {
            work_saved: self.reservation - c,
            checkpoint_duration: c,
            lead_time: c,
            checkpoint_succeeded: true,
            time_used: self.reservation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{run_trials, MonteCarloConfig};
    use resq_core::policy::FixedLeadPolicy;
    use resq_core::Preemptible;
    use resq_dist::{Uniform, Xoshiro256pp};

    fn fig1a_sim() -> PreemptibleSim<Uniform> {
        PreemptibleSim {
            reservation: 10.0,
            ckpt: Uniform::new(1.0, 7.5).unwrap(),
        }
    }

    #[test]
    fn single_trial_accounting() {
        let sim = fig1a_sim();
        let mut rng = Xoshiro256pp::new(1);
        let policy = FixedLeadPolicy::new("x5.5", 5.5);
        let out = sim.run_once(&policy, &mut rng);
        assert_eq!(out.lead_time, 5.5);
        if out.checkpoint_succeeded {
            assert_eq!(out.work_saved, 4.5);
            assert!(out.checkpoint_duration <= 5.5);
            assert!((out.time_used - (4.5 + out.checkpoint_duration)).abs() < 1e-12);
        } else {
            assert_eq!(out.work_saved, 0.0);
            assert_eq!(out.time_used, 10.0);
        }
    }

    #[test]
    fn pessimistic_lead_always_succeeds() {
        let sim = fig1a_sim();
        let policy = FixedLeadPolicy::new("pessimistic", 7.5);
        let mut rng = Xoshiro256pp::new(2);
        for _ in 0..1000 {
            let out = sim.run_once(&policy, &mut rng);
            assert!(out.checkpoint_succeeded);
            assert_eq!(out.work_saved, 2.5);
        }
    }

    #[test]
    fn lead_below_cmin_always_fails() {
        let sim = fig1a_sim();
        let policy = FixedLeadPolicy::new("doomed", 0.9);
        let mut rng = Xoshiro256pp::new(3);
        for _ in 0..100 {
            let out = sim.run_once(&policy, &mut rng);
            assert!(!out.checkpoint_succeeded);
            assert_eq!(out.work_saved, 0.0);
        }
    }

    #[test]
    fn monte_carlo_matches_analytic_expected_work() {
        // The headline validation: simulated mean saved work equals the
        // paper's E[W(X)] within a 99.9% CI, at several lead times.
        let sim = fig1a_sim();
        let model = Preemptible::new(Uniform::new(1.0, 7.5).unwrap(), 10.0).unwrap();
        for &x in &[2.0, 4.0, 5.5, 6.5, 7.5] {
            let policy = FixedLeadPolicy::new("ad-hoc", x);
            let s = run_trials(
                MonteCarloConfig {
                    trials: 400_000,
                    seed: 42,
                    threads: 0,
                },
                |_, rng| sim.run_once(&policy, rng).work_saved,
            );
            let analytic = model.expected_work(x);
            assert!(
                (s.mean - analytic).abs() < s.ci999_half_width() + 1e-9,
                "X={x}: simulated {} vs analytic {analytic} (ci ±{})",
                s.mean,
                s.ci999_half_width()
            );
        }
    }

    #[test]
    fn oracle_beats_everyone_and_matches_r_minus_mean_c() {
        let sim = fig1a_sim();
        let s = run_trials(
            MonteCarloConfig {
                trials: 200_000,
                seed: 9,
                threads: 0,
            },
            |_, rng| sim.run_oracle(rng).work_saved,
        );
        // E[R − C] = 10 − 4.25.
        assert!((s.mean - 5.75).abs() < s.ci999_half_width());
        // Strictly above the analytic optimum (≈3.12).
        assert!(s.mean > 3.2);
    }

    #[test]
    fn lead_time_clamped_to_reservation() {
        let sim = fig1a_sim();
        let policy = FixedLeadPolicy::new("silly", 25.0);
        let mut rng = Xoshiro256pp::new(4);
        let out = sim.run_once(&policy, &mut rng);
        assert_eq!(out.lead_time, 10.0);
        assert_eq!(out.work_saved, 0.0); // checkpointed at t=0: nothing to save
    }
}
