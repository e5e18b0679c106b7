//! Cross-crate property tests: invariants of the paper's objects that
//! must hold for *any* valid parameters, not just the figures'.

use proptest::prelude::*;
use resq::dist::{Exponential, Gamma, Normal, Sample, Truncated, Uniform, Xoshiro256pp};
use resq::sim::stats::Welford;
use resq::sim::{PreemptibleSim, WorkflowSim};
use resq::{DynamicStrategy, FixedLeadPolicy, Preemptible, StaticStrategy};

/// Asserts that for a draw-order-preserving law, filling a buffer in two
/// `sample_batch_mono` calls split at `k` consumes the RNG stream exactly like
/// `n` scalar draws — the contract that lets the batched Monte-Carlo
/// runner stay bit-identical to the scalar one for these laws.
fn assert_split_batch_matches_scalar<D: Sample>(
    name: &str,
    law: &D,
    seed: u64,
    n: usize,
    k: usize,
) {
    let mut scalar_rng = Xoshiro256pp::new(seed);
    let scalar: Vec<f64> = (0..n).map(|_| law.sample(&mut scalar_rng)).collect();

    let mut batch_rng = Xoshiro256pp::new(seed);
    let mut batch = vec![0.0f64; n];
    let (head, tail) = batch.split_at_mut(k);
    law.sample_batch_mono(&mut batch_rng, head);
    law.sample_batch_mono(&mut batch_rng, tail);

    assert_eq!(
        scalar, batch,
        "{name}: split batch at {k}/{n} diverged from scalar draws"
    );
    // Both consumers must leave the stream at the same position: one
    // more draw from each side still agrees bitwise.
    assert_eq!(
        law.sample(&mut scalar_rng),
        law.sample(&mut batch_rng),
        "{name}: stream positions diverged after {n} draws"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// E[W] is 0 at X=a, 0 at X=R, non-negative in between, and the
    /// optimum dominates the pessimistic plan.
    #[test]
    fn preemptible_objective_invariants(
        a in 0.2f64..3.0,
        width in 0.5f64..6.0,
        slack in 0.5f64..10.0,
    ) {
        let b = a + width;
        let r = b + slack;
        let m = Preemptible::new(Uniform::new(a, b).unwrap(), r).unwrap();
        prop_assert!(m.expected_work(a).abs() < 1e-10);
        prop_assert!(m.expected_work(r).abs() < 1e-10);
        let opt = m.optimize();
        let pess = m.pessimistic();
        prop_assert!(opt.expected_work >= pess.expected_work - 1e-9);
        prop_assert!(opt.expected_work <= m.oracle_expected_work() + 1e-9);
        prop_assert!(opt.lead_time >= a - 1e-12 && opt.lead_time <= b + 1e-12);
        for i in 0..=20 {
            let x = a + (r - a) * i as f64 / 20.0;
            let w = m.expected_work(x);
            prop_assert!(w >= -1e-12, "E[W({x})] = {w} < 0");
            prop_assert!(w <= opt.expected_work + 1e-9, "E[W({x})] beats optimum");
        }
    }

    /// Closed-form uniform optimum equals the generic optimizer.
    #[test]
    fn uniform_closed_form_matches_optimizer(
        a in 0.2f64..3.0,
        width in 0.5f64..6.0,
        slack in 0.5f64..10.0,
    ) {
        let b = a + width;
        let r = b + slack;
        let closed = resq::core::preemptible::closed_form::uniform_x_opt(a, b, r).unwrap();
        let m = Preemptible::new(Uniform::new(a, b).unwrap(), r).unwrap();
        prop_assert!((closed - m.optimize().lead_time).abs() < 1e-5);
    }

    /// Simulated preemptible outcomes obey conservation laws for any
    /// parameters and lead time.
    #[test]
    fn preemptible_simulation_conservation(
        a in 0.2f64..3.0,
        width in 0.5f64..5.0,
        slack in 0.5f64..8.0,
        lead_frac in 0.0f64..1.2,
        seed in 0u64..500,
    ) {
        let b = a + width;
        let r = b + slack;
        let ckpt = Uniform::new(a, b).unwrap();
        let sim = PreemptibleSim { reservation: r, ckpt };
        let lead = lead_frac * r;
        let policy = FixedLeadPolicy::new("prop", lead);
        let mut rng = resq::dist::Xoshiro256pp::new(seed);
        for _ in 0..16 {
            let out = sim.run_once(&policy, &mut rng);
            prop_assert!(out.work_saved >= 0.0);
            prop_assert!(out.work_saved <= r);
            prop_assert!(out.time_used <= r + 1e-9);
            prop_assert!(out.checkpoint_duration >= a && out.checkpoint_duration <= b);
            if out.checkpoint_succeeded {
                prop_assert!(out.checkpoint_duration <= out.lead_time + 1e-12);
            } else {
                prop_assert!(out.work_saved == 0.0);
            }
        }
    }

    /// Static strategy: E(n) ≥ 0 everywhere and the reported optimum
    /// dominates a scan.
    #[test]
    fn static_strategy_optimum_dominates(
        mu in 1.0f64..4.0,
        sigma_frac in 0.05f64..0.3,
        mu_c in 1.0f64..6.0,
        r_mult in 4.0f64..7.0,
    ) {
        let sigma = sigma_frac * mu;
        let r = r_mult * mu + mu_c;
        let ckpt = Truncated::above(Normal::new(mu_c, 0.1 * mu_c).unwrap(), 0.0).unwrap();
        let s = StaticStrategy::new(Normal::new(mu, sigma).unwrap(), ckpt, r).unwrap();
        let plan = s.optimize().unwrap();
        prop_assert!(plan.expected_work >= 0.0);
        for n in 1..=(2.0 * r / mu) as u64 {
            let e = s.expected_work(n);
            prop_assert!(e >= -1e-9, "E({n}) = {e} < 0");
            prop_assert!(e <= plan.expected_work + 1e-6, "E({n}) = {e} beats plan");
        }
        // Saved work cannot exceed the room left by the cheapest possible
        // checkpoint.
        prop_assert!(plan.expected_work <= r);
    }

    /// Dynamic strategy: the threshold, when it exists, separates the
    /// decisions, and E[W_{+1}](w) ≥ 0, E[W_C](w) ∈ [0, w].
    #[test]
    fn dynamic_strategy_invariants(
        shape in 0.5f64..3.0,
        scale in 0.2f64..1.0,
        mu_c in 0.5f64..4.0,
        r in 8.0f64..30.0,
    ) {
        let task = Gamma::new(shape, scale).unwrap();
        let ckpt = Truncated::above(Normal::new(mu_c, 0.15 * mu_c).unwrap(), 0.0).unwrap();
        let d = DynamicStrategy::new(task, ckpt, r).unwrap();
        for i in 0..=20 {
            let w = r * i as f64 / 20.0;
            let now = d.expect_checkpoint_now(w);
            let plus = d.expect_one_more(w);
            prop_assert!(now >= 0.0 && now <= w + 1e-9, "E[W_C]({w}) = {now}");
            prop_assert!(plus >= 0.0 && plus <= r + 1e-9, "E[W_+1]({w}) = {plus}");
        }
        if let Some(w_int) = d.threshold().unwrap() {
            if w_int > 0.5 && w_int < r - 0.5 {
                prop_assert!(!d.should_checkpoint((w_int - 0.3).max(0.0)));
                prop_assert!(d.should_checkpoint(w_int + 0.3));
            }
        }
    }

    /// Draw-order-preserving batch kernels are bit-identical to scalar
    /// draws, for any buffer split — covering the default loop kernel
    /// (Gamma), the buffered-uniform kernels (Uniform, Exponential) and
    /// both truncated regimes (inversion, and rejection with ~10%
    /// rejects).
    #[test]
    fn split_batch_equals_scalar_for_order_preserving_laws(
        seed in 0u64..1000,
        n in 1usize..200,
        k_frac in 0.0f64..1.0,
    ) {
        let k = ((n as f64) * k_frac) as usize;
        assert_split_batch_matches_scalar(
            "gamma (default kernel)",
            &Gamma::new(9.0, 1.0 / 3.0).unwrap(),
            seed, n, k,
        );
        assert_split_batch_matches_scalar(
            "uniform (buffered kernel)",
            &Uniform::new(1.0, 7.5).unwrap(),
            seed, n, k,
        );
        assert_split_batch_matches_scalar(
            "exponential (buffered kernel)",
            &Exponential::new(0.5).unwrap(),
            seed, n, k,
        );
        assert_split_batch_matches_scalar(
            "truncated normal (inversion regime)",
            &Truncated::new(Normal::new(0.0, 1.0).unwrap(), 2.0, 3.0).unwrap(),
            seed, n, k,
        );
        assert_split_batch_matches_scalar(
            "truncated normal (rejection regime)",
            &Truncated::new(Normal::new(0.0, 1.0).unwrap(), -1.65, 1.65).unwrap(),
            seed, n, k,
        );
    }

    /// Welford merging is associative enough for determinism: folding a
    /// sample in any chunking (sizes AND order fixed by chunk index, as
    /// the Monte-Carlo runner does) gives the same mean/variance as the
    /// serial fold, to floating-point noise.
    #[test]
    fn welford_chunk_merges_are_chunking_invariant(
        seed in 0u64..1000,
        n in 2usize..400,
        chunk_a in 1usize..64,
        chunk_b in 1usize..64,
    ) {
        let mut rng = Xoshiro256pp::new(seed);
        let law = Gamma::new(2.0, 1.5).unwrap();
        let data = law.sample_vec(&mut rng, n);

        let fold = |chunk: usize| {
            let mut total = Welford::new();
            for piece in data.chunks(chunk) {
                let mut w = Welford::new();
                for &x in piece {
                    w.add(x);
                }
                total.merge(&w);
            }
            total
        };
        let serial = fold(n);
        let a = fold(chunk_a);
        let b = fold(chunk_b);
        for w in [&a, &b] {
            prop_assert_eq!(w.count(), serial.count());
            let scale = serial.mean().abs().max(1.0);
            prop_assert!((w.mean() - serial.mean()).abs() <= 1e-12 * scale,
                "mean {} vs serial {}", w.mean(), serial.mean());
            let vscale = serial.variance().abs().max(1.0);
            prop_assert!((w.variance() - serial.variance()).abs() <= 1e-10 * vscale,
                "variance {} vs serial {}", w.variance(), serial.variance());
        }
    }

    /// Workflow simulation conservation laws for arbitrary thresholds.
    #[test]
    fn workflow_simulation_conservation(
        threshold_frac in 0.1f64..1.1,
        seed in 0u64..300,
    ) {
        let r = 29.0;
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let ckpt = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        let sim = WorkflowSim { reservation: r, task, ckpt };
        let policy = resq::core::policy::ThresholdWorkflowPolicy {
            threshold: threshold_frac * r,
        };
        let mut rng = resq::dist::Xoshiro256pp::new(seed);
        for _ in 0..8 {
            let out = sim.run_once(&policy, &mut rng);
            prop_assert!(out.work_saved >= 0.0);
            prop_assert!(out.work_saved <= out.work_at_checkpoint + 1e-12);
            prop_assert!(out.work_at_checkpoint <= r + 1e-9);
            prop_assert!(out.time_used <= r + 1e-9);
            if out.checkpoint_succeeded {
                prop_assert!(out.checkpoint_attempted);
                prop_assert!(
                    out.work_at_checkpoint + out.checkpoint_duration <= r + 1e-9
                );
            }
        }
    }
}
