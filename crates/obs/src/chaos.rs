//! Deterministic fault injection for the serving stack.
//!
//! A [`ChaosPolicy`] is a seeded per-connection fault schedule: each
//! accepted connection draws a [`ConnFaults`] plan — a pure function of
//! the policy seed and the connection's accept index — deciding whether
//! that connection gets a forced worker panic, a torn (truncated)
//! response, a byte-flipped response body, an accept-loop stall, or a
//! deliberately slow response writer. The same seed always produces the
//! same schedule, so a chaos run is reproducible bug-for-bug.
//!
//! The policy is opt-in (`resq serve --chaos-spec`, or the
//! `RESQ_CHAOS_SPEC` environment variable) and lives behind an
//! `Option<Arc<ChaosPolicy>>` in the server config: with it unset the
//! production path pays a single `Option` check per *connection* and
//! nothing per request.
//!
//! Spec syntax (comma-separated `key=value`):
//!
//! ```text
//! seed=7,panic=0.05,torn=0.1,flip=0.1,stall=0.03,slow=0.05
//! ```
//!
//! `seed` is a `u64` (default 42); the five fault keys are per-connection
//! probabilities in `[0, 1]` (default 0). Unknown keys are rejected so a
//! typo cannot silently disable a fault.

use std::sync::atomic::{AtomicU64, Ordering};

/// How long an injected accept stall sleeps, and the chunk gap of an
/// injected slow writer. Short enough that clients inside their own
/// read deadline survive it; long enough to back the accept queue up
/// under load (exercising the `503` shed + `Retry-After` path).
pub const STALL_MILLIS: u64 = 30;

/// SplitMix64 — the workspace's standalone seeding PRNG (the same
/// generator `resq_dist` uses to seed Xoshiro streams), re-rolled here
/// because `resq_obs` sits below the dist crate in the dependency
/// stack.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
}

fn splitmix64_next(state: &mut u64) -> u64 {
    splitmix64(state);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits.
fn unit(state: &mut u64) -> f64 {
    (splitmix64_next(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The fault plan for one accepted connection — all off by default
/// (what every connection gets when no chaos policy is installed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnFaults {
    /// Panic in the worker before handling the connection (exercises
    /// the pool's `catch_unwind` supervision and the
    /// `workers_restarted_total` counter).
    pub panic_worker: bool,
    /// Write only a prefix of each response, then close (a torn frame
    /// on the framed path, a truncated body on HTTP).
    pub torn_response: bool,
    /// Flip one byte inside each response payload (the client must
    /// detect the corruption and retry).
    pub flip_byte: bool,
    /// Stall the accept loop for [`STALL_MILLIS`] before dispatching
    /// this connection (backs the bounded queue up).
    pub stall_accept: bool,
    /// Write the response in small chunks with [`STALL_MILLIS`]-scale
    /// gaps (a slow server stressing client read deadlines).
    pub slow_write: bool,
}

impl ConnFaults {
    /// Whether any response-path fault is armed (lets the hot path skip
    /// the fault-injecting writer entirely).
    pub fn any_response_fault(&self) -> bool {
        self.torn_response || self.flip_byte || self.slow_write
    }
}

/// A seeded per-connection fault schedule (see the module docs).
#[derive(Debug)]
pub struct ChaosPolicy {
    seed: u64,
    panic_rate: f64,
    torn_rate: f64,
    flip_rate: f64,
    stall_rate: f64,
    slow_rate: f64,
    connections: AtomicU64,
}

impl ChaosPolicy {
    /// Parses a `key=value,key=value` spec (see the module docs).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut policy = Self {
            seed: 42,
            panic_rate: 0.0,
            torn_rate: 0.0,
            flip_rate: 0.0,
            stall_rate: 0.0,
            slow_rate: 0.0,
            connections: AtomicU64::new(0),
        };
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec item `{part}` is not key=value"))?;
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("chaos rate `{key}={v}` is not a number"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("chaos rate `{key}={v}` must be in [0, 1]"));
                }
                Ok(r)
            };
            match key.trim() {
                "seed" => {
                    policy.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("chaos seed `{value}` is not a u64"))?
                }
                "panic" => policy.panic_rate = rate(value.trim())?,
                "torn" => policy.torn_rate = rate(value.trim())?,
                "flip" => policy.flip_rate = rate(value.trim())?,
                "stall" => policy.stall_rate = rate(value.trim())?,
                "slow" => policy.slow_rate = rate(value.trim())?,
                other => {
                    return Err(format!(
                        "unknown chaos key `{other}` (expected seed|panic|torn|flip|stall|slow)"
                    ))
                }
            }
        }
        Ok(policy)
    }

    /// The canonical spec string (what `parse` accepts back).
    pub fn describe(&self) -> String {
        format!(
            "seed={},panic={},torn={},flip={},stall={},slow={}",
            self.seed,
            self.panic_rate,
            self.torn_rate,
            self.flip_rate,
            self.stall_rate,
            self.slow_rate
        )
    }

    /// The fault plan for connection `index` — pure in `(seed, index)`.
    pub fn plan_for(&self, index: u64) -> ConnFaults {
        let mut state = self.seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
        // Burn one output so consecutive indices decorrelate.
        let _ = splitmix64_next(&mut state);
        ConnFaults {
            panic_worker: unit(&mut state) < self.panic_rate,
            torn_response: unit(&mut state) < self.torn_rate,
            flip_byte: unit(&mut state) < self.flip_rate,
            stall_accept: unit(&mut state) < self.stall_rate,
            slow_write: unit(&mut state) < self.slow_rate,
        }
    }

    /// Draws the plan for the next accepted connection (monotonic
    /// accept index; the schedule itself stays a pure function of the
    /// seed and that index).
    pub fn plan(&self) -> ConnFaults {
        self.plan_for(self.connections.fetch_add(1, Ordering::Relaxed))
    }

    /// Connections planned so far.
    pub fn connections_planned(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }
}

/// Replaces the default panic hook with one that reports caught worker
/// panics on a single stderr line *without* the default hook's
/// `panicked at` phrasing — the chaos CI tier asserts injected panics
/// never surface as an unhandled `panicked at` in the daemon log, and
/// the supervised worker pool turns every one of them into a recovery.
/// Installed only on the chaos-enabled daemon paths; never in tests or
/// the production default.
pub fn install_panic_capture_hook() {
    std::panic::set_hook(Box::new(|info| {
        let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        let location = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_else(|| "unknown location".to_string());
        eprintln!("worker panic intercepted: {message} ({location})");
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_describe() {
        let p = ChaosPolicy::parse("seed=7,panic=0.05,torn=0.1,flip=0.1,stall=0.03,slow=0.05")
            .expect("valid spec");
        let q = ChaosPolicy::parse(&p.describe()).expect("canonical form parses");
        assert_eq!(p.describe(), q.describe());
    }

    #[test]
    fn unknown_keys_and_bad_rates_are_rejected() {
        assert!(ChaosPolicy::parse("panics=0.1").is_err());
        assert!(ChaosPolicy::parse("panic=1.5").is_err());
        assert!(ChaosPolicy::parse("panic=-0.1").is_err());
        assert!(ChaosPolicy::parse("seed=x").is_err());
        assert!(ChaosPolicy::parse("panic").is_err());
    }

    #[test]
    fn empty_spec_is_all_off() {
        let p = ChaosPolicy::parse("").expect("empty spec");
        for i in 0..64 {
            assert_eq!(p.plan_for(i), ConnFaults::default());
        }
    }

    #[test]
    fn schedule_is_deterministic_in_seed_and_index() {
        let a =
            ChaosPolicy::parse("seed=9,panic=0.3,torn=0.3,flip=0.3,stall=0.3,slow=0.3").unwrap();
        let b =
            ChaosPolicy::parse("seed=9,panic=0.3,torn=0.3,flip=0.3,stall=0.3,slow=0.3").unwrap();
        for i in 0..256 {
            assert_eq!(a.plan_for(i), b.plan_for(i), "index {i}");
        }
        // A different seed gives a different schedule somewhere.
        let c =
            ChaosPolicy::parse("seed=10,panic=0.3,torn=0.3,flip=0.3,stall=0.3,slow=0.3").unwrap();
        assert!(
            (0..256).any(|i| a.plan_for(i) != c.plan_for(i)),
            "seeds 9 and 10 produced identical 256-connection schedules"
        );
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = ChaosPolicy::parse("seed=1,panic=0.5").unwrap();
        let hits = (0..4096).filter(|&i| p.plan_for(i).panic_worker).count();
        // 4096 draws at p=0.5: a 10-sigma band is ±320.
        assert!((1728..=2368).contains(&hits), "panic rate off: {hits}/4096");
        // And the other faults stay off.
        assert!((0..4096).all(|i| !p.plan_for(i).torn_response));
    }

    #[test]
    fn plan_advances_the_accept_index() {
        let p = ChaosPolicy::parse("seed=3,flip=0.5").unwrap();
        let direct: Vec<ConnFaults> = (0..16).map(|i| p.plan_for(i)).collect();
        let drawn: Vec<ConnFaults> = (0..16).map(|_| p.plan()).collect();
        assert_eq!(direct, drawn);
        assert_eq!(p.connections_planned(), 16);
    }
}
