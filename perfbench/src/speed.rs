//! Host-speed calibration. On a shared host the same code runs up to
//! ~70% slower for seconds to minutes at a time (a busy SMT sibling or
//! neighbour), which would swamp any change a benchmark run is meant to
//! show. A fixed reference loop, owned by the benchmark and timed every
//! [`PROBE_EVERY`], measures the host's current speed; timings are
//! scaled by `REFERENCE_NOMINAL_NS / reference time` into microseconds
//! at the reference host's idle speed. Raw timings go to standard error.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of the reference loop per probe (~1.5 ms).
const REFERENCE_ITERS: u64 = 100_000;

/// The speed all scaled timings are expressed at: 1 ms per probe, about
/// the reference loop's fastest time on an idle 2-core Xeon host
/// (1.07 ms measured).
const REFERENCE_NOMINAL_NS: f64 = 1_000_000.0;

/// How often a phase re-measures the host's speed.
pub const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Probes the current speed is the median of.
const WINDOW: usize = 5;

/// The reference loop: xorshift words mapped to uniforms and folded
/// through `sqrt`/`ln`, register-bound and branchy like the solvers and
/// samplers it stands in for. Its result only feeds `black_box`.
fn reference_ns() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..black_box(REFERENCE_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        acc += if u < 0.5 { u.sqrt() } else { (1.0 - u).ln() };
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64
}

/// The host's current speed, from the latest probes.
pub struct Speed {
    recent: VecDeque<f64>,
    last: Instant,
    /// Every probe taken, in ns, for [`Speed::report`].
    probes: Vec<f64>,
}

impl Speed {
    pub fn new() -> Self {
        let mut s = Self {
            recent: VecDeque::with_capacity(WINDOW),
            last: Instant::now(),
            probes: Vec::new(),
        };
        s.probe();
        s
    }

    /// Times the reference loop now.
    pub fn probe(&mut self) {
        let ns = reference_ns();
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ns);
        self.probes.push(ns);
        self.last = Instant::now();
    }

    /// Probes when [`PROBE_EVERY`] has passed since the last probe; call
    /// it between requests, never inside a timed one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= PROBE_EVERY {
            self.probe();
        }
    }

    /// Prints the probes' spread to standard error.
    pub fn report(&self) {
        let mut v = self.probes.clone();
        v.sort_by(f64::total_cmp);
        eprintln!(
            "perfbench: reference loop {:.0} ns median, {:.0}..{:.0} ns over {} probes (nominal {REFERENCE_NOMINAL_NS:.0})",
            v[v.len() / 2],
            v[0],
            v[v.len() - 1],
            v.len()
        );
    }

    /// The factor that scales a raw timing taken now to the reference
    /// host's idle speed.
    pub fn factor(&self) -> f64 {
        let mut v: Vec<f64> = self.recent.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        REFERENCE_NOMINAL_NS / v[v.len() / 2]
    }
}
