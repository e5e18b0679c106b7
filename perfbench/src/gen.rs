//! Seeded input generators. Every request body, the `decide_wire`
//! catalogue candidates and every Monte-Carlo run seed are pure functions
//! of the workload seed, built here with the benchmark's own generator so
//! that a change to the library's RNGs or renderers cannot change the
//! inputs. The program under test only ever sees the bytes (or law
//! parameters) produced here.

/// SplitMix64, the benchmark's own input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for sub-stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform in `[0, 1)` (53-bit).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }
}

/// Checkpoint-law shape ratio `σ_C/µ_C` of every generated query: the
/// ratio the lattices are gridded at, so in-box queries can hit them.
pub const CKPT_SIGMA_RATIO: f64 = 0.08;

/// The four task-law families a `/decide` query can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Uniform,
    Exponential,
    Normal,
    LogNormal,
}

impl Family {
    pub const ALL: [Family; 4] = [
        Family::Uniform,
        Family::Exponential,
        Family::Normal,
        Family::LogNormal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Uniform => "uniform",
            Family::Exponential => "exponential",
            Family::Normal => "normal",
            Family::LogNormal => "lognormal",
        }
    }

    /// The family's default lattice box in `R`-normalized coordinates
    /// (the ranges `LatticeSpec::defaults` grids), pinned here so the
    /// inputs do not move when the library's defaults do. The last axis
    /// is always the checkpoint mean `µ_C/R`.
    pub fn default_box(self) -> &'static [(f64, f64)] {
        match self {
            // task_lo, task_width, ckpt_mean
            Family::Uniform => &[(0.02, 0.20), (0.02, 0.20), (0.05, 0.30)],
            // task_mean, ckpt_mean
            Family::Exponential => &[(0.05, 0.30), (0.05, 0.30)],
            // task_mean, task_cv, ckpt_mean
            Family::Normal | Family::LogNormal => &[(0.05, 0.30), (0.05, 0.30), (0.05, 0.30)],
        }
    }

    /// The task-law spec string for normalized `coords` at reservation
    /// `r`, in the `/decide` law syntax.
    fn task_spec(self, coords: &[f64], r: f64) -> String {
        match self {
            Family::Uniform => {
                let lo = coords[0] * r;
                format!("uniform:{lo},{}", lo + coords[1] * r)
            }
            Family::Exponential => format!("exponential:{}", 1.0 / (coords[0] * r)),
            Family::Normal => {
                let mean = coords[0] * r;
                format!("normal:{mean},{}", mean * coords[1])
            }
            Family::LogNormal => {
                // (mean, cv) to the log-space (mu, sigma) of the law syntax.
                let sigma2 = (1.0 + coords[1] * coords[1]).ln();
                let mu = (coords[0] * r).ln() - sigma2 / 2.0;
                format!("lognormal:{mu},{}", sigma2.sqrt())
            }
        }
    }
}

/// One generated `/decide` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub family: Family,
    /// The task-law spec, e.g. `exponential:0.0125`.
    pub task: String,
    pub ckpt_mean: f64,
    pub reservation: f64,
}

impl Query {
    /// The `/decide` body for this query at accumulated work `work`.
    pub fn body(&self, work: f64) -> String {
        format!(
            "{{\"task\":\"{}\",\"ckpt_mean\":{},\"ckpt_sigma\":{},\"reservation\":{},\"work\":{work}}}",
            self.task,
            self.ckpt_mean,
            CKPT_SIGMA_RATIO * self.ckpt_mean,
            self.reservation
        )
    }
}

/// One request of a stream: the query and the work level it is asked at.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub query: Query,
    pub work: f64,
}

impl Request {
    pub fn body(&self) -> String {
        self.query.body(self.work)
    }
}

/// Dimensions of the per-family low-discrepancy sequence: up to three
/// shape axes, the reservation, the work level and the outside-the-box
/// selector.
const DIMS: usize = 6;

/// Share of mixed-stream queries placed just outside the family's box.
const OUTSIDE_SHARE: f64 = 0.10;

/// Per-family query generator: a Cranley–Patterson-rotated R_d
/// (generalized golden ratio) sequence, so every seed covers the box
/// evenly and per-seed figures vary little, while the seeded rotation
/// makes every seed's bodies different.
#[derive(Debug, Clone)]
struct FamilyStream {
    family: Family,
    offset: [f64; DIMS],
    alpha: [f64; DIMS],
    k: u64,
    outside: bool,
}

impl FamilyStream {
    fn new(family: Family, rng: &mut Rng, outside: bool) -> Self {
        // phi_d: the positive root of x^(d+1) = x + 1.
        let mut phi = 2.0f64;
        for _ in 0..64 {
            phi = (1.0 + phi).powf(1.0 / (DIMS as f64 + 1.0));
        }
        let mut alpha = [0.0; DIMS];
        let mut offset = [0.0; DIMS];
        for j in 0..DIMS {
            alpha[j] = phi.powi(-(j as i32 + 1));
            offset[j] = rng.unit();
        }
        Self {
            family,
            offset,
            alpha,
            k: 0,
            outside,
        }
    }

    fn next(&mut self, rng: &mut Rng) -> Request {
        self.k += 1;
        let u: Vec<f64> = (0..DIMS)
            .map(|j| (self.offset[j] + self.k as f64 * self.alpha[j]).fract())
            .collect();
        let axes = self.family.default_box();
        let mut coords: Vec<f64> = axes
            .iter()
            .zip(&u)
            .map(|(&(lo, hi), &t)| lo + t * (hi - lo))
            .collect();
        if self.outside && u[5] < OUTSIDE_SHARE {
            // Just above the upper end of one axis, by at most a tenth of
            // its width. Not below the lower end: a normal law with a
            // coefficient of variation under 0.05 can take the exact
            // solver over the service's 1 s deadline, and a timed-out
            // decision would make the workload fail.
            let axis = (rng.unit() * axes.len() as f64) as usize % axes.len();
            let (lo, hi) = axes[axis];
            coords[axis] = hi + (0.01 + 0.09 * rng.unit()) * (hi - lo);
        }
        // R log-uniform in [10, 1000]; work uniform in [0, R).
        let r = 10.0 * 100f64.powf(u[3]);
        let n = coords.len();
        Request {
            query: Query {
                family: self.family,
                task: self.family.task_spec(&coords, r),
                ckpt_mean: coords[n - 1] * r,
                reservation: r,
            },
            work: u[4] * r,
        }
    }
}

/// The `decide_mix` stream: the four families in equal shares (each
/// block of four requests is a seeded permutation of them), coordinates
/// spread over each family's box with ~10% just outside it.
pub struct MixStream {
    rng: Rng,
    families: Vec<FamilyStream>,
    block: Vec<usize>,
}

impl MixStream {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let families = Family::ALL
            .iter()
            .map(|&f| FamilyStream::new(f, &mut rng, true))
            .collect();
        Self {
            rng,
            families,
            block: Vec::new(),
        }
    }
}

impl Iterator for MixStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.block.is_empty() {
            self.block = (0..Family::ALL.len()).collect();
            for i in (1..self.block.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
        }
        let f = self.block.pop().expect("block refilled above");
        Some(self.families[f].next(&mut self.rng))
    }
}

/// The exponential stream the `decide_wire` catalogue is drawn from (in
/// order, keeping the queries the service answers from its lattice):
/// points uniform in a seeded choice of the given cells (normalized
/// `(lo, hi)` bounds per axis, the lattice cells that passed
/// calibration), `R` log-uniform in [10, 1000].
pub struct WireCandidates {
    rng: Rng,
    cells: Vec<Vec<(f64, f64)>>,
}

impl WireCandidates {
    pub fn new(seed: u64, cells: Vec<Vec<(f64, f64)>>) -> Self {
        assert!(!cells.is_empty(), "the catalogue needs at least one cell");
        Self {
            rng: Rng::new(seed, 2),
            cells,
        }
    }
}

impl Iterator for WireCandidates {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let cell = &self.cells[(self.rng.next_u64() % self.cells.len() as u64) as usize];
        let coords: Vec<f64> = cell
            .iter()
            .map(|&(lo, hi)| lo + self.rng.unit() * (hi - lo))
            .collect();
        let r = 10.0 * 100f64.powf(self.rng.unit());
        Some(Query {
            family: Family::Exponential,
            task: Family::Exponential.task_spec(&coords, r),
            ckpt_mean: coords[coords.len() - 1] * r,
            reservation: r,
        })
    }
}

/// Work levels the catalogue queries are replayed at: each catalogue
/// entry is asked "checkpoint now?" at `per_query` seeded levels in
/// `[0, R)`. Returns `(catalogue index, work)` pairs.
pub fn wire_plan(seed: u64, catalogue: &[Query], per_query: usize) -> Vec<(usize, f64)> {
    let mut rng = Rng::new(seed, 3);
    let mut plan = Vec::with_capacity(catalogue.len() * per_query);
    for _ in 0..per_query {
        for (i, q) in catalogue.iter().enumerate() {
            plan.push((i, rng.unit() * q.reservation));
        }
    }
    plan
}

/// Seed of the `j`-th Monte-Carlo run of a workload.
pub fn mc_run_seed(seed: u64, j: u64) -> u64 {
    Rng::new(seed, j.wrapping_add(4)).next_u64()
}

/// Whether item `i` of a run is re-solved exactly by the correctness
/// check (a seeded one-in-`every` sample).
pub fn sampled_for_check(seed: u64, i: u64, every: u64) -> bool {
    Rng::new(seed ^ 0x5A17_C0DE, i)
        .next_u64()
        .is_multiple_of(every)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_bodies(seed: u64, n: usize) -> Vec<String> {
        MixStream::new(seed).take(n).map(|r| r.body()).collect()
    }

    #[test]
    fn mix_stream_is_a_pure_function_of_the_seed() {
        assert_eq!(mix_bodies(7, 400), mix_bodies(7, 400));
        let (a, b) = (mix_bodies(7, 400), mix_bodies(8, 400));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn mix_stream_has_equal_family_shares_and_some_outside_queries() {
        let reqs: Vec<Request> = MixStream::new(11).take(4000).collect();
        for f in Family::ALL {
            assert_eq!(reqs.iter().filter(|r| r.query.family == f).count(), 1000);
        }
        let bodies: std::collections::HashSet<String> = reqs.iter().map(|r| r.body()).collect();
        assert_eq!(bodies.len(), reqs.len(), "bodies must be unshared");
        for r in &reqs {
            let q = &r.query;
            assert!((10.0..=1000.0).contains(&q.reservation));
            assert!((0.0..q.reservation).contains(&r.work));
            assert!(q.ckpt_mean > 0.0);
        }
        let outside = reqs
            .iter()
            .filter(|r| {
                let m = r.query.ckpt_mean / r.query.reservation;
                !(0.05..=0.30).contains(&m)
            })
            .count();
        assert!(outside > 0, "some queries must sit just outside the box");
    }

    #[test]
    fn wire_candidates_and_plan_are_pure_functions_of_the_seed() {
        let cells = vec![
            vec![(0.05, 0.10), (0.10, 0.15)],
            vec![(0.20, 0.25), (0.05, 0.10)],
        ];
        let cat = |s| {
            WireCandidates::new(s, cells.clone())
                .take(64)
                .collect::<Vec<_>>()
        };
        assert_eq!(cat(3), cat(3));
        assert_ne!(cat(3), cat(4));
        let c = cat(3);
        assert!(c.iter().all(|q| q.family == Family::Exponential));
        let bodies = |s| -> Vec<String> {
            wire_plan(s, &c, 4)
                .into_iter()
                .map(|(i, w)| c[i].body(w))
                .collect()
        };
        assert_eq!(bodies(3), bodies(3));
        assert_ne!(bodies(3), bodies(4));
    }

    #[test]
    fn mc_run_seeds_are_pure_functions_of_the_seed() {
        let seeds = |s| (0..100).map(|j| mc_run_seed(s, j)).collect::<Vec<_>>();
        assert_eq!(seeds(5), seeds(5));
        assert_ne!(seeds(5), seeds(6));
        let distinct: std::collections::HashSet<u64> = seeds(5).into_iter().collect();
        assert_eq!(distinct.len(), 100);
    }
}
