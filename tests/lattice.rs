//! Policy-lattice integration tests: the committed golden artifact must
//! keep loading and re-serializing byte-identically (format stability),
//! and interpolated lookups must agree with the exact solvers within the
//! documented bound on randomized in-grid queries (the same contract
//! `resq lattice verify` enforces on artifacts in the field).

use proptest::prelude::*;
use resq::core::lattice::{build, solve_exact, REL_FLOOR};
use resq::numerics::{for_each_node, NdAxis};
use resq::obs::json::{self, JsonValue};
use resq::{AnswerSource, LatticeSpec, LawFamily, PolicyLattice, SolveCache};
use std::path::PathBuf;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/resq → two levels up.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap();
    PathBuf::from(manifest)
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

/// One small exponential-family lattice shared by all property cases
/// (building it costs dozens of exact solves).
fn shared_lattice() -> &'static PolicyLattice {
    static LATTICE: OnceLock<PolicyLattice> = OnceLock::new();
    LATTICE.get_or_init(|| {
        let mut spec = LatticeSpec::defaults(LawFamily::Exponential).with_points(5);
        spec.axes[0].lo = 0.10;
        spec.axes[0].hi = 0.30;
        spec.axes[1].lo = 0.10;
        spec.axes[1].hi = 0.30;
        build(&spec).expect("exponential lattice builds")
    })
}

/// The committed v1 artifact (built once by `resq lattice build`) must
/// parse, fingerprint-verify and re-serialize to the exact committed
/// bytes. This pins the on-disk format: any serialization change must
/// either stay byte-compatible or bump the format tag and regenerate the
/// golden file consciously.
#[test]
fn golden_artifact_round_trips_byte_identically() {
    let path = repo_root().join("tests/data/lattice_golden.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let lattice =
        PolicyLattice::from_json(&text).expect("the committed golden artifact must keep loading");
    assert_eq!(lattice.family(), LawFamily::Exponential);
    assert_eq!(
        lattice.to_json(),
        text,
        "serialization drifted from the committed v1 artifact — bump the format tag \
         and regenerate tests/data/lattice_golden.json if this is intentional"
    );
    // And it still answers queries: a mid-grid point at R = 10.
    let axes = lattice.axes();
    let coords: Vec<f64> = axes.iter().map(|a| 0.5 * (a.lo + a.hi)).collect();
    let q = lattice.query_for_coords(&coords, 10.0);
    let mut cache = SolveCache::new();
    let a = lattice.query(&q, &mut cache).expect("golden artifact answers");
    assert!(a.n_opt >= 1);
    assert!(a.expected_work > 0.0 && a.x_opt > 0.0);
}

/// Every node of a build stores the `W_int` a fresh exact solve of its
/// query gives (the sentinel −1 where there is none). Checkpoint means
/// of 0.05–0.09 R leave the checkpoint CDF exactly 1 at R/6 … 5R/6, the
/// points a fit-lattice cache once keyed on, so one node's fit used to
/// decide another node's threshold scan and store W_int = 0.
#[test]
fn every_node_stores_the_w_int_of_a_fresh_exact_solve() {
    let mut spec = LatticeSpec::defaults(LawFamily::Exponential).with_points(3);
    spec.axes[1].lo = 0.05;
    spec.axes[1].hi = 0.09;
    let lattice = build(&spec).expect("exponential lattice builds");
    let doc = json::parse(&lattice.to_json()).expect("artifact parses");
    let Some(JsonValue::Array(stored)) = doc.get("fields").and_then(|f| f.get("w_int")) else {
        panic!("artifact has no `fields.w_int` array");
    };
    let axes: Vec<NdAxis> = lattice
        .axes()
        .iter()
        .map(|a| NdAxis::new(a.lo, a.hi, a.points).expect("valid axis"))
        .collect();
    assert_eq!(stored.len(), 9);
    for_each_node(&axes, |flat, coords| {
        let q = lattice.query_for_coords(coords, 1.0);
        let fresh = solve_exact(&q, &mut SolveCache::new()).expect("node solves");
        let got = stored[flat].as_f64().expect("numeric W_int");
        let want = fresh.w_int.unwrap_or(-1.0);
        let at = format!("node {flat} at {coords:?}: {got} vs {want}");
        assert_eq!(got.to_bits(), want.to_bits(), "{at}");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized in-grid queries at random reservation scales: a lookup
    /// served by the lattice agrees with the exact solver within the
    /// artifact's tolerance (continuous fields; `n_opt` within one
    /// plateau step), and a fallback IS the exact answer.
    #[test]
    fn lattice_lookup_agrees_with_exact_solver(
        u0 in 0.0f64..1.0,
        u1 in 0.0f64..1.0,
        r in 1.0f64..80.0,
    ) {
        let lattice = shared_lattice();
        let axes = lattice.axes();
        let coords = vec![
            axes[0].lo + u0 * (axes[0].hi - axes[0].lo),
            axes[1].lo + u1 * (axes[1].hi - axes[1].lo),
        ];
        let q = lattice.query_for_coords(&coords, r);
        let mut cache = SolveCache::new();
        let got = lattice.query(&q, &mut cache).unwrap();
        let want = solve_exact(&q, &mut cache).unwrap();
        if got.source == AnswerSource::Exact {
            // The error discipline fell back: the answer is the exact
            // one by construction.
            prop_assert_eq!(got.n_opt, want.n_opt);
            prop_assert!((got.expected_work - want.expected_work).abs() < 1e-12 * r.max(1.0));
            return Ok(());
        }
        let tol = lattice.tolerance();
        let floor = REL_FLOOR * r;
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(floor);
        prop_assert!(
            rel(got.x_opt, want.x_opt) <= tol,
            "x_opt: lattice {} vs exact {} at {:?}", got.x_opt, want.x_opt, q
        );
        prop_assert!(
            rel(got.expected_work, want.expected_work) <= tol,
            "E(n_opt): lattice {} vs exact {} at {:?}", got.expected_work, want.expected_work, q
        );
        prop_assert!(
            (got.n_opt as i64 - want.n_opt as i64).abs() <= 1,
            "n_opt: lattice {} vs exact {} (one plateau step allowed)", got.n_opt, want.n_opt
        );
        match (got.w_int, want.w_int) {
            (Some(a), Some(b)) => prop_assert!(
                rel(a, b) <= tol,
                "W_int: lattice {a} vs exact {b} at {q:?}"
            ),
            (None, None) => {}
            (a, b) => prop_assert!(false, "W_int presence mismatch: {a:?} vs {b:?} at {q:?}"),
        }
    }
}
