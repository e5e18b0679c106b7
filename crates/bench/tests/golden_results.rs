//! Golden byte-identity check for the solver fast path: regenerating the
//! analytic `results/` artifacts that flow through `StaticStrategy::optimize`
//! and `DynamicStrategy::threshold` must reproduce the committed CSVs
//! byte for byte. This is the exactness-discipline contract — the search
//! may run on cached lattices and Gauss–Legendre, but every reported
//! number (`y` curves, `W_int`, anchor values) comes off the exact
//! reference path, so a clean checkout stays clean after regeneration.
//!
//! Only the pure-analytic figures are regenerated here (no Monte Carlo):
//! fig05–07 (static relaxations, Normal/Gamma/Poisson) and fig08–10
//! (dynamic comparator curves + threshold). Manifest sidecars are *not*
//! compared — they carry `git_rev`, which legitimately moves with HEAD.

use resq_bench::figures;
use std::path::{Path, PathBuf};

fn committed_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn regenerated_analytic_artifacts_are_byte_identical() {
    let scratch = std::env::temp_dir().join(format!("resq-golden-results-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    // Redirect write_csv away from the committed artifacts; the bench
    // binaries honour the same variable, so this is the supported
    // regenerate-elsewhere path rather than a test backdoor.
    std::env::set_var("RESQ_RESULTS_DIR", &scratch);

    let produced = [
        figures::fig05(),
        figures::fig06(),
        figures::fig07(),
        figures::fig08(),
        figures::fig09(),
        figures::fig10(),
    ];

    let committed = committed_results();
    for fig in &produced {
        for anchor in &fig.anchors {
            assert!(
                anchor.passes(),
                "{}: anchor `{}` off (paper {}, measured {})",
                fig.id,
                anchor.label,
                anchor.paper,
                anchor.measured
            );
        }
        let fresh_csv = fig.csv.as_ref().expect("analytic figures write a CSV");
        let name = fresh_csv.file_name().unwrap();
        let golden = committed.join(name);
        let fresh_bytes = std::fs::read(fresh_csv).unwrap();
        let golden_bytes = std::fs::read(&golden)
            .unwrap_or_else(|e| panic!("missing committed golden {golden:?}: {e}"));
        assert_eq!(
            fresh_bytes, golden_bytes,
            "{}: regenerated {:?} differs from the committed artifact — the \
             fast path leaked into a reported value (exactness discipline broken)",
            fig.id, name
        );
    }

    std::env::remove_var("RESQ_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(&scratch);
}
