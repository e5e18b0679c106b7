//! Reporting helpers shared by the figure and experiment binaries.

use std::path::{Path, PathBuf};

/// One paper-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct Anchor {
    /// What is being compared (e.g. `"X_opt"`, `"f(7)"`).
    pub label: String,
    /// The value the paper reports.
    pub paper: f64,
    /// The value this reproduction computes.
    pub measured: f64,
    /// Absolute tolerance for the pass verdict (reflecting the paper's
    /// printed precision / plot readability).
    pub tolerance: f64,
}

impl Anchor {
    /// Builds an anchor.
    pub fn new(label: impl Into<String>, paper: f64, measured: f64, tolerance: f64) -> Self {
        Self {
            label: label.into(),
            paper,
            measured,
            tolerance,
        }
    }

    /// Whether the measured value is within tolerance of the paper's.
    pub fn passes(&self) -> bool {
        (self.measured - self.paper).abs() <= self.tolerance
    }
}

/// The result of regenerating one figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure identifier, e.g. `"fig05"`.
    pub id: String,
    /// Human-readable description.
    pub title: String,
    /// Paper-vs-measured anchors.
    pub anchors: Vec<Anchor>,
    /// Where the plotted series was written (if any).
    pub csv: Option<PathBuf>,
}

impl FigureResult {
    /// True iff every anchor passes.
    pub fn passes(&self) -> bool {
        self.anchors.iter().all(Anchor::passes)
    }

    /// Prints the standard report block to stdout.
    pub fn print(&self) {
        println!("== {} — {}", self.id, self.title);
        for a in &self.anchors {
            let verdict = if a.passes() { "ok" } else { "DRIFT" };
            println!(
                "   {:<28} paper {:>9.3}   measured {:>9.4}   (tol ±{:<6.3}) [{verdict}]",
                a.label, a.paper, a.measured, a.tolerance
            );
        }
        if let Some(csv) = &self.csv {
            println!("   series -> {}", csv.display());
        }
        println!();
    }
}

/// Directory for CSV outputs. Resolution order:
///
/// 1. `RESQ_RESULTS_DIR`, when set — lets a caller regenerate artifacts
///    into a scratch location without touching the checked-in `results/`;
/// 2. `results/` at the workspace root (the checked-in artifacts) for
///    binaries, or a per-process temp scratch dir under `cargo test`, so
///    the unit tests can never clobber committed CSVs and manifests.
///
/// Created on demand.
pub fn results_dir() -> PathBuf {
    let base = match std::env::var_os("RESQ_RESULTS_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => default_results_dir(),
    };
    std::fs::create_dir_all(&base).ok();
    base
}

#[cfg(not(test))]
fn default_results_dir() -> PathBuf {
    workspace_root().join("results")
}

#[cfg(test)]
fn default_results_dir() -> PathBuf {
    std::env::temp_dir().join(format!("resq-bench-test-results-{}", std::process::id()))
}

#[cfg(not(test))]
fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → two levels up.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let p = Path::new(&manifest);
    p.ancestors().nth(2).unwrap_or(p).to_path_buf()
}

/// Writes a CSV file with a header row, plus a provenance manifest
/// sidecar (`fig5.csv` → `fig5.manifest.json`) recording which tool
/// produced the artifact, its shape, and the git revision.
///
/// `tool` is the stable producer id recorded in the manifest as
/// `bench/<tool>` — the figure or experiment id (e.g. `"exp_policy_mc"`),
/// NOT the running binary's name: the same artifact must get the same
/// manifest whether it is produced by its dedicated binary or by an
/// aggregator like `all_figures`, and `argv[0]` is hashed and unstable
/// under the cargo test harness.
pub fn write_csv(
    path: &Path,
    tool: &str,
    header: &[&str],
    rows: impl IntoIterator<Item = Vec<f64>>,
) -> std::io::Result<()> {
    // Rendered in memory and published atomically
    // (resq_obs::write_atomic): a bench killed mid-run leaves the
    // previous complete CSV, never a silently truncated one.
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    let mut n_rows: u64 = 0;
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.10}")).collect();
        out.push_str(&line.join(","));
        out.push('\n');
        n_rows += 1;
    }
    resq_obs::write_atomic(path, out.as_bytes())?;
    resq_obs::RunManifest::new(format!("bench/{tool}"))
        .config("columns", header.join(","))
        .config("rows", n_rows)
        .write_for(path)?;
    Ok(())
}

/// Standard `main` body for single-figure binaries: print the report and
/// exit non-zero on anchor drift.
pub fn finish(result: FigureResult) {
    result.print();
    if !result.passes() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_pass_fail() {
        assert!(Anchor::new("x", 5.5, 5.52, 0.05).passes());
        assert!(!Anchor::new("x", 5.5, 5.6, 0.05).passes());
    }

    #[test]
    fn figure_result_aggregates() {
        let r = FigureResult {
            id: "figX".into(),
            title: "t".into(),
            anchors: vec![
                Anchor::new("a", 1.0, 1.0, 0.1),
                Anchor::new("b", 2.0, 2.05, 0.1),
            ],
            csv: None,
        };
        assert!(r.passes());
    }

    #[test]
    fn unit_tests_write_to_scratch_not_checked_in_results() {
        // Guards the checked-in `results/` artifacts: under `cargo test`
        // the default output dir must be a temp scratch location.
        assert!(default_results_dir().starts_with(std::env::temp_dir()));
    }

    #[test]
    fn csv_writer_round_trip() {
        let dir = std::env::temp_dir().join("resq-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv(
            &path,
            "round_trip",
            &["x", "y"],
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("x,y\n"));
        assert_eq!(text.lines().count(), 3);

        let sidecar = dir.join("t.manifest.json");
        let manifest = std::fs::read_to_string(&sidecar).unwrap();
        let parsed = resq_obs::json::parse(&manifest).unwrap();
        assert_eq!(
            parsed.get("tool").and_then(|t| t.as_str()),
            Some("bench/round_trip")
        );
        let config = parsed.get("config").unwrap();
        assert_eq!(config.get("rows").and_then(|r| r.as_str()), Some("2"));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }
}
