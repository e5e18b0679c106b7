//! Provenance manifests: a JSON sidecar recording exactly how an
//! artifact (CSV, JSONL log) was produced.
//!
//! The sidecar for `results/fig5_normal.csv` is
//! `results/fig5_normal.manifest.json`; for `run.jsonl` it is
//! `run.manifest.json`. Wall-clock time lives here — never in the event
//! log, which must stay byte-identical for a fixed seed.

use crate::json::write_escaped;
use std::io;
use std::path::{Path, PathBuf};

/// Provenance record for one produced artifact.
///
/// ```
/// use resq_obs::RunManifest;
///
/// let manifest = RunManifest::new("resq simulate")
///     .config("task", "normal:3,0.5@0,")
///     .config("reservation", "29")
///     .seed(42)
///     .threads(8)
///     .trials(100_000)
///     .wall_time_secs(1.25);
/// let text = manifest.to_json();
/// assert!(text.contains("\"tool\": \"resq simulate\""));
/// assert!(text.contains("\"seed\": 42"));
/// ```
#[derive(Debug, Clone)]
pub struct RunManifest {
    tool: String,
    config: Vec<(String, String)>,
    seed: Option<u64>,
    threads: Option<u64>,
    trials: Option<u64>,
    wall_time_secs: Option<f64>,
    crate_version: &'static str,
    git_rev: Option<String>,
}

impl RunManifest {
    /// Starts a manifest for the named tool (e.g. `resq simulate` or a
    /// bench binary name). Captures the workspace crate version and the
    /// git revision (when a `.git` directory is discoverable).
    pub fn new(tool: impl Into<String>) -> Self {
        Self {
            tool: tool.into(),
            config: Vec::new(),
            seed: None,
            threads: None,
            trials: None,
            wall_time_secs: None,
            crate_version: env!("CARGO_PKG_VERSION"),
            git_rev: git_rev(),
        }
    }

    /// Appends one configuration key/value pair (kept in insertion
    /// order).
    pub fn config(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.config.push((key.into(), value.to_string()));
        self
    }

    /// Records the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Records the worker thread count actually used.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads as u64);
        self
    }

    /// Records the trial count.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = Some(trials);
        self
    }

    /// Records elapsed wall-clock seconds.
    pub fn wall_time_secs(mut self, secs: f64) -> Self {
        self.wall_time_secs = Some(secs);
        self
    }

    /// Serializes the manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        let mut field = |out: &mut String, key: &str, raw: &str| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            write_escaped(out, key);
            out.push_str(": ");
            out.push_str(raw);
        };

        let mut s = String::new();
        write_escaped(&mut s, &self.tool);
        field(&mut out, "tool", &s);

        s.clear();
        s.push_str("{\n");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            s.push_str("    ");
            write_escaped(&mut s, k);
            s.push_str(": ");
            write_escaped(&mut s, v);
        }
        s.push_str("\n  }");
        if self.config.is_empty() {
            s = "{}".to_string();
        }
        field(&mut out, "config", &s);

        if let Some(seed) = self.seed {
            field(&mut out, "seed", &seed.to_string());
        }
        if let Some(threads) = self.threads {
            field(&mut out, "threads", &threads.to_string());
        }
        if let Some(trials) = self.trials {
            field(&mut out, "trials", &trials.to_string());
        }
        if let Some(wall) = self.wall_time_secs {
            s.clear();
            crate::json::write_f64(&mut s, wall);
            field(&mut out, "wall_time_secs", &s);
        }

        s.clear();
        write_escaped(&mut s, self.crate_version);
        field(&mut out, "crate_version", &s);

        s.clear();
        match &self.git_rev {
            Some(rev) => write_escaped(&mut s, rev),
            None => s.push_str("null"),
        }
        field(&mut out, "git_rev", &s);

        out.push_str("\n}\n");
        out
    }

    /// The sidecar path for `artifact`: the extension is replaced by
    /// `manifest.json` (`fig5.csv` → `fig5.manifest.json`; an
    /// extension-less artifact gains the suffix).
    pub fn sidecar_path(artifact: &Path) -> PathBuf {
        artifact.with_extension("manifest.json")
    }

    /// Writes the manifest next to `artifact` and returns the sidecar
    /// path. Atomic ([`crate::fsio::write_atomic`]): a crash mid-write
    /// cannot leave a torn sidecar next to a complete artifact.
    pub fn write_for(&self, artifact: &Path) -> io::Result<PathBuf> {
        let path = Self::sidecar_path(artifact);
        crate::fsio::write_atomic(&path, self.to_json().as_bytes())?;
        Ok(path)
    }
}

/// Best-effort current git revision: walks up from the current
/// directory to find `.git`, reads `HEAD`, and resolves one level of
/// `ref:` indirection — no git binary, no network. Returns `None`
/// outside a repository. A short `-dirty`-style marker is *not*
/// appended (that would require reading the index).
pub fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            if let Some(reference) = head.strip_prefix("ref: ") {
                let resolved = std::fs::read_to_string(git.join(reference)).ok();
                let resolved = resolved.as_deref().map(str::trim).and_then(|s| {
                    if s.is_empty() {
                        None
                    } else {
                        Some(s.to_string())
                    }
                });
                // Unborn branch (fresh repo): fall back to packed-refs.
                return resolved.or_else(|| {
                    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                    packed.lines().find_map(|line| {
                        let (hash, name) = line.split_once(' ')?;
                        (name == reference).then(|| hash.to_string())
                    })
                });
            }
            return Some(head.to_string());
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn manifest_serializes_and_parses() {
        let m = RunManifest::new("resq-bench fig5_normal")
            .config("dist", "normal:3,0.5")
            .config("reservation", "29")
            .seed(42)
            .threads(4)
            .trials(100_000)
            .wall_time_secs(0.125);
        let text = m.to_json();
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("tool").unwrap().as_str(),
            Some("resq-bench fig5_normal")
        );
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("trials").unwrap().as_u64(), Some(100_000));
        assert_eq!(v.get("wall_time_secs").unwrap().as_f64(), Some(0.125));
        assert_eq!(
            v.get("config").unwrap().get("dist").unwrap().as_str(),
            Some("normal:3,0.5")
        );
        assert!(v.get("crate_version").unwrap().as_str().is_some());
    }

    #[test]
    fn optional_fields_are_omitted() {
        let text = RunManifest::new("t").to_json();
        let v = json::parse(&text).unwrap();
        assert!(v.get("seed").is_none());
        assert!(v.get("threads").is_none());
        assert!(v.get("wall_time_secs").is_none());
        // git_rev is always present (possibly null).
        assert!(v.get("git_rev").is_some());
    }

    #[test]
    fn sidecar_path_swaps_extension() {
        assert_eq!(
            RunManifest::sidecar_path(Path::new("results/fig5_normal.csv")),
            Path::new("results/fig5_normal.manifest.json")
        );
        assert_eq!(
            RunManifest::sidecar_path(Path::new("run.jsonl")),
            Path::new("run.manifest.json")
        );
    }

    #[test]
    fn git_rev_inside_this_repo_is_a_hash() {
        // The workspace is a git repo; the rev should look like one.
        if let Some(rev) = git_rev() {
            assert!(
                rev.len() >= 7 && rev.chars().all(|c| c.is_ascii_hexdigit()),
                "unexpected rev {rev:?}"
            );
        }
    }
}
