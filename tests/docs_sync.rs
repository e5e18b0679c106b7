//! Docs stay honest: every `resq` invocation in the README and the
//! operations guide must parse against the real CLI (subcommand and
//! flags present in `resq_cli::USAGE`, flag/value pairing accepted by
//! `resq_cli::args::Args`), and `docs/OBSERVABILITY.md` must name every
//! event type and metric the code can emit.

use resq_cli::args::Args;
use resq_cli::USAGE;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/cli → two levels up.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap();
    PathBuf::from(manifest)
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Extracts every `resq …` command from fenced code blocks, joining
/// backslash-continued lines. Both the bare form (`resq simulate …`)
/// and the cargo form (`cargo run … -p resq-cli -- simulate …`) count.
fn resq_invocations(text: &str) -> Vec<Vec<String>> {
    let mut out: Vec<String> = Vec::new();
    let mut in_fence = false;
    let mut current: Option<String> = None;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with("```") {
            in_fence = !in_fence;
            current = None;
            continue;
        }
        if !in_fence {
            continue;
        }
        let continued = line.ends_with('\\');
        let body = line.trim_end_matches('\\').trim();
        match current.as_mut() {
            Some(cmd) => {
                cmd.push(' ');
                cmd.push_str(body);
                if !continued {
                    out.push(current.take().unwrap());
                }
            }
            None => {
                let tail = if let Some(ix) = body.find("-p resq-cli -- ") {
                    Some(&body[ix + "-p resq-cli -- ".len()..])
                } else {
                    body.strip_prefix("resq ")
                };
                if let Some(t) = tail {
                    if continued {
                        current = Some(t.trim().to_string());
                    } else {
                        out.push(t.trim().to_string());
                    }
                }
            }
        }
    }
    out.iter()
        .map(|c| c.split_whitespace().map(String::from).collect())
        .collect()
}

fn check_doc_commands(rel: &str) {
    let text = read(rel);
    let invocations = resq_invocations(&text);
    assert!(
        !invocations.is_empty(),
        "{rel}: expected at least one `resq` invocation in a code fence"
    );
    for tokens in invocations {
        let display = tokens.join(" ");
        let parsed = Args::parse(tokens.iter().cloned())
            .unwrap_or_else(|e| panic!("{rel}: `resq {display}` does not parse: {e}"));
        let command = parsed
            .command
            .clone()
            .unwrap_or_else(|| panic!("{rel}: `resq {display}` has no subcommand"));
        assert!(
            USAGE.contains(&format!("\n  {command} ")) || USAGE.contains(&format!("  {command}  ")),
            "{rel}: subcommand `{command}` not in USAGE (from `resq {display}`)"
        );
        for key in parsed.keys() {
            assert!(
                USAGE.contains(&format!("--{key}")),
                "{rel}: flag `--{key}` not in USAGE (from `resq {display}`)"
            );
        }
    }
}

#[test]
fn readme_commands_match_the_cli() {
    check_doc_commands("README.md");
}

#[test]
fn operations_commands_match_the_cli() {
    check_doc_commands("docs/OPERATIONS.md");
}

#[test]
fn observability_doc_covers_every_event_type() {
    let doc = read("docs/OBSERVABILITY.md");
    for ty in resq::obs::event_type::ALL {
        assert!(
            doc.contains(&format!("`{ty}`")),
            "docs/OBSERVABILITY.md does not document event type `{ty}`"
        );
    }
}

#[test]
fn observability_doc_covers_every_metric() {
    let doc = read("docs/OBSERVABILITY.md");
    for c in resq::obs::metrics::ALL_COUNTERS {
        assert!(
            doc.contains(&format!("`{}`", c.name())),
            "docs/OBSERVABILITY.md does not document counter `{}`",
            c.name()
        );
    }
    for h in resq::obs::metrics::ALL_HISTOGRAMS {
        assert!(
            doc.contains(&format!("`{}`", h.name())),
            "docs/OBSERVABILITY.md does not document histogram `{}`",
            h.name()
        );
    }
    for g in resq::obs::metrics::ALL_GAUGES {
        assert!(
            doc.contains(&format!("`{}`", g.name())),
            "docs/OBSERVABILITY.md does not document gauge `{}`",
            g.name()
        );
    }
}

#[test]
fn usage_flags_are_documented_in_observability_doc() {
    // The shared observability switches must appear in both the USAGE
    // string and the doc that explains them.
    let doc = read("docs/OBSERVABILITY.md");
    for flag in [
        "--log-json",
        "--metrics",
        "--metrics-format",
        "--progress",
        "--serve",
    ] {
        assert!(USAGE.contains(flag), "USAGE lost {flag}");
        assert!(doc.contains(flag), "docs/OBSERVABILITY.md lost {flag}");
    }
}

#[test]
fn observability_doc_covers_every_http_endpoint() {
    // The live-telemetry endpoint list is pinned in code
    // (`resq::obs::http::ENDPOINTS`); the endpoint table in the guide
    // must name each one.
    let doc = read("docs/OBSERVABILITY.md");
    for endpoint in resq::obs::http::ENDPOINTS {
        assert!(
            doc.contains(&format!("`{endpoint}`")),
            "docs/OBSERVABILITY.md does not document endpoint `{endpoint}`"
        );
    }
    // And the operations guide must show how to scrape a live run.
    let ops = read("docs/OPERATIONS.md");
    for needle in ["obs serve", "/metrics", "scrape_configs"] {
        assert!(
            ops.contains(needle),
            "docs/OPERATIONS.md lost the live-scraping walkthrough (`{needle}`)"
        );
    }
}

#[test]
fn observability_doc_covers_every_span_name() {
    let doc = read("docs/OBSERVABILITY.md");
    for name in resq::obs::span_name::ALL {
        assert!(
            doc.contains(&format!("`{name}`")),
            "docs/OBSERVABILITY.md does not document span `{name}`"
        );
    }
}

#[test]
fn obs_subcommands_are_in_usage_and_docs() {
    let doc = read("docs/OBSERVABILITY.md");
    assert!(
        USAGE.contains("\n  obs "),
        "USAGE lost the `obs` subcommand"
    );
    for action in resq_cli::OBS_ACTIONS {
        assert!(
            USAGE.contains(&format!("obs {action} ")),
            "USAGE lost `obs {action}`"
        );
        assert!(
            doc.contains(&format!("obs {action}")),
            "docs/OBSERVABILITY.md does not document `resq obs {action}`"
        );
    }
}

#[test]
fn serve_subcommands_are_in_usage_and_docs() {
    // The decision daemon (`resq serve`) and its load harness
    // (`resq bench serve`) are operational surface: both guides must
    // cover them, and the endpoint/protocol vocabulary is pinned in
    // code (`DECIDE_ENDPOINTS`, `BENCH_ACTIONS`, `LOAD_PROTOS`).
    let ops = read("docs/OPERATIONS.md");
    let obs_doc = read("docs/OBSERVABILITY.md");
    assert!(
        USAGE.contains("\n  serve "),
        "USAGE lost the `serve` subcommand"
    );
    assert!(
        USAGE.contains("\n  bench "),
        "USAGE lost the `bench` subcommand"
    );
    for action in resq_cli::BENCH_ACTIONS {
        assert!(
            USAGE.contains(&format!("bench {action} ")),
            "USAGE lost `bench {action}`"
        );
        assert!(
            ops.contains(&format!("bench {action}")),
            "docs/OPERATIONS.md does not document `resq bench {action}`"
        );
    }
    for proto in resq_cli::LOAD_PROTOS {
        assert!(USAGE.contains(proto), "USAGE lost load proto `{proto}`");
        assert!(
            ops.contains(&format!("`{proto}`")),
            "docs/OPERATIONS.md does not document load proto `{proto}`"
        );
    }
    for endpoint in resq_cli::serve::DECIDE_ENDPOINTS {
        assert!(
            ops.contains(&format!("`{endpoint}`")),
            "docs/OPERATIONS.md does not document endpoint `{endpoint}`"
        );
        assert!(
            obs_doc.contains(&format!("`{endpoint}`")),
            "docs/OBSERVABILITY.md does not document endpoint `{endpoint}`"
        );
    }
    for needle in ["resq serve", "Retry-After", "SIGTERM"] {
        assert!(
            ops.contains(needle),
            "docs/OPERATIONS.md lost the decision-service walkthrough (`{needle}`)"
        );
    }
}

#[test]
fn lattices_doc_commands_match_the_cli() {
    check_doc_commands("docs/LATTICES.md");
}

#[test]
fn lattice_subcommands_are_in_usage_and_docs() {
    let doc = read("docs/LATTICES.md");
    assert!(
        USAGE.contains("\n  lattice "),
        "USAGE lost the `lattice` subcommand"
    );
    for action in resq_cli::LATTICE_ACTIONS {
        assert!(
            USAGE.contains(&format!("lattice {action} ")),
            "USAGE lost `lattice {action}`"
        );
        assert!(
            doc.contains(&format!("lattice {action}")),
            "docs/LATTICES.md does not document `resq lattice {action}`"
        );
    }
    for family in resq_cli::LATTICE_FAMILIES {
        assert!(
            doc.contains(&format!("`{family}`")),
            "docs/LATTICES.md does not document the `{family}` family"
        );
    }
}

#[test]
fn lattices_doc_pins_the_artifact_contract() {
    // The format tag, the lookup span and the three outcome counters are
    // load-bearing names: the doc is the spec, so it must use them
    // verbatim.
    let doc = read("docs/LATTICES.md");
    for name in [
        "resq-policy-lattice/v1",
        "solve/lattice_lookup",
        "lattice_lookup_hits_total",
        "lattice_lookup_misses_total",
        "lattice_fallbacks_total",
    ] {
        assert!(
            doc.contains(&format!("`{name}`")),
            "docs/LATTICES.md does not pin `{name}`"
        );
    }
}

#[test]
fn metrics_formats_are_in_usage_and_docs() {
    let doc = read("docs/OBSERVABILITY.md");
    for fmt in resq_cli::METRICS_FORMATS {
        assert!(USAGE.contains(fmt), "USAGE lost metrics format `{fmt}`");
        assert!(
            doc.contains(&format!("`{fmt}`")),
            "docs/OBSERVABILITY.md does not document metrics format `{fmt}`"
        );
    }
}
