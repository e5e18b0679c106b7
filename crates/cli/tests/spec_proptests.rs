//! Property tests for the CLI's parsing layer: `parse_law`,
//! `parse_retry` and `Args::parse` must return `Err` — never panic — on
//! arbitrary input. The CLI is the one surface that sees raw user
//! strings, so "total over garbage" is a hard contract here.

use proptest::prelude::*;
use resq_cli::args::Args;
use resq_cli::spec::{parse_law, parse_retry};

/// Character pool biased toward the spec grammar's own separators so
/// generated strings exercise the parsers' interesting branches
/// (half-formed numbers, dangling `:`/`,`/`@`, unicode noise).
const POOL: &[char] = &[
    'a', 'b', 'e', 'f', 'i', 'k', 'l', 'm', 'n', 'o', 'p', 'r', 's', 't', 'u', 'w', 'x', '0', '1',
    '2', '5', '9', ':', ',', '@', '.', '-', '+', 'E', ' ', '_', 'µ', '∞',
];

fn pool_string(picks: &[usize]) -> String {
    picks.iter().map(|&i| POOL[i % POOL.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse_law` is total: any string yields Ok or Err, no panic.
    #[test]
    fn parse_law_never_panics(picks in prop::collection::vec(0usize..64, 0..40)) {
        let raw = pool_string(&picks);
        let _ = parse_law(&raw);
    }

    /// `parse_retry` is total over the same garbage.
    #[test]
    fn parse_retry_never_panics(picks in prop::collection::vec(0usize..64, 0..40)) {
        let raw = pool_string(&picks);
        let _ = parse_retry(&raw);
    }

    /// Near-miss structured retry specs: a valid keyword with arbitrary
    /// numeric payloads either parses or errors cleanly, and whatever
    /// parses validates (no NaN/zero-attempt policies slip through).
    #[test]
    fn parse_retry_numeric_payloads_are_validated(
        k in -3i64..40,
        d in -2.0f64..10.0,
        which in 0u32..3,
    ) {
        let raw = match which {
            0 => format!("immediate:{k}"),
            1 => format!("backoff:{k},{d}"),
            _ => format!("backoff:{k},{d:e}"),
        };
        if let Ok(policy) = parse_retry(&raw) {
            prop_assert!(policy.validate().is_ok(), "accepted but invalid: {raw}");
        }
    }

    /// Near-miss law specs: family keyword plus arbitrary parameters and
    /// truncation suffix never panic.
    #[test]
    fn parse_law_numeric_payloads_never_panic(
        a in -5.0f64..20.0,
        b in -5.0f64..20.0,
        fam in 0u32..7,
        truncated in any::<bool>(),
    ) {
        let base = match fam {
            0 => format!("uniform:{a},{b}"),
            1 => format!("exponential:{a}"),
            2 => format!("normal:{a},{b}"),
            3 => format!("lognormal:{a},{b}"),
            4 => format!("gamma:{a},{b}"),
            5 => format!("poisson:{a}"),
            _ => format!("uniform:{a}"),
        };
        let raw = if truncated { format!("{base}@{b},") } else { base };
        let _ = parse_law(&raw);
    }

    /// `Args::parse` is total over arbitrary token streams built from
    /// flag-like and value-like fragments.
    #[test]
    fn args_parse_never_panics(picks in prop::collection::vec(0usize..64, 0..12)) {
        const TOKENS: &[&str] = &[
            "--ckpt", "--reservation", "--retry", "--progress", "--", "-", "---x",
            "uniform:1,7.5", "10", "simulate", "", "--ckpt-fail-prob", "0.3",
            "--threads", "--metrics-format", "prometheus",
        ];
        let tokens: Vec<String> = picks
            .iter()
            .map(|&i| TOKENS[i % TOKENS.len()].to_string())
            .collect();
        let _ = Args::parse(tokens);
    }
}
