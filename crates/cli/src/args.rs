//! Minimal `--key value` argument parser (no external dependencies, per
//! the workspace's offline-crates policy).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand, leading positional operands, and
/// `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// First positional token (the subcommand).
    pub command: Option<String>,
    /// Positional operands after the subcommand and before the first
    /// flag (`resq obs summarize run.jsonl` → `["summarize",
    /// "run.jsonl"]`). Positionals *after* a flag remain an error.
    pub positionals: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// Parse error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Boolean flags (present/absent, no value token): the observability
    /// switches shared by every subcommand.
    pub const BOOL_FLAGS: &'static [&'static str] = &["metrics", "progress"];

    /// Parses `tokens` (without the program name): one optional
    /// subcommand, then any positional operands, then `--key value`
    /// pairs (`--key=value` also accepted). Flags listed in
    /// [`Args::BOOL_FLAGS`] take no value. A positional after the first
    /// flag is an error (it is most likely a forgotten `--`-prefix), and
    /// so is a `--`-prefixed token where a value belongs (a value flag
    /// must not swallow the next flag).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        if let Some(first) = it.peek() {
            if !first.starts_with("--") {
                out.command = it.next();
                while let Some(tok) = it.peek() {
                    if tok.starts_with("--") {
                        break;
                    }
                    out.positionals.push(it.next().expect("peeked"));
                }
            }
        }
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument `{tok}`")));
            };
            if let Some((k, v)) = key.split_once('=') {
                out.flags.insert(k.to_string(), v.to_string());
            } else if Self::BOOL_FLAGS.contains(&key) {
                out.flags.insert(key.to_string(), String::new());
            } else {
                let v = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| ArgError(format!("flag `--{key}` is missing a value")))?;
                out.flags.insert(key.to_string(), v);
            }
        }
        Ok(out)
    }

    /// Raw string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required flag `--{key}`")))
    }

    /// Required float flag.
    pub fn require_f64(&self, key: &str) -> Result<f64, ArgError> {
        let raw = self.require(key)?;
        raw.parse::<f64>()
            .map_err(|_| ArgError(format!("flag `--{key}` expects a number, got `{raw}`")))
    }

    /// Optional float flag with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<f64>()
                .map_err(|_| ArgError(format!("flag `--{key}` expects a number, got `{raw}`"))),
        }
    }

    /// Optional integer flag with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<u64>()
                .map_err(|_| ArgError(format!("flag `--{key}` expects an integer, got `{raw}`"))),
        }
    }

    /// True when a boolean flag (see [`Args::BOOL_FLAGS`]) was given.
    pub fn bool_flag(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// All flag keys, for unknown-flag diagnostics.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = parse(&["plan", "--reservation", "10", "--law=uniform:1,7.5"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("plan"));
        assert_eq!(a.require_f64("reservation").unwrap(), 10.0);
        assert_eq!(a.get("law"), Some("uniform:1,7.5"));
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&["plan", "--reservation"]).is_err());
    }

    #[test]
    fn value_flag_does_not_swallow_the_next_flag() {
        let err = parse(&["simulate", "--log-json", "--metrics"]).unwrap_err();
        assert_eq!(err.0, "flag `--log-json` is missing a value");
        // `--batch` takes no value but is not a boolean flag: a stale
        // `--batch --metrics` must fail, not swallow `--metrics`.
        let err = parse(&["simulate", "--batch", "--metrics"]).unwrap_err();
        assert_eq!(err.0, "flag `--batch` is missing a value");
        // A single dash still starts a value: negative numbers parse.
        let a = parse(&["go", "--x", "-1.5"]).unwrap();
        assert_eq!(a.f64_or("x", 0.0).unwrap(), -1.5);
    }

    #[test]
    fn positional_after_flags_is_error() {
        assert!(parse(&["plan", "--x", "1", "oops"]).is_err());
    }

    #[test]
    fn positionals_before_flags_are_collected() {
        let a = parse(&["obs", "summarize", "run.jsonl", "--metrics"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("obs"));
        assert_eq!(a.positionals, vec!["summarize", "run.jsonl"]);
        assert!(a.bool_flag("metrics"));
        let b = parse(&["plan", "--x", "1"]).unwrap();
        assert!(b.positionals.is_empty());
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse(&["go", "--x", "2.5"]).unwrap();
        assert_eq!(a.f64_or("x", 0.0).unwrap(), 2.5);
        assert_eq!(a.f64_or("y", 7.0).unwrap(), 7.0);
        assert_eq!(a.u64_or("n", 5).unwrap(), 5);
        assert!(a.require("z").is_err());
        assert!(a.require_f64("x").is_ok());
    }

    #[test]
    fn bad_number_is_error() {
        let a = parse(&["go", "--x", "abc"]).unwrap();
        assert!(a.require_f64("x").is_err());
        assert!(a.f64_or("x", 1.0).is_err());
    }

    #[test]
    fn no_subcommand() {
        let a = parse(&["--x", "1"]).unwrap();
        assert!(a.command.is_none());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = parse(&["simulate", "--metrics", "--trials", "100", "--progress"]).unwrap();
        assert!(a.bool_flag("metrics"));
        assert!(a.bool_flag("progress"));
        assert!(!a.bool_flag("log-json"));
        assert_eq!(a.u64_or("trials", 0).unwrap(), 100);
        // A boolean flag does not swallow the next token.
        let b = parse(&["simulate", "--metrics", "--seed", "7"]).unwrap();
        assert!(b.bool_flag("metrics"));
        assert_eq!(b.u64_or("seed", 0).unwrap(), 7);
    }
}
