#![warn(missing_docs)]

//! Library surface of the `resq` CLI (argument parsing, law-spec
//! parsing and the usage text), exposed so the binary's building blocks
//! are unit-testable and reusable — and so the docs-sync test can check
//! README examples against the real flag set.

pub mod args;
pub mod serve;
pub mod spec;

/// Actions of the `resq obs` subcommand family, in the order they are
/// documented. `tests/docs_sync.rs` checks the observability guide
/// covers each one.
pub const OBS_ACTIONS: &[&str] = &["summarize", "diff", "serve", "export-trace"];

/// Actions of the `resq lattice` subcommand family, in the order they
/// are documented. `tests/docs_sync.rs` checks `docs/LATTICES.md`
/// covers each one.
pub const LATTICE_ACTIONS: &[&str] = &["build", "query", "verify"];

/// Task-law families `resq lattice build --family` accepts (the gridded
/// families of `resq_core::lattice::LawFamily`).
pub const LATTICE_FAMILIES: &[&str] = &["uniform", "exponential", "normal", "lognormal"];

/// Accepted values of `--metrics-format`, first entry is the default
/// (also what bare `--metrics` selects).
pub const METRICS_FORMATS: &[&str] = &["summary", "prometheus", "json"];

/// Actions of the `resq bench` subcommand family. `tests/docs_sync.rs`
/// checks the operations guide covers each one.
pub const BENCH_ACTIONS: &[&str] = &["serve", "chaos"];

/// Accepted values of `resq bench serve --proto`, first entry is the
/// default.
pub const LOAD_PROTOS: &[&str] = &["framed", "http"];

/// The `resq` usage text — the single source of truth for subcommands
/// and flags. `tests/docs_sync.rs` checks every `resq` invocation in the
/// README and operations guide against this string.
pub const USAGE: &str = "\
resq — when to checkpoint at the end of a fixed-length reservation?

USAGE:
  resq <command> [--flag value]...

COMMANDS:
  plan-preemptible  optimal lead time for a preemptible application (paper §3)
      --ckpt <law>            checkpoint-duration law (bounded support)
      --reservation <R>
      [--min-success <p>]     SLO floor on the checkpoint success probability
  plan-static       checkpoint after n_opt tasks, decided up front (paper §4.2)
      --task <law>            task-duration law (normal/gamma/poisson or any
                              non-negative continuous law, via convolution)
      --ckpt <law>            checkpoint law with support in [0, inf)
      --reservation <R>
  plan-dynamic      work threshold W_int for the online rule (paper §4.3)
      --task <law>  --ckpt <law>  --reservation <R>
  simulate          Monte-Carlo a threshold policy in the workflow scenario
      --task <law>  --ckpt <law>  --reservation <R>  --threshold <W>
      [--trials <n>=100000] [--seed <s>=42] [--threads <t>=auto]
      [--sample-every <k>=10000]   trial-sample row every k-th trial index
      [--ckpt-fail-prob <q>=0]     each checkpoint write attempt fails with
                                   probability q (fault injection)
      [--retry <spec>=immediate:3] what to do after a failed write:
                                   none | immediate:K | backoff:K,D | workon
      [--failstop-rate <lambda>=0] Poisson fail-stop errors that kill the
                                   reservation (single-shot, no recovery)
  learn             learn the checkpoint law from a JSONL trace (paper: \"learned
                    from traces of previous checkpoints\") and plan
      --trace <file.jsonl>  --reservation <R>
  serve             long-running checkpoint-decision daemon: POST /decide and
                    POST /decide/batch on one HTTP port next to every telemetry
                    endpoint; lattice-first pipeline with exact-solver fallback;
                    SIGHUP hot-reloads the lattice artifacts (corrupt ones are
                    quarantined to exact-only, never fatal); drains in-flight
                    requests and exits 0 on SIGTERM/SIGINT
      [--addr <host:port>=127.0.0.1:9779] HTTP listener (decisions + telemetry)
      [--tcp-addr <host:port>]            also serve the length-prefixed TCP
                                          fast path (u32-LE length + JSON)
      [--lattice-dir <dir>]               per-family lattice artifacts
                                          (default $RESQ_RESULTS_DIR, results/);
                                          missing families answer exact-only
      [--max-inflight <n>=64]             admission cap: concurrent decisions
                                          past it are shed 429 + Retry-After
      [--shards <n>=8]                    independent exact-solve cache shards
      [--workers <n>=4]                   connection workers per listener
      [--deadline-ms <ms>=1000]           per-request decision deadline; answers
                                          past it become typed timeout errors
                                          (504; 0 disables)
      [--chaos-spec <spec>]               seeded deterministic fault injection
                                          (or $RESQ_CHAOS_SPEC), e.g.
                                          seed=7,panic=0.05,torn=0.1,flip=0.1,
                                          stall=0.03,slow=0.05
  bench             built-in load harnesses
      bench serve   closed-loop load against the decision daemon; without
                    --addr an in-process daemon (small exponential lattice,
                    ephemeral port) is stood up, hammered and torn down
          [--connections <n>=8]           concurrent closed-loop connections
          [--requests <n>=200]            requests per connection
          [--batch-size <n>=1]            decisions per request (>1 uses the
                                          batch endpoint)
          [--proto <framed|http>=framed]  wire protocol to drive
          [--addr <host:port>]            target an already-running daemon
          [--min-throughput <dps>]        nonzero exit below this decisions/sec
          [--retries <n>=0]               retry attempts per failed request
                                          (reconnect + exponential backoff with
                                          jitter, honoring Retry-After)
          [--backoff-ms <ms>=5]           base retry backoff
          [--deadline-s <s>]              total per-connection retry budget
      bench chaos   closed-loop chaos tier: a seeded fault schedule (worker
                    panics, torn/byte-flipped responses, accept stalls, slow
                    writers) against the daemon, gated on full recovery —
                    every request answered byte-identical to a clean solve,
                    no leaked admission slots, no escaped panics
          [--seed <s>=42]                 fault-schedule seed
          [--connections <n>=8]           concurrent closed-loop connections
          [--requests <n>=50]             requests per connection
          [--batch-size <n>=1]            decisions per request
          [--proto <framed|http>=framed]  wire protocol to drive
          [--chaos-spec <spec>]           override the default fault rates
          [--addr <host:port>]            drive an already-running daemon
                                          (start it with the same --chaos-spec)
  obs               inspect artifacts produced by the observability layer
      obs summarize <events.jsonl>            fold an event log into per-type
                                              counts and the run's headline facts
      obs diff <a.manifest.json> <b.manifest.json>
                                              report config/provenance drift
                                              between two manifests
      obs serve [<events.jsonl>]              live telemetry over HTTP: /metrics
          [--addr <host:port>=127.0.0.1:9779] (Prometheus text), /metrics.json,
                                              /healthz, /spans, /runs; with an
                                              events file, tails it into /runs.
                                              Stops cleanly on SIGTERM/SIGINT
      obs export-trace <events.jsonl>         convert an event log to Chrome
          [--out <trace.json>]                trace_event JSON (chrome://tracing,
                                              Perfetto); stdout without --out
  lattice           precomputed policy lattices: O(µs) checkpoint decisions by
                    interpolation, exact-solver fallback (docs/LATTICES.md).
                    <artifact.json> defaults to
                    $RESQ_RESULTS_DIR/lattice_<family>.json (or results/...)
      lattice build [<artifact.json>]         precompute + serialize offline
          --family <uniform|exponential|normal|lognormal>
          [--points <odd n>]                  nodes per axis (default per family)
          [--ckpt-sigma-ratio <rho>=0.08]     sigma/mean of gridded ckpt laws
          [--tolerance <tol>=0.02]            a-posteriori error tolerance
      lattice query [<artifact.json>]         answer one policy question
          --task <law>  --ckpt-mean <c>  --reservation <R>
          [--ckpt-sigma <s>=rho*c]            must match rho to hit the grid
      lattice verify [<artifact.json>]        lookup-vs-exact sweep; nonzero
          [--samples <n>=100] [--seed <s>=42] exit if a served lookup exceeds
          [--tolerance <tol>=artifact's]      the tolerance
          [--family <name>]                   for the default artifact path

OBSERVABILITY (every command):
  --log-json <path>   write structured JSONL run events to <path> and a
                      provenance manifest sidecar next to it
  --metrics           print metric counters, histograms and span timings to
                      stderr after the run (same as --metrics-format summary)
  --metrics-format <summary|prometheus|json>
                      choose the exposition: human summary, Prometheus text
                      format, or a single JSON object
  --progress          print live progress to stderr (simulate only)
  --serve <host:port> serve the live telemetry endpoints (see `obs serve`) for
                      the duration of the command, e.g. --serve 127.0.0.1:9779

LAW SYNTAX:
  uniform:a,b | exponential:lambda | normal:mu,sigma | lognormal:mu,sigma |
  gamma:k,theta | poisson:lambda
  Optional truncation suffix @lo,hi (empty side = infinite), e.g.
  normal:5,0.4@0,   exponential:0.5@1,5
";
