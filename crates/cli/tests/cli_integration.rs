//! Black-box tests of the `resq` binary: spawn the real executable and
//! assert on its stdout/stderr/exit codes — the contract shell scripts
//! depend on.

use std::process::Command;

fn resq(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_resq"))
        .args(args)
        .output()
        .expect("failed to spawn resq binary")
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = resq(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("plan-preemptible"));
    assert!(text.contains("LAW SYNTAX"));
}

#[test]
fn plan_preemptible_reports_the_fig1a_optimum() {
    let out = resq(&[
        "plan-preemptible",
        "--ckpt",
        "uniform:1,7.5",
        "--reservation",
        "10",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("5.5000"), "missing X_opt in:\n{text}");
    assert!(text.contains("oracle upper bound"));
}

#[test]
fn plan_dynamic_reports_fig8_threshold() {
    let out = resq(&[
        "plan-dynamic",
        "--task",
        "normal:3,0.5@0,",
        "--ckpt",
        "normal:5,0.4@0,",
        "--reservation",
        "29",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // W_int ≈ 20.26
    assert!(text.contains("W_int"), "{text}");
    assert!(text.contains("20.2"), "threshold off in:\n{text}");
}

#[test]
fn plan_dynamic_logs_the_library_threshold_bits() {
    // Fig. 8 through the CLI's type-erased laws must run the library's
    // own §4.3 kernels: the same `W_int` bits as the concrete
    // `Truncated<Normal>` laws, with the scan certificates carrying most
    // scan points (an all-exact scan spends ~476 000 evaluations).
    use resq::dist::{Normal, Truncated};
    let dir = std::env::temp_dir().join("resq-cli-int-plan-dynamic");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("run.jsonl");
    let out = resq(&[
        "plan-dynamic",
        "--task",
        "normal:3,0.5@0,",
        "--ckpt",
        "normal:5,0.4@0,",
        "--reservation",
        "29",
        "--metrics",
        "--log-json",
        log.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&log).unwrap();
    let finished = resq::obs::json::parse(text.lines().last().unwrap()).unwrap();
    let logged = finished.get("threshold").and_then(|t| t.as_f64()).unwrap();

    let half_normal =
        |mu, sigma| Truncated::new(Normal::new(mu, sigma).unwrap(), 0.0, f64::INFINITY);
    let d = resq::DynamicStrategy::new(
        half_normal(3.0, 0.5).unwrap(),
        half_normal(5.0, 0.4).unwrap(),
        29.0,
    )
    .unwrap();
    let want = d.threshold().unwrap().expect("Fig. 8 has a threshold");
    assert_eq!(logged.to_bits(), want.to_bits(), "{logged} vs {want}");

    let err = String::from_utf8_lossy(&out.stderr);
    let evals: u64 = err
        .lines()
        .find_map(|l| l.trim().strip_prefix("quadrature_evals"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no quadrature_evals in:\n{err}"));
    assert!(evals <= 476_304 / 5, "{evals} quadrature evaluations");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_static_reports_fig7_n_opt() {
    let out = resq(&[
        "plan-static",
        "--task",
        "poisson:3",
        "--ckpt",
        "normal:5,0.4@0,",
        "--reservation",
        "29",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("after 6 tasks"), "n_opt wrong in:\n{text}");
}

#[test]
fn simulate_emits_confidence_interval() {
    let out = resq(&[
        "simulate",
        "--task",
        "normal:3,0.5@0,",
        "--ckpt",
        "normal:5,0.4@0,",
        "--reservation",
        "29",
        "--threshold",
        "20.26",
        "--trials",
        "5000",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("95% CI"));
    assert!(text.contains("success rate"));
}

#[test]
fn simulate_observability_end_to_end() {
    // The ISSUE.md acceptance command, scaled down for debug-mode CI:
    // `--log-json` must yield a parseable JSONL stream that starts with
    // run-started, ends with run-finished, and has a manifest sidecar;
    // `--metrics` must print counter summaries on stderr.
    let dir = std::env::temp_dir().join("resq-cli-int-obs");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("run.jsonl");
    let out = resq(&[
        "simulate",
        "--task",
        "normal:3,0.5@0,",
        "--ckpt",
        "normal:5,0.4@0,",
        "--reservation",
        "29",
        "--threshold",
        "20.3",
        "--trials",
        "20000",
        "--sample-every",
        "4000",
        "--metrics",
        "--log-json",
        log.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 5, "log too short:\n{text}");
    for line in &lines {
        let row = resq::obs::json::parse(line).expect("log line is valid JSON");
        let ty = row.get("type").and_then(|t| t.as_str()).expect("row has a type");
        assert!(
            resq::obs::event_type::ALL.contains(&ty),
            "unknown event type {ty}"
        );
    }
    assert!(lines.first().unwrap().contains("\"run-started\""));
    assert!(lines.last().unwrap().contains("\"run-finished\""));

    let manifest_path = dir.join("run.manifest.json");
    let manifest = resq::obs::json::parse(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    assert_eq!(manifest.get("tool").unwrap().as_str(), Some("resq simulate"));
    assert_eq!(manifest.get("seed").unwrap().as_u64(), Some(42));
    assert_eq!(manifest.get("trials").unwrap().as_u64(), Some(20000));

    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mc_trials_run"), "metrics missing from stderr:\n{err}");
    assert!(err.contains("rng_stream_derivations"), "{err}");

    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&manifest_path).ok();
}

#[test]
fn simulate_fault_injection_logs_retry_outcomes_and_counters() {
    // The fault-injected path: retry-outcome rows ride along with the
    // sampled checkpoint-decision rows, the run-finished row and the
    // manifest both echo the attempt/failure counters, and the stdout
    // summary names the fault model.
    let dir = std::env::temp_dir().join("resq-cli-int-fault");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("faulty.jsonl");
    let out = resq(&[
        "simulate",
        "--task",
        "normal:3,0.5@0,",
        "--ckpt",
        "normal:5,0.4@0,",
        "--reservation",
        "29",
        "--threshold",
        "20.3",
        "--trials",
        "4000",
        "--sample-every",
        "500",
        "--ckpt-fail-prob",
        "0.3",
        "--retry",
        "backoff:3,0.25",
        "--log-json",
        log.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&log).unwrap();
    let mut retry_rows = 0usize;
    let mut decision_rows = 0usize;
    for line in text.lines() {
        let row = resq::obs::json::parse(line).expect("log line is valid JSON");
        match row.get("type").and_then(|t| t.as_str()).unwrap() {
            "retry-outcome" => {
                retry_rows += 1;
                assert!(row.get("attempts").unwrap().as_u64().unwrap() >= 1);
                assert!(row.get("failures").is_some() && row.get("succeeded").is_some());
            }
            "checkpoint-decision" => decision_rows += 1,
            "run-finished" => {
                assert!(row.get("ckpt_attempts").unwrap().as_u64().unwrap() >= 4000);
                assert!(row.get("ckpt_failures").unwrap().as_u64().unwrap() > 0);
            }
            _ => {}
        }
    }
    assert_eq!(retry_rows, decision_rows, "one retry row per sampled trial");
    assert!(retry_rows > 0, "no retry-outcome rows in:\n{text}");

    let manifest_path = dir.join("faulty.manifest.json");
    let manifest =
        resq::obs::json::parse(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    let config = manifest.get("config").unwrap();
    assert_eq!(config.get("ckpt_fail_prob").unwrap().as_str(), Some("0.3"));
    assert_eq!(config.get("retry").unwrap().as_str(), Some("backoff:3,0.25"));
    assert!(config.get("ckpt_attempts_total").is_some());
    assert!(config.get("ckpt_failures_total").is_some());

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fault model"), "{stdout}");
    assert!(stdout.contains("ckpt attempts"), "{stdout}");

    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&manifest_path).ok();
}

#[test]
fn simulate_rejects_out_of_range_fault_flags() {
    let base = [
        "simulate",
        "--task",
        "normal:3,0.5@0,",
        "--ckpt",
        "normal:5,0.4@0,",
        "--reservation",
        "29",
        "--threshold",
        "20.3",
        "--trials",
        "10",
    ];
    let mut args = base.to_vec();
    args.extend(["--ckpt-fail-prob", "1.5"]);
    let out = resq(&args);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ckpt-fail-prob"), "{err}");

    let mut args = base.to_vec();
    args.extend(["--retry", "sometimes"]);
    let out = resq(&args);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("retry"), "{err}");
}

/// Runs `resq simulate` with `flags` and asserts that it exits 2 within
/// ten seconds with `reason` on stderr, before running any trial.
fn assert_simulate_rejects(flags: &[&str], reason: &str) {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_resq"))
        .arg("simulate")
        .args(flags)
        .args(["--trials", "100"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn resq binary");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("wait on resq").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("resq simulate {flags:?} did not exit within 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect resq output");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains(reason), "{err}");
    assert!(out.stdout.is_empty(), "no trial may run");
}

const FIG8_LAWS: [&str; 4] = ["--task", "normal:3,0.5@0,", "--ckpt", "normal:5,0.4@0,"];

#[test]
fn simulate_rejects_an_infinite_reservation() {
    let flags = [&FIG8_LAWS[..], &["--reservation", "inf", "--threshold", "inf"]].concat();
    assert_simulate_rejects(&flags, "reservation length must be positive and finite");
}

#[test]
fn simulate_rejects_an_infinite_reservation_under_fault_injection() {
    let flags = [
        &FIG8_LAWS[..],
        &["--reservation", "inf", "--threshold", "inf", "--ckpt-fail-prob", "0.2"],
    ]
    .concat();
    assert_simulate_rejects(&flags, "reservation length must be positive and finite");
}

#[test]
fn simulate_rejects_a_nan_reservation() {
    let flags = [&FIG8_LAWS[..], &["--reservation", "nan", "--threshold", "nan"]].concat();
    assert_simulate_rejects(&flags, "reservation length must be positive and finite");
}

#[test]
fn simulate_rejects_a_task_law_whose_draws_all_clamp_to_zero() {
    let flags = [
        "--task",
        "normal:-100,1",
        "--ckpt",
        "normal:5,0.4@0,",
        "--reservation",
        "29",
        "--threshold",
        "20",
    ];
    assert_simulate_rejects(&flags, "task mean must be positive");
}

#[test]
fn simulate_rejects_zero_trials() {
    let out = resq(&[
        "simulate",
        "--task",
        "normal:3,0.5@0,",
        "--ckpt",
        "normal:5,0.4@0,",
        "--reservation",
        "29",
        "--threshold",
        "20.3",
        "--trials",
        "0",
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("flag `--trials` must be at least 1"), "{err}");
    assert!(out.stdout.is_empty(), "no summary may be printed");
}

#[test]
fn simulate_rejects_a_nan_threshold() {
    let flags = [
        &FIG8_LAWS[..],
        &["--reservation", "29", "--threshold", "nan"],
    ]
    .concat();
    assert_simulate_rejects(&flags, "flag `--threshold` must be a number, got NaN");
}

#[test]
fn simulate_runs_each_trial_once() {
    // Success and fail-stop rates are tallied in the main pass, so the
    // Monte-Carlo counters must show exactly one run of `--trials`
    // trials — with and without fault injection.
    let plain = [
        "simulate",
        "--task",
        "gamma:9,0.333333",
        "--ckpt",
        "uniform:1,2",
        "--reservation",
        "29",
        "--threshold",
        "20.3",
        "--trials",
        "5000",
        "--metrics-format",
        "json",
    ];
    let faulty = [
        &plain[..],
        &["--ckpt-fail-prob", "0.3", "--failstop-rate", "0.002"],
    ]
    .concat();
    for args in [&plain[..], &faulty[..]] {
        let out = resq(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{err}");
        let metrics = resq::obs::json::parse(err.trim()).expect("metrics JSON on stderr");
        let counters = metrics.get("counters").unwrap();
        assert_eq!(
            counters.get("mc_trials_run").unwrap().as_u64(),
            Some(5000),
            "{err}"
        );
        assert_eq!(counters.get("mc_runs").unwrap().as_u64(), Some(1), "{err}");
    }
}

#[test]
fn bad_flags_fail_with_usage_on_stderr() {
    let out = resq(&["plan-preemptible", "--reservation", "10"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--ckpt"), "error should name the flag: {err}");
    assert!(err.contains("USAGE"));

    let out = resq(&["plan-preemptible", "--ckpt", "nonsense:1", "--reservation", "10"]);
    assert!(!out.status.success());

    let out = resq(&["no-such-command"]);
    assert!(!out.status.success());
}

#[test]
fn learn_round_trip_through_a_real_file() {
    use resq::dist::{Normal, Truncated};
    use resq::traces::SyntheticTrace;
    let dir = std::env::temp_dir().join("resq-cli-int-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let truth = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
    SyntheticTrace::clean(truth)
        .generate(3000, 11)
        .save(&path)
        .unwrap();

    let out = resq(&[
        "learn",
        "--trace",
        path.to_str().unwrap(),
        "--reservation",
        "30",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fitted family"));
    assert!(text.contains("Normal"), "family wrong:\n{text}");
    assert!(text.contains("optimal lead time"));
    std::fs::remove_file(&path).ok();
}
