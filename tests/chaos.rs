//! Chaos tier for the decision service (ISSUE 9): a seeded,
//! deterministic fault schedule — injected worker panics, torn and
//! byte-flipped responses, accept-loop stalls, slow writers — driven
//! against live servers on both wire protocols, gated on *full
//! recovery*: every request answered byte-identical to a clean solve,
//! no panic escaping the supervised worker pool, no leaked admission
//! slots, no hang past the retry deadline.
//!
//! Also covered: the chaos-off path staying fault-free (the production
//! zero-cost guarantee), typed `504` timeouts over the wire, SIGHUP
//! hot-reload under concurrent decide load, and tampered-artifact
//! quarantine falling back to byte-identical exact answers.
//!
//! Compiled against `resq-cli` (see `[[test]]` in
//! `crates/cli/Cargo.toml`) so it drives the exact handlers the daemon
//! mounts.

use resq::core::lattice::build;
use resq::obs::chaos::ChaosPolicy;
use resq::obs::http::{self, ServerConfig};
use resq::obs::json;
use resq::obs::metrics::{LATTICE_QUARANTINED_TOTAL, WORKERS_RESTARTED_TOTAL};
use resq::{AnswerSource, LatticeSpec, LawFamily, PolicyQuery, SolveCache, TaskParams};
use resq_cli::serve::{
    frame_handler, http_handler, render_request, run_load, DecisionService, LoadOptions, LoadProto,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small but real exponential lattice — same helper as `tests/serve.rs`.
fn small_lattice() -> resq::PolicyLattice {
    build(&LatticeSpec::defaults(LawFamily::Exponential).with_points(5)).expect("lattice build")
}

/// A query the lattice actually serves (`source == Lattice`).
fn served_query(lattice: &resq::PolicyLattice) -> PolicyQuery {
    let axes = lattice.axes();
    let mut cache = SolveCache::new();
    (0..16)
        .map(|k| {
            let f = (k as f64 + 0.5) / 16.0;
            let coords: Vec<f64> = axes.iter().map(|a| a.lo + f * (a.hi - a.lo)).collect();
            lattice.query_for_coords(&coords, 29.0)
        })
        .find(|q| {
            lattice
                .query(q, &mut cache)
                .map(|a| a.source == AnswerSource::Lattice)
                .unwrap_or(false)
        })
        .expect("a served lattice query exists")
}

/// A family no lattice covers: always the exact path, stable bytes
/// across reloads and quarantines.
fn exact_query_body() -> String {
    render_request(
        &PolicyQuery {
            task: TaskParams::Normal {
                mean: 3.0,
                sigma: 0.5,
            },
            ckpt_mean: 5.0,
            ckpt_sigma: 0.4,
            r: 29.0,
        },
        Some(25.0),
    )
}

/// A scratch directory unique to the calling test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "resq-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The headline invariant: across four seeds and both protocols, a
/// heavily faulted daemon answers *every* request byte-identical to a
/// clean solve — the retrying client absorbs torn connections, flipped
/// bytes, injected panics, stalls and slow writes — and leaks nothing.
#[test]
fn seeded_chaos_recovers_byte_identical_on_both_protocols() {
    let lattice = small_lattice();
    let q = served_query(&lattice);
    let body = render_request(&q, Some(10.0));
    // The expected bytes come from a clean, chaos-free service over the
    // same artifact: the service layer is deterministic by contract.
    let clean = DecisionService::new(vec![small_lattice()], 2, 64);
    let expect = clean.answer_single(&body).expect("clean answer");

    let restarts_before = WORKERS_RESTARTED_TOTAL.get();
    for seed in [1u64, 2, 3, 4] {
        for proto in [LoadProto::Framed, LoadProto::Http] {
            let policy = ChaosPolicy::parse(&format!(
                "seed={seed},panic=0.2,torn=0.2,flip=0.2,stall=0.05,slow=0.1"
            ))
            .expect("chaos spec");
            let service = Arc::new(DecisionService::new(vec![small_lattice()], 2, 64));
            let mut cfg = ServerConfig::new("127.0.0.1:0");
            cfg.workers = 4;
            cfg.queue_depth = 64;
            cfg.chaos = Some(Arc::new(policy));
            let server = match proto {
                LoadProto::Http => {
                    http::serve_with(cfg, http_handler(Arc::clone(&service))).expect("bind")
                }
                LoadProto::Framed => {
                    http::serve_framed(cfg, frame_handler(Arc::clone(&service))).expect("bind")
                }
            };

            let mut opts = LoadOptions::new(server.local_addr().to_string(), proto, body.clone());
            opts.connections = 4;
            opts.requests = 10;
            opts.max_attempts = 40;
            opts.backoff_ms = 1;
            opts.deadline = Some(Duration::from_secs(120));
            opts.expect_body = Some(expect.clone());
            opts.slow_every = 7;
            opts.seed = seed;
            let report = run_load(&opts).expect("chaos load run");

            assert_eq!(
                report.errors, 0,
                "seed {seed} {proto:?}: requests unanswered after retries"
            );
            assert_eq!(
                report.requests, 40,
                "seed {seed} {proto:?}: not every request recovered"
            );
            assert!(
                report.elapsed < Duration::from_secs(120),
                "seed {seed} {proto:?}: run overran its deadline budget"
            );
            server.stop();
            assert_eq!(
                service.inflight(),
                0,
                "seed {seed} {proto:?}: leaked admission slots"
            );
        }
    }
    // With a 20% per-connection panic rate over 8 runs the supervised
    // pool must have recovered at least one injected panic (cumulative:
    // parallel tests may add their own).
    assert!(
        WORKERS_RESTARTED_TOTAL.get() > restarts_before,
        "no injected panic was caught by the supervised pool"
    );
}

/// The same schedule replayed under the same seed injures the same
/// connections: the fault plan is a pure function of (seed, index).
#[test]
fn fault_schedules_are_deterministic_per_seed() {
    let spec = "seed=9,panic=0.1,torn=0.2,flip=0.3,stall=0.05,slow=0.15";
    let a = ChaosPolicy::parse(spec).expect("spec");
    let b = ChaosPolicy::parse(spec).expect("spec");
    for index in 0..512 {
        assert_eq!(
            a.plan_for(index),
            b.plan_for(index),
            "plans diverged at connection {index}"
        );
    }
    let other = ChaosPolicy::parse("seed=10,panic=0.1,torn=0.2,flip=0.3,stall=0.05,slow=0.15")
        .expect("spec");
    assert!(
        (0..512).any(|i| a.plan_for(i) != other.plan_for(i)),
        "different seeds produced identical schedules"
    );
}

/// With no chaos configured, a retry-free client sees a fault-free
/// daemon: the production path carries none of the fault machinery.
#[test]
fn chaos_off_path_is_fault_free_without_retries() {
    let lattice = small_lattice();
    let q = served_query(&lattice);
    let body = render_request(&q, None);
    let clean = DecisionService::new(vec![small_lattice()], 2, 64);
    let expect = clean.answer_single(&body).expect("clean answer");

    let service = Arc::new(DecisionService::new(vec![small_lattice()], 2, 64));
    let server = http::serve_framed(
        ServerConfig::new("127.0.0.1:0"),
        frame_handler(Arc::clone(&service)),
    )
    .expect("bind");
    let mut opts = LoadOptions::new(server.local_addr().to_string(), LoadProto::Framed, body);
    opts.connections = 4;
    opts.requests = 25;
    opts.expect_body = Some(expect);
    let report = run_load(&opts).expect("clean load run");
    assert_eq!(report.errors, 0);
    assert_eq!(report.retries, 0, "clean daemon forced retries");
    assert_eq!(report.corrupt, 0, "clean daemon corrupted a response");
    assert_eq!(report.requests, 100);
    server.stop();
}

/// A deadline-zero service answers over the wire with a typed `504`
/// timeout body — the error is a first-class protocol answer, not a
/// dropped connection.
#[test]
fn overrun_deadline_is_a_typed_504_over_http() {
    let service =
        Arc::new(DecisionService::new(Vec::new(), 2, 8).with_deadline(Some(Duration::ZERO)));
    let server = http::serve_with(
        ServerConfig::new("127.0.0.1:0"),
        http_handler(Arc::clone(&service)),
    )
    .expect("bind");
    let body = exact_query_body();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let req = format!(
        "POST /decide HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write");
    let mut head = Vec::new();
    let mut one = [0u8; 1];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        assert!(stream.read(&mut one).expect("read head") > 0);
        head.push(one[0]);
    }
    let head = String::from_utf8(head).expect("head");
    assert!(head.starts_with("HTTP/1.1 504"), "{head}");
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .expect("length");
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf).expect("504 body");
    let err = json::parse(std::str::from_utf8(&buf).unwrap()).expect("typed body");
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("timeout")
    );
    server.stop();
}

/// Hot reload under fire: concurrent decide traffic while the lattice
/// slots are repeatedly swapped (same artifact → same fingerprint) must
/// never see a changed, missing or torn answer.
#[test]
fn hot_reload_under_concurrent_load_changes_no_answers() {
    let dir = scratch_dir("reload");
    let lattice = small_lattice();
    let q = served_query(&lattice);
    let body = render_request(&q, Some(10.0));
    lattice
        .save(&dir.join(LawFamily::Exponential.artifact_file_name()))
        .expect("save artifact");

    let service = Arc::new(DecisionService::new(Vec::new(), 4, 64));
    service.reload_from_dir(&dir);
    assert!(service.lattice(LawFamily::Exponential).is_some());
    let expect = service.answer_single(&body).expect("loaded answer");

    let mut handles = Vec::new();
    for t in 0..4 {
        let service = Arc::clone(&service);
        let body = body.clone();
        let expect = expect.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..200 {
                let got = service.answer_single(&body).expect("answer under reload");
                assert_eq!(got, expect, "thread {t} iteration {i} diverged mid-reload");
            }
        }));
    }
    for _ in 0..20 {
        let notes = service.reload_from_dir(&dir);
        assert!(
            notes.iter().all(|n| !n.contains("QUARANTINED")),
            "healthy artifact quarantined: {notes:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    for h in handles {
        h.join().expect("load thread");
    }
    assert_eq!(service.quarantined_count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A tampered artifact reloaded while exact-path traffic is in flight
/// is quarantined — counted, visible on readiness — and the poisoned
/// family's answers fall back byte-identical to a lattice-free solve.
#[test]
fn tampered_reload_quarantines_and_serves_exact_bytes_under_load() {
    let dir = scratch_dir("tamper");
    let lattice = small_lattice();
    let lattice_q = served_query(&lattice);
    let lattice_body = render_request(&lattice_q, None);
    let path = dir.join(LawFamily::Exponential.artifact_file_name());
    lattice.save(&path).expect("save artifact");

    let service = Arc::new(DecisionService::new(Vec::new(), 4, 64));
    service.reload_from_dir(&dir);
    assert!(service.lattice(LawFamily::Exponential).is_some());

    // Exact-family traffic is invariant across the quarantine, so the
    // concurrent load can assert byte-stability through the transition.
    let exact_body = exact_query_body();
    let exact_expect = service.answer_single(&exact_body).expect("exact answer");
    let mut handles = Vec::new();
    for _ in 0..3 {
        let service = Arc::clone(&service);
        let body = exact_body.clone();
        let expect = exact_expect.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..100 {
                let got = service.answer_single(&body).expect("answer during tamper");
                assert_eq!(got, expect, "exact answer changed during quarantine");
            }
        }));
    }

    // Flip one byte mid-file: the fingerprint check must refuse it.
    let mut bytes = std::fs::read(&path).expect("read artifact");
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&path, &bytes).expect("tamper artifact");

    let quarantined_before = LATTICE_QUARANTINED_TOTAL.get();
    let notes = service.reload_from_dir(&dir);
    assert!(
        LATTICE_QUARANTINED_TOTAL.get() > quarantined_before,
        "quarantine not counted"
    );
    assert!(
        notes.iter().any(|n| n.contains("QUARANTINED")),
        "no quarantine note: {notes:?}"
    );
    assert_eq!(service.quarantined_count(), 1);
    assert!(service.lattice(LawFamily::Exponential).is_none());
    let ready = json::parse(&service.readiness_json(false)).expect("readiness parses");
    assert_eq!(ready.get("status").unwrap().as_str(), Some("degraded"));

    // The quarantined family still answers — byte-identical to a
    // service that never had the lattice.
    let bare = DecisionService::new(Vec::new(), 4, 64);
    assert_eq!(
        service
            .answer_single(&lattice_body)
            .expect("degraded answer"),
        bare.answer_single(&lattice_body).expect("bare answer"),
        "degraded mode diverged from exact"
    );
    for h in handles {
        h.join().expect("load thread");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A real SIGHUP (raised in-process against the installed handler) sets
/// the reload flag; `take_reload_request` observes it exactly once.
#[cfg(unix)]
#[test]
fn sighup_sets_the_reload_flag_once() {
    http::install_reload_signal_handler();
    extern "C" {
        fn raise(sig: i32) -> i32;
    }
    assert_eq!(unsafe { raise(1) }, 0, "raise(SIGHUP)"); // SIGHUP = 1
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if http::take_reload_request() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "SIGHUP did not set the reload flag"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        !http::take_reload_request(),
        "take_reload_request did not clear the flag"
    );
}
