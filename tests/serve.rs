//! Concurrent-correctness tier for the `resq serve` decision daemon
//! (ISSUE 8): N client threads hammering a live daemon must receive
//! response bodies *byte-identical* to a fresh single-threaded exact
//! solve of the same queries — across the lattice-hit path, the
//! exact-fallback path (family without a lattice) and the out-of-grid
//! path (reservation outside the gridded range). The sharded solve
//! caches, admission counter and keep-alive connection handling must
//! never leak one client's state into another's answer.
//!
//! Also covered here, end to end over real sockets: HTTP/framed wire
//! equivalence (same payload bytes on both protocols), the lattice's
//! documented error tolerance on served answers, admission-control
//! `429` + `Retry-After` when the daemon is saturated, and graceful
//! drain (stop answers in-flight work, leaves no admitted requests).
//!
//! Compiled against `resq-cli` (see `[[test]]` in `crates/cli/Cargo.toml`)
//! so it drives the exact handler the daemon mounts.

use resq::core::lattice::{build, solve_exact, REL_FLOOR};
use resq::obs::http::{self, ServerConfig};
use resq::obs::json;
use resq::{AnswerSource, LatticeSpec, LawFamily, PolicyQuery, SolveCache, TaskParams};
use resq_cli::serve::{
    frame_handler, http_handler, render_answer, render_request, DecisionService,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A small but real exponential lattice (5 points per axis keeps the
/// build fast; calibration and tolerance behave exactly as at full
/// resolution).
fn small_lattice() -> resq::PolicyLattice {
    build(&LatticeSpec::defaults(LawFamily::Exponential).with_points(5)).expect("lattice build")
}

/// A query the lattice actually serves (source == Lattice): probe a few
/// interior fractional offsets — some cells decline calibration and
/// fall back, which is part of the design, so hunt for a served one.
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

/// A query the lattice must decline: same absolute task/checkpoint
/// shape, but a much shorter reservation — the grid normalizes shape by
/// `r`, so shrinking `r` pushes the normalized coordinates past the
/// axis `hi` and forces the exact fallback (while keeping the exact
/// solve cheap: a short reservation means few checkpoint intervals).
fn out_of_grid_query(lattice: &resq::PolicyLattice, base: &PolicyQuery) -> PolicyQuery {
    let q = PolicyQuery {
        r: base.r / 3.0,
        ..*base
    };
    let mut cache = SolveCache::new();
    let ans = lattice.query(&q, &mut cache).expect("fallback still solves");
    assert_eq!(ans.source, AnswerSource::Exact, "short r must be out of grid");
    q
}

/// A family the daemon has no lattice for: always the exact path.
fn no_lattice_query() -> PolicyQuery {
    PolicyQuery {
        task: TaskParams::Normal {
            mean: 3.0,
            sigma: 0.5,
        },
        ckpt_mean: 5.0,
        ckpt_sigma: 0.4,
        r: 29.0,
    }
}

/// One keep-alive `POST` round-trip; returns (status, body).
fn post(stream: &mut TcpStream, path: &str, body: &str) -> (u16, String) {
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write request");
    let mut head = Vec::new();
    let mut one = [0u8; 1];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = stream.read(&mut one).expect("read head");
        assert!(n > 0, "connection closed mid-response");
        head.push(one[0]);
    }
    let head = String::from_utf8(head).expect("ASCII head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// The headline invariant: 6 threads × 30 keep-alive requests, cycling
/// through lattice-hit / exact-fallback / out-of-grid queries against
/// one daemon, every response byte-identical to a fresh single-threaded
/// solve of the same query.
#[test]
fn concurrent_responses_are_byte_identical_to_fresh_solves() {
    let lattice = small_lattice();
    let hit_q = served_query(&lattice);
    let grid_q = out_of_grid_query(&lattice, &hit_q);
    let fall_q = no_lattice_query();

    // Expected bodies from fresh single-threaded solves, one untouched
    // cache per query so no shared state sneaks in.
    let expect = |q: &PolicyQuery, work: Option<f64>| {
        let mut cache = SolveCache::new();
        let ans = match q.task.family() {
            LawFamily::Exponential => lattice.query(q, &mut cache).expect("solve"),
            _ => solve_exact(q, &mut cache).expect("solve"),
        };
        render_answer(&ans, work)
    };
    let cases: Vec<(String, String)> = vec![
        (render_request(&hit_q, Some(10.0)), expect(&hit_q, Some(10.0))),
        (render_request(&grid_q, None), expect(&grid_q, None)),
        (render_request(&fall_q, Some(25.0)), expect(&fall_q, Some(25.0))),
    ];

    let service = Arc::new(DecisionService::new(vec![small_lattice()], 4, 64));
    let mut cfg = ServerConfig::new("127.0.0.1:0");
    cfg.workers = 4;
    cfg.queue_depth = 64;
    let server = http::serve_with(cfg, http_handler(service)).expect("bind");
    let addr = server.local_addr();

    let cases = Arc::new(cases);
    let mut handles = Vec::new();
    for t in 0..6 {
        let cases = Arc::clone(&cases);
        handles.push(std::thread::spawn(move || {
            let mut stream = connect(addr);
            for i in 0..30 {
                let (body, want) = &cases[(t + i) % cases.len()];
                let (status, got) = post(&mut stream, "/decide", body);
                assert_eq!(status, 200, "thread {t} req {i}: {got}");
                assert_eq!(&got, want, "thread {t} req {i} diverged");
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    server.stop();
}

/// Every served (lattice-path) answer stays within the artifact's
/// documented tolerance of the exact solve — the daemon adds wire and
/// caching layers but no numerical drift.
#[test]
fn served_answers_respect_the_lattice_tolerance() {
    let lattice = small_lattice();
    let q = served_query(&lattice);
    let service = DecisionService::new(vec![small_lattice()], 2, 8);
    let served = service.decide(&q).expect("served decision");
    assert_eq!(served.source, AnswerSource::Lattice);
    let exact = solve_exact(&q, &mut SolveCache::new()).expect("exact solve");
    let tol = lattice.tolerance();
    for (got, want) in [
        (served.x_opt, exact.x_opt),
        (served.expected_work, exact.expected_work),
    ] {
        let floor = REL_FLOOR * q.r;
        let err = (got - want).abs() / want.abs().max(floor);
        assert!(
            err <= tol,
            "served {got} vs exact {want}: rel err {err} over tol {tol}"
        );
    }
    // The fallback path *is* the exact solve: identical bytes.
    let fall = service.decide(&no_lattice_query()).expect("fallback");
    let fresh = solve_exact(&no_lattice_query(), &mut SolveCache::new()).expect("exact");
    assert_eq!(render_answer(&fall, None), render_answer(&fresh, None));
}

/// An exact answer depends on its body alone, not on the bodies a shard
/// answered before. At `R = 3600` the CDFs of a 60 s and a 240 s
/// checkpoint are both exactly 1 at `R/6 … 5R/6`, so a cache keyed on
/// those points would hand the 240 s body the 60 s body's fit.
#[test]
fn exact_answers_do_not_depend_on_earlier_bodies() {
    let body = |ckpt_mean: f64| {
        format!(
            "{{\"task\":\"normal:300,45\",\"ckpt_mean\":{ckpt_mean},\
             \"reservation\":3600,\"work\":1000}}"
        )
    };
    let answer = |service: &DecisionService, ckpt_mean: f64| {
        let text = body(ckpt_mean);
        service.answer_single(&text).expect("the body answers")
    };
    let warmed = DecisionService::new(Vec::new(), 8, 16);
    for _ in 0..8 {
        answer(&warmed, 60.0);
    }
    let fresh = DecisionService::new(Vec::new(), 8, 16);
    assert_eq!(answer(&warmed, 240.0), answer(&fresh, 240.0));
}

/// The framed TCP fast path answers with the same bytes as HTTP
/// `/decide` for the same payload, on single and batch bodies.
#[test]
fn framed_and_http_answers_are_identical() {
    let lattice = small_lattice();
    let q = served_query(&lattice);
    let single = render_request(&q, Some(10.0));
    let batch = format!("[{single},{single}]");

    let service = Arc::new(DecisionService::new(vec![lattice], 2, 16));
    let http_server = http::serve_with(
        ServerConfig::new("127.0.0.1:0"),
        http_handler(Arc::clone(&service)),
    )
    .expect("bind http");
    let framed_server = http::serve_framed(
        ServerConfig::new("127.0.0.1:0"),
        frame_handler(Arc::clone(&service)),
    )
    .expect("bind framed");

    let mut hs = connect(http_server.local_addr());
    let mut fs = connect(framed_server.local_addr());
    for (path, body) in [("/decide", &single), ("/decide/batch", &batch)] {
        let (status, via_http) = post(&mut hs, path, body);
        assert_eq!(status, 200, "{via_http}");
        fs.write_all(&http::encode_frame(body.as_bytes())).expect("write frame");
        let mut len_buf = [0u8; 4];
        fs.read_exact(&mut len_buf).expect("frame length");
        let mut payload = vec![0u8; u32::from_le_bytes(len_buf) as usize];
        fs.read_exact(&mut payload).expect("frame payload");
        assert_eq!(
            via_http.as_bytes(),
            payload.as_slice(),
            "HTTP and framed answers diverged for {path}"
        );
    }
    http_server.stop();
    framed_server.stop();
}

/// A saturated daemon sheds with a typed `429` + `Retry-After` and
/// recovers as soon as the in-flight slot frees.
#[test]
fn saturated_daemon_sheds_with_429_and_recovers() {
    let service = Arc::new(DecisionService::new(Vec::new(), 1, 1));
    let server = http::serve_with(
        ServerConfig::new("127.0.0.1:0"),
        http_handler(Arc::clone(&service)),
    )
    .expect("bind");
    // Pin the only admission slot so the next request must shed.
    assert!(service.admit());
    let body = render_request(&no_lattice_query(), None);
    let mut stream = connect(server.local_addr());
    let req = format!(
        "POST /decide HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write");
    let mut raw = Vec::new();
    let mut one = [0u8; 1];
    while !raw.windows(4).any(|w| w == b"\r\n\r\n") {
        assert!(stream.read(&mut one).expect("read") > 0);
        raw.push(one[0]);
    }
    let head = String::from_utf8(raw).expect("head");
    assert!(head.starts_with("HTTP/1.1 429"), "{head}");
    assert!(
        head.lines().any(|l| l.trim() == "Retry-After: 1"),
        "{head}"
    );
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length:").map(|v| v.trim().parse().unwrap()))
        .expect("length");
    let mut body_buf = vec![0u8; len];
    stream.read_exact(&mut body_buf).expect("429 body");
    let err = json::parse(std::str::from_utf8(&body_buf).unwrap()).expect("typed body");
    assert_eq!(
        err.get("error").and_then(|e| e.get("kind")).and_then(|k| k.as_str()),
        Some("saturated")
    );
    // Release the slot: the same keep-alive connection now gets served.
    service.release();
    let (status, answer) = post(&mut stream, "/decide", &body);
    assert_eq!(status, 200, "{answer}");
    server.stop();
}

/// Graceful drain: stop() lets in-flight requests finish (the bodies
/// already read still answer) and leaves the admission counter at zero.
#[test]
fn drain_leaves_no_admitted_requests() {
    let service = Arc::new(DecisionService::new(Vec::new(), 2, 8));
    let server = http::serve_with(
        ServerConfig::new("127.0.0.1:0"),
        http_handler(Arc::clone(&service)),
    )
    .expect("bind");
    let addr = server.local_addr();
    let body = render_request(&no_lattice_query(), Some(25.0));
    let mut stream = connect(addr);
    let (status, _) = post(&mut stream, "/decide", &body);
    assert_eq!(status, 200);
    server.stop();
    assert_eq!(service.inflight(), 0, "drained daemon holds no slots");
    // The port is released: a fresh daemon can bind the same address.
    let rebound = http::serve_with(
        ServerConfig::new(addr.to_string()),
        http_handler(Arc::clone(&service)),
    )
    .expect("rebind after drain");
    rebound.stop();
}
