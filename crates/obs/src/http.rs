//! The live service plane: a hand-rolled, dependency-free HTTP/1.1
//! server core shared by the telemetry endpoints (`resq obs serve`,
//! `--serve`) and the checkpoint-decision daemon (`resq serve`), plus a
//! length-prefixed TCP framing for the daemon's fast path.
//!
//! Design constraints, in order:
//!
//! 1. **No interference with the observed workload.** Every telemetry
//!    endpoint renders from a point-in-time [`Snapshot`] (and span/run
//!    snapshots) captured up front, never from live iteration over the
//!    registries; the server holds no lock while writing to a socket.
//!    Handling a request touches nothing that lands in event rows, so
//!    scraping a run cannot change its byte-stable log
//!    (`tests/determinism.rs` proves this with a scraper attached).
//! 2. **Bounded everything.** A nonblocking accept loop polls a stop
//!    flag; accepted connections are dispatched to a small fixed worker
//!    pool over a bounded queue (overflow is shed inline with
//!    `503` + `Retry-After`); each connection gets read/write timeouts,
//!    a per-request head deadline, a head-size cap and a body-size cap.
//!    A slowloris client costs one worker slot for at most the read
//!    timeout.
//! 3. **Graceful drain.** Setting the stop flag (SIGTERM via
//!    [`install_stop_signal_handlers`], or [`Server::stop`]) stops the
//!    accept loop immediately; connection workers finish the request
//!    in flight, answer it with `Connection: close`, and only then
//!    exit — no accepted request is dropped mid-flight.
//! 4. **`std` only.** The workspace builds offline; the server is plain
//!    `TcpListener`/`TcpStream` with a hand-written request parser.
//!
//! Three entry points share one listener/worker implementation
//! (`serve_core` internally):
//!
//! * [`serve`] — the read-only telemetry plane (GET-only, the
//!   [`ENDPOINTS`] table below);
//! * [`serve_with`] — the same HTTP/1.1 core with an injected
//!   [`Handler`], keep-alive connections and `POST` bodies (the
//!   decision daemon mounts `/decide` here and delegates everything
//!   else to [`telemetry_response`]);
//! * [`serve_framed`] — the length-prefixed TCP fast path: each frame
//!   is a little-endian `u32` length followed by that many payload
//!   bytes ([`encode_frame`]/[`decode_frame`]), answered by a
//!   [`FrameHandler`] with a response frame on the same connection.
//!
//! Telemetry endpoints (the canonical list is [`ENDPOINTS`], pinned
//! against `docs/OBSERVABILITY.md` by `tests/docs_sync.rs`):
//!
//! | Path | Payload |
//! |---|---|
//! | `/healthz` | `ok` (text/plain) |
//! | `/metrics` | Prometheus text exposition ([`metrics::format_prometheus_from`]) |
//! | `/metrics.json` | JSON exposition ([`metrics::format_json_from`]) |
//! | `/spans` | span hierarchy + quantiles, process-wide and per run |
//! | `/runs` | the live [`RunRegistry`]: id, config echo, progress, state |

use crate::chaos::{ChaosPolicy, ConnFaults, STALL_MILLIS};
use crate::json::write_escaped;
use crate::metrics::{
    self, Snapshot, HTTP_ERRORS_TOTAL, HTTP_REQUESTS_TOTAL, WORKERS_RESTARTED_TOTAL,
};
use crate::span::{self, SpanStats};
use crate::tracectx::RunRegistry;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Every path the telemetry plane answers, sorted; anything else is
/// `404`. `/healthz` is the liveness probe (plain `ok`, with
/// `/healthz/live` as its explicit alias); `/healthz/ready` is the
/// readiness probe — a JSON payload carrying degraded/quarantine state
/// and drain status (the decision daemon overrides it with its own
/// per-family view).
pub const ENDPOINTS: &[&str] = &[
    "/healthz",
    "/healthz/live",
    "/healthz/ready",
    "/metrics",
    "/metrics.json",
    "/runs",
    "/spans",
];

/// Tunables for [`serve`]/[`serve_with`]/[`serve_framed`];
/// [`ServerConfig::new`] gives the production defaults (tests shrink the
/// timeouts).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:9779` (`:0` for an ephemeral
    /// port — read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Per-connection socket read timeout *and* per-request deadline for
    /// receiving the complete request head. Doubles as the keep-alive
    /// idle timeout: a connection that sends nothing for this long is
    /// closed.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Maximum accepted request head (request line + headers) in bytes;
    /// larger requests are answered `431`.
    pub max_request_bytes: usize,
    /// Maximum accepted request body (`Content-Length`, or one frame on
    /// the framed path) in bytes; larger requests are answered `413` (a
    /// typed error frame on the framed path).
    pub max_body_bytes: usize,
    /// Requests served on one keep-alive connection before the server
    /// closes it (bounds per-connection state lifetime).
    pub max_keepalive_requests: usize,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Accepted connections queued ahead of the workers; overflow is
    /// shed from the accept thread (`503` + `Retry-After`).
    pub queue_depth: usize,
    /// Optional deterministic fault injection (chaos testing): each
    /// accepted connection draws a seeded [`ConnFaults`] plan. `None`
    /// (the production default) costs one branch per connection and
    /// nothing per request.
    pub chaos: Option<Arc<ChaosPolicy>>,
}

impl ServerConfig {
    /// Production defaults for the given bind address.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            max_request_bytes: 8 * 1024,
            max_body_bytes: 256 * 1024,
            max_keepalive_requests: 100_000,
            workers: 2,
            queue_depth: 16,
            chaos: None,
        }
    }
}

/// One parsed HTTP request as seen by a [`Handler`].
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The request target, verbatim (`/decide`, `/metrics`, …).
    pub path: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, lossily.
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// What a [`Handler`] returns; the server core adds framing
/// (`Content-Length`, `Connection`) around it.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Reason phrase for the status line.
    pub reason: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Extra header lines, without the trailing CRLF (`Allow: GET`,
    /// `Retry-After: 1`).
    pub extra_headers: Vec<String>,
}

impl Response {
    /// A `200 OK` response.
    pub fn ok(content_type: &'static str, body: impl Into<String>) -> Self {
        Self {
            status: 200,
            reason: "OK",
            content_type,
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// An error response with a plain-text body (`reason` + newline).
    pub fn error(status: u16, reason: &'static str) -> Self {
        Self {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: format!("{reason}\n"),
            extra_headers: Vec::new(),
        }
    }

    /// An error response with a custom body (typed JSON errors).
    pub fn error_with_body(
        status: u16,
        reason: &'static str,
        content_type: &'static str,
        body: impl Into<String>,
    ) -> Self {
        Self {
            status,
            reason,
            content_type,
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// Adds a header line (without CRLF).
    pub fn with_header(mut self, header: impl Into<String>) -> Self {
        self.extra_headers.push(header.into());
        self
    }
}

/// A request handler for [`serve_with`]: called on a worker thread, must
/// not panic (a panic poisons one worker slot).
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A frame handler for [`serve_framed`]: one request payload in, one
/// response payload out.
pub type FrameHandler = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

// ---------------------------------------------------------------------
// Stop signal plumbing (shared by `resq obs serve`, `resq serve` and the
// per-command `--serve` flag — one signal(2) binding for the workspace).
// ---------------------------------------------------------------------

/// Process-wide stop flag flipped by SIGTERM/SIGINT (see
/// [`install_stop_signal_handlers`]) so long-running servers can shut
/// their accept loops down and exit 0.
static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that make [`stop_requested`] return
/// true. Hand-rolled through libc's `signal(2)` (linked by std already)
/// to stay within the workspace's no-new-dependencies policy; storing to
/// an atomic is async-signal-safe. Idempotent.
#[cfg(unix)]
pub fn install_stop_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        STOP_REQUESTED.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_signal as *const () as usize); // SIGTERM
        signal(2, on_signal as *const () as usize); // SIGINT
    }
}

/// Non-unix fallback: no handlers (the stop flag still works via
/// [`request_stop`]).
#[cfg(not(unix))]
pub fn install_stop_signal_handlers() {}

/// Whether a stop has been requested (signal or [`request_stop`]).
pub fn stop_requested() -> bool {
    STOP_REQUESTED.load(Ordering::Relaxed)
}

/// Requests a stop programmatically (tests; in-process shutdown paths).
pub fn request_stop() {
    STOP_REQUESTED.store(true, Ordering::Relaxed);
}

/// Clears a previously requested stop (tests).
pub fn clear_stop_request() {
    STOP_REQUESTED.store(false, Ordering::Relaxed);
}

/// Process-wide hot-reload flag flipped by SIGHUP (see
/// [`install_reload_signal_handler`]): the decision daemon polls it and
/// re-reads its lattice artifacts without dropping a connection.
static RELOAD_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Installs a SIGHUP handler that makes [`take_reload_request`] return
/// true (once). Same hand-rolled `signal(2)` binding as
/// [`install_stop_signal_handlers`]; installing a handler also stops
/// SIGHUP's default action (terminate) from killing the daemon.
/// Idempotent.
#[cfg(unix)]
pub fn install_reload_signal_handler() {
    extern "C" fn on_reload(_sig: i32) {
        RELOAD_REQUESTED.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(1, on_reload as *const () as usize); // SIGHUP
    }
}

/// Non-unix fallback: no handler (the flag still works via
/// [`request_reload`]).
#[cfg(not(unix))]
pub fn install_reload_signal_handler() {}

/// Consumes a pending reload request (signal or [`request_reload`]);
/// returns whether one was pending. Swap semantics: each request is
/// observed exactly once.
pub fn take_reload_request() -> bool {
    RELOAD_REQUESTED.swap(false, Ordering::Relaxed)
}

/// Requests a hot reload programmatically (tests; in-process paths).
pub fn request_reload() {
    RELOAD_REQUESTED.store(true, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Server core: one accept loop + worker pool, shared by every protocol.
// ---------------------------------------------------------------------

/// A running server; dropping (or [`Server::stop`]) shuts it down and
/// joins every thread. In-flight requests complete before the workers
/// exit (graceful drain).
pub struct Server {
    stop: Arc<AtomicBool>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a telemetry server with production defaults on `addr`.
    pub fn bind(addr: &str) -> io::Result<Server> {
        serve(ServerConfig::new(addr))
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains the workers (in-flight requests get their
    /// responses), joins every thread.
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

/// Per-connection protocol driver: owns the accepted stream until the
/// connection closes. The stop flag tells it to finish the request in
/// flight and close; the [`ConnFaults`] plan (all-off outside chaos
/// runs) tells it which deterministic faults to inject.
type ConnFn = Arc<dyn Fn(TcpStream, &ServerConfig, &AtomicBool, ConnFaults) + Send + Sync>;

/// Load-shed responder: called from the accept thread when the worker
/// queue is full, must answer cheaply and close.
type ShedFn = Arc<dyn Fn(TcpStream, &ServerConfig) + Send + Sync>;

/// Binds `config.addr` and spawns the shared accept loop plus worker
/// pool, dispatching each accepted connection to `conn` (or `shed` when
/// the bounded queue overflows). Every protocol front end — telemetry
/// HTTP, handler-injected HTTP, framed TCP — is this one implementation.
fn serve_core(config: ServerConfig, conn: ConnFn, shed: ShedFn) -> io::Result<Server> {
    let listener = TcpListener::bind(config.addr.as_str())?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = sync_channel::<(TcpStream, ConnFaults)>(config.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::new();
    for i in 0..config.workers.max(1) {
        let rx = Arc::clone(&rx);
        let cfg = config.clone();
        let stop = Arc::clone(&stop);
        let conn = Arc::clone(&conn);
        workers.push(
            std::thread::Builder::new()
                .name(format!("resq-http-{i}"))
                .spawn(move || worker_loop(&rx, &cfg, &stop, &conn))
                .expect("spawn http worker"),
        );
    }

    let accept_stop = Arc::clone(&stop);
    let accept_cfg = config.clone();
    let accept_thread = std::thread::Builder::new()
        .name("resq-http-accept".to_string())
        .spawn(move || {
            // `tx` moves in here; dropping it on exit disconnects the
            // workers' queue, which is their shutdown signal.
            while !accept_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let faults = match &accept_cfg.chaos {
                            Some(policy) => policy.plan(),
                            None => ConnFaults::default(),
                        };
                        if faults.stall_accept {
                            // An injected accept stall: everything
                            // behind this connection queues (or sheds),
                            // exercising the backpressure path.
                            std::thread::sleep(Duration::from_millis(STALL_MILLIS));
                        }
                        if let Err(TrySendError::Full((stream, _))) = tx.try_send((stream, faults))
                        {
                            // Bounded queue is the backpressure valve:
                            // shed load loudly instead of queueing
                            // without limit.
                            shed(stream, &accept_cfg);
                        }
                        // Disconnected can only happen mid-shutdown;
                        // the loop condition handles it next turn.
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        })
        .expect("spawn http accept loop");

    Ok(Server {
        stop,
        local_addr,
        accept_thread: Some(accept_thread),
        workers,
    })
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<(TcpStream, ConnFaults)>>>,
    config: &ServerConfig,
    stop: &AtomicBool,
    conn: &ConnFn,
) {
    loop {
        // Holding the lock while blocked in recv is fine: sibling
        // workers queue on the mutex and get the next connection in
        // turn; sender drop wakes the holder, which exits and releases.
        // A poisoned queue mutex (a sibling died mid-recv) is recovered,
        // not propagated: the receiver itself holds no torn state.
        let received = {
            let guard = rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.recv()
        };
        match received {
            Ok((stream, faults)) => {
                // Supervision: a panicking connection handler (a bug, or
                // an injected chaos panic) must cost at most its own
                // connection — never the worker slot. The catch is the
                // respawn point: the slot goes straight back to serving.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    conn(stream, config, stop, faults)
                }));
                if outcome.is_err() {
                    WORKERS_RESTARTED_TOTAL.inc();
                    eprintln!(
                        "worker recovered from worker panic; slot respawned \
                         (workers_restarted_total={})",
                        WORKERS_RESTARTED_TOTAL.get()
                    );
                }
            }
            Err(_) => return, // accept loop gone: shutdown
        }
    }
}

// ---------------------------------------------------------------------
// HTTP/1.1 front end: keep-alive loop, request bodies, handler dispatch.
// ---------------------------------------------------------------------

/// Starts the read-only telemetry server (the [`ENDPOINTS`] table;
/// GET-only by construction).
pub fn serve(config: ServerConfig) -> io::Result<Server> {
    serve_with(config, Arc::new(telemetry_response))
}

/// Starts an HTTP/1.1 server answering every request through `handler`:
/// keep-alive connections, request bodies up to
/// [`ServerConfig::max_body_bytes`], graceful drain on stop. Protocol
/// errors (malformed request line, oversized head/body, slowloris) are
/// answered by the core before the handler is consulted.
pub fn serve_with(config: ServerConfig, handler: Handler) -> io::Result<Server> {
    let conn: ConnFn = Arc::new(move |stream, cfg, stop, faults| {
        handle_http_connection(stream, cfg, stop, faults, &handler);
    });
    let shed: ShedFn = Arc::new(|stream, cfg| {
        HTTP_REQUESTS_TOTAL.inc();
        HTTP_ERRORS_TOTAL.inc();
        let _ = stream.set_write_timeout(Some(cfg.write_timeout));
        write_response(
            &stream,
            &Response::error(503, "Service Unavailable").with_header("Retry-After: 1"),
            false,
        );
        let _ = stream.shutdown(Shutdown::Both);
    });
    serve_core(config, conn, shed)
}

enum ReadOutcome {
    /// Complete request head; `head` runs through the blank line,
    /// `carry` holds any bytes read past it (body prefix, or a
    /// pipelined next request).
    Complete { head: Vec<u8>, carry: Vec<u8> },
    /// Head exceeded `max_request_bytes`.
    TooLarge,
    /// Clean EOF before any byte of this request arrived (keep-alive
    /// connection closed between requests).
    Closed,
    /// EOF, socket error, or deadline mid-request (slowloris and
    /// friends) — drop without a response.
    Incomplete,
}

fn read_request_head(stream: &mut TcpStream, config: &ServerConfig, carry: Vec<u8>) -> ReadOutcome {
    let deadline = Instant::now() + config.read_timeout;
    let mut buf = carry;
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let rest = buf.split_off(pos + 4);
            return ReadOutcome::Complete {
                head: buf,
                carry: rest,
            };
        }
        if buf.len() > config.max_request_bytes {
            return ReadOutcome::TooLarge;
        }
        if Instant::now() >= deadline {
            // A drip-feeding client cannot reset the clock: the
            // deadline is absolute per request.
            return ReadOutcome::Incomplete;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Incomplete
                }
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Incomplete
                };
            }
            Err(_) => return ReadOutcome::Incomplete,
        }
    }
}

/// Reads exactly `want` more body bytes (beyond what `carry` already
/// holds) before `deadline`. Returns the body and the leftover carry,
/// or `None` on EOF/timeout.
fn read_body(
    stream: &mut TcpStream,
    mut carry: Vec<u8>,
    want: usize,
    deadline: Instant,
) -> Option<(Vec<u8>, Vec<u8>)> {
    let mut chunk = [0u8; 4096];
    while carry.len() < want {
        if Instant::now() >= deadline {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return None
            }
            Err(_) => return None,
        }
    }
    let rest = carry.split_off(want);
    Some((carry, rest))
}

/// Case-insensitive single-valued header lookup in a request head.
fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case(name) {
                return Some(v.trim());
            }
        }
    }
    None
}

fn handle_http_connection(
    mut stream: TcpStream,
    config: &ServerConfig,
    stop: &AtomicBool,
    faults: ConnFaults,
    handler: &Handler,
) {
    if faults.panic_worker {
        // Injected before any byte is read: the worker pool's
        // catch_unwind turns this into a counted slot respawn and the
        // client sees a clean connection drop (the stream closes on
        // unwind).
        panic!("chaos: injected worker panic");
    }
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let mut carry: Vec<u8> = Vec::new();
    let mut served = 0usize;
    loop {
        let (head, rest) = match read_request_head(&mut stream, config, std::mem::take(&mut carry))
        {
            ReadOutcome::Complete { head, carry } => (head, carry),
            ReadOutcome::TooLarge => {
                HTTP_REQUESTS_TOTAL.inc();
                HTTP_ERRORS_TOTAL.inc();
                write_response(
                    &stream,
                    &Response::error(431, "Request Header Fields Too Large"),
                    false,
                );
                break;
            }
            ReadOutcome::Closed => break, // idle keep-alive close: not an error
            ReadOutcome::Incomplete => {
                HTTP_REQUESTS_TOTAL.inc();
                HTTP_ERRORS_TOTAL.inc();
                break;
            }
        };
        HTTP_REQUESTS_TOTAL.inc();
        let head = String::from_utf8_lossy(&head).into_owned();
        let request_line = head.lines().next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, path, version) = (
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
        );
        if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
            HTTP_ERRORS_TOTAL.inc();
            write_response(&stream, &Response::error(400, "Bad Request"), false);
            break;
        }
        let content_length = match header_value(&head, "Content-Length") {
            None => 0usize,
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    HTTP_ERRORS_TOTAL.inc();
                    write_response(&stream, &Response::error(400, "Bad Request"), false);
                    break;
                }
            },
        };
        if content_length > config.max_body_bytes {
            HTTP_ERRORS_TOTAL.inc();
            write_response(&stream, &Response::error(413, "Content Too Large"), false);
            break;
        }
        if header_value(&head, "Expect").is_some_and(|v| v.eq_ignore_ascii_case("100-continue")) {
            let _ = (&stream).write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
        }
        let deadline = Instant::now() + config.read_timeout;
        let (body, rest) = match read_body(&mut stream, rest, content_length, deadline) {
            Some(pair) => pair,
            None => {
                HTTP_ERRORS_TOTAL.inc();
                break;
            }
        };
        carry = rest;
        let request = Request {
            method: method.to_string(),
            path: path.to_string(),
            body,
        };
        let client_close = version == "HTTP/1.0"
            || header_value(&head, "Connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let response = handler(&request);
        if response.status >= 400 {
            HTTP_ERRORS_TOTAL.inc();
        }
        served += 1;
        // Drain discipline: a stop request never cuts off the request in
        // flight — it is answered (with `Connection: close`) first.
        let close =
            client_close || stop.load(Ordering::SeqCst) || served >= config.max_keepalive_requests;
        if faults.any_response_fault() {
            let rendered = render_response(&response, !close);
            // Faults target the body only: corrupting the head or the
            // framing would wedge the client in a read timeout instead
            // of handing it a detectable corruption to retry.
            let body_start = rendered
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|p| p + 4)
                .unwrap_or(rendered.len());
            if !write_faulty(&stream, &rendered, faults, body_start) {
                break; // torn write: the peer is mid-response, close
            }
        } else {
            write_response(&stream, &response, !close);
        }
        if close {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Renders the full wire bytes of a response (status line, headers,
/// blank line, body) without writing them — the single source both the
/// clean and the fault-injecting writers serialize from.
fn render_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        response.reason,
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for h in &response.extra_headers {
        out.push_str(h);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(&response.body);
    out.into_bytes()
}

fn write_response(mut stream: &TcpStream, response: &Response, keep_alive: bool) {
    let _ = stream.write_all(&render_response(response, keep_alive));
    let _ = stream.flush();
}

/// Writes `bytes` with the connection's armed response faults applied:
/// a byte flip lands strictly at or after `body_start` (never in the
/// head or the length prefix, which would wedge the client in a read
/// timeout instead of handing it detectable corruption); a torn write
/// sends a prefix and reports the connection unusable; a slow write
/// dribbles the bytes out in chunks. Returns whether the connection can
/// keep serving.
fn write_faulty(
    mut stream: &TcpStream,
    bytes: &[u8],
    faults: ConnFaults,
    body_start: usize,
) -> bool {
    let mut out = bytes.to_vec();
    if faults.flip_byte && out.len() > body_start {
        let idx = body_start + (out.len() - body_start) / 2;
        out[idx] ^= 0x20;
    }
    if faults.torn_response {
        let keep = (out.len() / 2).max(1.min(out.len()));
        let _ = stream.write_all(&out[..keep]);
        let _ = stream.flush();
        return false;
    }
    if faults.slow_write {
        let step = (out.len() / 6).max(1);
        for chunk in out.chunks(step) {
            if stream.write_all(chunk).is_err() {
                return false;
            }
            let _ = stream.flush();
            std::thread::sleep(Duration::from_millis(STALL_MILLIS / 6));
        }
        return true;
    }
    let ok = stream.write_all(&out).is_ok();
    let _ = stream.flush();
    ok
}

/// The telemetry plane's request handler: GET-only (`405` + `Allow`
/// otherwise), the [`ENDPOINTS`] table, `404` for anything else. The
/// decision daemon delegates non-`/decide` requests here so one port
/// serves both planes.
pub fn telemetry_response(request: &Request) -> Response {
    if request.method != "GET" {
        return Response::error_with_body(
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed; the telemetry plane is GET-only\n",
        )
        .with_header("Allow: GET");
    }
    match request.path.as_str() {
        "/healthz" | "/healthz/live" => Response::ok("text/plain; charset=utf-8", "ok\n"),
        "/healthz/ready" => Response::ok(
            "application/json",
            format!("{{\"status\":\"ok\",\"draining\":{}}}\n", stop_requested()),
        ),
        "/metrics" => {
            let snap = Snapshot::capture();
            let spans = span::global().snapshot();
            Response::ok(
                "text/plain; version=0.0.4; charset=utf-8",
                metrics::format_prometheus_from(&snap, &spans),
            )
        }
        "/metrics.json" => {
            let snap = Snapshot::capture();
            let spans = span::global().snapshot();
            Response::ok("application/json", metrics::format_json_from(&snap, &spans))
        }
        "/spans" => Response::ok("application/json", render_spans_json(RunRegistry::global())),
        "/runs" => Response::ok("application/json", render_runs_json(RunRegistry::global())),
        _ => Response::error(404, "Not Found"),
    }
}

// ---------------------------------------------------------------------
// Length-prefixed TCP framing (the decision daemon's fast path).
// ---------------------------------------------------------------------

/// Wraps `payload` in the wire framing: little-endian `u32` length, then
/// the payload bytes.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One step of frame decoding over a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDecode {
    /// A complete frame: its payload, and how many buffer bytes it
    /// consumed (length prefix included).
    Complete {
        /// The frame payload.
        payload: Vec<u8>,
        /// Bytes consumed from the front of the buffer.
        consumed: usize,
    },
    /// The buffer holds a prefix of a frame; read more bytes.
    NeedMore,
    /// The declared length exceeds the cap; the connection must close
    /// (the declared length is reported for the error message).
    TooLarge(u32),
}

/// Decodes the first frame in `buf` (see [`encode_frame`]); total over
/// arbitrary bytes — never panics.
pub fn decode_frame(buf: &[u8], max_len: usize) -> FrameDecode {
    if buf.len() < 4 {
        return FrameDecode::NeedMore;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len as usize > max_len {
        return FrameDecode::TooLarge(len);
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return FrameDecode::NeedMore;
    }
    FrameDecode::Complete {
        payload: buf[4..total].to_vec(),
        consumed: total,
    }
}

/// Starts a length-prefixed TCP server: each connection carries a
/// sequence of request frames, each answered with one response frame
/// from `handler`. Framing violations (oversized length prefix) are
/// answered with a final error frame (`{"error":{"kind":"frame",…}}`)
/// and the connection closes; truncated frames close silently. Shares
/// the accept-loop/worker implementation with the HTTP servers.
pub fn serve_framed(config: ServerConfig, handler: FrameHandler) -> io::Result<Server> {
    let conn: ConnFn = Arc::new(move |stream, cfg, stop, faults| {
        handle_framed_connection(stream, cfg, stop, faults, &handler);
    });
    let shed: ShedFn = Arc::new(|mut stream, cfg| {
        let _ = stream.set_write_timeout(Some(cfg.write_timeout));
        let _ = stream.write_all(&encode_frame(
            br#"{"error":{"kind":"saturated","message":"server worker queue is full; retry after 1s"}}"#,
        ));
        let _ = stream.shutdown(Shutdown::Both);
    });
    serve_core(config, conn, shed)
}

fn handle_framed_connection(
    mut stream: TcpStream,
    config: &ServerConfig,
    stop: &AtomicBool,
    faults: ConnFaults,
    handler: &FrameHandler,
) {
    if faults.panic_worker {
        // See handle_http_connection: the supervised worker pool counts
        // this and respawns the slot; the client gets a clean drop.
        panic!("chaos: injected worker panic");
    }
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    'conn: loop {
        // Drain one complete frame if buffered; otherwise read more.
        match decode_frame(&buf, config.max_body_bytes) {
            FrameDecode::Complete { payload, consumed } => {
                buf.drain(..consumed);
                let response = handler(&payload);
                let frame = encode_frame(&response);
                if faults.any_response_fault() {
                    // Byte flips land in the payload (offset >= 4),
                    // never the length prefix: a corrupted length would
                    // wedge the client in a read timeout instead of
                    // handing it detectable corruption.
                    if !write_faulty(&stream, &frame, faults, 4.min(frame.len())) {
                        break 'conn;
                    }
                } else if stream.write_all(&frame).is_err() {
                    break 'conn;
                }
                let _ = stream.flush();
                // Drain discipline: answer the frame in flight, then
                // close once this server is stopping.
                if stop.load(Ordering::SeqCst) {
                    break 'conn;
                }
            }
            FrameDecode::TooLarge(len) => {
                let msg = format!(
                    "{{\"error\":{{\"kind\":\"frame\",\"message\":\"frame length {len} exceeds cap {}\"}}}}",
                    config.max_body_bytes
                );
                let _ = stream.write_all(&encode_frame(msg.as_bytes()));
                break 'conn;
            }
            FrameDecode::NeedMore => {
                // The socket's read timeout bounds how long an idle
                // keep-alive connection may sit here.
                match stream.read(&mut chunk) {
                    Ok(0) => break 'conn,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(_) => break 'conn,
                }
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------
// Telemetry payload renderers.
// ---------------------------------------------------------------------

fn push_span_stats(out: &mut String, spans: &[SpanStats]) {
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        write_escaped(out, &s.path);
        out.push_str(&format!(
            ",\"count\":{},\"total_nanos\":{},\"mean_nanos\":{:.1},\"p50_nanos\":{:.1},\"p90_nanos\":{:.1},\"p99_nanos\":{:.1}}}",
            s.count,
            s.total_nanos,
            s.mean_nanos(),
            s.quantile_nanos(0.50),
            s.quantile_nanos(0.90),
            s.quantile_nanos(0.99),
        ));
    }
    out.push(']');
}

/// The `/spans` payload: span paths with counts and bucket-estimated
/// latency quantiles (power-of-two buckets — factor-of-2 estimates, see
/// `docs/KNOWN_ISSUES.md`), for the process-global registry and for
/// each registered run's own registry (keyed by `run_id`, which is what
/// makes span rows joinable against event rows).
pub fn render_spans_json(registry: &RunRegistry) -> String {
    let mut out = String::from("{\"process\":");
    push_span_stats(&mut out, &span::global().snapshot());
    out.push_str(",\"runs\":[");
    for (i, run) in registry.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"run_id\":");
        write_escaped(&mut out, &run.run_id_hex());
        out.push_str(",\"command\":");
        write_escaped(&mut out, &run.command);
        out.push_str(",\"spans\":");
        push_span_stats(&mut out, &run.spans().snapshot());
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// The `/runs` payload: every registered run with its identity, config
/// echo, live progress counter and lifecycle state.
pub fn render_runs_json(registry: &RunRegistry) -> String {
    let mut out = String::from("{\"runs\":[");
    for (i, run) in registry.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"run_id\":");
        write_escaped(&mut out, &run.run_id_hex());
        out.push_str(",\"command\":");
        write_escaped(&mut out, &run.command);
        out.push_str(&format!(
            ",\"seed\":{},\"trials\":{},\"trials_done\":{},\"state\":\"{}\"}}",
            run.seed,
            run.trials,
            run.trials_done(),
            run.state().as_str(),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::tracectx::RunInfo;

    fn test_config() -> ServerConfig {
        let mut cfg = ServerConfig::new("127.0.0.1:0");
        cfg.read_timeout = Duration::from_millis(200);
        cfg.write_timeout = Duration::from_millis(200);
        cfg
    }

    fn test_server() -> Server {
        serve(test_config()).expect("bind test server")
    }

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut out = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        request(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
        )
    }

    fn body_of(response: &str) -> &str {
        response
            .split_once("\r\n\r\n")
            .map(|(_, body)| body)
            .unwrap_or("")
    }

    #[test]
    fn healthz_and_unknown_path() {
        let server = test_server();
        let addr = server.local_addr();
        let ok = get(addr, "/healthz");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert_eq!(body_of(&ok), "ok\n");
        assert!(ok.contains("Content-Length: 3\r\n"), "{ok}");
        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404 "), "{missing}");
        server.stop();
    }

    #[test]
    fn metrics_endpoints_render_valid_payloads() {
        let server = test_server();
        let addr = server.local_addr();
        let prom = get(addr, "/metrics");
        assert!(prom.starts_with("HTTP/1.1 200 OK\r\n"), "{prom}");
        assert!(prom.contains("text/plain; version=0.0.4"));
        assert!(body_of(&prom).contains("# TYPE resq_mc_trials_run counter"));
        assert!(body_of(&prom).contains("# TYPE resq_decide_queue_depth gauge"));
        let js = get(addr, "/metrics.json");
        let parsed = json::parse(body_of(&js)).expect("metrics.json parses");
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("gauges").is_some());
        let spans = get(addr, "/spans");
        assert!(json::parse(body_of(&spans))
            .expect("spans parses")
            .get("process")
            .is_some());
        let runs = get(addr, "/runs");
        assert!(json::parse(body_of(&runs))
            .expect("runs parses")
            .get("runs")
            .is_some());
        server.stop();
    }

    #[test]
    fn non_get_method_is_405_with_allow_header() {
        let server = test_server();
        let addr = server.local_addr();
        let resp = request(
            addr,
            "POST /metrics HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 405 "), "{resp}");
        assert!(resp.contains("Allow: GET\r\n"), "{resp}");
        // The accept loop is not wedged.
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 "));
        server.stop();
    }

    #[test]
    fn malformed_request_line_is_400() {
        let server = test_server();
        let addr = server.local_addr();
        let resp = request(addr, "???\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
        server.stop();
    }

    #[test]
    fn oversized_header_is_431() {
        let server = test_server();
        let addr = server.local_addr();
        let huge = format!(
            "GET /metrics HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
            "a".repeat(16 * 1024)
        );
        let resp = request(addr, &huge);
        assert!(resp.starts_with("HTTP/1.1 431 "), "{resp}");
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 "));
        server.stop();
    }

    #[test]
    fn oversized_body_is_413() {
        let mut cfg = test_config();
        cfg.max_body_bytes = 64;
        let handler: Handler =
            Arc::new(|req| Response::ok("text/plain", req.body_str().into_owned()));
        let server = serve_with(cfg, handler).expect("bind");
        let addr = server.local_addr();
        let resp = request(
            addr,
            &format!(
                "POST /decide HTTP/1.1\r\nContent-Length: 65\r\nConnection: close\r\n\r\n{}",
                "x".repeat(65)
            ),
        );
        assert!(resp.starts_with("HTTP/1.1 413 "), "{resp}");
        server.stop();
    }

    #[test]
    fn slowloris_partial_request_times_out_without_wedging() {
        let server = test_server();
        let addr = server.local_addr();
        let before = HTTP_ERRORS_TOTAL.get();
        // Send a partial request line and then go silent.
        let mut slow = TcpStream::connect(addr).expect("connect");
        slow.write_all(b"GET /metr").expect("send partial");
        // While the slow client ties up one worker, a healthy client on
        // the other worker still gets served.
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 "));
        // After the deadline the connection is dropped with no response.
        slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = Vec::new();
        let n = slow.read_to_end(&mut out).unwrap_or(0);
        assert_eq!(n, 0, "slowloris got a response: {:?}", out);
        // And the server is still healthy afterwards.
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 "));
        assert!(HTTP_ERRORS_TOTAL.get() > before);
        server.stop();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let handler: Handler = Arc::new(|req| {
            Response::ok(
                "text/plain; charset=utf-8",
                format!("echo:{}:{}", req.path, req.body_str()),
            )
        });
        let server = serve_with(test_config(), handler).expect("bind");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for i in 0..3 {
            let body = format!("req-{i}");
            let head = format!(
                "POST /p{i} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(head.as_bytes()).expect("send");
            // Read exactly one response off the shared connection.
            let mut buf = Vec::new();
            let mut one = [0u8; 1];
            while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                let n = stream.read(&mut one).expect("read head");
                assert!(n > 0, "connection closed early");
                buf.push(one[0]);
            }
            let head_str = String::from_utf8_lossy(&buf).into_owned();
            assert!(head_str.starts_with("HTTP/1.1 200 OK\r\n"), "{head_str}");
            assert!(
                head_str.contains("Connection: keep-alive\r\n"),
                "{head_str}"
            );
            let len: usize = head_str
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            let mut body_buf = vec![0u8; len];
            stream.read_exact(&mut body_buf).expect("read body");
            assert_eq!(
                String::from_utf8_lossy(&body_buf),
                format!("echo:/p{i}:req-{i}")
            );
        }
        server.stop();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let handler: Handler =
            Arc::new(|req| Response::ok("text/plain; charset=utf-8", req.path.clone()));
        let server = serve_with(test_config(), handler).expect("bind");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Two requests in one write; the second carries Connection: close.
        stream
            .write_all(
                b"GET /a HTTP/1.1\r\nHost: t\r\n\r\nGET /b HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            .expect("send");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        let a = out.find("\r\n\r\n/a").expect("first response body");
        let b = out.find("\r\n\r\n/b").expect("second response body");
        assert!(a < b, "responses out of order: {out}");
        server.stop();
    }

    #[test]
    fn framed_roundtrip_and_oversized_frame() {
        let handler: FrameHandler = Arc::new(|payload| {
            let mut out = b"ack:".to_vec();
            out.extend_from_slice(payload);
            out
        });
        let mut cfg = test_config();
        cfg.max_body_bytes = 1024;
        let server = serve_framed(cfg, handler).expect("bind framed");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Two frames on one connection.
        for msg in [b"hello".as_slice(), b"again".as_slice()] {
            stream.write_all(&encode_frame(msg)).expect("send frame");
            let mut len_buf = [0u8; 4];
            stream.read_exact(&mut len_buf).expect("read length");
            let len = u32::from_le_bytes(len_buf) as usize;
            let mut payload = vec![0u8; len];
            stream.read_exact(&mut payload).expect("read payload");
            assert_eq!(&payload[..4], b"ack:");
            assert_eq!(&payload[4..], msg);
        }
        // An oversized length prefix gets a typed error frame, then EOF.
        let mut bad = TcpStream::connect(addr).expect("connect");
        bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        bad.write_all(&(1u32 << 30).to_le_bytes())
            .expect("send bad length");
        let mut len_buf = [0u8; 4];
        bad.read_exact(&mut len_buf).expect("read error length");
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut payload = vec![0u8; len];
        bad.read_exact(&mut payload).expect("read error payload");
        let err = json::parse(&String::from_utf8_lossy(&payload)).expect("error frame parses");
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("frame")
        );
        assert_eq!(
            bad.read(&mut len_buf).unwrap_or(0),
            0,
            "connection stayed open"
        );
        server.stop();
    }

    #[test]
    fn frame_codec_roundtrips_and_is_total() {
        let frame = encode_frame(b"abc");
        assert_eq!(
            decode_frame(&frame, 1024),
            FrameDecode::Complete {
                payload: b"abc".to_vec(),
                consumed: 7
            }
        );
        assert_eq!(decode_frame(&frame[..2], 1024), FrameDecode::NeedMore);
        assert_eq!(decode_frame(&frame[..6], 1024), FrameDecode::NeedMore);
        assert_eq!(decode_frame(&[], 1024), FrameDecode::NeedMore);
        assert_eq!(decode_frame(&frame, 2), FrameDecode::TooLarge(3));
    }

    #[test]
    fn runs_payload_reflects_registry_progress() {
        let registry = RunRegistry::new();
        let info = RunInfo::new(0x00ff, "simulate", 9, 5000);
        registry.register(info.clone());
        info.add_progress(4096);
        info.spans().record("sim/mc", 1_000);
        let runs = json::parse(&render_runs_json(&registry)).unwrap();
        let row = match runs.get("runs") {
            Some(json::JsonValue::Array(rows)) => rows[0].clone(),
            other => panic!("runs not an array: {other:?}"),
        };
        assert_eq!(
            row.get("run_id").unwrap().as_str(),
            Some("00000000000000ff")
        );
        assert_eq!(row.get("trials_done").unwrap().as_u64(), Some(4096));
        assert_eq!(row.get("state").unwrap().as_str(), Some("running"));
        let spans = json::parse(&render_spans_json(&registry)).unwrap();
        let runs_spans = match spans.get("runs") {
            Some(json::JsonValue::Array(rows)) => rows[0].clone(),
            other => panic!("spans.runs not an array: {other:?}"),
        };
        assert_eq!(
            runs_spans.get("run_id").unwrap().as_str(),
            Some("00000000000000ff")
        );
    }

    #[test]
    fn stop_joins_cleanly_and_releases_the_port() {
        let server = test_server();
        let addr = server.local_addr();
        server.stop();
        // The port is free again: a fresh bind succeeds.
        let listener = TcpListener::bind(addr);
        assert!(listener.is_ok(), "port still held after stop");
    }

    #[test]
    fn stop_flag_helpers_roundtrip() {
        clear_stop_request();
        assert!(!stop_requested());
        request_stop();
        assert!(stop_requested());
        clear_stop_request();
        assert!(!stop_requested());
    }

    #[test]
    fn reload_flag_has_take_once_semantics() {
        assert!(!take_reload_request());
        request_reload();
        assert!(take_reload_request());
        assert!(!take_reload_request(), "reload request observed twice");
    }

    #[test]
    fn healthz_split_liveness_and_readiness() {
        let server = test_server();
        let addr = server.local_addr();
        let live = get(addr, "/healthz/live");
        assert!(live.starts_with("HTTP/1.1 200 OK\r\n"), "{live}");
        assert_eq!(body_of(&live), "ok\n");
        let ready = get(addr, "/healthz/ready");
        assert!(ready.starts_with("HTTP/1.1 200 OK\r\n"), "{ready}");
        let parsed = json::parse(body_of(&ready)).expect("readiness parses");
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("ok"));
        assert!(parsed.get("draining").is_some());
        server.stop();
    }

    #[test]
    fn injected_worker_panic_is_caught_counted_and_survivable() {
        let mut cfg = test_config();
        // Every connection panics its worker before reading a byte.
        cfg.chaos = Some(Arc::new(ChaosPolicy::parse("seed=1,panic=1").unwrap()));
        cfg.workers = 2;
        let server = serve(cfg).expect("bind chaos server");
        let addr = server.local_addr();
        let before = WORKERS_RESTARTED_TOTAL.get();
        for _ in 0..4 {
            // The client just sees a dropped connection, never a hang.
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut out = Vec::new();
            let _ = stream.read_to_end(&mut out);
        }
        // Workers were respawned, not lost: the counter moves once the
        // pool has processed each doomed connection (poll — the client
        // only observes the connection drop, not the worker's catch).
        let deadline = Instant::now() + Duration::from_secs(5);
        while WORKERS_RESTARTED_TOTAL.get() < before + 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            WORKERS_RESTARTED_TOTAL.get() >= before + 4,
            "panic supervision did not count respawns"
        );
        server.stop();
    }

    #[test]
    fn flip_byte_fault_corrupts_body_but_never_head() {
        let mut cfg = test_config();
        cfg.chaos = Some(Arc::new(ChaosPolicy::parse("seed=1,flip=1").unwrap()));
        let server = serve(cfg).expect("bind chaos server");
        let addr = server.local_addr();
        let resp = get(addr, "/healthz");
        // Head intact (parseable, correct Content-Length)…
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("Content-Length: 3\r\n"), "{resp}");
        // …body corrupted: exactly what a checksumming client detects.
        assert_ne!(
            body_of(&resp),
            "ok\n",
            "flip fault did not corrupt the body"
        );
        server.stop();
    }

    #[test]
    fn torn_response_fault_truncates_and_closes() {
        let mut cfg = test_config();
        cfg.chaos = Some(Arc::new(ChaosPolicy::parse("seed=1,torn=1").unwrap()));
        let server = serve(cfg).expect("bind chaos server");
        let addr = server.local_addr();
        let resp = get(addr, "/metrics");
        // A strict prefix of a response: starts like HTTP but the body
        // never completes (read_to_string returned at EOF).
        assert!(resp.starts_with("HTTP/1.1 "), "{resp}");
        let declared: Option<usize> = resp
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok());
        let got = body_of(&resp).len();
        assert!(
            declared.map_or(true, |want| got < want),
            "torn fault delivered a complete response ({got} bytes)"
        );
        server.stop();
    }

    #[test]
    fn framed_flip_fault_corrupts_payload_not_length_prefix() {
        let handler: FrameHandler = Arc::new(|payload| {
            let mut out = b"ack:".to_vec();
            out.extend_from_slice(payload);
            out
        });
        let mut cfg = test_config();
        cfg.chaos = Some(Arc::new(ChaosPolicy::parse("seed=1,flip=1").unwrap()));
        let server = serve_framed(cfg, handler).expect("bind framed");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&encode_frame(b"hello")).expect("send");
        let mut len_buf = [0u8; 4];
        stream.read_exact(&mut len_buf).expect("read length");
        let len = u32::from_le_bytes(len_buf) as usize;
        assert_eq!(len, 9, "length prefix was corrupted");
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).expect("read payload");
        assert_ne!(
            &payload, b"ack:hello",
            "flip fault did not corrupt the payload"
        );
        server.stop();
    }

    #[test]
    fn slow_write_fault_still_delivers_a_complete_response() {
        let mut cfg = test_config();
        cfg.chaos = Some(Arc::new(ChaosPolicy::parse("seed=1,slow=1").unwrap()));
        let server = serve(cfg).expect("bind chaos server");
        let addr = server.local_addr();
        let resp = get(addr, "/healthz");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert_eq!(body_of(&resp), "ok\n");
        server.stop();
    }
}
