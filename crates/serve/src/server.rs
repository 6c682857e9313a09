//! The resident encoding server.
//!
//! ## Request lifecycle
//!
//! 1. The **accept loop** (one thread) blocks in `accept`. Each accepted
//!    connection is admitted into a bounded queue; when the queue is full
//!    the connection is answered `503` + `Retry-After` immediately —
//!    overload sheds load at the door instead of stacking latency. That is
//!    the only rule that refuses work: an admitted request is answered
//!    whatever other requests did. No timer paces a request: a worker
//!    parks until a push wakes it.
//! 2. A **worker** (one of `--workers` threads) pops the connection, parses
//!    the HTTP request, and routes it. `POST /encode` bodies are parsed
//!    into an [`fsm::Fsm`] (KISS2), fingerprinted
//!    ([`fsm::fingerprint`]), and looked up in the result cache.
//! 3. On a miss the request's options become an
//!    [`nova_engine::EngineConfig`] — deadlines and budgets ride the
//!    engine's own `RunCtl` plumbing, so a request that runs out of time
//!    returns the anytime `Degraded` best-so-far encoding, not an error —
//!    and [`nova_engine::run_portfolio`] produces a `nova-bench/1` report.
//! 4. Fully deterministic reports (every run `done`/`unsolved`, no fault
//!    plan) are frozen into the cache as exact response bytes; repeated
//!    requests are byte-identical by construction.
//!
//! ## Metrics
//!
//! One always-on registry counts every service event once (the `serve.*`
//! counters, registered at 0 on start) and holds the latency histograms.
//! `metrics_snapshot` adds the cache's own counters and the gauges read at
//! scrape time; `GET /metrics` renders that snapshot as Prometheus text
//! and `GET /counters` maps it onto the `nova-serve/1` JSON document.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] is the only way to stop a server. It sets
//! the stop flag and wakes the blocked `accept` with one connection to the
//! server's own address; the accept loop drops that connection unadmitted,
//! closes the queue and exits. The workers drain every already-admitted
//! connection before exiting; [`ServerHandle::join`] returns once the last
//! in-flight run has been answered. A process that wants SIGTERM/ctrl-c to
//! drain watches [`crate::shutdown`] itself and calls the handle, as
//! `nova serve` does.

use crate::cache::{CacheConfig, ResultCache};
use crate::http::{parse_query, Request, RequestError, Response};
use crate::wire::EncodeOptions;
use fsm::Fsm;
use nova_engine::{effective_jobs, run_portfolio, suite_to_json, Outcome};
use nova_trace::json::Json;
use nova_trace::sink::format_request_id;
use nova_trace::{prom, MetricsSnapshot, Tracer};
use std::collections::VecDeque;
use std::io::{BufReader, Read};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning: a panicking worker must not
/// take the queue, cache, or counters down with it (the guarded state is
/// always left consistent — pushes/pops and cache ops are atomic under the
/// lock).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of a [`serve`] instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Request worker threads (each runs one engine portfolio at a time).
    /// `0` = available parallelism.
    pub workers: usize,
    /// Bounds of the result cache.
    pub cache: CacheConfig,
    /// Admission bound: connections waiting beyond the ones being served.
    /// A full queue answers `503` with `Retry-After`. `0` is served as 1.
    pub queue_depth: usize,
    /// When set, every `/encode` request runs under its own enabled tracer
    /// and writes one `nova-trace/1` JSONL file
    /// (`req-<request id>.jsonl`) into this directory.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            cache: CacheConfig::default(),
            queue_depth: 64,
            trace_dir: None,
        }
    }
}

/// Seed for request-id minting (SplitMix64 over the admission ordinal).
/// It is fixed, so a restarted server mints the same id sequence.
const REQUEST_ID_SEED: u64 = 0x6e6f_7661_2d37_0001; // "nova-7" — any fixed value works

/// The service's event counters: each event is one `incr` on the registry.
/// They are registered at 0 on start, so both count endpoints list every
/// one of them before its first event.
const COUNTERS: [&str; 6] = [
    "serve.requests",
    "serve.bad_requests",
    "serve.degraded",
    "serve.engine.runs",
    "serve.engine.failures",
    "serve.queue.rejected",
];

/// One admitted connection: the stream plus the request id minted at the
/// door and the admission timestamp (queue wait = admission → pop).
struct Admitted {
    stream: TcpStream,
    id: u64,
    at: Instant,
}

/// What the queue's lock guards. The close flag lives under the same lock
/// as the connections, so `close` cannot slip its wake-up in between a
/// worker's check of the flag and its park: workers wait untimed.
#[derive(Default)]
struct Pending {
    conns: VecDeque<Admitted>,
    closing: bool,
}

/// The bounded connection queue: admission control for the whole service.
struct Queue {
    inner: Mutex<Pending>,
    ready: Condvar,
    /// The admission bound in force: every view of the queue's capacity
    /// reads this, never the configured value it was clamped from.
    depth: usize,
}

impl Queue {
    fn new(depth: usize) -> Queue {
        Queue {
            inner: Mutex::new(Pending::default()),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Admits a connection, or returns it back when the queue is full.
    fn push(&self, adm: Admitted) -> Result<(), Admitted> {
        let mut q = lock(&self.inner);
        if q.conns.len() >= self.depth {
            return Err(adm);
        }
        q.conns.push_back(adm);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops the next connection; `None` once the queue is closing *and*
    /// drained — the worker-exit condition.
    fn pop(&self) -> Option<Admitted> {
        let mut q = lock(&self.inner);
        loop {
            if let Some(s) = q.conns.pop_front() {
                return Some(s);
            }
            if q.closing {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        lock(&self.inner).closing = true;
        self.ready.notify_all();
    }

    fn len(&self) -> usize {
        lock(&self.inner).conns.len()
    }
}

/// State shared between the accept loop, the workers, and the handle.
struct Shared {
    cfg: ServerConfig,
    cache: Mutex<ResultCache>,
    queue: Queue,
    stop: AtomicBool,
    /// Service start time, for `/healthz` uptime.
    started: Instant,
    /// Admission ordinal feeding the request-id mint.
    admissions: AtomicU64,
    /// The service's one metrics registry: an always-enabled tracer that
    /// holds the [`COUNTERS`] and the latency histograms. No spans are ever
    /// recorded on it, so its cost is one short mutex lock per event.
    metrics: Tracer,
}

impl Shared {
    /// Pairs with the `Release` store in [`ServerHandle::shutdown`], so the
    /// accept loop that the wake-up connection unblocks sees the flag.
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`] for a graceful
/// drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain: stop accepting, finish everything
    /// already admitted. Sets the stop flag, then wakes the accept loop out
    /// of its blocking `accept` with one connection to the bound address.
    /// A failed connect is ignored: it means the listener is already gone.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// Waits for the accept loop and every worker to finish draining.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds and starts the service; returns once the listener is live.
///
/// # Errors
///
/// I/O errors from binding the listener.
pub fn serve(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(resolve(&cfg.addr)?)?;
    let addr = listener.local_addr()?;
    let workers = effective_jobs(cfg.workers);
    let metrics = Tracer::enabled();
    for name in COUNTERS {
        metrics.incr(name, 0);
    }
    let shared = Arc::new(Shared {
        cache: Mutex::new(ResultCache::new(cfg.cache)),
        queue: Queue::new(cfg.queue_depth),
        stop: AtomicBool::new(false),
        started: Instant::now(),
        admissions: AtomicU64::new(0),
        metrics,
        cfg,
    });
    let mut threads = Vec::with_capacity(workers + 1);
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))?,
        );
    }
    for i in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            format!("{addr}: no usable address"),
        )
    })
}

/// Read timeout while a refused connection's request is read and thrown
/// away, so that closing it does not reset the client before it reads the
/// answer: the door-503 path and the staged 413 close.
const DISCARD_TIMEOUT: Duration = Duration::from_millis(500);

/// Most bytes of an unread body the staged 413 close discards before it
/// drops the connection regardless.
const DISCARD_CAP: u64 = 4 << 20;

/// Blocks in `accept` and admits each connection. The stop flag is read
/// after every return, so the wake-up connection of
/// [`ServerHandle::shutdown`], or any connection that races it, is dropped
/// before admission: it mints no request id and bumps no counter.
fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.stopping() {
            break;
        }
        match accepted {
            Ok((stream, _)) => admit(stream, shared),
            // A persistent error (out of file descriptors, say) must not
            // spin the thread: back off before the next accept.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Stop accepting, let the workers drain what was admitted.
    shared.queue.close();
}

/// Mints the request id for admission `n`: random access into the
/// canonical SplitMix64 stream ([`fsm::rng::mix`]) under
/// [`REQUEST_ID_SEED`], so ids are deterministic per server instance yet
/// well-mixed. `0` is reserved for "no id".
fn mint_request_id(n: u64) -> u64 {
    fsm::rng::mix(REQUEST_ID_SEED, n).max(1)
}

fn admit(stream: TcpStream, shared: &Shared) {
    let n = shared.admissions.fetch_add(1, Ordering::Relaxed);
    let adm = Admitted {
        stream,
        id: mint_request_id(n),
        at: Instant::now(),
    };
    if let Err(adm) = shared.queue.push(adm) {
        // Overload: shed at the door with a hint to come back. The request
        // is drained first (under a short timeout) so the close does not
        // RST the client before it reads the 503.
        shared.metrics.incr("serve.queue.rejected", 1);
        let mut stream = adm.stream;
        let _ = stream.set_read_timeout(Some(DISCARD_TIMEOUT));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        if let Ok(reader) = stream.try_clone() {
            let _ = Request::read_from(&mut BufReader::new(reader));
        }
        let body = Json::Obj(vec![
            ("error".into(), Json::str("overloaded")),
            ("queue_depth".into(), Json::uint(shared.queue.depth as u64)),
        ]);
        let _ = Response::json(503, body.to_pretty())
            .with_header("Retry-After", "1")
            .with_header("X-Nova-Request-Id", format_request_id(adm.id))
            .write_to(&mut stream);
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(adm) = shared.queue.pop() {
        shared
            .metrics
            .observe("serve.queue.wait_us", adm.at.elapsed().as_micros() as u64);
        handle_connection(adm, shared);
    }
}

fn handle_connection(adm: Admitted, shared: &Shared) {
    let Admitted { stream, id, at } = adm;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    shared.metrics.incr("serve.requests", 1);
    let mut body_unread = false;
    let response = match Request::read_from(&mut reader) {
        Ok(req) => Some(route(&req, shared, id)),
        Err(RequestError::Bad(msg)) => {
            shared.metrics.incr("serve.bad_requests", 1);
            Some(error_response(400, &msg))
        }
        Err(RequestError::TooLarge(n)) => {
            shared.metrics.incr("serve.bad_requests", 1);
            body_unread = true;
            Some(error_response(
                413,
                &format!("body of {n} bytes exceeds the limit"),
            ))
        }
        Err(RequestError::Io(_)) => None, // client went away mid-request
    };
    if let Some(response) = response {
        let _ = response
            .with_header("X-Nova-Request-Id", format_request_id(id))
            .write_to(&mut stream);
    }
    shared
        .metrics
        .observe("serve.request.latency_us", at.elapsed().as_micros() as u64);
    if body_unread {
        discard_unread_body(&stream, reader);
    }
}

/// The staged close of RFC 9112 §9.6, once the answer is written: stop
/// sending, then read and discard what the client still sends, within
/// [`DISCARD_TIMEOUT`] per read and [`DISCARD_CAP`] bytes. Dropping the
/// socket with the body unread would make the kernel reset the connection,
/// often before the client has read the answer.
fn discard_unread_body(stream: &TcpStream, reader: BufReader<TcpStream>) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(DISCARD_TIMEOUT));
    let _ = std::io::copy(&mut reader.take(DISCARD_CAP), &mut std::io::sink());
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        Json::Obj(vec![("error".into(), Json::str(message))]).to_pretty(),
    )
}

fn route(req: &Request, shared: &Shared, id: u64) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/encode") => handle_encode(req, shared, id),
        ("GET", "/counters") => Response::json(200, counters_json(shared).to_pretty()),
        ("GET", "/metrics") => {
            let mut resp = Response::text(200, prom::render(&metrics_snapshot(shared)));
            resp.content_type = prom::CONTENT_TYPE;
            resp
        }
        ("GET", "/healthz") => Response::json(200, healthz_json(shared).to_pretty()),
        (_, "/encode") | (_, "/counters") | (_, "/metrics") | (_, "/healthz") => {
            error_response(405, &format!("{} not allowed here", req.method))
        }
        _ => error_response(404, &format!("no route {}", req.path)),
    }
}

/// Readiness state, most-urgent first: a draining server is going away
/// whatever its queue holds, a full queue refuses new connections, and
/// everything else is `ok`.
fn health_state(shared: &Shared) -> &'static str {
    if shared.stopping() {
        "draining"
    } else if shared.queue.len() >= shared.queue.depth {
        "overloaded"
    } else {
        "ok"
    }
}

fn healthz_json(shared: &Shared) -> Json {
    let state = health_state(shared);
    Json::Obj(vec![
        ("ok".into(), Json::Bool(state == "ok")),
        ("state".into(), Json::str(state)),
        ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
        (
            "uptime_ms".into(),
            Json::uint(shared.started.elapsed().as_millis() as u64),
        ),
    ])
}

/// Parses the request body, KISS2 text, into a machine.
fn parse_machine(req: &Request) -> Result<Fsm, String> {
    let body = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    Fsm::parse_kiss_named("request", body).map_err(|e| e.to_string())
}

fn handle_encode(req: &Request, shared: &Shared, id: u64) -> Response {
    let options = match EncodeOptions::from_query(&parse_query(&req.query)) {
        Ok(o) => o,
        Err(e) => {
            shared.metrics.incr("serve.bad_requests", 1);
            return error_response(400, &e.to_string());
        }
    };
    let machine = match parse_machine(req) {
        Ok(m) => m,
        Err(msg) => {
            shared.metrics.incr("serve.bad_requests", 1);
            return error_response(400, &msg);
        }
    };
    let fp = fsm::fingerprint(&machine);
    let key = options.cache_key(&fp);

    if options.cacheable() {
        let lookup = Instant::now();
        let hit = lock(&shared.cache).get(&key);
        shared
            .metrics
            .observe("serve.cache.lookup_us", lookup.elapsed().as_micros() as u64);
        if let Some(body) = hit {
            return Response::json(200, body.as_slice().to_vec())
                .with_header("X-Nova-Cache", "hit")
                .with_header("X-Nova-Fingerprint", fp);
        }
    }

    // Miss (or uncacheable): the request needs an engine run. With a trace
    // dir configured, the run gets its own request-scoped session tracer —
    // every span in the emitted JSONL carries this request's id — otherwise
    // it runs untraced.
    shared.metrics.incr("serve.engine.runs", 1);
    let tracer = match &shared.cfg.trace_dir {
        Some(_) => {
            let t = Tracer::enabled();
            t.set_request_id(id);
            t
        }
        None => Tracer::disabled(),
    };
    let cfg = options.engine_config(&tracer);
    let run_started = Instant::now();
    let report = run_portfolio(&machine, machine.name(), &cfg);
    shared.metrics.observe(
        "serve.engine.run_us",
        run_started.elapsed().as_micros() as u64,
    );
    if let Some(dir) = &shared.cfg.trace_dir {
        write_request_trace(dir, id, &tracer);
    }
    // A `Failed` run is a panic the portfolio contained. The engine is a
    // pure function of (machine, options), so it predicts nothing about
    // other requests: it is counted and refuses none of them.
    if report
        .runs
        .iter()
        .any(|r| matches!(r.outcome, Outcome::Failed(_)))
    {
        shared.metrics.incr("serve.engine.failures", 1);
    }
    let deterministic = report
        .runs
        .iter()
        .all(|r| matches!(r.outcome, Outcome::Done(_) | Outcome::Unsolved));
    if report
        .runs
        .iter()
        .any(|r| matches!(r.outcome, Outcome::Degraded(_)))
    {
        shared.metrics.incr("serve.degraded", 1);
    }
    let body = Arc::new(suite_to_json(&[report]).to_pretty().into_bytes());

    // Only fully deterministic reports are admissible: a run that saw a
    // deadline, degradation, or failure is not a replayable artifact.
    if options.cacheable() && deterministic {
        lock(&shared.cache).insert(&key, Arc::clone(&body));
    }

    Response::json(200, body.as_slice().to_vec())
        .with_header("X-Nova-Cache", "miss")
        .with_header("X-Nova-Fingerprint", fp)
}

/// Writes the request's `nova-trace/1` JSONL next to its siblings.
/// Best-effort: a full disk or bad path must not fail the encode response,
/// but is worth one stderr line.
fn write_request_trace(dir: &std::path::Path, id: u64, tracer: &Tracer) {
    let path = dir.join(format!("req-{}.jsonl", format_request_id(id)));
    let result = std::fs::create_dir_all(dir).and_then(|()| {
        let f = std::fs::File::create(&path)?;
        tracer.write_jsonl(&mut std::io::BufWriter::new(f))
    });
    if let Err(e) = result {
        eprintln!("nova-serve: cannot write trace {}: {e}", path.display());
    }
}

/// The one source of both count endpoints: the registry (the [`COUNTERS`]
/// and the latency histograms), the result cache's own counters, and the
/// gauges read at scrape time.
fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    let mut snap = shared.metrics.metrics_snapshot();
    let (cache, entries, bytes) = {
        let cache = lock(&shared.cache);
        (cache.stats(), cache.len(), cache.bytes())
    };
    for (name, v) in [
        ("serve.cache.hits", cache.hits),
        ("serve.cache.misses", cache.misses),
        ("serve.cache.insertions", cache.insertions),
        ("serve.cache.evictions", cache.evictions),
        ("serve.cache.oversize_rejects", cache.oversize_rejects),
    ] {
        snap.counters.push((name.to_string(), v));
    }
    for (name, v) in [
        ("serve.cache.entries", entries as i64),
        ("serve.cache.bytes", bytes as i64),
        ("serve.queue.depth", shared.queue.len() as i64),
        ("serve.queue.capacity", shared.queue.depth as i64),
        (
            "serve.uptime_ms",
            shared.started.elapsed().as_millis() as i64,
        ),
    ] {
        snap.gauges.push((name.to_string(), v));
    }
    snap
}

/// The `nova-serve/1` document as a view of [`metrics_snapshot`]: one
/// (JSON path, metric name) row per leaf, in document order. A path is
/// `group.key`, or a bare top-level key.
const COUNTERS_VIEW: [(&str, &str); 15] = [
    ("cache.hits", "serve.cache.hits"),
    ("cache.misses", "serve.cache.misses"),
    ("cache.insertions", "serve.cache.insertions"),
    ("cache.evictions", "serve.cache.evictions"),
    ("cache.oversize_rejects", "serve.cache.oversize_rejects"),
    ("cache.entries", "serve.cache.entries"),
    ("cache.bytes", "serve.cache.bytes"),
    ("queue.depth", "serve.queue.depth"),
    ("queue.capacity", "serve.queue.capacity"),
    ("queue.rejected", "serve.queue.rejected"),
    ("engine.runs", "serve.engine.runs"),
    ("engine.failures", "serve.engine.failures"),
    ("requests", "serve.requests"),
    ("bad_requests", "serve.bad_requests"),
    ("degraded", "serve.degraded"),
];

/// `GET /counters`: [`COUNTERS_VIEW`] applied to one [`metrics_snapshot`].
fn counters_json(shared: &Shared) -> Json {
    let snap = metrics_snapshot(shared);
    let metric = |name: &str| {
        let counter = snap.counters.iter().find(|(n, _)| n == name);
        let gauge = snap.gauges.iter().find(|(n, _)| n == name);
        counter
            .map(|&(_, v)| Json::uint(v))
            .or(gauge.map(|&(_, v)| Json::Int(v.into())))
            .unwrap_or(Json::Null)
    };
    let mut doc = vec![("schema".to_string(), Json::str("nova-serve/1"))];
    for (path, name) in COUNTERS_VIEW {
        let value = metric(name);
        let Some((group, key)) = path.split_once('.') else {
            doc.push((path.to_string(), value));
            continue;
        };
        match doc.last_mut() {
            Some((g, Json::Obj(leaves))) if g == group => leaves.push((key.to_string(), value)),
            _ => doc.push((group.to_string(), Json::Obj(vec![(key.to_string(), value)]))),
        }
    }
    Json::Obj(doc)
}
