//! The resident encoding server.
//!
//! ## Request lifecycle
//!
//! 1. The **accept loop** (one thread) polls a non-blocking listener. Each
//!    accepted connection is admitted into a bounded queue; when the queue
//!    is full the connection is answered `503` + `Retry-After` immediately
//!    — overload sheds load at the door instead of stacking latency.
//! 2. A **worker** (one of `--workers` threads) pops the connection, parses
//!    the HTTP request, and routes it. `POST /encode` bodies are parsed
//!    into an [`fsm::Fsm`] (KISS2 or machine JSON), fingerprinted
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
//! ## Shutdown
//!
//! SIGTERM/ctrl-c (via [`crate::shutdown`]) or [`ServerHandle::shutdown`]
//! stops the accept loop, wakes the workers, and lets them drain every
//! already-admitted connection before exiting; [`ServerHandle::join`]
//! returns once the last in-flight run has been answered.

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::cache::{CacheConfig, ResultCache};
use crate::http::{parse_query, Request, RequestError, Response};
use crate::shutdown;
use crate::wire::{machine_from_json, EncodeOptions};
use fsm::Fsm;
use nova_engine::{effective_jobs, run_portfolio, suite_to_json, Outcome};
use nova_trace::json::Json;
use nova_trace::sink::format_request_id;
use nova_trace::{prom, MetricsSnapshot, Tracer};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
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
    /// A full queue answers `503` with `Retry-After`.
    pub queue_depth: usize,
    /// Session tracer: `serve.*` counters land here (and per-run engine
    /// telemetry via forks). Defaults to disabled, which costs one atomic
    /// load per counter — the `/counters` endpoint is fed by the always-on
    /// plain atomics below, so a disabled tracer loses nothing.
    pub tracer: Tracer,
    /// Seed for request-id minting (SplitMix64 over the admission ordinal).
    /// The default is fixed, so a test that restarts a server sees the same
    /// id sequence.
    pub seed: u64,
    /// When set, every `/encode` request runs under its own enabled tracer
    /// and writes one `nova-trace/1` JSONL file
    /// (`req-<request id>.jsonl`) into this directory.
    pub trace_dir: Option<PathBuf>,
    /// Circuit breaker in front of the engine pool: a run of engine
    /// failures trips it open and `/encode` sheds with `503` until a probe
    /// succeeds. `/healthz` reports the `tripped` state.
    pub breaker: BreakerConfig,
    /// Memory-pressure admission bound: total request-body bytes in flight
    /// across workers. Beyond it `/encode` sheds with `503` *before*
    /// parsing — cheaper than letting the cache LRU thrash under a burst
    /// of giant machines. `0` disables the bound.
    pub max_inflight_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            cache: CacheConfig::default(),
            queue_depth: 64,
            tracer: Tracer::disabled(),
            seed: 0x6e6f_7661_2d37_0001, // "nova-7" — any fixed value works
            trace_dir: None,
            breaker: BreakerConfig::default(),
            max_inflight_bytes: 32 << 20,
        }
    }
}

/// Always-on service counters (the `/counters` endpoint and the smoke
/// tests read these; the tracer carries the same names when enabled).
#[derive(Debug, Default)]
struct ServeStats {
    requests: AtomicU64,
    engine_runs: AtomicU64,
    rejected: AtomicU64,
    bad_requests: AtomicU64,
    degraded: AtomicU64,
    /// Engine runs that produced a `Failed` outcome (what feeds the
    /// breaker's failure window).
    engine_failures: AtomicU64,
    /// `/encode` requests shed by the open breaker.
    breaker_rejected: AtomicU64,
    /// `/encode` requests shed by the in-flight byte budget.
    shed_bytes: AtomicU64,
}

/// One admitted connection: the stream plus the request id minted at the
/// door and the admission timestamp (queue wait = admission → pop).
struct Admitted {
    stream: TcpStream,
    id: u64,
    at: Instant,
}

/// The bounded connection queue: admission control for the whole service.
struct Queue {
    inner: Mutex<VecDeque<Admitted>>,
    ready: Condvar,
    depth: usize,
    closing: AtomicBool,
}

impl Queue {
    fn new(depth: usize) -> Queue {
        Queue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth,
            closing: AtomicBool::new(false),
        }
    }

    /// Admits a connection, or returns it back when the queue is full.
    fn push(&self, adm: Admitted) -> Result<usize, Admitted> {
        let mut q = lock(&self.inner);
        if q.len() >= self.depth {
            return Err(adm);
        }
        q.push_back(adm);
        let depth = q.len();
        drop(q);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Pops the next connection; `None` once the queue is closing *and*
    /// drained — the worker-exit condition.
    fn pop(&self) -> Option<Admitted> {
        let mut q = lock(&self.inner);
        loop {
            if let Some(s) = q.pop_front() {
                return Some(s);
            }
            if self.closing.load(Ordering::Acquire) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
    }

    fn close(&self) {
        self.closing.store(true, Ordering::Release);
        self.ready.notify_all();
    }

    fn len(&self) -> usize {
        lock(&self.inner).len()
    }
}

/// State shared between the accept loop, the workers, and the handle.
struct Shared {
    cfg: ServerConfig,
    cache: Mutex<ResultCache>,
    queue: Queue,
    stats: ServeStats,
    stop: AtomicBool,
    /// Service start time, for `/healthz` uptime.
    started: Instant,
    /// Admission ordinal feeding the request-id mint.
    admissions: AtomicU64,
    /// Always-enabled metrics-only tracer behind `/metrics`: the latency
    /// histograms land here regardless of the session tracer (which stays
    /// disabled by default). No spans are ever recorded on it, so its cost
    /// is one short mutex lock per observation.
    expo: Tracer,
    /// Circuit breaker gating engine runs (not cache hits).
    breaker: CircuitBreaker,
    /// Request-body bytes currently held by workers, for the
    /// memory-pressure admission tier.
    inflight_bytes: AtomicU64,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || shutdown::signalled()
    }
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`] (or send the
/// process SIGTERM) for a graceful drain.
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
    /// already admitted.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the accept loop and every worker to finish draining.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Snapshot of the `/counters` document (also what the endpoint
    /// serves), for in-process tests and embedders.
    pub fn counters(&self) -> Json {
        counters_json(&self.shared)
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
    listener.set_nonblocking(true)?;
    let workers = effective_jobs(cfg.workers);
    let shared = Arc::new(Shared {
        cache: Mutex::new(ResultCache::new(cfg.cache)),
        queue: Queue::new(cfg.queue_depth.max(1)),
        stats: ServeStats::default(),
        stop: AtomicBool::new(false),
        started: Instant::now(),
        admissions: AtomicU64::new(0),
        expo: Tracer::enabled(),
        breaker: CircuitBreaker::new(cfg.breaker.clone()),
        inflight_bytes: AtomicU64::new(0),
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

/// Non-blocking accept with a shutdown poll every 10 ms: the only way a
/// std-only server can watch a signal flag while accepting.
fn accept_loop(listener: TcpListener, shared: &Shared) {
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => admit(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Stop accepting, let the workers drain what was admitted.
    shared.queue.close();
}

/// Mints the request id for admission `n` under `seed`: random access into
/// the canonical SplitMix64 stream ([`fsm::rng::mix`]), so ids are
/// deterministic per server instance yet well-mixed. `0` is reserved for
/// "no id".
fn mint_request_id(seed: u64, n: u64) -> u64 {
    fsm::rng::mix(seed, n).max(1)
}

fn admit(stream: TcpStream, shared: &Shared) {
    let tracer = &shared.cfg.tracer;
    let n = shared.admissions.fetch_add(1, Ordering::Relaxed);
    let adm = Admitted {
        stream,
        id: mint_request_id(shared.cfg.seed, n),
        at: Instant::now(),
    };
    match shared.queue.push(adm) {
        Ok(depth) => {
            tracer.gauge("serve.queue.depth", depth as i64);
        }
        Err(adm) => {
            // Overload: shed at the door with a hint to come back. The
            // request is drained first (under a short timeout) so the
            // close does not RST the client before it reads the 503.
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            tracer.incr("serve.reject", 1);
            let mut stream = adm.stream;
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
            if let Ok(reader) = stream.try_clone() {
                let _ = Request::read_from(&mut BufReader::new(reader));
            }
            let body = Json::Obj(vec![
                ("error".into(), Json::str("overloaded")),
                (
                    "queue_depth".into(),
                    Json::uint(shared.cfg.queue_depth as u64),
                ),
            ]);
            let _ = Response::json(503, body.to_pretty())
                .with_header("Retry-After", "1")
                .with_header("X-Nova-Request-Id", format_request_id(adm.id))
                .write_to(&mut stream);
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(adm) = shared.queue.pop() {
        shared
            .cfg
            .tracer
            .gauge("serve.queue.depth", shared.queue.len() as i64);
        shared
            .expo
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
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let response = match Request::read_from(&mut reader) {
        Ok(req) => Some(route(&req, shared, id)),
        Err(RequestError::Bad(msg)) => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            Some(error_response(400, &msg))
        }
        Err(RequestError::TooLarge(n)) => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
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
        .expo
        .observe("serve.request.latency_us", at.elapsed().as_micros() as u64);
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
/// regardless of the breaker, a tripped breaker matters more than a full
/// queue (the queue recovers by itself), and everything else is `ok`.
fn health_state(shared: &Shared) -> &'static str {
    if shared.stopping() {
        "draining"
    } else if shared.breaker.tripped() {
        "tripped"
    } else if shared.queue.len() >= shared.cfg.queue_depth {
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
        ("breaker".into(), Json::str(shared.breaker.state_tag())),
        ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
        (
            "uptime_ms".into(),
            Json::uint(shared.started.elapsed().as_millis() as u64),
        ),
    ])
}

/// Parses the request body into a machine: KISS2 text unless the request
/// declares `Content-Type: application/json`, in which case the pre-parsed
/// machine shape of [`crate::wire::machine_to_json`] is expected.
fn parse_machine(req: &Request) -> Result<Fsm, String> {
    let body = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    let is_json = req.header("content-type").is_some_and(|t| {
        t.split(';')
            .next()
            .is_some_and(|t| t.trim() == "application/json")
    });
    if is_json {
        let doc = nova_trace::json::parse(body).map_err(|e| format!("machine JSON: {e}"))?;
        machine_from_json(&doc)
    } else {
        Fsm::parse_kiss_named("request", body).map_err(|e| e.to_string())
    }
}

/// RAII release of one request's in-flight byte reservation: taken before
/// any early return can happen, released on every path out.
struct InflightReservation<'a> {
    shared: &'a Shared,
    bytes: u64,
}

impl Drop for InflightReservation<'_> {
    fn drop(&mut self) {
        self.shared
            .inflight_bytes
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

fn handle_encode(req: &Request, shared: &Shared, id: u64) -> Response {
    let tracer = &shared.cfg.tracer;

    // Memory-pressure tier: reserve this request's body bytes against the
    // global in-flight budget and shed *before* parsing when a burst of
    // large machines would otherwise force the cache LRU to thrash.
    let body_bytes = req.body.len() as u64;
    let budget = shared.cfg.max_inflight_bytes;
    let reserved = shared
        .inflight_bytes
        .fetch_add(body_bytes, Ordering::Relaxed)
        + body_bytes;
    let _inflight = InflightReservation {
        shared,
        bytes: body_bytes,
    };
    if budget > 0 && reserved > budget {
        shared.stats.shed_bytes.fetch_add(1, Ordering::Relaxed);
        tracer.incr("serve.shed.bytes", 1);
        return error_response(503, "memory pressure: too many request bytes in flight")
            .with_header("Retry-After", "1");
    }

    let options = match EncodeOptions::from_query(&parse_query(&req.query)) {
        Ok(o) => o,
        Err(e) => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            return error_response(400, &e.to_string());
        }
    };
    let machine = match parse_machine(req) {
        Ok(m) => m,
        Err(msg) => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            return error_response(400, &msg);
        }
    };
    let fp = fsm::fingerprint(&machine);
    let key = options.cache_key(&fp);

    if options.cacheable() {
        let lookup = Instant::now();
        let hit = lock(&shared.cache).get(&key);
        shared
            .expo
            .observe("serve.cache.lookup_us", lookup.elapsed().as_micros() as u64);
        if let Some(body) = hit {
            tracer.incr("serve.cache.hit", 1);
            return Response::json(200, body.as_slice().to_vec())
                .with_header("X-Nova-Cache", "hit")
                .with_header("X-Nova-Fingerprint", fp);
        }
        tracer.incr("serve.cache.miss", 1);
    }

    // Miss (or uncacheable): this request needs an engine run, so it goes
    // through the circuit breaker. Cache hits above bypass it — serving
    // frozen bytes is safe even with a poisoned engine pool.
    match shared.breaker.admit(Instant::now()) {
        Admission::Reject { retry_after_secs } => {
            shared
                .stats
                .breaker_rejected
                .fetch_add(1, Ordering::Relaxed);
            tracer.incr("serve.breaker.reject", 1);
            return error_response(503, "engine circuit breaker is open")
                .with_header("Retry-After", retry_after_secs.to_string());
        }
        Admission::Allow | Admission::Probe => {}
    }

    // With a trace dir configured, the run gets its own request-scoped
    // session tracer — every span in the emitted JSONL carries this
    // request's id — otherwise it forks off the (usually disabled)
    // session tracer as before.
    shared.stats.engine_runs.fetch_add(1, Ordering::Relaxed);
    tracer.incr("serve.engine.run", 1);
    let request_tracer = shared.cfg.trace_dir.as_ref().map(|_| {
        let t = Tracer::enabled();
        t.set_request_id(id);
        t
    });
    let cfg = options.engine_config(request_tracer.as_ref().unwrap_or(tracer));
    let run_started = Instant::now();
    let report = run_portfolio(&machine, machine.name(), &cfg);
    shared.expo.observe(
        "serve.engine.run_us",
        run_started.elapsed().as_micros() as u64,
    );
    if let (Some(dir), Some(rt)) = (&shared.cfg.trace_dir, &request_tracer) {
        write_request_trace(dir, id, rt);
    }
    // Feed the breaker: a `Failed` run means the engine itself broke (a
    // panic contained by the portfolio, not a timeout or degradation).
    let failed = report
        .runs
        .iter()
        .any(|r| matches!(r.outcome, Outcome::Failed(_)));
    if failed {
        shared.stats.engine_failures.fetch_add(1, Ordering::Relaxed);
        tracer.incr("serve.engine.failure", 1);
    }
    shared.breaker.record(!failed, Instant::now());
    let deterministic = report
        .runs
        .iter()
        .all(|r| matches!(r.outcome, Outcome::Done(_) | Outcome::Unsolved));
    if report
        .runs
        .iter()
        .any(|r| matches!(r.outcome, Outcome::Degraded(_)))
    {
        shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
        tracer.incr("serve.degraded", 1);
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

/// The Prometheus exposition source: the always-on latency histograms from
/// the exposition tracer, plus every `/counters` atomic re-expressed as a
/// properly named counter or gauge.
fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    let mut snap = shared.expo.metrics_snapshot();
    let (cache_stats, entries, bytes) = {
        let cache = lock(&shared.cache);
        (cache.stats(), cache.len(), cache.bytes())
    };
    let s = &shared.stats;
    snap.counters.extend([
        (
            "serve.requests".to_string(),
            s.requests.load(Ordering::Relaxed),
        ),
        (
            "serve.bad_requests".to_string(),
            s.bad_requests.load(Ordering::Relaxed),
        ),
        (
            "serve.engine.runs".to_string(),
            s.engine_runs.load(Ordering::Relaxed),
        ),
        (
            "serve.degraded".to_string(),
            s.degraded.load(Ordering::Relaxed),
        ),
        (
            "serve.queue.rejected".to_string(),
            s.rejected.load(Ordering::Relaxed),
        ),
        (
            "serve.engine.failures".to_string(),
            s.engine_failures.load(Ordering::Relaxed),
        ),
        (
            "serve.breaker.rejected".to_string(),
            s.breaker_rejected.load(Ordering::Relaxed),
        ),
        (
            "serve.shed.bytes".to_string(),
            s.shed_bytes.load(Ordering::Relaxed),
        ),
        ("serve.cache.hits".to_string(), cache_stats.hits),
        ("serve.cache.misses".to_string(), cache_stats.misses),
        ("serve.cache.insertions".to_string(), cache_stats.insertions),
        ("serve.cache.evictions".to_string(), cache_stats.evictions),
        (
            "serve.cache.oversize_rejects".to_string(),
            cache_stats.oversize_rejects,
        ),
    ]);
    snap.gauges.extend([
        ("serve.cache.entries".to_string(), entries as i64),
        ("serve.cache.bytes".to_string(), bytes as i64),
        ("serve.queue.depth".to_string(), shared.queue.len() as i64),
        (
            "serve.queue.capacity".to_string(),
            shared.cfg.queue_depth as i64,
        ),
        (
            "serve.uptime_ms".to_string(),
            shared.started.elapsed().as_millis() as i64,
        ),
        (
            "serve.breaker.tripped".to_string(),
            shared.breaker.tripped() as i64,
        ),
        (
            "serve.inflight.bytes".to_string(),
            shared.inflight_bytes.load(Ordering::Relaxed) as i64,
        ),
    ]);
    snap
}

fn counters_json(shared: &Shared) -> Json {
    let (cache_stats, entries, bytes) = {
        let cache = lock(&shared.cache);
        (cache.stats(), cache.len(), cache.bytes())
    };
    let s = &shared.stats;
    Json::Obj(vec![
        ("schema".into(), Json::str("nova-serve/1")),
        (
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::uint(cache_stats.hits)),
                ("misses".into(), Json::uint(cache_stats.misses)),
                ("insertions".into(), Json::uint(cache_stats.insertions)),
                ("evictions".into(), Json::uint(cache_stats.evictions)),
                (
                    "oversize_rejects".into(),
                    Json::uint(cache_stats.oversize_rejects),
                ),
                ("entries".into(), Json::uint(entries as u64)),
                ("bytes".into(), Json::uint(bytes as u64)),
            ]),
        ),
        (
            "queue".into(),
            Json::Obj(vec![
                ("depth".into(), Json::uint(shared.queue.len() as u64)),
                ("capacity".into(), Json::uint(shared.cfg.queue_depth as u64)),
                (
                    "rejected".into(),
                    Json::uint(s.rejected.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "engine".into(),
            Json::Obj(vec![
                (
                    "runs".into(),
                    Json::uint(s.engine_runs.load(Ordering::Relaxed)),
                ),
                (
                    "failures".into(),
                    Json::uint(s.engine_failures.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "breaker".into(),
            Json::Obj(vec![
                ("state".into(), Json::str(shared.breaker.state_tag())),
                (
                    "rejected".into(),
                    Json::uint(s.breaker_rejected.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "shed".into(),
            Json::Obj(vec![
                (
                    "bytes_rejected".into(),
                    Json::uint(s.shed_bytes.load(Ordering::Relaxed)),
                ),
                (
                    "inflight_bytes".into(),
                    Json::uint(shared.inflight_bytes.load(Ordering::Relaxed)),
                ),
                (
                    "max_inflight_bytes".into(),
                    Json::uint(shared.cfg.max_inflight_bytes),
                ),
            ]),
        ),
        (
            "requests".into(),
            Json::uint(s.requests.load(Ordering::Relaxed)),
        ),
        (
            "bad_requests".into(),
            Json::uint(s.bad_requests.load(Ordering::Relaxed)),
        ),
        (
            "degraded".into(),
            Json::uint(s.degraded.load(Ordering::Relaxed)),
        ),
    ])
}
