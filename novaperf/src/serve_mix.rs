//! The `serve-mix` workload: an in-process `nova_serve::serve` with
//! `workers = nproc`, driven in a closed loop by [`CLIENTS`] client, one
//! connection per request through `client::request`. Latencies are raw
//! wall times: a hit is mostly the accept loop's 10 ms sleep, which does
//! not follow the host's speed, so only the set-up is scaled.
//!
//! The seeded script shuffles three request classes in fixed proportions:
//! * hot: suite machines prewarmed into the cache during set-up (the read
//!   path); every hit body must equal the machine's first (miss) body;
//! * cold: unique small synthetic machines, each a miss that runs the
//!   engine and inserts into the cache (the write path);
//! * oversized: bodies over the 1 MiB cap, answered 413 before the engine.
//!
//! Every answer is checked against a local engine run, whose best
//! encoding the oracle checks; a traced run replays the hot machines and a
//! sample of the cold ones.

use crate::metrics::{Dist, Values};
use crate::replay::{self, Clock, Jobs, Replayed};
use crate::sweep::{self, ms};
use crate::{Params, RunResult};
use fsm::{Fsm, ScaleSpec, SplitMix64};
use nova_engine::{run_portfolio, EngineConfig, PortfolioReport};
use nova_serve::client::{self, RemoteResponse};
use nova_serve::http::MAX_BODY_BYTES;
use nova_serve::{serve, ServerConfig, ServerHandle};
use nova_trace::json::{self, Json};
use std::collections::BTreeSet;
use std::io::ErrorKind;
use std::time::Instant;

/// Suite machines served hot: small enough that prewarming them, once per
/// set-up repetition, stays well under a second.
const HOT: &[&str] = &[
    "bbtas", "beecount", "dk15", "dk17", "dk27", "lion", "modulo12", "shiftreg",
];
/// Closed-loop clients. One: with a client per core, requests that meet
/// in the engine doubled each other's latency at random, and the tails of
/// runs of the same code spread by more than half.
pub const CLIENTS: usize = 1;
/// Requests per second of `--seconds` the script holds; sized so that the
/// script, its set-up and its checks take about `--seconds` on a 2-core
/// host.
const SCRIPT_RATE: f64 = 80.0;
/// Shares of the script in percent: hot, cold, the rest oversized.
const HOT_PCT: usize = 70;
const COLD_PCT: usize = 20;
/// Generator seed of the cold machines, pinned so `area_sum` and
/// `cubes_sum` repeat exactly; the run seed orders the script.
const COLD_SEED: u64 = 0xc01d;
/// Cold machines a traced run replays, beside every hot machine.
const REPLAY_COLD: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot(usize),
    Cold(usize),
    Oversized,
}

impl Class {
    fn tag(self) -> &'static str {
        match self {
            Class::Hot(_) => "hot",
            Class::Cold(_) => "cold",
            Class::Oversized => "oversized",
        }
    }
}

/// A running server plus everything the script needs. Dropping it drains
/// and joins the server.
struct Setup {
    server: Option<ServerHandle>,
    addr: String,
    /// Hot machines: KISS body, parsed machine and first (miss) response.
    hot: Vec<(String, Fsm, String)>,
    /// Cold machines: KISS body and parsed machine.
    cold: Vec<(String, Fsm)>,
    oversized: Vec<u8>,
    script: Vec<Class>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(h) = self.server.take() {
            h.shutdown();
            h.join();
        }
    }
}

/// Parses a body the way the server does, so local reference runs see the
/// identical machine.
fn as_served(kiss: &str) -> Fsm {
    Fsm::parse_kiss_named("request", kiss).expect("generated KISS parses")
}

/// The request script: exact class counts in a seeded order.
fn script(seed: u64, requests: usize, hot: usize) -> Vec<Class> {
    let mut rng = SplitMix64::new(fsm::rng::mix(seed, 0x5e7e));
    let hot_n = requests * HOT_PCT / 100;
    let cold_n = requests * COLD_PCT / 100;
    let mut script: Vec<Class> = (0..hot_n)
        .map(|_| Class::Hot(rng.below(hot)))
        .chain((0..cold_n).map(Class::Cold))
        .chain((hot_n + cold_n..requests).map(|_| Class::Oversized))
        .collect();
    for i in (1..script.len()).rev() {
        script.swap(i, rng.below(i + 1));
    }
    script
}

fn set_up(p: &Params) -> Setup {
    let requests = if p.tiny {
        24
    } else {
        (p.seconds * SCRIPT_RATE) as usize
    };
    let hot_n = if p.tiny { 2 } else { HOT.len() };
    let script = script(p.seed, requests, hot_n);
    let cold_needed = script
        .iter()
        .filter(|c| matches!(c, Class::Cold(_)))
        .count();
    let hot: Vec<(String, Fsm)> = HOT[..hot_n]
        .iter()
        .map(|n| {
            let kiss = fsm::benchmarks::by_name(n)
                .expect("hot machine embedded")
                .fsm
                .to_kiss();
            let m = as_served(&kiss);
            (kiss, m)
        })
        .collect();
    // Distinct fingerprints keep every cold request a miss.
    let mut seen: BTreeSet<String> = hot.iter().map(|(_, m)| fsm::fingerprint(m)).collect();
    let spec = ScaleSpec {
        machines: 1 << 20,
        states: 5,
        inputs: 2,
        outputs: 2,
        seed: COLD_SEED,
        prefix: "cold".into(),
        ..ScaleSpec::default()
    };
    let mut cold = Vec::with_capacity(cold_needed);
    let mut i = 0;
    while cold.len() < cold_needed {
        let kiss = spec.machine(i).to_kiss();
        i += 1;
        let m = as_served(&kiss);
        if seen.insert(fsm::fingerprint(&m)) {
            cold.push((kiss, m));
        }
    }
    let oversized = vec![b'#'; MAX_BODY_BYTES + 1024];

    let handle = serve(ServerConfig {
        workers: p.nproc,
        ..ServerConfig::default()
    })
    .expect("bind the server on a free loopback port");
    let addr = handle.addr().to_string();
    let hot = hot
        .into_iter()
        .map(|(kiss, m)| {
            let r = post(&addr, kiss.as_bytes()).expect("prewarm request");
            assert!(
                r.status == 200 && !r.cache_hit(),
                "prewarm must be a 200 miss"
            );
            (kiss, m, r.body)
        })
        .collect();
    Setup {
        server: Some(handle),
        addr,
        hot,
        cold,
        oversized,
        script,
    }
}

fn post(addr: &str, body: &[u8]) -> Result<RemoteResponse, client::ClientError> {
    client::request(addr, "POST", "/encode", Some("text/plain"), body)
}

/// One answered (or failed) request.
struct Done {
    ordinal: usize,
    class: Class,
    start: Instant,
    end: Instant,
    status: Option<u16>,
    hit: bool,
    /// An oversized request refused by a connection reset instead of 413.
    reset: bool,
    /// Set when the response is not what the class expects.
    wrong: Option<String>,
    /// Cold bodies, checked after the traffic.
    body: Option<String>,
}

fn drive(s: &Setup, clients: usize) -> Vec<Done> {
    let mut done: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for ordinal in (c..s.script.len()).step_by(clients) {
                        let class = s.script[ordinal];
                        let body: &[u8] = match class {
                            Class::Hot(i) => s.hot[i].0.as_bytes(),
                            Class::Cold(i) => s.cold[i].0.as_bytes(),
                            Class::Oversized => &s.oversized,
                        };
                        let start = Instant::now();
                        let r = post(&s.addr, body);
                        let end = Instant::now();
                        out.push(check(ordinal, class, start, end, r, s));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    done.sort_by_key(|d| d.ordinal);
    done
}

fn check(
    ordinal: usize,
    class: Class,
    start: Instant,
    end: Instant,
    r: Result<RemoteResponse, client::ClientError>,
    s: &Setup,
) -> Done {
    let mut d = Done {
        ordinal,
        class,
        start,
        end,
        status: None,
        hit: false,
        reset: false,
        wrong: None,
        body: None,
    };
    let r = match r {
        Ok(r) => r,
        // The server answers 413 after reading only the headers and closes
        // with the body unread, so the kernel may reset the connection
        // before the client reads the answer. Either way the request was
        // refused before the engine ran.
        Err(client::ClientError::Io(e))
            if class == Class::Oversized
                && matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) =>
        {
            d.reset = true;
            return d;
        }
        Err(e) => {
            d.wrong = Some(format!("request {ordinal} ({}): {e}", class.tag()));
            return d;
        }
    };
    d.status = Some(r.status);
    d.hit = r.cache_hit();
    d.wrong = match class {
        Class::Hot(_) if r.status != 200 || !d.hit => Some("hot request not a 200 hit".into()),
        Class::Hot(i) if r.body != s.hot[i].2 => Some(format!(
            "hit body of {} differs from its first miss",
            HOT[i]
        )),
        Class::Cold(_) if r.status != 200 || d.hit => Some("cold request not a 200 miss".into()),
        Class::Oversized if r.status != 413 => Some("oversized body not answered 413".into()),
        _ => None,
    }
    .map(|w| format!("request {ordinal}: {w} (status {})", r.status));
    if matches!(class, Class::Cold(_)) {
        d.body = Some(r.body);
    }
    d
}

fn uint(j: Option<&Json>) -> Option<u64> {
    match j? {
        Json::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// The deterministic part of the machine entry of a `nova-bench/1`
/// document (best algorithm, area, cubes, and each run's algorithm,
/// outcome, area and cubes) plus the entry's wall in ms.
fn summary(doc: &Json) -> Option<(String, f64)> {
    let Some(Json::Arr(machines)) = doc.get("machines") else {
        return None;
    };
    let m = machines.first()?;
    let Some(Json::Arr(runs)) = m.get("runs") else {
        return None;
    };
    let mut out = format!(
        "{:?} {:?} {:?}",
        m.get("best"),
        m.get("area"),
        m.get("cubes")
    );
    for r in runs {
        out += &format!(
            " {:?}/{:?}/{:?}/{:?}",
            r.get("algorithm"),
            r.get("outcome"),
            r.get("area"),
            r.get("cubes")
        );
    }
    let wall = match m.get("wall_ms")? {
        Json::Float(w) => *w,
        Json::Int(w) => *w as f64,
        _ => return None,
    };
    Some((out, wall))
}

pub fn run(p: &Params) -> RunResult {
    let (setup, setup_time) = crate::timed_setup(|| set_up(p));
    let mut out = RunResult::default();
    let clients = CLIENTS;
    let clock = Clock::new();
    let t = Instant::now();
    let done = drive(&setup, clients);
    let wall = t.elapsed();
    let engine_runs = client::get_counters(&setup.addr)
        .ok()
        .and_then(|r| json::parse(&r.body).ok())
        .and_then(|c| uint(c.get("engine").and_then(|e| e.get("runs"))));
    // Only misses run the engine: each prewarm and each cold request.
    let distinct = (setup.hot.len() + setup.cold.len()) as u64;
    match engine_runs {
        None => out.problem("GET /counters failed".into()),
        Some(n) if n != distinct => out.problem(format!(
            "the engine ran {n} times for {distinct} distinct machines"
        )),
        Some(_) => {}
    }

    let mut errors = 0u64;
    for d in &done {
        if let Some(w) = &d.wrong {
            errors += 1;
            out.problem(w.clone());
        }
    }
    out.attempted = done.len() as u64;
    out.failed = errors;

    // Every distinct machine served, with its body: hot machines by their
    // first miss (every hit matched it), cold ones by their only answer.
    // Answers carry no codes, so a local batch sweep of the same machines
    // supplies the encodings the oracle checks, once each answer is shown
    // to match it.
    let mut bodies: Vec<Option<&str>> = setup.hot.iter().map(|h| Some(h.2.as_str())).collect();
    bodies.resize(setup.hot.len() + setup.cold.len(), None);
    for d in &done {
        if let (Class::Cold(i), Some(b)) = (d.class, &d.body) {
            bodies[setup.hot.len() + i] = Some(b);
        }
    }
    let corpus = sweep::Corpus::listed(
        setup
            .hot
            .iter()
            .enumerate()
            .map(|(i, (_, m, _))| (HOT[i].to_string(), m.clone()))
            .chain(
                setup
                    .cold
                    .iter()
                    .enumerate()
                    .map(|(i, (_, m))| (format!("cold-{i}"), m.clone())),
            )
            .collect(),
    );
    let local = sweep::sweep(sweep::Kind::Batch, &corpus, p.nproc, None).reports;
    let mut rows = Vec::with_capacity(local.len());
    for (rep, body) in local.iter().zip(&bodies) {
        let served = body
            .and_then(|b| json::parse(b).ok())
            .and_then(|doc| summary(&doc));
        let expected = summary(&nova_engine::suite_to_json(std::slice::from_ref(rep)));
        match served {
            Some((s, wall)) if Some(&s) == expected.as_ref().map(|e| &e.0) => {
                rows.push(sweep::machine_row(rep, wall))
            }
            _ => out.problem(format!(
                "answer for {} differs from a local engine run",
                rep.machine
            )),
        }
    }
    let q = sweep::quality(&corpus.machines, &local, p.seed);
    if q.verified != q.solved {
        out.problem(format!(
            "{} of {} best encodings failed simulation",
            q.solved - q.verified,
            q.solved
        ));
    }

    let lat = |pred: &dyn Fn(&Done) -> bool| -> Dist {
        let xs: Vec<f64> = done
            .iter()
            .filter(|d| pred(d))
            .map(|d| ms(d.end - d.start))
            .collect();
        Dist::of(&xs)
    };
    let all = lat(&|_| true);
    let misses = lat(&|d| matches!(d.class, Class::Cold(_)) && d.status == Some(200));
    let hits = lat(&|d| d.hit);
    let rejects = lat(&|d| d.status == Some(413) || d.reset);
    let encoded = done.iter().filter(|d| d.status == Some(200)).count();
    let secs = wall.as_secs_f64();
    let e = &mut out.e2e;
    e.insert("machines_per_s", encoded as f64 / secs);
    // A serve client's machine wall is a miss: the engine runs for it.
    e.insert("machine_wall_p50_ms", misses.p50);
    e.insert("machine_wall_tail_ms", misses.tail);
    e.insert("machine_wall_geomean_ms", misses.geomean);
    e.insert("area_sum", q.area as f64);
    e.insert("cubes_sum", q.cubes as f64);
    e.insert("solved_ratio", q.solved as f64 / local.len() as f64);
    e.insert("verified_ratio", q.verified as f64 / q.solved.max(1) as f64);
    e.insert("req_p50_ms", all.p50);
    e.insert("req_p99_ms", all.p99);
    e.insert("rps", done.len() as f64 / secs);
    e.insert("setup_s", setup_time.scaled_s);

    if p.trace {
        let mut rec = clock.recorder();
        for d in &done {
            rec.record("request", d.class.tag(), d.ordinal as u64, d.start, d.end);
        }
        // The server's engine runs one portfolio per miss at default
        // worker counts; the replay does the same on the sample.
        let sample = &corpus.machines[..setup.hot.len() + REPLAY_COLD.min(setup.cold.len())];
        let cfg = EngineConfig::default();
        let t = Instant::now();
        let reports: Vec<PortfolioReport> = sample
            .iter()
            .map(|(n, m)| run_portfolio(m, n, &cfg))
            .collect();
        let untraced = t.elapsed();
        let jobs = Jobs {
            portfolio: p.nproc,
            embed: 0,
            espresso: 0,
        };
        let t = Instant::now();
        let replayed: Vec<Vec<Replayed>> = sample
            .iter()
            .enumerate()
            .map(|(i, (_, m))| replay::replay_portfolio(m, i as u64, None, jobs, &mut rec))
            .collect();
        let traced = t.elapsed();
        for (rep, rp) in reports.iter().zip(&replayed) {
            let engine = sweep::replayed_view(rep);
            if engine.iter().zip(rp).any(|(a, b)| a.as_ref() != Some(b)) {
                out.problem(format!("replay of {} differs from the engine", rep.machine));
            }
        }
        let l: &mut Values = &mut out.layers;
        sweep::layer_values(l, &rec, &reports, untraced, traced);
        l.insert("serve.hit_p50_ms", hits.p50);
        l.insert("serve.hit_p99_ms", hits.p99);
        l.insert("serve.miss_p50_ms", misses.p50);
        l.insert("serve.miss_p99_ms", misses.p99);
        l.insert("serve.reject_p50_ms", rejects.p50);
        let resets = done.iter().filter(|d| d.reset).count();
        l.insert(
            "serve.reject_reset_ratio",
            resets as f64 / rejects.samples.max(1) as f64,
        );
        l.insert(
            "serve.cache_hit_ratio",
            hits.samples as f64 / encoded.max(1) as f64,
        );
        let shed = done.iter().filter(|d| d.status == Some(503)).count();
        l.insert("serve.shed_ratio", shed as f64 / done.len() as f64);
        l.insert("serve.engine_runs", engine_runs.unwrap_or(0) as f64);
        l.insert("error_ratio", errors as f64 / done.len() as f64);
        out.spans = rec.spans;
        out.detail
            .push(("replayed_machines".into(), Json::uint(sample.len() as u64)));
    }
    out.detail
        .push(("requests".into(), Json::uint(done.len() as u64)));
    out.detail
        .push(("clients".into(), Json::uint(clients as u64)));
    out.detail.push(("traffic_s".into(), Json::Float(secs)));
    out.detail
        .push(("raw_setup_s".into(), Json::Float(setup_time.raw_s)));
    out.detail.push(("req".into(), sweep::dist_json(&all)));
    out.detail
        .push(("machine_wall".into(), sweep::dist_json(&misses)));
    out.detail.push(("hit".into(), sweep::dist_json(&hits)));
    out.detail
        .push(("reject".into(), sweep::dist_json(&rejects)));
    out.detail.push(("machines".into(), Json::Arr(rows)));
    out
}
