//! nova-perf: the seeded, layered benchmark of the NOVA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path novaperf/Cargo.toml -- \
//!     --workload suite-sweep|synth-portfolio|serve-mix --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path novaperf/Cargo.toml -- --self-check
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) replays the same work stage by stage through the
//! public layer functions and prints the per-layer metrics, writing its
//! spans to `novaperf/out/`. No run uses a wall-clock deadline, so every
//! outcome, area and cube count repeats exactly. The last stdout line is
//! the result object; the line before it is the full report (host, worker
//! counts, tail percentiles with sample counts, one row per machine).
//!
//! Each sweep run makes at least three untraced passes; a machine's wall
//! is its median over its runs in all passes and a batch sweep's wall the
//! median pass, so a stall that hits one pass moves no figure. Set-up
//! repeats at least seven times and for at least two seconds, and reports
//! its median. Machine walls, sweep walls and set-up times are reported at
//! a nominal host speed measured by a calibration kernel next to the work
//! (see `calibrate`); the raw figures stay in the report line. Serve
//! latencies are raw. The synthetic and cold-machine generator seeds are
//! pinned: the run seed orders the work and draws the oracle's walks, so
//! area and cube sums repeat exactly. Tail latencies spread too far between
//! runs of the same code on a shared host to carry a bound, so only a
//! traced run prints them, beside the layers.

mod calibrate;
mod metrics;
mod oracle;
mod replay;
mod serve_mix;
mod sweep;

use metrics::{Values, END_TO_END, PER_LAYER};
use nova_trace::json::{self, Json};
use replay::Span;
use std::process::ExitCode;
use std::time::Instant;
use sweep::Kind;

const WORKLOADS: &[&str] = &["suite-sweep", "synth-portfolio", "serve-mix"];
/// Set-up repeats at least `SETUP_MIN_REPS` times and until
/// `SETUP_MIN_SECS` have passed (at most `SETUP_MAX_REPS`); `setup_s` is
/// the median, so a sub-millisecond set-up is timed over many repeats.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 200;
const SETUP_MIN_SECS: f64 = 2.0;

/// What a run was asked to do.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The self-check's tiny corpora and script.
    pub tiny: bool,
    pub nproc: usize,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct RunResult {
    pub e2e: Values,
    pub layers: Values,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub detail: Vec<(String, Json)>,
    pub spans: Vec<Span>,
}

impl RunResult {
    pub fn problem(&mut self, p: String) {
        eprintln!("novaperf: {p}");
        self.problems.push(p);
    }
}

/// A set-up's median time, raw and at the nominal host speed.
pub struct SetupTime {
    pub raw_s: f64,
    pub scaled_s: f64,
}

/// Builds the run's fixture repeatedly and keeps the last one, returning
/// it with the median build time. Earlier fixtures are dropped outside the
/// timed region, and the calibration kernel is sampled between builds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, SetupTime) {
    let log = calibrate::SpeedLog::new();
    let mut spans = Vec::new();
    let mut kept = None;
    log.sample();
    while spans.len() < SETUP_MIN_REPS
        || (spans.len() < SETUP_MAX_REPS
            && spans.iter().map(|(a, b)| b - a).sum::<f64>() < SETUP_MIN_SECS)
    {
        drop(kept.take());
        let t = Instant::now();
        let v = build();
        let end = Instant::now();
        spans.push((log.at(t), log.at(end)));
        log.sample();
        kept = Some(v);
    }
    let raw: Vec<f64> = spans.iter().map(|(a, b)| b - a).collect();
    let scaled: Vec<f64> = spans
        .iter()
        .map(|&(a, b)| calibrate::scale(b - a, log.kernel_ms(a, b)))
        .collect();
    let time = SetupTime {
        raw_s: metrics::median(&raw),
        scaled_s: metrics::median(&scaled),
    };
    (kept.expect("at least one set-up"), time)
}

fn run_workload(name: &str, p: &Params) -> RunResult {
    let mut r = match name {
        "suite-sweep" => sweep::run(Kind::Batch, p, p.nproc),
        "synth-portfolio" => sweep::run(Kind::Portfolio, p, 1),
        "serve-mix" => serve_mix::run(p),
        _ => unreachable!("workload names are validated"),
    };
    r.e2e.insert("peak_rss_mib", metrics::peak_rss_mib());
    if p.trace {
        // Tails spread too far between runs of the same code on a shared
        // host to carry a bound, so they are reported with the layers.
        for name in metrics::TAILS {
            let v = r.e2e.get(name).copied().unwrap_or(0.0);
            r.layers.insert(name, v);
        }
        for (n, _) in PER_LAYER {
            r.layers.entry(n).or_insert(0.0);
        }
    }
    r
}

/// The worker counts in effect for a workload.
fn workers(name: &str, nproc: usize) -> Json {
    let (batch, inner) = match name {
        // run_batch forces every inner layer sequential above one worker.
        "suite-sweep" if nproc > 1 => (nproc, 1),
        "suite-sweep" => (1, nproc),
        _ => (0, nproc),
    };
    let mut pairs = vec![
        ("nproc".into(), Json::uint(nproc as u64)),
        ("batch_jobs".into(), Json::uint(batch as u64)),
        ("portfolio_jobs".into(), Json::uint(inner as u64)),
        ("embed_jobs".into(), Json::uint(inner as u64)),
        ("espresso_jobs".into(), Json::uint(inner as u64)),
    ];
    if name == "serve-mix" {
        pairs.push(("server_workers".into(), Json::uint(nproc as u64)));
        pairs.push(("clients".into(), Json::uint(serve_mix::CLIENTS as u64)));
    }
    Json::Obj(pairs)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn host() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("cpu".into(), Json::str(cpu)),
        (
            "rustc".into(),
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("commit".into(), Json::str(commit)),
    ])
}

fn metrics_json(values: &Values, table: &[(&'static str, &'static str)]) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|(name, unit)| {
                let v = *values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(v)),
                        ("unit".into(), Json::str(*unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.iter().any(|a| a == "--self-check") {
        return self_check(nproc);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str);
        match (flag.as_str(), value) {
            ("--workload", Some(v)) if WORKLOADS.contains(&v) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some("0")) => trace = Some(false),
            ("--trace", Some("1")) => trace = Some(true),
            _ => return usage(&format!("bad argument {flag} {}", value.unwrap_or(""))),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let p = Params {
        seed,
        seconds,
        trace,
        tiny: false,
        nproc,
    };
    let r = run_workload(&workload, &p);
    let mut report = vec![
        ("schema".into(), Json::str("nova-perf/1")),
        ("workload".into(), Json::str(&workload)),
        ("seed".into(), Json::uint(seed)),
        ("seconds".into(), Json::Float(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("host".into(), host()),
        ("workers".into(), workers(&workload, nproc)),
        (
            "problems".into(),
            Json::Arr(r.problems.iter().map(Json::str).collect()),
        ),
    ];
    report.extend(r.detail.iter().cloned());
    let (table, values) = if trace {
        let path = std::path::PathBuf::from(format!("novaperf/out/spans-{workload}-{seed}.jsonl"));
        match replay::write_spans(&path, &r.spans) {
            Ok(()) => report.push(("spans".into(), Json::str(path.display().to_string()))),
            Err(e) => eprintln!("novaperf: cannot write {}: {e}", path.display()),
        }
        (PER_LAYER, &r.layers)
    } else {
        (END_TO_END, &r.e2e)
    };
    println!("{}", Json::Obj(report).to_compact());
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(r.problems.is_empty())),
        ("attempted".into(), Json::uint(r.attempted)),
        ("failed".into(), Json::uint(r.failed)),
        ("metrics".into(), metrics_json(values, table)),
    ]);
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("novaperf: {msg}");
    eprintln!(
        "usage: novaperf --workload {} --seed N --seconds S --trace 0|1\n       novaperf --self-check",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Names and units of one `BENCHMARK.json` metric list.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        return Vec::new();
    };
    items
        .iter()
        .map(|m| {
            let s = |k| match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                _ => String::new(),
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Fast self-check: every workload on a tiny corpus, untraced and traced,
/// must emit every catalogued metric and pass its own checks; the quality
/// sums of a batch sweep must not depend on the batch worker count; and
/// `BENCHMARK.json` must list exactly the catalogued metrics.
fn self_check(nproc: usize) -> ExitCode {
    let mut failures = Vec::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            let p = Params {
                seed: 7,
                seconds: 0.1,
                trace,
                tiny: true,
                nproc,
            };
            let r = run_workload(w, &p);
            let (table, values) = if trace {
                (PER_LAYER, &r.layers)
            } else {
                (END_TO_END, &r.e2e)
            };
            for (name, _) in table {
                if !values.get(name).is_some_and(|v| v.is_finite()) {
                    failures.push(format!("{w} (trace {trace}): {name} not measured"));
                }
            }
            for p in &r.problems {
                failures.push(format!("{w} (trace {trace}): {p}"));
            }
            eprintln!("novaperf: self-check {w} trace={trace} done");
        }
    }
    let corpus = sweep::Corpus::suite(true);
    let sums = |jobs| {
        let pass = sweep::sweep(Kind::Batch, &corpus, jobs, None);
        let q = sweep::quality(&corpus.machines, &pass.reports, 7);
        (q.area, q.cubes)
    };
    let (one, many) = (sums(1), sums(nproc));
    if one != many {
        failures.push(format!(
            "area/cubes sums {one:?} at batch_jobs 1 but {many:?} at {nproc}"
        ));
    }
    match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(doc) => {
            for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
                let want: Vec<(String, String)> = table
                    .iter()
                    .map(|(n, u)| (n.to_string(), u.to_string()))
                    .collect();
                if listed(&doc, key) != want {
                    failures.push(format!(
                        "BENCHMARK.json {key} differs from the emitted metrics"
                    ));
                }
            }
            let names: Vec<String> = listed(&doc, "workloads")
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            if names != WORKLOADS {
                failures.push(format!(
                    "BENCHMARK.json workloads {names:?} differ from {WORKLOADS:?}"
                ));
            }
        }
        Err(e) => failures.push(format!("BENCHMARK.json: {e}")),
    }
    let ok = failures.is_empty();
    let summary = Json::Obj(vec![
        (
            "self_check".into(),
            Json::str(if ok { "ok" } else { "failed" }),
        ),
        (
            "area_cubes_at_1_and_nproc".into(),
            Json::Arr(vec![Json::uint(one.0), Json::uint(one.1)]),
        ),
        (
            "failures".into(),
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
    ]);
    println!("{}", summary.to_compact());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
