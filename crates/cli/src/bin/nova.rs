//! `nova` — command-line state assignment, mirroring the original tool's
//! usage: read a KISS2 state transition table, encode the states, print the
//! encoding, statistics, and (optionally) the minimized encoded PLA.
//!
//! ```text
//! nova [-e ALG] [-b BITS] [-m] [-p] [-s] [--json] [--trace FILE] [FILE.kiss2 | -]
//! nova --portfolio [--timeout-ms N] [--budget N] [--jobs N] [--json] [--trace FILE] [FILE.kiss2 | -]
//! nova bench [--synthetic SPEC | --filter A,B] [--batch-jobs N] [--stream FILE|- [--resume]] [--bench-out FILE] [--timeout-ms N] [--budget N] [--jobs N] [--fault-plan SPEC] [--trace FILE [--trace-format chrome|jsonl]]
//! nova serve [--addr HOST:PORT] [--workers N] [--cache-entries N] [--cache-bytes N] [--queue-depth N] [--trace-dir DIR]
//! nova trace-report FILE.jsonl [--diff FILE2] [--threshold PCT]
//! nova --remote HOST:PORT [-e ALG | --portfolio] [-b BITS] [--budget N] [--timeout-ms N] [FILE.kiss2 | -]
//!
//!   -e ALG         encoding algorithm (default ihybrid)
//!   -b BITS        target code length (default: minimum)
//!   -m             state-minimize the machine first
//!   -p             print the minimized encoded PLA
//!   -s             print machine statistics only
//!   --json         emit the run report as JSON instead of text
//!   --portfolio    race all algorithms concurrently, keep the best area
//!   --timeout-ms   wall-clock deadline for the whole portfolio
//!   --budget N     deterministic node budget per algorithm
//!   --jobs N       portfolio worker threads, each running one algorithm
//!                  at a time (default: available parallelism)
//!   --trace FILE   write a structured trace of the run to FILE
//!   --trace-format chrome (default; open in Perfetto / chrome://tracing)
//!                  or jsonl (one event per line, schema nova-trace/1)
//!   --bench NAME   run on the embedded benchmark NAME instead of a file
//!   --fault-plan S arm a deterministic nova-chaos fault plan on every run:
//!                  "STAGE:NTH:KIND[,...]" (KIND: cancel|deadline|budget|
//!                  panic; STAGE "*" = any) or "seed:N" for a derived plan
//!   --remote A     send the machine to a resident `nova serve` at A
//!                  instead of encoding in-process; prints the service's
//!                  nova-bench/1 JSON response
//!
//!   bench          sweep a corpus (default: the embedded benchmark suite)
//!                  through the batch engine, one portfolio per machine:
//!   --filter A,B   sweep only the named embedded machines (comma-separated)
//!   --synthetic S  sweep a generated scale corpus instead of the embedded
//!                  suite; S is a comma-separated ScaleSpec, e.g.
//!                  "machines=1000,states=16,inputs=4,outputs=4,seed=7"
//!                  (keys: machines states inputs outputs density reducible
//!                  family=random|kstage seed prefix)
//!   --batch-jobs N worker threads sweeping machines (0 = one per core;
//!                  default 1). Report content is identical at any count.
//!   --stream F     write the sweep as nova-bench-stream/1 JSONL to F
//!                  ("-" = stdout): a header line (corpus, machines,
//!                  batch_jobs), one line per machine as it completes (with
//!                  each run's metrics under --trace), and a throughput
//!                  summary (tallies, wall_ms, machines_per_sec) — constant
//!                  memory, use this for large corpora. BENCH_SCALE.jsonl
//!                  is its first and last lines
//!   --resume       make the --stream file the sweep's crash-safe record:
//!                  no wall-clock fields or metrics, a header bound to the
//!                  corpus and the options, fsync'd every 16 lines. Run the
//!                  same command again after a crash: the machine lines the
//!                  file holds are kept, only the rest are swept, and the
//!                  file ends byte-identical to an uninterrupted run at any
//!                  --batch-jobs. A file written for another corpus, under
//!                  other options or without --resume is refused (exit 2)
//!                  and left unchanged
//!   --bench-out F  write the whole sweep as one nova-bench/1 report to F
//!                  (accumulated in memory, so prefer --stream at scale)
//!   (--timeout-ms, --budget, --jobs, --fault-plan, --trace and
//!    --trace-format as for --portfolio, applied to every machine's
//!    portfolio; --timeout-ms is the only wall-clock limit. Each machine
//!    runs once: one whose portfolio crashes is quarantined, and the sweep
//!    still completes and exits 0, listing it in the stream summary's
//!    quarantine section. Output files are created up front: an unwritable
//!    path fails fast with exit 4 before any machine runs.)
//!
//!   serve          run the resident encoding service (see nova-serve):
//!   --addr A       bind address (default 127.0.0.1:7171; port 0 = any)
//!   --workers N    request workers (default: available parallelism)
//!   --cache-entries N  result-cache entry bound (default 4096)
//!   --cache-bytes N    result-cache byte bound (default 64 MiB)
//!   --queue-depth N    admission queue bound; beyond it requests get 503
//!                      (default 64)
//!   --trace-dir DIR    write one nova-trace/1 JSONL per /encode request
//!                      into DIR (req-<request id>.jsonl)
//!
//!   trace-report   analyze a nova-trace/1 JSONL trace offline: span tree
//!                  with total/self wall time, per-stage aggregation, and
//!                  histogram quantiles
//!   --diff FILE2   compare per-stage totals against FILE2 — either a
//!                  second nova-trace/1 trace or a committed nova-bench/1
//!                  report (BENCH_*.json); exits 1 when any stage slowed
//!                  beyond the threshold
//!   --threshold P  slowdown tolerance for --diff, in percent (default 25)
//! ```
//!
//! Reads stdin when no file is given or the file is `-`.
//!
//! Exit codes: 0 success (including a degraded anytime result), 1 no result
//! (unsolved / timeout / failed / server overloaded), 2 usage error, 3 KISS2
//! parse error (or request the server rejected), 4 I/O error (or server
//! unreachable), 5 unknown embedded benchmark. The README tables map these
//! onto the service's HTTP statuses.

use espresso::FaultPlan;
use fsm::minimize_states::minimize_states;
use fsm::Fsm;
use nova_core::driver::Algorithm;
use nova_engine::{run_one, run_portfolio, EngineConfig};
use nova_trace::json::Json;
use nova_trace::Tracer;
use std::io::Read as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// No algorithm produced a usable result (unsolved / timeout / failed).
const EXIT_NO_RESULT: u8 = 1;
/// Bad command line (unknown flag, bad value, inconsistent mode).
const EXIT_USAGE: u8 = 2;
/// The input KISS2 text did not parse.
const EXIT_PARSE: u8 = 3;
/// An input or output file could not be read / written.
const EXIT_IO: u8 = 4;
/// `--bench` / `bench --filter` named a benchmark the suite does not embed.
const EXIT_UNKNOWN_BENCH: u8 = 5;

fn usage() -> ! {
    let algs: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
    eprintln!(
        "usage: nova [-e ALG] [-b BITS] [-m] [-p] [-s] [--json] [--trace FILE [--trace-format chrome|jsonl]] [--bench NAME] [--fault-plan SPEC] [--remote ADDR] [FILE.kiss2 | -]\n\
         \u{20}      nova --portfolio [--timeout-ms N] [--budget N] [--jobs N] [--json] [--trace FILE] [--fault-plan SPEC] [FILE.kiss2 | -]\n\
         \u{20}      nova bench [--synthetic SPEC | --filter A,B] [--batch-jobs N] [--stream FILE|- [--resume]] [--bench-out FILE] [--timeout-ms N] [--budget N] [--jobs N] [--fault-plan SPEC] [--trace FILE [--trace-format chrome|jsonl]]\n\
         \u{20}      nova serve [--addr HOST:PORT] [--workers N] [--cache-entries N] [--cache-bytes N] [--queue-depth N] [--trace-dir DIR]\n\
         \u{20}      nova trace-report FILE.jsonl [--diff FILE2] [--threshold PCT]\n\
         ALG: {} (or onehot)",
        algs.join(" | ")
    );
    std::process::exit(EXIT_USAGE as i32);
}

/// Trace sink format selected by `--trace-format`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum TraceFormat {
    /// Chrome trace-event JSON (default): one document, Perfetto-loadable.
    #[default]
    Chrome,
    /// `nova-trace/1` JSONL: one event per line.
    Jsonl,
}

fn parse_algorithm(s: &str) -> Algorithm {
    s.parse().unwrap_or_else(|_| usage())
}

/// The value following a flag, or a usage error when it is missing.
fn value(rest: &mut dyn Iterator<Item = String>) -> String {
    rest.next().unwrap_or_else(|| usage())
}

/// The numeric value following a flag, or a usage error.
fn num(rest: &mut dyn Iterator<Item = String>) -> u64 {
    rest.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage())
}

/// The options the single-machine parser and `nova bench` share: the
/// engine's limits, the fault plan and the session trace.
#[derive(Default)]
struct RunOpts {
    timeout_ms: Option<u64>,
    budget: Option<u64>,
    jobs: usize,
    fault_plan: Option<FaultPlan>,
    trace: Option<String>,
    trace_format: TraceFormat,
}

impl RunOpts {
    /// Takes `flag` (and its value from `rest`) when it is a shared option;
    /// returns `false` to leave it to the caller's own flags.
    fn parse_flag(&mut self, flag: &str, rest: &mut dyn Iterator<Item = String>) -> bool {
        match flag {
            "--timeout-ms" => self.timeout_ms = Some(num(rest)),
            "--budget" => self.budget = Some(num(rest)),
            "--jobs" => self.jobs = num(rest) as usize,
            "--fault-plan" => {
                let spec = value(rest);
                match FaultPlan::parse(&spec) {
                    Ok(plan) => self.fault_plan = Some(plan),
                    Err(e) => {
                        eprintln!("nova: bad --fault-plan {spec:?}: {e}");
                        std::process::exit(EXIT_USAGE as i32);
                    }
                }
            }
            "--trace" => self.trace = Some(value(rest)),
            "--trace-format" => {
                self.trace_format = match rest.next().as_deref() {
                    Some("chrome") => TraceFormat::Chrome,
                    Some("jsonl") => TraceFormat::Jsonl,
                    _ => usage(),
                }
            }
            _ => return false,
        }
        true
    }

    /// The session tracer: enabled only when `--trace` asked for a file.
    fn tracer(&self) -> Tracer {
        if self.trace.is_some() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        }
    }

    fn engine_config(&self, tracer: &Tracer) -> EngineConfig {
        EngineConfig {
            jobs: self.jobs,
            timeout: self.timeout_ms.map(Duration::from_millis),
            node_budget: self.budget,
            tracer: tracer.clone(),
            fault_plan: self.fault_plan.clone(),
            ..EngineConfig::default()
        }
    }
}

struct Args {
    algorithm: Algorithm,
    bits: Option<u32>,
    state_minimize: bool,
    print_pla: bool,
    stats_only: bool,
    json: bool,
    portfolio: bool,
    run: RunOpts,
    bench: Option<String>,
    remote: Option<String>,
    file: Option<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut out = Args {
        algorithm: Algorithm::IHybrid,
        bits: None,
        state_minimize: false,
        print_pla: false,
        stats_only: false,
        json: false,
        portfolio: false,
        run: RunOpts::default(),
        bench: None,
        remote: None,
        file: None,
    };
    let mut args = argv.iter().cloned();
    while let Some(a) = args.next() {
        if out.run.parse_flag(&a, &mut args) {
            continue;
        }
        match a.as_str() {
            "-e" => out.algorithm = parse_algorithm(&value(&mut args)),
            "-b" => out.bits = Some(num(&mut args) as u32),
            "-m" => out.state_minimize = true,
            "-p" => out.print_pla = true,
            "-s" => out.stats_only = true,
            "--json" => out.json = true,
            "--portfolio" => out.portfolio = true,
            "--bench" => out.bench = Some(value(&mut args)),
            "--remote" => out.remote = Some(value(&mut args)),
            "-h" | "--help" => usage(),
            // An explicit `-` names stdin, so `... | nova -` and piping into
            // a remote server share one spelling.
            "-" => out.file = Some("-".to_string()),
            other if !other.starts_with('-') => out.file = Some(other.to_string()),
            _ => usage(),
        }
    }
    out
}

fn engine_config(args: &Args, tracer: &Tracer) -> EngineConfig {
    EngineConfig {
        target_bits: args.bits,
        ..args.run.engine_config(tracer)
    }
}

/// Writes the session trace into `file` in `format`.
fn write_trace_to(
    tracer: &Tracer,
    format: TraceFormat,
    file: std::fs::File,
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(file);
    match format {
        TraceFormat::Chrome => tracer.write_chrome(&mut w)?,
        TraceFormat::Jsonl => tracer.write_jsonl(&mut w)?,
    }
    w.flush()
}

/// Writes the session trace to `--trace` in the selected format. Returns
/// `false` (after printing a diagnostic) when the file cannot be written.
fn write_trace(args: &Args, tracer: &Tracer) -> bool {
    let Some(path) = &args.run.trace else {
        return true;
    };
    match std::fs::File::create(path).and_then(|f| write_trace_to(tracer, args.run.trace_format, f))
    {
        Ok(()) => true,
        Err(e) => {
            eprintln!("nova: cannot write trace {path}: {e}");
            false
        }
    }
}

fn print_portfolio_text(report: &nova_engine::PortfolioReport) {
    println!(
        "# portfolio on {} ({:.1} ms)",
        report.machine,
        report.wall.as_secs_f64() * 1e3
    );
    for run in &report.runs {
        match run.outcome.result() {
            Some(r) => println!(
                "#   {:<10} {:>2} bits {:>4} cubes area {:>7} lits {:>4}  ({:.1} ms, work {})",
                run.algorithm.name(),
                r.bits,
                r.cubes,
                r.area,
                r.literals,
                run.wall.as_secs_f64() * 1e3,
                run.counters.work,
            ),
            None if run.outcome.degradation().is_some() => {
                let d = run.outcome.degradation().expect("checked");
                println!(
                    "#   {:<10} degraded ({}, {} bits via {})  ({:.1} ms, work {})",
                    run.algorithm.name(),
                    d.reason.tag(),
                    d.encoding.bits(),
                    d.source,
                    run.wall.as_secs_f64() * 1e3,
                    run.counters.work,
                )
            }
            None => println!(
                "#   {:<10} {}  ({:.1} ms, work {})",
                run.algorithm.name(),
                run.outcome.tag(),
                run.wall.as_secs_f64() * 1e3,
                run.counters.work,
            ),
        }
    }
    match report.best() {
        Some((i, best)) => println!(
            "# best: {} with area {}",
            report.runs[i].algorithm.name(),
            best.area
        ),
        None => match report.best_degraded() {
            Some((i, d)) => println!(
                "# best: none finished; degraded fallback from {} ({}, {} bits)",
                report.runs[i].algorithm.name(),
                d.reason.tag(),
                d.encoding.bits(),
            ),
            None => println!("# best: none (no algorithm finished)"),
        },
    }
}

fn print_counters_text(c: &espresso::RunCounters) {
    println!(
        "# counters: work {} faces {} backtracks {} espresso-iters {} cubes {}->{}",
        c.work, c.faces_tried, c.backtracks, c.espresso_iterations, c.cubes_in, c.cubes_out
    );
}

fn read_machine(args: &Args) -> Result<Fsm, ExitCode> {
    if let Some(name) = &args.bench {
        let Some(b) = fsm::benchmarks::by_name(name) else {
            eprintln!("nova: unknown embedded benchmark {name:?}");
            return Err(ExitCode::from(EXIT_UNKNOWN_BENCH));
        };
        let mut machine = b.fsm;
        if args.state_minimize {
            let r = minimize_states(&machine);
            if r.merged > 0 {
                eprintln!("nova: state minimization removed {} states", r.merged);
            }
            machine = r.fsm;
        }
        return Ok(machine);
    }
    let text = match args.file.as_deref() {
        Some(path) if path != "-" => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("nova: cannot read {path}: {e}");
                return Err(ExitCode::from(EXIT_IO));
            }
        },
        _ => {
            let mut t = String::new();
            if std::io::stdin().read_to_string(&mut t).is_err() {
                eprintln!("nova: cannot read stdin");
                return Err(ExitCode::from(EXIT_IO));
            }
            t
        }
    };
    let name = args
        .file
        .as_deref()
        .filter(|p| *p != "-")
        .and_then(|p| p.rsplit('/').next())
        .map(|p| p.trim_end_matches(".kiss2"))
        .unwrap_or("stdin");
    let mut machine = match Fsm::parse_kiss_named(name, &text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("nova: {e}");
            return Err(ExitCode::from(EXIT_PARSE));
        }
    };
    if args.state_minimize {
        let r = minimize_states(&machine);
        if r.merged > 0 {
            eprintln!("nova: state minimization removed {} states", r.merged);
        }
        machine = r.fsm;
    }
    Ok(machine)
}

/// `nova bench`, the one sweep entry point: sweep a corpus (embedded suite,
/// optionally `--filter`ed, or a `--synthetic` scale spec) through the batch
/// engine, optionally streaming JSONL (`nova-bench-stream/1`) so memory
/// stays constant at any corpus size. With `--resume` the stream file is
/// the sweep's crash-safe record, and rerunning the command after a crash
/// continues it.
fn bench_main(argv: &[String]) -> ExitCode {
    let mut synthetic: Option<fsm::ScaleSpec> = None;
    let mut filter: Vec<String> = Vec::new();
    let mut batch_jobs = 1usize;
    let mut stream: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut run = RunOpts::default();
    let mut resume = false;
    let mut it = argv.iter().cloned();
    while let Some(a) = it.next() {
        if run.parse_flag(&a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--synthetic" => {
                let spec = value(&mut it);
                match fsm::ScaleSpec::parse(&spec) {
                    Ok(s) => synthetic = Some(s),
                    Err(e) => {
                        eprintln!("nova: bad --synthetic {spec:?}: {e}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
            "--filter" => filter = value(&mut it).split(',').map(str::to_string).collect(),
            "--batch-jobs" => batch_jobs = num(&mut it) as usize,
            "--stream" => stream = Some(value(&mut it)),
            "--resume" => resume = true,
            "--bench-out" => bench_out = Some(value(&mut it)),
            _ => usage(),
        }
    }
    if synthetic.is_some() && !filter.is_empty() {
        eprintln!("nova: --synthetic and --filter are mutually exclusive");
        return ExitCode::from(EXIT_USAGE);
    }
    if resume {
        if stream.as_deref().is_none_or(|p| p == "-") {
            eprintln!(
                "nova: --resume requires --stream FILE: the stream file is the record it resumes"
            );
            return ExitCode::from(EXIT_USAGE);
        }
        if bench_out.is_some() {
            eprintln!("nova: --resume cannot rebuild a full --bench-out document (resumed machines keep only their stream lines)");
            return ExitCode::from(EXIT_USAGE);
        }
    }
    for name in &filter {
        if fsm::benchmarks::by_name(name).is_none() {
            eprintln!("nova: unknown embedded benchmark '{name}'");
            return ExitCode::from(EXIT_UNKNOWN_BENCH);
        }
    }
    let suite;
    let src: &dyn nova_engine::MachineSource = match &synthetic {
        Some(spec) => spec,
        None => {
            suite = nova_engine::SuiteSource::filtered(&filter);
            &suite
        }
    };
    let tracer = run.tracer();
    let cfg = run.engine_config(&tracer);
    let bcfg = nova_engine::BatchConfig {
        batch_jobs,
        ..nova_engine::BatchConfig::default()
    };

    // Every output file is opened before the sweep starts: a 100k-machine
    // run must not discover an unwritable path at the finish line, and a
    // bad path must exit 4 (I/O), never panic. With no `--stream` the lines
    // go to a sink, which still keeps the tallies.
    let create = |path: &str| -> Result<std::fs::File, ExitCode> {
        std::fs::File::create(path).map_err(|e| {
            eprintln!("nova: cannot write {path}: {e}");
            ExitCode::from(EXIT_IO)
        })
    };
    let bench_out_file = match bench_out.as_deref().map(create) {
        Some(Ok(f)) => Some(f),
        Some(Err(code)) => return code,
        None => None,
    };
    let trace_file = match run.trace.as_deref().map(create) {
        Some(Ok(f)) => Some(f),
        Some(Err(code)) => return code,
        None => None,
    };
    let keep = bench_out_file.is_some();
    let swept = match stream.as_deref() {
        Some(path) if resume => {
            // Every option that can change a machine line: a file written
            // under others would not continue byte-identically.
            let options = format!(
                "budget={:?} timeout_ms={:?} fault_plan={}",
                run.budget,
                run.timeout_ms,
                cfg.fault_plan
                    .as_ref()
                    .map(|p| p.to_spec())
                    .unwrap_or_else(|| "-".into()),
            );
            match nova_engine::StreamWriter::resume(std::path::Path::new(path), src, &options) {
                Ok(sw) => {
                    if sw.resumed() > 0 {
                        eprintln!(
                            "nova: resuming at machine {} of {}",
                            sw.resumed(),
                            src.len()
                        );
                    }
                    sweep(src, &cfg, &bcfg, sw, keep)
                }
                Err(nova_engine::ResumeError::Io(e)) => {
                    eprintln!("nova: cannot write {path}: {e}");
                    return ExitCode::from(EXIT_IO);
                }
                Err(nova_engine::ResumeError::Mismatch(why)) => {
                    eprintln!(
                        "nova: {path} is not the record of this sweep ({why}); left unchanged"
                    );
                    return ExitCode::from(EXIT_USAGE);
                }
            }
        }
        path => {
            let w: Box<dyn std::io::Write + Send> = match path {
                Some("-") => Box::new(std::io::BufWriter::new(std::io::stdout())),
                Some(path) => match create(path) {
                    Ok(f) => Box::new(std::io::BufWriter::new(f)),
                    Err(code) => return code,
                },
                None => Box::new(std::io::sink()),
            };
            let workers = nova_engine::effective_jobs(batch_jobs);
            nova_engine::StreamWriter::new(w, &src.describe(), src.len(), workers)
                .and_then(|sw| sweep(src, &cfg, &bcfg, sw, keep))
        }
    };
    let swept = match swept {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nova: cannot write stream: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    if let Some(mut f) = bench_out_file {
        let doc = nova_engine::suite_to_json_timed(&swept.kept, swept.wall);
        if let Err(e) = f.write_all(doc.to_pretty().as_bytes()) {
            eprintln!(
                "nova: cannot write {}: {e}",
                bench_out.as_deref().unwrap_or("?")
            );
            return ExitCode::from(EXIT_IO);
        }
    }
    if let Some(f) = trace_file {
        if let Err(e) = write_trace_to(&tracer, run.trace_format, f) {
            eprintln!(
                "nova: cannot write trace {}: {e}",
                run.trace.as_deref().unwrap_or("?")
            );
            return ExitCode::from(EXIT_IO);
        }
    }
    // The human-facing throughput line goes to stderr so `--stream -` keeps
    // stdout pure JSONL. Resumed machines never ran in this process, so the
    // throughput counts only the machines it swept.
    let resumed = if resume {
        format!(" (+{} resumed)", swept.resumed)
    } else {
        String::new()
    };
    let tally = swept.tally;
    eprintln!(
        "nova: swept {} machines{resumed} in {:.1} ms ({:.1} machines/sec): {} solved, {} degraded, {} unresolved",
        swept.machines,
        swept.wall.as_secs_f64() * 1e3,
        nova_engine::throughput(swept.machines, swept.wall),
        tally.solved,
        tally.degraded,
        tally.unresolved
    );
    // A quarantined machine is a completed sweep, not a failed one: the
    // stream carries the details, stderr just flags it, and the exit code
    // stays 0 so long sweeps don't lose their output to one bad machine.
    if tally.quarantined > 0 {
        eprintln!(
            "nova: quarantined {} machine(s); see the stream's quarantine section",
            tally.quarantined
        );
    }
    ExitCode::SUCCESS
}

/// What one `nova bench` sweep did.
struct Swept {
    /// Machines run by this process.
    machines: usize,
    /// Machines the resumed stream already held.
    resumed: usize,
    /// Outcome tallies over every machine of the stream, resumed ones too.
    tally: nova_engine::StreamTally,
    /// This run's reports, when `--bench-out` wants them.
    kept: Vec<nova_engine::PortfolioReport>,
    wall: Duration,
}

/// Sweeps `src` from the first machine `sw` does not hold yet, writing
/// every line to `sw`, and keeps the reports when `keep` is set (only the
/// in-memory `nova-bench/1` document needs them; a streamed sweep stays
/// O(window)).
fn sweep<W: std::io::Write + Send>(
    src: &dyn nova_engine::MachineSource,
    cfg: &EngineConfig,
    bcfg: &nova_engine::BatchConfig,
    mut sw: nova_engine::StreamWriter<W>,
    keep: bool,
) -> std::io::Result<Swept> {
    let resumed = sw.resumed();
    let mut kept = Vec::new();
    let mut line_err = None;
    let started = std::time::Instant::now();
    let report = nova_engine::run_batch_resumable(src, cfg, bcfg, resumed, &mut |_, rep, q| {
        if let Err(e) = sw.report(&rep, q) {
            line_err.get_or_insert(e);
        }
        if keep {
            kept.push(rep);
        }
    });
    let wall = started.elapsed();
    let (tally, _) = sw.finish()?;
    if let Some(e) = line_err {
        return Err(e);
    }
    Ok(Swept {
        machines: report.machines,
        resumed,
        tally,
        kept,
        wall,
    })
}

/// `nova serve`: run the resident encoding service until SIGTERM/ctrl-c,
/// then drain and exit 0.
fn serve_main(args: &[String]) -> ExitCode {
    let mut cfg = nova_serve::ServerConfig {
        addr: "127.0.0.1:7171".into(),
        ..nova_serve::ServerConfig::default()
    };
    let mut it = args.iter();
    let num =
        |v: Option<&String>| -> usize { v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()) };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--workers" => cfg.workers = num(it.next()),
            "--cache-entries" => cfg.cache.max_entries = num(it.next()),
            "--cache-bytes" => cfg.cache.max_bytes = num(it.next()),
            "--queue-depth" => cfg.queue_depth = num(it.next()),
            "--trace-dir" => {
                cfg.trace_dir = Some(it.next().cloned().unwrap_or_else(|| usage()).into())
            }
            _ => usage(),
        }
    }
    nova_serve::shutdown::install();
    let addr = cfg.addr.clone();
    let handle = match nova_serve::serve(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("nova: cannot serve on {addr}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    // The address line is the startup handshake scripts wait for (port 0
    // resolves here), so flush it through any pipe buffering. Best-effort
    // writes: a consumer that closes stdout after the first line must not
    // bring the whole service down with a broken-pipe panic.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "# nova-serve listening on http://{}", handle.addr());
    let _ = writeln!(
        out,
        "#   POST /encode (KISS2) | GET /counters | GET /metrics | GET /healthz"
    );
    let _ = out.flush();
    // The server stops only through its handle, so this otherwise idle
    // thread watches the SIGTERM/SIGINT flag; the poll is off the request
    // path.
    while !nova_serve::shutdown::signalled() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
    handle.join();
    eprintln!("nova: serve drained cleanly");
    ExitCode::SUCCESS
}

/// `nova trace-report`: offline analysis of a `nova-trace/1` JSONL trace,
/// with an optional `--diff` against a second trace or a committed
/// `nova-bench/1` baseline. Exits 1 only when the diff finds a regression.
fn trace_report_main(args: &[String]) -> ExitCode {
    use nova_trace::report;
    let mut file: Option<String> = None;
    let mut diff_path: Option<String> = None;
    let mut threshold = 25.0_f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--diff" => diff_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| usage())
            }
            "-h" | "--help" => usage(),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = file else { usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("nova: cannot read {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let doc = match report::TraceDoc::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("nova: {path}: {e}");
            return ExitCode::from(EXIT_PARSE);
        }
    };
    print!("{}", doc.render_report());
    let Some(diff_path) = diff_path else {
        return ExitCode::SUCCESS;
    };
    let base_text = match std::fs::read_to_string(&diff_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("nova: cannot read {diff_path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    // The baseline is auto-detected: a nova-bench/1 report contributes its
    // stages_ms totals, anything else must be a second nova-trace/1 trace.
    let base_totals = match report::bench_baseline_totals(&base_text) {
        Ok(totals) => totals,
        Err(_) => match report::TraceDoc::parse(&base_text) {
            Ok(d) => d.stage_totals(),
            Err(e) => {
                eprintln!("nova: {diff_path}: neither nova-bench/1 nor nova-trace/1: {e}");
                return ExitCode::from(EXIT_PARSE);
            }
        },
    };
    let regressions = report::diff(&base_totals, &doc.stage_totals(), threshold);
    print!("{}", report::render_diff(&regressions, threshold));
    if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_NO_RESULT)
    }
}

/// `--remote`: ship the machine to a resident service and print its
/// nova-bench/1 response, mapping HTTP statuses onto the CLI exit codes.
fn remote_main(addr: &str, machine: &Fsm, args: &Args) -> ExitCode {
    let options = nova_serve::EncodeOptions {
        algorithms: if args.portfolio {
            Algorithm::ALL.to_vec()
        } else {
            vec![args.algorithm]
        },
        bits: args.bits,
        budget: args.run.budget,
        timeout_ms: args.run.timeout_ms,
        jobs: args.run.jobs,
        fault_plan: args.run.fault_plan.clone(),
    };
    // A 503 (the server's admission queue is full) is retried, up to 3
    // tries, after the server's Retry-After; an unreachable server still
    // fails fast.
    let resp =
        match nova_serve::client::post_kiss_retry(addr, &machine.to_kiss(), &options.to_query()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("nova: --remote {addr}: {e}");
                return ExitCode::from(EXIT_IO);
            }
        };
    if resp.status != 200 {
        eprintln!(
            "nova: --remote {addr}: {}: {}",
            nova_serve::client::status_line(resp.status),
            resp.body.trim()
        );
        return ExitCode::from(nova_serve::client::status_exit_code(resp.status));
    }
    println!("{}", resp.body);
    // Mirror the local exit contract: a completed or degraded encoding is
    // success; a report where nothing finished is "no result".
    let has_result = nova_trace::json::parse(&resp.body)
        .ok()
        .and_then(|doc| match doc.get("machines") {
            Some(Json::Arr(machines)) => machines.first().map(|m| {
                m.get("best").is_some_and(|b| *b != Json::Null) || m.get("degraded").is_some()
            }),
            _ => None,
        })
        .unwrap_or(false);
    if has_result {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_NO_RESULT)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("bench") {
        return bench_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("serve") {
        return serve_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("trace-report") {
        return trace_report_main(&argv[1..]);
    }
    let args = parse_args(&argv);
    let tracer = args.run.tracer();

    // Client mode: the machine is encoded by a resident nova-serve.
    if let Some(addr) = args.remote.clone() {
        let machine = match read_machine(&args) {
            Ok(m) => m,
            Err(code) => return code,
        };
        return remote_main(&addr, &machine, &args);
    }

    let machine = match read_machine(&args) {
        Ok(m) => m,
        Err(code) => return code,
    };

    if args.portfolio {
        let cfg = engine_config(&args, &tracer);
        let report = run_portfolio(&machine, machine.name(), &cfg);
        if args.json {
            println!("{}", report.to_json().to_pretty());
        } else {
            print_portfolio_text(&report);
            let encoding = report
                .best()
                .map(|(_, best)| &best.encoding)
                .or_else(|| report.best_degraded().map(|(_, d)| &d.encoding));
            if let Some(encoding) = encoding {
                println!("# codes:");
                for (s, sname) in machine.state_names().iter().enumerate() {
                    println!(
                        ".code {} {:0width$b}",
                        sname,
                        encoding.code(fsm::StateId(s)),
                        width = encoding.bits()
                    );
                }
            }
        }
        if !write_trace(&args, &tracer) {
            return ExitCode::from(EXIT_IO);
        }
        return if report.best().is_some() || report.best_degraded().is_some() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(EXIT_NO_RESULT)
        };
    }

    if !args.json {
        println!(
            "# {}: {} states, {} inputs, {} outputs, {} rows",
            machine.name(),
            machine.num_states(),
            machine.num_inputs(),
            machine.num_outputs(),
            machine.num_transitions()
        );
    }
    if args.stats_only {
        let ics = nova_core::extract_input_constraints(&machine);
        println!("# minimized symbolic cover: {} terms", ics.mv_cover_size);
        for c in &ics.constraints {
            println!(
                "# constraint {} weight {}",
                c.set.to_vector_string(machine.num_states()),
                c.weight
            );
        }
        return ExitCode::SUCCESS;
    }

    // Single runs go through the engine for stage times, counters and the
    // tracer — one telemetry path for every mode.
    let algo_run = run_one(&machine, args.algorithm, &engine_config(&args, &tracer));
    if args.json {
        let mut pairs = vec![("machine".into(), Json::str(machine.name()))];
        if let Json::Obj(rest) = algo_run.to_json() {
            pairs.extend(rest);
        }
        println!("{}", Json::Obj(pairs).to_pretty());
        if !write_trace(&args, &tracer) {
            return ExitCode::from(EXIT_IO);
        }
        return if algo_run.outcome.result().is_some() || algo_run.outcome.degradation().is_some() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(EXIT_NO_RESULT)
        };
    }

    if let Some(d) = algo_run.outcome.degradation() {
        println!(
            "# algorithm {}: degraded anytime result ({}, {} bits via {})",
            args.algorithm.name(),
            d.reason.tag(),
            d.encoding.bits(),
            d.source
        );
        print_counters_text(&algo_run.counters);
        println!("# codes:");
        for (s, sname) in machine.state_names().iter().enumerate() {
            println!(
                ".code {} {:0width$b}",
                sname,
                d.encoding.code(fsm::StateId(s)),
                width = d.encoding.bits()
            );
        }
        if !write_trace(&args, &tracer) {
            return ExitCode::from(EXIT_IO);
        }
        return ExitCode::SUCCESS;
    }

    let Some(result) = algo_run.outcome.result() else {
        eprintln!(
            "nova: {} {} on this machine",
            args.algorithm.name(),
            algo_run.outcome.tag()
        );
        return ExitCode::from(EXIT_NO_RESULT);
    };
    println!(
        "# algorithm {}: {} bits, {} cubes, area {}, {} factored literals",
        args.algorithm.name(),
        result.bits,
        result.cubes,
        result.area,
        result.literals
    );
    print_counters_text(&algo_run.counters);
    println!("# codes:");
    for (s, sname) in machine.state_names().iter().enumerate() {
        println!(
            ".code {} {:0width$b}",
            sname,
            result.encoding.code(fsm::StateId(s)),
            width = result.bits
        );
    }

    if args.print_pla {
        let mut pla = fsm::encode::encode(&machine, &result.encoding);
        pla.on = espresso::minimize(&pla.on, &pla.dc);
        print!(
            "{}",
            espresso::pla::write_pla(&pla.on, &espresso::Cover::empty(pla.on.space().clone()))
        );
    }
    if !write_trace(&args, &tracer) {
        return ExitCode::from(EXIT_IO);
    }
    ExitCode::SUCCESS
}
