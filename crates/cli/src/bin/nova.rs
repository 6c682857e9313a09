//! `nova` — command-line state assignment, mirroring the original tool's
//! usage: read a KISS2 state transition table, encode the states, print the
//! encoding, statistics, and (optionally) the minimized encoded PLA.
//!
//! ```text
//! nova [-e ALG | --portfolio] [-b BITS] [-m] [-p | --json] [--timeout-ms N] [--budget N] [--jobs N] [--fault-plan SPEC] [--trace FILE [--trace-format chrome|jsonl]] [--bench NAME] [FILE.kiss2 | -]
//! nova -s [-m] [--bench NAME] [FILE.kiss2 | -]
//! nova --remote HOST:PORT [-e ALG | --portfolio] [-b BITS] [-m] [--json] [--timeout-ms N] [--budget N] [--fault-plan SPEC] [--bench NAME] [FILE.kiss2 | -]
//! nova bench [--synthetic SPEC | --filter A,B] [--batch-jobs N] [--stream FILE|- [--resume]] [--timeout-ms N] [--budget N] [--jobs N] [--fault-plan SPEC] [--trace FILE [--trace-format chrome|jsonl]]
//! nova serve [--addr HOST:PORT] [--workers N] [--cache-entries N] [--cache-bytes N] [--queue-depth N] [--trace-dir DIR]
//! nova trace-report FILE.jsonl [--diff FILE2] [--threshold PCT]
//!
//!   -e ALG         run one encoding algorithm (default ihybrid)
//!   --portfolio    race all algorithms concurrently, keep the best area
//!   -b BITS        target code length (default: minimum)
//!   -m             state-minimize the machine first
//!   -p             also print the winning run's minimized encoded PLA
//!   -s             print machine statistics only
//!   --json         print the run as a nova-bench/1 JSON document (the
//!                  one --remote prints) instead of text
//!   --timeout-ms   wall-clock deadline for the whole run
//!   --budget N     deterministic node budget per algorithm
//!   --jobs N       worker threads, each running one algorithm at a time
//!                  (default: available parallelism; a server runs every
//!                  request at its own count, so --remote refuses it)
//!   --trace FILE   write a structured trace of the run to FILE, whether
//!                  or not any algorithm finishes
//!   --trace-format chrome (default; open in Perfetto / chrome://tracing)
//!                  or jsonl (one event per line, schema nova-trace/1)
//!   --bench NAME   run on the embedded benchmark NAME instead of a file
//!   --fault-plan S arm a deterministic nova-chaos fault plan on every run:
//!                  "STAGE:NTH:KIND[,...]" (KIND: cancel|deadline|budget|
//!                  panic; STAGE "*" = any) or "seed:N" for a derived plan
//!   --remote A     send the machine to a resident `nova serve` at A
//!                  instead of encoding in-process; pretty-prints the
//!                  service's nova-bench/1 answer under the machine's local
//!                  name, the document --json prints for the same run
//!
//!   A run is a portfolio: `-e ALG` races one algorithm, `--portfolio` all
//!   nine, locally or through --remote alike. Both print one text report:
//!   the machine line, `# portfolio on`, each run's `# algorithm` and
//!   `# counters` lines, `# best:` and the winner's `# codes:` (a degraded
//!   anytime result's codes when no run finished), then, with -p, the
//!   completed winner's minimized PLA. When no run leaves an encoding, one
//!   stderr line names how each ended. Refused before any input is read
//!   (exit 2), since one flag would silently drop the other: -s with a run
//!   flag (-e, -b, --timeout-ms, --budget, --jobs, --fault-plan) or with
//!   --json, -p, --portfolio, --remote or --trace; -p with --json; -e with
//!   --portfolio; --remote with -p, --trace or --jobs; --trace-format
//!   without --trace (in nova bench too).
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
//!   --stream F     write the sweep's one report, nova-bench-stream/1
//!                  JSONL, to F ("-" = stdout) in constant memory: a header
//!                  (corpus, machines, batch_jobs), one line per machine as
//!                  it completes (its nova-bench/1 machine object, with each
//!                  run's metrics under --trace, plus a fingerprint), and a
//!                  throughput summary (tallies, wall_ms, machines_per_sec).
//!                  BENCH_SCALE.jsonl is its first and last lines
//!   --resume       make the --stream file the sweep's crash-safe record:
//!                  no wall-clock fields or metrics, a header bound to the
//!                  corpus and the options, fsync'd every 16 lines. Run the
//!                  same command again after a crash: the machine lines the
//!                  file holds are kept, only the rest are swept, and the
//!                  file ends byte-identical to an uninterrupted run at any
//!                  --batch-jobs. A file written for another corpus, under
//!                  other options or without --resume is refused (exit 2)
//!                  and left unchanged
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
//!   --diff FILE2   compare per-stage totals against FILE2, a second
//!                  nova-trace/1 trace; exits 1 when any stage slowed
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
use nova_engine::{run_portfolio, suite_to_json, EngineConfig, Outcome, PortfolioReport};
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
        "usage: nova [-e ALG | --portfolio] [-b BITS] [-m] [-p | --json] [--timeout-ms N] [--budget N] [--jobs N] [--fault-plan SPEC] [--trace FILE [--trace-format chrome|jsonl]] [--bench NAME] [FILE.kiss2 | -]\n\
         \u{20}      nova -s [-m] [--bench NAME] [FILE.kiss2 | -]\n\
         \u{20}      nova --remote ADDR [-e ALG | --portfolio] [-b BITS] [-m] [--json] [--timeout-ms N] [--budget N] [--fault-plan SPEC] [--bench NAME] [FILE.kiss2 | -]\n\
         \u{20}      nova bench [--synthetic SPEC | --filter A,B] [--batch-jobs N] [--stream FILE|- [--resume]] [--timeout-ms N] [--budget N] [--jobs N] [--fault-plan SPEC] [--trace FILE [--trace-format chrome|jsonl]]\n\
         \u{20}      nova serve [--addr HOST:PORT] [--workers N] [--cache-entries N] [--cache-bytes N] [--queue-depth N] [--trace-dir DIR]\n\
         \u{20}      nova trace-report FILE.jsonl [--diff FILE2] [--threshold PCT]\n\
         -e and --portfolio print one text report (-p adds the winner's minimized PLA); -s takes no run flag and no other output flag\n\
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

/// The numeric value following a flag, or a usage error when it is missing,
/// malformed or out of `T`'s range.
fn num<T: std::str::FromStr>(rest: &mut dyn Iterator<Item = String>) -> T {
    rest.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage())
}

/// The session trace `--trace` asks for.
#[derive(Default)]
struct RunOpts {
    trace: Option<String>,
    trace_format: Option<TraceFormat>,
}

impl RunOpts {
    /// Takes `flag` (and its value from `rest`) when it is an option the
    /// single-machine parser and `nova bench` share: an engine limit or the
    /// fault plan, into `cfg`, or the session trace. Returns `false` to
    /// leave it to the caller's own flags.
    fn parse_flag(
        &mut self,
        cfg: &mut EngineConfig,
        flag: &str,
        rest: &mut dyn Iterator<Item = String>,
    ) -> bool {
        match flag {
            "--timeout-ms" => cfg.timeout = Some(Duration::from_millis(num(rest))),
            "--budget" => cfg.node_budget = Some(num(rest)),
            "--jobs" => cfg.jobs = num(rest),
            "--fault-plan" => {
                let spec = value(rest);
                match FaultPlan::parse(&spec) {
                    Ok(plan) => cfg.fault_plan = Some(plan),
                    Err(e) => {
                        eprintln!("nova: bad --fault-plan {spec:?}: {e}");
                        std::process::exit(EXIT_USAGE as i32);
                    }
                }
            }
            "--trace" => self.trace = Some(value(rest)),
            "--trace-format" => {
                self.trace_format = match rest.next().as_deref() {
                    Some("chrome") => Some(TraceFormat::Chrome),
                    Some("jsonl") => Some(TraceFormat::Jsonl),
                    _ => usage(),
                }
            }
            _ => return false,
        }
        true
    }

    /// `--trace-format` without `--trace`: a format with no file to shape.
    fn format_without_trace(&self) -> bool {
        self.trace_format.is_some() && self.trace.is_none()
    }

    /// The session tracer: enabled only when `--trace` asked for a file.
    fn tracer(&self) -> Tracer {
        if self.trace.is_some() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        }
    }

    /// Writes the session trace into `file` in the `--trace-format`.
    fn write_trace(&self, tracer: &Tracer, file: std::fs::File) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(file);
        match self.trace_format.unwrap_or_default() {
            TraceFormat::Chrome => tracer.write_chrome(&mut w)?,
            TraceFormat::Jsonl => tracer.write_jsonl(&mut w)?,
        }
        w.flush()
    }
}

struct Args {
    /// The runs and their limits, as `POST /encode` decodes them.
    engine: EngineConfig,
    state_minimize: bool,
    print_pla: bool,
    stats_only: bool,
    json: bool,
    run: RunOpts,
    bench: Option<String>,
    remote: Option<String>,
    file: Option<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut out = Args {
        engine: EngineConfig::default(),
        state_minimize: false,
        print_pla: false,
        stats_only: false,
        json: false,
        run: RunOpts::default(),
        bench: None,
        remote: None,
        file: None,
    };
    let mut algorithm = None;
    let mut portfolio = false;
    // Flags only a run reads, which `-s` would drop, and `--jobs`, which a
    // server would.
    let (mut run_flag, mut jobs) = (false, false);
    let mut args = argv.iter().cloned();
    while let Some(a) = args.next() {
        run_flag |= matches!(
            a.as_str(),
            "-e" | "-b" | "--timeout-ms" | "--budget" | "--jobs" | "--fault-plan"
        );
        jobs |= a == "--jobs";
        if out.run.parse_flag(&mut out.engine, &a, &mut args) {
            continue;
        }
        match a.as_str() {
            "-e" => algorithm = Some(parse_algorithm(&value(&mut args))),
            "-b" => out.engine.target_bits = Some(num(&mut args)),
            "-m" => out.state_minimize = true,
            "-p" => out.print_pla = true,
            "-s" => out.stats_only = true,
            "--json" => out.json = true,
            "--portfolio" => portfolio = true,
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
    // Refused combinations: in each, one flag would silently drop the other.
    let remote = out.remote.is_some();
    let trace = out.run.trace.is_some();
    if (out.stats_only && (run_flag || out.json || out.print_pla || portfolio || remote || trace))
        || (out.print_pla && out.json)
        || (algorithm.is_some() && portfolio)
        || (remote && (out.print_pla || trace || jobs))
        || out.run.format_without_trace()
    {
        usage();
    }
    out.engine.algorithms = if portfolio {
        Algorithm::ALL.to_vec()
    } else {
        vec![algorithm.unwrap_or(Algorithm::IHybrid)]
    };
    out
}

/// Writes the trace, then says by the exit code whether any run of
/// `report` left a usable encoding; when none did, one stderr line names
/// how each run ended.
fn finish(run: &RunOpts, tracer: &Tracer, report: &PortfolioReport) -> ExitCode {
    if let Some(path) = &run.trace {
        if let Err(e) = std::fs::File::create(path).and_then(|f| run.write_trace(tracer, f)) {
            eprintln!("nova: cannot write trace {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    }
    if report.best().is_some() || report.best_degraded().is_some() {
        return ExitCode::SUCCESS;
    }
    let ended: Vec<String> = report
        .runs
        .iter()
        .map(|r| format!("{} {}", r.algorithm.name(), r.outcome.tag()))
        .collect();
    eprintln!("nova: {} on this machine", ended.join(", "));
    ExitCode::from(EXIT_NO_RESULT)
}

fn print_machine_line(machine: &Fsm) {
    println!(
        "# {}: {} states, {} inputs, {} outputs, {} rows",
        machine.name(),
        machine.num_states(),
        machine.num_inputs(),
        machine.num_outputs(),
        machine.num_transitions()
    );
}

/// The one text report of a local run: the machine, each run's outcome and
/// counters, the winner and its codes (or the best degraded run's) and,
/// when `print_pla` is set, the completed winner's minimized PLA.
fn print_text(machine: &Fsm, report: &PortfolioReport, print_pla: bool) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    print_machine_line(machine);
    println!(
        "# portfolio on {} ({:.1} ms)",
        report.machine,
        ms(report.wall)
    );
    for run in &report.runs {
        let (name, wall) = (run.algorithm.name(), ms(run.wall));
        match &run.outcome {
            Outcome::Done(r) => println!(
                "# algorithm {name}: {} bits, {} cubes, area {}, {} factored literals ({wall:.1} ms)",
                r.bits, r.cubes, r.area, r.literals
            ),
            Outcome::Degraded(d) => println!(
                "# algorithm {name}: degraded anytime result ({}, {} bits via {}) ({wall:.1} ms)",
                d.reason.tag(),
                d.encoding.bits(),
                d.source
            ),
            other => println!("# algorithm {name}: {} ({wall:.1} ms)", other.tag()),
        }
        let c = &run.counters;
        println!(
            "# counters: work {} faces {} backtracks {} espresso-iters {} cubes {}->{}",
            c.work, c.faces_tried, c.backtracks, c.espresso_iterations, c.cubes_in, c.cubes_out
        );
    }
    let best = report.best();
    let encoding = match (best, report.best_degraded()) {
        (Some((i, r)), _) => {
            println!(
                "# best: {} with area {}",
                report.runs[i].algorithm.name(),
                r.area
            );
            Some(&r.encoding)
        }
        (None, Some((i, d))) => {
            println!(
                "# best: none finished; degraded fallback from {} ({}, {} bits)",
                report.runs[i].algorithm.name(),
                d.reason.tag(),
                d.encoding.bits(),
            );
            Some(&d.encoding)
        }
        (None, None) => {
            println!("# best: none (no algorithm finished)");
            None
        }
    };
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
    if let Some((_, r)) = best.filter(|_| print_pla) {
        let mut pla = fsm::encode::encode(machine, &r.encoding);
        pla.on = espresso::minimize(&pla.on, &pla.dc);
        print!(
            "{}",
            espresso::pla::write_pla(&pla.on, &espresso::Cover::empty(pla.on.space().clone()))
        );
    }
}

fn read_machine(args: &Args) -> Result<Fsm, ExitCode> {
    let machine = if let Some(name) = &args.bench {
        let Some(b) = fsm::benchmarks::by_name(name) else {
            eprintln!("nova: unknown embedded benchmark {name:?}");
            return Err(ExitCode::from(EXIT_UNKNOWN_BENCH));
        };
        b.fsm
    } else {
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
        Fsm::parse_kiss_named(name, &text).map_err(|e| {
            eprintln!("nova: {e}");
            ExitCode::from(EXIT_PARSE)
        })?
    };
    if !args.state_minimize {
        return Ok(machine);
    }
    let r = minimize_states(&machine);
    if r.merged > 0 {
        eprintln!("nova: state minimization removed {} states", r.merged);
    }
    Ok(r.fsm)
}

/// `nova bench`, the one sweep entry point: sweep a corpus (embedded suite,
/// optionally `--filter`ed, or a `--synthetic` scale spec) through the batch
/// engine, writing its one report, `nova-bench-stream/1` JSONL, line by
/// line, so memory stays constant at any corpus size. With `--resume` the
/// stream file is the sweep's crash-safe record, and rerunning the command
/// after a crash continues it.
fn bench_main(argv: &[String]) -> ExitCode {
    let mut synthetic: Option<fsm::ScaleSpec> = None;
    let mut filter: Vec<String> = Vec::new();
    let mut batch_jobs = 1usize;
    let mut stream: Option<String> = None;
    let mut cfg = EngineConfig::default();
    let mut run = RunOpts::default();
    let mut resume = false;
    let mut it = argv.iter().cloned();
    while let Some(a) = it.next() {
        if run.parse_flag(&mut cfg, &a, &mut it) {
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
            "--batch-jobs" => batch_jobs = num(&mut it),
            "--stream" => stream = Some(value(&mut it)),
            "--resume" => resume = true,
            _ => usage(),
        }
    }
    if run.format_without_trace() {
        usage();
    }
    if synthetic.is_some() && !filter.is_empty() {
        eprintln!("nova: --synthetic and --filter are mutually exclusive");
        return ExitCode::from(EXIT_USAGE);
    }
    if resume && stream.as_deref().is_none_or(|p| p == "-") {
        eprintln!(
            "nova: --resume requires --stream FILE: the stream file is the record it resumes"
        );
        return ExitCode::from(EXIT_USAGE);
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
    cfg.tracer = run.tracer();
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
    let trace_file = match run.trace.as_deref().map(create) {
        Some(Ok(f)) => Some(f),
        Some(Err(code)) => return code,
        None => None,
    };
    let swept = match stream.as_deref() {
        Some(path) if resume => {
            // Every option that can change a machine line: a file written
            // under others would not continue byte-identically.
            let options = format!(
                "budget={:?} timeout_ms={:?} fault_plan={}",
                cfg.node_budget,
                cfg.timeout.map(|t| t.as_millis()),
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
                    sweep(src, &cfg, &bcfg, sw)
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
                .and_then(|sw| sweep(src, &cfg, &bcfg, sw))
        }
    };
    let swept = match swept {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nova: cannot write stream: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    if let Some(f) = trace_file {
        if let Err(e) = run.write_trace(&cfg.tracer, f) {
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
    wall: Duration,
}

/// Sweeps `src` from the first machine `sw` does not hold yet, writing
/// every line to `sw` as it is emitted, so the sweep stays O(window).
fn sweep<W: std::io::Write + Send>(
    src: &dyn nova_engine::MachineSource,
    cfg: &EngineConfig,
    bcfg: &nova_engine::BatchConfig,
    mut sw: nova_engine::StreamWriter<W>,
) -> std::io::Result<Swept> {
    let resumed = sw.resumed();
    let mut line_err = None;
    let started = std::time::Instant::now();
    let report = nova_engine::run_batch_resumable(src, cfg, bcfg, resumed, &mut |_, rep, q| {
        if let Err(e) = sw.report(&rep, q) {
            line_err.get_or_insert(e);
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
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = value(&mut it),
            "--workers" => cfg.workers = num(&mut it),
            "--cache-entries" => cfg.cache.max_entries = num(&mut it),
            "--cache-bytes" => cfg.cache.max_bytes = num(&mut it),
            "--queue-depth" => cfg.queue_depth = num(&mut it),
            "--trace-dir" => cfg.trace_dir = Some(value(&mut it).into()),
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
/// with an optional `--diff` against a second trace. Exits 1 only when the
/// diff finds a regression.
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
    let read = |path: &str| -> Result<report::TraceDoc, ExitCode> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("nova: cannot read {path}: {e}");
            ExitCode::from(EXIT_IO)
        })?;
        report::TraceDoc::parse(&text).map_err(|e| {
            eprintln!("nova: {path}: {e}");
            ExitCode::from(EXIT_PARSE)
        })
    };
    let doc = match read(&path) {
        Ok(d) => d,
        Err(code) => return code,
    };
    print!("{}", doc.render_report());
    let Some(diff_path) = diff_path else {
        return ExitCode::SUCCESS;
    };
    let base = match read(&diff_path) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let regressions = report::diff(&base.stage_totals(), &doc.stage_totals(), threshold);
    print!("{}", report::render_diff(&regressions, threshold));
    if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_NO_RESULT)
    }
}

/// `--remote`: ship the machine to a resident service and pretty-print its
/// nova-bench/1 answer, mapping HTTP statuses onto the CLI exit codes.
fn remote_main(addr: &str, machine: &Fsm, cfg: &EngineConfig) -> ExitCode {
    // A 503 (the server's admission queue is full) is retried, up to 3
    // tries, after the server's Retry-After; an unreachable server still
    // fails fast.
    let query = nova_serve::wire::to_query(cfg);
    let resp = match nova_serve::client::post_kiss_retry(addr, &machine.to_kiss(), &query) {
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
    let Ok(mut doc) = nova_trace::json::parse(&resp.body) else {
        println!("{}", resp.body);
        return ExitCode::from(EXIT_NO_RESULT);
    };
    // The service names every machine "request"; print it under the name a
    // local run gives it, so the answer reads as `--json` prints it.
    if let Some(Json::Arr(machines)) = doc.get_mut("machines") {
        for m in machines {
            if let Some(name) = m.get_mut("machine") {
                *name = Json::str(machine.name());
            }
        }
    }
    println!("{}", doc.to_pretty());
    // Mirror the local exit contract: a completed or degraded encoding is
    // success; a report where nothing finished is "no result".
    let has_result = match doc.get("machines") {
        Some(Json::Arr(machines)) => machines.first().is_some_and(|m| {
            m.get("best").is_some_and(|b| *b != Json::Null) || m.get("degraded").is_some()
        }),
        _ => false,
    };
    if has_result {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_NO_RESULT)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("bench") => return bench_main(&argv[1..]),
        Some("serve") => return serve_main(&argv[1..]),
        Some("trace-report") => return trace_report_main(&argv[1..]),
        _ => {}
    }
    let mut args = parse_args(&argv);
    let machine = match read_machine(&args) {
        Ok(m) => m,
        Err(code) => return code,
    };
    // Client mode: the machine is encoded by a resident nova-serve.
    if let Some(addr) = &args.remote {
        return remote_main(addr, &machine, &args.engine);
    }
    if args.stats_only {
        print_machine_line(&machine);
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
    // `-e ALG` is the one-algorithm portfolio `--remote` sends: every local
    // run takes this one path, whatever it races.
    args.engine.tracer = args.run.tracer();
    let report = run_portfolio(&machine, machine.name(), &args.engine);
    if args.json {
        println!(
            "{}",
            suite_to_json(std::slice::from_ref(&report)).to_pretty()
        );
    } else {
        print_text(&machine, &report, args.print_pla);
    }
    finish(&args.run, &args.engine.tracer, &report)
}
