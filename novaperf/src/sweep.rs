//! The two corpus workloads: `suite-sweep` (the embedded suite through
//! `run_batch`, the `nova bench` path) and `synth-portfolio` (a synthetic
//! corpus one machine at a time through `run_portfolio`, the
//! `nova --portfolio` and serve-miss path). Both use `EngineConfig`
//! defaults and no deadline, so every outcome repeats exactly.

use crate::calibrate::{self, SpeedLog};
use crate::metrics::{self, Dist, Values};
use crate::replay::{self, Clock, Jobs, Recorder, Replayed};
use crate::{oracle, Params, RunResult};
use fsm::{Fsm, ScaleSpec};
use nova_engine::{
    report_fingerprint, run_batch, run_portfolio, BatchConfig, BatchReport, EngineConfig,
    MachineSource, Outcome, PortfolioReport, SuiteSource,
};
use nova_trace::json::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Suite machines left out. Unbudgeted, scf and tbk run for minutes each;
/// sand, planet, styr, dk16, ex1 and keyb take 3-12 s each, and cse,
/// donfile and ex2 1-2 s each, which would leave room for too few passes
/// of the sweep in a run: a machine's figure is its median over the
/// passes, and fewer than about ten leave it 10% apart between runs.
const SUITE_SKIP: &[&str] = &[
    "scf", "tbk", "sand", "planet", "styr", "dk16", "ex1", "keyb", "cse", "donfile", "ex2",
];
/// Untraced passes a run makes at least, so each median has a majority.
const MIN_PASSES: usize = 3;
/// A calibrated portfolio sweep runs a machine up to `MAX_RUNS` times in a
/// row while its runs so far took less than `REPEAT_BELOW`.
const MAX_RUNS: usize = 5;
const REPEAT_BELOW: Duration = Duration::from_millis(150);
/// Generator seed of the synthetic corpus, pinned: across generator seeds a
/// 40-machine corpus swings 3x in wall (seed 42 holds one 13 s machine), so
/// the run seed only draws the oracle's walks.
const SYNTH_SEED: u64 = 1;
/// Small suite machines for the self-check.
pub const TINY_SUITE: &[&str] = &["bbtas", "dk15", "lion", "shiftreg"];

/// How a corpus is swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `run_batch` with `nproc` batch workers (inner layers sequential).
    Batch,
    /// `run_portfolio` per machine, one machine at a time.
    Portfolio,
}

/// A materialised corpus plus the source `run_batch` reads.
pub struct Corpus {
    pub source: Box<dyn MachineSource>,
    pub machines: Vec<(String, Fsm)>,
}

impl Corpus {
    pub fn suite(tiny: bool) -> Corpus {
        let names: Vec<String> = fsm::benchmarks::suite()
            .into_iter()
            .map(|b| b.name.to_string())
            .filter(|n| {
                if tiny {
                    TINY_SUITE.contains(&n.as_str())
                } else {
                    !SUITE_SKIP.contains(&n.as_str())
                }
            })
            .collect();
        // Largest first (states times transitions), so the batch workers
        // finish together and the sweep wall does not hinge on which
        // worker drew a large machine last.
        let mut machines = Corpus::of(Box::new(SuiteSource::filtered(&names))).machines;
        machines.sort_by_key(|(_, m)| std::cmp::Reverse(m.num_states() * m.num_transitions()));
        Corpus::listed(machines)
    }

    /// The synthetic corpus, from [`SYNTH_SEED`].
    pub fn synth(tiny: bool) -> Corpus {
        let spec = ScaleSpec {
            machines: if tiny { 4 } else { 40 },
            states: if tiny { 5 } else { 8 },
            inputs: 3,
            outputs: 2,
            seed: SYNTH_SEED,
            ..ScaleSpec::default()
        };
        Corpus::of(Box::new(spec))
    }

    /// A corpus of machines already in hand.
    pub fn listed(machines: Vec<(String, Fsm)>) -> Corpus {
        Corpus::of(Box::new(Listed(machines)))
    }

    fn of(source: Box<dyn MachineSource>) -> Corpus {
        let machines = (0..source.len())
            .map(|i| (source.name(i), source.machine(i)))
            .collect();
        Corpus { source, machines }
    }
}

/// A [`MachineSource`] over a list of machines.
struct Listed(Vec<(String, Fsm)>);

impl MachineSource for Listed {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn name(&self, i: usize) -> String {
        self.0[i].0.clone()
    }
    fn machine(&self, i: usize) -> Fsm {
        self.0[i].1.clone()
    }
    fn describe(&self) -> String {
        format!("listed:{}", self.0.len())
    }
}

/// A source that samples the calibration kernel on the worker thread each
/// time that worker claims a machine, right before its portfolio runs, and
/// notes when the portfolio starts.
struct Calibrated<'a> {
    inner: &'a dyn MachineSource,
    log: &'a SpeedLog,
    started: Mutex<Vec<f64>>,
}

impl MachineSource for Calibrated<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn name(&self, i: usize) -> String {
        self.inner.name(i)
    }
    fn machine(&self, i: usize) -> Fsm {
        self.log.sample();
        let m = self.inner.machine(i);
        self.started.lock().expect("start lock")[i] = self.log.at(Instant::now());
        m
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// One untraced sweep of the corpus.
pub struct Pass {
    pub reports: Vec<PortfolioReport>,
    pub wall: Duration,
    pub batch: Option<BatchReport>,
    /// Per machine, the calibration kernel's ms next to it.
    pub kernel_ms: Vec<f64>,
    /// Per machine, the raw ms of the runs repeated right after its first
    /// one (portfolio sweeps only), outside the pass wall.
    pub repeats_ms: Vec<Vec<f64>>,
    /// Repeated runs whose report differed from the first run's.
    pub repeat_mismatches: usize,
}

impl Pass {
    /// Machine `i`'s wall in ms at the nominal host speed.
    pub fn scaled_ms(&self, i: usize) -> f64 {
        calibrate::scale(ms(self.reports[i].wall), self.kernel_ms[i])
    }

    /// Every run of machine `i` in the pass, first and repeated, in ms at
    /// the nominal host speed (`raw`: as measured).
    pub fn samples_ms(&self, i: usize, raw: bool) -> Vec<f64> {
        let k = if raw { calibrate::NOMINAL_MS } else { self.kernel_ms[i] };
        std::iter::once(ms(self.reports[i].wall))
            .chain(self.repeats_ms[i].iter().copied())
            .map(|w| calibrate::scale(w, k))
            .collect()
    }

    /// The pass wall in seconds at the nominal host speed: the raw wall
    /// scaled by the machines' wall-weighted speed factor.
    pub fn scaled_wall_s(&self) -> f64 {
        let n = self.reports.len();
        let raw: f64 = (0..n).map(|i| ms(self.reports[i].wall)).sum();
        let scaled: f64 = (0..n).map(|i| self.scaled_ms(i)).sum();
        self.wall.as_secs_f64() * scaled / raw.max(1e-9)
    }
}

/// Sweeps the corpus once. With a `log`, the calibration kernel is sampled
/// next to every machine (outside its timing) and the pass carries each
/// machine's kernel time; without one, the nominal time.
pub fn sweep(kind: Kind, corpus: &Corpus, batch_jobs: usize, log: Option<&SpeedLog>) -> Pass {
    let cfg = EngineConfig::default();
    let n = corpus.machines.len();
    let mut started = vec![0.0; n];
    let mut spans = vec![Duration::ZERO; n];
    let mut repeats_ms = vec![Vec::new(); n];
    let mut repeat_mismatches = 0;
    let (reports, wall, batch) = match kind {
        Kind::Batch => {
            let bcfg = BatchConfig {
                batch_jobs,
                ..BatchConfig::default()
            };
            let mut reports = Vec::with_capacity(n);
            let mut emit = |_: usize, r: PortfolioReport| reports.push(r);
            let start = Instant::now();
            let batch = match log {
                Some(log) => {
                    let src = Calibrated {
                        inner: corpus.source.as_ref(),
                        log,
                        started: Mutex::new(vec![0.0; n]),
                    };
                    let b = run_batch(&src, &cfg, &bcfg, &mut emit);
                    started = src.started.into_inner().expect("start lock");
                    b
                }
                None => run_batch(corpus.source.as_ref(), &cfg, &bcfg, &mut emit),
            };
            let wall = start.elapsed();
            if let Some(log) = log {
                log.sample();
            }
            (reports, wall, Some(batch))
        }
        Kind::Portfolio => {
            // A calibrated pass runs a short machine again right away, so
            // its median rests on more runs than there are passes. The
            // kernel runs on this thread only: sampled on every core at
            // once it tracked the portfolio's walls less closely.
            let mut reports = Vec::with_capacity(n);
            let mut wall = Duration::ZERO;
            for (i, (name, m)) in corpus.machines.iter().enumerate() {
                if let Some(log) = log {
                    log.sample();
                    started[i] = log.at(Instant::now());
                }
                let t = Instant::now();
                let first = run_portfolio(m, name, &cfg);
                let took = t.elapsed();
                wall += took;
                if let Some(log) = log {
                    let fp = report_fingerprint(&first);
                    let mut spent = took;
                    while repeats_ms[i].len() + 1 < MAX_RUNS && spent < REPEAT_BELOW {
                        log.sample();
                        let t = Instant::now();
                        let again = run_portfolio(m, name, &cfg);
                        let took = t.elapsed();
                        spent += took;
                        repeats_ms[i].push(ms(took));
                        repeat_mismatches += usize::from(report_fingerprint(&again) != fp);
                    }
                    spans[i] = spent;
                }
                reports.push(first);
            }
            if let Some(log) = log {
                log.sample();
            }
            (reports, wall, None)
        }
    };
    let kernel_ms = reports
        .iter()
        .zip(&started)
        .zip(&spans)
        .map(|((r, &from), &span)| {
            log.map_or(calibrate::NOMINAL_MS, |log| {
                log.kernel_ms(from, from + span.max(r.wall).as_secs_f64())
            })
        })
        .collect();
    Pass {
        reports,
        wall,
        batch,
        kernel_ms,
        repeats_ms,
        repeat_mismatches,
    }
}

/// Sums of the best encodings over a corpus (the paper's metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    pub area: u64,
    pub cubes: u64,
    pub solved: usize,
    pub verified: usize,
}

/// Quality of a pass, each best encoding checked by the oracle.
pub fn quality(machines: &[(String, Fsm)], reports: &[PortfolioReport], seed: u64) -> Quality {
    let mut q = Quality::default();
    for (i, ((_, m), rep)) in machines.iter().zip(reports).enumerate() {
        if let Some((_, best)) = rep.best() {
            q.area += best.area;
            q.cubes += best.cubes as u64;
            q.solved += 1;
            let walk_seed = fsm::rng::mix(seed, i as u64);
            q.verified += usize::from(oracle::verify(
                m,
                &best.encoding,
                best.cubes,
                best.area,
                walk_seed,
            ));
        }
    }
    q
}

/// The engine's per-algorithm results in the replay's shape.
pub fn replayed_view(rep: &PortfolioReport) -> Vec<Option<Replayed>> {
    rep.runs
        .iter()
        .map(|run| match &run.outcome {
            Outcome::Done(r) => Some(Some((r.encoding.codes().to_vec(), r.cubes))),
            Outcome::Unsolved => Some(None),
            _ => None,
        })
        .collect()
}

/// Replays every machine stage by stage with `kind`'s worker layout and
/// returns the merged recorder and per-machine results.
fn replay_corpus<'c>(
    kind: Kind,
    corpus: &Corpus,
    nproc: usize,
    clock: &'c Clock,
) -> (Recorder<'c>, Vec<Vec<Replayed>>) {
    let mut rec = clock.recorder();
    let root = rec.open();
    let n = corpus.machines.len();
    let results: Vec<Vec<Replayed>> = match kind {
        Kind::Portfolio => {
            let jobs = Jobs {
                portfolio: nproc,
                embed: 0,
                espresso: 0,
            };
            corpus
                .machines
                .iter()
                .enumerate()
                .map(|(i, (_, m))| {
                    replay::replay_portfolio(m, i as u64, Some(root.0), jobs, &mut rec)
                })
                .collect()
        }
        Kind::Batch => {
            // Batch workers run whole portfolios with every inner layer
            // sequential, as run_batch does above one worker.
            let jobs = Jobs {
                portfolio: 1,
                embed: 1,
                espresso: 1,
            };
            let next = AtomicUsize::new(0);
            let slots: Mutex<Vec<Option<Vec<Replayed>>>> = Mutex::new(vec![None; n]);
            let locals: Vec<Recorder<'c>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..nproc.min(n).max(1))
                    .map(|_| {
                        s.spawn(|| {
                            let mut local = clock.recorder();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                let m = &corpus.machines[i].1;
                                let r = replay::replay_portfolio(
                                    m,
                                    i as u64,
                                    Some(root.0),
                                    jobs,
                                    &mut local,
                                );
                                slots.lock().expect("slot lock")[i] = Some(r);
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("replay worker panicked"))
                    .collect()
            });
            for local in locals {
                rec.absorb(local);
            }
            slots
                .into_inner()
                .expect("slot lock")
                .into_iter()
                .map(|s| s.expect("every machine replayed"))
                .collect()
        }
    };
    rec.close(root, None, "sweep", "", n as u64);
    (rec, results)
}

/// Fills the layer metrics the replay and the engine reports measure.
pub fn layer_values(
    v: &mut Values,
    rec: &Recorder,
    reports: &[PortfolioReport],
    untraced: Duration,
    traced: Duration,
) {
    let w = &rec.work;
    let (c_ms, c_n) = replay::busy(&rec.spans, "constraints");
    let (e_ms, e_n) = replay::busy(&rec.spans, "embed");
    let (n_ms, _) = replay::busy(&rec.spans, "encode");
    let (x_ms, _) = replay::busy(&rec.spans, "espresso");
    v.insert("constraints.busy_ms", c_ms);
    v.insert("constraints.calls", c_n as f64);
    v.insert("constraints.count", w.constraints_count as f64);
    v.insert("embed.busy_ms", e_ms);
    v.insert("embed.calls", e_n as f64);
    v.insert("embed.work", w.embed.work as f64);
    v.insert("embed.faces_tried", w.embed.faces_tried as f64);
    v.insert("embed.backtracks", w.embed.backtracks as f64);
    v.insert(
        "embed.solved_ratio",
        if e_n == 0 {
            0.0
        } else {
            w.embed_solved as f64 / e_n as f64
        },
    );
    v.insert("encode.busy_ms", n_ms);
    v.insert("encode.rows", w.encode_rows as f64);
    v.insert("espresso.busy_ms", x_ms);
    v.insert("espresso.iterations", w.espresso.espresso_iterations as f64);
    v.insert("espresso.cubes_in", w.espresso.cubes_in as f64);
    v.insert("espresso.cubes_out", w.espresso.cubes_out as f64);
    let run_sum: f64 = reports
        .iter()
        .flat_map(|r| &r.runs)
        .map(|r| ms(r.wall))
        .sum();
    let wall_sum: f64 = reports.iter().map(|r| ms(r.wall)).sum();
    v.insert("portfolio.run_sum_ms", run_sum);
    v.insert("portfolio.overlap", run_sum / wall_sum.max(1e-9));
    for (tag, name) in [
        ("done", "portfolio.done"),
        ("unsolved", "portfolio.unsolved"),
        ("degraded", "portfolio.degraded"),
        ("failed", "portfolio.failed"),
    ] {
        let n = reports
            .iter()
            .flat_map(|r| &r.runs)
            .filter(|r| r.outcome.tag() == tag)
            .count();
        v.insert(name, n as f64);
    }
    v.insert("trace.overhead_ms", ms(traced) - ms(untraced));
    v.insert(
        "trace.overhead_ratio",
        ms(traced) / ms(untraced).max(1e-9) - 1.0,
    );
    v.insert("trace.spans", rec.spans.len() as f64);
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs a corpus workload: repeated set-up, untraced passes until
/// `seconds` is used up (at least one), and in trace mode one replay.
///
/// Each machine's wall is its median over its runs in every pass, at the
/// nominal host speed (see [`calibrate`]), and a batch sweep's wall is the
/// median pass, so one slow pass moves no figure on its own.
pub fn run(kind: Kind, p: &Params, batch_jobs: usize) -> RunResult {
    let build = || {
        let corpus = match kind {
            Kind::Batch => Corpus::suite(p.tiny),
            Kind::Portfolio => Corpus::synth(p.tiny),
        };
        // Warm the thread pools and scratch buffers on small machines, as
        // a resident user would have.
        let warm = match kind {
            Kind::Batch => Corpus::suite(true),
            Kind::Portfolio => Corpus::synth(true),
        };
        sweep(kind, &warm, batch_jobs, None);
        corpus
    };
    let (corpus, setup) = crate::timed_setup(build);
    let mut out = RunResult::default();

    let log = SpeedLog::new();
    let mut passes: Vec<Pass> = Vec::new();
    let begun = Instant::now();
    loop {
        passes.push(sweep(kind, &corpus, batch_jobs, Some(&log)));
        let spent = begun.elapsed();
        let mean = spent / passes.len() as u32;
        let full = passes.len() >= MIN_PASSES || p.tiny;
        if p.trace || (full && spent + mean > Duration::from_secs_f64(p.seconds)) {
            break;
        }
    }
    let first = &passes[0];
    let fingerprints: Vec<String> = first.reports.iter().map(report_fingerprint).collect();
    for (k, pass) in passes.iter().enumerate() {
        for (rep, fp) in pass.reports.iter().zip(&fingerprints) {
            if k > 0 && report_fingerprint(rep) != *fp {
                out.problem(format!("pass {k}: {} differs from pass 0", rep.machine));
            }
        }
        if pass.repeat_mismatches > 0 {
            out.problem(format!(
                "pass {k}: {} repeated runs differ from their first",
                pass.repeat_mismatches
            ));
        }
    }
    let n = corpus.machines.len();
    let q = quality(&corpus.machines, &first.reports, p.seed);
    if q.verified != q.solved {
        out.problem(format!(
            "{} of {} best encodings failed simulation",
            q.solved - q.verified,
            q.solved
        ));
    }
    let failed = first.reports.iter().filter(|r| r.best().is_none()).count();
    let repeats: usize = passes
        .iter()
        .flat_map(|ps| &ps.repeats_ms)
        .map(Vec::len)
        .sum();
    out.attempted = (n * passes.len() + repeats) as u64;
    out.failed = (failed * passes.len()) as u64;

    let per_machine = |f: &dyn Fn(&Pass, usize) -> f64| -> Vec<f64> {
        (0..n)
            .map(|i| metrics::median(&passes.iter().map(|ps| f(ps, i)).collect::<Vec<_>>()))
            .collect()
    };
    let all_runs = |raw: bool| -> Vec<f64> {
        (0..n)
            .map(|i| {
                let runs: Vec<f64> = passes.iter().flat_map(|ps| ps.samples_ms(i, raw)).collect();
                metrics::median(&runs)
            })
            .collect()
    };
    let machine_walls = all_runs(false);
    let raw_walls = all_runs(true);
    let kernel_ms = per_machine(&|ps, i| ps.kernel_ms[i]);
    let pass_walls: Vec<f64> = passes.iter().map(Pass::scaled_wall_s).collect();
    let raw_pass_walls: Vec<f64> = passes.iter().map(|ps| ps.wall.as_secs_f64()).collect();
    let dist = Dist::of(&machine_walls);
    let rate = match kind {
        Kind::Batch => n as f64 / metrics::median(&pass_walls),
        // One machine at a time: a pass's wall is the sum of its machines'
        // walls, so the sum of their medians is the typical pass.
        Kind::Portfolio => n as f64 * 1e3 / machine_walls.iter().sum::<f64>(),
    };
    let e = &mut out.e2e;
    e.insert("machines_per_s", rate);
    e.insert("machine_wall_p50_ms", dist.p50);
    e.insert("machine_wall_tail_ms", dist.tail);
    e.insert("machine_wall_geomean_ms", dist.geomean);
    e.insert("area_sum", q.area as f64);
    e.insert("cubes_sum", q.cubes as f64);
    e.insert("solved_ratio", q.solved as f64 / n as f64);
    e.insert("verified_ratio", q.verified as f64 / q.solved.max(1) as f64);
    // A sweep's request is one machine's portfolio.
    e.insert("req_p50_ms", dist.p50);
    e.insert("req_p99_ms", dist.p99);
    e.insert("rps", rate);
    e.insert("setup_s", setup.scaled_s);

    let workers = match kind {
        Kind::Batch => batch_jobs.min(n),
        Kind::Portfolio => 1,
    };
    if p.trace {
        let clock = Clock::new();
        let t = Instant::now();
        let (rec, replayed) = replay_corpus(kind, &corpus, p.nproc, &clock);
        let traced = t.elapsed();
        for (i, (rep, rp)) in first.reports.iter().zip(&replayed).enumerate() {
            let engine = replayed_view(rep);
            for (j, (a, b)) in engine.iter().zip(rp).enumerate() {
                if a.as_ref() != Some(b) {
                    out.problem(format!(
                        "replay of machine {i} ({}) algorithm {j} differs from the engine",
                        rep.machine
                    ));
                }
            }
        }
        let l = &mut out.layers;
        layer_values(l, &rec, &first.reports, first.wall, traced);
        if let Some(b) = &first.batch {
            let busy: f64 = first.reports.iter().map(|r| ms(r.wall)).sum();
            l.insert("batch.busy_ratio", busy / (ms(first.wall) * workers as f64));
            l.insert("batch.retries", b.retries as f64);
            l.insert("batch.quarantined", b.quarantined.len() as f64);
        }
        l.insert("error_ratio", failed as f64 / n as f64);
        out.spans = rec.spans;
    }

    let floats = |xs: &[f64]| Json::Arr(xs.iter().map(|&w| Json::Float(w)).collect());
    out.detail.push(("pass_walls_s".into(), floats(&pass_walls)));
    out.detail.push(("raw_pass_walls_s".into(), floats(&raw_pass_walls)));
    out.detail.push(("raw_setup_s".into(), Json::Float(setup.raw_s)));
    out.detail.push(("machine_wall".into(), dist_json(&dist)));
    out.detail.push(("raw_machine_wall".into(), dist_json(&Dist::of(&raw_walls))));
    out.detail.push((
        "machines".into(),
        Json::Arr(
            (0..n)
                .map(|i| {
                    let mut row = machine_row(&first.reports[i], machine_walls[i]);
                    if let Json::Obj(fields) = &mut row {
                        fields.push(("raw_wall_ms".into(), Json::Float(raw_walls[i])));
                        fields.push(("kernel_ms".into(), Json::Float(kernel_ms[i])));
                    }
                    row
                })
                .collect(),
        ),
    ));
    out
}

/// The distribution fields that qualify a tail figure.
pub fn dist_json(d: &Dist) -> Json {
    Json::Obj(vec![
        ("p50_ms".into(), Json::Float(d.p50)),
        ("tail_ms".into(), Json::Float(d.tail)),
        ("tail_percentile".into(), Json::Float(d.tail_pct)),
        ("p99_ms".into(), Json::Float(d.p99)),
        ("geomean_ms".into(), Json::Float(d.geomean)),
        ("samples".into(), Json::uint(d.samples as u64)),
    ])
}

/// One machine's row: wall, winning algorithm, area and cubes.
pub fn machine_row(r: &PortfolioReport, wall_ms: f64) -> Json {
    let best = r.best();
    Json::Obj(vec![
        ("machine".into(), Json::str(&r.machine)),
        ("wall_ms".into(), Json::Float(wall_ms)),
        (
            "best".into(),
            best.map_or(Json::Null, |(i, _)| Json::str(r.runs[i].algorithm.name())),
        ),
        (
            "area".into(),
            best.map_or(Json::Null, |(_, b)| Json::uint(b.area)),
        ),
        (
            "cubes".into(),
            best.map_or(Json::Null, |(_, b)| Json::uint(b.cubes as u64)),
        ),
    ])
}
