//! # nova-engine — a concurrent portfolio engine for NOVA state assignment
//!
//! Runs a configurable set of [`Algorithm`]s concurrently over a scoped
//! worker pool and keeps the best-area [`EvalResult`], together with a full
//! [`PortfolioReport`] of per-algorithm outcomes, stage wall times and run
//! counters.
//!
//! Design points:
//!
//! * **std-only concurrency** — `std::thread::scope` plus an atomic job
//!   counter ([`run_jobs`]); no external executor. Each algorithm run is
//!   sequential: threads run the algorithms of one portfolio (`jobs`) or
//!   whole machines ([`run_batch`]), never the inside of one run, and both
//!   levels claim work through the same ascending counter loop.
//! * **Cooperative cancellation** — every worker runs under a
//!   [`RunCtl`](espresso::RunCtl) carrying the wall-clock deadline
//!   (`--timeout-ms`) and the deterministic node budget (`--budget`). The
//!   backtracking loops, `project_code` steps and the ESPRESSO improvement
//!   loop all check it, so an expired deadline yields a clean
//!   [`Outcome::Timeout`] instead of a hung worker. The deadline is the
//!   only wall-clock limit; each run under one records how far past it the
//!   run ended ([`AlgoRun::overshoot`]).
//! * **Determinism** — identical algorithm lists, seeds and node budgets
//!   produce identical winning encodings regardless of `--jobs`: every
//!   algorithm computes under its own [`RunCtl`](espresso::RunCtl) and the
//!   winner is picked by minimum area with ties broken by position in the
//!   configured list (the paper's fixed order for [`Algorithm::ALL`]). The
//!   runs share only the machine's constraint derivations
//!   ([`FrontEnd`]): one derives, the rest replay its charge, and a
//!   derivation stopped part-way is never shared, so each run ends as it
//!   would alone.
//! * **Containment** — a panicking worker degrades to
//!   [`Outcome::Failed`] for that algorithm only.
//!
//! ```
//! use nova_engine::{run_portfolio, EngineConfig};
//!
//! let bench = fsm::benchmarks::by_name("lion").expect("embedded");
//! let report = run_portfolio(&bench.fsm, bench.name, &EngineConfig::default());
//! let (_, best) = report.best().expect("some algorithm finished");
//! assert!(best.area > 0);
//! ```

#![forbid(unsafe_code)]

pub mod batch;

pub use batch::{
    run_batch, run_batch_resumable, throughput, BatchConfig, BatchReport, MachineClass,
    MachineSource, QuarantineRecord, ResumeError, StreamTally, StreamWriter, SuiteSource,
};

use espresso::{FaultPlan, RunCounters, RunCtl};
use fsm::Fsm;
use nova_core::driver::{
    run_traced_shared, Algorithm, Degradation, EvalResult, FrontEnd, RunStatus, StageCell,
    StageTimes,
};
use nova_trace::json::Json;
use nova_trace::{MetricsSnapshot, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of a portfolio run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Algorithms to race, in tie-break priority order. Defaults to
    /// [`Algorithm::ALL`] (the paper's fixed order).
    pub algorithms: Vec<Algorithm>,
    /// Worker threads; `0` = available parallelism.
    pub jobs: usize,
    /// Wall-clock deadline shared by the whole portfolio.
    pub timeout: Option<Duration>,
    /// Per-algorithm node budget (deterministic across machines and thread
    /// counts, unlike the wall clock).
    pub node_budget: Option<u64>,
    /// Code-length override passed to the algorithms that accept one.
    pub target_bits: Option<u32>,
    /// Session tracer. Each algorithm run gets a [`Tracer::fork`] of it
    /// (shared clock and trace file, separate per-run metrics). Defaults to
    /// [`Tracer::disabled`], which costs one atomic load per instrumentation
    /// point.
    pub tracer: Tracer,
    /// Deterministic fault plan armed on every per-algorithm [`RunCtl`]
    /// (nova-chaos). `None` — the default — costs one `OnceLock` load per
    /// charge.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            algorithms: Algorithm::ALL.to_vec(),
            jobs: 0,
            timeout: None,
            node_budget: None,
            target_bits: None,
            tracer: Tracer::disabled(),
            fault_plan: None,
        }
    }
}

/// The worker count a `jobs`-style setting stands for: `jobs` itself, or
/// the machine's available parallelism (1 if it cannot be read) when
/// `jobs == 0`. Every worker knob in the workspace resolves through here.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// How one algorithm's run ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Full pipeline completed.
    Done(EvalResult),
    /// The algorithm gave up within its own limits (e.g. the `iexact`
    /// work budget) — not a cancellation, not an error.
    Unsolved,
    /// The portfolio deadline or node budget fired mid-run.
    Timeout,
    /// Cancelled mid-run, but an anytime best-so-far snapshot produced a
    /// valid (distinct, in-range) encoding — degraded, not lost.
    Degraded(Degradation),
    /// The worker panicked; the message is retained.
    Failed(String),
}

impl Outcome {
    /// The completed result, if any.
    pub fn result(&self) -> Option<&EvalResult> {
        match self {
            Outcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// The degraded anytime result, if any.
    pub fn degradation(&self) -> Option<&Degradation> {
        match self {
            Outcome::Degraded(d) => Some(d),
            _ => None,
        }
    }

    /// Stable lower-case tag used in reports and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Done(_) => "done",
            Outcome::Unsolved => "unsolved",
            Outcome::Timeout => "timeout",
            Outcome::Degraded(_) => "degraded",
            Outcome::Failed(_) => "failed",
        }
    }
}

/// One algorithm's run inside a portfolio: outcome plus telemetry.
#[derive(Debug, Clone)]
pub struct AlgoRun {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// How it ended.
    pub outcome: Outcome,
    /// Per-stage wall times (constraint extraction, embedding, encoding,
    /// ESPRESSO) accumulated up to the point the run ended.
    pub stages: StageTimes,
    /// Work / faces / backtracks / espresso-iteration / cube counters.
    pub counters: RunCounters,
    /// Tracer counter/gauge/histogram snapshot of this run (empty when
    /// tracing is disabled).
    pub metrics: MetricsSnapshot,
    /// Total wall time of this algorithm's worker.
    pub wall: Duration,
    /// How far past its deadline the run ended (zero when it ended in
    /// time); `None` when the run had no deadline.
    pub overshoot: Option<Duration>,
}

/// The full report of one portfolio run over one machine.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Machine name (benchmark name or file stem).
    pub machine: String,
    /// Per-algorithm runs, in the configured (tie-break) order.
    pub runs: Vec<AlgoRun>,
    /// Wall time of the whole portfolio.
    pub wall: Duration,
}

impl PortfolioReport {
    /// The winning run: minimum area among completed runs, ties broken by
    /// position in the configured algorithm order. Returns the index into
    /// [`PortfolioReport::runs`] and the winning result.
    pub fn best(&self) -> Option<(usize, &EvalResult)> {
        self.runs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.outcome.result().map(|res| (i, res)))
            .min_by_key(|(i, res)| (res.area, *i))
    }

    /// The best *degraded* run, ranked below every completed run and above
    /// failures: minimum encoding bits among degraded runs, ties broken by
    /// position in the configured algorithm order. Only meaningful when
    /// [`PortfolioReport::best`] is `None`.
    pub fn best_degraded(&self) -> Option<(usize, &Degradation)> {
        self.runs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.outcome.degradation().map(|d| (i, d)))
            .min_by_key(|(i, d)| (d.encoding.bits(), *i))
    }

    /// JSON form of the whole report. `best` stays a *completed* winner
    /// (`null` otherwise) so downstream area diffs never mix degraded
    /// encodings in; an anytime fallback is surfaced separately under
    /// `degraded` when no run completed.
    pub fn to_json(&self) -> Json {
        let best = self
            .best()
            .map(|(i, _)| Json::str(self.runs[i].algorithm.name()))
            .unwrap_or(Json::Null);
        let mut pairs = vec![
            ("machine".into(), Json::str(&self.machine)),
            ("best".into(), best),
        ];
        if self.best().is_none() {
            if let Some((i, d)) = self.best_degraded() {
                pairs.push((
                    "degraded".into(),
                    degradation_summary(self.runs[i].algorithm, d),
                ));
            }
        }
        pairs.push(("wall_ms".into(), Json::Float(millis(self.wall))));
        pairs.push((
            "runs".into(),
            Json::Arr(self.runs.iter().map(AlgoRun::to_json).collect()),
        ));
        Json::Obj(pairs)
    }
}

/// Machine-level summary of the winning degraded run.
fn degradation_summary(algorithm: Algorithm, d: &Degradation) -> Json {
    Json::Obj(vec![
        ("algorithm".into(), Json::str(algorithm.name())),
        ("reason".into(), Json::str(d.reason.tag())),
        ("source".into(), Json::str(d.source)),
        ("bits".into(), Json::uint(d.encoding.bits() as u64)),
    ])
}

/// JSON form of a degraded (anytime) outcome.
fn degradation_to_json(d: &Degradation) -> Json {
    Json::Obj(vec![
        ("reason".into(), Json::str(d.reason.tag())),
        ("source".into(), Json::str(d.source)),
        ("bits".into(), Json::uint(d.encoding.bits() as u64)),
        (
            "codes".into(),
            Json::Arr(d.encoding.codes().iter().map(|&c| Json::uint(c)).collect()),
        ),
    ])
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Timing-stripped fingerprint of a portfolio report: every deterministic
/// field (outcomes, areas, codes, degradation reasons), nothing wall-clock.
/// Byte-equal fingerprints mean a byte-identical replay — the property the
/// chaos suite enforces and the result cache in `nova-serve` relies on.
pub fn report_fingerprint(report: &PortfolioReport) -> String {
    let mut out = format!("machine={}\n", report.machine);
    for run in &report.runs {
        out.push_str(&format!(
            "algorithm={} outcome={}",
            run.algorithm.name(),
            run.outcome.tag()
        ));
        match &run.outcome {
            Outcome::Done(r) => out.push_str(&format!(
                " bits={} cubes={} area={} codes={:?}",
                r.bits,
                r.cubes,
                r.area,
                r.encoding.codes()
            )),
            Outcome::Degraded(d) => out.push_str(&format!(
                " reason={} source={} bits={} codes={:?}",
                d.reason.tag(),
                d.source,
                d.encoding.bits(),
                d.encoding.codes()
            )),
            Outcome::Failed(msg) => out.push_str(&format!(" error={msg}")),
            _ => {}
        }
        out.push('\n');
    }
    out
}

impl AlgoRun {
    /// JSON form of one run.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("algorithm".into(), Json::str(self.algorithm.name())),
            ("outcome".into(), Json::str(self.outcome.tag())),
        ];
        match &self.outcome {
            Outcome::Done(r) => pairs.push(("result".into(), eval_to_json(r))),
            Outcome::Degraded(d) => pairs.push(("degraded".into(), degradation_to_json(d))),
            Outcome::Failed(msg) => pairs.push(("error".into(), Json::str(msg))),
            _ => {}
        }
        pairs.push(("wall_ms".into(), Json::Float(millis(self.wall))));
        pairs.push(("stages_ms".into(), stages_to_json(&self.stages)));
        if let Some(o) = self.overshoot {
            pairs.push(("overshoot_ms".into(), Json::Float(millis(o))));
        }
        pairs.push((
            "counters".into(),
            Json::Obj(vec![
                ("work".into(), Json::uint(self.counters.work)),
                ("faces_tried".into(), Json::uint(self.counters.faces_tried)),
                ("backtracks".into(), Json::uint(self.counters.backtracks)),
                (
                    "espresso_iterations".into(),
                    Json::uint(self.counters.espresso_iterations),
                ),
                ("cubes_in".into(), Json::uint(self.counters.cubes_in)),
                ("cubes_out".into(), Json::uint(self.counters.cubes_out)),
            ]),
        ));
        if !self.metrics.is_empty() {
            pairs.push(("metrics".into(), self.metrics.to_json()));
        }
        Json::Obj(pairs)
    }
}

/// JSON form of a completed evaluation.
pub fn eval_to_json(r: &EvalResult) -> Json {
    Json::Obj(vec![
        ("bits".into(), Json::uint(r.bits as u64)),
        ("cubes".into(), Json::uint(r.cubes as u64)),
        ("area".into(), Json::uint(r.area)),
        ("literals".into(), Json::uint(r.literals as u64)),
        (
            "codes".into(),
            Json::Arr(r.encoding.codes().iter().map(|&c| Json::uint(c)).collect()),
        ),
    ])
}

/// Calls `f(index)` for every index in `0..items` over at most `jobs`
/// scoped worker threads. Workers claim indices in ascending order from one
/// atomic counter, so every index below the counter has been claimed — the
/// property the batch reorder window's deadlock freedom rests on. This is
/// the engine's only scheduler. One worker is the calling thread itself,
/// so its thread-local scratch pools serve every index.
pub(crate) fn claim_loop<F>(items: usize, jobs: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let workers = jobs.clamp(1, items.max(1));
    if workers == 1 {
        (0..items).for_each(f);
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let (next, f) = (&next, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    break;
                }
                f(i);
            });
        }
    });
}

/// Runs `f(index)` for every index in `0..items` on [`claim_loop`] and
/// returns the results in index order. A panicking job yields
/// `Err(message)` in its slot without taking down its worker (the worker
/// moves on to the next index).
pub fn run_jobs<T, F>(items: usize, jobs: usize, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<Result<T, String>>>> =
        (0..items).map(|_| Mutex::new(None)).collect();
    claim_loop(items, jobs, |i| {
        let out = catch_unwind(AssertUnwindSafe(|| f(i))).map_err(panic_message);
        // A slot mutex can only be poisoned by a panic *between*
        // catch_unwind and the store (e.g. a panicking Drop in the
        // payload); recover the guard rather than cascade.
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| {
                    Err("job slot empty (worker died before storing a result)".into())
                })
        })
        .collect()
}

/// Races the configured algorithms on one machine and reports everything.
///
/// Every algorithm runs under its own [`RunCtl`] carrying the shared
/// wall-clock deadline and the per-algorithm node budget; its counters are
/// snapshotted into the report when the run ends, however it ends. The runs
/// share one [`FrontEnd`], so the machine's constraints are derived once.
pub fn run_portfolio(fsm: &Fsm, machine: &str, cfg: &EngineConfig) -> PortfolioReport {
    let start = Instant::now();
    let deadline = cfg.timeout.map(|t| start + t);
    let _span = cfg.tracer.span("portfolio");
    let front = FrontEnd::new();
    let runs = run_jobs(cfg.algorithms.len(), effective_jobs(cfg.jobs), |i| {
        run_one_under(fsm, cfg.algorithms[i], cfg, deadline, &front)
    })
    .into_iter()
    .enumerate()
    .map(|(i, r)| match r {
        Ok(run) => run,
        // run_one_under contains its own panic guard and reports Failed with
        // partial telemetry; this arm only fires if the *containment itself*
        // panicked, where no telemetry can be recovered.
        Err(msg) => AlgoRun {
            algorithm: cfg.algorithms[i],
            outcome: Outcome::Failed(msg),
            stages: StageTimes::default(),
            counters: RunCounters::default(),
            metrics: MetricsSnapshot::default(),
            wall: Duration::default(),
            overshoot: None,
        },
    })
    .collect();
    PortfolioReport {
        machine: machine.to_string(),
        runs,
        wall: start.elapsed(),
    }
}

/// Runs a single algorithm under the engine's limits and telemetry (the
/// `nova --json` single-run path).
pub fn run_one(fsm: &Fsm, algorithm: Algorithm, cfg: &EngineConfig) -> AlgoRun {
    let deadline = cfg.timeout.map(|t| Instant::now() + t);
    run_one_under(fsm, algorithm, cfg, deadline, &FrontEnd::new())
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

fn run_one_under(
    fsm: &Fsm,
    algorithm: Algorithm,
    cfg: &EngineConfig,
    deadline: Option<Instant>,
    front: &FrontEnd,
) -> AlgoRun {
    let tracer = cfg.tracer.fork();
    let ctl = RunCtl::new(cfg.node_budget, deadline, tracer.clone());
    if let Some(plan) = &cfg.fault_plan {
        ctl.arm_faults(plan);
    }
    run_contained(algorithm, &ctl, &tracer, deadline, |ctl, cell| {
        run_traced_shared(fsm, algorithm, cfg.target_bits, ctl, cell, front).status
    })
}

/// Runs `body` under the engine's panic containment. The ctl, tracer fork
/// and stage cell live *outside* the guard: a panicking worker still reports
/// every counter, span and completed-stage time it produced before dying.
/// A run under a `deadline` records how far past it the run ended, in
/// [`AlgoRun::overshoot`] and the `engine.deadline.overshoot_ms` histogram.
fn run_contained(
    algorithm: Algorithm,
    ctl: &RunCtl,
    tracer: &Tracer,
    deadline: Option<Instant>,
    body: impl FnOnce(&RunCtl, &StageCell) -> RunStatus,
) -> AlgoRun {
    let cell = StageCell::new();
    let t = Instant::now();
    let span = if tracer.is_enabled() {
        Some(tracer.span_dyn(format!("algo.{}", algorithm.name())))
    } else {
        None
    };
    let status = catch_unwind(AssertUnwindSafe(|| body(ctl, &cell)));
    drop(span);
    let overshoot = deadline.map(|d| Instant::now().saturating_duration_since(d));
    if let Some(o) = overshoot {
        tracer.observe("engine.deadline.overshoot_ms", o.as_millis() as u64);
    }
    let outcome = match status {
        Ok(RunStatus::Done(r)) => Outcome::Done(r),
        Ok(RunStatus::Unsolved) => Outcome::Unsolved,
        Ok(RunStatus::Cancelled) => Outcome::Timeout,
        Ok(RunStatus::Degraded(d)) => Outcome::Degraded(d),
        Err(e) => Outcome::Failed(panic_message(e)),
    };
    AlgoRun {
        algorithm,
        outcome,
        stages: cell.snapshot(),
        counters: ctl.counters(),
        metrics: tracer.metrics_snapshot(),
        wall: t.elapsed(),
        overshoot,
    }
}

fn stages_to_json(stages: &StageTimes) -> Json {
    Json::Obj(vec![
        (
            "constraints".into(),
            Json::Float(millis(stages.constraints)),
        ),
        ("embed".into(), Json::Float(millis(stages.embed))),
        ("encode".into(), Json::Float(millis(stages.encode))),
        ("espresso".into(), Json::Float(millis(stages.espresso))),
    ])
}

/// The per-machine object of the `nova-bench/1` report (and of each
/// `nova-bench-stream/1` line): the winning algorithm with its
/// area/cubes/bits, and per algorithm the outcome, area and stage wall
/// times.
pub fn machine_summary_json(rep: &PortfolioReport) -> Json {
    machine_summary_json_with(rep, true)
}

/// [`machine_summary_json`] with the wall-clock fields (`wall_ms`,
/// `stages_ms`, `overshoot_ms`) and each run's non-empty `metrics` optional:
/// `timings: false` emits only the deterministic fields, so two sweeps of the
/// same corpus — interrupted, resumed, or run end to end — produce
/// byte-identical lines. Resumable streams use this.
pub fn machine_summary_json_with(rep: &PortfolioReport, timings: bool) -> Json {
    let mut pairs = vec![("machine".into(), Json::str(&rep.machine))];
    match rep.best() {
        Some((i, best)) => {
            pairs.push(("best".into(), Json::str(rep.runs[i].algorithm.name())));
            pairs.push(("area".into(), Json::uint(best.area)));
            pairs.push(("cubes".into(), Json::uint(best.cubes as u64)));
            pairs.push(("bits".into(), Json::uint(best.bits as u64)));
            pairs.push(("literals".into(), Json::uint(best.literals as u64)));
        }
        None => {
            pairs.push(("best".into(), Json::Null));
            if let Some((i, d)) = rep.best_degraded() {
                pairs.push((
                    "degraded".into(),
                    degradation_summary(rep.runs[i].algorithm, d),
                ));
            }
        }
    }
    if timings {
        pairs.push(("wall_ms".into(), Json::Float(millis(rep.wall))));
    }
    pairs.push((
        "runs".into(),
        Json::Arr(
            rep.runs
                .iter()
                .map(|run| {
                    let mut rp = vec![
                        ("algorithm".into(), Json::str(run.algorithm.name())),
                        ("outcome".into(), Json::str(run.outcome.tag())),
                    ];
                    if let Some(res) = run.outcome.result() {
                        rp.push(("area".into(), Json::uint(res.area)));
                        rp.push(("cubes".into(), Json::uint(res.cubes as u64)));
                    }
                    if let Some(d) = run.outcome.degradation() {
                        rp.push(("degraded_reason".into(), Json::str(d.reason.tag())));
                        rp.push(("degraded_bits".into(), Json::uint(d.encoding.bits() as u64)));
                    }
                    if timings {
                        rp.push(("wall_ms".into(), Json::Float(millis(run.wall))));
                        rp.push(("stages_ms".into(), stages_to_json(&run.stages)));
                        if let Some(o) = run.overshoot {
                            rp.push(("overshoot_ms".into(), Json::Float(millis(o))));
                        }
                        if !run.metrics.is_empty() {
                            rp.push(("metrics".into(), run.metrics.to_json()));
                        }
                    }
                    rp
                })
                .map(Json::Obj)
                .collect(),
        ),
    ));
    Json::Obj(pairs)
}

/// Machine-readable benchmark trajectory of a suite sweep (the document
/// `nova bench --bench-out` writes): one [`machine_summary_json`] entry per
/// machine plus a throughput summary — enough to diff both area and
/// machines/sec between PRs. The summary's wall time is the sum of
/// per-machine portfolio walls (the sequential equivalent); use
/// [`suite_to_json_timed`] to record a measured elapsed wall instead
/// (shorter under `--batch-jobs N`).
pub fn suite_to_json(reports: &[PortfolioReport]) -> Json {
    suite_to_json_timed(reports, reports.iter().map(|r| r.wall).sum())
}

/// [`suite_to_json`] with an explicitly measured total wall time for the
/// throughput summary.
pub fn suite_to_json_timed(reports: &[PortfolioReport], wall: Duration) -> Json {
    let machines = reports.iter().map(machine_summary_json).collect();
    let summary = Json::Obj(vec![
        ("machines".into(), Json::uint(reports.len() as u64)),
        ("wall_ms".into(), Json::Float(millis(wall))),
        (
            "machines_per_sec".into(),
            Json::Float(throughput(reports.len(), wall)),
        ),
    ]);
    Json::Obj(vec![
        ("schema".into(), Json::str("nova-bench/1")),
        ("summary".into(), summary),
        ("machines".into(), Json::Arr(machines)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_trace::json;

    fn machine(name: &str) -> Fsm {
        fsm::benchmarks::by_name(name)
            .expect("embedded benchmark")
            .fsm
    }

    #[test]
    fn run_jobs_preserves_order_and_catches_panics() {
        let out = run_jobs(8, 4, |i| {
            if i == 3 {
                panic!("boom {i}");
            }
            i * 10
        });
        for (i, r) in out.iter().enumerate() {
            match (i, r) {
                (3, Err(msg)) => assert!(msg.contains("boom 3"), "{msg}"),
                (_, Ok(v)) => assert_eq!(*v, i * 10),
                other => panic!("unexpected slot: {other:?}"),
            }
        }
    }

    #[test]
    fn run_jobs_single_worker_matches_many() {
        let a = run_jobs(6, 1, |i| i + 1);
        let b = run_jobs(6, 6, |i| i + 1);
        let unwrap = |v: Vec<Result<usize, String>>| -> Vec<usize> {
            v.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(unwrap(a), unwrap(b));
    }

    #[test]
    fn one_worker_runs_every_job_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for r in run_jobs(5, 1, |_| std::thread::current().id()) {
            assert_eq!(r.expect("no job panics"), caller);
        }
    }

    #[test]
    fn panicking_algorithm_degrades_to_failed() {
        // Drive the degradation path through run_portfolio's mapping by
        // checking run_jobs' contract directly on the portfolio shape: a
        // panic in one slot must not disturb its neighbours.
        let out = run_jobs(3, 2, |i| {
            if i == 1 {
                panic!("injected");
            }
            i
        });
        assert!(out[0].is_ok() && out[2].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn portfolio_reports_every_algorithm() {
        let report = run_portfolio(&machine("lion"), "lion", &EngineConfig::default());
        assert_eq!(report.runs.len(), Algorithm::ALL.len());
        for (run, alg) in report.runs.iter().zip(Algorithm::ALL) {
            assert_eq!(run.algorithm, alg);
        }
        let (_, best) = report.best().expect("lion always solves");
        assert!(best.area > 0);
    }

    #[test]
    fn best_breaks_ties_by_configured_order() {
        // Duplicate the same algorithm: equal areas, first index must win.
        let cfg = EngineConfig {
            algorithms: vec![Algorithm::OneHot, Algorithm::OneHot],
            jobs: 2,
            ..EngineConfig::default()
        };
        let report = run_portfolio(&machine("lion"), "lion", &cfg);
        let (i, _) = report.best().expect("one-hot always completes");
        assert_eq!(i, 0);
    }

    #[test]
    fn zero_timeout_times_every_algorithm_out() {
        let cfg = EngineConfig {
            timeout: Some(Duration::ZERO),
            ..EngineConfig::default()
        };
        let report = run_portfolio(&machine("bbtas"), "bbtas", &cfg);
        for run in &report.runs {
            assert!(
                matches!(run.outcome, Outcome::Timeout),
                "{} ended {:?}",
                run.algorithm.name(),
                run.outcome.tag()
            );
        }
        assert!(report.best().is_none());
    }

    #[test]
    fn node_budget_is_deterministic_across_jobs() {
        let base = EngineConfig {
            node_budget: Some(5_000),
            ..EngineConfig::default()
        };
        let m = machine("bbtas");
        let seq = run_portfolio(
            &m,
            "bbtas",
            &EngineConfig {
                jobs: 1,
                ..base.clone()
            },
        );
        let par = run_portfolio(
            &m,
            "bbtas",
            &EngineConfig {
                jobs: 4,
                ..base.clone()
            },
        );
        for (a, b) in seq.runs.iter().zip(par.runs.iter()) {
            assert_eq!(a.outcome.tag(), b.outcome.tag(), "{}", a.algorithm.name());
            if let (Outcome::Done(x), Outcome::Done(y)) = (&a.outcome, &b.outcome) {
                assert_eq!(x.encoding, y.encoding, "{}", a.algorithm.name());
                assert_eq!(x.area, y.area);
            }
        }
    }

    #[test]
    fn iexact_work_stays_within_one_max_work_budget() {
        // dk16 exhausts iexact's budget without a solution, so the faces it
        // tried are the whole budget: one `max_work` per run (paper §III),
        // not one per root face.
        let dk16 = machine("dk16");
        let run = run_one(&dk16, Algorithm::IExact, &EngineConfig::default());
        assert_eq!(run.outcome.tag(), "unsolved");
        let max_work = nova_core::ExactOptions::default()
            .max_work
            .expect("default budget");
        assert!(
            run.counters.faces_tried <= max_work + max_work / 100,
            "{} faces tried under max_work {max_work}",
            run.counters.faces_tried
        );
    }

    #[test]
    fn panicked_run_keeps_pre_panic_telemetry() {
        // Drive run_contained with a body that emits counters, a span, a
        // stage time and a metric before panicking: all four must survive
        // into the Failed AlgoRun (the satellite fix — panicked workers used
        // to report empty telemetry).
        let tracer = Tracer::enabled();
        let fork = tracer.fork();
        let ctl = RunCtl::new(None, None, fork.clone());
        let run = run_contained(Algorithm::IExact, &ctl, &fork, None, |ctl, cell| {
            ctl.count_faces(1);
            ctl.count_backtracks(1);
            ctl.tracer().incr("test.partial", 7);
            let _s = ctl.tracer().span("dies-inside");
            cell.add(|s| s.embed = Duration::from_millis(3));
            panic!("injected failure");
        });
        match &run.outcome {
            Outcome::Failed(msg) => assert!(msg.contains("injected failure"), "{msg}"),
            other => panic!("expected Failed, got {}", other.tag()),
        }
        assert_eq!(run.counters.faces_tried, 1);
        assert_eq!(run.counters.backtracks, 1);
        assert_eq!(run.stages.embed, Duration::from_millis(3));
        assert_eq!(run.metrics.counters, vec![("test.partial".to_string(), 7)]);
        // The span guard unwound during the panic, so B/E still balance.
        let evs = tracer.collected_events();
        let b = evs.iter().filter(|e| e.phase == nova_trace::Phase::Begin);
        let e = evs.iter().filter(|e| e.phase == nova_trace::Phase::End);
        assert_eq!(b.count(), e.count());
    }

    #[test]
    fn traced_portfolio_collects_per_algorithm_spans_and_metrics() {
        let tracer = Tracer::enabled();
        let cfg = EngineConfig {
            tracer: tracer.clone(),
            ..EngineConfig::default()
        };
        let report = run_portfolio(&machine("lion"), "lion", &cfg);
        let evs = tracer.collected_events();
        for alg in Algorithm::ALL {
            let name = format!("algo.{}", alg.name());
            assert!(evs.iter().any(|e| e.name == name), "missing span {name}");
        }
        // espresso iterations show up both as spans and per-run histograms.
        assert!(evs.iter().any(|e| e.name == "espresso.minimize"));
        let with_metrics = report.runs.iter().filter(|r| !r.metrics.is_empty());
        assert!(with_metrics.count() > 0, "no run captured metrics");
        let j = report.to_json().to_compact();
        assert!(j.contains("\"metrics\""), "report JSON lacks metrics: {j}");
        // Timed machine summaries (stream lines, --bench-out entries) carry
        // them too; resumable lines never do.
        let timed = machine_summary_json(&report).to_compact();
        assert!(
            timed.contains("\"metrics\""),
            "summary lacks metrics: {timed}"
        );
        assert!(!machine_summary_json_with(&report, false)
            .to_compact()
            .contains("\"metrics\""));
        // The whole trace round-trips through both sinks.
        let mut chrome = Vec::new();
        tracer.write_chrome(&mut chrome).unwrap();
        json::parse(std::str::from_utf8(&chrome).unwrap()).unwrap();
        let mut jsonl = Vec::new();
        tracer.write_jsonl(&mut jsonl).unwrap();
        for line in std::str::from_utf8(&jsonl).unwrap().lines() {
            json::parse(line).unwrap();
        }
    }

    #[test]
    fn disabled_tracer_leaves_metrics_empty() {
        let report = run_portfolio(&machine("lion"), "lion", &EngineConfig::default());
        for run in &report.runs {
            assert!(run.metrics.is_empty(), "{}", run.algorithm.name());
        }
        assert!(!report.to_json().to_compact().contains("\"metrics\""));
        assert!(!machine_summary_json(&report)
            .to_compact()
            .contains("\"metrics\""));
    }

    #[test]
    fn suite_json_shape_is_machine_readable() {
        let cfg = EngineConfig {
            algorithms: vec![Algorithm::OneHot, Algorithm::IGreedy],
            ..EngineConfig::default()
        };
        let reports = vec![
            run_portfolio(&machine("lion"), "lion", &cfg),
            run_portfolio(&machine("bbtas"), "bbtas", &cfg),
        ];
        let j = suite_to_json(&reports);
        let text = j.to_compact();
        let parsed = json::parse(&text).expect("suite json parses");
        assert_eq!(parsed.get("schema"), Some(&Json::str("nova-bench/1")));
        let summary = parsed.get("summary").expect("summary object");
        assert_eq!(summary.get("machines"), Some(&Json::uint(2)));
        assert!(summary.get("wall_ms").is_some());
        assert!(summary.get("machines_per_sec").is_some());
        let Some(Json::Arr(machines)) = parsed.get("machines") else {
            panic!("machines missing: {text}");
        };
        assert_eq!(machines.len(), 2);
        for m in machines {
            assert!(m.get("machine").is_some());
            assert!(m.get("best").is_some());
            assert!(m.get("area").is_some());
            assert!(m.get("cubes").is_some());
            let Some(Json::Arr(runs)) = m.get("runs") else {
                panic!("runs missing");
            };
            assert_eq!(runs.len(), 2);
            for r in runs {
                assert!(r.get("stages_ms").is_some());
            }
        }
    }

    #[test]
    fn report_serializes_to_json() {
        let report = run_portfolio(&machine("lion"), "lion", &EngineConfig::default());
        let j = report.to_json().to_compact();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"machine\":\"lion\""));
        assert!(j.contains("\"runs\":["));
        assert!(j.contains("\"counters\""));
        let pretty = report.to_json().to_pretty();
        assert!(pretty.contains("\n  \"machine\": \"lion\""));
    }

    #[test]
    fn run_jobs_recovers_from_poisoned_result_slot() {
        // A payload whose Drop panics poisons the slot mutex *after* the
        // result was stored; collection must recover the value, not cascade.
        struct PanicsOnDrop(bool);
        impl Drop for PanicsOnDrop {
            fn drop(&mut self) {
                if self.0 && !std::thread::panicking() {
                    panic!("drop bomb");
                }
            }
        }
        let out = run_jobs(2, 2, |i| {
            // Arm the bomb only transiently so the stored value is benign;
            // the panic from the temporary poisons nothing observable here,
            // but the catch_unwind path is exercised.
            let _ = catch_unwind(AssertUnwindSafe(|| drop(PanicsOnDrop(i == 0))));
            i + 1
        });
        assert_eq!(
            out.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
            [1, 2]
        );
    }

    #[test]
    fn injected_deadline_fault_yields_degraded_not_unsolved() {
        // Fire a synthetic deadline on the first charge of the espresso
        // stage: by then the driver has offered the completed encoding at
        // maximum score, so every algorithm that reaches espresso must
        // degrade to a full, valid encoding.
        let fsm = machine("lion");
        let cfg = EngineConfig {
            algorithms: vec![Algorithm::IHybrid],
            fault_plan: Some(FaultPlan::single(
                "stage.espresso",
                1,
                espresso::FaultKind::Deadline,
            )),
            ..EngineConfig::default()
        };
        let run = run_one(&fsm, Algorithm::IHybrid, &cfg);
        let Outcome::Degraded(d) = &run.outcome else {
            panic!("expected degraded, got {}", run.outcome.tag());
        };
        assert_eq!(d.reason, espresso::CancelReason::Deadline);
        assert_eq!(d.encoding.codes().len(), fsm.num_states());
        assert_eq!(run.outcome.tag(), "degraded");
    }

    #[test]
    fn degraded_ranks_below_done_and_above_failed() {
        // A portfolio where one algorithm completes must keep reporting that
        // run as best even if another degrades.
        let fsm = machine("lion");
        let report = run_portfolio(
            &fsm,
            "lion",
            &EngineConfig {
                algorithms: vec![Algorithm::IGreedy, Algorithm::IHybrid],
                ..EngineConfig::default()
            },
        );
        assert!(report.best().is_some());

        // And an all-degraded portfolio surfaces the fallback.
        let cfg = EngineConfig {
            algorithms: vec![Algorithm::IHybrid, Algorithm::IGreedy],
            fault_plan: Some(FaultPlan::single(
                "stage.espresso",
                1,
                espresso::FaultKind::Budget,
            )),
            ..EngineConfig::default()
        };
        let report = run_portfolio(&fsm, "lion", &cfg);
        assert!(report.best().is_none(), "no run completes under the fault");
        let (_, d) = report.best_degraded().expect("anytime fallback");
        assert_eq!(d.encoding.codes().len(), fsm.num_states());
        let j = report.to_json().to_compact();
        assert!(j.contains("\"best\":null"));
        assert!(j.contains("\"degraded\""));
        assert!(j.contains("\"outcome\":\"degraded\""));
    }

    #[test]
    fn deadline_runs_report_their_overshoot() {
        // IExact on this 12-state machine runs far past 20 ms, so the run
        // ends after its deadline and says by how much, in the run record,
        // the per-run summary and the run's own metrics.
        let spec = fsm::ScaleSpec::parse("machines=1,states=12,inputs=3,outputs=3,seed=33")
            .expect("valid spec");
        let m = spec.machine(0);
        let cfg = EngineConfig {
            algorithms: vec![Algorithm::IExact],
            timeout: Some(Duration::from_millis(20)),
            tracer: Tracer::enabled(),
            ..EngineConfig::default()
        };
        let report = run_portfolio(&m, "m", &cfg);
        let run = &report.runs[0];
        assert!(run.overshoot.is_some(), "a run under a deadline records it");
        assert!(run.to_json().to_compact().contains("\"overshoot_ms\""));
        assert!(machine_summary_json(&report)
            .to_compact()
            .contains("\"overshoot_ms\""));
        assert!(!machine_summary_json_with(&report, false)
            .to_compact()
            .contains("overshoot_ms"));
        assert!(run
            .metrics
            .histograms
            .iter()
            .any(|(n, h)| n == "engine.deadline.overshoot_ms" && h.count == 1));

        // No deadline, no overshoot: a node budget bounds the same run.
        let cfg = EngineConfig {
            algorithms: vec![Algorithm::IExact],
            node_budget: Some(20_000),
            ..EngineConfig::default()
        };
        let report = run_portfolio(&m, "m", &cfg);
        assert_eq!(report.runs[0].overshoot, None);
        assert!(!report.to_json().to_compact().contains("overshoot_ms"));
        assert!(!machine_summary_json(&report)
            .to_compact()
            .contains("overshoot_ms"));
    }

    #[test]
    fn injected_panic_is_contained_as_failed() {
        let fsm = machine("lion");
        let cfg = EngineConfig {
            algorithms: vec![Algorithm::IHybrid],
            fault_plan: Some(FaultPlan::single("*", 1, espresso::FaultKind::Panic)),
            ..EngineConfig::default()
        };
        let run = run_one(&fsm, Algorithm::IHybrid, &cfg);
        let Outcome::Failed(msg) = &run.outcome else {
            panic!("expected failed, got {}", run.outcome.tag());
        };
        assert!(msg.contains("nova-chaos"), "{msg}");
    }
}
