//! Batch engine: constant-memory portfolio sweeps over corpora far past
//! the embedded MCNC suite.
//!
//! The pre-scale batch path walked machines one at a time and accumulated
//! every [`PortfolioReport`] in a `Vec` — single-threaded across machines,
//! O(corpus) memory. This module replaces it with:
//!
//! * **A machine source, not a machine list** ([`MachineSource`]): corpora
//!   are described (embedded suite, [`ScaleSpec`] synthetic family) and each
//!   machine is materialized on demand by the worker that runs it, then
//!   dropped. A 100k-machine sweep never holds more than
//!   `workers + window` machines' worth of state.
//! * **The portfolio's scheduler** ([`run_batch`]): workers claim machine
//!   indices in ascending order from one atomic counter, the same claim
//!   loop [`crate::run_portfolio`] runs its algorithms on. Whole portfolios
//!   run per worker (each portfolio runs its algorithms one after another
//!   when `batch_jobs > 1`, so the thread count is exactly `batch_jobs` and
//!   the thread-local scratch pools are reused across every machine a
//!   worker touches).
//! * **Deterministic, bounded, in-order emission**: completed reports enter
//!   a reorder buffer and are handed to the sink strictly in machine-index
//!   order. The buffer is capped at `window` reports; a worker about to run
//!   a machine too far ahead of the emission cursor blocks until the prefix
//!   catches up, which bounds memory independent of corpus size. Report
//!   *content* is identical at any `--batch-jobs` count (the PR 4/8
//!   sequential-replay pattern: node budgets, not wall clocks, limit work),
//!   which the batch determinism tests pin via [`report_fingerprint`].
//! * **A streamed report** ([`StreamWriter`], schema `nova-bench-stream/1`):
//!   one JSONL line per machine as it is emitted plus a final throughput
//!   summary, so the accumulated `nova-bench/1` document is only needed for
//!   the small committed baselines.
//!
//! * **Quarantine** (`nova-sentinel`): each machine runs once. One whose
//!   portfolio crashes (panics, or fails every run with nothing usable) is
//!   *quarantined* — recorded in the returned [`BatchReport`], on its own
//!   stream line and in the stream summary's `quarantine` section — instead
//!   of aborting the sweep. It is not retried: the engine is deterministic,
//!   so a retry would crash the same way. Wall time is bounded by
//!   [`EngineConfig::timeout`] alone.
//! * **Crash-safe resume** ([`StreamWriter::resume`],
//!   [`run_batch_resumable`]): emission is strictly in machine-index order,
//!   so a stream file always holds a prefix of the sweep. A resumable stream
//!   carries no wall-clock field, binds its header to the corpus and the
//!   options, and is fsync'd in batches; reopening it keeps its complete
//!   machine lines, truncates the rest, and the sweep restarts at the first
//!   machine it lacks.
//!
//! Telemetry: `engine.batch.machines` / `.backpressure` / `.quarantine`
//! counters and the `engine.batch.queue.depth` gauge on the session tracer.

use crate::{machine_summary_json_with, report_fingerprint, EngineConfig, PortfolioReport};
use fsm::{Fsm, ScaleSpec};
use nova_trace::json::Json;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the guard from a poisoned lock instead of
/// cascading the panic. Every batch-layer mutex holds plain data (the
/// reorder buffer, the quarantine list) whose invariants hold between
/// statements, so a panic elsewhere never leaves them half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A corpus the batch engine can sweep: machines addressed by index,
/// materialized on demand. Implementations must be cheap to query for
/// `len`/`name` and must return the identical machine for the same index on
/// every call, from any thread — the determinism and replay guarantees rest
/// on it.
pub trait MachineSource: Sync {
    /// Number of machines in the corpus.
    fn len(&self) -> usize;
    /// Whether the corpus is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Name of machine `i` (report key; stable across calls).
    fn name(&self, i: usize) -> String;
    /// Materializes machine `i`. The batch engine calls it once per sweep,
    /// on whichever worker claimed the index, and drops the machine after
    /// its portfolio. A resumable stream ([`StreamWriter::resume`]) calls
    /// it once more per machine, before the sweep, to fingerprint the
    /// corpus.
    fn machine(&self, i: usize) -> Fsm;
    /// One-line corpus description for stream headers and scale baselines.
    fn describe(&self) -> String;
}

/// The embedded MCNC benchmark suite (optionally filtered by name) as a
/// batch corpus.
pub struct SuiteSource {
    benches: Vec<fsm::benchmarks::Benchmark>,
}

impl SuiteSource {
    /// The whole embedded suite.
    pub fn new() -> Self {
        Self::filtered(&[])
    }

    /// The suite restricted to `names`; an empty slice keeps every machine.
    /// Unknown names are silently skipped — callers that care (the CLI)
    /// validate against [`fsm::benchmarks::by_name`] up front.
    pub fn filtered(names: &[String]) -> Self {
        SuiteSource {
            benches: fsm::benchmarks::suite()
                .into_iter()
                .filter(|b| names.is_empty() || names.iter().any(|n| n == b.name))
                .collect(),
        }
    }
}

impl Default for SuiteSource {
    fn default() -> Self {
        Self::new()
    }
}

impl MachineSource for SuiteSource {
    fn len(&self) -> usize {
        self.benches.len()
    }
    fn name(&self, i: usize) -> String {
        self.benches[i].name.to_string()
    }
    fn machine(&self, i: usize) -> Fsm {
        self.benches[i].fsm.clone()
    }
    fn describe(&self) -> String {
        format!("suite:{}", self.benches.len())
    }
}

/// A [`ScaleSpec`] synthetic corpus: machine `i` is generated (and later
/// dropped) by the worker that runs it.
impl MachineSource for ScaleSpec {
    fn len(&self) -> usize {
        self.machines
    }
    fn name(&self, i: usize) -> String {
        ScaleSpec::name(self, i)
    }
    fn machine(&self, i: usize) -> Fsm {
        ScaleSpec::machine(self, i)
    }
    fn describe(&self) -> String {
        self.spec_string()
    }
}

/// Shape of a batch run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads sweeping machines; `0` = available parallelism. Each
    /// worker runs whole portfolios, so this is also the total thread count
    /// when it exceeds 1 (inner parallelism is forced sequential).
    pub batch_jobs: usize,
    /// Reorder-buffer capacity in reports; `0` = auto (half the corpus,
    /// clamped to `max(4 × workers, 16)..=256 × workers`). This is the
    /// memory bound: a worker never starts a machine `window` or more
    /// indices ahead of the emission cursor.
    pub window: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            batch_jobs: 1,
            window: 0,
        }
    }
}

impl BatchConfig {
    /// The reorder window of a `len`-machine sweep on `workers >= 1`
    /// workers.
    fn effective_window(&self, len: usize, workers: usize) -> usize {
        if self.window > 0 {
            self.window
        } else {
            (len / 2).clamp((4 * workers).max(16), 256 * workers)
        }
    }
}

/// One machine that crashed: the sweep completed without it producing a
/// usable result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Machine index in the corpus.
    pub index: usize,
    /// Machine name (report key).
    pub machine: String,
    /// Why it was quarantined: the crash message.
    pub reason: String,
}

/// What a batch sweep did beyond the per-machine reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Machines actually run this sweep (excludes resumed skips).
    pub machines: usize,
    /// Always 0: machines are never retried.
    #[deprecated(note = "always 0: each machine runs once")]
    pub retries: u64,
    /// Machines that crashed, in index order.
    pub quarantined: Vec<QuarantineRecord>,
}

/// Shared in-order emission state: the reorder buffer plus the sink.
struct Emit<'s> {
    /// Next machine index to hand to the sink.
    next: usize,
    /// Completed reports waiting for their prefix, with the quarantine
    /// record of machines that crashed.
    pending: BTreeMap<usize, (PortfolioReport, Option<QuarantineRecord>)>,
    /// Receives `(index, report, quarantine)` strictly in index order.
    sink: &'s mut (dyn FnMut(usize, PortfolioReport, Option<&QuarantineRecord>) + Send),
}

/// Sweeps every machine of `src` through [`crate::run_portfolio`] under
/// `cfg`, spread across `bcfg` workers, and hands each report to `sink` in
/// machine-index order. Memory is bounded by the reorder window, not the
/// corpus; report content is identical at any worker count (wall-clock
/// deadlines excepted, as everywhere in the engine).
///
/// Each machine runs once. One whose generation or portfolio crashes is
/// quarantined (its report, possibly empty, is still emitted so the stream
/// stays complete). The engine's panic-free guarantee extends to the batch
/// layer: the sweep always completes and reports what happened in the
/// returned [`BatchReport`].
pub fn run_batch(
    src: &dyn MachineSource,
    cfg: &EngineConfig,
    bcfg: &BatchConfig,
    sink: &mut (dyn FnMut(usize, PortfolioReport) + Send),
) -> BatchReport {
    run_batch_resumable(src, cfg, bcfg, 0, &mut |i, rep, _| sink(i, rep))
}

/// The crash reason of a report that produced nothing usable: the first
/// failed run's message when neither a completed nor a degraded result
/// exists. (Fault-injected panics are contained *inside* the portfolio as
/// `Failed` runs, so this — not a batch-level unwind — is how a poisoned
/// machine surfaces.)
fn crash_reason(rep: &PortfolioReport) -> Option<String> {
    if rep.best().is_some() || rep.best_degraded().is_some() {
        return None;
    }
    rep.runs.iter().find_map(|r| match &r.outcome {
        crate::Outcome::Failed(msg) => Some(msg.clone()),
        _ => None,
    })
}

/// [`run_batch`] from machine `start` on: the machines below it, which an
/// interrupted sweep already recorded ([`StreamWriter::resumed`]), are never
/// generated or run. The sink sees `start..len` strictly in machine-index
/// order, each report with the quarantine record of a machine that crashed.
pub fn run_batch_resumable(
    src: &dyn MachineSource,
    cfg: &EngineConfig,
    bcfg: &BatchConfig,
    start: usize,
    sink: &mut (dyn FnMut(usize, PortfolioReport, Option<&QuarantineRecord>) + Send),
) -> BatchReport {
    let len = src.len();
    let remaining = len.saturating_sub(start);
    if remaining == 0 {
        return BatchReport::default();
    }
    let workers = crate::effective_jobs(bcfg.batch_jobs).min(remaining);
    let window = bcfg.effective_window(remaining, workers);
    let tracer = &cfg.tracer;

    // Whole portfolios per worker: with more than one batch worker each
    // portfolio runs its algorithms one after another, so the sweep runs
    // exactly `workers` threads and every per-thread scratch pool is reused
    // machine after machine. Content is unaffected by construction (the
    // engine's determinism contract across `jobs`).
    let inner = if workers > 1 {
        EngineConfig {
            jobs: 1,
            ..cfg.clone()
        }
    } else {
        cfg.clone()
    };

    let emit = Mutex::new(Emit {
        next: start,
        pending: BTreeMap::new(),
        sink,
    });
    let emitted = Condvar::new();

    let ran = AtomicUsize::new(0);
    let quarantined: Mutex<Vec<QuarantineRecord>> = Mutex::new(Vec::new());

    // Runs machine `i` once. A crash (an unwind out of machine generation or
    // the portfolio, or a portfolio with nothing usable) quarantines it; a
    // report, possibly empty, is always returned so the stream stays
    // complete.
    let run_machine = |i: usize| -> (PortfolioReport, Option<QuarantineRecord>) {
        let name = src.name(i);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crate::run_portfolio(&src.machine(i), &name, &inner)
        }));
        let (report, crash) = match outcome {
            Ok(rep) => {
                let crash = crash_reason(&rep);
                (rep, crash)
            }
            // Containment failed below us: treat the unwind as a crash.
            Err(e) => (
                PortfolioReport {
                    machine: name.clone(),
                    runs: Vec::new(),
                    wall: Duration::default(),
                },
                Some(crate::panic_message(e)),
            ),
        };
        let Some(reason) = crash else {
            return (report, None);
        };
        tracer.incr("engine.batch.quarantine", 1);
        let quarantine = QuarantineRecord {
            index: i,
            machine: name,
            reason,
        };
        (report, Some(quarantine))
    };

    // Blocks until `i` is inside the reorder window, then runs machine `i`
    // and pushes its report through the in-order emitter.
    let run_one = |i: usize| {
        {
            let mut g = lock(&emit);
            while i >= g.next + window {
                tracer.incr("engine.batch.backpressure", 1);
                g = emitted.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        }
        let (report, quarantine) = run_machine(i);
        if let Some(q) = &quarantine {
            lock(&quarantined).push(q.clone());
        }
        ran.fetch_add(1, Ordering::Relaxed);
        tracer.incr("engine.batch.machines", 1);
        let mut g = lock(&emit);
        g.pending.insert(i, (report, quarantine));
        tracer.gauge("engine.batch.queue.depth", g.pending.len() as i64);
        loop {
            let at = g.next;
            let Some((r, q)) = g.pending.remove(&at) else {
                break;
            };
            (g.sink)(at, r, q.as_ref());
            g.next += 1;
        }
        drop(g);
        emitted.notify_all();
    };

    // Claims are ascending, so the lowest unemitted machine has always been
    // claimed and its worker never waits (`i < next + window` holds for
    // `i == next`): the emission cursor keeps advancing and the window
    // cannot deadlock.
    crate::claim_loop(remaining, workers, |k| run_one(start + k));

    // Every machine completed, so the reorder buffer fully drained.
    {
        let g = lock(&emit);
        debug_assert_eq!(g.next, len);
        debug_assert!(g.pending.is_empty());
    }

    let mut quarantined = std::mem::take(&mut *lock(&quarantined));
    quarantined.sort_by_key(|q| q.index);
    BatchReport {
        machines: ran.load(Ordering::Relaxed),
        quarantined,
        ..BatchReport::default()
    }
}

/// FNV-1a: over a report fingerprint, the short replay key embedded in
/// stream lines so byte-identity across worker counts is checkable from the
/// JSONL alone; over the machines' fingerprints, a resumable stream's
/// `corpus_fp`.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-machine outcome tallies accumulated by a [`StreamWriter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamTally {
    /// Machines whose portfolio produced a completed best result.
    pub solved: usize,
    /// Machines with only a degraded (anytime) fallback.
    pub degraded: usize,
    /// Machines with neither.
    pub unresolved: usize,
    /// Machines quarantined (each also counted in one of the classes above).
    pub quarantined: usize,
}

/// The stream-level outcome class of one machine line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineClass {
    /// A completed best result exists.
    Solved,
    /// Only a degraded (anytime) fallback exists.
    Degraded,
    /// Neither.
    Unresolved,
}

impl MachineClass {
    /// The stream class of a report (what [`StreamWriter::report`] tallies).
    pub fn of(rep: &PortfolioReport) -> MachineClass {
        if rep.best().is_some() {
            MachineClass::Solved
        } else if rep.best_degraded().is_some() {
            MachineClass::Degraded
        } else {
            MachineClass::Unresolved
        }
    }

    /// The class of a machine line already in a stream: the same rule read
    /// back from its `best` and `degraded` fields.
    fn of_line(line: &Json) -> MachineClass {
        if line.get("best").is_some_and(|b| *b != Json::Null) {
            MachineClass::Solved
        } else if line.get("degraded").is_some() {
            MachineClass::Degraded
        } else {
            MachineClass::Unresolved
        }
    }
}

impl StreamTally {
    fn add(&mut self, class: MachineClass) {
        match class {
            MachineClass::Solved => self.solved += 1,
            MachineClass::Degraded => self.degraded += 1,
            MachineClass::Unresolved => self.unresolved += 1,
        }
    }
}

/// Lines a resumable stream writes between two fsyncs.
const SYNC_EVERY: usize = 16;

/// Incremental `nova-bench-stream/1` JSONL writer: a header line, one
/// report line per machine (in emission order — machine-index order when
/// fed from [`run_batch`]), and a final summary line carrying the tallies
/// and the quarantine list. Memory is O(1) in the corpus apart from the
/// quarantine list: each line is serialized and flushed from the report it
/// came from.
///
/// A stream opened with [`StreamWriter::new`] is *timed*: its header names
/// the `batch_jobs` count, machine lines carry wall and stage times and, in
/// a traced sweep, each run's `metrics`, and the summary carries wall time
/// and machines/sec. A stream opened with [`StreamWriter::resume`] is
/// *resumable*: none of those, so every byte is a function of the corpus
/// and the options alone, at any worker count.
///
/// ```text
/// {"schema":"nova-bench-stream/1","corpus":"machines=3,...","machines":3,"batch_jobs":2}
/// {"machine":"synth-000000","best":"ihybrid","area":112,...,"fingerprint":"9f3c..."}
/// ...
/// {"summary":{"machines":3,"solved":3,"degraded":0,"unresolved":0,"quarantined":0,"wall_ms":41.2,"machines_per_sec":72.8}}
/// ```
pub struct StreamWriter<W: Write> {
    w: W,
    start: Instant,
    /// Machine lines in the stream, resumed ones included.
    count: usize,
    /// Machine lines the file already held when it was resumed.
    resumed: usize,
    tally: StreamTally,
    /// Quarantined machines in index order, for the summary.
    quarantine: Vec<QuarantineRecord>,
    /// Flushes and fsyncs a resumable stream's file; `None` marks a timed
    /// stream.
    sync: Option<fn(&mut W) -> io::Result<()>>,
    /// Lines written since the last fsync.
    unsynced: usize,
}

impl<W: Write> StreamWriter<W> {
    /// Writes a timed stream's header line and starts the throughput clock.
    pub fn new(mut w: W, corpus: &str, machines: usize, batch_jobs: usize) -> io::Result<Self> {
        let header = Json::Obj(vec![
            ("schema".into(), Json::str(STREAM_SCHEMA)),
            ("corpus".into(), Json::str(corpus)),
            ("machines".into(), Json::uint(machines as u64)),
            ("batch_jobs".into(), Json::uint(batch_jobs as u64)),
        ]);
        writeln!(w, "{}", header.to_compact())?;
        Ok(StreamWriter {
            w,
            start: Instant::now(),
            count: 0,
            resumed: 0,
            tally: StreamTally::default(),
            quarantine: Vec::new(),
            sync: None,
            unsynced: 0,
        })
    }

    /// Renders one machine line (no trailing newline) of a machine that was
    /// not quarantined: the `nova-bench/1` machine object plus its
    /// timing-stripped fingerprint.
    pub fn render_line(rep: &PortfolioReport, timings: bool) -> String {
        machine_line(rep, timings).to_compact()
    }

    /// Machine lines the file already held when [`StreamWriter::resume`]
    /// opened it: the index the sweep restarts at.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Writes one machine's report line; a quarantined machine's line also
    /// carries its `quarantine` reason.
    pub fn report(
        &mut self,
        rep: &PortfolioReport,
        quarantine: Option<&QuarantineRecord>,
    ) -> io::Result<()> {
        let mut line = machine_line(rep, self.sync.is_none());
        if let (Some(q), Json::Obj(pairs)) = (quarantine, &mut line) {
            pairs.push(("quarantine".into(), Json::str(&q.reason)));
            self.quarantine.push(q.clone());
        }
        self.tally.add(MachineClass::of(rep));
        self.count += 1;
        writeln!(self.w, "{}", line.to_compact())?;
        if let Some(sync) = self.sync {
            self.unsynced += 1;
            if self.unsynced == SYNC_EVERY {
                sync(&mut self.w)?;
                self.unsynced = 0;
            }
        }
        Ok(())
    }

    /// Writes the summary line: the tallies, the `quarantined` count and, when
    /// non-empty, the `quarantine` list (index / machine / reason); a timed
    /// stream adds wall time and machines/sec over the machines this run
    /// wrote. Returns `(tally, machines/sec)`.
    pub fn finish(mut self) -> io::Result<(StreamTally, f64)> {
        let wall = self.start.elapsed();
        let per_sec = throughput(self.count - self.resumed, wall);
        self.tally.quarantined = self.quarantine.len();
        let mut pairs = vec![
            ("machines".into(), Json::uint(self.count as u64)),
            ("solved".into(), Json::uint(self.tally.solved as u64)),
            ("degraded".into(), Json::uint(self.tally.degraded as u64)),
            (
                "unresolved".into(),
                Json::uint(self.tally.unresolved as u64),
            ),
            (
                "quarantined".into(),
                Json::uint(self.tally.quarantined as u64),
            ),
        ];
        if !self.quarantine.is_empty() {
            pairs.push((
                "quarantine".into(),
                Json::Arr(
                    self.quarantine
                        .iter()
                        .map(|q| {
                            Json::Obj(vec![
                                ("index".into(), Json::uint(q.index as u64)),
                                ("machine".into(), Json::str(&q.machine)),
                                ("reason".into(), Json::str(&q.reason)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if self.sync.is_none() {
            pairs.push(("wall_ms".into(), Json::Float(wall.as_secs_f64() * 1e3)));
            pairs.push(("machines_per_sec".into(), Json::Float(per_sec)));
        }
        let summary = Json::Obj(vec![("summary".into(), Json::Obj(pairs))]);
        writeln!(self.w, "{}", summary.to_compact())?;
        match self.sync {
            Some(sync) => sync(&mut self.w)?,
            None => self.w.flush()?,
        }
        Ok((self.tally, per_sec))
    }
}

/// Why [`StreamWriter::resume`] refused a stream file.
#[derive(Debug)]
pub enum ResumeError {
    /// The file could not be read, truncated or written.
    Io(io::Error),
    /// The file is not this sweep's record (another corpus, other options,
    /// or a timed stream); it was left untouched.
    Mismatch(String),
}

impl From<io::Error> for ResumeError {
    fn from(e: io::Error) -> Self {
        ResumeError::Io(e)
    }
}

impl StreamWriter<BufWriter<File>> {
    /// Opens `path` as the crash-safe record of sweeping `src` under
    /// `options` (the canonical string of every option that can change a
    /// machine line), creating it when absent.
    ///
    /// The header binds the file to `corpus`, `machines`, `options` and
    /// `corpus_fp`, an FNV digest of every machine's [`fsm::fingerprint`].
    /// When the file starts with exactly that header line, the complete
    /// machine lines after it are kept: a kept line ends in a newline,
    /// parses as JSON and names machine `i`. Everything after them (a torn
    /// line, the summary) is truncated, and [`StreamWriter::resumed`] says
    /// where the sweep restarts. An empty file or a torn header starts the
    /// record afresh. Any other content, or a path that is not a regular
    /// file, is refused with [`ResumeError::Mismatch`] and left
    /// byte-for-byte unchanged.
    ///
    /// The file is fsync'd once here (after the truncation and header), every
    /// [`SYNC_EVERY`] lines, and in [`StreamWriter::finish`], so a kill loses
    /// at most the lines written since the last fsync.
    pub fn resume(
        path: &Path,
        src: &dyn MachineSource,
        options: &str,
    ) -> Result<Self, ResumeError> {
        let header = vec![
            ("schema".into(), Json::str(STREAM_SCHEMA)),
            ("corpus".into(), Json::str(src.describe())),
            ("machines".into(), Json::uint(src.len() as u64)),
            ("options".into(), Json::str(options)),
            ("corpus_fp".into(), Json::str(corpus_fingerprint(src))),
        ];
        let first = format!("{}\n", Json::Obj(header.clone()).to_compact());
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if !file.metadata()?.is_file() {
            return Err(ResumeError::Mismatch("it is not a regular file".into()));
        }

        // One line in memory at a time: the first, then each machine line.
        let mut reader = BufReader::new(&file);
        let mut line = Vec::new();
        reader.read_until(b'\n', &mut line)?;
        let mut tally = StreamTally::default();
        let mut quarantine = Vec::new();
        let mut resumed = 0;
        let keep = if line == first.as_bytes() {
            let mut kept = line.len();
            while resumed < src.len() {
                line.clear();
                reader.read_until(b'\n', &mut line)?;
                let Some(doc) = line
                    .strip_suffix(b"\n")
                    .and_then(|l| std::str::from_utf8(l).ok())
                    .and_then(|l| nova_trace::json::parse(l).ok())
                else {
                    break;
                };
                let name = src.name(resumed);
                if doc.get("machine") != Some(&Json::str(&name)) {
                    break;
                }
                tally.add(MachineClass::of_line(&doc));
                if let Some(Json::Str(reason)) = doc.get("quarantine") {
                    quarantine.push(QuarantineRecord {
                        index: resumed,
                        machine: name,
                        reason: reason.clone(),
                    });
                }
                kept += line.len();
                resumed += 1;
            }
            kept
        } else if first.as_bytes().starts_with(&line) {
            // Empty, or a header torn before its newline: nothing recorded.
            0
        } else {
            return Err(ResumeError::Mismatch(header_mismatch(&line, &header)));
        };
        drop(reader);

        file.set_len(keep as u64)?;
        file.seek(SeekFrom::Start(keep as u64))?;
        if keep == 0 {
            file.write_all(first.as_bytes())?;
            sync_parent(path)?;
        }
        file.sync_all()?;
        Ok(StreamWriter {
            w: BufWriter::new(file),
            start: Instant::now(),
            count: resumed,
            resumed,
            tally,
            quarantine,
            sync: Some(|w| {
                w.flush()?;
                w.get_ref().sync_all()
            }),
            unsynced: 0,
        })
    }
}

/// Fsyncs the directory holding `path`, so that a record created there
/// keeps its directory entry through a crash.
#[cfg(unix)]
fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Directories cannot be opened as files here; the record's own fsyncs
/// are all there is.
#[cfg(not(unix))]
fn sync_parent(_: &Path) -> io::Result<()> {
    Ok(())
}

/// Schema tag on every stream's header line.
const STREAM_SCHEMA: &str = "nova-bench-stream/1";

/// A machine line: the `nova-bench/1` machine object plus its
/// timing-stripped fingerprint.
fn machine_line(rep: &PortfolioReport, timings: bool) -> Json {
    let mut line = machine_summary_json_with(rep, timings);
    if let Json::Obj(pairs) = &mut line {
        pairs.push((
            "fingerprint".into(),
            Json::str(format!("{:016x}", fnv64(&report_fingerprint(rep)))),
        ));
    }
    line
}

/// FNV-1a over every machine's [`fsm::fingerprint`], in index order: a
/// resumable stream's `corpus_fp`. Materializes each machine once.
fn corpus_fingerprint(src: &dyn MachineSource) -> String {
    let mut all = String::new();
    for i in 0..src.len() {
        all.push_str(&fsm::fingerprint(&src.machine(i)));
        all.push('\n');
    }
    format!("{:016x}", fnv64(&all))
}

/// Why a file's first line is not the `expected` header: the first field
/// that differs.
fn header_mismatch(line: &[u8], expected: &[(String, Json)]) -> String {
    let found = std::str::from_utf8(line.strip_suffix(b"\n").unwrap_or(line))
        .ok()
        .and_then(|l| nova_trace::json::parse(l).ok());
    for (key, want) in expected {
        let got = found.as_ref().and_then(|f| f.get(key));
        if got != Some(want) {
            return format!(
                "its header's {key} is {}, this sweep's is {}",
                got.map_or_else(|| "absent".to_string(), Json::to_compact),
                want.to_compact()
            );
        }
    }
    "its header carries fields this sweep's does not".to_string()
}

/// Machines/sec over a wall time, saturating instead of dividing by zero.
pub fn throughput(machines: usize, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        machines as f64 / secs
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_source_filters_and_names() {
        let all = SuiteSource::new();
        assert!(all.len() > 30, "embedded suite should be Table I sized");
        let some = SuiteSource::filtered(&["lion".into(), "bbtas".into()]);
        assert_eq!(some.len(), 2);
        let names: Vec<String> = (0..some.len()).map(|i| some.name(i)).collect();
        assert!(names.contains(&"lion".to_string()));
        assert!(some.machine(0).num_states() > 0);
        assert!(some.describe().starts_with("suite:"));
    }

    #[test]
    fn scale_source_len_matches_spec() {
        let spec = ScaleSpec::parse("machines=5,states=8,inputs=3").unwrap();
        let src: &dyn MachineSource = &spec;
        assert_eq!(src.len(), 5);
        assert_eq!(src.name(3), "synth-000003");
        assert_eq!(src.machine(3).num_states(), 8);
        assert_eq!(src.describe(), spec.spec_string());
    }

    #[test]
    fn batch_config_auto_sizing_is_sane() {
        let b = BatchConfig::default();
        assert_eq!(b.batch_jobs, 1);
        // The window the sharded scheduler sized from `len / (8 × workers)`
        // shards: the auto window must never be smaller.
        let sharded =
            |len: usize, workers: usize| (4 * workers * (len / (8 * workers)).clamp(1, 64)).max(16);
        for (len, workers) in [(24, 2), (200, 4), (100_000, 4), (1, 1), (10, 4)] {
            let w = b.effective_window(len, workers);
            assert!(
                w >= sharded(len, workers),
                "len {len} workers {workers}: {w}"
            );
            assert!(w <= 256 * workers, "len {len} workers {workers}: {w}");
        }
        let fixed = BatchConfig {
            window: 3,
            ..BatchConfig::default()
        };
        assert_eq!(fixed.effective_window(100, 4), 3);
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), fnv64("a"));
        assert_ne!(fnv64("a"), fnv64("b"));
    }

    #[test]
    fn throughput_handles_zero_wall() {
        assert!(throughput(10, Duration::ZERO).is_infinite());
        assert!((throughput(10, Duration::from_secs(2)) - 5.0).abs() < 1e-9);
    }
}
