//! Batch determinism and ordering: at any `batch_jobs` count the
//! sweep must emit the same machines, in machine-index order, with
//! byte-identical timing-stripped report fingerprints — including when a
//! fault plan degrades runs mid-corpus — no worker may start a machine
//! beyond the reorder window, and the stream writer must produce a
//! well-formed `nova-bench-stream/1` document, which a resumable stream
//! continues byte-identically after a cut.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

use espresso::{FaultKind, FaultPlan};
use fsm::{Fsm, ScaleSpec};
use nova_core::driver::Algorithm;
use nova_engine::{
    report_fingerprint, run_batch, run_batch_resumable, BatchConfig, EngineConfig, MachineClass,
    MachineSource, ResumeError, StreamWriter, SuiteSource,
};
use nova_trace::json::{self, Json};
use nova_trace::Tracer;

fn corpus() -> ScaleSpec {
    ScaleSpec::parse("machines=16,states=10,inputs=3,outputs=3,reducible=0.2,seed=21")
        .expect("valid spec")
}

fn config() -> EngineConfig {
    EngineConfig {
        algorithms: vec![Algorithm::IGreedy, Algorithm::IHybrid, Algorithm::OneHot],
        node_budget: Some(200_000),
        ..EngineConfig::default()
    }
}

/// Sweeps the corpus and returns `(index, machine, fingerprint)` per
/// emission, in emission order.
fn sweep(cfg: &EngineConfig, bcfg: &BatchConfig) -> Vec<(usize, String, String)> {
    let src = corpus();
    let mut out = Vec::new();
    run_batch(&src, cfg, bcfg, &mut |i, rep| {
        out.push((i, rep.machine.clone(), report_fingerprint(&rep)));
    });
    out
}

/// A corpus that records every machine materialized `window` or more
/// indices past the emission count — a breach of the reorder-window memory
/// bound. (An assert inside `machine` would be caught and quarantined, so
/// breaches are collected and checked after the sweep.)
struct WindowProbe<'a> {
    inner: ScaleSpec,
    emitted: &'a AtomicUsize,
    window: usize,
    breaches: Mutex<Vec<(usize, usize)>>,
}

impl MachineSource for WindowProbe<'_> {
    fn len(&self) -> usize {
        self.inner.machines
    }
    fn name(&self, i: usize) -> String {
        self.inner.name(i)
    }
    fn machine(&self, i: usize) -> Fsm {
        let emitted = self.emitted.load(Ordering::SeqCst);
        if i >= emitted + self.window {
            self.breaches.lock().unwrap().push((i, emitted));
        }
        self.inner.machine(i)
    }
    fn describe(&self) -> String {
        self.inner.spec_string()
    }
}

#[test]
fn batch_emits_in_machine_index_order() {
    // Each window also pins the memory bound: no worker may start a machine
    // `window` or more indices past the emission count.
    for window in [1usize, 5] {
        let emitted = AtomicUsize::new(0);
        let src = WindowProbe {
            inner: corpus(),
            emitted: &emitted,
            window,
            breaches: Mutex::new(Vec::new()),
        };
        let bcfg = BatchConfig {
            batch_jobs: 4,
            window,
        };
        let mut got = Vec::new();
        run_batch(&src, &config(), &bcfg, &mut |i, rep| {
            got.push((i, rep.machine));
            emitted.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(got.len(), 16);
        for (k, (i, name)) in got.iter().enumerate() {
            assert_eq!(*i, k, "window {window}: emission order broke at {k}");
            assert_eq!(name, &corpus().name(k));
        }
        let breaches = src.breaches.into_inner().unwrap();
        assert!(
            breaches.is_empty(),
            "window {window}: (index, emitted) started past the window: {breaches:?}"
        );
    }
}

#[test]
fn batch_reports_are_byte_identical_across_worker_counts() {
    let base = sweep(&config(), &BatchConfig::default());
    for jobs in [2usize, 4, 8] {
        let par = sweep(
            &config(),
            &BatchConfig {
                batch_jobs: jobs,
                ..BatchConfig::default()
            },
        );
        assert_eq!(base, par, "batch_jobs={jobs} diverged from jobs=1");
    }
    // A degenerate window must change scheduling, never results.
    let tight = sweep(
        &config(),
        &BatchConfig {
            batch_jobs: 4,
            window: 1,
        },
    );
    assert_eq!(base, tight, "window=1 sweep diverged");
}

#[test]
fn batch_determinism_survives_an_injected_fault_plan() {
    // A deterministic mid-espresso budget fault degrades every machine's
    // runs; the degraded reports must still replay byte-identically at any
    // worker count (the chaos-suite guarantee, extended to the batch layer).
    let cfg = EngineConfig {
        fault_plan: Some(FaultPlan::single("stage.espresso", 1, FaultKind::Budget)),
        ..config()
    };
    let seq = sweep(&cfg, &BatchConfig::default());
    let par = sweep(
        &cfg,
        &BatchConfig {
            batch_jobs: 4,
            ..BatchConfig::default()
        },
    );
    assert_eq!(seq, par, "fault-plan sweep diverged across worker counts");
    // The fault actually bit: some run somewhere degraded.
    assert!(
        seq.iter().any(|(_, _, fp)| fp.contains("outcome=degraded")),
        "fault plan never fired — the test lost its teeth"
    );
}

#[test]
fn stream_writer_emits_well_formed_nova_bench_stream() {
    let src = corpus();
    let mut buf = Vec::new();
    {
        let mut w =
            StreamWriter::new(&mut buf, &src.spec_string(), src.machines, 3).expect("header write");
        let mut sink_err = false;
        run_batch(
            &src,
            &config(),
            &BatchConfig {
                batch_jobs: 3,
                ..BatchConfig::default()
            },
            &mut |_, rep| {
                if w.report(&rep, None).is_err() {
                    sink_err = true;
                }
            },
        );
        assert!(!sink_err);
        let (tally, per_sec) = w.finish().expect("summary write");
        assert_eq!(
            tally.solved + tally.degraded + tally.unresolved,
            src.machines
        );
        assert!(per_sec > 0.0);
    }
    let text = String::from_utf8(buf).expect("utf8 stream");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), src.machines + 2, "header + machines + summary");
    let header = json::parse(lines[0]).expect("header parses");
    assert_eq!(
        header.get("schema"),
        Some(&Json::str("nova-bench-stream/1"))
    );
    assert_eq!(header.get("corpus"), Some(&Json::str(src.spec_string())));
    assert_eq!(header.get("batch_jobs"), Some(&Json::uint(3)));
    for (k, line) in lines[1..=src.machines].iter().enumerate() {
        let doc = json::parse(line).expect("report line parses");
        assert_eq!(doc.get("machine"), Some(&Json::str(src.name(k))));
        let Some(Json::Str(fp)) = doc.get("fingerprint") else {
            panic!("line {k} lacks a fingerprint: {line}");
        };
        assert_eq!(fp.len(), 16, "fingerprint is 16 hex chars");
        assert!(doc.get("runs").is_some());
    }
    let summary = json::parse(lines[lines.len() - 1]).expect("summary parses");
    let s = summary.get("summary").expect("summary object");
    assert_eq!(s.get("machines"), Some(&Json::uint(src.machines as u64)));
    assert!(s.get("machines_per_sec").is_some());
    assert!(s.get("wall_ms").is_some());
}

#[test]
fn stream_fingerprints_match_across_worker_counts() {
    // The whole point of embedding fingerprints in the stream: two sweeps
    // at different worker counts must be comparable line by line.
    let src = corpus();
    let stream = |jobs: usize| -> Vec<String> {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, "c", src.machines, jobs).unwrap();
        run_batch(
            &src,
            &config(),
            &BatchConfig {
                batch_jobs: jobs,
                ..BatchConfig::default()
            },
            &mut |_, rep| w.report(&rep, None).unwrap(),
        );
        w.finish().unwrap();
        String::from_utf8(buf)
            .unwrap()
            .lines()
            .skip(1)
            .take(src.machines)
            .map(|l| match json::parse(l).unwrap().get("fingerprint") {
                Some(Json::Str(fp)) => fp.clone(),
                other => panic!("no fingerprint: {other:?}"),
            })
            .collect()
    };
    assert_eq!(stream(1), stream(4));
}

#[test]
fn batch_counters_reach_the_session_tracer() {
    let tracer = Tracer::enabled();
    let cfg = EngineConfig {
        tracer: tracer.clone(),
        ..config()
    };
    let src = corpus();
    let mut n = 0usize;
    run_batch(
        &src,
        &cfg,
        &BatchConfig {
            batch_jobs: 4,
            ..BatchConfig::default()
        },
        &mut |_, _| n += 1,
    );
    assert_eq!(n, src.machines);
    let snap = tracer.merged_metrics();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(counter("engine.batch.machines"), Some(16));
    assert!(
        snap.gauges
            .iter()
            .any(|(n, _)| n == "engine.batch.queue.depth"),
        "queue-depth gauge missing: {:?}",
        snap.gauges
    );
}

/// A corpus whose first two machines each wait for the other to be
/// materialized, so two batch workers are guaranteed a machine each.
struct Rendezvous {
    inner: ScaleSpec,
    both: Barrier,
}

impl MachineSource for Rendezvous {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn name(&self, i: usize) -> String {
        self.inner.name(i)
    }
    fn machine(&self, i: usize) -> Fsm {
        if i < 2 {
            self.both.wait();
        }
        self.inner.machine(i)
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

#[test]
fn batch_workers_are_the_only_threads() {
    // Whole portfolios per worker (DESIGN §15): at `batch_jobs: 2` every
    // span of the sweep is recorded on one of the two workers, so their
    // thread-local scratch pools serve every machine they run.
    let tracer = Tracer::enabled();
    let cfg = EngineConfig {
        tracer: tracer.clone(),
        ..config()
    };
    let src = Rendezvous {
        inner: ScaleSpec::parse("machines=6,states=6,inputs=2,outputs=2,seed=3")
            .expect("valid spec"),
        both: Barrier::new(2),
    };
    let bcfg = BatchConfig {
        batch_jobs: 2,
        ..BatchConfig::default()
    };
    let mut n = 0usize;
    run_batch(&src, &cfg, &bcfg, &mut |_, _| n += 1);
    assert_eq!(n, 6);
    let tids: BTreeSet<u64> = tracer.collected_events().iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), 2, "span thread ids: {tids:?}");
}

#[test]
fn empty_corpus_is_a_clean_no_op() {
    let src = SuiteSource::filtered(&["no-such-machine".into()]);
    let mut calls = 0usize;
    run_batch(&src, &config(), &BatchConfig::default(), &mut |_, _| {
        calls += 1
    });
    assert_eq!(calls, 0);
}

/// A corpus that counts how often each machine is materialized.
struct CallCounter {
    inner: ScaleSpec,
    calls: Vec<AtomicUsize>,
}

impl MachineSource for CallCounter {
    fn len(&self) -> usize {
        self.inner.machines
    }
    fn name(&self, i: usize) -> String {
        self.inner.name(i)
    }
    fn machine(&self, i: usize) -> Fsm {
        self.calls[i].fetch_add(1, Ordering::SeqCst);
        self.inner.machine(i)
    }
    fn describe(&self) -> String {
        self.inner.spec_string()
    }
}

#[test]
fn crashing_machines_run_once_and_are_quarantined() {
    // `*:1:panic` fires on the first ctl charge of every run, so every
    // machine crashes. The engine is deterministic, so a second attempt
    // would crash the same way: each machine must be materialized and run
    // exactly once, quarantined, and the sweep must still complete with one
    // emission per machine, in order.
    let src = CallCounter {
        inner: ScaleSpec::parse("machines=5,states=6,inputs=2,outputs=2,seed=9").unwrap(),
        calls: (0..5).map(|_| AtomicUsize::new(0)).collect(),
    };
    let tracer = Tracer::enabled();
    let cfg = EngineConfig {
        algorithms: vec![Algorithm::IHybrid],
        fault_plan: Some(FaultPlan::single("*", 1, FaultKind::Panic)),
        tracer: tracer.clone(),
        ..EngineConfig::default()
    };
    let bcfg = BatchConfig {
        batch_jobs: 2,
        ..BatchConfig::default()
    };
    let mut emitted = Vec::new();
    let report = run_batch(&src, &cfg, &bcfg, &mut |i, rep| {
        emitted.push((i, MachineClass::of(&rep)));
    });
    let calls: Vec<usize> = src.calls.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    assert_eq!(calls, [1; 5], "each machine is materialized exactly once");
    assert_eq!(emitted.len(), 5, "sweep must complete despite the crashes");
    for (k, (i, class)) in emitted.iter().enumerate() {
        assert_eq!(*i, k);
        assert_eq!(*class, MachineClass::Unresolved);
    }
    assert_eq!(report.machines, 5);
    assert_eq!(report.quarantined.len(), 5, "every machine quarantined");
    for (k, q) in report.quarantined.iter().enumerate() {
        assert_eq!(q.index, k, "quarantine list sorted by index");
        assert_eq!(q.machine, src.name(k));
        assert!(q.reason.contains("injected panic"), "{}", q.reason);
    }
    let snap = tracer.merged_metrics();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(counter("engine.batch.quarantine"), Some(5));
    assert_eq!(counter("engine.batch.retry"), None, "nothing is retried");
}

#[test]
fn healthy_machines_are_never_quarantined() {
    let report = run_batch(
        &corpus(),
        &config(),
        &BatchConfig::default(),
        &mut |_, _| {},
    );
    assert_eq!(report.machines, 16);
    assert!(report.quarantined.is_empty());
}

#[test]
fn deadline_cancels_stuck_runs_into_timeout_or_degraded_results() {
    // IExact on 12-state machines with no node budget runs far longer than
    // the 20ms deadline; the deadline must cancel every run and the sweep
    // complete without wedging, each run keeping whatever best-so-far it had
    // (possibly nothing — but never still running, and never a crash).
    let spec = ScaleSpec::parse("machines=2,states=12,inputs=3,outputs=3,seed=33").unwrap();
    let cfg = EngineConfig {
        algorithms: vec![Algorithm::IExact],
        timeout: Some(Duration::from_millis(20)),
        ..EngineConfig::default()
    };
    let bcfg = BatchConfig {
        batch_jobs: 2,
        ..BatchConfig::default()
    };
    let mut emitted = 0usize;
    let mut outcomes = Vec::new();
    let report = run_batch(&spec, &cfg, &bcfg, &mut |_, rep| {
        emitted += 1;
        outcomes.extend(rep.runs.iter().map(|r| r.outcome.tag()));
    });
    assert_eq!(emitted, 2, "deadline-cancelled sweep still completes");
    for tag in outcomes {
        assert!(tag == "timeout" || tag == "degraded", "run ended {tag}");
    }
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
}

#[test]
fn resumable_sweep_skips_the_recorded_prefix_and_keeps_order() {
    let src = corpus();
    let full = sweep(&config(), &BatchConfig::default());
    let start = 6;
    let mut got = Vec::new();
    let report = run_batch_resumable(
        &src,
        &config(),
        &BatchConfig {
            batch_jobs: 4,
            ..BatchConfig::default()
        },
        start,
        &mut |i, rep, q| {
            assert!(q.is_none());
            got.push((i, rep.machine.clone(), report_fingerprint(&rep)));
        },
    );
    assert_eq!(report.machines, 16 - start);
    assert_eq!(
        got,
        full[start..],
        "resumed remainder diverged from the full sweep"
    );
}

#[test]
fn fully_recorded_resume_runs_nothing() {
    let src = corpus();
    let mut calls = 0usize;
    let report = run_batch_resumable(
        &src,
        &config(),
        &BatchConfig::default(),
        16,
        &mut |_, _, _| calls += 1,
    );
    assert_eq!(calls, 0);
    assert_eq!(report.machines, 0);
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nova-batch-{}-{name}", std::process::id()))
}

fn small_corpus() -> ScaleSpec {
    ScaleSpec::parse("machines=5,states=5,inputs=2,outputs=2,seed=4").expect("valid spec")
}

const OPTIONS: &str = "budget=Some(200000) timeout_ms=None fault_plan=-";

/// Resumes (or starts) the resumable stream at `path` and sweeps the rest of
/// `src` into it; returns how many lines the file already held.
fn resume_into(path: &Path, src: &dyn MachineSource, cfg: &EngineConfig, jobs: usize) -> usize {
    let mut w = StreamWriter::resume(path, src, OPTIONS).expect("resumable stream");
    let resumed = w.resumed();
    let bcfg = BatchConfig {
        batch_jobs: jobs,
        ..BatchConfig::default()
    };
    run_batch_resumable(src, cfg, &bcfg, resumed, &mut |_, rep, q| {
        w.report(&rep, q).unwrap()
    });
    w.finish().unwrap();
    resumed
}

#[test]
fn resumable_stream_is_free_of_wall_clock_fields() {
    let src = small_corpus();
    let stream = |jobs: usize| -> String {
        let path = temp_path(&format!("clockless-{jobs}.jsonl"));
        std::fs::remove_file(&path).ok();
        assert_eq!(resume_into(&path, &src, &config(), jobs), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text
    };
    let a = stream(1);
    assert_eq!(a, stream(4), "resumable streams must be byte-identical");
    assert!(!a.contains("wall_ms"), "no wall_ms in a resumable stream");
    assert!(!a.contains("machines_per_sec"));
    assert!(!a.contains("batch_jobs"));
    let header = json::parse(a.lines().next().unwrap()).unwrap();
    assert_eq!(header.get("options"), Some(&Json::str(OPTIONS)));
    assert!(matches!(header.get("corpus_fp"), Some(Json::Str(fp)) if fp.len() == 16));
    let summary = json::parse(a.lines().last().unwrap()).unwrap();
    let s = summary.get("summary").unwrap();
    assert_eq!(s.get("quarantined"), Some(&Json::uint(0)));
}

#[test]
fn resumable_stream_keeps_complete_lines_and_reruns_the_rest() {
    let src = small_corpus();
    let full_path = temp_path("full.jsonl");
    std::fs::remove_file(&full_path).ok();
    resume_into(&full_path, &src, &config(), 2);
    let full = std::fs::read(&full_path).unwrap();
    let ends: Vec<usize> = full
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(ends.len(), 1 + 5 + 1, "header + machines + summary");

    // (cut, lines the resume keeps): inside the header, right after it,
    // mid machine line, right after a line's newline, before the summary's
    // newline, and the complete file.
    let cases = [
        (ends[0] / 2, 0),
        (ends[0], 0),
        (ends[2] + 7, 2),
        (ends[3], 3),
        (ends[6] - 1, 5),
        (full.len(), 5),
    ];
    let cut_path = temp_path("cut.jsonl");
    for (cut, kept) in cases {
        std::fs::write(&cut_path, &full[..cut]).unwrap();
        let resumed = resume_into(&cut_path, &src, &config(), 3);
        assert_eq!(resumed, kept, "cut at byte {cut}");
        assert_eq!(
            std::fs::read(&cut_path).unwrap(),
            full,
            "cut at byte {cut} resumed to different bytes"
        );
    }
    std::fs::remove_file(&cut_path).ok();
    std::fs::remove_file(&full_path).ok();
}

#[test]
fn resumable_stream_refuses_another_sweeps_file_and_leaves_it_unchanged() {
    let src = small_corpus();
    let path = temp_path("foreign.jsonl");
    std::fs::remove_file(&path).ok();
    resume_into(&path, &src, &config(), 1);
    let before = std::fs::read(&path).unwrap();
    let refused =
        |src: &dyn MachineSource, options: &str| match StreamWriter::resume(&path, src, options) {
            Err(ResumeError::Mismatch(why)) => why,
            Err(e) => panic!("i/o error instead of a refusal: {e:?}"),
            Ok(_) => panic!("resumed a file of another sweep"),
        };
    // Other options.
    let why = refused(&src, "budget=Some(1) timeout_ms=None fault_plan=-");
    assert!(why.contains("options"), "{why}");
    // Another corpus of the same size and description.
    let other = ScaleSpec::parse("machines=5,states=5,inputs=2,outputs=2,seed=5").unwrap();
    assert!(refused(&other, OPTIONS).contains("corpus"));
    assert_eq!(std::fs::read(&path).unwrap(), before, "file changed");

    // A timed stream has no options in its header.
    let mut buf = Vec::new();
    StreamWriter::new(&mut buf, &src.spec_string(), src.machines, 1)
        .unwrap()
        .finish()
        .unwrap();
    std::fs::write(&path, &buf).unwrap();
    assert!(refused(&src, OPTIONS).contains("options is absent"));
    assert_eq!(std::fs::read(&path).unwrap(), buf, "file changed");
    std::fs::remove_file(&path).ok();
}
