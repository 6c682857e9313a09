//! nova-chaos: the deterministic fault-injection sweep.
//!
//! A grid of synthetic faults — cancellation, deadline expiry, budget
//! zeroing, injected panics — is fired at scheduled operations of every
//! pipeline stage, over several benchmark machines, and the pipeline is held
//! to its robustness contract:
//!
//! * no panic escapes a public API (injected panics surface as
//!   `Outcome::Failed`, everything else ends in a clean outcome);
//! * no lock is left poisoned (every report remains fully readable and a
//!   rerun in the same process behaves identically);
//! * telemetry is flushed (balanced trace spans, readable metrics);
//! * every JSON report parses and carries the degraded reason;
//! * the same `FaultPlan` replays to a byte-identical (timing-stripped)
//!   report fingerprint;
//! * degraded encodings are *valid*: distinct in-range codes whose
//!   minimized implementation still simulates the machine.

use espresso::{FaultKind, FaultPlan, PIPELINE_STAGES};
use fsm::generator::SplitMix64;
use fsm::simulate::check_sequence;
use fsm::{Encoding, Fsm, StateId};
use nova_core::driver::Algorithm;
use nova_engine::{
    report_fingerprint as fingerprint, run_batch, run_portfolio, suite_to_json, AlgoRun,
    BatchConfig, EngineConfig, Outcome, SuiteSource,
};
use nova_trace::{json, Tracer};

const MACHINES: &[&str] = &["lion", "beecount"];
const KINDS: &[FaultKind] = &[
    FaultKind::Cancel,
    FaultKind::Deadline,
    FaultKind::Budget,
    FaultKind::Panic,
];

fn machine(name: &str) -> Fsm {
    fsm::benchmarks::by_name(name)
        .expect("embedded benchmark")
        .fsm
}

fn config(plan: FaultPlan) -> EngineConfig {
    EngineConfig {
        fault_plan: Some(plan),
        ..ihybrid()
    }
}

/// The one-algorithm portfolio `nova -e ihybrid` runs.
fn ihybrid() -> EngineConfig {
    EngineConfig {
        algorithms: vec![Algorithm::IHybrid],
        jobs: 1,
        ..EngineConfig::default()
    }
}

/// The one run of a one-algorithm portfolio.
fn run_alone(fsm: &Fsm, cfg: &EngineConfig) -> AlgoRun {
    run_portfolio(fsm, fsm.name(), cfg).runs.remove(0)
}

/// A degraded (or completed) encoding must still *implement the machine*:
/// encode, minimize, and simulate a deterministic input sequence against the
/// symbolic table.
fn verify_encoding(fsm: &Fsm, enc: &Encoding) {
    let mut pla = fsm::encode::encode(fsm, enc);
    pla.on = espresso::minimize(&pla.on, &pla.dc);
    let mut rng = SplitMix64::new(0xC0FFEE);
    for _ in 0..4 {
        let sequence: Vec<Vec<bool>> = (0..12)
            .map(|_| (0..fsm.num_inputs()).map(|_| rng.chance(1, 2)).collect())
            .collect();
        check_sequence(fsm, enc, &pla, StateId(0), &sequence).expect("degraded encoding verifies");
    }
}

#[test]
fn fault_grid_sweep_holds_the_robustness_contract() {
    for name in MACHINES {
        let fsm = machine(name);
        for stage in PIPELINE_STAGES.iter().copied().chain(["*"]) {
            for &kind in KINDS {
                for at in [1u64, 7] {
                    let plan = FaultPlan::single(stage, at, kind);
                    let ctx = format!("{name} {stage}:{at}:{}", kind.tag());
                    let report = run_portfolio(&fsm, name, &config(plan.clone()));

                    // 1. No panic escaped: we got a report, and only an
                    //    injected panic may surface as `failed`.
                    for run in &report.runs {
                        if matches!(run.outcome, Outcome::Failed(_)) {
                            assert_eq!(kind, FaultKind::Panic, "{ctx}: spurious failure");
                        }
                    }

                    // 2. JSON is well-formed, whatever happened.
                    let compact = suite_to_json(std::slice::from_ref(&report)).to_compact();
                    json::parse(&compact).unwrap_or_else(|e| panic!("{ctx}: bad JSON: {e}"));

                    // 3. A degraded run exposes reason + a *valid* encoding.
                    for run in &report.runs {
                        if let Outcome::Degraded(d) = &run.outcome {
                            assert_eq!(d.encoding.codes().len(), fsm.num_states(), "{ctx}");
                            verify_encoding(&fsm, &d.encoding);
                            assert!(compact.contains(d.reason.tag()), "{ctx}");
                            assert!(compact.contains("\"degraded_codes\""), "{ctx}");
                        }
                        if let Outcome::Done(r) = &run.outcome {
                            verify_encoding(&fsm, &r.encoding);
                        }
                    }

                    // 4. Deterministic replay: the same plan reproduces the
                    //    same timing-stripped report, byte for byte.
                    let replay = run_portfolio(&fsm, name, &config(plan));
                    assert_eq!(
                        fingerprint(&report),
                        fingerprint(&replay),
                        "{ctx}: replay diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn espresso_stage_faults_always_degrade_to_the_completed_encoding() {
    // By the espresso stage the driver has offered the finished encoding at
    // maximum score, so every cancelling fault kind must yield Degraded
    // with a full-size valid encoding — the anytime guarantee.
    for name in MACHINES {
        let fsm = machine(name);
        for kind in [FaultKind::Cancel, FaultKind::Deadline, FaultKind::Budget] {
            let run = run_alone(&fsm, &config(FaultPlan::single("stage.espresso", 1, kind)));
            let Outcome::Degraded(d) = &run.outcome else {
                panic!(
                    "{name} {}: expected degraded, got {}",
                    kind.tag(),
                    run.outcome.tag()
                );
            };
            assert_eq!(d.source, "ihybrid");
            verify_encoding(&fsm, &d.encoding);
        }
    }
}

#[test]
fn injected_panics_leave_no_poisoned_state_behind() {
    // Fire a panic mid-run, then immediately reuse the whole pipeline in
    // the same process: a healthy second run proves no lock, tracer, or
    // global was left poisoned.
    let fsm = machine("lion");
    let poisoned = run_alone(&fsm, &config(FaultPlan::single("*", 1, FaultKind::Panic)));
    assert!(matches!(poisoned.outcome, Outcome::Failed(_)));
    let clean = run_alone(&fsm, &ihybrid());
    let r = clean.outcome.result().expect("clean rerun completes");
    assert!(r.area > 0);
    verify_encoding(&fsm, &r.encoding);
}

#[test]
fn telemetry_survives_every_fault_kind() {
    let fsm = machine("lion");
    for &kind in KINDS {
        let tracer = Tracer::enabled();
        let cfg = EngineConfig {
            algorithms: vec![Algorithm::IHybrid],
            jobs: 1,
            tracer: tracer.clone(),
            fault_plan: Some(FaultPlan::single("stage.embed", 3, kind)),
            ..EngineConfig::default()
        };
        let report = run_portfolio(&fsm, "lion", &cfg);
        assert_eq!(report.runs.len(), 1);
        let mut buf = Vec::new();
        tracer.write_jsonl(&mut buf).expect("in-memory sink");
        let jsonl = String::from_utf8(buf).expect("utf8");
        let opened = jsonl.lines().filter(|l| l.contains("\"ev\":\"B\"")).count();
        let closed = jsonl.lines().filter(|l| l.contains("\"ev\":\"E\"")).count();
        assert_eq!(opened, closed, "{}: unbalanced spans", kind.tag());
        assert!(opened > 0, "{}: empty trace", kind.tag());
    }
}

#[test]
fn suite_report_records_degraded_reason_in_nova_bench_schema() {
    // The acceptance shape: a machine that cannot finish under the (injected,
    // hence deterministic) deadline is recorded in the nova-bench/1 report
    // with `best: null` and a degraded object carrying the reason.
    let cfg = EngineConfig {
        algorithms: vec![Algorithm::IHybrid],
        jobs: 1,
        fault_plan: Some(FaultPlan::single("stage.espresso", 1, FaultKind::Deadline)),
        ..EngineConfig::default()
    };
    let mut reports = Vec::new();
    run_batch(
        &SuiteSource::filtered(&["lion".to_string()]),
        &cfg,
        &BatchConfig::default(),
        &mut |_, rep| reports.push(rep),
    );
    assert_eq!(reports.len(), 1);
    let text = suite_to_json(&reports).to_pretty();
    let doc = json::parse(&text).expect("well-formed bench report");
    assert_eq!(doc.get("schema"), Some(&json::Json::str("nova-bench/1")));
    let Some(json::Json::Arr(machines)) = doc.get("machines") else {
        panic!("machines array missing");
    };
    let m = &machines[0];
    assert_eq!(m.get("best"), Some(&json::Json::Null), "nothing finished");
    let degraded = m.get("degraded").expect("degraded fallback recorded");
    assert_eq!(
        degraded.get("reason"),
        Some(&json::Json::str("deadline")),
        "{text}"
    );
    assert_eq!(degraded.get("algorithm"), Some(&json::Json::str("ihybrid")));
}

#[test]
fn seeded_plans_are_stable_and_round_trip() {
    for seed in 0..64u64 {
        let plan = FaultPlan::from_seed(seed);
        let spec = plan.to_spec();
        let reparsed = FaultPlan::parse(&spec)
            .unwrap_or_else(|e| panic!("seed {seed}: spec {spec:?} does not re-parse: {e}"));
        assert_eq!(reparsed.to_spec(), spec, "seed {seed}");
        // And the derived plan is identical on every call — the replay key.
        assert_eq!(FaultPlan::from_seed(seed).to_spec(), spec, "seed {seed}");
    }
}

#[test]
fn seeded_chaos_runs_replay_identically() {
    let fsm = machine("lion");
    for seed in [1u64, 2, 3, 9, 42] {
        let plan = FaultPlan::from_seed(seed);
        let a = run_portfolio(&fsm, "lion", &config(plan.clone()));
        let b = run_portfolio(&fsm, "lion", &config(plan));
        assert_eq!(fingerprint(&a), fingerprint(&b), "seed {seed}");
    }
}

#[test]
fn disabled_fault_layer_is_invisible() {
    // The whole fault machinery must be a no-op when no plan is armed.
    let fsm = machine("lion");
    let plain = run_alone(&fsm, &ihybrid());
    assert!(plain.outcome.result().is_some());
}
