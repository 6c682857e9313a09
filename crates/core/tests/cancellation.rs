//! Mid-stage cancellation: inject a cancel fault between each pair of
//! pipeline stages and assert the driver unwinds cleanly — the outcome is
//! `Timeout`, `Degraded`, or (when the fault lands in a stage that never
//! touches the ctl) `Done`; the stage cell holds the completed stages; and
//! every trace span is closed and flushed.

use espresso::{FaultKind, FaultPlan, RunCtl, PIPELINE_STAGES};
use nova_core::driver::{run_traced, Algorithm, FrontEnd, Outcome, StageCell, StageTimes};
use nova_trace::Tracer;
use std::time::Duration;

fn machine(name: &str) -> fsm::Fsm {
    fsm::benchmarks::by_name(name)
        .expect("embedded benchmark")
        .fsm
}

/// Runs `algorithm` on `fsm` under `ctl` on a fresh front end; returns the
/// outcome and the stage times it left in its cell.
fn run_alone(fsm: &fsm::Fsm, algorithm: Algorithm, ctl: &RunCtl) -> (Outcome, StageTimes) {
    let cell = StageCell::new();
    let outcome = run_traced(fsm, algorithm, None, ctl, &cell, &FrontEnd::new());
    (outcome, cell.snapshot())
}

/// Runs `algorithm` on `name` with a cancel fault at the first operation of
/// `stage`, under an enabled tracer; returns the outcome and the JSONL trace.
fn run_with_fault(name: &str, algorithm: Algorithm, stage: &str) -> (Outcome, String, RunCtl) {
    let fsm = machine(name);
    let tracer = Tracer::enabled();
    let ctl = RunCtl::new(None, None, tracer.clone());
    ctl.arm_faults(&FaultPlan::single(stage, 1, FaultKind::Cancel));
    let (outcome, _) = run_alone(&fsm, algorithm, &ctl);
    let mut buf = Vec::new();
    tracer.write_jsonl(&mut buf).expect("in-memory sink");
    (outcome, String::from_utf8(buf).expect("utf8"), ctl)
}

fn span_counts(jsonl: &str) -> (usize, usize) {
    let count = |ev: &str| jsonl.lines().filter(|l| l.contains(ev)).count();
    (count("\"ev\":\"B\""), count("\"ev\":\"E\""))
}

#[test]
fn cancel_between_every_stage_pair_unwinds_cleanly() {
    for stage in PIPELINE_STAGES {
        for algorithm in [Algorithm::IHybrid, Algorithm::IGreedy] {
            let (status, jsonl, _ctl) = run_with_fault("lion", algorithm, stage);
            // No panic reached us; the outcome is one of the three clean ends.
            match &status {
                Outcome::Done(_) | Outcome::Timeout | Outcome::Degraded(_) => {}
                other => panic!("{algorithm:?} at {stage}: unexpected {other:?}"),
            }
            // Every opened trace span was closed and flushed.
            let (b, e) = span_counts(&jsonl);
            assert_eq!(b, e, "{algorithm:?} at {stage}: {b} B vs {e} E spans");
            assert!(b > 0, "{algorithm:?} at {stage}: trace is empty");
        }
    }
}

#[test]
fn cancel_in_first_stage_leaves_later_stages_untimed() {
    let (status, _, ctl) = run_with_fault("lion", Algorithm::IHybrid, "stage.constraints");
    assert!(
        matches!(status, Outcome::Timeout),
        "no best-so-far can exist before the constraints stage: {status:?}"
    );
    // The ctl's stage telemetry stopped at the faulted stage: nothing was
    // charged to later stages (their ops would have re-fired the plan).
    assert!(ctl.cancelled());
    let fsm = machine("lion");
    let tracer = Tracer::enabled();
    let ctl = RunCtl::new(None, None, tracer.clone());
    ctl.arm_faults(&FaultPlan::single(
        "stage.constraints",
        1,
        FaultKind::Cancel,
    ));
    let (_, stages) = run_alone(&fsm, Algorithm::IHybrid, &ctl);
    assert_eq!(stages.embed, Duration::ZERO, "embed never started");
    assert_eq!(stages.encode, Duration::ZERO, "encode never started");
    assert_eq!(stages.espresso, Duration::ZERO, "espresso never started");
}

#[test]
fn cancel_in_espresso_degrades_with_the_completed_encoding() {
    let fsm = machine("lion");
    for algorithm in [Algorithm::IHybrid, Algorithm::IGreedy, Algorithm::IoHybrid] {
        let (status, _, _) = run_with_fault("lion", algorithm, "stage.espresso");
        let Outcome::Degraded(d) = &status else {
            panic!("{algorithm:?}: espresso-stage cancel must degrade, got {status:?}");
        };
        // The driver offered the *completed* encoding at maximum score
        // before espresso began, so the degraded source is the algorithm.
        assert_eq!(d.source, algorithm.name());
        assert_eq!(d.encoding.codes().len(), fsm.num_states());
        assert_eq!(d.reason, espresso::CancelReason::Stop);
    }
}

#[test]
fn cancel_in_embed_still_closes_constraint_stage_telemetry() {
    let fsm = machine("bbara");
    let tracer = Tracer::enabled();
    let ctl = RunCtl::new(None, None, tracer.clone());
    ctl.arm_faults(&FaultPlan::single("stage.embed", 1, FaultKind::Cancel));
    let (outcome, stages) = run_alone(&fsm, Algorithm::IHybrid, &ctl);
    assert!(
        matches!(outcome, Outcome::Timeout | Outcome::Degraded(_)),
        "{outcome:?}"
    );
    // The constraints stage completed before the fault; its span and stage
    // time were flushed even though the run unwound mid-embed.
    assert!(stages.constraints > Duration::ZERO);
    assert_eq!(stages.encode, Duration::ZERO);
    let mut buf = Vec::new();
    tracer.write_jsonl(&mut buf).expect("in-memory sink");
    let jsonl = String::from_utf8(buf).expect("utf8");
    assert!(
        jsonl.contains("stage.constraints"),
        "constraints span flushed"
    );
    let (b, e) = span_counts(&jsonl);
    assert_eq!(b, e, "balanced spans after mid-embed cancel");
}
