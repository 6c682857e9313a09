//! Telemetry invariants across the tracer, the engine and the sinks:
//! stage-time accounting, span nesting in the JSONL sink, and the
//! Chrome-trace golden shape.

use nova_engine::{run_portfolio, EngineConfig};
use nova_trace::json::{self, Json};
use nova_trace::Tracer;
use std::time::Duration;

fn lion() -> fsm::Fsm {
    fsm::benchmarks::by_name("lion").expect("embedded").fsm
}

fn traced_config(tracer: &Tracer) -> EngineConfig {
    EngineConfig {
        tracer: tracer.clone(),
        ..EngineConfig::default()
    }
}

#[test]
fn stage_times_are_nonnegative_and_bounded_by_wall() {
    let tracer = Tracer::enabled();
    let report = run_portfolio(&lion(), "lion", &traced_config(&tracer));
    for run in &report.runs {
        let s = &run.stages;
        // Durations are non-negative by type; the meaningful invariant is
        // that the stage sum never exceeds the run's wall time (stages are
        // disjoint sections of one sequential pipeline).
        assert!(
            s.total() <= run.wall + Duration::from_millis(1),
            "{}: stages {:?} exceed wall {:?}",
            run.algorithm.name(),
            s.total(),
            run.wall
        );
    }
}

#[test]
fn stage_times_flow_through_disabled_tracer_too() {
    // One telemetry path: stage times must be measured even when tracing is
    // off (the default engine config).
    let cfg = EngineConfig {
        algorithms: vec![nova_core::driver::Algorithm::IHybrid],
        ..EngineConfig::default()
    };
    let run = &run_portfolio(&lion(), "lion", &cfg).runs[0];
    assert!(run.outcome.result().is_some());
    assert!(run.stages.total() > Duration::ZERO);
    assert!(run.metrics.is_empty());
}

/// Replays JSONL span events through per-thread stacks; panics on any
/// enter/exit imbalance. Returns the number of span pairs seen.
fn check_jsonl_nesting(text: &str) -> usize {
    let mut lines = text.lines();
    let header = json::parse(lines.next().expect("header line")).expect("header parses");
    assert_eq!(header.get("schema"), Some(&Json::str("nova-trace/1")));
    let mut stacks: std::collections::BTreeMap<i128, Vec<i128>> = Default::default();
    let mut pairs = 0;
    for line in lines {
        let v = json::parse(line).expect("jsonl line parses");
        let ev = match v.get("ev") {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("line without ev: {line}"),
        };
        if ev != "B" && ev != "E" {
            continue; // metric lines
        }
        let field = |k: &str| -> i128 {
            match v.get(k) {
                Some(Json::Int(n)) => *n,
                other => panic!("span event missing {k}: {other:?}"),
            }
        };
        let (tid, id) = (field("tid"), field("id"));
        let stack = stacks.entry(tid).or_default();
        if ev == "B" {
            stack.push(id);
        } else {
            let top = stack.pop().unwrap_or_else(|| panic!("E without B: {line}"));
            assert_eq!(top, id, "spans must close innermost-first on tid {tid}");
            pairs += 1;
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
    pairs
}

#[test]
fn jsonl_span_nesting_balances_across_worker_threads() {
    let tracer = Tracer::enabled();
    let _ = run_portfolio(&lion(), "lion", &traced_config(&tracer));
    let mut buf = Vec::new();
    tracer.write_jsonl(&mut buf).unwrap();
    let pairs = check_jsonl_nesting(std::str::from_utf8(&buf).unwrap());
    // At least one span per algorithm plus the portfolio root.
    assert!(pairs > 9, "only {pairs} span pairs");
}

#[test]
fn chrome_trace_golden_shape() {
    let tracer = Tracer::enabled();
    let _ = run_portfolio(&lion(), "lion", &traced_config(&tracer));
    let mut buf = Vec::new();
    tracer.write_chrome(&mut buf).unwrap();
    let doc = json::parse(std::str::from_utf8(&buf).unwrap()).expect("chrome trace is valid JSON");
    assert_eq!(doc.get("displayTimeUnit"), Some(&Json::str("ms")));
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    assert!(!events.is_empty());
    // Matching B/E counts per (tid, name), with B-before-E timestamps
    // guaranteed by per-thread monotonic clocks.
    let mut balance: std::collections::BTreeMap<(i128, String), i128> = Default::default();
    for e in events {
        let Some(Json::Str(ph)) = e.get("ph") else {
            panic!("event without ph");
        };
        let Some(Json::Int(tid)) = e.get("tid") else {
            panic!("event without tid");
        };
        let Some(Json::Str(name)) = e.get("name") else {
            panic!("event without name");
        };
        assert_eq!(e.get("pid"), Some(&Json::uint(1)));
        assert!(matches!(e.get("ts"), Some(Json::Float(f)) if *f >= 0.0));
        let slot = balance.entry((*tid, name.clone())).or_insert(0);
        match ph.as_str() {
            "B" => *slot += 1,
            "E" => *slot -= 1,
            other => panic!("unexpected phase {other}"),
        }
        assert!(*slot >= 0, "E before B for {name} on tid {tid}");
    }
    for ((tid, name), v) in &balance {
        assert_eq!(*v, 0, "unbalanced {name} on tid {tid}");
    }
}

#[test]
fn metric_names_follow_the_dotted_naming_convention() {
    // Every metric the engine emits must be scrape-safe: lower-case dotted
    // names under a documented prefix family, so the Prometheus mapping
    // (`nova_` + dots→underscores) never collides or needs escaping.
    const PREFIXES: [&str; 4] = ["serve.", "engine.", "espresso.", "embed."];
    let well_formed = |n: &str| {
        n.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
    };
    let tracer = Tracer::enabled();
    run_portfolio(&lion(), "lion", &traced_config(&tracer));
    let snapshot = tracer.merged_metrics();
    let names = snapshot
        .counters
        .iter()
        .map(|(n, _)| n)
        .chain(snapshot.gauges.iter().map(|(n, _)| n))
        .chain(snapshot.histograms.iter().map(|(n, _)| n));
    let mut seen = 0;
    for name in names {
        assert!(well_formed(name), "metric name {name:?} has odd characters");
        assert!(
            PREFIXES.iter().any(|p| name.starts_with(p)),
            "metric name {name:?} outside the documented prefixes {PREFIXES:?}"
        );
        seen += 1;
    }
    assert!(seen > 0, "a traced portfolio run emits metrics");
}

#[test]
fn per_algorithm_metrics_match_run_counters() {
    // The tracer metrics and the RunCtl counters are two views of the same
    // run; where they overlap (espresso iteration counts as histogram
    // observations) they must agree.
    let tracer = Tracer::enabled();
    let report = run_portfolio(&lion(), "lion", &traced_config(&tracer));
    for run in &report.runs {
        if let Some((_, h)) = run
            .metrics
            .histograms
            .iter()
            .find(|(n, _)| n == "espresso.cubes_per_iteration")
        {
            assert_eq!(
                h.count,
                run.counters.espresso_iterations,
                "{}: histogram count vs counter",
                run.algorithm.name()
            );
        }
    }
}

#[test]
fn portfolio_derives_each_front_end_once() {
    // One symbolic minimization serves iohybrid and iovariant, and one
    // input-constraint derivation serves iexact, ihybrid, igreedy and kiss:
    // the other four runs replay a published derivation.
    let bbtas = fsm::benchmarks::by_name("bbtas").expect("embedded").fsm;
    for jobs in [1, 4] {
        let tracer = Tracer::enabled();
        let cfg = EngineConfig {
            jobs,
            ..traced_config(&tracer)
        };
        let report = run_portfolio(&bbtas, "bbtas", &cfg);
        let derivations = tracer
            .collected_events()
            .iter()
            .filter(|e| e.name == "symbolic.minimize" && e.phase == nova_trace::Phase::Begin)
            .count();
        assert_eq!(derivations, 1, "jobs {jobs}: symbolic.minimize spans");
        let reused: u64 = report
            .runs
            .iter()
            .flat_map(|r| &r.metrics.counters)
            .filter(|(n, _)| n == "engine.constraints.reused")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(reused, 4, "jobs {jobs}: replayed derivations");
    }
}

#[test]
fn each_minimization_computes_its_off_set_once() {
    // ESPRESSO computes R = complement(F ∪ D) once per minimization and
    // expands against it: one `espresso.complement` span under every
    // `espresso.minimize` that expands, and its size on every finished run.
    let bbtas = fsm::benchmarks::by_name("bbtas").expect("embedded").fsm;
    let tracer = Tracer::enabled();
    let report = run_portfolio(&bbtas, "bbtas", &traced_config(&tracer));
    let events = tracer.collected_events();
    let spans: std::collections::HashMap<u64, (&str, u64)> = events
        .iter()
        .filter(|e| e.phase == nova_trace::Phase::Begin)
        .map(|e| (e.id, (e.name.as_ref(), e.parent)))
        .collect();
    let enclosing_minimize = |mut id: u64| loop {
        id = spans[&id].1;
        match spans.get(&id) {
            Some(("espresso.minimize", _)) => return id,
            Some(_) => {}
            None => panic!("span {id} outside espresso.minimize"),
        }
    };
    let mut expands = std::collections::BTreeSet::new();
    let mut complements: std::collections::BTreeMap<u64, usize> = Default::default();
    for (&id, &(name, _)) in &spans {
        match name {
            "espresso.expand" => {
                expands.insert(enclosing_minimize(id));
            }
            "espresso.complement" => *complements.entry(enclosing_minimize(id)).or_default() += 1,
            _ => {}
        }
    }
    assert!(!expands.is_empty(), "a traced portfolio expands");
    for m in &expands {
        assert_eq!(
            complements.get(m),
            Some(&1),
            "espresso.minimize span {m}: espresso.complement spans"
        );
    }
    for run in report.runs.iter().filter(|r| r.outcome.tag() == "done") {
        let offset = run
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n == "espresso.offset_cubes")
            .map_or(0, |(_, v)| *v);
        assert!(
            offset > 0,
            "{}: espresso.offset_cubes",
            run.algorithm.name()
        );
    }
}

#[test]
fn every_span_of_a_run_lies_inside_one_of_its_stages() {
    // The four stages cover a run: each span under an `algo.*` span has a
    // `stage.*` span between them. The literal count is ESPRESSO's, and
    // iexact's input-graph build is the embedding's.
    let tracer = Tracer::enabled();
    let report = run_portfolio(&lion(), "lion", &traced_config(&tracer));
    let events = tracer.collected_events();
    let spans: std::collections::HashMap<u64, (&str, u64)> = events
        .iter()
        .filter(|e| e.phase == nova_trace::Phase::Begin)
        .map(|e| (e.id, (e.name.as_ref(), e.parent)))
        .collect();
    // The nearest enclosing stage or algorithm span, if any.
    let owner = |mut id: u64| loop {
        id = spans.get(&id)?.1;
        match spans.get(&id) {
            Some((name, _)) if name.starts_with("stage.") || name.starts_with("algo.") => {
                return Some(*name)
            }
            Some(_) => {}
            None => return None,
        }
    };
    let (mut factored, mut built) = (0, 0);
    for (&id, &(name, _)) in &spans {
        let at = owner(id);
        if name.starts_with("stage.") {
            assert!(
                at.is_some_and(|a| a.starts_with("algo.")),
                "{name} in {at:?}"
            );
            continue;
        }
        if let Some(run) = at.filter(|a| a.starts_with("algo.")) {
            panic!("{name} runs in {run} outside its stages");
        }
        match name {
            "espresso.factor" => {
                factored += 1;
                assert_eq!(at, Some("stage.espresso"), "espresso.factor");
            }
            "embed.build" => {
                built += 1;
                assert_eq!(at, Some("stage.embed"), "embed.build");
            }
            _ => {}
        }
    }
    let done = report.runs.iter().filter(|r| r.outcome.tag() == "done");
    assert_eq!(factored, done.count(), "one espresso.factor span per run");
    assert!(built > 0, "input graphs are built in embed.build spans");
}
