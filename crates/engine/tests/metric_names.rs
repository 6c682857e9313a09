//! Per-run metric names must not depend on what the process ran before.
//!
//! This file is its own test binary with a single test, so its first
//! minimization is the first of its process: a once-per-process metric
//! would land in the first portfolio's runs and be missing from the
//! second's.

use nova_engine::{run_portfolio, EngineConfig, PortfolioReport};
use nova_trace::Tracer;

/// Each run's algorithm with its sorted counter, gauge and histogram names.
fn metric_names(report: &PortfolioReport) -> Vec<(&'static str, Vec<String>)> {
    report
        .runs
        .iter()
        .map(|run| {
            let m = &run.metrics;
            let mut names: Vec<String> = m.counters.iter().map(|(n, _)| n.clone()).collect();
            names.extend(m.gauges.iter().map(|(n, _)| n.clone()));
            names.extend(m.histograms.iter().map(|(n, _)| n.clone()));
            names.sort();
            (run.algorithm.name(), names)
        })
        .collect()
}

#[test]
fn per_run_metric_names_do_not_depend_on_process_history() {
    let lion = fsm::benchmarks::by_name("lion").expect("embedded").fsm;
    let sweep = || {
        let tracer = Tracer::enabled();
        let cfg = EngineConfig {
            jobs: 1,
            tracer: tracer.clone(),
            ..EngineConfig::default()
        };
        metric_names(&run_portfolio(&lion, "lion", &cfg))
    };
    let first = sweep();
    assert!(
        first.iter().any(|(_, names)| !names.is_empty()),
        "traced runs report metrics"
    );
    assert_eq!(first, sweep(), "the second portfolio's metric names");
}
