//! Integration tests of the portfolio engine against the sequential driver:
//! the acceptance criteria of the engine subsystem.

use espresso::{FaultKind, FaultPlan};
use nova_core::driver::{run, Algorithm};
use nova_engine::{report_fingerprint, run_portfolio, EngineConfig, Outcome, PortfolioReport};
use std::time::{Duration, Instant};

const SMALL_MACHINES: [&str; 5] = ["lion", "bbtas", "shiftreg", "dk27", "tav"];

fn machine(name: &str) -> fsm::Fsm {
    fsm::benchmarks::by_name(name)
        .unwrap_or_else(|| panic!("embedded benchmark {name}"))
        .fsm
}

/// The portfolio's winner must equal the best sequential run: same minimum
/// area, and — because ties break on the paper's fixed order — the same
/// algorithm and encoding.
#[test]
fn portfolio_winner_matches_best_sequential_run() {
    for name in SMALL_MACHINES {
        let m = machine(name);
        let sequential: Vec<(Algorithm, _)> = Algorithm::ALL
            .into_iter()
            .filter_map(|alg| run(&m, alg, None).map(|r| (alg, r)))
            .collect();
        let (best_alg, best) = sequential
            .iter()
            .min_by_key(|(_, r)| r.area)
            .unwrap_or_else(|| panic!("{name}: no sequential run finished"));

        let report = run_portfolio(&m, name, &EngineConfig::default());
        let (i, winner) = report
            .best()
            .unwrap_or_else(|| panic!("{name}: portfolio found no winner"));
        assert_eq!(winner.area, best.area, "{name}: area mismatch");
        assert_eq!(
            report.runs[i].algorithm, *best_alg,
            "{name}: tie-break order violated"
        );
        assert_eq!(winner.encoding, best.encoding, "{name}: encoding mismatch");
    }
}

/// A zero deadline must yield a clean all-timeout report — no hang, no
/// partial winner, every algorithm accounted for.
#[test]
fn zero_deadline_times_out_every_algorithm() {
    let m = machine("bbtas");
    let cfg = EngineConfig {
        timeout: Some(Duration::ZERO),
        ..EngineConfig::default()
    };
    let report = run_portfolio(&m, "bbtas", &cfg);
    assert_eq!(report.runs.len(), Algorithm::ALL.len());
    for run in &report.runs {
        assert!(
            matches!(run.outcome, Outcome::Timeout),
            "{}: expected timeout, got {}",
            run.algorithm.name(),
            run.outcome.tag()
        );
    }
    assert!(report.best().is_none());
}

/// One state, 40 inputs, an output that is 0 everywhere except on 20
/// don't-care pairs `x1·x2 + x3·x4 + …`: ON ∪ DC takes 21 cubes, but every
/// cover of the output's off-set needs 2^20. ESPRESSO's off-set complement
/// blows up on both the constraints and the encoded minimization, and the
/// deadline must still end the portfolio on time.
#[test]
fn off_set_blow_up_ends_at_the_deadline() {
    let n = 40;
    let mut kiss = format!(".i {n}\n.o 1\n.s 1\n{} s0 s0 0\n", "-".repeat(n));
    for k in 0..n / 2 {
        let row: String = (0..n).map(|i| if i / 2 == k { '1' } else { '-' }).collect();
        kiss += &format!("{row} s0 s0 -\n");
    }
    let m = fsm::Fsm::parse_kiss(&kiss).expect("valid KISS");
    let deadline = Duration::from_millis(200);
    let cfg = EngineConfig {
        timeout: Some(deadline),
        ..EngineConfig::default()
    };
    let start = Instant::now();
    let report = run_portfolio(&m, "blow-up", &cfg);
    let late = start.elapsed().saturating_sub(deadline);
    assert!(
        late < Duration::from_secs(1),
        "the portfolio ended {late:?} after its deadline"
    );
    assert!(
        report
            .runs
            .iter()
            .any(|r| matches!(r.outcome, Outcome::Timeout)),
        "no run reached the blow-up"
    );
}

/// With a node budget (instead of a wall clock), outcomes and encodings are
/// identical whatever the worker count.
#[test]
fn node_budget_portfolio_is_deterministic_across_jobs() {
    for name in ["bbtas", "dk27"] {
        let m = machine(name);
        let base = EngineConfig {
            node_budget: Some(20_000),
            ..EngineConfig::default()
        };
        let seq = run_portfolio(
            &m,
            name,
            &EngineConfig {
                jobs: 1,
                ..base.clone()
            },
        );
        let par = run_portfolio(
            &m,
            name,
            &EngineConfig {
                jobs: 4,
                ..base.clone()
            },
        );
        assert_eq!(seq.runs.len(), par.runs.len());
        for (a, b) in seq.runs.iter().zip(par.runs.iter()) {
            assert_eq!(a.algorithm, b.algorithm);
            assert_eq!(
                a.outcome.tag(),
                b.outcome.tag(),
                "{name}/{}: outcome differs across jobs",
                a.algorithm.name()
            );
            if let (Outcome::Done(x), Outcome::Done(y)) = (&a.outcome, &b.outcome) {
                assert_eq!(x.encoding, y.encoding, "{name}/{}", a.algorithm.name());
                assert_eq!(x.area, y.area);
                assert_eq!(x.cubes, y.cubes);
            }
        }
        match (seq.best(), par.best()) {
            (Some((i, x)), Some((j, y))) => {
                assert_eq!(i, j, "{name}: different winner across jobs");
                assert_eq!(x.encoding, y.encoding);
            }
            (None, None) => {}
            other => panic!("{name}: winner presence differs: {other:?}"),
        }
    }
}

/// The portfolio under unlimited limits reproduces `run()` exactly for every
/// algorithm (the traced pipeline is the same code path).
#[test]
fn traced_pipeline_matches_untraced_runs() {
    let m = machine("lion9");
    let report = run_portfolio(&m, "lion9", &EngineConfig::default());
    for algo_run in &report.runs {
        let sequential = run(&m, algo_run.algorithm, None);
        match (&algo_run.outcome, sequential) {
            (Outcome::Done(a), Some(b)) => {
                assert_eq!(a.encoding, b.encoding, "{}", algo_run.algorithm.name());
                assert_eq!(a.area, b.area);
            }
            (Outcome::Unsolved, None) => {}
            (got, want) => panic!(
                "{}: portfolio {:?} vs sequential {:?}",
                algo_run.algorithm.name(),
                got.tag(),
                want.map(|r| r.area)
            ),
        }
    }
}

/// `evaluate` shares a run's encode → minimize → count tail, so it scores
/// each run's codes exactly as that run did.
#[test]
fn evaluate_matches_the_run_that_produced_the_encoding() {
    for name in ["lion", "bbtas", "dk27", "shiftreg"] {
        let m = machine(name);
        for run in run_portfolio(&m, name, &EngineConfig::default()).runs {
            let alg = run.algorithm.name();
            let done = run
                .outcome
                .result()
                .unwrap_or_else(|| panic!("{name} {alg}: {}", run.outcome.tag()));
            assert_eq!(
                nova_core::evaluate(&m, &done.encoding),
                *done,
                "{name} {alg}"
            );
        }
    }
}

/// Each run of a portfolio ends exactly as that algorithm run alone under
/// the same limits: same outcome, codes and degradation (the fingerprint),
/// and the same `work`, whichever run derived the shared front end. Budgets
/// and fault plans that stop a run mid-derivation are the cases where a
/// published derivation would diverge.
#[test]
fn portfolio_runs_match_their_solo_runs() {
    let mut configs: Vec<(String, EngineConfig)> =
        vec![("unlimited".into(), EngineConfig::default())];
    for budget in [50, 500, 20_000] {
        configs.push((
            format!("budget {budget}"),
            EngineConfig {
                node_budget: Some(budget),
                ..EngineConfig::default()
            },
        ));
    }
    let plans = [
        FaultPlan::single("stage.constraints", 5, FaultKind::Cancel),
        FaultPlan::single("*", 5, FaultKind::Budget),
        FaultPlan::single("stage.constraints", 3, FaultKind::Panic),
    ];
    for plan in plans.into_iter().chain((0..4).map(FaultPlan::from_seed)) {
        configs.push((
            format!("faults {plan}"),
            EngineConfig {
                fault_plan: Some(plan),
                ..EngineConfig::default()
            },
        ));
    }
    for name in ["lion", "bbtas", "dk27"] {
        let m = machine(name);
        for (label, cfg) in &configs {
            let solo = PortfolioReport {
                machine: name.to_string(),
                runs: Algorithm::ALL
                    .into_iter()
                    .map(|alg| {
                        let alone = EngineConfig {
                            algorithms: vec![alg],
                            ..cfg.clone()
                        };
                        run_portfolio(&m, name, &alone).runs.remove(0)
                    })
                    .collect(),
                wall: Duration::ZERO,
            };
            let solo_work: Vec<u64> = solo.runs.iter().map(|r| r.counters.work).collect();
            for jobs in [1, 4] {
                let cfg = EngineConfig {
                    jobs,
                    ..cfg.clone()
                };
                let report = run_portfolio(&m, name, &cfg);
                assert_eq!(
                    report_fingerprint(&report),
                    report_fingerprint(&solo),
                    "{name} {label} jobs {jobs}: outcome differs from the solo runs"
                );
                let work: Vec<u64> = report.runs.iter().map(|r| r.counters.work).collect();
                assert_eq!(work, solo_work, "{name} {label} jobs {jobs}: work differs");
            }
        }
    }
}

/// An iohybrid run stopped inside its acceptance stages degrades to the
/// codes it last accepted, not to the stopped search's partial guess.
#[test]
fn stopped_iohybrid_degrades_to_its_last_accepted_codes() {
    let m = machine("lion9");
    let cfg = EngineConfig {
        algorithms: vec![Algorithm::IoHybrid],
        node_budget: Some(5000),
        ..EngineConfig::default()
    };
    let report = run_portfolio(&m, "lion9", &cfg);
    let Outcome::Degraded(d) = &report.runs[0].outcome else {
        panic!(
            "expected a degraded run, got {}",
            report.runs[0].outcome.tag()
        );
    };
    assert_eq!(d.source, "iohybrid.embed");
    assert_eq!(d.encoding.codes().len(), m.num_states());
    assert!(nova_core::evaluate(&m, &d.encoding).area > 0);
}
