//! Benchmark harness for the NOVA reproduction: per-machine evaluation of
//! every algorithm, plus the printers that regenerate each table and figure
//! of the paper (driven by the `tables` binary; see EXPERIMENTS.md for the
//! paper-vs-measured record).

#![forbid(unsafe_code)]

use fsm::benchmarks::Benchmark;
use nova_core::driver::{random_baseline, Algorithm, EvalResult, RandomStats};
use nova_core::exact::{iexact_code, ExactOptions};
use nova_core::poset::InputGraph;
use nova_core::{extract_input_constraints, HybridOutcome};
use nova_engine::{run_portfolio, EngineConfig};

pub mod microbench;
pub mod paper;
pub mod tables;

/// Everything the tables need about one machine, computed once.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// Machine name (synthetic stand-ins carry a `*`).
    pub name: String,
    /// Number of states.
    pub states: usize,
    /// Number of binary inputs.
    pub inputs: usize,
    /// Number of binary outputs.
    pub outputs: usize,
    /// Number of transition-table rows.
    pub terms: usize,
    /// `iexact_code` result (`None` when the budgeted search failed,
    /// printed `-` like the paper's hardest rows).
    pub iexact: Option<EvalResult>,
    /// `ihybrid_code` at minimum length.
    pub ihybrid: EvalResult,
    /// `igreedy_code` at minimum length.
    pub igreedy: EvalResult,
    /// `iohybrid_code` (symbolic minimization + ordered embedding).
    pub iohybrid: Option<EvalResult>,
    /// The KISS baseline.
    pub kiss: EvalResult,
    /// Best of the two MUSTANG modes by area.
    pub mustang: Option<EvalResult>,
    /// Best MUSTANG literal count across both modes.
    pub mustang_literals: usize,
    /// 1-hot encoding (`None` for machines over 63 states).
    pub one_hot: Option<EvalResult>,
    /// Random baseline statistics.
    pub random: RandomStats,
    /// `ihybrid` phase statistics for Table VI.
    pub ihybrid_stats: IhybridStats,
}

/// The Table VI row: constraint-weight satisfaction and lengths.
#[derive(Debug, Clone)]
pub struct IhybridStats {
    /// Weight satisfied.
    pub wsat: u32,
    /// Weight unsatisfied.
    pub wunsat: u32,
    /// Code length used by ihybrid.
    pub clength: u32,
    /// Code length of the exact all-constraints embedding, when the
    /// budgeted `iexact_code` finished.
    pub exact_clength: Option<u32>,
    /// Wall-clock seconds of the ihybrid run's constraints and embed
    /// stages.
    pub seconds: f64,
}

impl MachineReport {
    /// `min(ihybrid, igreedy)` by area — the paper's `ihybrid/igreedy`
    /// column.
    pub fn hybrid_greedy_best(&self) -> &EvalResult {
        if self.igreedy.area < self.ihybrid.area {
            &self.igreedy
        } else {
            &self.ihybrid
        }
    }

    /// Best of NOVA: minimum area among iohybrid and ihybrid/igreedy.
    pub fn nova_best(&self) -> &EvalResult {
        let hg = self.hybrid_greedy_best();
        match &self.iohybrid {
            Some(io) if io.area < hg.area => io,
            _ => hg,
        }
    }
}

/// The algorithms a [`MachineReport`] runs as one portfolio, IHybrid first:
/// its run derives the input constraints the others replay, so its
/// constraints stage holds the derivation Table VI times.
const PORTFOLIO: [Algorithm; 7] = [
    Algorithm::IHybrid,
    Algorithm::IGreedy,
    Algorithm::IoHybrid,
    Algorithm::Kiss,
    Algorithm::MustangP,
    Algorithm::MustangN,
    Algorithm::OneHot,
];

/// Evaluates every algorithm on one machine: [`PORTFOLIO`] on the engine at
/// one worker, then the random baseline and, when `with_exact` is set, the
/// budgeted `iexact_code` (skip for the huge machines), whose tighter
/// search limits no engine run takes.
pub fn report(bench: &Benchmark, with_exact: bool) -> MachineReport {
    let m = &bench.fsm;
    let n = m.num_states();

    let cfg = EngineConfig {
        algorithms: PORTFOLIO.to_vec(),
        jobs: 1,
        ..EngineConfig::default()
    };
    let portfolio = run_portfolio(m, bench.name, &cfg);
    let stages = portfolio.runs[0].stages;
    let results: Vec<Option<EvalResult>> = portfolio
        .runs
        .iter()
        .map(|r| r.outcome.result().cloned())
        .collect();
    let [ihybrid, igreedy, iohybrid, kiss, mustang_p, mustang_n, one_hot]: [_; 7] =
        results.try_into().expect("one run per algorithm");
    let ihybrid = ihybrid.expect("ihybrid always succeeds");
    let igreedy = igreedy.expect("igreedy always succeeds");
    let kiss = kiss.expect("kiss always succeeds");
    let mustang_literals = [&mustang_p, &mustang_n]
        .iter()
        .filter_map(|r| r.as_ref().map(|x| x.literals))
        .min()
        .unwrap_or(0);
    let mustang = match (mustang_p, mustang_n) {
        (Some(p), Some(q)) => Some(if p.area <= q.area { p } else { q }),
        (a, b) => a.or(b),
    };
    // The paper uses #states trials; we cap the count so the biggest
    // machines (each trial is a full ESPRESSO run) stay tractable.
    let trials = if n > 40 || m.num_transitions() > 250 {
        8
    } else {
        n.min(24)
    };
    let random = random_baseline(m, trials, 0x5eed ^ n as u64);

    let ics = extract_input_constraints(m);
    let iexact = if with_exact {
        let sets: Vec<_> = ics.constraints.iter().map(|c| c.set).collect();
        let ig = InputGraph::build(ics.num_states, &sets);
        let opts = ExactOptions {
            max_work: Some(400_000),
            max_k: (nova_core::exact::min_code_length(n) + 4).min(14),
            ..ExactOptions::default()
        };
        iexact_code(&ig, opts).and_then(|e| {
            if e.bits > 63 {
                return None;
            }
            fsm::Encoding::new(e.bits as usize, e.codes)
                .ok()
                .map(|enc| nova_core::evaluate(m, &enc))
        })
    } else {
        None
    };

    let split = HybridOutcome::new(&ics, ihybrid.encoding.clone());
    let ihybrid_stats = IhybridStats {
        wsat: split.weight_satisfied(),
        wunsat: split.weight_unsatisfied(),
        clength: ihybrid.bits as u32,
        exact_clength: iexact.as_ref().map(|e| e.bits as u32),
        seconds: (stages.constraints + stages.embed).as_secs_f64(),
    };

    MachineReport {
        name: bench.display_name(),
        states: n,
        inputs: m.num_inputs(),
        outputs: m.num_outputs(),
        terms: m.num_transitions(),
        iexact,
        ihybrid,
        igreedy,
        iohybrid,
        kiss,
        mustang,
        mustang_literals,
        one_hot,
        random,
        ihybrid_stats,
    }
}

/// Machines small enough for the quick harness runs (used by `--quick` and
/// the criterion benches).
pub fn is_quick(b: &Benchmark) -> bool {
    b.fsm.num_states() <= 20 && b.fsm.num_transitions() <= 120
}

/// The Table I machine list, optionally restricted to the quick subset.
pub fn table_one_machines(quick: bool) -> Vec<Benchmark> {
    fsm::benchmarks::table_one()
        .into_iter()
        .filter(|b| !quick || is_quick(b))
        .collect()
}

/// The machines one `tables` run evaluates, each once: Table I's first,
/// then, when Table V is wanted, Table V's machines outside Table I (lion,
/// lion9, modulo12, tav, dol); and how many are Table I's. Table V picks its
/// rows by name from all of them; every other table reads Table I's only.
/// `quick` keeps the small machines only.
pub fn table_machines(quick: bool, with_table_five: bool) -> (Vec<Benchmark>, usize) {
    let mut machines = table_one_machines(quick);
    let table_one = machines.len();
    if with_table_five {
        for b in fsm::benchmarks::table_five() {
            if !machines.iter().any(|m| m.name == b.name) && (!quick || is_quick(&b)) {
                machines.push(b);
            }
        }
    }
    (machines, table_one)
}

/// Formats an optional metric column as the paper does (`-` for failures).
pub fn opt_col<T: std::fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_five_extras_follow_the_table_one_machines() {
        for quick in [true, false] {
            let names = |bs: &[Benchmark]| bs.iter().map(|b| b.name).collect::<Vec<_>>();
            let one = names(&table_one_machines(quick));
            let (machines, n_one) = table_machines(quick, true);
            let all = names(&machines);
            assert_eq!(all[..n_one], one);
            assert!(all[n_one..].contains(&"lion"), "{all:?}");
            assert!(all[n_one..]
                .iter()
                .all(|n| ["lion", "lion9", "modulo12", "tav", "dol"].contains(n)));
            let (without, n) = table_machines(quick, false);
            assert_eq!((names(&without), n), (one, n_one));
        }
    }
}
