//! Regenerates every table and figure of the NOVA paper.
//!
//! Usage:
//!   tables [--quick] [--no-exact] [all|table1|table2|table3|table4|table5|table6|table7|figures|compare|sweep]...
//!
//! `--quick` restricts to the small/medium machines; `--no-exact` skips the
//! budgeted iexact runs (they dominate wall-clock on the mid-size machines).
//! No id (or `all`) prints them all. An unknown flag or id exits 2 before
//! any machine is evaluated.

use nova_bench::{report, tables, MachineReport};
use nova_engine::{effective_jobs, run_jobs};
use std::process::ExitCode;

const TABLES: [&str; 10] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "figures", "compare",
    "sweep",
];

const USAGE: &str = "usage: tables [--quick] [--no-exact] [all|table1|table2|table3|table4|table5|table6|table7|figures|compare|sweep]...";

fn main() -> ExitCode {
    let (mut quick, mut no_exact) = (false, false);
    let mut wanted: Vec<&str> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            "--no-exact" => no_exact = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "all" => wanted.push("all"),
            id => match TABLES.iter().find(|t| **t == id) {
                Some(t) => wanted.push(*t),
                None => {
                    eprintln!("tables: unknown argument {id:?}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
        }
    }
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = TABLES.to_vec();
    }

    let machines = nova_bench::table_one_machines(quick);
    // Table V needs the extra machines (lion, lion9, modulo12, tav, dol).
    let mut all = machines;
    if wanted.contains(&"table5") {
        for b in fsm::benchmarks::table_five() {
            if !all.iter().any(|x| x.name == b.name) && (!quick || nova_bench::is_quick(&b)) {
                all.push(b);
            }
        }
    }

    let needs_reports = wanted.iter().any(|w| *w != "sweep");
    if !needs_reports {
        all.clear();
    }
    eprintln!(
        "evaluating {} machines (quick={quick}, exact={})...",
        all.len(),
        !no_exact
    );
    // One thread per machine, capped at the core count (each report is a
    // long single-threaded pipeline; the big machines dominate wall clock).
    let mut reports: Vec<MachineReport> = run_jobs(all.len(), effective_jobs(0), |i| {
        let b = &all[i];
        eprintln!(
            "  {} ({} states, {} rows)",
            b.display_name(),
            b.fsm.num_states(),
            b.fsm.num_transitions()
        );
        report(
            b,
            !no_exact && b.fsm.num_states() <= 20 && b.fsm.num_transitions() <= 120,
        )
    })
    .into_iter()
    .map(|r| r.unwrap_or_else(|msg| panic!("machine report panicked: {msg}")))
    .collect();
    // The paper's figures order machines by increasing state count.
    reports.sort_by(|a, b| a.states.cmp(&b.states).then(a.name.cmp(&b.name)));

    // Table I order is by increasing #states already; Table V picks its own.
    for w in wanted {
        let text = match w {
            "table1" => tables::table1(&reports),
            "table2" => tables::table2(&reports),
            "table3" => tables::table3(&reports),
            "table4" => tables::table4(&reports),
            "table5" => tables::table5(&reports),
            "table6" => tables::table6(&reports),
            "table7" => tables::table7(&reports),
            "figures" => format!(
                "{}{}",
                tables::figures_8_9(&reports),
                tables::figure_10(&reports)
            ),
            "compare" => tables::paper_comparison(&reports),
            "sweep" => {
                tables::length_sweep(&["lion", "bbtas", "dk27", "shiftreg", "train11", "ex3"], 3)
            }
            _ => unreachable!("ids are checked before evaluating"),
        };
        println!("{text}");
    }
    ExitCode::SUCCESS
}
