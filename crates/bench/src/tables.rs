//! Printers regenerating every table and figure of the paper from a set of
//! [`MachineReport`]s.

use crate::paper;
use crate::{opt_col, MachineReport};
use std::fmt::Write as _;

fn header(out: &mut String, title: &str) {
    let line = "=".repeat(title.len());
    let _ = writeln!(out, "\n{title}\n{line}");
}

/// Table I: benchmark statistics.
pub fn table1(reports: &[MachineReport]) -> String {
    let mut out = String::new();
    header(&mut out, "TABLE I — statistics of benchmark examples");
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>7} {:>8} {:>7}",
        "example", "#states", "#inputs", "#outputs", "#terms"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>7} {:>8} {:>7}",
            r.name, r.states, r.inputs, r.outputs, r.terms
        );
    }
    let _ = writeln!(out, "(* = synthetic stand-in, see DESIGN.md §4)");
    out
}

fn triple(r: &nova_core::EvalResult) -> String {
    format!("{:>2} {:>4} {:>6}", r.bits, r.cubes, r.area)
}

fn triple_opt(r: &Option<nova_core::EvalResult>) -> String {
    match r {
        Some(x) => triple(x),
        None => format!("{:>2} {:>4} {:>6}", "-", "-", "-"),
    }
}

/// Table II: iexact vs ihybrid vs igreedy vs 1-hot.
pub fn table2(reports: &[MachineReport]) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "TABLE II — comparisons of iexact, ihybrid, igreedy (bits / cubes / area)",
    );
    let _ = writeln!(
        out,
        "{:<12} | {:^14} | {:^14} | {:^14} | {:>6}",
        "example", "iexact", "ihybrid", "igreedy", "1-hot"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "{:<12} | {} | {} | {} | {:>6}",
            r.name,
            triple_opt(&r.iexact),
            triple(&r.ihybrid),
            triple(&r.igreedy),
            opt_col(r.one_hot.as_ref().map(|x| x.cubes)),
        );
    }
    out
}

/// Table III: ihybrid/igreedy best vs KISS vs random (best and average).
pub fn table3(reports: &[MachineReport]) -> String {
    let mut out = String::new();
    header(&mut out, "TABLE III — ihybrid/igreedy vs KISS vs random");
    let _ = writeln!(
        out,
        "{:<12} | {:^14} | {:^14} | {:>9} {:>9}",
        "example", "ihybrid/igreedy", "kiss", "rand-best", "rand-avg"
    );
    let (mut tot_hg, mut tot_kiss, mut tot_best, mut tot_avg) = (0u64, 0u64, 0u64, 0u64);
    // The ihybrid/igreedy and KISS totals without tbk, where full input
    // constraint satisfaction takes KISS to 33 bits.
    let (mut hg_no_tbk, mut kiss_no_tbk) = (0u64, 0u64);
    for r in reports {
        let hg = r.hybrid_greedy_best();
        tot_hg += hg.area;
        tot_kiss += r.kiss.area;
        tot_best += r.random.best_area;
        tot_avg += r.random.avg_area;
        if r.name.trim_end_matches('*') != "tbk" {
            hg_no_tbk += hg.area;
            kiss_no_tbk += r.kiss.area;
        }
        let _ = writeln!(
            out,
            "{:<12} | {} | {} | {:>9} {:>9}",
            r.name,
            triple(hg),
            triple(&r.kiss),
            r.random.best_area,
            r.random.avg_area
        );
    }
    let _ = writeln!(
        out,
        "{:<12} | {:>14} | {:>14} | {:>9} {:>9}",
        "TOTAL", tot_hg, tot_kiss, tot_best, tot_avg
    );
    let _ = writeln!(
        out,
        "ratios vs random-best: ihybrid/igreedy {:.2}, kiss {:.2}, rand-avg {:.2}; \
         ihybrid/igreedy vs kiss {:.2} ({:.2} excl. tbk)",
        tot_hg as f64 / tot_best as f64,
        tot_kiss as f64 / tot_best as f64,
        tot_avg as f64 / tot_best as f64,
        tot_hg as f64 / tot_kiss as f64,
        hg_no_tbk as f64 / kiss_no_tbk as f64
    );
    out
}

/// Table IV: iohybrid vs ihybrid/igreedy vs best of NOVA vs random.
pub fn table4(reports: &[MachineReport]) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "TABLE IV — iohybrid, ihybrid/igreedy, best of NOVA vs random",
    );
    let _ = writeln!(
        out,
        "{:<12} | {:^14} | {:^14} | {:^14} | {:>9} {:>9}",
        "example", "iohybrid", "ihybrid/igreedy", "NOVA", "rand-best", "rand-avg"
    );
    let (mut tot_io, mut tot_hg, mut tot_nova, mut tot_best, mut tot_avg) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for r in reports {
        let hg = r.hybrid_greedy_best();
        let nova = r.nova_best();
        if let Some(io) = &r.iohybrid {
            tot_io += io.area;
        }
        tot_hg += hg.area;
        tot_nova += nova.area;
        tot_best += r.random.best_area;
        tot_avg += r.random.avg_area;
        let _ = writeln!(
            out,
            "{:<12} | {} | {} | {} | {:>9} {:>9}",
            r.name,
            triple_opt(&r.iohybrid),
            triple(hg),
            triple(nova),
            r.random.best_area,
            r.random.avg_area
        );
    }
    let _ = writeln!(
        out,
        "{:<12} | {:>14} | {:>14} | {:>14} | {:>9} {:>9}",
        "TOTAL", tot_io, tot_hg, tot_nova, tot_best, tot_avg
    );
    let _ = writeln!(
        out,
        "NOVA / random-best = {:.2} (paper: 51053 / 65453 = 0.78)",
        tot_nova as f64 / tot_best as f64
    );
    out
}

/// Table V: iohybrid vs the published Cappuccino/Cream numbers.
pub fn table5(reports: &[MachineReport]) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "TABLE V — iohybrid vs Cappuccino/Cream (published)",
    );
    let _ = writeln!(
        out,
        "{:<12} | {:^14} | {:^14}",
        "example", "iohybrid (ours)", "cappuccino*"
    );
    let (mut tot_io, mut tot_cap) = (0u64, 0u64);
    for row in paper::TABLE5 {
        let Some(r) = reports
            .iter()
            .find(|r| r.name.trim_end_matches('*') == row.name)
        else {
            continue;
        };
        let io = r
            .iohybrid
            .as_ref()
            .unwrap_or_else(|| r.hybrid_greedy_best());
        tot_io += io.area;
        tot_cap += row.cappuccino.2;
        let _ = writeln!(
            out,
            "{:<12} | {} | {:>2} {:>4} {:>6}",
            r.name,
            triple(io),
            row.cappuccino.0,
            row.cappuccino.1,
            row.cappuccino.2
        );
    }
    let _ = writeln!(out, "{:<12} | {:>14} | {:>14}", "TOTAL", tot_io, tot_cap);
    if tot_cap > 0 {
        let _ = writeln!(
            out,
            "ours / cappuccino = {:.2} (paper: 20951 / 29139 = 0.72)",
            tot_io as f64 / tot_cap as f64
        );
    }
    let _ = writeln!(out, "(* Cappuccino numbers are the paper's — not rerun)");
    out
}

/// Table VI: ihybrid statistics.
pub fn table6(reports: &[MachineReport]) -> String {
    let mut out = String::new();
    header(&mut out, "TABLE VI — statistics of ihybrid");
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>7} {:>8} {:>11} {:>9}",
        "example", "wsat", "wunsat", "clength", "ex-clength", "time(s)"
    );
    for r in reports {
        let s = &r.ihybrid_stats;
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>7} {:>8} {:>11} {:>9.2}",
            r.name,
            s.wsat,
            s.wunsat,
            s.clength,
            opt_col(s.exact_clength),
            s.seconds
        );
    }
    out
}

/// Table VII: MUSTANG vs NOVA, two-level cubes and factored literals.
pub fn table7(reports: &[MachineReport]) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "TABLE VII — MUSTANG vs NOVA, two-level and multilevel",
    );
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>10} {:>8} {:>8} {:>8}",
        "example", "mus-cubes", "nova-cubes", "mus-lit", "nova-lit", "rand-lit"
    );
    let mut tot = [0u64; 5];
    for r in reports {
        let Some(mus) = &r.mustang else { continue };
        let nova = r.nova_best();
        let cols = [
            mus.cubes as u64,
            nova.cubes as u64,
            r.mustang_literals as u64,
            nova.literals as u64,
            r.random.best_literals as u64,
        ];
        for (t, c) in tot.iter_mut().zip(cols) {
            *t += c;
        }
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>10} {:>8} {:>8} {:>8}",
            r.name, cols[0], cols[1], cols[2], cols[3], cols[4]
        );
    }
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>10} {:>8} {:>8} {:>8}",
        "TOTAL", tot[0], tot[1], tot[2], tot[3], tot[4]
    );
    if tot[1] > 0 && tot[3] > 0 {
        let _ = writeln!(
            out,
            "mustang/nova cubes = {:.2} (paper 1.24); mustang/nova lit = {:.2} (paper 1.08); random/nova lit = {:.2} (paper 1.30)",
            tot[0] as f64 / tot[1] as f64,
            tot[2] as f64 / tot[3] as f64,
            tot[4] as f64 / tot[3] as f64
        );
    }
    out
}

/// Tables VIII & IX (figures): area ratios over best-of-NOVA, machines
/// ordered by increasing state count (the given report order).
pub fn figures_8_9(reports: &[MachineReport]) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "TABLES VIII & IX (figures) — area ratios over best of NOVA, by #states",
    );
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "example", "#states", "kiss/nova", "rand/nova", "ihyb/nova", "iohy/nova"
    );
    for r in reports {
        let nova = r.nova_best().area as f64;
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>9.2} {:>9.2} {:>9.2} {:>9}",
            r.name,
            r.states,
            r.kiss.area as f64 / nova,
            r.random.best_area as f64 / nova,
            r.ihybrid.area as f64 / nova,
            r.iohybrid
                .as_ref()
                .map(|io| format!("{:.2}", io.area as f64 / nova))
                .unwrap_or_else(|| "-".into()),
        );
    }
    out
}

/// Table X (figure): MUSTANG/NOVA cube and literal ratios by #states.
pub fn figure_10(reports: &[MachineReport]) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "TABLE X (figure) — MUSTANG/NOVA ratios, by #states",
    );
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>11} {:>11}",
        "example", "#states", "cubes-ratio", "lit-ratio"
    );
    for r in reports {
        let Some(mus) = &r.mustang else { continue };
        let nova = r.nova_best();
        let lit_ratio = if nova.literals > 0 {
            format!("{:.2}", r.mustang_literals as f64 / nova.literals as f64)
        } else {
            "-".into()
        };
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>11.2} {:>11}",
            r.name,
            r.states,
            mus.cubes as f64 / nova.cubes as f64,
            lit_ratio
        );
    }
    out
}

/// The Section VII remark as an experiment: sweep the ihybrid code length
/// from the minimum upward and watch the area (the paper: "increasing the
/// code-length to satisfy all the constraints does not pay in terms of
/// area").
pub fn length_sweep(names: &[&str], extra_bits: u32) -> String {
    use nova_core::hybrid::{ihybrid_code, HybridOptions};
    let mut out = String::new();
    header(
        &mut out,
        "CODE-LENGTH SWEEP — ihybrid area vs #bits (Section VII remark)",
    );
    for name in names {
        let Some(b) = fsm::benchmarks::by_name(name) else {
            continue;
        };
        let ics = nova_core::extract_input_constraints(&b.fsm);
        let min_len = nova_core::exact::min_code_length(b.fsm.num_states());
        let _ = write!(out, "{:<12}", b.display_name());
        for extra in 0..=extra_bits {
            let o = ihybrid_code(&ics, Some(min_len + extra), HybridOptions::default());
            let r = nova_core::evaluate(&b.fsm, &o.encoding);
            let _ = write!(out, " {}b:{:>5}", r.bits, r.area);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(areas generally grow with the code length: extra columns cost more than the cubes they save)"
    );
    out
}

/// Paper-vs-measured summary used to fill EXPERIMENTS.md.
pub fn paper_comparison(reports: &[MachineReport]) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "PAPER vs MEASURED — NOVA-best area and random-best area",
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} | {:>10} {:>10} | {:>12} {:>12}",
        "example", "nova(p)", "nova(m)", "rand(p)", "rand(m)", "nova/rand(p)", "nova/rand(m)"
    );
    for r in reports {
        let base = r.name.trim_end_matches('*');
        let Some(p) = paper::table4_row(base) else {
            continue;
        };
        let nova_m = r.nova_best().area;
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} | {:>10} {:>10} | {:>12.2} {:>12.2}",
            r.name,
            p.nova,
            nova_m,
            p.random_best,
            r.random.best_area,
            p.nova as f64 / p.random_best as f64,
            nova_m as f64 / r.random.best_area as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;

    fn small_reports() -> Vec<MachineReport> {
        ["bbtas", "dk27"]
            .iter()
            .map(|n| report(&fsm::benchmarks::by_name(n).unwrap(), true))
            .collect()
    }

    #[test]
    fn all_printers_produce_rows() {
        let reports = small_reports();
        for (name, text) in [
            ("t1", table1(&reports)),
            ("t2", table2(&reports)),
            ("t3", table3(&reports)),
            ("t4", table4(&reports)),
            ("t6", table6(&reports)),
            ("t7", table7(&reports)),
            ("f89", figures_8_9(&reports)),
            ("f10", figure_10(&reports)),
            ("cmp", paper_comparison(&reports)),
        ] {
            assert!(text.contains("bbtas"), "{name} missing rows:\n{text}");
        }
    }

    #[test]
    fn table5_uses_published_baseline() {
        let reports = small_reports();
        let text = table5(&reports);
        assert!(text.contains("cappuccino"));
        assert!(text.contains("bbtas"));
    }
}
