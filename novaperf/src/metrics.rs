//! The metric catalogue (names, units) and the order statistics every
//! workload reports with. `BENCHMARK.json` lists the same names; the
//! self-check compares the two.

use std::collections::BTreeMap;

/// Metrics a user of the system sees, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("machines_per_s", "1/s"),
    ("machine_wall_p50_ms", "ms"),
    ("machine_wall_geomean_ms", "ms"),
    ("area_sum", "cells"),
    ("cubes_sum", "count"),
    ("solved_ratio", "ratio"),
    ("verified_ratio", "ratio"),
    ("req_p50_ms", "ms"),
    ("rps", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// End-to-end tails that every run measures but only a traced run prints.
pub const TAILS: [&str; 2] = ["machine_wall_tail_ms", "req_p99_ms"];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("machine_wall_tail_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("constraints.busy_ms", "ms"),
    ("constraints.calls", "count"),
    ("constraints.count", "count"),
    ("embed.busy_ms", "ms"),
    ("embed.calls", "count"),
    ("embed.work", "count"),
    ("embed.faces_tried", "count"),
    ("embed.backtracks", "count"),
    ("embed.solved_ratio", "ratio"),
    ("encode.busy_ms", "ms"),
    ("encode.rows", "count"),
    ("espresso.busy_ms", "ms"),
    ("espresso.iterations", "count"),
    ("espresso.cubes_in", "count"),
    ("espresso.cubes_out", "count"),
    ("portfolio.run_sum_ms", "ms"),
    ("portfolio.overlap", "ratio"),
    ("portfolio.done", "count"),
    ("portfolio.unsolved", "count"),
    ("portfolio.degraded", "count"),
    ("portfolio.failed", "count"),
    ("batch.busy_ratio", "ratio"),
    ("batch.retries", "count"),
    ("batch.quarantined", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("serve.reject_p50_ms", "ms"),
    ("serve.reject_reset_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("serve.engine_runs", "count"),
    ("error_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Nearest-rank percentile `p` (0..=100) of an ascending slice: always an
/// observed sample, so a tail never interpolates across the gap between two
/// machines of very different size.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile, in 0.1 steps and at least 50, that leaves at
/// least ten of `n` samples beyond it: the tail figure a run of `n`
/// samples can support.
pub fn tail_percentile(n: usize) -> f64 {
    let p = (1000.0 * (1.0 - 10.0 / n as f64)).floor() / 10.0;
    p.max(50.0)
}

/// Geometric mean of positive samples.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: f64 = xs.iter().map(|x| x.max(1e-9).ln()).sum();
    (logs / xs.len() as f64).exp()
}

/// A timing distribution: median, the supported tail and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    pub p50: f64,
    pub p99: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub geomean: f64,
    pub samples: usize,
}

impl Dist {
    /// Summarises `xs`; all zeros when there are no samples.
    pub fn of(xs: &[f64]) -> Dist {
        if xs.is_empty() {
            return Dist {
                p50: 0.0,
                p99: 0.0,
                tail: 0.0,
                tail_pct: 0.0,
                geomean: 0.0,
                samples: 0,
            };
        }
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(s.len());
        Dist {
            p50: percentile(&s, 50.0),
            p99: percentile(&s, 99.0),
            tail: percentile(&s, tail_pct),
            tail_pct,
            geomean: geomean(&s),
            samples: s.len(),
        }
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(33), 69.6);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(12), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 69.6), 3.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
