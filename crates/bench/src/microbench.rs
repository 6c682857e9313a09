//! A tiny std-only micro-benchmark harness (the workspace is offline, so
//! criterion is not available). Each `[[bench]]` target is a plain
//! `harness = false` binary built on [`Harness`].
//!
//! Usage: `cargo bench [FILTER]` — only benchmark ids containing FILTER run.
//! Reports min / median / mean wall time per iteration.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Re-export for benchmark bodies that need to defeat the optimizer.
pub use std::hint::black_box as bb;

/// Top-level harness: parses the CLI filter and prints one line per bench.
pub struct Harness {
    filter: Option<String>,
}

impl Harness {
    /// Builds the harness from `std::env::args` (ignores `--bench`/`--exact`
    /// style flags cargo passes through; the first bare word is the filter).
    pub fn from_args() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        Harness { filter }
    }

    /// Opens a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            samples: 20,
        }
    }

    fn matches(&self, id: &str) -> bool {
        self.filter.as_ref().is_none_or(|f| id.contains(f.as_str()))
    }
}

/// A group of related benchmarks sharing a sample count.
pub struct Group<'a> {
    harness: &'a Harness,
    name: String,
    samples: usize,
}

impl Group<'_> {
    /// Sets the number of timed samples (default 20).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(3);
        self
    }

    /// Runs one benchmark: warms up, takes `samples` timed runs, prints
    /// min / median / mean per-iteration time.
    pub fn bench<R>(&mut self, id: &str, f: impl FnMut() -> R) {
        self.bench_throughput(id, 0.0, "", f);
    }

    /// Like [`bench`](Self::bench), but additionally reports
    /// `units / median-time` as a throughput figure. `units` is the amount of
    /// work a single call performs (e.g. row-words scanned, cube pairs
    /// compared); `unit_name` is the label printed before `/s`. Returns the
    /// median time per call, or `None` when the filter skipped the bench.
    pub fn bench_throughput<R>(
        &mut self,
        id: &str,
        units: f64,
        unit_name: &str,
        mut f: impl FnMut() -> R,
    ) -> Option<Duration> {
        let full = format!("{}/{}", self.name, id);
        if !self.harness.matches(&full) {
            return None;
        }
        // Warm-up and per-sample iteration sizing: aim for >= 1 ms a sample.
        let t0 = Instant::now();
        black_box(f());
        let one = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (Duration::from_millis(1).as_nanos() / one.as_nanos()).clamp(1, 10_000) as u32;

        let mut times: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            times.push(t.elapsed() / iters);
        }
        times.sort_unstable();
        let min = times[0];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        let mut line =
            format!("{full:<48} min {min:>12.3?}  median {median:>12.3?}  mean {mean:>12.3?}");
        if units > 0.0 {
            let rate = units / median.as_secs_f64().max(1e-12);
            line.push_str(&format!("  {:>10} {unit_name}/s", human_rate(rate)));
        }
        println!("{line}");
        Some(median)
    }
}

/// Scales a per-second rate into a compact K/M/G figure.
fn human_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2}K", rate / 1e3)
    } else {
        format!("{rate:.1}")
    }
}
