//! Offline analysis of `nova-trace/1` JSONL logs: the library behind
//! `nova trace-report`.
//!
//! [`TraceDoc::parse`] ingests one JSONL trace (as written by
//! [`crate::Tracer::write_jsonl`]) into a span forest plus the metrics
//! snapshot. From there:
//!
//! * [`TraceDoc::render_report`] prints the span tree with per-span total
//!   and self wall time, a per-name aggregation table, and histogram
//!   quantile estimates (p50/p90/p99 via [`crate::HistogramSnapshot`]);
//! * [`TraceDoc::stage_totals`] reduces the trace to per-name total wall
//!   times, the unit [`diff`] compares against a second trace's.

use crate::json::{self, Json};
use crate::{HistogramSnapshot, MetricsSnapshot, JSONL_SCHEMA};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One closed span reconstructed from a `B`/`E` pair.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name.
    pub name: String,
    /// Span id (the JSONL `id` field).
    pub id: u64,
    /// Parent span id (`0` = root).
    pub parent: u64,
    /// Recording thread.
    pub tid: u64,
    /// Enter timestamp (ns since the session epoch).
    pub start_ns: u64,
    /// Exit timestamp; spans left open at EOF close at the last timestamp
    /// seen in the trace.
    pub end_ns: u64,
    /// Indices (into [`TraceDoc::spans`]) of the direct children.
    pub children: Vec<usize>,
}

impl SpanRec {
    /// Wall time between enter and exit.
    pub fn total_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A parsed trace: the span forest and the metrics tail.
#[derive(Debug, Clone, Default)]
pub struct TraceDoc {
    /// Request id from the header, when the trace was request-scoped.
    pub request_id: Option<String>,
    /// Every closed span, in enter order.
    pub spans: Vec<SpanRec>,
    /// Indices of the spans with no parent in this trace.
    pub roots: Vec<usize>,
    /// Counters, gauges and histograms from the metric lines.
    pub metrics: MetricsSnapshot,
}

/// Per-name aggregate over all spans of that name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageAgg {
    /// Number of spans.
    pub count: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Summed self time (wall minus direct children; children on other
    /// threads can overlap the parent, so self time floors at zero).
    pub self_ns: u64,
}

fn get_u64(v: &Json, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Json::Int(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn get_str(v: &Json, key: &str) -> Option<String> {
    match v.get(key) {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

impl TraceDoc {
    /// Parses a `nova-trace/1` JSONL document.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first offending line: a missing
    /// or foreign schema header, unparseable JSON, or a malformed event.
    pub fn parse(text: &str) -> Result<TraceDoc, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty trace")?;
        let header = json::parse(header).map_err(|e| format!("line 1: {e}"))?;
        match header.get("schema") {
            Some(Json::Str(s)) if s == JSONL_SCHEMA => {}
            other => return Err(format!("line 1: not a {JSONL_SCHEMA} trace ({other:?})")),
        }
        let mut doc = TraceDoc {
            request_id: get_str(&header, "req"),
            ..TraceDoc::default()
        };
        // id → index of the (possibly still open) span.
        let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
        let mut open: Vec<u64> = Vec::new();
        let mut last_ts = 0u64;
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let n = i + 1;
            let v = json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
            let bad = |what: &str| format!("line {n}: {what}: {line}");
            let ev = get_str(&v, "ev").ok_or_else(|| bad("missing ev"))?;
            match ev.as_str() {
                "B" => {
                    let id = get_u64(&v, "id").ok_or_else(|| bad("missing id"))?;
                    let ts = get_u64(&v, "ts").ok_or_else(|| bad("missing ts"))?;
                    last_ts = last_ts.max(ts);
                    by_id.insert(id, doc.spans.len());
                    open.push(id);
                    doc.spans.push(SpanRec {
                        name: get_str(&v, "name").ok_or_else(|| bad("missing name"))?,
                        id,
                        parent: get_u64(&v, "parent").unwrap_or(0),
                        tid: get_u64(&v, "tid").unwrap_or(0),
                        start_ns: ts,
                        end_ns: ts,
                        children: Vec::new(),
                    });
                }
                "E" => {
                    let id = get_u64(&v, "id").ok_or_else(|| bad("missing id"))?;
                    let ts = get_u64(&v, "ts").ok_or_else(|| bad("missing ts"))?;
                    last_ts = last_ts.max(ts);
                    let idx = by_id.get(&id).copied().ok_or_else(|| bad("E without B"))?;
                    doc.spans[idx].end_ns = doc.spans[idx].start_ns.max(ts);
                    open.retain(|&o| o != id);
                }
                "counter" => {
                    let name = get_str(&v, "name").ok_or_else(|| bad("missing name"))?;
                    let value = get_u64(&v, "value").ok_or_else(|| bad("missing value"))?;
                    doc.metrics.counters.push((name, value));
                }
                "gauge" => {
                    let name = get_str(&v, "name").ok_or_else(|| bad("missing name"))?;
                    let value = match v.get("value") {
                        Some(Json::Int(n)) => *n as i64,
                        _ => return Err(bad("missing value")),
                    };
                    doc.metrics.gauges.push((name, value));
                }
                "histogram" => {
                    let name = get_str(&v, "name").ok_or_else(|| bad("missing name"))?;
                    let mut h = HistogramSnapshot {
                        count: get_u64(&v, "count").ok_or_else(|| bad("missing count"))?,
                        sum: get_u64(&v, "sum").unwrap_or(0),
                        min: get_u64(&v, "min").unwrap_or(0),
                        max: get_u64(&v, "max").unwrap_or(0),
                        buckets: Vec::new(),
                    };
                    if let Some(Json::Arr(buckets)) = v.get("buckets") {
                        for b in buckets {
                            let lt = match b.get("lt") {
                                Some(Json::Int(n)) if *n >= 0 => Some(*n as u64),
                                Some(Json::Null) | None => None,
                                _ => return Err(bad("bad bucket bound")),
                            };
                            h.buckets.push((lt, get_u64(b, "n").unwrap_or(0)));
                        }
                    }
                    doc.metrics.histograms.push((name, h));
                }
                other => return Err(bad(&format!("unknown ev {other:?}"))),
            }
        }
        // Close anything left open (a truncated trace is still reportable).
        for &id in &open {
            let idx = by_id[&id];
            doc.spans[idx].end_ns = doc.spans[idx].start_ns.max(last_ts);
        }
        // Wire up the forest.
        for i in 0..doc.spans.len() {
            match by_id.get(&doc.spans[i].parent).copied() {
                Some(p) if doc.spans[i].parent != 0 => doc.spans[p].children.push(i),
                _ => doc.roots.push(i),
            }
        }
        Ok(doc)
    }

    /// Self time of span `i`: wall minus direct children, floored at zero
    /// (children raced on other threads can overlap the parent).
    pub fn self_ns(&self, i: usize) -> u64 {
        let child_total: u64 = self.spans[i]
            .children
            .iter()
            .map(|&c| self.spans[c].total_ns())
            .sum();
        self.spans[i].total_ns().saturating_sub(child_total)
    }

    /// Per-name aggregates over every span, sorted by total descending.
    pub fn aggregate(&self) -> Vec<(String, StageAgg)> {
        let mut by_name: BTreeMap<&str, StageAgg> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let a = by_name.entry(&s.name).or_default();
            a.count += 1;
            a.total_ns = a.total_ns.saturating_add(s.total_ns());
            a.self_ns = a.self_ns.saturating_add(self.self_ns(i));
        }
        let mut out: Vec<(String, StageAgg)> = by_name
            .into_iter()
            .map(|(n, a)| (n.to_string(), a))
            .collect();
        out.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));
        out
    }

    /// The per-name total wall times [`diff`] compares.
    pub fn stage_totals(&self) -> Vec<(String, u64)> {
        self.aggregate()
            .into_iter()
            .map(|(n, a)| (n, a.total_ns))
            .collect()
    }

    /// The full human-readable report: span tree, per-stage aggregation,
    /// histogram quantiles.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        if let Some(req) = &self.request_id {
            let _ = writeln!(out, "request {req}");
        }
        let _ = writeln!(out, "span tree (total / self):");
        let mut roots = self.roots.clone();
        roots.sort_by_key(|&i| self.spans[i].start_ns);
        for r in roots {
            self.render_span(&mut out, r, 1);
        }
        let _ = writeln!(out, "\nper-stage aggregation:");
        let _ = writeln!(
            out,
            "  {:<32} {:>6} {:>12} {:>12}",
            "name", "count", "total", "self"
        );
        for (name, a) in self.aggregate() {
            let _ = writeln!(
                out,
                "  {:<32} {:>6} {:>12} {:>12}",
                name,
                a.count,
                fmt_ns(a.total_ns),
                fmt_ns(a.self_ns)
            );
        }
        if !self.metrics.histograms.is_empty() {
            let _ = writeln!(out, "\nhistograms (count mean p50 p90 p99 max):");
            for (name, h) in &self.metrics.histograms {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>6} {:>10.1} {:>8} {:>8} {:>8} {:>8}",
                    name,
                    h.count,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.max
                );
            }
        }
        out
    }

    fn render_span(&self, out: &mut String, i: usize, depth: usize) {
        let s = &self.spans[i];
        let _ = writeln!(
            out,
            "{:indent$}{} {} / {}",
            "",
            s.name,
            fmt_ns(s.total_ns()),
            fmt_ns(self.self_ns(i)),
            indent = depth * 2
        );
        let mut children = s.children.clone();
        children.sort_by_key(|&c| self.spans[c].start_ns);
        for c in children {
            self.render_span(out, c, depth + 1);
        }
    }
}

/// Milliseconds with µs precision, the report's single time unit.
fn fmt_ns(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// A stage whose total wall time regressed beyond the diff threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Span name.
    pub name: String,
    /// Baseline total.
    pub base_ns: u64,
    /// Current total.
    pub new_ns: u64,
    /// `new / base` slowdown factor.
    pub ratio: f64,
}

/// Compares per-name totals against a baseline: every name present in both
/// whose total grew by more than `threshold_pct` percent is reported,
/// sorted by slowdown factor descending. Names absent from either side are
/// skipped — a diff flags *slowdowns*, not coverage changes.
pub fn diff(base: &[(String, u64)], new: &[(String, u64)], threshold_pct: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for (name, new_ns) in new {
        let Some((_, base_ns)) = base.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if *base_ns == 0 {
            continue;
        }
        let ratio = *new_ns as f64 / *base_ns as f64;
        if ratio > 1.0 + threshold_pct / 100.0 {
            out.push(Regression {
                name: name.clone(),
                base_ns: *base_ns,
                new_ns: *new_ns,
                ratio,
            });
        }
    }
    out.sort_by(|a, b| {
        b.ratio
            .partial_cmp(&a.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

/// Renders a diff outcome (regressed or not) as the table `nova
/// trace-report --diff` prints.
pub fn render_diff(regressions: &[Regression], threshold_pct: f64) -> String {
    let mut out = String::new();
    if regressions.is_empty() {
        let _ = writeln!(out, "no stage slowed by more than {threshold_pct:.0}%");
        return out;
    }
    let _ = writeln!(
        out,
        "stages slower than baseline by more than {threshold_pct:.0}%:"
    );
    for r in regressions {
        let _ = writeln!(
            out,
            "  {:<32} {:>12} -> {:>12}  ({:.2}x)",
            r.name,
            fmt_ns(r.base_ns),
            fmt_ns(r.new_ns),
            r.ratio
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn sample_trace() -> String {
        let t = Tracer::enabled();
        t.set_request_id(0xabc);
        {
            let _root = t.span("portfolio");
            {
                let _s = t.span("stage.embed");
                let _inner = t.span("embed.assign");
            }
            let _s = t.span("stage.espresso");
        }
        t.incr("embed.nodes", 17);
        for v in [1, 2, 3] {
            t.observe("espresso.cubes_per_iteration", v);
        }
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn parses_spans_metrics_and_request_id() {
        let doc = TraceDoc::parse(&sample_trace()).unwrap();
        assert_eq!(doc.request_id.as_deref(), Some("0000000000000abc"));
        assert_eq!(doc.spans.len(), 4);
        assert_eq!(doc.roots.len(), 1);
        let root = &doc.spans[doc.roots[0]];
        assert_eq!(root.name, "portfolio");
        assert_eq!(root.children.len(), 2);
        assert_eq!(doc.metrics.counters, vec![("embed.nodes".into(), 17)]);
        assert_eq!(doc.metrics.histograms.len(), 1);
        assert_eq!(doc.metrics.histograms[0].1.count, 3);
    }

    #[test]
    fn self_time_excludes_children_and_aggregates() {
        let doc = TraceDoc::parse(&sample_trace()).unwrap();
        let agg = doc.aggregate();
        let get = |n: &str| agg.iter().find(|(name, _)| name == n).unwrap().1.clone();
        let embed = get("stage.embed");
        let assign = get("embed.assign");
        assert_eq!(embed.count, 1);
        assert!(embed.total_ns >= assign.total_ns);
        assert_eq!(embed.self_ns, embed.total_ns - assign.total_ns);
        // The report renders every section.
        let text = doc.render_report();
        assert!(text.contains("request 0000000000000abc"), "{text}");
        assert!(text.contains("portfolio"), "{text}");
        assert!(text.contains("per-stage aggregation"), "{text}");
        assert!(text.contains("espresso.cubes_per_iteration"), "{text}");
    }

    #[test]
    fn rejects_foreign_and_malformed_traces() {
        assert!(TraceDoc::parse("").is_err());
        assert!(TraceDoc::parse("{\"schema\":\"other/1\"}\n").is_err());
        let bad_line = "{\"schema\":\"nova-trace/1\",\"unit\":\"ns\"}\nnot json\n";
        let err = TraceDoc::parse(bad_line).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let bad_ev = "{\"schema\":\"nova-trace/1\",\"unit\":\"ns\"}\n{\"ev\":\"Z\"}\n";
        assert!(TraceDoc::parse(bad_ev).is_err());
    }

    #[test]
    fn truncated_traces_close_open_spans_at_last_timestamp() {
        let full = sample_trace();
        // Drop everything after the first E event: two spans stay open.
        let mut kept = Vec::new();
        for line in full.lines() {
            let stop = line.contains("\"ev\":\"E\"");
            kept.push(line);
            if stop {
                break;
            }
        }
        let doc = TraceDoc::parse(&(kept.join("\n") + "\n")).unwrap();
        for s in &doc.spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn diff_flags_only_slowdowns_beyond_threshold() {
        let base = vec![
            ("stage.embed".to_string(), 1_000_000u64),
            ("stage.espresso".to_string(), 2_000_000),
            ("stage.encode".to_string(), 500_000),
        ];
        let new = vec![
            ("stage.embed".to_string(), 1_100_000u64), // +10%: under threshold
            ("stage.espresso".to_string(), 5_000_000), // 2.5x: flagged
            ("stage.constraints".to_string(), 9_999_999), // not in base: skipped
        ];
        let regs = diff(&base, &new, 25.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "stage.espresso");
        assert!((regs[0].ratio - 2.5).abs() < 1e-9);
        let text = render_diff(&regs, 25.0);
        assert!(text.contains("stage.espresso"), "{text}");
        assert!(text.contains("2.50x"), "{text}");
        assert!(render_diff(&[], 25.0).contains("no stage slowed"));
    }
}
