//! Request wire format: how an encoding request's machine and options are
//! carried over HTTP and how they map onto the engine.
//!
//! * The **machine** arrives as the request body, as KISS2 text.
//! * The **options** arrive as query parameters and map one-to-one onto
//!   [`nova_engine::EngineConfig`]: `algorithms`, `bits`, `budget`,
//!   `timeout_ms`, `jobs`, `fault_plan`.
//! * The **cache key** is the canonical serialization of everything that
//!   determines the deterministic part of the result: the machine
//!   fingerprint plus every result-affecting option. Wall-clock options
//!   (`timeout_ms`) are deliberately *excluded* — a report that was
//!   influenced by the clock is never admitted to the cache in the first
//!   place (see [`crate::server`]), and one that was not is identical under
//!   any deadline.

use espresso::FaultPlan;
use nova_core::driver::Algorithm;
use nova_engine::EngineConfig;
use nova_trace::Tracer;
use std::time::Duration;

/// Options of one encoding request, decoded from the query string.
#[derive(Debug, Clone)]
pub struct EncodeOptions {
    /// Algorithms to race, in tie-break order (default: the full portfolio).
    pub algorithms: Vec<Algorithm>,
    /// Code-length override (`bits=N`).
    pub bits: Option<u32>,
    /// Deterministic per-algorithm node budget (`budget=N`).
    pub budget: Option<u64>,
    /// Wall-clock deadline for the whole request (`timeout_ms=N`).
    pub timeout_ms: Option<u64>,
    /// Engine worker threads for this request (`jobs=N`, 0 = all cores).
    pub jobs: usize,
    /// Deterministic fault plan (`fault_plan=SPEC`, nova-chaos). Requests
    /// carrying one are never cached.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            algorithms: Algorithm::ALL.to_vec(),
            bits: None,
            budget: None,
            timeout_ms: None,
            jobs: 0,
            fault_plan: None,
        }
    }
}

/// A query-string option the service does not understand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadOption(pub String);

impl std::fmt::Display for BadOption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad option: {}", self.0)
    }
}

impl std::error::Error for BadOption {}

impl EncodeOptions {
    /// Decodes options from parsed query pairs.
    ///
    /// # Errors
    ///
    /// [`BadOption`] on unknown keys, unknown algorithm names, malformed
    /// numbers or fault-plan specs — the request layer answers 400 with the
    /// message, so it names the offending pair.
    pub fn from_query(pairs: &[(String, String)]) -> Result<EncodeOptions, BadOption> {
        let mut out = EncodeOptions::default();
        let bad = |k: &str, v: &str| BadOption(format!("{k}={v}"));
        for (k, v) in pairs {
            match k.as_str() {
                "algorithms" | "algorithm" => {
                    if v == "all" {
                        out.algorithms = Algorithm::ALL.to_vec();
                    } else {
                        out.algorithms = v
                            .split(',')
                            .map(|s| s.parse::<Algorithm>())
                            .collect::<Result<_, _>>()
                            .map_err(|e| BadOption(format!("{k}={v}: {e}")))?;
                    }
                }
                "bits" => out.bits = Some(v.parse().map_err(|_| bad(k, v))?),
                "budget" => out.budget = Some(v.parse().map_err(|_| bad(k, v))?),
                "timeout_ms" => out.timeout_ms = Some(v.parse().map_err(|_| bad(k, v))?),
                "jobs" => out.jobs = v.parse().map_err(|_| bad(k, v))?,
                "fault_plan" => {
                    out.fault_plan =
                        Some(FaultPlan::parse(v).map_err(|e| BadOption(format!("{k}={v}: {e}")))?)
                }
                _ => return Err(bad(k, v)),
            }
        }
        if out.algorithms.is_empty() {
            return Err(BadOption("algorithms= (empty)".into()));
        }
        Ok(out)
    }

    /// The canonical cache key for this machine/options pair. Covers the
    /// machine fingerprint and every deterministic result-affecting option;
    /// excludes wall-clock-only options (see module docs) and `jobs`
    /// (identical results at any worker count).
    pub fn cache_key(&self, machine_fingerprint: &str) -> String {
        let algs: Vec<&str> = self.algorithms.iter().map(|a| a.name()).collect();
        format!(
            "v1|fp={machine_fingerprint}|algs={}|bits={}|budget={}",
            algs.join(","),
            self.bits.map_or("-".to_string(), |b| b.to_string()),
            self.budget.map_or("-".to_string(), |b| b.to_string()),
        )
    }

    /// Whether results under these options are admissible to the cache at
    /// all. Fault-plan runs are diagnostics: deterministic, but
    /// deliberately degraded — caching them would serve injected faults to
    /// innocent callers of the same machine.
    pub fn cacheable(&self) -> bool {
        self.fault_plan.is_none()
    }

    /// The engine configuration this request runs under.
    pub fn engine_config(&self, tracer: &Tracer) -> EngineConfig {
        EngineConfig {
            algorithms: self.algorithms.clone(),
            jobs: self.jobs,
            timeout: self.timeout_ms.map(Duration::from_millis),
            node_budget: self.budget,
            target_bits: self.bits,
            tracer: tracer.clone(),
            fault_plan: self.fault_plan.clone(),
        }
    }

    /// Renders the options back into a query string (the client side of
    /// [`EncodeOptions::from_query`]). Only non-default options appear.
    pub fn to_query(&self) -> String {
        let mut parts = Vec::new();
        if self.algorithms != Algorithm::ALL.to_vec() {
            let names: Vec<&str> = self.algorithms.iter().map(|a| a.name()).collect();
            parts.push(format!(
                "algorithms={}",
                crate::http::percent_encode(&names.join(","))
            ));
        }
        if let Some(b) = self.bits {
            parts.push(format!("bits={b}"));
        }
        if let Some(b) = self.budget {
            parts.push(format!("budget={b}"));
        }
        if let Some(t) = self.timeout_ms {
            parts.push(format!("timeout_ms={t}"));
        }
        if self.jobs != 0 {
            parts.push(format!("jobs={}", self.jobs));
        }
        if let Some(p) = &self.fault_plan {
            parts.push(format!(
                "fault_plan={}",
                crate::http::percent_encode(&p.to_spec())
            ));
        }
        parts.join("&")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(q: &str) -> Vec<(String, String)> {
        crate::http::parse_query(q)
    }

    #[test]
    fn default_options_race_the_full_portfolio() {
        let o = EncodeOptions::from_query(&[]).unwrap();
        assert_eq!(o.algorithms, Algorithm::ALL.to_vec());
        assert!(o.cacheable());
        assert_eq!(o.to_query(), "");
    }

    #[test]
    fn options_round_trip_through_query_strings() {
        let o = EncodeOptions::from_query(&pairs(
            "algorithms=ihybrid,igreedy&bits=4&budget=1000&timeout_ms=500&jobs=2",
        ))
        .unwrap();
        assert_eq!(o.algorithms, vec![Algorithm::IHybrid, Algorithm::IGreedy]);
        assert_eq!(
            (o.bits, o.budget, o.timeout_ms),
            (Some(4), Some(1000), Some(500))
        );
        assert_eq!(o.jobs, 2);
        let again = EncodeOptions::from_query(&pairs(&o.to_query())).unwrap();
        assert_eq!(again.cache_key("fp"), o.cache_key("fp"));
        assert_eq!(again.timeout_ms, o.timeout_ms);
        assert_eq!(again.jobs, o.jobs);
    }

    #[test]
    fn bad_options_are_named() {
        for q in ["nope=1", "bits=x", "algorithms=quantum", "fault_plan=???"] {
            let err = EncodeOptions::from_query(&pairs(q)).unwrap_err();
            assert!(err.0.contains(q.split('=').next().unwrap()), "{err}");
        }
    }

    #[test]
    fn cache_key_tracks_results_not_clocks() {
        let base = EncodeOptions::from_query(&pairs("algorithms=ihybrid")).unwrap();
        let timed = EncodeOptions::from_query(&pairs("algorithms=ihybrid&timeout_ms=99")).unwrap();
        assert_eq!(
            base.cache_key("fp"),
            timed.cache_key("fp"),
            "clock excluded"
        );
        let budgeted = EncodeOptions::from_query(&pairs("algorithms=ihybrid&budget=5")).unwrap();
        assert_ne!(base.cache_key("fp"), budgeted.cache_key("fp"));
        assert_ne!(base.cache_key("fp"), base.cache_key("other"));
        let par = EncodeOptions::from_query(&pairs("algorithms=ihybrid&jobs=4")).unwrap();
        assert_eq!(
            base.cache_key("fp"),
            par.cache_key("fp"),
            "jobs excluded: results are identical at any worker count"
        );
    }

    #[test]
    fn fault_plans_parse_but_disable_caching() {
        let o = EncodeOptions::from_query(&pairs("fault_plan=stage.espresso:1:budget")).unwrap();
        assert!(!o.cacheable());
    }
}
