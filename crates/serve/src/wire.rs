//! Request wire format: how an encoding request's machine and options are
//! carried over HTTP and how they map onto the engine.
//!
//! * The **machine** arrives as the request body, as KISS2 text.
//! * The **options** arrive as query parameters and decode straight into
//!   the [`EngineConfig`] the request runs under: `algorithms`, `bits`,
//!   `budget`, `timeout_ms`, `fault_plan`, each at most once. The worker
//!   count is the server's, not the request's.
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
use std::time::Duration;

/// A query-string option the service does not understand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadOption(pub String);

impl std::fmt::Display for BadOption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad option: {}", self.0)
    }
}

impl std::error::Error for BadOption {}

/// Decodes a request's options from parsed query pairs into the engine
/// configuration it runs under; the rest (worker count, tracer) keeps the
/// [`EngineConfig`] defaults. Without `algorithms` a request races the
/// full portfolio.
///
/// # Errors
///
/// [`BadOption`] on unknown keys (`jobs` among them), a key given twice,
/// unknown or repeated algorithm names, malformed numbers or fault-plan
/// specs — the request layer answers 400 with the message, so it names the
/// offending pair or key.
pub fn from_query(pairs: &[(String, String)]) -> Result<EngineConfig, BadOption> {
    let mut out = EngineConfig::default();
    let bad = |k: &str, v: &str| BadOption(format!("{k}={v}"));
    for (i, (k, v)) in pairs.iter().enumerate() {
        if pairs[..i].iter().any(|(seen, _)| seen == k) {
            return Err(BadOption(format!("{k} repeated")));
        }
        match k.as_str() {
            "algorithms" => {
                if v == "all" {
                    out.algorithms = Algorithm::ALL.to_vec();
                } else {
                    out.algorithms = Vec::new();
                    for name in v.split(',') {
                        let alg = name
                            .parse::<Algorithm>()
                            .map_err(|e| BadOption(format!("{k}={v}: {e}")))?;
                        if out.algorithms.contains(&alg) {
                            return Err(BadOption(format!("{k}={v}: {alg} repeated")));
                        }
                        out.algorithms.push(alg);
                    }
                }
            }
            "bits" => out.target_bits = Some(v.parse().map_err(|_| bad(k, v))?),
            "budget" => out.node_budget = Some(v.parse().map_err(|_| bad(k, v))?),
            "timeout_ms" => {
                out.timeout = Some(Duration::from_millis(v.parse().map_err(|_| bad(k, v))?))
            }
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
/// excludes the deadline (see module docs), the worker count and the
/// tracer, which never change a result.
pub fn cache_key(cfg: &EngineConfig, machine_fingerprint: &str) -> String {
    let algs: Vec<&str> = cfg.algorithms.iter().map(|a| a.name()).collect();
    format!(
        "v1|fp={machine_fingerprint}|algs={}|bits={}|budget={}",
        algs.join(","),
        cfg.target_bits.map_or("-".to_string(), |b| b.to_string()),
        cfg.node_budget.map_or("-".to_string(), |b| b.to_string()),
    )
}

/// Whether results under these options are admissible to the cache at all.
/// Fault-plan runs are diagnostics: deterministic, but deliberately
/// degraded — caching them would serve injected faults to innocent callers
/// of the same machine.
pub fn cacheable(cfg: &EngineConfig) -> bool {
    cfg.fault_plan.is_none()
}

/// Renders the options back into a query string (the client side of
/// [`from_query`]; the deadline in whole milliseconds). Only non-default
/// options appear.
pub fn to_query(cfg: &EngineConfig) -> String {
    let mut parts = Vec::new();
    if cfg.algorithms != Algorithm::ALL.to_vec() {
        let names: Vec<&str> = cfg.algorithms.iter().map(|a| a.name()).collect();
        parts.push(format!(
            "algorithms={}",
            crate::http::percent_encode(&names.join(","))
        ));
    }
    if let Some(b) = cfg.target_bits {
        parts.push(format!("bits={b}"));
    }
    if let Some(b) = cfg.node_budget {
        parts.push(format!("budget={b}"));
    }
    if let Some(t) = cfg.timeout {
        parts.push(format!("timeout_ms={}", t.as_millis()));
    }
    if let Some(p) = &cfg.fault_plan {
        parts.push(format!(
            "fault_plan={}",
            crate::http::percent_encode(&p.to_spec())
        ));
    }
    parts.join("&")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(q: &str) -> Vec<(String, String)> {
        crate::http::parse_query(q)
    }

    #[test]
    fn default_options_race_the_full_portfolio() {
        let o = from_query(&[]).unwrap();
        assert_eq!(o.algorithms, Algorithm::ALL.to_vec());
        assert!(cacheable(&o));
        assert_eq!(to_query(&o), "");
    }

    #[test]
    fn options_round_trip_through_query_strings() {
        let o = from_query(&pairs(
            "algorithms=ihybrid,igreedy&bits=4&budget=1000&timeout_ms=500",
        ))
        .unwrap();
        assert_eq!(o.algorithms, vec![Algorithm::IHybrid, Algorithm::IGreedy]);
        assert_eq!(
            (o.target_bits, o.node_budget, o.timeout),
            (Some(4), Some(1000), Some(Duration::from_millis(500)))
        );
        let again = from_query(&pairs(&to_query(&o))).unwrap();
        assert_eq!(cache_key(&again, "fp"), cache_key(&o, "fp"));
        assert_eq!(again.timeout, o.timeout);
    }

    #[test]
    fn bad_options_are_named() {
        for q in [
            "nope=1",
            "bits=x",
            "algorithms=quantum",
            "fault_plan=???",
            "jobs=2",
            "algorithms=1-hot,1-hot",
        ] {
            let err = from_query(&pairs(q)).unwrap_err();
            assert!(err.0.contains(q.split('=').next().unwrap()), "{err}");
        }
        let err = from_query(&pairs("algorithms=kiss,1-hot,kiss")).unwrap_err();
        assert!(err.0.contains("kiss repeated"), "{err}");
        // Each key once: a second value would silently replace the first.
        for (q, key) in [
            ("algorithms=kiss&algorithms=1-hot", "algorithms"),
            ("bits=3&bits=4", "bits"),
            ("budget=9&timeout_ms=5&budget=9", "budget"),
        ] {
            let err = from_query(&pairs(q)).unwrap_err();
            assert_eq!(err.to_string(), format!("bad option: {key} repeated"));
        }
        // `algorithms` has one spelling.
        for (q, pair) in [
            ("algorithm=kiss", "algorithm=kiss"),
            (
                "algorithms=kiss&algorithm=1-hot&bits=3&bits=4",
                "algorithm=1-hot",
            ),
        ] {
            let err = from_query(&pairs(q)).unwrap_err();
            assert_eq!(err.to_string(), format!("bad option: {pair}"));
        }
    }

    #[test]
    fn cache_key_tracks_results_not_clocks() {
        let base = from_query(&pairs("algorithms=ihybrid")).unwrap();
        let timed = from_query(&pairs("algorithms=ihybrid&timeout_ms=99")).unwrap();
        assert_eq!(
            cache_key(&base, "fp"),
            cache_key(&timed, "fp"),
            "clock excluded"
        );
        let budgeted = from_query(&pairs("algorithms=ihybrid&budget=5")).unwrap();
        assert_ne!(cache_key(&base, "fp"), cache_key(&budgeted, "fp"));
        assert_ne!(cache_key(&base, "fp"), cache_key(&base, "other"));
    }

    #[test]
    fn fault_plans_parse_but_disable_caching() {
        let o = from_query(&pairs("fault_plan=stage.espresso:1:budget")).unwrap();
        assert!(!cacheable(&o));
    }
}
