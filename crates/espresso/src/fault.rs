//! Deterministic fault injection for the encode/minimize pipeline.
//!
//! A [`FaultPlan`] is a seeded, replayable list of [`FaultPoint`]s: at the
//! Nth charge/counter call made while a given pipeline stage is active, a
//! synthetic fault fires — a forced cancellation, a simulated deadline
//! expiry, a budget zeroing, or an injected panic. The plan is armed on a
//! [`RunCtl`](crate::RunCtl) via [`RunCtl::arm_faults`](crate::RunCtl::arm_faults);
//! when no plan is armed the entire machinery costs one relaxed atomic load
//! per instrumentation point (the same bar as the disabled tracer).
//!
//! Plans parse from a compact spec (`STAGE:NTH:KIND`, comma-separated, or
//! `seed:N` for a derived pseudo-random plan), so any chaos-test failure is
//! reproducible from the one-line spec in its report:
//!
//! ```
//! use espresso::fault::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::parse("stage.embed:5:panic,stage.espresso:1:deadline").unwrap();
//! assert_eq!(plan.points.len(), 2);
//! assert_eq!(plan.points[0].kind, FaultKind::Panic);
//! let replay = FaultPlan::parse(&plan.to_spec()).unwrap();
//! assert_eq!(replay, plan);
//! ```

use std::sync::{Mutex, PoisonError};

/// The canonical pipeline stage names, as reported by the driver's stage
/// telemetry and matched by [`FaultPoint::stage`]. Kept here so fault plans
/// derived from a seed target real stages.
pub const PIPELINE_STAGES: [&str; 4] = [
    "stage.constraints",
    "stage.embed",
    "stage.encode",
    "stage.espresso",
];

/// What a firing fault does to the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Latch the run's stop with the `Stop` reason.
    Cancel,
    /// Simulate a wall-clock deadline expiry (latch with the deadline
    /// reason).
    Deadline,
    /// Zero the remaining node budget (latch with the budget reason).
    Budget,
    /// Panic right at the instrumentation point, exercising the engine's
    /// containment and the telemetry-survival guarantees.
    Panic,
}

impl FaultKind {
    /// Stable lower-case tag used in specs and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::Cancel => "cancel",
            FaultKind::Deadline => "deadline",
            FaultKind::Budget => "budget",
            FaultKind::Panic => "panic",
        }
    }

    fn from_tag(s: &str) -> Option<FaultKind> {
        Some(match s {
            "cancel" => FaultKind::Cancel,
            "deadline" => FaultKind::Deadline,
            "budget" => FaultKind::Budget,
            "panic" => FaultKind::Panic,
            _ => return None,
        })
    }
}

/// One scheduled fault: fire `kind` at the `at`-th (1-based) charge/counter
/// call observed while `stage` is the active stage (`"*"` matches any
/// stage, including code running before the first stage is announced).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPoint {
    /// Stage name to match (one of [`PIPELINE_STAGES`], or `"*"`).
    pub stage: String,
    /// Fire at the Nth instrumentation call within the stage (1-based).
    pub at: u64,
    /// What to do when the point is reached.
    pub kind: FaultKind,
}

/// Error from [`FaultPlan::parse`] on a malformed spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError(String);

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault plan: {}", self.0)
    }
}

impl std::error::Error for FaultPlanError {}

/// A replayable list of fault points. Arm it on a `RunCtl` with
/// [`RunCtl::arm_faults`](crate::RunCtl::arm_faults); the same plan armed on
/// a fresh handle reproduces the same faults at the same operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults, in no particular order (each fires at most
    /// once, keyed by its own stage counter).
    pub points: Vec<FaultPoint>,
}

/// SplitMix64 step (inlined: this crate depends only on `nova-trace`, so it
/// cannot borrow the generator from `fsm`).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with a single point.
    pub fn single(stage: &str, at: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            points: vec![FaultPoint {
                stage: stage.to_string(),
                at,
                kind,
            }],
        }
    }

    /// Derives a small pseudo-random plan from `seed` (SplitMix64): one or
    /// two points over the canonical pipeline stages, early operation
    /// indices (1..=96) so the faults actually fire on small machines.
    /// The same seed always derives the same plan.
    pub fn from_seed(seed: u64) -> FaultPlan {
        const KINDS: [FaultKind; 4] = [
            FaultKind::Cancel,
            FaultKind::Deadline,
            FaultKind::Budget,
            FaultKind::Panic,
        ];
        let mut s = seed;
        let n = 1 + (splitmix(&mut s) % 2) as usize;
        let points = (0..n)
            .map(|_| FaultPoint {
                stage: PIPELINE_STAGES[(splitmix(&mut s) % 4) as usize].to_string(),
                at: 1 + splitmix(&mut s) % 96,
                kind: KINDS[(splitmix(&mut s) % 4) as usize],
            })
            .collect();
        FaultPlan { points }
    }

    /// Parses a spec: either `seed:N` (see [`FaultPlan::from_seed`]) or a
    /// comma-separated list of `STAGE:NTH:KIND` points, where `STAGE` is a
    /// stage name or `*`, `NTH` is a 1-based call index, and `KIND` is one
    /// of `cancel`, `deadline`, `budget`, `panic`.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanError> {
        let spec = spec.trim();
        if let Some(seed) = spec.strip_prefix("seed:") {
            let seed: u64 = seed
                .parse()
                .map_err(|_| FaultPlanError(format!("bad seed {seed:?}")))?;
            return Ok(FaultPlan::from_seed(seed));
        }
        let mut points = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            let fields: Vec<&str> = part.split(':').collect();
            let [stage, at, kind] = fields[..] else {
                return Err(FaultPlanError(format!(
                    "point {part:?} is not STAGE:NTH:KIND"
                )));
            };
            if stage.is_empty() {
                return Err(FaultPlanError(format!("empty stage in {part:?}")));
            }
            let at: u64 = at
                .parse()
                .map_err(|_| FaultPlanError(format!("bad call index {at:?} in {part:?}")))?;
            if at == 0 {
                return Err(FaultPlanError(format!(
                    "call index is 1-based, got 0 in {part:?}"
                )));
            }
            let kind = FaultKind::from_tag(kind)
                .ok_or_else(|| FaultPlanError(format!("unknown fault kind {kind:?}")))?;
            points.push(FaultPoint {
                stage: stage.to_string(),
                at,
                kind,
            });
        }
        if points.is_empty() {
            return Err(FaultPlanError("empty plan".into()));
        }
        Ok(FaultPlan { points })
    }

    /// The canonical spec form, re-parseable by [`FaultPlan::parse`].
    pub fn to_spec(&self) -> String {
        self.points
            .iter()
            .map(|p| format!("{}:{}:{}", p.stage, p.at, p.kind.tag()))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_spec())
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = FaultPlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultPlan::parse(s)
    }
}

/// A [`FaultPlan`] armed on one run: the per-stage operation counters and
/// the fired marks. Shared behind the `RunCtl`'s `Arc`.
#[derive(Debug)]
pub(crate) struct FaultArm {
    points: Vec<FaultPoint>,
    state: Mutex<ArmState>,
}

#[derive(Debug, Default)]
struct ArmState {
    /// Index into `counts` of the active stage ([`ANY_STAGE`] before the
    /// first `set_stage`).
    current: usize,
    /// Per-stage operation counts; index 0 is the pre-stage bucket.
    counts: Vec<(String, u64)>,
    fired: Vec<bool>,
}

/// A fault ready to fire, with its position for diagnostics.
pub(crate) struct Firing {
    pub kind: FaultKind,
    pub stage: String,
    pub at: u64,
}

impl FaultArm {
    pub(crate) fn new(plan: &FaultPlan) -> FaultArm {
        FaultArm {
            points: plan.points.clone(),
            state: Mutex::new(ArmState {
                current: 0,
                counts: vec![(String::new(), 0)],
                fired: vec![false; plan.points.len()],
            }),
        }
    }

    /// Announces the active stage; subsequent operations count against it.
    pub(crate) fn set_stage(&self, name: &str) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = st.counts.iter().position(|(n, _)| n == name) {
            st.current = i;
        } else {
            st.counts.push((name.to_string(), 0));
            st.current = st.counts.len() - 1;
        }
    }

    /// Counts one operation against the active stage; returns the fault to
    /// fire, if any. The caller acts on it *after* this returns, so an
    /// injected panic never poisons the arm's own mutex.
    pub(crate) fn tick(&self) -> Option<Firing> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let current = st.current;
        st.counts[current].1 += 1;
        let count = st.counts[current].1;
        for (i, p) in self.points.iter().enumerate() {
            if !st.fired[i] && p.at == count && (p.stage == "*" || p.stage == st.counts[current].0)
            {
                st.fired[i] = true;
                return Some(Firing {
                    kind: p.kind,
                    stage: st.counts[current].0.clone(),
                    at: p.at,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let spec = "stage.embed:5:panic,*:12:budget,stage.espresso:1:deadline";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.points.len(), 3);
        assert_eq!(plan.to_spec(), spec);
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "stage.embed",
            "stage.embed:0:cancel",
            "stage.embed:x:cancel",
            "stage.embed:1:explode",
            ":1:cancel",
            "seed:notanumber",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_well_formed() {
        for seed in 0..64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b);
            assert!(!a.points.is_empty() && a.points.len() <= 2);
            for p in &a.points {
                assert!(PIPELINE_STAGES.contains(&p.stage.as_str()));
                assert!((1..=96).contains(&p.at));
            }
            // The derived plan round-trips through its spec.
            assert_eq!(FaultPlan::parse(&a.to_spec()).unwrap(), a);
        }
    }

    #[test]
    fn arm_fires_at_the_nth_op_in_stage() {
        let plan = FaultPlan::single("stage.embed", 3, FaultKind::Panic);
        let arm = FaultArm::new(&plan);
        // Ops before the stage is announced never match a named point.
        for _ in 0..10 {
            assert!(arm.tick().is_none());
        }
        arm.set_stage("stage.constraints");
        for _ in 0..10 {
            assert!(arm.tick().is_none());
        }
        arm.set_stage("stage.embed");
        assert!(arm.tick().is_none());
        assert!(arm.tick().is_none());
        let f = arm.tick().expect("third embed op fires");
        assert_eq!(f.kind, FaultKind::Panic);
        assert_eq!(f.stage, "stage.embed");
        assert_eq!(f.at, 3);
        // Each point fires exactly once.
        for _ in 0..10 {
            assert!(arm.tick().is_none());
        }
    }

    #[test]
    fn wildcard_matches_any_stage_including_prestage() {
        let plan = FaultPlan::single("*", 2, FaultKind::Cancel);
        let arm = FaultArm::new(&plan);
        assert!(arm.tick().is_none());
        assert!(arm.tick().is_some());
    }

    #[test]
    fn stage_counters_are_independent() {
        let plan = FaultPlan::single("stage.espresso", 2, FaultKind::Budget);
        let arm = FaultArm::new(&plan);
        arm.set_stage("stage.embed");
        for _ in 0..100 {
            assert!(arm.tick().is_none());
        }
        arm.set_stage("stage.espresso");
        assert!(arm.tick().is_none());
        assert!(arm.tick().is_some());
    }
}
