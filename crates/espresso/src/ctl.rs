//! Cooperative run control: cancellation, deadlines, node-count budgets and
//! telemetry counters, shared by the whole encode/minimize pipeline.
//!
//! A [`RunCtl`] is a cheap clonable handle (an `Arc` over atomics) that the
//! portfolio engine threads through every ctl-aware entry point:
//!
//! * the `iexact`/`semiexact` backtracking loops charge one unit per
//!   candidate face verification,
//! * `project_code` charges per projection step,
//! * the ESPRESSO EXPAND/IRREDUNDANT/REDUCE loop charges per iteration,
//! * the complement behind ESPRESSO's off-set polls
//!   [`RunCtl::cancelled`], which charges nothing.
//!
//! When the handle is cancelled (by an expired wall-clock deadline, an
//! exhausted node budget, or an injected fault) those loops unwind promptly
//! and the run reports a clean [`Cancelled`] instead of hanging. The same
//! handle accumulates the run counters surfaced in the engine's telemetry.

use crate::fault::{FaultArm, FaultKind, FaultPlan};
use nova_trace::Tracer;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// How often (in charged work units) the wall-clock deadline is re-checked.
/// A clock read is cheap but not free; the work between two checks is
/// bounded by a handful of face verifications or cube operations.
const DEADLINE_CHECK_PERIOD: u64 = 64;

/// Error returned by ctl-aware entry points when the run was cancelled by a
/// deadline, an exhausted budget, or a stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("run cancelled (deadline, budget or stop)")
    }
}

impl std::error::Error for Cancelled {}

/// Why a run was cancelled, when it was (latched by the first cause).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// Stop: an injected cancel fault.
    Stop = 1,
    /// The wall-clock deadline expired (real or injected).
    Deadline = 2,
    /// The node budget ran out (real or injected).
    Budget = 3,
}

impl CancelReason {
    /// Stable lower-case tag used in reports and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            CancelReason::Stop => "stop",
            CancelReason::Deadline => "deadline",
            CancelReason::Budget => "budget",
        }
    }

    fn from_u8(v: u8) -> Option<CancelReason> {
        Some(match v {
            1 => CancelReason::Stop,
            2 => CancelReason::Deadline,
            3 => CancelReason::Budget,
            _ => return None,
        })
    }
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// An anytime snapshot: the best complete, valid code assignment a search
/// produced before the run ended. Codes are raw (`bits`-wide, distinct by
/// the offering search's construction); the driver re-validates them when
/// promoting a snapshot into a degraded result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestSoFar {
    /// Code length of the snapshot.
    pub bits: u32,
    /// One code per state.
    pub codes: Vec<u64>,
    /// Which search offered it (e.g. `"ihybrid.project"`, `"iexact.weak"`).
    pub source: &'static str,
    /// Offer priority: higher replaces lower. Searches score snapshots by
    /// satisfied-constraint weight; the driver offers a completed
    /// algorithm's encoding at `u64::MAX` so it always wins.
    pub score: u64,
}

#[derive(Debug)]
struct CtlInner {
    /// Remaining work units; `u64::MAX` means unlimited.
    fuel: AtomicU64,
    /// Wall-clock deadline, checked every [`DEADLINE_CHECK_PERIOD`] charges.
    deadline: Option<Instant>,
    /// Structured tracer for this run (disabled by default: one relaxed
    /// atomic load per span/metric call, no allocation).
    tracer: Tracer,
    /// The stop latch: why the run was cancelled (0 = live). Set once by
    /// the first cause, never overwritten or cleared.
    reason: AtomicU8,
    /// Armed fault plan. `None` (the default) keeps every instrumentation
    /// point at one atomic load; chaos tests arm a plan after construction.
    fault: OnceLock<Arc<FaultArm>>,
    /// Best-so-far anytime snapshot offered by the searches.
    best: Mutex<Option<BestSoFar>>,
    // --- telemetry counters (all relaxed; they are statistics, not locks) --
    work: AtomicU64,
    faces_tried: AtomicU64,
    backtracks: AtomicU64,
    espresso_iterations: AtomicU64,
    cubes_in: AtomicU64,
    cubes_out: AtomicU64,
}

/// Shared cancellation / budget / telemetry handle for one algorithm run.
#[derive(Debug, Clone)]
pub struct RunCtl {
    inner: Arc<CtlInner>,
}

/// A point-in-time snapshot of a run's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Total work units charged (the node count of the budget).
    pub work: u64,
    /// Candidate faces tried by the embedding backtracking loops.
    pub faces_tried: u64,
    /// Backtracks taken by the embedding search.
    pub backtracks: u64,
    /// REDUCE/EXPAND/IRREDUNDANT improvement iterations run by ESPRESSO.
    pub espresso_iterations: u64,
    /// Cubes entering ESPRESSO minimization.
    pub cubes_in: u64,
    /// Cubes leaving ESPRESSO minimization.
    pub cubes_out: u64,
}

impl RunCtl {
    /// A handle with an optional node-count budget (deterministic across
    /// machines and thread counts) and wall-clock deadline. Every ctl-aware
    /// entry point records spans and metrics through `tracer`;
    /// `Tracer::disabled()` opts out at near-zero cost.
    pub fn new(fuel: Option<u64>, deadline: Option<Instant>, tracer: Tracer) -> Self {
        RunCtl {
            inner: Arc::new(CtlInner {
                fuel: AtomicU64::new(fuel.unwrap_or(u64::MAX)),
                deadline,
                tracer,
                reason: AtomicU8::new(0),
                fault: OnceLock::new(),
                best: Mutex::new(None),
                work: AtomicU64::new(0),
                faces_tried: AtomicU64::new(0),
                backtracks: AtomicU64::new(0),
                espresso_iterations: AtomicU64::new(0),
                cubes_in: AtomicU64::new(0),
                cubes_out: AtomicU64::new(0),
            }),
        }
    }

    /// A handle that never cancels: counters only.
    pub fn unlimited() -> Self {
        RunCtl::new(None, None, Tracer::disabled())
    }

    /// The tracer carried by this run (disabled unless the run was built
    /// with an enabled one).
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Latches the stop, recording `reason` if none is set yet; every
    /// subsequent [`RunCtl::charge`] fails.
    fn cancel_with(&self, reason: CancelReason) {
        let _ = self.inner.reason.compare_exchange(
            0,
            reason as u8,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Why the run was cancelled (`None` while it is still live).
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        CancelReason::from_u8(self.inner.reason.load(Ordering::Relaxed))
    }

    /// Has the run been cancelled (latched stop, expired deadline, or
    /// exhausted budget)?
    pub fn cancelled(&self) -> bool {
        if self.inner.reason.load(Ordering::Relaxed) != 0 {
            return true;
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                self.cancel_with(CancelReason::Deadline);
                return true;
            }
        }
        false
    }

    /// One operation observed by the armed fault plan, if any. Kept to a
    /// single branch on the fast path; the firing itself is outlined.
    #[inline]
    fn fault_tick(&self) {
        if let Some(arm) = self.inner.fault.get() {
            self.fault_fire(arm);
        }
    }

    /// Fires a scheduled fault: the action happens *after* the arm's lock
    /// is released (see [`FaultArm::tick`]), so even an injected panic
    /// leaves every ctl lock healthy.
    #[cold]
    fn fault_fire(&self, arm: &FaultArm) {
        let Some(firing) = arm.tick() else { return };
        match firing.kind {
            FaultKind::Cancel => self.cancel_with(CancelReason::Stop),
            FaultKind::Deadline => self.cancel_with(CancelReason::Deadline),
            FaultKind::Budget => {
                if self.inner.fuel.load(Ordering::Relaxed) != u64::MAX {
                    self.inner.fuel.store(0, Ordering::Relaxed);
                }
                self.cancel_with(CancelReason::Budget);
            }
            FaultKind::Panic => panic!(
                "nova-chaos: injected panic at {}:{}",
                if firing.stage.is_empty() {
                    "<pre-stage>"
                } else {
                    &firing.stage
                },
                firing.at
            ),
        }
    }

    /// Charges `units` of work against the budget. Returns `Err(Cancelled)`
    /// when the run should unwind. Hot loops call this once per "node"
    /// (face verification, projection step, espresso iteration).
    pub fn charge(&self, units: u64) -> Result<(), Cancelled> {
        self.fault_tick();
        if self.inner.reason.load(Ordering::Relaxed) != 0 {
            return Err(Cancelled);
        }
        let before = self.inner.work.fetch_add(units, Ordering::Relaxed);
        // Deadline: check on the first charge and then periodically.
        if let Some(d) = self.inner.deadline {
            let crossed_period =
                before / DEADLINE_CHECK_PERIOD != (before + units) / DEADLINE_CHECK_PERIOD;
            if (before == 0 || crossed_period) && Instant::now() >= d {
                self.cancel_with(CancelReason::Deadline);
                return Err(Cancelled);
            }
        }
        // Budget: saturating decrement; exhaustion latches the stop.
        let mut fuel = self.inner.fuel.load(Ordering::Relaxed);
        if fuel == u64::MAX {
            return Ok(());
        }
        loop {
            let next = fuel.saturating_sub(units);
            match self.inner.fuel.compare_exchange_weak(
                fuel,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if next == 0 {
                        self.cancel_with(CancelReason::Budget);
                        return Err(Cancelled);
                    }
                    return Ok(());
                }
                Err(actual) => fuel = actual,
            }
        }
    }

    /// Arms `plan` on this handle: every subsequent charge/counter call is
    /// one observed operation, and the plan's points fire at their scheduled
    /// operations. A handle can be armed at most once; later calls are
    /// ignored (the plan is shared by every clone).
    pub fn arm_faults(&self, plan: &FaultPlan) {
        let _ = self.inner.fault.set(Arc::new(FaultArm::new(plan)));
    }

    /// Announces the active pipeline stage (the driver calls this at each
    /// stage boundary). A no-op unless a fault plan is armed.
    pub fn set_stage(&self, name: &str) {
        if let Some(arm) = self.inner.fault.get() {
            arm.set_stage(name);
        }
    }

    /// Offers an anytime snapshot: a complete, valid code assignment the
    /// run could fall back to if cancelled. Replaces the held snapshot when
    /// `score` is at least as good (later equal-score offers win — they are
    /// usually refinements).
    pub fn offer_best(&self, bits: u32, codes: &[u64], source: &'static str, score: u64) {
        let mut slot = self
            .inner
            .best
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if slot.as_ref().is_none_or(|b| score >= b.score) {
            *slot = Some(BestSoFar {
                bits,
                codes: codes.to_vec(),
                source,
                score,
            });
        }
    }

    /// Takes the best anytime snapshot offered so far, leaving the slot
    /// empty. The driver calls this once, on cancellation.
    pub fn take_best(&self) -> Option<BestSoFar> {
        self.inner
            .best
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// `n` candidate faces tried (batched flush of a local counter).
    pub fn count_faces(&self, n: u64) {
        self.fault_tick();
        self.inner.faces_tried.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` backtracks taken (batched flush of a local counter).
    pub fn count_backtracks(&self, n: u64) {
        self.fault_tick();
        self.inner.backtracks.fetch_add(n, Ordering::Relaxed);
    }

    /// One ESPRESSO improvement iteration.
    pub fn count_espresso_iteration(&self) {
        self.fault_tick();
        self.inner
            .espresso_iterations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Cubes entering / leaving one ESPRESSO minimization call.
    pub fn count_cubes(&self, cubes_in: u64, cubes_out: u64) {
        self.fault_tick();
        self.inner.cubes_in.fetch_add(cubes_in, Ordering::Relaxed);
        self.inner.cubes_out.fetch_add(cubes_out, Ordering::Relaxed);
    }

    /// Snapshot of the accumulated counters.
    pub fn counters(&self) -> RunCounters {
        RunCounters {
            work: self.inner.work.load(Ordering::Relaxed),
            faces_tried: self.inner.faces_tried.load(Ordering::Relaxed),
            backtracks: self.inner.backtracks.load(Ordering::Relaxed),
            espresso_iterations: self.inner.espresso_iterations.load(Ordering::Relaxed),
            cubes_in: self.inner.cubes_in.load(Ordering::Relaxed),
            cubes_out: self.inner.cubes_out.load(Ordering::Relaxed),
        }
    }
}

impl Default for RunCtl {
    fn default() -> Self {
        RunCtl::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A live handle whose first observed operation latches `Stop`.
    fn cancel_on_first_op(ctl: &RunCtl) {
        ctl.arm_faults(&FaultPlan::single("*", 1, FaultKind::Cancel));
    }

    #[test]
    fn unlimited_never_cancels() {
        let ctl = RunCtl::unlimited();
        for _ in 0..10_000 {
            assert!(ctl.charge(1).is_ok());
        }
        assert!(!ctl.cancelled());
    }

    #[test]
    fn stop_latches() {
        let ctl = RunCtl::unlimited();
        cancel_on_first_op(&ctl);
        assert_eq!(ctl.charge(1), Err(Cancelled));
        assert!(ctl.cancelled());
        assert_eq!(ctl.charge(1), Err(Cancelled), "the latch holds");
        assert_eq!(ctl.cancel_reason(), Some(CancelReason::Stop));
    }

    #[test]
    fn budget_exhaustion_cancels_deterministically() {
        let ctl = RunCtl::new(Some(10), None, Tracer::disabled());
        let mut charged = 0;
        while ctl.charge(1).is_ok() {
            charged += 1;
        }
        assert_eq!(charged, 9, "10 units of fuel allow 9 successful charges");
        assert!(ctl.cancelled());
    }

    #[test]
    fn zero_deadline_cancels_on_first_charge() {
        let ctl = RunCtl::new(None, Some(Instant::now()), Tracer::disabled());
        assert_eq!(ctl.charge(1), Err(Cancelled));
    }

    #[test]
    fn future_deadline_allows_work_then_expires() {
        let deadline = Instant::now() + Duration::from_millis(20);
        let ctl = RunCtl::new(None, Some(deadline), Tracer::disabled());
        assert!(ctl.charge(1).is_ok());
        std::thread::sleep(Duration::from_millis(30));
        // May take up to one check period to notice; drive it past that.
        let mut cancelled = false;
        for _ in 0..2 * DEADLINE_CHECK_PERIOD {
            if ctl.charge(1).is_err() {
                cancelled = true;
                break;
            }
        }
        assert!(cancelled);
    }

    #[test]
    fn counters_accumulate() {
        let ctl = RunCtl::unlimited();
        ctl.charge(5).unwrap();
        ctl.count_faces(2);
        ctl.count_backtracks(1);
        ctl.count_espresso_iteration();
        ctl.count_cubes(10, 3);
        let c = ctl.counters();
        assert_eq!(c.work, 5);
        assert_eq!(c.faces_tried, 2);
        assert_eq!(c.backtracks, 1);
        assert_eq!(c.espresso_iterations, 1);
        assert_eq!(c.cubes_in, 10);
        assert_eq!(c.cubes_out, 3);
    }

    #[test]
    fn clones_share_state() {
        let a = RunCtl::unlimited();
        let b = a.clone();
        cancel_on_first_op(&a);
        assert_eq!(b.charge(1), Err(Cancelled));
        assert!(a.cancelled());
        assert_eq!(a.cancel_reason(), Some(CancelReason::Stop));
    }

    #[test]
    fn default_tracer_is_disabled() {
        let ctl = RunCtl::unlimited();
        assert!(!ctl.tracer().is_enabled());
    }

    #[test]
    fn cancel_reasons_are_latched_by_first_cause() {
        let stop = RunCtl::unlimited();
        assert_eq!(stop.cancel_reason(), None);
        cancel_on_first_op(&stop);
        let _ = stop.charge(1);
        assert_eq!(stop.cancel_reason(), Some(CancelReason::Stop));

        let budget = RunCtl::new(Some(1), None, Tracer::disabled());
        let _ = budget.charge(1);
        assert_eq!(budget.cancel_reason(), Some(CancelReason::Budget));
        cancel_on_first_op(&budget);
        let _ = budget.charge(1); // Later causes do not overwrite the first.
        assert_eq!(budget.cancel_reason(), Some(CancelReason::Budget));

        let deadline = RunCtl::new(None, Some(Instant::now()), Tracer::disabled());
        let _ = deadline.charge(1);
        assert_eq!(deadline.cancel_reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn injected_cancel_fires_at_the_scheduled_charge() {
        let ctl = RunCtl::unlimited();
        ctl.arm_faults(&FaultPlan::single("*", 3, FaultKind::Cancel));
        assert!(ctl.charge(1).is_ok());
        assert!(ctl.charge(1).is_ok());
        assert_eq!(ctl.charge(1), Err(Cancelled));
        assert_eq!(ctl.cancel_reason(), Some(CancelReason::Stop));
    }

    #[test]
    fn injected_budget_fault_zeroes_fuel() {
        let ctl = RunCtl::new(Some(1_000_000), None, Tracer::disabled());
        ctl.arm_faults(&FaultPlan::single("*", 2, FaultKind::Budget));
        assert!(ctl.charge(1).is_ok());
        assert_eq!(ctl.charge(1), Err(Cancelled));
        assert_eq!(ctl.cancel_reason(), Some(CancelReason::Budget));
    }

    #[test]
    fn injected_deadline_fault_reports_deadline_reason() {
        let ctl = RunCtl::unlimited();
        ctl.arm_faults(&FaultPlan::single("*", 1, FaultKind::Deadline));
        assert_eq!(ctl.charge(1), Err(Cancelled));
        assert_eq!(ctl.cancel_reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn injected_panic_fires_once_and_is_stage_keyed() {
        let ctl = RunCtl::unlimited();
        ctl.arm_faults(&FaultPlan::single("stage.espresso", 2, FaultKind::Panic));
        // A different stage never fires the point.
        ctl.set_stage("stage.embed");
        for _ in 0..10 {
            ctl.charge(1).unwrap();
        }
        ctl.set_stage("stage.espresso");
        ctl.charge(1).unwrap();
        let clone = ctl.clone();
        let err = std::panic::catch_unwind(move || clone.charge(1)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("nova-chaos"), "{msg}");
        assert!(msg.contains("stage.espresso:2"), "{msg}");
        // The arm's own state survived the panic: no poisoned lock, the
        // point is spent, counting continues.
        assert!(ctl.charge(1).is_ok());
    }

    #[test]
    fn count_calls_are_observed_operations_too() {
        let ctl = RunCtl::unlimited();
        ctl.arm_faults(&FaultPlan::single("*", 3, FaultKind::Cancel));
        ctl.count_faces(1);
        ctl.count_espresso_iteration();
        ctl.count_backtracks(1); // third op fires
        assert!(ctl.cancelled());
    }

    #[test]
    fn offer_best_keeps_the_highest_score() {
        let ctl = RunCtl::unlimited();
        assert!(ctl.take_best().is_none());
        ctl.offer_best(3, &[0, 1, 2], "a", 5);
        ctl.offer_best(4, &[0, 1, 2, 3], "b", 2); // worse: ignored
        ctl.offer_best(3, &[4, 5, 6], "c", 5); // equal: replaces
        let best = ctl.take_best().expect("snapshot held");
        assert_eq!(best.source, "c");
        assert_eq!(best.codes, vec![4, 5, 6]);
        assert!(ctl.take_best().is_none(), "take empties the slot");
    }

    #[test]
    fn traced_ctl_carries_tracer_through_clones() {
        let ctl = RunCtl::new(None, None, Tracer::enabled());
        let clone = ctl.clone();
        {
            let _s = clone.tracer().span("from-clone");
        }
        assert_eq!(ctl.tracer().collected_events().len(), 2);
    }
}
