//! # nova-core — NOVA state assignment for optimal two-level logic
//!
//! A faithful reimplementation of the algorithms of Villa &
//! Sangiovanni-Vincentelli, *"NOVA: State Assignment of Finite State
//! Machines for Optimal Two-Level Logic Implementation"* (DAC'89 / IEEE
//! TCAD 9/1990):
//!
//! * **Input constraints** from multiple-valued minimization of the
//!   symbolic cover ([`constraint`]).
//! * The **constraint poset** / input graph with father-child relations and
//!   the paper's categories ([`poset`]), and the **k-cube faces** it embeds
//!   into ([`face`]).
//! * [`exact`] — `iexact_code`: exact face hypercube embedding
//!   (`mincube_dim` counting arguments, primary level vectors, `pos_equiv`
//!   backtracking) plus the bounded `semiexact_code` and the
//!   covering-aware `io_semiexact_code`.
//! * [`hybrid`] — `ihybrid_code` and `project_code` (Proposition 4.2.1),
//!   plus the KISS baseline built on full constraint satisfaction.
//! * [`greedy`] — `igreedy_code`, the fast bottom-up heuristic.
//! * [`symbolic_min`] — symbolic minimization revisited (Section VI-6.1),
//!   producing the paired `(IC, OC)` constraint sets.
//! * [`iohybrid`] — `iohybrid_code`, `iovariant_code` and `out_encoder` for
//!   ordered face hypercube embedding. ihybrid, kiss, iohybrid and
//!   iovariant share one constraint-acceptance loop in [`hybrid`].
//! * [`mustang`] — the MUSTANG baseline (fanout / fanin weight models).
//! * [`driver`] — the end-to-end pipeline: encode, ESPRESSO-minimize, and
//!   report #bits / #cubes / PLA area / factored literals, plus the random
//!   baseline.
//!
//! ## Quick example
//!
//! ```
//! use nova_core::driver::{run, Algorithm};
//!
//! let machine = fsm::benchmarks::by_name("shiftreg").expect("embedded").fsm;
//! let result = run(&machine, Algorithm::IHybrid, None).expect("ihybrid");
//! assert_eq!(result.bits, 3);
//! assert!(result.area > 0);
//! ```

#![forbid(unsafe_code)]

mod assign;
pub mod constraint;
pub mod driver;
pub mod exact;
pub mod face;
pub mod greedy;
pub mod hybrid;
pub mod iohybrid;
pub mod mustang;
pub mod poset;
pub mod scratch;
pub mod symbolic_min;

pub use constraint::{
    extract_input_constraints, extract_input_constraints_ctl, InputConstraints, StateSet,
    WeightedConstraint,
};
pub use driver::{
    evaluate, random_baseline, run, run_traced, Algorithm, Degradation, EvalResult, Outcome,
    StageTimes, UnknownAlgorithm,
};
pub use espresso::{
    BestSoFar, CancelReason, Cancelled, FaultKind, FaultPlan, FaultPoint, RunCounters, RunCtl,
};
pub use exact::{iexact_code, iexact_code_ctl, mincube_dim, semiexact_code, ExactOptions};
pub use face::Face;
pub use greedy::{igreedy_code, igreedy_code_ctl};
pub use hybrid::{
    ihybrid_code, ihybrid_code_ctl, kiss_code, kiss_code_ctl, project_code, HybridOptions,
    HybridOutcome,
};
pub use iohybrid::{
    iohybrid_code, iohybrid_code_ctl, iovariant_code, iovariant_code_ctl, out_encoder,
};
pub use mustang::{mustang_code, MustangMode};
pub use poset::InputGraph;
pub use symbolic_min::{symbolic_minimize, symbolic_minimize_ctl, SymbolicMin};
