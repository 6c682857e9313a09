//! # espresso — a two-level, multiple-valued logic minimizer
//!
//! A from-scratch Rust implementation of the ESPRESSO-MV algorithm family,
//! built as the logic-minimization substrate of the NOVA state-assignment
//! reproduction. It provides:
//!
//! * **Positional cube notation** over mixed binary / multiple-valued
//!   variables ([`CubeSpace`], [`Cube`], [`Cover`]).
//! * The **unate recursive paradigm**: exact [`tautology()`] checking, exact
//!   cube/cover containment, and [`complement()`]ation.
//! * The **ESPRESSO loop**: [`expand`](expand::expand) to primes,
//!   [`irredundant`](irredundant::irredundant) cover extraction,
//!   [`reduce`](reduce::reduce), iterated by [`minimize()`].
//! * **PLA text I/O** ([`pla::parse_pla`], [`pla::write_pla`]).
//! * **Algebraic factoring** ([`factor`]) — kernels, weak division and
//!   QUICK_FACTOR literal counts, standing in for MIS-II in multilevel
//!   comparisons.
//!
//! ## Quick example
//!
//! ```
//! use espresso::{minimize, Cover, CubeSpace};
//!
//! // f(x, y) = x·y + x·y' + x'·y  minimizes to  x + y.
//! let space = CubeSpace::binary_with_output(2, 1);
//! let mut f = Cover::empty(space.clone());
//! f.push_parsed("10 10 1").unwrap();
//! f.push_parsed("10 01 1").unwrap();
//! f.push_parsed("01 10 1").unwrap();
//! let m = minimize(&f, &Cover::empty(space));
//! assert_eq!(m.len(), 2);
//! ```
//!
//! The minimizer is heuristic (like ESPRESSO): it guarantees
//! `F ⊆ M ⊆ F ∪ D` and irredundancy/primality of the result, not global
//! minimality.

#![forbid(unsafe_code)]

pub mod complement;
pub mod containment;
pub mod cover;
pub mod ctl;
pub mod cube;
pub mod exact;
pub mod expand;
pub mod factor;
pub mod fault;
pub mod irredundant;
pub mod legacy;
pub mod matrix;
pub mod minimize;
pub mod pla;
pub mod reduce;
pub mod scratch;
pub mod space;
pub mod tautology;

pub use complement::{complement, sharp};
pub use cover::{Cover, CoverCost};
pub use ctl::{BestSoFar, CancelReason, Cancelled, RunCounters, RunCtl};
pub use cube::{supercube, Cube};
pub use exact::{all_primes, minimize_exact, ExactLimits};
pub use fault::{FaultKind, FaultPlan, FaultPlanError, FaultPoint, PIPELINE_STAGES};
pub use matrix::{CubeMatrix, Sig, SIG_EXACT_VARS};
pub use minimize::{minimize, minimize_with, minimize_with_ctl, MinimizeOptions, MinimizeStats};
pub use scratch::{Scratch, ScratchStats};
pub use space::{CubeSpace, VarKind};
pub use tautology::{
    cover_in_cover, covers_equivalent, cube_in_cover, tautology, verify_minimized,
};
