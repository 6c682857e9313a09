//! `iexact_code` (Section III): exact face hypercube embedding by answering
//! SUBPOSET EQUIVALENCE for increasing cube dimensions, plus the bounded
//! variant `semiexact_code` (Section IV-4.1) at the core of `ihybrid_code`.
//!
//! The backtracking core is allocation-free after warm-up: all per-call
//! buffers come from the per-thread [`crate::scratch`] pool, candidate faces
//! stream from the iterators in [`crate::face`], pairwise `verify` facts
//! come from the precomputed [`Relations`] table of the input graph, and
//! deadline/telemetry traffic is batched by one `Meter`, which the weak
//! fallback search (`assign.rs`) charges too.
//!
//! **Symmetry breaking.** At the first [`SYMMETRY_DEPTH`] selection levels
//! the search tries one candidate face per orbit of a group of k-cube
//! automorphisms that fixes every face assigned so far: bits whose x/0/1
//! columns agree across the assigned faces may be permuted among
//! themselves, and bits free in all of them may also be flipped unless
//! output covers are active (`code(u) ⊋ code(v)` survives a bit permutation
//! but not a flip). Every check of the search is invariant under that group,
//! so a candidate in the orbit of one already tried without success roots a
//! mirrored subtree that holds no embedding either; it is skipped uncharged
//! and counted as `embed.prune.symmetry`. The first embedding an uncapped
//! search returns is therefore unchanged; only "no embedding" is proven
//! sooner, so a capped search can now finish where it used to run out.

use crate::assign::weak_search;
use crate::constraint::StateSet;
use crate::face::{faces_of_level, subfaces_of_level, Face};
use crate::poset::{Category, InputGraph, Relations};
use crate::scratch::{self, with_embed_scratch};
use espresso::{Cancelled, RunCtl};
use fsm::StateId;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Options controlling the exact search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactOptions {
    /// Budget on candidate face verifications across the whole run
    /// (`None` = unlimited). The paper's `max_work` "magic number".
    pub max_work: Option<u64>,
    /// Restrict category-1 constraints to minimum-dimension faces (skips
    /// the free-level enumeration entirely). Paper §IV-4.1 gives this
    /// restriction to `semiexact_code`; [`semiexact_code`] here does not
    /// apply it, so this option is the only way to select it.
    pub min_dimension_faces_only: bool,
    /// Upper bound on the cube dimension tried (defaults to 16; the paper's
    /// trivial bound `#S` is impractical for face enumeration).
    pub max_k: u32,
    /// After the strict subposet search exhausts a dimension, fall back to
    /// the direct weak code assignment (`assign.rs`) before raising
    /// `k`. The paper's acceptance criterion is the weak one (a constraint's
    /// spanned face contains no non-member), so instances with no *strict*
    /// subposet embedding — e.g. bbara — are still solved exactly.
    pub complete: bool,
    /// Ignored: the search is sequential, so `max_work` bounds it as a
    /// whole.
    #[deprecated(note = "ignored: the embedding search is always sequential")]
    pub embed_jobs: usize,
}

impl Default for ExactOptions {
    #[allow(deprecated)]
    fn default() -> Self {
        ExactOptions {
            max_work: Some(2_000_000),
            min_dimension_faces_only: false,
            max_k: 16,
            complete: true,
            embed_jobs: 0,
        }
    }
}

/// A successful embedding: codes for every state plus the face of every
/// constraint node of the input graph.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Code length.
    pub bits: u32,
    /// Code per state (indexed by state id).
    pub codes: Vec<u64>,
    /// Face assigned to every constraint of the input poset.
    pub faces: BTreeMap<StateSet, Face>,
}

/// Outcome of one embedding search: [`pos_equiv`]'s strict subposet search
/// or `iexact_code`'s weak fallback.
#[derive(Debug, Clone)]
pub enum EmbedOutcome {
    /// A satisfying assignment exists (and is returned).
    Found(Embedding),
    /// The search space was exhausted: no assignment at this dimension.
    Exhausted,
    /// The search's local work cap ran out first.
    Capped,
    /// The shared [`RunCtl`] deadline, fuel or stop fired first.
    Cancelled,
}

/// `mincube_dim` (Section 3.3.2): a lower bound on the embedding dimension
/// from the three counting arguments.
pub fn mincube_dim(ig: &InputGraph) -> u32 {
    let n = ig.num_states();
    let mut k = min_code_length(n);
    k = count_cond1(ig, k);
    k = count_cond2(ig, k);
    k = count_cond3(ig, k);
    k
}

/// Minimum code length for `n` distinct codes.
pub fn min_code_length(n: usize) -> u32 {
    if n <= 1 {
        1
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

/// Number of faces of the k-cube with level ≥ `level`.
fn faces_at_least(k: u32, level: u32) -> u64 {
    (level..=k)
        .map(|l| binomial(k as u64, l as u64).saturating_mul(1u64 << (k - l).min(63)))
        .fold(0u64, u64::saturating_add)
}

/// First counting argument: enough faces of every cardinality class.
fn count_cond1(ig: &InputGraph, mut k: u32) -> u32 {
    loop {
        let ok = (0..=k).all(|level| {
            let needing = (0..ig.len()).filter(|&i| ig.min_level(i) >= level).count() as u64;
            needing <= faces_at_least(k, level)
        });
        if ok {
            return k;
        }
        k += 1;
    }
}

/// Second counting argument: a face of level ℓ has `k − ℓ` minimal including
/// faces, which must accommodate all of the constraint's fathers.
fn count_cond2(ig: &InputGraph, mut k: u32) -> u32 {
    for i in 0..ig.len() {
        if i == ig.universe() {
            continue;
        }
        let need = ig.fathers(i).len() as u32 + ig.min_level(i);
        k = k.max(need);
    }
    k
}

/// Third counting argument (Section 3.3.2.2): virtual states introduced by
/// uneven constraints must fit in the spare vertices, assuming the densest
/// packing (at most `min_cube` identifications per virtual state).
fn count_cond3(ig: &InputGraph, mut k: u32) -> u32 {
    let n = ig.num_states() as u64;
    let uneven: Vec<u64> = (0..ig.len())
        .filter(|&i| i != ig.universe())
        .map(|i| {
            let c = ig.set(i).len() as u64;
            (1u64 << ig.min_level(i)) - c
        })
        .filter(|&v| v > 0)
        .collect();
    if uneven.is_empty() {
        return k;
    }
    loop {
        let mut vrt = uneven.clone();
        vrt.sort_unstable();
        let mut iter_count: u64 = 0;
        while vrt.iter().any(|&v| v > 0) {
            let mut decreased = 0;
            for v in vrt.iter_mut() {
                if *v > 0 && decreased < k {
                    *v -= 1;
                    decreased += 1;
                }
            }
            iter_count += 1;
        }
        let spare = (1u64 << k.min(63)).saturating_sub(n);
        if spare >= iter_count {
            return k;
        }
        k += 1;
    }
}

/// Candidates between `ctl` flushes: the deadline/fuel atomics and the
/// shared counters are touched once per batch instead of once per candidate.
const CHARGE_BATCH: u64 = 1024;

/// The work meter of both embedding searches: one unit per candidate,
/// checked exactly against the search's local cap and flushed to the shared
/// [`RunCtl`] once per [`CHARGE_BATCH`] candidates, so a portfolio deadline
/// or node budget unwinds the search.
pub(crate) struct Meter<'a> {
    pub(crate) ctl: &'a RunCtl,
    cap: Option<u64>,
    work: u64,
    /// Candidates and backtracks not yet flushed to `ctl`.
    pending: u64,
    pending_backtracks: u64,
    /// The cap or `ctl` stopped the search.
    stopped: bool,
}

impl<'a> Meter<'a> {
    pub(crate) fn new(ctl: &'a RunCtl, cap: Option<u64>) -> Self {
        Meter {
            ctl,
            cap,
            work: 0,
            pending: 0,
            pending_backtracks: 0,
            stopped: false,
        }
    }

    /// Accounts one candidate; `false` stops the search. Deadline and fuel
    /// are only checked at batch boundaries, keeping the per-candidate cost
    /// to two local counter increments and two branches.
    #[inline]
    pub(crate) fn charge(&mut self) -> bool {
        self.work += 1;
        self.pending += 1;
        if let Some(cap) = self.cap {
            if self.work > cap {
                self.flush();
                self.stopped = true;
                return false;
            }
        }
        if self.pending >= CHARGE_BATCH && !self.flush() {
            self.stopped = true;
            return false;
        }
        true
    }

    /// Did the cap or `ctl` stop the search?
    pub(crate) fn stopped(&self) -> bool {
        self.stopped
    }

    /// One backtrack, flushed with the next batch.
    pub(crate) fn backtrack(&mut self) {
        self.pending_backtracks += 1;
    }

    /// Pushes the pending candidates, then the backtracks, to `ctl` and
    /// charges it the candidates. Returns `false` when `ctl` cancelled.
    fn flush(&mut self) -> bool {
        let n = std::mem::take(&mut self.pending);
        let bt = std::mem::take(&mut self.pending_backtracks);
        if n > 0 {
            self.ctl.count_faces(n);
        }
        if bt > 0 {
            self.ctl.count_backtracks(bt);
        }
        n == 0 || self.ctl.charge(n).is_ok()
    }

    /// Ends a search that returned `found`: flushes what is pending and
    /// adds the work spent, clamped to the cap, to `embed.nodes_visited`
    /// and to its outcome's `embed.OUTCOME.nodes`, next to one
    /// `embed.OUTCOME.calls`. Returns the outcome (with nothing found:
    /// `Capped` or `Cancelled` when the search was stopped, else
    /// `Exhausted`) and that work.
    pub(crate) fn finish(&mut self, found: Option<Embedding>) -> (EmbedOutcome, u64) {
        self.flush();
        let spent = self.work.min(self.cap.unwrap_or(u64::MAX));
        let outcome = match found {
            Some(e) => EmbedOutcome::Found(e),
            None if !self.stopped => EmbedOutcome::Exhausted,
            None if self.ctl.cancelled() => EmbedOutcome::Cancelled,
            None => EmbedOutcome::Capped,
        };
        let (calls, nodes) = match outcome {
            EmbedOutcome::Found(_) => ("embed.found.calls", "embed.found.nodes"),
            EmbedOutcome::Exhausted => ("embed.exhausted.calls", "embed.exhausted.nodes"),
            EmbedOutcome::Capped => ("embed.capped.calls", "embed.capped.nodes"),
            EmbedOutcome::Cancelled => ("embed.cancelled.calls", "embed.cancelled.nodes"),
        };
        let tracer = self.ctl.tracer();
        tracer.incr("embed.nodes_visited", spent);
        tracer.incr(calls, 1);
        tracer.incr(nodes, spent);
        (outcome, spent)
    }
}

/// Selection levels (depths of [`Search::extend`]) that try one candidate
/// per orbit ([`orbit_key`]). Deeper levels try every candidate: pruning at
/// three levels let some capped searches finish within their cap, with an
/// embedding the full search never reached.
const SYMMETRY_DEPTH: u64 = 2;

/// Why candidates were rejected, flushed once per search as
/// `embed.prune.*` counters.
#[derive(Debug, Default, Clone, Copy)]
struct PruneStats {
    duplicate: u64,
    cardinality: u64,
    singleton_level: u64,
    cover: u64,
    containment: u64,
    spurious_intersection: u64,
    small_intersection: u64,
    missing_intersection: u64,
    father: u64,
    symmetry: u64,
}

impl PruneStats {
    fn flush(&self, ctl: &RunCtl) {
        let t = ctl.tracer();
        for (name, v) in [
            ("embed.prune.duplicate", self.duplicate),
            ("embed.prune.cardinality", self.cardinality),
            ("embed.prune.singleton_level", self.singleton_level),
            ("embed.prune.cover", self.cover),
            ("embed.prune.containment", self.containment),
            (
                "embed.prune.spurious_intersection",
                self.spurious_intersection,
            ),
            ("embed.prune.small_intersection", self.small_intersection),
            (
                "embed.prune.missing_intersection",
                self.missing_intersection,
            ),
            ("embed.prune.father", self.father),
            ("embed.prune.symmetry", self.symmetry),
        ] {
            if v > 0 {
                t.incr(name, v);
            }
        }
    }
}

/// A contiguous range of candidate levels with an iteration direction,
/// replacing the old per-node `Vec<u32>` of levels.
#[derive(Debug, Clone, Copy)]
struct LevelRange {
    lo: u32,
    hi: u32,
    descending: bool,
}

impl LevelRange {
    const EMPTY: LevelRange = LevelRange {
        lo: 1,
        hi: 0,
        descending: false,
    };

    fn at(l: u32) -> LevelRange {
        LevelRange {
            lo: l,
            hi: l,
            descending: false,
        }
    }

    fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// First level in iteration order.
    fn first(&self) -> u32 {
        if self.descending {
            self.hi
        } else {
            self.lo
        }
    }

    fn contains(&self, l: u32) -> bool {
        self.lo <= l && l <= self.hi
    }

    fn next_after(&self, l: u32) -> Option<u32> {
        if self.descending {
            (l > self.lo).then(|| l - 1)
        } else {
            (l < self.hi).then(|| l + 1)
        }
    }
}

/// What one candidate attempt decided.
enum Step {
    Found,
    Abort,
    Next,
}

/// Search state for `pos_equiv`.
struct Search<'a> {
    ig: &'a InputGraph,
    rel: &'a Relations,
    k: u32,
    /// Explore levels above each primary's base level, up to `k - 1` (the
    /// `iexact_code` enumeration, which `semiexact_code` runs too); `false`
    /// pins primaries to `level_lo`, the paper's `semiexact_code`
    /// restriction, which only [`ExactOptions::min_dimension_faces_only`]
    /// selects.
    free_levels: bool,
    /// Base (minimum) candidate level per node; only meaningful for
    /// non-singleton primaries.
    level_lo: &'a [u32],
    faces: Vec<Option<Face>>,
    /// Assignment stack `(node, face)` in assignment order, selected and
    /// derived nodes alike; truncating to a mark undoes a subtree.
    assigned: Vec<(usize, Face)>,
    /// Category-2 node indices (derivation worklist).
    multis: Vec<usize>,
    /// Each candidate face costs one charge.
    meter: Meter<'a>,
    last: Option<usize>,
    /// Current recursion depth of [`Search::extend`] (for the backtrack
    /// depth histogram).
    depth: u64,
    /// Output covering constraints `(u, v)`: code(u) must bit-wise strictly
    /// cover code(v) (used by `io_semiexact_code`).
    covers: &'a [(usize, usize)],
    /// Orbit keys of the candidates tried at the current level of each
    /// active symmetry-breaking frame, one sorted run per frame (see
    /// [`Search::try_each`]).
    orbits: Vec<Face>,
    prune: PruneStats,
}

impl<'a> Search<'a> {
    /// Candidate levels for a selectable node, in trial order.
    fn feasible_levels(&self, i: usize) -> LevelRange {
        match self.ig.category(i) {
            Category::Primary => {
                if self.rel.card(i) == 1 {
                    LevelRange::at(0)
                } else {
                    let lo = self.level_lo[i];
                    let hi = if self.free_levels {
                        (self.k - 1).max(lo)
                    } else {
                        lo
                    };
                    LevelRange {
                        lo,
                        hi,
                        descending: false,
                    }
                }
            }
            Category::Single => {
                let father = self.ig.fathers(i)[0];
                match self.faces[father] {
                    Some(ff) if ff.level() > 0 => {
                        let top = ff.level() - 1;
                        let min = self.rel.min_level(i);
                        if top < min {
                            LevelRange::EMPTY
                        } else if self.rel.card(i) == 1 {
                            LevelRange::at(0)
                        } else {
                            LevelRange {
                                lo: min,
                                hi: top,
                                descending: true,
                            }
                        }
                    }
                    _ => LevelRange::EMPTY,
                }
            }
            _ => LevelRange::EMPTY,
        }
    }

    /// Is node `i` selectable now (category 1, or category 3 with its father
    /// already assigned)?
    fn selectable(&self, i: usize) -> bool {
        if self.faces[i].is_some() {
            return false;
        }
        match self.ig.category(i) {
            Category::Primary => true,
            Category::Single => self.faces[self.ig.fathers(i)[0]].is_some(),
            _ => false,
        }
    }

    /// `next_to_code`: the 6-branch priority scheme of Section 3.4.1, in a
    /// single allocation-free pass over the nodes.
    fn select_next(&self) -> Option<usize> {
        let last_level = self
            .last
            .and_then(|l| self.faces[l])
            .map(|f| f.level())
            .unwrap_or(self.k);
        let mut any = false;
        // Branches 1-4: first candidate (index order) at the last face's
        // level matching each priority filter.
        let mut same = [usize::MAX; 4];
        // Branches 5-6 and the fallback keep the *last* maximum-top-level
        // candidate, matching the old `max_by_key` tie-break.
        let mut below_primary: Option<(u32, usize)> = None;
        let mut below_any: Option<(u32, usize)> = None;
        let mut fallback: Option<(u32, usize)> = None;
        for i in 0..self.ig.len() {
            if !self.selectable(i) {
                continue;
            }
            let range = self.feasible_levels(i);
            // A node with no feasible level is a dead end: pick it
            // immediately to fail fast.
            if range.is_empty() {
                return Some(i);
            }
            any = true;
            let tl = range.first();
            let is_primary = self.ig.category(i) == Category::Primary;
            let shares = match self.last {
                Some(l) => self.rel.shares_child(i, l),
                None => false,
            };
            if range.contains(last_level) {
                if is_primary && shares && same[0] == usize::MAX {
                    same[0] = i;
                }
                if is_primary && same[1] == usize::MAX {
                    same[1] = i;
                }
                if shares && same[2] == usize::MAX {
                    same[2] = i;
                }
                if same[3] == usize::MAX {
                    same[3] = i;
                }
            }
            if tl < last_level {
                if is_primary && below_primary.is_none_or(|(b, _)| tl >= b) {
                    below_primary = Some((tl, i));
                }
                if below_any.is_none_or(|(b, _)| tl >= b) {
                    below_any = Some((tl, i));
                }
            }
            if fallback.is_none_or(|(b, _)| tl >= b) {
                fallback = Some((tl, i));
            }
        }
        if !any {
            return None;
        }
        for &s in &same {
            if s != usize::MAX {
                return Some(s);
            }
        }
        below_primary.or(below_any).or(fallback).map(|(_, i)| i)
    }

    /// `verify`: all pairwise conditions of Section 3.4.3 between the
    /// proposed face for node `i` and every assigned face, answered from the
    /// precomputed relation table (no set operations in the loop). The
    /// conditions run in a fixed order per pair, and the first one broken
    /// names the `embed.prune.*` reason counted.
    fn verify(&mut self, i: usize, face: Face) -> bool {
        let card = self.rel.card(i);
        if (face.cardinality() as usize) < card {
            self.prune.cardinality += 1;
            return false;
        }
        if card == 1 && face.level() != 0 {
            self.prune.singleton_level += 1;
            return false;
        }
        // Output covering relations: check pairs whose two codes are both
        // determined (singleton faces at level 0).
        if card == 1 && !self.covers.is_empty() && !self.verify_covers(i, face) {
            self.prune.cover += 1;
            return false;
        }
        let row = self.rel.row(i);
        for &(j, fj) in &self.assigned {
            if fj == face {
                self.prune.duplicate += 1;
                return false;
            }
            if fj.properly_contains(&face) && !row.proper_subset_of(j) {
                self.prune.containment += 1;
                return false;
            }
            if face.properly_contains(&fj) && !row.proper_superset_of(j) {
                self.prune.containment += 1;
                return false;
            }
            match face.intersection(&fj) {
                Some(fi) => {
                    let isz = row.inter_size(j);
                    if isz == 0 {
                        self.prune.spurious_intersection += 1;
                        return false;
                    }
                    if (fi.cardinality() as usize) < isz {
                        self.prune.small_intersection += 1;
                        return false;
                    }
                }
                None => {
                    if !row.disjoint(j) {
                        self.prune.missing_intersection += 1;
                        return false;
                    }
                }
            }
        }
        // Fathers must properly contain the face (when assigned).
        for &fa in self.ig.fathers(i) {
            if let Some(ff) = self.faces[fa] {
                if !ff.properly_contains(&face) {
                    self.prune.father += 1;
                    return false;
                }
            }
        }
        true
    }

    fn verify_covers(&self, i: usize, face: Face) -> bool {
        let s = self.ig.set(i).iter().next().expect("singleton").0;
        let code_of = |state: usize| -> Option<u64> {
            if state == s {
                return Some(face.value_bits());
            }
            self.faces[self.rel.singleton_of(state)]
                .filter(|f| f.level() == 0)
                .map(|f| f.value_bits())
        };
        for &(u, v) in self.covers {
            if u != s && v != s {
                continue;
            }
            if let (Some(cu), Some(cv)) = (code_of(u), code_of(v)) {
                if cu | cv != cu || cu == cv {
                    return false;
                }
            }
        }
        true
    }

    /// Derives faces for category-2 nodes whose fathers are all assigned
    /// (the `D(ic)` processing of `assign_face`). Returns the stack mark to
    /// undo the derivations, or `None` when some derivation is inconsistent
    /// (everything already undone).
    fn derive_ready_multis(&mut self) -> Option<usize> {
        let mark = self.assigned.len();
        loop {
            let mut progressed = false;
            for idx in 0..self.multis.len() {
                let i = self.multis[idx];
                if self.faces[i].is_some() {
                    continue;
                }
                let fathers = self.ig.fathers(i);
                if !fathers.iter().all(|&f| self.faces[f].is_some()) {
                    continue;
                }
                let mut acc = Face::full(self.k);
                let mut ok = true;
                for &f in fathers {
                    match acc.intersection(&self.faces[f].expect("assigned")) {
                        Some(x) => acc = x,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok || !self.verify(i, acc) {
                    self.undo_to(mark);
                    return None;
                }
                self.faces[i] = Some(acc);
                self.assigned.push((i, acc));
                progressed = true;
            }
            if !progressed {
                return Some(mark);
            }
        }
    }

    /// Pops the assignment stack down to `mark`, clearing the faces.
    fn undo_to(&mut self, mark: usize) {
        while self.assigned.len() > mark {
            let (i, _) = self.assigned.pop().expect("stack above mark");
            self.faces[i] = None;
        }
    }

    /// Full recursive search. Returns `true` when a complete valid
    /// assignment has been reached (stored in `self.faces`).
    fn extend(&mut self) -> bool {
        self.depth += 1;
        let found = self.extend_inner();
        self.depth -= 1;
        found
    }

    fn extend_inner(&mut self) -> bool {
        let Some(node) = self.select_next() else {
            return self.finalize();
        };
        let range = self.feasible_levels(node);
        if range.is_empty() {
            return false;
        }
        let prev_last = self.last;
        let mut level = range.first();
        loop {
            let step = match self.ig.category(node) {
                Category::Primary => self.try_each(node, faces_of_level(self.k, level), prev_last),
                Category::Single => {
                    let ff = self.faces[self.ig.fathers(node)[0]].expect("father assigned");
                    self.try_each(node, subfaces_of_level(&ff, level), prev_last)
                }
                _ => unreachable!("only cat 1/3 nodes are selected"),
            };
            match step {
                Step::Found => return true,
                Step::Abort => return false,
                Step::Next => {}
            }
            match range.next_after(level) {
                Some(l) => level = l,
                None => break,
            }
        }
        false
    }

    /// Tries the candidates of one level for `node` in order, until one
    /// completes the embedding or the search aborts. Within
    /// [`SYMMETRY_DEPTH`], a candidate whose orbit an earlier candidate
    /// already covered is skipped without a charge.
    fn try_each(
        &mut self,
        node: usize,
        candidates: impl Iterator<Item = Face>,
        prev_last: Option<usize>,
    ) -> Step {
        let symmetric = self.depth <= SYMMETRY_DEPTH;
        let mark = self.orbits.len();
        let mut step = Step::Next;
        for face in candidates {
            if symmetric {
                let key = orbit_key(self.k, &self.assigned, self.covers.is_empty(), face);
                match self.orbits[mark..].binary_search(&key) {
                    Ok(_) => {
                        self.prune.symmetry += 1;
                        continue;
                    }
                    Err(at) => self.orbits.insert(mark + at, key),
                }
            }
            step = self.try_candidate(node, face, prev_last);
            if !matches!(step, Step::Next) {
                break;
            }
        }
        self.orbits.truncate(mark);
        step
    }

    /// Tries one candidate face for `node`: charge, verify, assign, derive,
    /// recurse, and undo on failure.
    fn try_candidate(&mut self, node: usize, face: Face, prev_last: Option<usize>) -> Step {
        if !self.meter.charge() {
            return Step::Abort;
        }
        if !self.verify(node, face) {
            return Step::Next;
        }
        self.faces[node] = Some(face);
        self.assigned.push((node, face));
        self.last = Some(node);
        if let Some(mark) = self.derive_ready_multis() {
            if self.extend() {
                return Step::Found;
            }
            if self.meter.stopped() {
                return Step::Abort;
            }
            self.undo_to(mark);
        }
        if self.meter.stopped() {
            return Step::Abort;
        }
        self.meter.backtrack();
        self.meter
            .ctl
            .tracer()
            .observe("embed.backtrack_depth", self.depth);
        let popped = self.assigned.pop().expect("candidate on stack");
        debug_assert_eq!(popped.0, node);
        self.faces[node] = None;
        self.last = prev_last;
        Step::Next
    }

    /// All selected and derived faces are in place: check global semantic
    /// validity (every constraint's face contains all and only the codes of
    /// its member states).
    fn finalize(&mut self) -> bool {
        let Some(mark) = self.derive_ready_multis() else {
            return false;
        };
        if self.faces.iter().any(Option::is_none) {
            self.undo_to(mark);
            return false;
        }
        let ok = with_embed_scratch(|sc| {
            let mut codes = sc.acquire_codes();
            let r = self.finalize_check(&mut codes);
            sc.release_codes(codes);
            r
        });
        if !ok {
            self.undo_to(mark);
        }
        ok
    }

    fn finalize_check(&self, codes: &mut Vec<u64>) -> bool {
        // Codes from singletons.
        for s in 0..self.ig.num_states() {
            let f = self.faces[self.rel.singleton_of(s)].expect("assigned");
            if f.level() != 0 {
                return false;
            }
            codes.push(f.value_bits());
        }
        // Output covering relations.
        for &(u, v) in self.covers {
            if codes[u] | codes[v] != codes[u] || codes[u] == codes[v] {
                return false;
            }
        }
        // Global check.
        for i in 0..self.ig.len() {
            let face = self.faces[i].expect("assigned");
            let set = self.ig.set(i);
            for (s, &code) in codes.iter().enumerate() {
                if face.contains_vertex(code) != set.contains(StateId(s)) {
                    return false;
                }
            }
        }
        true
    }
}

/// The canonical face of `face`'s orbit under the group of the module docs'
/// "Symmetry breaking", for the faces `assigned` so far in a `k`-cube: per
/// class of bits whose x/0/1 columns agree across `assigned`, the face's 1s
/// and then its 0s packed onto the class's lowest bits, with 0s and 1s
/// alike for the class free in every assigned face when `flips` is allowed.
/// Two faces share a key exactly when the group maps one onto the other.
fn orbit_key(k: u32, assigned: &[(usize, Face)], flips: bool, face: Face) -> Face {
    let all = (1u64 << k) - 1;
    let free = assigned
        .iter()
        .fold(all, |free, (_, f)| free & !f.mask_bits());
    let (mut mask, mut value) = (0, 0);
    let mut rest = all;
    while rest != 0 {
        let bit = rest & rest.wrapping_neg();
        let class = assigned.iter().fold(all, |class, (_, f)| {
            let (m, v) = (f.mask_bits(), f.value_bits());
            class
                & if m & bit == 0 {
                    !m
                } else if v & bit == 0 {
                    m & !v
                } else {
                    v
                }
        });
        rest &= !class;
        mask |= lowest_bits(class, (class & face.mask_bits()).count_ones());
        if !(flips && class == free) {
            value |= lowest_bits(class, (class & face.value_bits()).count_ones());
        }
    }
    Face::new(k, mask, value)
}

/// The `n` lowest set bits of `bits`.
fn lowest_bits(mut bits: u64, n: u32) -> u64 {
    let mut out = 0;
    for _ in 0..n {
        let low = bits & bits.wrapping_neg();
        out |= low;
        bits ^= low;
    }
    out
}

/// The codes a *cancelled* strict search has placed: states whose singleton
/// nodes hold a level-0 face keep that vertex, the rest read `u64::MAX`.
/// Mid-search two singletons can transiently share a vertex; the first
/// keeps it.
fn partial_codes(search: &Search) -> Vec<u64> {
    let mut codes = vec![u64::MAX; search.ig.num_states()];
    for s in 0..codes.len() {
        if let Some(f) = search.faces[search.rel.singleton_of(s)] {
            if f.level() == 0 && !codes[..s].contains(&f.value_bits()) {
                codes[s] = f.value_bits();
            }
        }
    }
    codes
}

/// Anytime snapshot of a cancelled embedding search (`embed.partial`,
/// `iexact.weak`): completes `codes` ([`fill_lowest_free`]), scores them by
/// how many closure constraints of `ig` (neither singleton nor universe)
/// they satisfy under the weak criterion ([`constraint_satisfied`]), and
/// offers them to `ctl`, so the driver can return a degraded-but-valid
/// encoding instead of nothing.
pub(crate) fn offer_partial(
    ctl: &RunCtl,
    ig: &InputGraph,
    mut codes: Vec<u64>,
    bits: u32,
    source: &'static str,
) {
    fill_lowest_free(&mut codes, bits);
    let n = codes.len();
    let score = (0..ig.len())
        .filter(|&i| {
            let set = ig.set(i);
            set.len() > 1 && set.len() < n && constraint_satisfied(&set, &codes, bits)
        })
        .count() as u64;
    ctl.offer_best(bits, &codes, source, score);
}

/// Completes a partial code vector for an anytime snapshot: every state
/// still at `u64::MAX` takes the lowest vertex of the `bits`-cube that no
/// state holds.
pub(crate) fn fill_lowest_free(codes: &mut [u64], bits: u32) {
    let used: HashSet<u64> = codes.iter().copied().collect();
    let mut free = (0..1u64 << bits).filter(|v| !used.contains(v));
    for code in codes.iter_mut().filter(|c| **c == u64::MAX) {
        *code = free.next().expect("2^bits >= n vertices");
    }
}

/// Builds the [`Embedding`] out of a successful search.
fn extract(search: &Search) -> Embedding {
    let ig = search.ig;
    let mut codes = vec![0u64; ig.num_states()];
    for (s, code) in codes.iter_mut().enumerate() {
        *code = search.faces[search.rel.singleton_of(s)]
            .expect("assigned")
            .value_bits();
    }
    let faces = (0..ig.len())
        .map(|i| (ig.set(i), search.faces[i].expect("assigned")))
        .collect();
    Embedding {
        bits: search.k,
        codes,
        faces,
    }
}

/// Runs one backtracking search to completion. Returns the outcome and the
/// work spent (clamped to `budget`).
fn run_search(
    ig: &InputGraph,
    k: u32,
    level_lo: &[u32],
    free_levels: bool,
    covers: &[(usize, usize)],
    budget: Option<u64>,
    ctl: &RunCtl,
) -> (EmbedOutcome, u64) {
    let before = scratch::thread_stats();
    let (mut faces, assigned, mut multis, orbits) = with_embed_scratch(|sc| {
        (
            sc.acquire_faces(),
            sc.acquire_pairs(),
            sc.acquire_indices(),
            sc.acquire_orbits(),
        )
    });
    faces.resize(ig.len(), None);
    faces[ig.universe()] = Some(Face::full(k));
    multis.extend((0..ig.len()).filter(|&i| ig.category(i) == Category::Multi));
    let mut search = Search {
        ig,
        rel: ig.relations(),
        k,
        free_levels,
        level_lo,
        faces,
        assigned,
        multis,
        meter: Meter::new(ctl, budget),
        last: None,
        depth: 0,
        covers,
        orbits,
        prune: PruneStats::default(),
    };
    let found = search.extend().then(|| extract(&search));
    let (outcome, spent) = search.meter.finish(found);
    if matches!(outcome, EmbedOutcome::Cancelled) {
        offer_partial(ctl, ig, partial_codes(&search), k, "embed.partial");
    }
    search.prune.flush(ctl);
    let Search {
        faces,
        assigned,
        multis,
        orbits,
        ..
    } = search;
    with_embed_scratch(|sc| {
        sc.release_faces(faces);
        sc.release_pairs(assigned);
        sc.release_indices(multis);
        sc.release_orbits(orbits);
    });
    let delta = scratch::thread_stats().delta_from(&before);
    if delta.acquires > 0 {
        let t = ctl.tracer();
        t.incr("embed.scratch.acquires", delta.acquires);
        t.incr("embed.scratch.fresh_allocs", delta.fresh_allocs);
        t.incr("embed.scratch.reuses", delta.reuses());
        t.gauge("embed.scratch.live_peak", delta.live_peak as i64);
    }
    (outcome, spent)
}

/// Shared driver for every `pos_equiv`-family entry point: builds the
/// per-node base levels (each node's minimum feasible level), runs the
/// search, whose [`Meter`] adds its work to `embed.nodes_visited`, and
/// records its `embed.nodes_per_sec`.
fn pos_equiv_run(
    ig: &InputGraph,
    k: u32,
    covers: &[(usize, usize)],
    budget: Option<u64>,
    free_levels: bool,
    ctl: &RunCtl,
) -> (EmbedOutcome, u64) {
    if (ig.num_states() as u64) > 1u64 << k.min(63) {
        return (EmbedOutcome::Exhausted, 0);
    }
    let rel = ig.relations();
    let mut level_lo = with_embed_scratch(|sc| sc.acquire_levels());
    for i in 0..ig.len() {
        let lo = rel.min_level(i);
        if ig.category(i) == Category::Primary && rel.card(i) > 1 && lo >= k {
            with_embed_scratch(|sc| sc.release_levels(level_lo));
            return (EmbedOutcome::Exhausted, 0);
        }
        level_lo.push(lo);
    }
    let tracer = ctl.tracer().clone();
    tracer.incr("embed.pos_equiv_calls", 1);
    let span = tracer.span("exact.pos_equiv");
    let t0 = Instant::now();
    let (outcome, spent) = run_search(ig, k, &level_lo, free_levels, covers, budget, ctl);
    drop(span);
    let secs = t0.elapsed().as_secs_f64();
    if secs > 0.0 {
        tracer.gauge("embed.nodes_per_sec", (spent as f64 / secs) as i64);
    }
    with_embed_scratch(|sc| sc.release_levels(level_lo));
    (outcome, spent)
}

/// `pos_equiv` (Section 3.4): decides restricted SUBPOSET EQUIVALENCE for a
/// fixed dimension `k` by two-level backtracking, each node starting at its
/// minimum feasible level. `covers` adds output covering constraints
/// `(u, v)` (state indices: code(u) must bit-wise strictly cover code(v)),
/// the search core of `io_semiexact_code` (Section VI-6.2.1).
///
/// Every candidate face charges `ctl` one unit (batched), so a deadline or
/// node budget on the handle ends the backtracking promptly
/// ([`EmbedOutcome::Cancelled`], where an exhausted local `budget` gives
/// [`EmbedOutcome::Capped`]).
pub fn pos_equiv(
    ig: &InputGraph,
    k: u32,
    covers: &[(usize, usize)],
    budget: Option<u64>,
    ctl: &RunCtl,
) -> EmbedOutcome {
    pos_equiv_run(ig, k, covers, budget, true, ctl).0
}

/// `iexact_code` (Section 3.3.1): exact input encoding. Tries increasing
/// cube dimensions from [`mincube_dim`]; at each dimension a strict
/// subposet-equivalence search with free primary levels runs first, then
/// (with [`ExactOptions::complete`]) the weak direct code assignment, until
/// an encoding satisfying **all** input constraints is found.
///
/// Returns `None` when the work budget is exhausted or `max_k` is passed
/// (the paper likewise reports failures for the hardest machines).
pub fn iexact_code(ig: &InputGraph, opts: ExactOptions) -> Option<Embedding> {
    iexact_code_ctl(ig, opts, &RunCtl::unlimited()).expect("unlimited ctl never cancels")
}

/// [`iexact_code`] under a [`RunCtl`]: `Err(Cancelled)` when the handle's
/// deadline/budget fired mid-search, `Ok(None)` for an ordinary failure
/// (local `max_work` exhausted or `max_k` passed).
pub fn iexact_code_ctl(
    ig: &InputGraph,
    opts: ExactOptions,
    ctl: &RunCtl,
) -> Result<Option<Embedding>, Cancelled> {
    let tracer = ctl.tracer().clone();
    let _span = tracer.span("exact.iexact_code");
    let mut remaining = opts.max_work;
    // Cap each (dimension, phase) so no single unsatisfiable dimension can
    // starve the dimensions above it.
    let per_phase = opts.max_work.map(|w| (w / 8).max(4096));
    let start = mincube_dim(ig);
    for k in start..=opts.max_k.min(ig.num_states() as u32) {
        if remaining == Some(0) {
            return Ok(None);
        }
        tracer.incr("embed.dimensions_tried", 1);
        tracer.gauge("embed.dimension", k as i64);
        // Phase A: strict subposet embedding (free primary levels replace
        // the old explicit level-vector odometer). Phase B: weak direct
        // code assignment — the paper's acceptance criterion — for
        // instances with no strict subposet embedding.
        let weak = opts.complete && (1..=63).contains(&k);
        for strict in [true, false].into_iter().take(1 + weak as usize) {
            let cap = cap_for(remaining, per_phase);
            let (outcome, spent) = if strict {
                pos_equiv_run(ig, k, &[], cap, !opts.min_dimension_faces_only, ctl)
            } else {
                weak_search(ig, k, cap, ctl)
            };
            match outcome {
                EmbedOutcome::Found(e) => return Ok(Some(e)),
                EmbedOutcome::Cancelled => return Err(Cancelled),
                EmbedOutcome::Exhausted | EmbedOutcome::Capped => debit(&mut remaining, spent),
            }
        }
    }
    Ok(None)
}

fn cap_for(remaining: Option<u64>, per_phase: Option<u64>) -> Option<u64> {
    match (remaining, per_phase) {
        (Some(r), Some(p)) => Some(r.min(p)),
        (Some(r), None) => Some(r),
        (None, p) => p,
    }
}

fn debit(remaining: &mut Option<u64>, spent: u64) {
    if let Some(r) = remaining.as_mut() {
        *r = r.saturating_sub(spent.max(1));
    }
}

/// `semiexact_code` (Section IV-4.1): the `iexact_code` search bounded to
/// one dimension `k` and `max_work` candidate faces. Returns the embedding
/// when all given constraints can be satisfied within the budget.
///
/// Unlike the paper, which restricts each primary constraint to
/// minimum-dimension faces, every non-singleton primary may take any level
/// up to `k - 1`, as in `iexact_code`.
pub fn semiexact_code(
    num_states: usize,
    constraints: &[StateSet],
    k: u32,
    max_work: u64,
) -> Option<Embedding> {
    io_semiexact_code(num_states, constraints, &[], k, max_work)
}

/// `io_semiexact_code` (Section VI-6.2.1): `semiexact_code` with an added
/// mechanism rejecting face assignments that violate an active output
/// covering relation.
pub fn io_semiexact_code(
    num_states: usize,
    constraints: &[StateSet],
    covers: &[(usize, usize)],
    k: u32,
    max_work: u64,
) -> Option<Embedding> {
    io_semiexact_code_ctl(
        num_states,
        constraints,
        covers,
        k,
        max_work,
        &RunCtl::unlimited(),
    )
    .expect("unlimited ctl never cancels")
}

/// [`io_semiexact_code`] under a [`RunCtl`] (see [`iexact_code_ctl`] for the
/// `Err` vs `Ok(None)` distinction).
pub fn io_semiexact_code_ctl(
    num_states: usize,
    constraints: &[StateSet],
    covers: &[(usize, usize)],
    k: u32,
    max_work: u64,
    ctl: &RunCtl,
) -> Result<Option<Embedding>, Cancelled> {
    if exceeds_cube(num_states, constraints, k) {
        return Ok(None);
    }
    // Past that test the search reads both the graph and its relation table.
    let tracer = ctl.tracer();
    let ig = tracer.scope("embed.build", || {
        let ig = InputGraph::build(num_states, constraints);
        ig.relations();
        ig
    });
    tracer.incr("embed.graph_nodes", ig.len() as u64);
    tracer.incr("embed.relation_pairs", (ig.len() * ig.len()) as u64);
    let (outcome, _) = pos_equiv_run(&ig, k, covers, Some(max_work), true, ctl);
    match outcome {
        EmbedOutcome::Found(e) => Ok(Some(e)),
        EmbedOutcome::Cancelled => Err(Cancelled),
        _ => Ok(None),
    }
}

/// True when no `k`-cube can embed these sets, decided without building
/// anything. A `k`-cube has 2^k vertices and a proper face of it 2^(k−1),
/// so this holds when the states outnumber the vertices, or when a given
/// set other than the universe has more than 2^(k−1) states: the maximal
/// given set holding it is then a primary whose minimum level reaches `k`.
/// `pos_equiv_run` answers [`EmbedOutcome::Exhausted`] in both cases, but
/// only after the input graph and its relation table are built, which for
/// hundreds of sets costs seconds that no ctl is charged for.
fn exceeds_cube(num_states: usize, constraints: &[StateSet], k: u32) -> bool {
    let vertices = |dim: u32| 1u64.checked_shl(dim).unwrap_or(u64::MAX);
    let universe = StateSet::universe(num_states);
    num_states as u64 > vertices(k)
        || k > 0
            && constraints
                .iter()
                .any(|s| *s != universe && s.len() as u64 > vertices(k - 1))
}

/// Does `codes` satisfy constraint `set` (the spanned face contains no
/// non-member code)?
pub fn constraint_satisfied(set: &StateSet, codes: &[u64], bits: u32) -> bool {
    if set.is_empty() {
        return true;
    }
    let span = Face::span_of(bits, set.iter().map(|s| codes[s.0]));
    codes
        .iter()
        .enumerate()
        .all(|(s, &c)| set.contains(StateId(s)) || !span.contains_vertex(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_ic() -> Vec<StateSet> {
        [
            "1110000", "0111000", "0000111", "1000110", "0000011", "0011000",
        ]
        .iter()
        .map(|s| StateSet::parse(s).unwrap())
        .collect()
    }

    #[test]
    fn mincube_matches_example_3_3_2_2_1() {
        let ig = InputGraph::build(7, &paper_ic());
        assert_eq!(mincube_dim(&ig), 4);
    }

    #[test]
    fn exact_solves_the_paper_instance_in_four_bits() {
        let ig = InputGraph::build(7, &paper_ic());
        let e = iexact_code(&ig, ExactOptions::default()).expect("solvable");
        assert_eq!(e.bits, 4, "Example 3.1.1 solution uses k = 4");
        // The first embedding found: symmetry breaking must not change it.
        assert_eq!(e.codes, [2, 7, 3, 11, 8, 0, 4]);
        // All constraints satisfied.
        for ic in paper_ic() {
            assert!(
                constraint_satisfied(&ic, &e.codes, e.bits),
                "unsatisfied {:?}",
                ic
            );
        }
        // Codes distinct.
        let mut codes = e.codes.clone();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 7);
    }

    #[test]
    fn exact_trivial_instances() {
        // No constraints: minimum length works immediately.
        let ig = InputGraph::build(4, &[]);
        let e = iexact_code(&ig, ExactOptions::default()).expect("trivial");
        assert_eq!(e.bits, 2);
    }

    #[test]
    fn exact_single_constraint() {
        let ig = InputGraph::build(4, &[StateSet::parse("1100").unwrap()]);
        let e = iexact_code(&ig, ExactOptions::default()).expect("solvable");
        assert_eq!(e.bits, 2);
        assert!(constraint_satisfied(
            &StateSet::parse("1100").unwrap(),
            &e.codes,
            e.bits
        ));
    }

    #[test]
    fn exact_needs_extra_dimension_when_constraints_conflict() {
        // A 5-cycle of pair constraints on 5 states: 2 bits cannot even hold
        // 5 distinct codes, and an odd cycle of *edges* cannot embed in any
        // hypercube, so at k = 3 the level enumeration must raise one pair
        // to a level-2 face. Solvable (e.g. codes 000,100,110,111,001).
        let ics = ["11000", "01100", "00110", "00011", "10001"]
            .iter()
            .map(|s| StateSet::parse(s).unwrap())
            .collect::<Vec<_>>();
        let ig = InputGraph::build(5, &ics);
        let e = iexact_code(&ig, ExactOptions::default()).expect("solvable at k = 3");
        assert_eq!(e.bits, 3);
        for ic in &ics {
            assert!(constraint_satisfied(ic, &e.codes, e.bits));
        }
    }

    #[test]
    fn triangle_constraints_have_no_subposet_embedding() {
        // {0,1},{1,2},{0,2} pairwise intersect in singletons; in the
        // subposet-equivalence framework the singleton faces are the exact
        // intersections of their fathers' faces, which is geometrically
        // impossible for a triangle at any dimension (the three difference
        // masks cannot be pairwise disjoint around an odd closed chain).
        // With the weak fallback disabled, `iexact_code` must report failure
        // rather than loop. Trying one root face per orbit proves it in a
        // few hundred faces, where trying them all took 57,482.
        let ics = ["1100", "0110", "1010"]
            .iter()
            .map(|s| StateSet::parse(s).unwrap())
            .collect::<Vec<_>>();
        let ig = InputGraph::build(4, &ics);
        let opts = ExactOptions {
            max_k: 5,
            complete: false,
            ..ExactOptions::default()
        };
        let ctl = RunCtl::unlimited();
        assert!(iexact_code_ctl(&ig, opts, &ctl).unwrap().is_none());
        let tried = ctl.counters().faces_tried;
        assert!(tried <= 1_000, "{tried} faces tried");
    }

    #[test]
    fn seven_cycle_keeps_its_first_embedding_in_fewer_faces() {
        // A 7-cycle of pair constraints has no embedding at k = 3, which
        // takes the search through every orbit of its first two levels
        // before k = 4 embeds it. Trying every candidate took 28,707 faces.
        let ics = [
            "1100000", "0110000", "0011000", "0001100", "0000110", "0000011", "1000001",
        ]
        .iter()
        .map(|s| StateSet::parse(s).unwrap())
        .collect::<Vec<_>>();
        let ig = InputGraph::build(7, &ics);
        let opts = ExactOptions {
            max_k: 4,
            complete: false,
            ..ExactOptions::default()
        };
        let ctl = RunCtl::unlimited();
        let e = iexact_code_ctl(&ig, opts, &ctl)
            .unwrap()
            .expect("embeds at k = 4");
        assert_eq!(e.codes, [11, 15, 14, 12, 4, 0, 8]);
        let tried = ctl.counters().faces_tried;
        assert!(tried <= 2_000, "{tried} faces tried");
    }

    #[test]
    fn output_covers_keep_both_vertices_of_the_root() {
        // One bit, two states, one cover: only code(u) = 1, code(v) = 0
        // works. Bit flips do not preserve a cover, so the two vertices of
        // the first state's level-0 candidates are separate orbits; were
        // they merged, one of these two searches would find nothing.
        let found =
            |covers: &[(usize, usize)]| io_semiexact_code(2, &[], covers, 1, 1000).map(|e| e.codes);
        assert_eq!(found(&[(1, 0)]), Some(vec![0, 1]));
        assert_eq!(found(&[(0, 1)]), Some(vec![1, 0]));
    }

    /// All automorphisms of the 4-cube: a bit permutation (image position
    /// of every bit) and a flip mask.
    fn cube_automorphisms() -> Vec<([u32; 4], u64)> {
        let mut out = Vec::new();
        for code in 0..256u32 {
            let perm = [code & 3, code >> 2 & 3, code >> 4 & 3, code >> 6 & 3];
            if (0..4).all(|b| perm.contains(&b)) {
                out.extend((0..16).map(|flip| (perm, flip)));
            }
        }
        out
    }

    fn apply(perm: [u32; 4], flip: u64, f: Face) -> Face {
        let (mut mask, mut value) = (0, 0);
        for (i, &to) in perm.iter().enumerate() {
            mask |= (f.mask_bits() >> i & 1) << to;
            value |= (f.value_bits() >> i & 1) << to;
        }
        Face::new(4, mask, value ^ (flip & mask))
    }

    #[test]
    fn orbit_keys_are_the_orbits_of_the_stabilizer_subgroup() {
        let assigned_sets: [&[&str]; 5] = [&[], &["xx01"], &["x0x1"], &["xxx0", "x10x"], &["0000"]];
        let all_faces: Vec<Face> = (0..=4).flat_map(|l| faces_of_level(4, l)).collect();
        let autos = cube_automorphisms();
        for assigned in assigned_sets {
            let assigned: Vec<(usize, Face)> = assigned
                .iter()
                .map(|s| (0, Face::parse(s).unwrap()))
                .collect();
            for flips in [true, false] {
                // The group: bit permutations within classes of equal x/0/1
                // columns, plus (with `flips`) flips of bits free in every
                // assigned face.
                let column = |b: usize| -> Vec<(u64, u64)> {
                    assigned
                        .iter()
                        .map(|(_, f)| (f.mask_bits() >> b & 1, f.value_bits() >> b & 1))
                        .collect()
                };
                let free: u64 = (0..4)
                    .filter(|&b| column(b).iter().all(|&(m, _)| m == 0))
                    .map(|b| 1 << b)
                    .sum();
                let group: Vec<_> = autos
                    .iter()
                    .filter(|(perm, flip)| {
                        (0..4).all(|b| column(b) == column(perm[b] as usize))
                            && (*flip == 0 || flips && flip & !free == 0)
                    })
                    .collect();
                for (p, fl) in &group {
                    assert!(assigned.iter().all(|(_, a)| apply(*p, *fl, *a) == *a));
                }
                for &f in &all_faces {
                    let key = orbit_key(4, &assigned, flips, f);
                    for &g in &all_faces {
                        let same_orbit = group.iter().any(|(p, fl)| apply(*p, *fl, f) == g);
                        assert_eq!(
                            orbit_key(4, &assigned, flips, g) == key,
                            same_orbit,
                            "{f} vs {g} under {assigned:?}, flips {flips}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weak_fallback_solves_the_triangle() {
        // Same instance as above, but with the weak acceptance criterion
        // (the default): codes like 000,101,011,110 satisfy every pair
        // constraint at k = 3, because each pair's spanning face excludes
        // the other two codes.
        let ics = ["1100", "0110", "1010"]
            .iter()
            .map(|s| StateSet::parse(s).unwrap())
            .collect::<Vec<_>>();
        let ig = InputGraph::build(4, &ics);
        let e = iexact_code(&ig, ExactOptions::default()).expect("weakly solvable");
        assert_eq!(e.bits, 3);
        for ic in &ics {
            assert!(constraint_satisfied(ic, &e.codes, e.bits));
        }
        let mut codes = e.codes.clone();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 4, "codes distinct");
    }

    #[test]
    fn semiexact_respects_budget() {
        let ig_constraints = paper_ic();
        // Tiny budget: must abort (return None) rather than hang.
        let r = semiexact_code(7, &ig_constraints, 4, 3);
        assert!(r.is_none());
        // Generous budget: solves.
        let r = semiexact_code(7, &ig_constraints, 4, 2_000_000);
        assert!(r.is_some());
        // The tiny budget aborts the search rather than exhausting it.
        let ig = InputGraph::build(7, &ig_constraints);
        let r = pos_equiv(&ig, 4, &[], Some(3), &RunCtl::unlimited());
        assert!(matches!(r, EmbedOutcome::Capped), "{r:?}");
    }

    #[test]
    fn both_searches_share_outcomes_and_node_counts() {
        // The triangle has neither a strict nor a weak embedding at k = 2,
        // so both searches run to exhaustion unless a cap or the ctl stops
        // them first.
        let ics = ["1100", "0110", "1010"].map(|s| StateSet::parse(s).unwrap());
        let ig = InputGraph::build(4, &ics);
        let past = Instant::now();
        for (cap, cancelled, want) in [
            (Some(3), false, "Capped"),
            (Some(3), true, "Cancelled"),
            (None, false, "Exhausted"),
        ] {
            for strict in [true, false] {
                let deadline = cancelled.then_some(past);
                let ctl = RunCtl::new(None, deadline, nova_trace::Tracer::enabled());
                assert_eq!(ctl.cancelled(), cancelled);
                let (outcome, spent) = if strict {
                    pos_equiv_run(&ig, 2, &[], cap, true, &ctl)
                } else {
                    weak_search(&ig, 2, cap, &ctl)
                };
                assert_eq!(format!("{outcome:?}"), want, "strict {strict}");
                let counters = ctl.tracer().metrics_snapshot().counters;
                let visited = counters
                    .iter()
                    .find(|(name, _)| name == "embed.nodes_visited");
                assert_eq!(visited.map(|&(_, v)| v), Some(spent), "{want}");
                // Three candidates finish no subtree, and the levels a stop
                // unwinds are not backtracks.
                if cap.is_some() {
                    assert_eq!(ctl.counters().backtracks, 0, "{want}, strict {strict}");
                }
            }
        }
    }

    #[test]
    fn oversized_sets_decide_exhausted_before_any_build() {
        // Uncapped searches over small machines: every answer is found or
        // exhausted, and the early test may only ever answer the latter.
        let mut rng = fsm::SplitMix64::new(31);
        let mut decided = 0;
        for _ in 0..300 {
            let n = 2 + rng.below(7);
            let mut sets: Vec<StateSet> = (0..1 + rng.below(5))
                .map(|_| StateSet::from_states((0..n).filter(|_| rng.chance(1, 2)).map(StateId)))
                .collect();
            if rng.chance(1, 4) {
                sets.push(StateSet::universe(n));
            }
            let covers: Vec<(usize, usize)> = (0..rng.below(3))
                .map(|_| (rng.below(n), rng.below(n)))
                .filter(|(u, v)| u != v)
                .collect();
            let ig = InputGraph::build(n, &sets);
            for k in 0..=4 {
                let ctl = RunCtl::unlimited();
                let built = match pos_equiv_run(&ig, k, &covers, None, true, &ctl).0 {
                    EmbedOutcome::Found(e) => Some(e.codes),
                    EmbedOutcome::Exhausted => None,
                    other => panic!("an uncapped search ended {other:?}"),
                };
                if exceeds_cube(n, &sets, k) {
                    decided += 1;
                    assert_eq!(built, None, "n {n} k {k} sets {sets:?}");
                }
                let early = io_semiexact_code_ctl(n, &sets, &covers, k, u64::MAX, &ctl);
                assert_eq!(early.expect("unlimited").map(|e| e.codes), built);
            }
        }
        assert!(
            decided > 100,
            "the early test decided only {decided} queries"
        );
    }

    #[test]
    fn constraint_satisfaction_predicate() {
        // codes: 0,1,2,3 in 2 bits; {0,1} spans face 0x -> contains 0,1 only.
        let codes = vec![0b00, 0b01, 0b10, 0b11];
        assert!(constraint_satisfied(
            &StateSet::parse("1100").unwrap(),
            &codes,
            2
        ));
        // {0,3} spans xx -> contains everything: unsatisfied.
        assert!(!constraint_satisfied(
            &StateSet::parse("1001").unwrap(),
            &codes,
            2
        ));
    }

    #[test]
    fn embedding_faces_cover_exactly() {
        let ig = InputGraph::build(7, &paper_ic());
        let e = iexact_code(&ig, ExactOptions::default()).expect("solvable");
        for (set, face) in &e.faces {
            for s in 0..7 {
                assert_eq!(
                    face.contains_vertex(e.codes[s]),
                    set.contains(StateId(s)),
                    "face {face} vs state {s}"
                );
            }
        }
    }
}
