//! Direct code-assignment search for the paper's *weak* satisfaction
//! criterion: find distinct codes such that every input constraint's
//! spanned face contains no non-member code ([`constraint_satisfied`]),
//! without requiring the subposet-equivalence structure (exact face
//! intersections, disjoint faces for disjoint sets) that
//! [`pos_equiv`](crate::exact::pos_equiv) enforces.
//!
//! Weak satisfaction is what Section III actually demands of an encoding
//! (unused vertices inside a constraint face are allowed), and it is always
//! achievable at `k = #states` (1-hot). `iexact_code` therefore falls back
//! to this search on every dimension where the strict subposet embedding is
//! exhausted, which completes machines — like `bbara` — whose constraints
//! admit no strict embedding at any dimension. It charges the strict
//! search's [`Meter`] and returns its [`EmbedOutcome`].
//!
//! The search assigns one state per recursion level:
//!
//! * **Constraint set**: every non-singleton, non-universe node of the
//!   intersection closure. Checking closure nodes is equivalent to checking
//!   the original constraints (a violated intersection implies a violated
//!   father) and prunes earlier under partial assignments.
//! * **Symmetry breaking**: codes are canonical under bit permutation —
//!   a candidate may only introduce new 1-bits in the lowest unused
//!   positions (`high & (high + 1) == 0` for the bits above the used
//!   prefix).
//! * **Ordering**: states descending by constraint membership; candidates
//!   ascending by total span growth (sum of new span free-bit counts over
//!   the member constraints), then numerically.
//! * **Pruning**: spans are maintained incrementally with an undo trail;
//!   a candidate is rejected when it swallows an assigned non-member into
//!   a member constraint's span, or falls inside a non-member constraint's
//!   current span.
//!
//! [`constraint_satisfied`]: crate::exact::constraint_satisfied

use crate::exact::{offer_partial, EmbedOutcome, Embedding, Meter};
use crate::face::Face;
use crate::poset::InputGraph;
use crate::scratch::with_embed_scratch;
use espresso::RunCtl;
use fsm::StateId;

/// The current spanning face of a constraint's assigned members, as
/// `(free, value)` with `value & free == 0`; `count` is how many members
/// are assigned (the span is meaningless at `count == 0`).
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    free: u64,
    value: u64,
    count: u32,
}

impl Span {
    /// The span extended by one more vertex `c`.
    #[inline]
    fn with(self, c: u64) -> Span {
        if self.count == 0 {
            return Span {
                free: 0,
                value: c,
                count: 1,
            };
        }
        let free = self.free | ((self.value ^ c) & !self.free);
        Span {
            free,
            value: self.value & !free,
            count: self.count + 1,
        }
    }

    /// Is vertex `c` inside the span? (False at `count == 0`.)
    #[inline]
    fn holds(self, c: u64) -> bool {
        self.count > 0 && c & !self.free == self.value
    }
}

struct Assign<'a> {
    k: u32,
    /// Per constraint: the member states (indices into `codes`).
    members: Vec<Vec<u32>>,
    /// Per state: the constraints containing it / not containing it.
    member_of: Vec<Vec<u32>>,
    non_member_of: Vec<Vec<u32>>,
    /// Current span per constraint.
    spans: Vec<Span>,
    /// Saved spans for undo, with one mark per recursion level.
    trail: Vec<(u32, Span)>,
    /// Assignment order (most-constrained states first).
    order: Vec<usize>,
    codes: Vec<u64>,
    /// States assigned so far, in order.
    assigned: Vec<u32>,
    used_codes: Vec<bool>,
    used_mask: u64,
    /// Each candidate code costs one charge.
    meter: Meter<'a>,
}

impl Assign<'_> {
    /// Would assigning code `c` to state `s` violate a constraint now?
    fn conflicts(&self, s: usize, c: u64) -> bool {
        // Member constraints: the extended span must not swallow an
        // assigned non-member.
        for &t in &self.member_of[s] {
            let ext = self.spans[t as usize].with(c);
            for &a in &self.assigned {
                if self.members[t as usize].contains(&a) {
                    continue;
                }
                if ext.holds(self.codes[a as usize]) {
                    return true;
                }
            }
        }
        // Non-member constraints: `c` must stay outside their current span.
        for &t in &self.non_member_of[s] {
            if self.spans[t as usize].holds(c) {
                return true;
            }
        }
        false
    }

    /// Span-growth heuristic: total new free bits across the member
    /// constraints if `s` takes code `c` (smaller keeps spans tight).
    fn growth(&self, s: usize, c: u64) -> u32 {
        let mut g = 0;
        for &t in &self.member_of[s] {
            let sp = self.spans[t as usize];
            if sp.count > 0 {
                g += sp.with(c).free.count_ones();
            }
        }
        g
    }

    fn push(&mut self, s: usize, c: u64) {
        for ti in 0..self.member_of[s].len() {
            let t = self.member_of[s][ti] as usize;
            self.trail.push((t as u32, self.spans[t]));
            self.spans[t] = self.spans[t].with(c);
        }
        self.codes[s] = c;
        self.assigned.push(s as u32);
        self.used_codes[c as usize] = true;
        self.used_mask |= c;
    }

    fn pop(&mut self, s: usize, c: u64, trail_mark: usize, prev_mask: u64) {
        while self.trail.len() > trail_mark {
            let (t, sp) = self.trail.pop().expect("non-empty trail");
            self.spans[t as usize] = sp;
        }
        self.codes[s] = 0;
        self.assigned.pop();
        self.used_codes[c as usize] = false;
        self.used_mask = prev_mask;
    }

    fn dfs(&mut self, p: usize) -> bool {
        if p == self.order.len() {
            return true;
        }
        let s = self.order[p];
        // Canonical filter: bits above the used prefix must be a contiguous
        // low block of new positions.
        let t = 64 - self.used_mask.leading_zeros();
        let mut cands = with_embed_scratch(|sc| sc.acquire_cands());
        for c in 0..1u64 << self.k {
            if self.used_codes[c as usize] {
                continue;
            }
            let high = c >> t.min(63);
            if high & (high + 1) != 0 {
                continue;
            }
            cands.push((self.growth(s, c), c));
        }
        cands.sort_unstable();
        let mut found = false;
        for &(_, c) in cands.iter() {
            if !self.meter.charge() {
                break;
            }
            if self.conflicts(s, c) {
                continue;
            }
            let trail_mark = self.trail.len();
            let prev_mask = self.used_mask;
            self.push(s, c);
            if self.dfs(p + 1) {
                found = true;
                break;
            }
            self.pop(s, c, trail_mark, prev_mask);
            // A stop unwinds every level; only a finished subtree is a
            // backtrack, as in the strict search.
            if self.meter.stopped() {
                break;
            }
            self.meter.backtrack();
        }
        with_embed_scratch(|sc| sc.release_cands(cands));
        found
    }
}

/// Searches for distinct `k`-bit codes weakly satisfying every constraint
/// of `ig` (see the module docs). Returns the outcome plus the canonical
/// work spent (candidates tried, clamped to `budget`); a search `ctl`
/// cancelled offers its partial codes (`iexact.weak`).
///
/// The embedding's faces are the spanning faces of each constraint's
/// member codes; because every closure node is checked, each face contains
/// exactly the member codes among all assigned codes.
///
/// Note: unlike `pos_equiv`, this search has no output-covering
/// support — its canonical symmetry breaking (bit permutations) does not
/// preserve bit-dominance relations.
///
/// # Panics
///
/// Panics when `k` is 0 or exceeds 63.
pub(crate) fn weak_search(
    ig: &InputGraph,
    k: u32,
    budget: Option<u64>,
    ctl: &RunCtl,
) -> (EmbedOutcome, u64) {
    assert!((1..=63).contains(&k), "cube dimension out of range");
    let n = ig.num_states();
    if n as u64 > 1u64 << k.min(63) {
        return (EmbedOutcome::Exhausted, 0);
    }
    let tracer = ctl.tracer().clone();
    tracer.incr("embed.assign_calls", 1);
    let _span = tracer.span("exact.assign");

    // Constraints: non-singleton, non-universe closure nodes.
    let sets: Vec<usize> = (0..ig.len())
        .filter(|&i| {
            let c = ig.set(i).len();
            c > 1 && c < n
        })
        .collect();
    let members: Vec<Vec<u32>> = sets
        .iter()
        .map(|&i| ig.set(i).iter().map(|s| s.0 as u32).collect())
        .collect();
    let mut member_of = vec![Vec::new(); n];
    let mut non_member_of = vec![Vec::new(); n];
    for (t, &i) in sets.iter().enumerate() {
        let set = ig.set(i);
        for (s, list) in member_of.iter_mut().enumerate() {
            if set.contains(StateId(s)) {
                list.push(t as u32);
            } else {
                non_member_of[s].push(t as u32);
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&s| std::cmp::Reverse(member_of[s].len()));

    let mut search = Assign {
        k,
        members,
        member_of,
        non_member_of,
        spans: vec![Span::default(); sets.len()],
        trail: Vec::new(),
        order,
        codes: vec![0; n],
        assigned: Vec::with_capacity(n),
        used_codes: vec![false; 1 << k],
        used_mask: 0,
        meter: Meter::new(ctl, budget),
    };
    let found = search.dfs(0).then(|| {
        let codes = std::mem::take(&mut search.codes);
        let faces = (0..ig.len())
            .map(|i| {
                let set = ig.set(i);
                (set, Face::span_of(k, set.iter().map(|s| codes[s.0])))
            })
            .collect();
        Embedding {
            bits: k,
            codes,
            faces,
        }
    });
    let (outcome, spent) = search.meter.finish(found);
    if matches!(outcome, EmbedOutcome::Cancelled) {
        let mut codes = vec![u64::MAX; n];
        for &s in &search.assigned {
            codes[s as usize] = search.codes[s as usize];
        }
        offer_partial(ctl, ig, codes, k, "iexact.weak");
    }
    (outcome, spent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::StateSet;
    use crate::exact::constraint_satisfied;

    fn build(n: usize, specs: &[&str]) -> InputGraph {
        let sets: Vec<StateSet> = specs.iter().map(|s| StateSet::parse(s).unwrap()).collect();
        InputGraph::build(n, &sets)
    }

    fn assign_codes(ig: &InputGraph, k: u32, budget: Option<u64>) -> (EmbedOutcome, u64) {
        weak_search(ig, k, budget, &RunCtl::unlimited())
    }

    #[test]
    fn triangle_is_weakly_satisfiable_at_three_bits() {
        // No strict subposet embedding exists for the triangle, but the
        // weak criterion is satisfiable (e.g. 001, 010, 100, 111).
        let ig = build(4, &["1100", "0110", "1010"]);
        let (out, _) = assign_codes(&ig, 3, None);
        let EmbedOutcome::Found(e) = out else {
            panic!("triangle weakly satisfiable at k = 3");
        };
        for spec in ["1100", "0110", "1010"] {
            let set = StateSet::parse(spec).unwrap();
            assert!(constraint_satisfied(&set, &e.codes, e.bits), "{spec}");
        }
        let mut codes = e.codes.clone();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 4, "codes distinct");
    }

    #[test]
    fn found_faces_cover_exactly() {
        let ig = build(4, &["1100", "0110", "1010"]);
        let (out, _) = assign_codes(&ig, 3, None);
        let EmbedOutcome::Found(e) = out else {
            panic!("satisfiable")
        };
        for (set, face) in &e.faces {
            for s in 0..4 {
                assert_eq!(
                    face.contains_vertex(e.codes[s]),
                    set.contains(StateId(s)),
                    "face {face} vs state {s}"
                );
            }
        }
    }

    #[test]
    fn exhausts_when_codes_cannot_fit() {
        // 5 states need 3 bits; at k = 3 an impossible pair of overlapping
        // constraints: {0,1} and {0,2} force spans sharing vertex 0... use
        // a genuinely unsatisfiable instance instead: 4 states, all three
        // pair constraints through state 0 plus the complementary triple.
        let ig = build(4, &["1100", "1010", "1001", "0111"]);
        let (out, _) = assign_codes(&ig, 2, None);
        assert!(
            matches!(out, EmbedOutcome::Exhausted),
            "k = 2 has no spare vertex: {out:?}"
        );
    }

    #[test]
    fn respects_budget() {
        let ig = build(7, &["1110000", "0111000", "0000111", "1000110"]);
        let (out, spent) = assign_codes(&ig, 3, Some(2));
        assert!(matches!(out, EmbedOutcome::Capped));
        assert!(spent <= 2);
    }

    #[test]
    fn no_constraints_assigns_canonically() {
        let ig = build(4, &[]);
        let (out, _) = assign_codes(&ig, 2, None);
        let EmbedOutcome::Found(e) = out else {
            panic!("trivially satisfiable")
        };
        let mut codes = e.codes.clone();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 4);
    }
}
