//! Input constraints: subsets of states that multiple-valued minimization
//! groups together, and their extraction from a minimized symbolic cover.

use espresso::Cover;
use fsm::{symbolic_cover, Fsm, StateId};
use std::collections::BTreeMap;
use std::fmt;

/// A subset of the states of a machine, stored as a 128-bit set (the paper's
/// characteristic-vector notation, e.g. `1110000`).
///
/// Supports machines of up to 128 states (the largest paper benchmark, scf,
/// has 121).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StateSet(u128);

impl fmt::Debug for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for s in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", s.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl StateSet {
    /// The empty set.
    pub const EMPTY: StateSet = StateSet(0);

    /// Builds a set from state ids.
    ///
    /// # Panics
    ///
    /// Panics if a state index is ≥ 128.
    pub fn from_states(states: impl IntoIterator<Item = StateId>) -> Self {
        let mut v = 0u128;
        for s in states {
            assert!(s.0 < 128, "state index {} out of range", s.0);
            v |= 1 << s.0;
        }
        StateSet(v)
    }

    /// The singleton `{s}`.
    pub fn singleton(s: StateId) -> Self {
        StateSet::from_states([s])
    }

    /// The universe `{0, …, n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 128`.
    pub fn universe(n: usize) -> Self {
        assert!(n <= 128);
        if n == 128 {
            StateSet(u128::MAX)
        } else {
            StateSet((1u128 << n) - 1)
        }
    }

    /// Parses the paper's characteristic-vector notation: `"1110000"` is
    /// `{0, 1, 2}` out of 7 states.
    ///
    /// Returns `None` on non-`0`/`1` characters.
    pub fn parse(s: &str) -> Option<Self> {
        let mut v = 0u128;
        for (i, c) in s.chars().enumerate() {
            match c {
                '1' => v |= 1 << i,
                '0' => {}
                _ => return None,
            }
        }
        Some(StateSet(v))
    }

    /// Membership test.
    pub fn contains(&self, s: StateId) -> bool {
        s.0 < 128 && self.0 >> s.0 & 1 == 1
    }

    /// Inserts a state.
    ///
    /// # Panics
    ///
    /// Panics if the state index is ≥ 128.
    pub fn insert(&mut self, s: StateId) {
        assert!(s.0 < 128);
        self.0 |= 1 << s.0;
    }

    /// Set union.
    pub fn union(&self, other: &StateSet) -> StateSet {
        StateSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &StateSet) -> StateSet {
        StateSet(self.0 & other.0)
    }

    /// Set difference.
    pub fn difference(&self, other: &StateSet) -> StateSet {
        StateSet(self.0 & !other.0)
    }

    /// Is `self ⊆ other`?
    pub fn is_subset_of(&self, other: &StateSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Is `self ⊂ other` strictly?
    pub fn is_proper_subset_of(&self, other: &StateSet) -> bool {
        self.0 != other.0 && self.is_subset_of(other)
    }

    /// Number of member states.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True for the empty set.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterator over member states in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..128).filter(|&i| self.0 >> i & 1 == 1).map(StateId)
    }

    /// Renders the characteristic vector over `n` states.
    pub fn to_vector_string(&self, n: usize) -> String {
        (0..n)
            .map(|i| if self.contains(StateId(i)) { '1' } else { '0' })
            .collect()
    }
}

/// An input constraint together with its weight (the number of occurrences
/// of the corresponding product term in the minimized multiple-valued
/// cover; proportional to the product terms saved by satisfying it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightedConstraint {
    /// The state group.
    pub set: StateSet,
    /// Occurrence count in the minimized cover.
    pub weight: u32,
}

/// The input constraints of a machine plus the context needed downstream.
#[derive(Debug, Clone)]
pub struct InputConstraints {
    /// Number of states of the machine.
    pub num_states: usize,
    /// Non-trivial constraints (2 ≤ |ic| < n), sorted by decreasing weight
    /// then increasing set for determinism.
    pub constraints: Vec<WeightedConstraint>,
    /// Cardinality of the minimized multiple-valued cover (the lower bound
    /// on the encoded cover the state assignment tries to reach).
    pub mv_cover_size: usize,
}

/// Extracts weighted input constraints from `fsm` by multiple-valued
/// minimization of its symbolic cover (the KISS front-end step).
pub fn extract_input_constraints(fsm: &Fsm) -> InputConstraints {
    extract_input_constraints_ctl(fsm, &espresso::RunCtl::unlimited())
        .expect("unlimited ctl never cancels")
}

/// [`extract_input_constraints`] under a [`RunCtl`]: the multiple-valued
/// minimization charges the handle, so a deadline cancels even the front-end
/// step of an algorithm run.
pub fn extract_input_constraints_ctl(
    fsm: &Fsm,
    ctl: &espresso::RunCtl,
) -> Result<InputConstraints, espresso::Cancelled> {
    let sc = symbolic_cover(fsm);
    let (min, _) =
        espresso::minimize_with_ctl(&sc.on, &sc.dc, espresso::MinimizeOptions::default(), ctl)?;
    Ok(constraints_from_cover(&sc, &min))
}

/// Derives the weighted constraint list from an already-minimized symbolic
/// cover (used by the symbolic-minimization pipeline too).
pub fn constraints_from_cover(sc: &fsm::SymbolicCover, min: &Cover) -> InputConstraints {
    let n = sc.states;
    let mut counts: BTreeMap<StateSet, u32> = BTreeMap::new();
    for cube in min.iter() {
        let group = StateSet::from_states(sc.present_states(cube));
        if group.len() >= 2 && group.len() < n {
            *counts.entry(group).or_default() += 1;
        }
    }
    let mut constraints: Vec<WeightedConstraint> = counts
        .into_iter()
        .map(|(set, weight)| WeightedConstraint { set, weight })
        .collect();
    constraints.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.set.cmp(&b.set)));
    InputConstraints {
        num_states: n,
        constraints,
        mv_cover_size: min.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_notation() {
        let ic = StateSet::parse("1110000").unwrap();
        assert_eq!(ic.len(), 3);
        assert!(ic.contains(StateId(0)));
        assert!(ic.contains(StateId(2)));
        assert!(!ic.contains(StateId(3)));
        assert_eq!(ic.to_vector_string(7), "1110000");
    }

    #[test]
    fn set_algebra() {
        let a = StateSet::parse("1110000").unwrap();
        let b = StateSet::parse("0111000").unwrap();
        assert_eq!(a.intersection(&b), StateSet::parse("0110000").unwrap());
        assert_eq!(a.union(&b), StateSet::parse("1111000").unwrap());
        assert!(StateSet::parse("0110000").unwrap().is_proper_subset_of(&a));
        assert!(!a.is_proper_subset_of(&a));
        assert_eq!(a.difference(&b), StateSet::parse("1000000").unwrap());
    }

    #[test]
    fn universe_and_singletons() {
        let u = StateSet::universe(7);
        assert_eq!(u.len(), 7);
        let s = StateSet::singleton(StateId(3));
        assert!(s.is_subset_of(&u));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![StateId(3)]);
    }

    #[test]
    fn extraction_groups_states_on_toy_machine() {
        // States a and b behave identically under input 1 (both go to c,
        // output 1): the minimized MV cover must group them.
        let kiss = "\
.i 1
.o 1
.s 3
1 a c 1
1 b c 1
0 a a 0
0 b b 0
1 c c 0
0 c a 0
";
        let m = Fsm::parse_kiss(kiss).unwrap();
        let ics = extract_input_constraints(&m);
        assert!(ics.mv_cover_size < m.num_transitions());
        let ab = StateSet::from_states([StateId(0), StateId(2)]); // a, b (c interned second)
        assert!(
            ics.constraints.iter().any(|c| c.set == ab),
            "constraints: {:?}",
            ics.constraints
        );
    }

    #[test]
    fn extraction_is_deterministic() {
        let m = fsm::benchmarks::by_name("bbtas").unwrap().fsm;
        let a = extract_input_constraints(&m);
        let b = extract_input_constraints(&m);
        assert_eq!(a.constraints, b.constraints);
        assert_eq!(a.mv_cover_size, b.mv_cover_size);
    }

    #[test]
    fn constraints_are_nontrivial() {
        let m = fsm::benchmarks::by_name("shiftreg").unwrap().fsm;
        let ics = extract_input_constraints(&m);
        for c in &ics.constraints {
            assert!(c.set.len() >= 2 && c.set.len() < ics.num_states);
            assert!(c.weight >= 1);
        }
    }
}
