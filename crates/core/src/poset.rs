//! The input poset / input graph `IG(V, E)` of Section 3.2: the closure of
//! the input constraints under intersection, augmented with the singletons
//! and the universe, with father/child (minimal superset / maximal subset)
//! relations.

use crate::constraint::StateSet;
use fsm::StateId;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The paper's constraint categories (Section 3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// The universe constraint.
    Universe,
    /// Category 1 ("primary"): exactly one father and it is the universe.
    Primary,
    /// Category 2: more than one father (face = intersection of fathers').
    Multi,
    /// Category 3: one father that is not the universe (face inside it).
    Single,
}

/// The input graph: nodes are constraints of `Closure∩[IC] ∪ S ∪ {universe}`,
/// edges are the father/child relations of the Hasse diagram.
#[derive(Debug, Clone)]
pub struct InputGraph {
    num_states: usize,
    nodes: Vec<StateSet>,
    index: BTreeMap<StateSet, usize>,
    fathers: Vec<Vec<usize>>,
    children: Vec<Vec<usize>>,
    universe: usize,
    /// Lazily built pairwise relation cache (see [`Relations`]); shared so
    /// clones reuse one computation.
    relations: OnceLock<Arc<Relations>>,
}

/// Precomputed pairwise relations between input-graph nodes, built once per
/// graph and consulted by the embedding search's `verify` on every
/// candidate face instead of re-deriving set intersections and containments
/// per backtracking node.
#[derive(Debug)]
pub struct Relations {
    n: usize,
    /// `n*n` relation flags, row-major (see the `REL_*` constants).
    flags: Vec<u8>,
    /// `n*n` intersection cardinalities `|set(i) ∩ set(j)|`.
    inter_size: Vec<u16>,
    /// Node cardinalities `|set(i)|`.
    card: Vec<u16>,
    /// Minimum feasible face level per node.
    min_level: Vec<u32>,
    /// Node index of the singleton `{s}` for every state `s`.
    singleton_of: Vec<usize>,
}

/// `set(i) ∩ set(j) = ∅`.
const REL_DISJOINT: u8 = 1;
/// `set(i) ⊊ set(j)`.
const REL_I_IN_J: u8 = 2;
/// `set(j) ⊊ set(i)`.
const REL_J_IN_I: u8 = 4;
/// Nodes `i` and `j` share at least one child in the Hasse diagram.
const REL_SHARES_CHILD: u8 = 8;

impl Relations {
    fn build(ig: &InputGraph) -> Relations {
        let n = ig.len();
        let mut flags = vec![0u8; n * n];
        let mut inter_size = vec![0u16; n * n];
        let mut child_mask: Vec<Vec<u64>> = Vec::with_capacity(n);
        let words = n.div_ceil(64);
        for i in 0..n {
            let mut m = vec![0u64; words];
            for &c in ig.children(i) {
                m[c / 64] |= 1u64 << (c % 64);
            }
            child_mask.push(m);
        }
        for i in 0..n {
            let si = ig.set(i);
            for j in 0..n {
                let sj = ig.set(j);
                let mut f = 0u8;
                let inter = si.intersection(&sj);
                if inter.is_empty() {
                    f |= REL_DISJOINT;
                }
                if si.is_proper_subset_of(&sj) {
                    f |= REL_I_IN_J;
                }
                if sj.is_proper_subset_of(&si) {
                    f |= REL_J_IN_I;
                }
                if child_mask[i]
                    .iter()
                    .zip(&child_mask[j])
                    .any(|(a, b)| a & b != 0)
                {
                    f |= REL_SHARES_CHILD;
                }
                flags[i * n + j] = f;
                inter_size[i * n + j] = inter.len() as u16;
            }
        }
        let card = (0..n).map(|i| ig.set(i).len() as u16).collect();
        let min_level = (0..n).map(|i| ig.min_level(i)).collect();
        let singleton_of = (0..ig.num_states())
            .map(|s| {
                ig.index_of(&StateSet::singleton(StateId(s)))
                    .expect("singleton node present")
            })
            .collect();
        Relations {
            n,
            flags,
            inter_size,
            card,
            min_level,
            singleton_of,
        }
    }

    #[inline]
    fn flag(&self, i: usize, j: usize) -> u8 {
        self.flags[i * self.n + j]
    }

    /// `set(i) ∩ set(j) = ∅`?
    #[inline]
    pub fn disjoint(&self, i: usize, j: usize) -> bool {
        self.flag(i, j) & REL_DISJOINT != 0
    }

    /// `set(i) ⊊ set(j)`?
    #[inline]
    pub fn proper_subset(&self, i: usize, j: usize) -> bool {
        self.flag(i, j) & REL_I_IN_J != 0
    }

    /// Do `i` and `j` share a child in the Hasse diagram?
    #[inline]
    pub fn shares_child(&self, i: usize, j: usize) -> bool {
        self.flag(i, j) & REL_SHARES_CHILD != 0
    }

    /// `|set(i) ∩ set(j)|`.
    #[inline]
    pub fn inter_size(&self, i: usize, j: usize) -> usize {
        self.inter_size[i * self.n + j] as usize
    }

    /// `|set(i)|`.
    #[inline]
    pub fn card(&self, i: usize) -> usize {
        self.card[i] as usize
    }

    /// Minimum feasible face level of node `i`.
    #[inline]
    pub fn min_level(&self, i: usize) -> u32 {
        self.min_level[i]
    }

    /// Node index of the singleton `{s}`.
    #[inline]
    pub fn singleton_of(&self, s: usize) -> usize {
        self.singleton_of[s]
    }
}

impl InputGraph {
    /// Builds the input graph from raw constraints over `num_states` states.
    ///
    /// Degenerate inputs (empty sets, duplicates) are tolerated; singletons
    /// and the universe are always added.
    ///
    /// # Panics
    ///
    /// Panics if `num_states` is 0 or exceeds 128.
    pub fn build(num_states: usize, constraints: &[StateSet]) -> InputGraph {
        assert!((1..=128).contains(&num_states));
        let universe_set = StateSet::universe(num_states);

        // Closure under pairwise intersection.
        let mut nodes: Vec<StateSet> = Vec::new();
        let mut seen: BTreeMap<StateSet, ()> = BTreeMap::new();
        let push = |s: StateSet, nodes: &mut Vec<StateSet>, seen: &mut BTreeMap<StateSet, ()>| {
            if !s.is_empty() && seen.insert(s, ()).is_none() {
                nodes.push(s);
            }
        };
        for &c in constraints {
            push(c, &mut nodes, &mut seen);
        }
        let mut frontier = 0;
        while frontier < nodes.len() {
            let end = nodes.len();
            for i in 0..end {
                for j in frontier.max(i + 1)..end {
                    let inter = nodes[i].intersection(&nodes[j]);
                    push(inter, &mut nodes, &mut seen);
                }
            }
            frontier = end;
        }
        for s in 0..num_states {
            push(StateSet::singleton(StateId(s)), &mut nodes, &mut seen);
        }
        push(universe_set, &mut nodes, &mut seen);

        // Sort: descending cardinality (universe first), then set order, so
        // fathers precede children and iteration is deterministic.
        nodes.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
        let index: BTreeMap<StateSet, usize> =
            nodes.iter().enumerate().map(|(i, s)| (*s, i)).collect();
        let universe = index[&universe_set];

        // Fathers: minimal strict supersets among nodes.
        let mut fathers = vec![Vec::new(); nodes.len()];
        let mut children = vec![Vec::new(); nodes.len()];
        for i in 0..nodes.len() {
            let supersets: Vec<usize> = (0..nodes.len())
                .filter(|&j| nodes[i].is_proper_subset_of(&nodes[j]))
                .collect();
            let minimal: Vec<usize> = supersets
                .iter()
                .copied()
                .filter(|&j| {
                    !supersets
                        .iter()
                        .any(|&l| l != j && nodes[l].is_proper_subset_of(&nodes[j]))
                })
                .collect();
            for &j in &minimal {
                fathers[i].push(j);
                children[j].push(i);
            }
        }

        InputGraph {
            num_states,
            nodes,
            index,
            fathers,
            children,
            universe,
            relations: OnceLock::new(),
        }
    }

    /// The pairwise relation cache, built on first use and shared after.
    pub fn relations(&self) -> &Relations {
        self.relations
            .get_or_init(|| Arc::new(Relations::build(self)))
    }

    /// Number of machine states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// All constraint nodes (universe first, descending cardinality).
    pub fn nodes(&self) -> &[StateSet] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph is trivial (never: the universe always exists).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node index of a constraint set, if present.
    pub fn index_of(&self, s: &StateSet) -> Option<usize> {
        self.index.get(s).copied()
    }

    /// Index of the universe node.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The set at node `i`.
    pub fn set(&self, i: usize) -> StateSet {
        self.nodes[i]
    }

    /// Fathers (minimal strict supersets) of node `i`.
    pub fn fathers(&self, i: usize) -> &[usize] {
        &self.fathers[i]
    }

    /// Children (maximal strict subsets) of node `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// The paper's category of node `i`.
    pub fn category(&self, i: usize) -> Category {
        if i == self.universe {
            Category::Universe
        } else if self.fathers[i].len() > 1 {
            Category::Multi
        } else if self.fathers[i] == [self.universe] {
            Category::Primary
        } else {
            Category::Single
        }
    }

    /// Indices of the primary (category 1) nodes, in node order.
    pub fn primaries(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.category(i) == Category::Primary)
            .collect()
    }

    /// Minimum feasible face level for node `i`: `ceil(log2(|ic|))`.
    pub fn min_level(&self, i: usize) -> u32 {
        let c = self.nodes[i].len();
        (usize::BITS - (c - 1).leading_zeros()).min(63)
    }
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
    fn example_3_1_2_closure() {
        // Closure∩[IC] from Example 3.1.2 (plus universe).
        let ig = InputGraph::build(7, &paper_ic());
        let expected = [
            "1111111", "1110000", "0111000", "0000111", "1000110", "0000011", "0011000", "0110000",
            "0000110", "1000000", "0100000", "0010000", "0001000", "0000100", "0000010", "0000001",
        ];
        assert_eq!(ig.len(), expected.len());
        for e in expected {
            let s = StateSet::parse(e).unwrap();
            assert!(ig.index_of(&s).is_some(), "missing {e}");
        }
    }

    #[test]
    fn example_3_2_1_fathers() {
        let ig = InputGraph::build(7, &paper_ic());
        let f = |s: &str| -> Vec<StateSet> {
            let i = ig.index_of(&StateSet::parse(s).unwrap()).unwrap();
            let mut v: Vec<StateSet> = ig.fathers(i).iter().map(|&j| ig.set(j)).collect();
            v.sort();
            v
        };
        let sets = |names: &[&str]| -> Vec<StateSet> {
            let mut v: Vec<StateSet> = names.iter().map(|n| StateSet::parse(n).unwrap()).collect();
            v.sort();
            v
        };
        assert_eq!(f("1111111"), sets(&[]));
        assert_eq!(f("1110000"), sets(&["1111111"]));
        assert_eq!(f("0011000"), sets(&["0111000"]));
        assert_eq!(f("0110000"), sets(&["0111000", "1110000"]));
        assert_eq!(f("0000011"), sets(&["0000111"]));
        assert_eq!(f("0000110"), sets(&["0000111", "1000110"]));
        assert_eq!(f("0010000"), sets(&["0011000", "0110000"]));
        assert_eq!(f("0001000"), sets(&["0011000"]));
        assert_eq!(f("0100000"), sets(&["0110000"]));
        assert_eq!(f("0000010"), sets(&["0000011", "0000110"]));
        assert_eq!(f("0000001"), sets(&["0000011"]));
        // The paper's Example 3.2.1 prints F(0000100) = (1110000, 1000110),
        // which is inconsistent with its own closure (state 5 is in neither
        // 1110000 nor — minimally — 1000110, given 0000110 is also a node).
        // The minimal strict superset of {5} in the closure is 0000110.
        assert_eq!(f("0000100"), sets(&["0000110"]));
    }

    #[test]
    fn example_3_3_1_1_categories() {
        let ig = InputGraph::build(7, &paper_ic());
        let cat = |s: &str| ig.category(ig.index_of(&StateSet::parse(s).unwrap()).unwrap());
        for s in ["1110000", "0111000", "0000111", "1000110"] {
            assert_eq!(cat(s), Category::Primary, "{s}");
        }
        for s in ["0000110", "0110000", "0010000", "0000010", "1000000"] {
            assert_eq!(cat(s), Category::Multi, "{s}");
        }
        for s in [
            "0011000", "0000011", "0001000", "0100000", "0000001", "0000100",
        ] {
            assert_eq!(cat(s), Category::Single, "{s}");
        }
    }

    #[test]
    fn min_levels() {
        let ig = InputGraph::build(7, &paper_ic());
        let lvl = |s: &str| ig.min_level(ig.index_of(&StateSet::parse(s).unwrap()).unwrap());
        assert_eq!(lvl("1110000"), 2); // 3 states -> level 2
        assert_eq!(lvl("0000011"), 1);
        assert_eq!(lvl("1000000"), 0);
        assert_eq!(lvl("1111111"), 3);
    }

    #[test]
    fn fathers_precede_children_in_node_order() {
        let ig = InputGraph::build(7, &paper_ic());
        for i in 0..ig.len() {
            for &fa in ig.fathers(i) {
                assert!(fa < i, "father after child");
            }
        }
    }

    #[test]
    fn empty_constraint_list_still_has_singletons() {
        let ig = InputGraph::build(3, &[]);
        assert_eq!(ig.len(), 4); // universe + 3 singletons
        for s in 0..3 {
            let i = ig.index_of(&StateSet::singleton(StateId(s))).unwrap();
            assert_eq!(ig.category(i), Category::Primary);
        }
    }
}
