//! Symbolic minimization revisited (Section VI-6.1): the modified De Micheli
//! loop that produces a minimal encoding-independent cover together with the
//! output-covering DAG `G`, yielding the paired constraint sets `(IC, OC)`
//! of the ordered face hypercube embedding problem.
//!
//! Both paper modifications are implemented:
//!
//! 1. every product term of the cover not committed to the on-set or
//!    off-set of the current next state rides in its don't-care set, so the
//!    binary outputs are fully described at every stage;
//! 2. the covering relations of stage `i` are accepted only when the
//!    minimization actually decreased the on-set cardinality of next state
//!    `i` (otherwise the original implicants are kept and no edges enter
//!    `G`).
//!
//! The final `minimize(P)` of step 10 runs against the machine's *own*
//! don't-care set only (not the cross-state liberties used inside the loop):
//! the result then stays within `P ∪ DC`, so every next-state assertion it
//! makes over another state's region was already present in some accepted
//! `M_i` and is covered by a recorded relation of `G` — no unsound merges.

use crate::constraint::{constraints_from_cover, InputConstraints, StateSet};
use espresso::{
    minimize_with_ctl, Cancelled, Cover, Cube, CubeSpace, MinimizeOptions, RunCtl, VarKind,
};
use fsm::{symbolic_cover, Fsm, StateId, SymbolicCover};
use std::collections::{BTreeMap, BTreeSet};

/// One cluster of output constraints: the edges of `G` entering next state
/// `next`, gained by `weight` product terms (Section VI-6.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputCluster {
    /// The next state whose minimization produced this cluster.
    pub next: StateId,
    /// Covering pairs `(u, v)`: the code of `u` must bit-wise strictly
    /// cover the code of `v`. Here `v = next` and `u` ranges over the states
    /// whose on-sets the merged implicants intersect.
    pub covers: Vec<(StateId, StateId)>,
    /// Product terms saved by satisfying the whole cluster.
    pub weight: u32,
}

/// The result of symbolic minimization: the paired `(IC, OC)` constraint
/// sets of the ordered face hypercube embedding problem (Section VI-6.2),
/// read off the final minimal cover `FinalP`. Instances like the paper's
/// Example 6.2.2.1 can also be posed directly as a literal.
#[derive(Debug, Clone)]
pub struct SymbolicMin {
    /// All weighted input constraints of `FinalP`.
    pub ic: InputConstraints,
    /// Input constraints clustered per next state (`IC_i`).
    pub ic_clusters: BTreeMap<usize, Vec<StateSet>>,
    /// Input constraints tied only to proper outputs (`IC_o`).
    pub ic_outputs: Vec<StateSet>,
    /// Output-constraint clusters (`OC_i`) with their weights.
    pub oc_clusters: Vec<OutputCluster>,
}

/// Options for [`symbolic_minimize_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicMinOptions {
    /// Paper modification 2: accept a stage's covering relations only when
    /// the minimization decreased the on-set cardinality. Turning this off
    /// reproduces the original De Micheli loop (ablation).
    pub require_gain: bool,
}

impl Default for SymbolicMinOptions {
    fn default() -> Self {
        SymbolicMinOptions { require_gain: true }
    }
}

/// Runs the symbolic minimization loop on `fsm` with default options.
pub fn symbolic_minimize(fsm: &Fsm) -> SymbolicMin {
    symbolic_minimize_with(fsm, SymbolicMinOptions::default())
}

/// Runs the symbolic minimization loop with explicit options.
pub fn symbolic_minimize_with(fsm: &Fsm, opts: SymbolicMinOptions) -> SymbolicMin {
    symbolic_minimize_ctl(fsm, opts, &RunCtl::unlimited()).expect("unlimited ctl never cancels")
}

/// [`symbolic_minimize_with`] under a [`RunCtl`]: every per-state inner
/// minimization and the final `minimize(P)` charge the handle, so the
/// (expensive) symbolic front-end of `iohybrid`/`iovariant` honours
/// portfolio deadlines too.
pub fn symbolic_minimize_ctl(
    fsm: &Fsm,
    opts: SymbolicMinOptions,
    ctl: &RunCtl,
) -> Result<SymbolicMin, Cancelled> {
    let _span = ctl.tracer().span("symbolic.minimize");
    let (sc, final_cover, oc_clusters) = minimize_loop(fsm, opts, ctl)?;
    let n = sc.states;
    let ic = constraints_from_cover(&sc, &final_cover);

    // Cluster the input constraints by the next state their cubes assert.
    let mut ic_clusters: BTreeMap<usize, Vec<StateSet>> = BTreeMap::new();
    let mut ic_outputs: Vec<StateSet> = Vec::new();
    for c in final_cover.iter() {
        let group = StateSet::from_states(sc.present_states(c));
        if group.len() < 2 || group.len() >= n {
            continue;
        }
        let nexts = sc.next_states(c);
        if nexts.is_empty() {
            if !ic_outputs.contains(&group) {
                ic_outputs.push(group);
            }
        } else {
            for ns in nexts {
                let entry = ic_clusters.entry(ns.0).or_default();
                if !entry.contains(&group) {
                    entry.push(group);
                }
            }
        }
    }

    Ok(SymbolicMin {
        ic,
        ic_clusters,
        ic_outputs,
        oc_clusters,
    })
}

/// The modified De Micheli loop of the module docs: returns the machine's
/// symbolic cover, the final minimal cover `FinalP` of step 10 and the
/// output clusters of `G`.
fn minimize_loop(
    fsm: &Fsm,
    opts: SymbolicMinOptions,
    ctl: &RunCtl,
) -> Result<(SymbolicCover, Cover, Vec<OutputCluster>), Cancelled> {
    let tracer = ctl.tracer().clone();
    let sc = symbolic_cover(fsm);
    let n = sc.states;
    let space = sc.space().clone();
    let ov = space.output_var().expect("symbolic space has output var");

    // On_k: cubes asserting next state k.
    let mut on: Vec<Vec<Cube>> = vec![Vec::new(); n];
    for c in sc.on.iter() {
        for (k, on_k) in on.iter_mut().enumerate() {
            if c.has_part(&space, ov, k as u32) {
                on_k.push(c.clone());
            }
        }
    }

    // G as a set of edges (u, v): u covers v. Descendants(i) = {j : i ⤳ j}.
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    let descendants = |edges: &BTreeSet<(usize, usize)>, i: usize| -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        let mut stack = vec![i];
        while let Some(u) = stack.pop() {
            for &(a, b) in edges.iter() {
                if a == u && !out.contains(&b) && b != i {
                    out.insert(b);
                    stack.push(b);
                }
            }
        }
        out
    };

    // Reduced space for per-state minimization: same inputs and present
    // state, output variable = [ next-state-i flag, binary outputs ].
    let outs = sc.outputs;
    let mut sizes: Vec<u32> = (0..sc.inputs).map(|_| 2).collect();
    let mut kinds: Vec<VarKind> = vec![VarKind::Binary; sc.inputs];
    sizes.push(n as u32);
    kinds.push(VarKind::Multi);
    sizes.push((1 + outs) as u32);
    kinds.push(VarKind::Output);
    let rspace = CubeSpace::new(&sizes, &kinds);
    let rov = sc.inputs + 1;

    // Maps a full-space cube into the reduced space. `flag` controls the
    // next-state-i part of the reduced output field.
    let map_cube = |c: &Cube, flag: bool| -> Cube {
        let mut r = Cube::zero(&rspace);
        for v in 0..=sc.inputs {
            for p in 0..space.parts(v) {
                if c.has_part(&space, v, p) {
                    r.set_part(&rspace, v, p);
                }
            }
        }
        if flag {
            r.set_part(&rspace, rov, 0);
        }
        for o in 0..outs {
            if c.has_part(&space, ov, (n + o) as u32) {
                r.set_part(&rspace, rov, (1 + o) as u32);
            }
        }
        r
    };
    // Maps a reduced-space cube back, with next-state part `i`.
    let unmap_cube = |c: &Cube, i: usize| -> Cube {
        let mut r = Cube::zero(&space);
        for v in 0..=sc.inputs {
            for p in 0..rspace.parts(v) {
                if c.has_part(&rspace, v, p) {
                    r.set_part(&space, v, p);
                }
            }
        }
        if c.has_part(&rspace, rov, 0) {
            r.set_part(&space, ov, i as u32);
        }
        for o in 0..outs {
            if c.has_part(&rspace, rov, (1 + o) as u32) {
                r.set_part(&space, ov, (n + o) as u32);
            }
        }
        r
    };

    // Process next states in decreasing on-set size (largest first: they
    // have the most to gain and constrain later stages the least).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(on[i].len()));

    let mut final_cubes: Vec<Cube> = Vec::new();
    let mut oc_clusters: Vec<OutputCluster> = Vec::new();
    let mut cluster_cubes: BTreeMap<usize, Vec<Cube>> = BTreeMap::new();

    // Cost gate: very large tables get the single-pass inner minimizer
    // (expand + irredundant only), which finds the same merges and covering
    // relations at a fraction of the cost.
    let single_pass = fsm.num_transitions() > 200;
    for &i in &order {
        // Nothing can merge below two implicants: keep the originals and
        // skip the (expensive) minimization stage entirely.
        if on[i].len() <= 1 {
            if !on[i].is_empty() {
                cluster_cubes.insert(i, on[i].clone());
                final_cubes.extend(on[i].iter().cloned());
            }
            continue;
        }
        let off_states = descendants(&edges, i);
        // F: the on-set of next state i.
        let f = Cover::from_cubes(
            rspace.clone(),
            on[i].iter().map(|c| map_cube(c, true)).collect(),
        );
        // D: every other state's implicants not committed to the off-set,
        // with the next-state-i flag raised (their next-state bit i is free
        // exactly when a covering relation may absorb it), plus the
        // machine-level don't cares.
        let mut d_cubes: Vec<Cube> = Vec::new();
        for (j, on_j) in on.iter().enumerate() {
            if j == i || off_states.contains(&j) {
                continue;
            }
            d_cubes.extend(on_j.iter().map(|c| map_cube(c, true)));
        }
        for c in sc.dc.iter() {
            // Machine DC rows: unspecified regions carry a full output var,
            // dash-output rows carry only binary output parts; mapping with
            // flag = full-output detection.
            let full_next = c.has_part(&space, ov, i as u32);
            d_cubes.push(map_cube(c, full_next));
        }
        let d = Cover::from_cubes(rspace.clone(), d_cubes);

        let min_opts = MinimizeOptions {
            verify: false,
            single_pass,
            ..MinimizeOptions::default()
        };
        tracer.incr("espresso.symbolic.passes", 1);
        let pass_span = tracer.span("symbolic.state_pass");
        let (mb, _) = minimize_with_ctl(&f, &d, min_opts, ctl)?;
        drop(pass_span);
        let m_i: Vec<Cube> = mb
            .iter()
            .filter(|c| c.has_part(&rspace, rov, 0))
            .cloned()
            .collect();

        let accept = if opts.require_gain {
            // Paper modification 2: only when the cardinality dropped.
            m_i.len() < on[i].len()
        } else {
            m_i.len() <= on[i].len()
        };
        if accept {
            // Accept: record covering relations where the merged implicants
            // intersect other states' on-sets.
            let w = (on[i].len() - m_i.len()) as u32;
            let mut covers: BTreeSet<(usize, usize)> = BTreeSet::new();
            for m in &m_i {
                for (j, on_j) in on.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let hit = on_j.iter().any(|c| {
                        let rc = map_cube(c, true);
                        input_parts_intersect(&rspace, rov, m, &rc)
                    });
                    if hit {
                        covers.insert((j, i));
                    }
                }
            }
            for &(u, v) in &covers {
                edges.insert((u, v));
            }
            let mapped: Vec<Cube> = mb.iter().map(|c| unmap_cube(c, i)).collect();
            cluster_cubes.insert(i, mapped.clone());
            final_cubes.extend(mapped);
            oc_clusters.push(OutputCluster {
                next: StateId(i),
                covers: covers
                    .into_iter()
                    .map(|(u, v)| (StateId(u), StateId(v)))
                    .collect(),
                weight: w,
            });
        } else {
            let originals: Vec<Cube> = on[i].to_vec();
            cluster_cubes.insert(i, originals.clone());
            final_cubes.extend(originals);
        }
    }

    let p = Cover::from_cubes(space.clone(), final_cubes);
    let final_span = tracer.span("symbolic.final_minimize");
    let (final_cover, _) = minimize_with_ctl(
        &p,
        &sc.dc,
        MinimizeOptions {
            verify: false,
            single_pass,
            ..MinimizeOptions::default()
        },
        ctl,
    )?;
    drop(final_span);
    Ok((sc, final_cover, oc_clusters))
}

/// Do two reduced-space cubes intersect on the input half (all variables but
/// the output one)?
fn input_parts_intersect(space: &CubeSpace, ov: usize, a: &Cube, b: &Cube) -> bool {
    (0..space.num_vars())
        .filter(|&v| v != ov)
        .all(|v| (0..space.parts(v)).any(|p| a.has_part(space, v, p) && b.has_part(space, v, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A machine where two states' transitions into a common target under
    /// the same input can merge only through a covering relation.
    const COVER_FRIENDLY: &str = "\
.i 1
.o 1
.s 4
0 a b 0
1 a c 1
0 b c 0
1 b c 1
0 c d 0
1 c d 1
0 d a 0
1 d a 0
";

    fn final_cover_of(m: &Fsm) -> (Cover, Vec<OutputCluster>) {
        let ctl = RunCtl::unlimited();
        let (_, cover, clusters) = minimize_loop(m, SymbolicMinOptions::default(), &ctl).unwrap();
        (cover, clusters)
    }

    #[test]
    fn produces_a_cover_no_larger_than_input() {
        let m = Fsm::parse_kiss(COVER_FRIENDLY).unwrap();
        let (cover, _) = final_cover_of(&m);
        assert!(cover.len() <= m.num_transitions());
        assert!(!cover.is_empty());
    }

    #[test]
    fn clusters_have_positive_weights_and_edges() {
        let m = Fsm::parse_kiss(COVER_FRIENDLY).unwrap();
        let sym = symbolic_minimize(&m);
        for c in &sym.oc_clusters {
            assert!(c.weight >= 1);
            for (u, v) in &c.covers {
                assert_ne!(u, v);
                assert_eq!(*v, c.next);
            }
        }
    }

    #[test]
    fn covering_graph_is_acyclic() {
        let m = fsm::benchmarks::by_name("bbtas").unwrap().fsm;
        let sym = symbolic_minimize(&m);
        // Kahn-style check on the union of all covering edges.
        let edges: Vec<(StateId, StateId)> = (sym.oc_clusters.iter())
            .flat_map(|c| c.covers.iter().copied())
            .collect();
        let mut nodes: BTreeSet<usize> = BTreeSet::new();
        for (u, v) in &edges {
            nodes.insert(u.0);
            nodes.insert(v.0);
        }
        let mut remaining = edges.clone();
        let mut alive: BTreeSet<usize> = nodes.clone();
        while let Some(&leaf) = alive
            .iter()
            .find(|&&x| !remaining.iter().any(|(u, _)| u.0 == x))
        {
            alive.remove(&leaf);
            remaining.retain(|(u, v)| u.0 != leaf && v.0 != leaf);
        }
        assert!(
            remaining.is_empty() || alive.is_empty() != remaining.is_empty(),
            "cycle detected in covering graph: {remaining:?}"
        );
        assert!(remaining.is_empty(), "cycle: {remaining:?}");
    }

    #[test]
    fn input_constraints_accompany_the_cover() {
        let m = fsm::benchmarks::by_name("shiftreg").unwrap().fsm;
        let sym = symbolic_minimize(&m);
        assert_eq!(sym.ic.num_states, 8);
        // Shiftreg famously groups states by their output bit.
        assert!(!sym.ic.constraints.is_empty());
    }

    #[test]
    fn acceptance_rule_requires_gain() {
        // A machine with nothing to merge: no clusters should carry edges.
        const FLAT: &str = "\
.i 1
.o 0
.s 2
0 a b
1 a a
0 b a
1 b b
";
        // KISS rows need 4 fields; give an output of width 1 instead.
        let kiss = FLAT
            .replace(".o 0", ".o 1")
            .replace(" a\n", " a 0\n")
            .replace(" b\n", " b 1\n");
        let m = Fsm::parse_kiss(&kiss).unwrap();
        let sym = symbolic_minimize(&m);
        for c in &sym.oc_clusters {
            assert!(c.weight >= 1);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let m = fsm::benchmarks::by_name("bbtas").unwrap().fsm;
        assert_eq!(final_cover_of(&m), final_cover_of(&m));
    }
}
