//! `igreedy_code` (Section V): a fast, no-undo heuristic that encodes
//! bottom-up from the deepest constraint intersections.
//!
//! The algorithm computes all intersections of the input constraints
//! (the closure poset), assigns faces to the non-singleton nodes in order of
//! increasing cardinality — giving priority to common subconstraints — with
//! a first-fit face choice and *no backtracking*, then packs state codes
//! into the assigned faces. Constraints whose faces cannot be placed are
//! simply dropped, which is why the algorithm is fast but suboptimal (and
//! why the paper tailors it to code lengths close to the minimum).

use crate::constraint::{InputConstraints, StateSet};
use crate::exact::{fill_lowest_free, min_code_length};
use crate::face::{faces_of_level, Face};
use crate::hybrid::{offer_scored, HybridOutcome};
use crate::poset::InputGraph;
use fsm::{Encoding, StateId};
use std::collections::HashSet;

/// `igreedy_code`: greedy face assignment for a given code length
/// (`None` = minimum).
///
/// # Panics
///
/// Panics if the machine needs more than 63 code bits.
pub fn igreedy_code(ics: &InputConstraints, target_bits: Option<u32>) -> HybridOutcome {
    igreedy_code_ctl(ics, target_bits, &espresso::RunCtl::unlimited())
        .expect("unlimited ctl never cancels")
}

/// [`igreedy_code`] under a [`RunCtl`]: charges one unit per candidate face
/// inspected by the first-fit pass (the only loop that can grow with the
/// code length), keeping even the fast heuristic deadline-responsive.
pub fn igreedy_code_ctl(
    ics: &InputConstraints,
    target_bits: Option<u32>,
    ctl: &espresso::RunCtl,
) -> Result<HybridOutcome, espresso::Cancelled> {
    let tracer = ctl.tracer().clone();
    let _span = tracer.span("greedy.assign");
    let n = ics.num_states;
    let min_length = min_code_length(n);
    assert!(min_length <= 63, "u64 codes support at most 63 state bits");
    let k = target_bits.unwrap_or(min_length).max(min_length).min(63);

    let sets: Vec<StateSet> = ics.constraints.iter().map(|c| c.set).collect();
    let ig = InputGraph::build(n, &sets);

    // Non-singleton, non-universe nodes in order of increasing cardinality
    // (deepest intersections first), heavier original constraints first
    // within a cardinality class.
    let weight_of = |s: &StateSet| -> u32 {
        ics.constraints
            .iter()
            .find(|c| c.set == *s)
            .map(|c| c.weight)
            .unwrap_or(0)
    };
    let mut order: Vec<usize> = (0..ig.len())
        .filter(|&i| i != ig.universe() && ig.set(i).len() >= 2)
        .collect();
    order.sort_by(|&a, &b| {
        ig.set(a)
            .len()
            .cmp(&ig.set(b).len())
            .then(weight_of(&ig.set(b)).cmp(&weight_of(&ig.set(a))))
            .then(ig.set(a).cmp(&ig.set(b)))
    });

    // First-fit face assignment, never undone. Face trials are accumulated
    // locally and flushed to the tracer once, keeping the hot loop at the
    // existing ctl.charge cost.
    let mut assigned: Vec<(StateSet, Face)> = Vec::new();
    let mut used: HashSet<Face> = HashSet::new();
    let mut face_trials: u64 = 0;
    let mut dropped: u64 = 0;
    {
        let _faces_span = tracer.span("greedy.assign_faces");
        for i in order {
            let set = ig.set(i);
            let min_level = ig.min_level(i);
            let mut placed = None;
            'levels: for level in min_level..k {
                for face in faces_of_level(k, level) {
                    ctl.charge(1)?;
                    face_trials += 1;
                    if used.contains(&face) {
                        continue;
                    }
                    if fits(&set, &face, &assigned) {
                        placed = Some(face);
                        break 'levels;
                    }
                }
            }
            if let Some(face) = placed {
                used.insert(face);
                assigned.push((set, face));
            } else {
                dropped += 1;
            }
        }
    }
    tracer.incr("embed.greedy.face_trials", face_trials);
    tracer.incr("embed.greedy.constraints_dropped", dropped);
    let _pack_span = tracer.span("greedy.pack_codes");

    // Pack state codes: states constrained by the most faces first.
    let mut codes = vec![u64::MAX; n];
    let mut taken: HashSet<u64> = HashSet::new();
    let mut states: Vec<usize> = (0..n).collect();
    states.sort_by_key(|&s| {
        std::cmp::Reverse(
            assigned
                .iter()
                .filter(|(set, _)| set.contains(StateId(s)))
                .count(),
        )
    });
    for &s in &states {
        if let Err(cancelled) = ctl.charge(1) {
            // Anytime snapshot: the not-yet-packed states take the lowest
            // untaken vertices.
            fill_lowest_free(&mut codes, k);
            offer_scored(ctl, &ics.constraints, &[], &codes, k, "igreedy.pack");
            return Err(cancelled);
        }
        let preferred = (0..1u64 << k).find(|&v| {
            !taken.contains(&v)
                && assigned
                    .iter()
                    .all(|(set, face)| face.contains_vertex(v) == set.contains(StateId(s)))
        });
        let fallback = (0..1u64 << k).find(|v| !taken.contains(v));
        let v = preferred.or(fallback).expect("2^k >= n vertices available");
        taken.insert(v);
        codes[s] = v;
    }

    let encoding = Encoding::new(k as usize, codes).expect("codes distinct by construction");
    Ok(HybridOutcome::new(ics, encoding))
}

/// Consistency of a candidate face with the faces already placed.
fn fits(set: &StateSet, face: &Face, assigned: &[(StateSet, Face)]) -> bool {
    if (face.cardinality() as usize) < set.len() {
        return false;
    }
    for (t, ft) in assigned {
        if t.is_proper_subset_of(set) {
            if !face.properly_contains(ft) {
                return false;
            }
        } else if set.is_proper_subset_of(t) {
            if !ft.properly_contains(face) {
                return false;
            }
        } else {
            let si = set.intersection(t);
            match face.intersection(ft) {
                Some(fi) => {
                    if si.is_empty() || (fi.cardinality() as usize) < si.len() {
                        return false;
                    }
                }
                None => {
                    if !si.is_empty() {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::WeightedConstraint;

    fn weighted(specs: &[(&str, u32)]) -> InputConstraints {
        let constraints = specs
            .iter()
            .map(|(s, w)| WeightedConstraint {
                set: StateSet::parse(s).unwrap(),
                weight: *w,
            })
            .collect();
        InputConstraints {
            num_states: specs[0].0.len(),
            constraints,
            mv_cover_size: 0,
        }
    }

    #[test]
    fn satisfies_compatible_constraints_at_min_length() {
        let ics = weighted(&[("1100", 2), ("0011", 1)]);
        let out = igreedy_code(&ics, None);
        assert_eq!(out.encoding.bits(), 2);
        assert!(out.unsatisfied.is_empty(), "{:?}", out.unsatisfied);
    }

    #[test]
    fn drops_incompatible_constraints_without_failing() {
        // The triangle again: at most two of the three pairs can live.
        let ics = weighted(&[("1100", 3), ("0110", 2), ("1010", 1)]);
        let out = igreedy_code(&ics, None);
        assert_eq!(out.encoding.codes().len(), 4);
        assert!(!out.satisfied.is_empty());
    }

    #[test]
    fn prioritizes_common_subconstraints() {
        // {0,1} appears as the intersection of two bigger constraints: the
        // greedy bottom-up pass should satisfy both on 6 states (the 3-cube
        // leaves two slack vertices for the two 4-vertex faces).
        let ics = weighted(&[("111000", 1), ("110100", 1)]);
        let out = igreedy_code(&ics, None);
        assert!(
            out.unsatisfied.is_empty(),
            "unsatisfied: {:?}",
            out.unsatisfied
        );
    }

    #[test]
    fn codes_are_distinct_and_complete() {
        let ics = weighted(&[("110000", 1)]);
        let out = igreedy_code(&ics, None);
        let mut codes = out.encoding.codes().to_vec();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 6);
        assert_eq!(out.encoding.bits(), 3);
    }

    #[test]
    fn larger_code_length_helps() {
        // {0,1,2} on 4 states is unsatisfiable in 2 bits (its face would be
        // the whole square) but satisfiable in 3.
        let ics = weighted(&[("1110", 1)]);
        let tight = igreedy_code(&ics, None);
        assert_eq!(tight.weight_satisfied(), 0);
        let roomy = igreedy_code(&ics, Some(3));
        assert_eq!(roomy.weight_satisfied(), 1);
    }

    #[test]
    fn paper_instance_runs_fast_and_satisfies_most() {
        let ics = weighted(&[
            ("1000110", 5),
            ("1110000", 4),
            ("0000111", 3),
            ("0111000", 2),
            ("0000011", 1),
            ("0011000", 1),
        ]);
        let out = igreedy_code(&ics, None);
        assert_eq!(out.encoding.bits(), 3);
        assert!(out.weight_satisfied() > 0);
    }
}
