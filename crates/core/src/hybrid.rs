//! `ihybrid_code` (Section IV): greedy weight-ordered constraint
//! satisfaction via the bounded-backtrack `semiexact_code` on the minimum
//! code length, followed by `project_code` dimension raising (Section
//! IV-4.2, Proposition 4.2.1) up to the requested code length.
//!
//! `kiss_code` is that loop projecting until every constraint holds, and
//! `iohybrid_code` and `iovariant_code` ([`crate::iohybrid`]) are that loop
//! with an output-cluster stage between acceptance and projection. All four
//! run the one private `accept_and_project` below.

use crate::constraint::{InputConstraints, StateSet, WeightedConstraint};
use crate::exact::{constraint_satisfied, io_semiexact_code_ctl, min_code_length};
use crate::iohybrid::cluster_satisfied;
use crate::symbolic_min::OutputCluster;
use espresso::{Cancelled, RunCtl};
use fsm::Encoding;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Tuning knobs for [`ihybrid_code`], [`kiss_code`],
/// [`iohybrid_code`](crate::iohybrid::iohybrid_code) and
/// [`iovariant_code`](crate::iohybrid::iovariant_code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridOptions {
    /// The `max_work` bound on each `semiexact_code` call (the paper's
    /// "magic number", Section IV-4.1).
    pub max_work: u64,
    /// Ignored: each `semiexact_code` call is sequential, so `max_work`
    /// bounds it as a whole.
    #[deprecated(note = "ignored: the embedding search is always sequential")]
    pub embed_jobs: usize,
}

impl Default for HybridOptions {
    #[allow(deprecated)]
    fn default() -> Self {
        HybridOptions {
            max_work: 200_000,
            embed_jobs: 0,
        }
    }
}

/// Outcome of `ihybrid_code` (also reused by the other heuristics).
#[derive(Debug, Clone)]
pub struct HybridOutcome {
    /// The produced encoding.
    pub encoding: Encoding,
    /// Constraints satisfied by the final codes.
    pub satisfied: Vec<WeightedConstraint>,
    /// Constraints left unsatisfied.
    pub unsatisfied: Vec<WeightedConstraint>,
    /// The minimum code length for this machine (where the semiexact phase
    /// ran).
    pub min_length: u32,
}

impl HybridOutcome {
    /// Splits the constraints of `ics` by satisfaction under `encoding`.
    pub fn new(ics: &InputConstraints, encoding: Encoding) -> HybridOutcome {
        let bits = encoding.bits() as u32;
        let (satisfied, unsatisfied) = ics
            .constraints
            .iter()
            .copied()
            .partition(|c| constraint_satisfied(&c.set, encoding.codes(), bits));
        HybridOutcome {
            encoding,
            satisfied,
            unsatisfied,
            min_length: min_code_length(ics.num_states),
        }
    }

    /// Total weight of satisfied constraints (`wsat` of Table VI).
    pub fn weight_satisfied(&self) -> u32 {
        self.satisfied.iter().map(|c| c.weight).sum()
    }

    /// Total weight of unsatisfied constraints (`wunsat` of Table VI).
    pub fn weight_unsatisfied(&self) -> u32 {
        self.unsatisfied.iter().map(|c| c.weight).sum()
    }
}

/// Offers a complete code vector to the ctl's best-so-far slot, scored by
/// Σ(weight + 1) over the satisfied input constraints plus the number of
/// honoured output clusters (later equal-score offers win), so a
/// cancellation mid-search still leaves [`crate::driver::run_traced`] a
/// valid anytime encoding.
pub(crate) fn offer_scored(
    ctl: &RunCtl,
    constraints: &[WeightedConstraint],
    clusters: &[OutputCluster],
    codes: &[u64],
    bits: u32,
    source: &'static str,
) {
    let inputs: u64 = constraints
        .iter()
        .filter(|c| constraint_satisfied(&c.set, codes, bits))
        .map(|c| c.weight as u64 + 1)
        .sum();
    let outputs = clusters.iter().filter(|c| cluster_satisfied(codes, c));
    ctl.offer_best(bits, codes, source, inputs + outputs.count() as u64);
}

/// `project_code` (Section IV-4.2): adds one dimension to `codes`, raising a
/// chosen subset of states into the new half-cube so that at least one more
/// constraint from `unsatisfied` becomes satisfied while every satisfied
/// constraint stays satisfied (Proposition 4.2.1 — any raise set preserves
/// previously-satisfied constraints, because exclusion in the first `bits`
/// dimensions persists).
///
/// The target is the unsatisfied constraint of maximum weight; the raise set
/// is its member set, or — when smaller — the set of offending non-members
/// inside its spanned face (raising the offenders *out* instead).
pub fn project_code(codes: &mut [u64], bits: &mut u32, unsatisfied: &[WeightedConstraint]) {
    let target = unsatisfied
        .iter()
        .max_by_key(|c| c.weight)
        .expect("project_code needs an unsatisfied constraint");
    let raise_sets_for = |c: &WeightedConstraint| -> [Vec<usize>; 2] {
        let members: Vec<usize> = c.set.iter().map(|s| s.0).collect();
        let span = crate::face::Face::span_of(*bits, members.iter().map(|&s| codes[s]));
        let offenders: Vec<usize> = (0..codes.len())
            .filter(|&s| !c.set.contains(fsm::StateId(s)) && span.contains_vertex(codes[s]))
            .collect();
        [members, offenders]
    };

    // Candidate raise sets: members or offenders of each unsatisfied
    // constraint. Any raise set preserves satisfied constraints, so we pick
    // the one that (a) satisfies the max-weight target — the members of the
    // target always do, so a valid candidate exists — and (b) maximizes the
    // total weight newly satisfied, preferring fewer raised states on ties.
    let mut best: Option<(Vec<usize>, u32, usize)> = None;
    for c in unsatisfied {
        for raise in raise_sets_for(c) {
            let mut trial: Vec<u64> = codes.to_vec();
            for &s in &raise {
                trial[s] |= 1 << *bits;
            }
            if !constraint_satisfied(&target.set, &trial, *bits + 1) {
                continue;
            }
            let gained: u32 = unsatisfied
                .iter()
                .filter(|u| constraint_satisfied(&u.set, &trial, *bits + 1))
                .map(|u| u.weight)
                .sum();
            let better = match &best {
                None => true,
                Some((br, bg, bl)) => {
                    gained > *bg || (gained == *bg && raise.len() < *bl && br != &raise)
                }
            };
            if better {
                let len = raise.len();
                best = Some((raise, gained, len));
            }
        }
    }
    let (raise, _, _) = best.expect("target members always qualify");
    for &s in &raise {
        codes[s] |= 1 << *bits;
    }
    *bits += 1;
}

/// `iovariant_code`'s companion sets: the input constraints tied only to
/// proper outputs (`IC_o`), the only ones its first stage accepts, and those
/// clustered per next state (`IC_i`), which join their cluster's attempt.
pub(crate) type Companions<'a> = (&'a [StateSet], &'a BTreeMap<usize, Vec<StateSet>>);

/// The constraint-acceptance loop of `ihybrid_code`, `kiss_code`,
/// `iohybrid_code` and `iovariant_code`, in four steps at the minimum code
/// length and then past it:
///
/// 1. input constraints in weight order, each accepted when one
///    `semiexact_code` search embeds it with those accepted before;
/// 2. output clusters by decreasing weight, each accepted when
///    `io_semiexact_code` embeds its covering pairs with those accepted
///    before (and, with `companions`, its `IC_i`);
/// 3. if nothing was accepted, the bare poset's embedding, or sequential
///    codes as a last resort;
/// 4. `project_code` until every input constraint holds or the codes reach
///    `target_bits`.
///
/// Each accepted constraint or cluster and each projection offers its codes
/// to `ctl` ([`offer_scored`]) under `sources` (acceptance, projection), so a
/// run stopped inside a search degrades to the last codes it accepted,
/// unless the search's own partial snapshot scores at least as well. Every
/// search charges `ctl` per candidate face and each projection charges
/// proportional to the state count.
pub(crate) fn accept_and_project(
    ics: &InputConstraints,
    clusters: &[OutputCluster],
    companions: Option<Companions>,
    target_bits: Option<u32>,
    opts: HybridOptions,
    sources: [&'static str; 2],
    ctl: &RunCtl,
) -> Result<Encoding, Cancelled> {
    let n = ics.num_states;
    let min_length = min_code_length(n);
    assert!(min_length <= 63, "u64 codes support at most 63 state bits");
    let target = target_bits.unwrap_or(min_length).max(min_length).min(63);
    let [accepted, projected] = sources;
    let offer = |codes: &[u64], bits: u32, source: &'static str| {
        offer_scored(ctl, &ics.constraints, clusters, codes, bits, source)
    };
    let search = |sets: &[StateSet], covers: &[(usize, usize)]| {
        io_semiexact_code_ctl(n, sets, covers, min_length, opts.max_work, ctl)
    };

    let mut sets: Vec<StateSet> = Vec::new();
    let mut codes: Option<Vec<u64>> = None;
    let stage1 = ics
        .constraints
        .iter()
        .filter(|c| companions.is_none_or(|(ic_o, _)| ic_o.contains(&c.set)));
    for c in stage1 {
        sets.push(c.set);
        match search(&sets, &[])? {
            Some(e) => {
                offer(&e.codes, min_length, accepted);
                codes = Some(e.codes);
            }
            None => {
                sets.pop();
            }
        }
    }

    let mut covers: Vec<(usize, usize)> = Vec::new();
    let mut by_weight: Vec<&OutputCluster> = clusters.iter().collect();
    by_weight.sort_by_key(|c| Reverse(c.weight));
    for cluster in by_weight {
        let mut with_sets = sets.clone();
        let ic_i = companions.and_then(|(_, ic_i)| ic_i.get(&cluster.next.0));
        for set in ic_i.into_iter().flatten() {
            if !with_sets.contains(set) {
                with_sets.push(*set);
            }
        }
        let mut with_covers = covers.clone();
        with_covers.extend(cluster.covers.iter().map(|&(u, v)| (u.0, v.0)));
        if let Some(e) = search(&with_sets, &with_covers)? {
            offer(&e.codes, min_length, accepted);
            codes = Some(e.codes);
            (sets, covers) = (with_sets, with_covers);
        }
    }

    let mut codes = match codes {
        Some(c) => c,
        None => search(&[], &[])?
            .map(|e| e.codes)
            .unwrap_or_else(|| (0..n as u64).collect()),
    };
    let mut bits = min_length;
    offer(&codes, bits, accepted);

    let unsatisfied = |codes: &[u64], bits: u32| -> Vec<WeightedConstraint> {
        (ics.constraints.iter())
            .filter(|c| !constraint_satisfied(&c.set, codes, bits))
            .copied()
            .collect()
    };
    let mut still = unsatisfied(&codes, bits);
    while !still.is_empty() && bits < target {
        ctl.charge(1 + codes.len() as u64)?;
        project_code(&mut codes, &mut bits, &still);
        offer(&codes, bits, projected);
        still = unsatisfied(&codes, bits);
    }
    Ok(Encoding::new(bits as usize, codes).expect("codes are distinct by construction"))
}

/// `ihybrid_code`: maximizes the total weight of satisfied input constraints
/// at the minimum code length by a cycle of `semiexact_code` calls, then
/// projects into extra dimensions (up to `target_bits`) to satisfy the rest.
///
/// With `target_bits = None` the minimum code length is used (the paper's
/// default, which Table II shows wins on area). With a large `target_bits`
/// (e.g. the number of states) all constraints end up satisfied, which is
/// how the KISS baseline is emulated.
///
/// # Panics
///
/// Panics if the machine needs more than 63 code bits (codes are `u64`).
pub fn ihybrid_code(
    ics: &InputConstraints,
    target_bits: Option<u32>,
    opts: HybridOptions,
) -> HybridOutcome {
    ihybrid_code_ctl(ics, target_bits, opts, &RunCtl::unlimited())
        .expect("unlimited ctl never cancels")
}

/// [`ihybrid_code`] under a [`RunCtl`]: the semiexact phase charges per
/// candidate face and each `project_code` step charges proportional to the
/// state count, so a portfolio deadline unwinds the whole loop cleanly.
pub fn ihybrid_code_ctl(
    ics: &InputConstraints,
    target_bits: Option<u32>,
    opts: HybridOptions,
    ctl: &RunCtl,
) -> Result<HybridOutcome, Cancelled> {
    let sources = ["ihybrid.semiexact", "ihybrid.project"];
    let encoding = accept_and_project(ics, &[], None, target_bits, opts, sources, ctl)?;
    Ok(HybridOutcome::new(ics, encoding))
}

/// The KISS baseline: satisfy **all** input constraints by projecting past
/// the minimum length as far as needed (up to one extra dimension per
/// constraint, mirroring KISS's non-minimal code lengths).
pub fn kiss_code(ics: &InputConstraints, opts: HybridOptions) -> HybridOutcome {
    kiss_code_ctl(ics, opts, &RunCtl::unlimited()).expect("unlimited ctl never cancels")
}

/// [`kiss_code`] under a [`RunCtl`].
pub fn kiss_code_ctl(
    ics: &InputConstraints,
    opts: HybridOptions,
    ctl: &RunCtl,
) -> Result<HybridOutcome, Cancelled> {
    let n = ics.num_states;
    let worst = (min_code_length(n) as usize + ics.constraints.len()).min(63) as u32;
    ihybrid_code_ctl(ics, Some(worst), opts, ctl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iohybrid::iohybrid_code;
    use crate::symbolic_min::SymbolicMin;
    use fsm::StateId;

    fn weighted(specs: &[(&str, u32)]) -> InputConstraints {
        let constraints = specs
            .iter()
            .map(|(s, w)| WeightedConstraint {
                set: StateSet::parse(s).unwrap(),
                weight: *w,
            })
            .collect::<Vec<_>>();
        let n = specs[0].0.len();
        InputConstraints {
            num_states: n,
            constraints,
            mv_cover_size: 0,
        }
    }

    /// Example 4.1: IC with weights 4, 2, 3, 5, 1, 1, heaviest first.
    fn example_4_1() -> InputConstraints {
        weighted(&[
            ("1000110", 5),
            ("1110000", 4),
            ("0000111", 3),
            ("0111000", 2),
            ("0000011", 1),
            ("0011000", 1),
        ])
    }

    /// Example 4.1's set and the input constraints of three small suite
    /// machines.
    fn constraint_sets() -> Vec<InputConstraints> {
        let mut sets = vec![example_4_1()];
        for name in ["bbtas", "lion", "dk27"] {
            let m = fsm::benchmarks::by_name(name).expect("embedded").fsm;
            sets.push(crate::extract_input_constraints(&m));
        }
        sets
    }

    #[test]
    fn example_4_1_flow() {
        // Minimum length 3, target 4 bits satisfies everything via one
        // projection step.
        let ics = example_4_1();
        let out = ihybrid_code(&ics, Some(4), HybridOptions::default());
        assert_eq!(out.min_length, 3);
        assert!(out.encoding.bits() <= 4);
        // The paper's trace satisfies all six constraints at 4 bits; whether
        // one projection suffices depends on the base codes the semiexact
        // phase found, so require the bulk of the weight and full
        // satisfaction one dimension later.
        assert!(
            out.weight_satisfied() >= 12,
            "wsat = {}",
            out.weight_satisfied()
        );
        let out5 = ihybrid_code(&ics, Some(5), HybridOptions::default());
        assert!(
            out5.unsatisfied.is_empty(),
            "unsatisfied at 5 bits: {:?}",
            out5.unsatisfied
        );
    }

    #[test]
    fn minimum_length_keeps_codes_minimal() {
        let ics = weighted(&[("1100", 3), ("0110", 2)]);
        let out = ihybrid_code(&ics, None, HybridOptions::default());
        assert_eq!(out.encoding.bits(), 2);
        assert_eq!(out.encoding.codes().len(), 4);
    }

    #[test]
    fn projection_preserves_satisfied_constraints() {
        let mut codes = vec![0b00, 0b01, 0b10, 0b11];
        let mut bits = 2;
        // {0,1} satisfied (face 0x). {0,3} unsatisfied (spans everything).
        let unsat = [WeightedConstraint {
            set: StateSet::parse("1001").unwrap(),
            weight: 1,
        }];
        project_code(&mut codes, &mut bits, &unsat);
        assert_eq!(bits, 3);
        assert!(constraint_satisfied(
            &StateSet::parse("1100").unwrap(),
            &codes,
            bits
        ));
        assert!(constraint_satisfied(
            &StateSet::parse("1001").unwrap(),
            &codes,
            bits
        ));
    }

    #[test]
    fn projection_can_raise_offenders_instead() {
        // {0,1,2} on 8 states where only one offender sits in the span:
        // raising the single offender beats raising three members.
        let mut codes: Vec<u64> = (0..8).collect();
        let mut bits = 3;
        let unsat = [WeightedConstraint {
            set: StateSet::parse("11100000").unwrap(),
            weight: 1,
        }];
        project_code(&mut codes, &mut bits, &unsat);
        // offender was state 3 (code 011 inside span 0xx of {000,001,010}).
        assert_eq!(codes[3], 0b1011);
        assert!(constraint_satisfied(
            &StateSet::parse("11100000").unwrap(),
            &codes,
            bits
        ));
    }

    #[test]
    fn kiss_satisfies_everything() {
        let out = kiss_code(&example_4_1(), HybridOptions::default());
        assert!(out.unsatisfied.is_empty());
        for c in &out.satisfied {
            assert!(constraint_satisfied(
                &c.set,
                out.encoding.codes(),
                out.encoding.bits() as u32
            ));
        }
    }

    #[test]
    fn weights_drive_priority() {
        // Two conflicting triangles; the heavier constraints should be the
        // satisfied ones at minimum length.
        let ics = weighted(&[("1100", 10), ("0110", 9), ("1010", 1)]);
        let out = ihybrid_code(&ics, None, HybridOptions::default());
        let sat_sets: Vec<StateSet> = out.satisfied.iter().map(|c| c.set).collect();
        assert!(sat_sets.contains(&StateSet::parse("1100").unwrap()));
        assert!(sat_sets.contains(&StateSet::parse("0110").unwrap()));
    }

    #[test]
    fn outcome_weights_add_up() {
        let ics = weighted(&[("1100", 3), ("0110", 2), ("1010", 1)]);
        let out = ihybrid_code(&ics, None, HybridOptions::default());
        assert_eq!(out.weight_satisfied() + out.weight_unsatisfied(), 6);
        let all_states: Vec<StateId> = (0..4).map(StateId).collect();
        assert_eq!(out.encoding.codes().len(), all_states.len());
    }

    /// Paper Section VI-6.2.1: `iohybrid_code`'s first stage is
    /// `ihybrid_code`, so with no output clusters the two give one answer,
    /// at the minimum length and past it.
    #[test]
    fn iohybrid_without_clusters_is_ihybrid() {
        for ic in constraint_sets() {
            let problem = SymbolicMin {
                ic,
                ic_clusters: BTreeMap::new(),
                ic_outputs: Vec::new(),
                oc_clusters: Vec::new(),
            };
            for target in [None, Some(min_code_length(problem.ic.num_states) + 2)] {
                let ihybrid = ihybrid_code(&problem.ic, target, HybridOptions::default());
                let io = iohybrid_code(&problem, target, HybridOptions::default());
                assert_eq!(io.hybrid.encoding, ihybrid.encoding, "target {target:?}");
                assert_eq!(io.hybrid.satisfied, ihybrid.satisfied);
            }
        }
    }

    #[test]
    fn kiss_is_ihybrid_at_its_target_length() {
        for ic in constraint_sets() {
            let target = min_code_length(ic.num_states) + ic.constraints.len() as u32;
            let kiss = kiss_code(&ic, HybridOptions::default());
            let ihybrid = ihybrid_code(&ic, Some(target.min(63)), HybridOptions::default());
            assert_eq!(kiss.encoding, ihybrid.encoding);
            assert_eq!(kiss.satisfied, ihybrid.satisfied);
            assert_eq!(kiss.unsatisfied, ihybrid.unsatisfied);
            assert_eq!(kiss.min_length, ihybrid.min_length);
        }
    }
}
