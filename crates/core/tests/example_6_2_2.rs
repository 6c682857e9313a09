//! The paper's Example 6.2.2.1 posed directly as a [`SymbolicMin`]: the
//! clustered input/output constraint sets over 8 states with `#bits = 3`,
//! solved by `iohybrid_code` and `iovariant_code`.

use fsm::StateId;
use nova_core::constraint::{InputConstraints, StateSet, WeightedConstraint};
use nova_core::hybrid::HybridOptions;
use nova_core::symbolic_min::OutputCluster;
use nova_core::{iohybrid_code, iovariant_code, SymbolicMin};
use std::collections::BTreeMap;

fn example() -> SymbolicMin {
    // (IC_o; w_o) = (01010101; 1)
    // (IC_1; OC_1; w_1) = (∅; 2>1 … 8>1; 4)        [1-indexed in the paper]
    // (IC_2; OC_2; w_2) = (00110000; 6>2; 1)
    // (IC_3; OC_3; w_3) = (00001100; 7>3; 2)
    // (IC_4; OC_4; w_4) = (00000011; 8>4; 1)
    // (IC_5; OC_5; w_5) = (∅; 6>5, 7>5, 8>5; 1)
    // (IC_6; OC_6; w_6) = (00110000; ∅; 3)   [printed 0011000; width fixed]
    // (IC_7; OC_7; w_7) = (00001100; ∅; 1)   [printed 0000110]
    // (IC_8; OC_8; w_8) = (00000011; ∅; 1)
    let set = |s: &str| StateSet::parse(s).expect("valid vector");
    let cluster = |next: usize, covers: &[(usize, usize)], weight: u32| OutputCluster {
        next: StateId(next),
        covers: covers
            .iter()
            .map(|&(u, v)| (StateId(u), StateId(v)))
            .collect(),
        weight,
    };

    let mut ic_clusters: BTreeMap<usize, Vec<StateSet>> = BTreeMap::new();
    ic_clusters.insert(1, vec![set("00110000")]);
    ic_clusters.insert(2, vec![set("00001100")]);
    ic_clusters.insert(3, vec![set("00000011")]);
    ic_clusters.insert(5, vec![set("00110000")]);
    ic_clusters.insert(6, vec![set("00001100")]);
    ic_clusters.insert(7, vec![set("00000011")]);

    let constraints = vec![
        WeightedConstraint {
            set: set("01010101"),
            weight: 1,
        },
        WeightedConstraint {
            set: set("00110000"),
            weight: 4,
        }, // IC_2 + IC_6
        WeightedConstraint {
            set: set("00001100"),
            weight: 3,
        }, // IC_3 + IC_7
        WeightedConstraint {
            set: set("00000011"),
            weight: 2,
        }, // IC_4 + IC_8
    ];
    SymbolicMin {
        ic: InputConstraints {
            num_states: 8,
            constraints,
            mv_cover_size: 0,
        },
        ic_clusters,
        ic_outputs: vec![set("01010101")],
        oc_clusters: vec![
            cluster(
                0,
                &[(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0)],
                4,
            ),
            cluster(1, &[(5, 1)], 1),
            cluster(2, &[(6, 2)], 2),
            cluster(3, &[(7, 3)], 1),
            cluster(4, &[(5, 4), (6, 4), (7, 4)], 1),
        ],
    }
}

fn paper_solution_satisfies_everything() -> (Vec<u64>, SymbolicMin) {
    // ENC = (000, 010, 100, 110, 001, 011, 101, 111)
    (
        vec![0b000, 0b010, 0b100, 0b110, 0b001, 0b011, 0b101, 0b111],
        example(),
    )
}

#[test]
fn paper_solution_is_valid() {
    let (codes, p) = paper_solution_satisfies_everything();
    for c in &p.ic.constraints {
        assert!(
            nova_core::exact::constraint_satisfied(&c.set, &codes, 3),
            "paper ENC violates input constraint {:?}",
            c.set
        );
    }
    for cluster in &p.oc_clusters {
        for (u, v) in &cluster.covers {
            assert_eq!(
                codes[u.0] | codes[v.0],
                codes[u.0],
                "{u:?} must cover {v:?}"
            );
            assert_ne!(codes[u.0], codes[v.0]);
        }
    }
}

#[test]
fn iohybrid_solves_the_instance_in_three_bits() {
    let p = example();
    let out = iohybrid_code(&p, Some(3), HybridOptions::default());
    assert_eq!(out.hybrid.encoding.bits(), 3);
    let codes = out.hybrid.encoding.codes();
    let mut sorted = codes.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 8);
    // Input constraints take priority: the weight satisfied must dominate.
    assert!(
        out.hybrid.weight_satisfied() >= 7,
        "wsat = {} of 10",
        out.hybrid.weight_satisfied()
    );
}

#[test]
fn iovariant_solves_the_instance_too() {
    let p = example();
    let out = iovariant_code(&p, Some(3), HybridOptions::default());
    assert_eq!(out.hybrid.encoding.bits(), 3);
    // The paper reports both algorithms find a full solution here; ours must
    // at least satisfy some clusters and keep codes valid.
    let codes = out.hybrid.encoding.codes();
    for c in &out.satisfied_clusters {
        for (u, v) in &c.covers {
            assert_eq!(codes[u.0] | codes[v.0], codes[u.0]);
        }
    }
}

#[test]
fn pure_output_instance_goes_through_out_encoder() {
    let mut p = example();
    p.ic.constraints.clear();
    p.ic_outputs.clear();
    p.ic_clusters.clear();
    let out = iohybrid_code(&p, None, HybridOptions::default());
    // out_encoder gives one bit per state and satisfies the whole DAG.
    assert_eq!(out.hybrid.encoding.bits(), 8);
    assert!(out.unsatisfied_clusters.is_empty());
}
