//! Differential tests: the arena-backed kernels must produce results
//! bit-identical to the frozen pre-arena implementations in the
//! `espresso-legacy` crate, across randomized covers in mixed binary /
//! multiple-valued spaces and a table of fixed cases.
//!
//! The RNG is the repo's canonical SplitMix64 (`fsm::rng`, no external
//! crates, reproducible offline) — the same stream every seeded component
//! draws from.

use espresso::{
    complement, containment, cube_in_cover, minimize_with, tautology, Cover, Cube, CubeMatrix,
    CubeSpace, MinimizeOptions, RunCtl, VarKind,
};
use espresso_legacy as legacy;
use fsm::SplitMix64;

/// The space zoo: plain binary, binary+output, and mixed multi-valued shapes
/// (NOVA's symbolic covers are exactly the latter).
fn spaces() -> Vec<CubeSpace> {
    vec![
        CubeSpace::binary(3),
        CubeSpace::binary(5),
        CubeSpace::binary_with_output(3, 2),
        CubeSpace::binary_with_output(4, 3),
        CubeSpace::new(
            &[4, 2, 2],
            &[VarKind::Multi, VarKind::Binary, VarKind::Binary],
        ),
        CubeSpace::new(
            &[5, 3, 2, 2],
            &[
                VarKind::Multi,
                VarKind::Multi,
                VarKind::Binary,
                VarKind::Output,
            ],
        ),
    ]
}

/// A random cube: each variable keeps a random non-trivial subset of parts,
/// with occasional full fields and (rarely) an empty field to exercise the
/// degenerate paths.
fn random_cube(rng: &mut SplitMix64, space: &CubeSpace) -> Cube {
    let mut c = Cube::full(space);
    for v in space.vars() {
        let parts = space.parts(v);
        match rng.below_u64(8) {
            0 | 1 => {} // keep full
            2 if parts > 1 => {
                // empty field (degenerate cube)
                for p in 0..parts {
                    c.clear_part(space, v, p);
                }
            }
            _ => {
                // random proper subset, biased toward keeping parts
                let mut kept = 0;
                for p in 0..parts {
                    if rng.below_u64(3) == 0 {
                        c.clear_part(space, v, p);
                    } else {
                        kept += 1;
                    }
                }
                if kept == 0 {
                    c.set_part(space, v, (rng.below_u64(parts as u64)) as u32);
                }
            }
        }
    }
    c
}

fn random_cover(rng: &mut SplitMix64, space: &CubeSpace, max_cubes: u64) -> Cover {
    let n = rng.below_u64(max_cubes + 1);
    let cubes = (0..n).map(|_| random_cube(rng, space)).collect();
    Cover::from_cubes(space.clone(), cubes)
}

/// A kernel a fixed case runs through both implementations.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Complement,
    Absorb,
    Expand,
    Irredundant,
    Reduce,
}

impl Kernel {
    /// The space the kernel's fixed cases are written in.
    fn space(self) -> CubeSpace {
        match self {
            Kernel::Complement => CubeSpace::binary(4),
            Kernel::Absorb => CubeSpace::binary_with_output(2, 2),
            Kernel::Expand | Kernel::Irredundant | Kernel::Reduce => {
                CubeSpace::binary_with_output(3, 2)
            }
        }
    }
}

fn parse_cover(space: &CubeSpace, strs: &[&str]) -> Cover {
    let mut f = Cover::empty(space.clone());
    for s in strs {
        f.push_parsed(s).unwrap();
    }
    f
}

#[test]
fn fixed_cases_match_legacy() {
    use Kernel::*;
    // Each row is a kernel, an ON-set F and a don't-care set D: duplicates,
    // degenerate cubes, containment chains and covers a DC cube widens.
    let cases: &[(Kernel, &[&str], &[&str])] = &[
        (Complement, &[], &[]),
        (Complement, &["10 11 01 11"], &[]),
        (
            Complement,
            &["10 11 01 11", "11 10 10 11", "01 01 11 10"],
            &[],
        ),
        (
            Complement,
            &["10 10 10 10", "01 01 01 01", "11 11 10 01", "10 01 11 11"],
            &[],
        ),
        (
            Absorb,
            &["10 11 11", "10 01 01", "10 11 11", "01 10 10"],
            &[],
        ),
        (Absorb, &["10 00 11", "01 11 10"], &[]),
        (Absorb, &["11 11 11", "10 10 10", "01 01 01"], &[]),
        (Absorb, &["10 10 10", "10 10 10", "10 10 10"], &[]),
        (Absorb, &[], &[]),
        (
            Expand,
            &["10 10 10 10", "10 10 01 10", "01 10 10 01"],
            &["10 01 11 11"],
        ),
        (Expand, &["11 10 11 10", "10 11 10 10", "11 11 01 01"], &[]),
        (
            Irredundant,
            &["10 11 11 10", "11 10 11 10", "10 10 11 10", "11 11 01 01"],
            &[],
        ),
        (
            Irredundant,
            &["10 11 11 11", "11 10 11 11", "10 10 11 11", "01 01 11 11"],
            &[],
        ),
        (Reduce, &["11 10 11 10", "10 11 10 10", "11 11 01 01"], &[]),
        (
            Reduce,
            &["10 11 11 10", "11 10 11 10", "11 11 10 01"],
            &["01 01 01 11"],
        ),
        // The rest covers the cube (x + y covers their consensus xy), and a
        // degenerate cube: every part but each variable's last is lowered.
        (Reduce, &["10 10 11 10"], &["10 11 11 10", "11 10 11 10"]),
        (Reduce, &["10 00 11 11", "11 10 11 10"], &[]),
    ];
    for &(kernel, fs, ds) in cases {
        let space = kernel.space();
        let f = parse_cover(&space, fs);
        let d = parse_cover(&space, ds);
        let (mut ours, mut theirs) = (f.clone(), f.clone());
        match kernel {
            Complement => (ours, theirs) = (complement(&f), legacy::complement(&f)),
            Absorb => {
                containment::absorb_cubes(&space, ours.cubes_mut());
                legacy::absorb_in_place(&space, theirs.cubes_mut());
                // The in-place matrix scan the unate recursion runs.
                let mut m = CubeMatrix::from_cover(&f);
                containment::absorb_matrix(&mut m, &mut Vec::new());
                assert_eq!(m.to_cubes(&space), theirs.cubes(), "matrix {fs:?}");
            }
            Expand => {
                let off = CubeMatrix::from_cover(&complement(&f.union(&d)));
                espresso::expand::expand(&mut ours, &off, &RunCtl::unlimited()).unwrap();
                legacy::expand(&mut theirs, &d);
            }
            Irredundant => {
                espresso::irredundant::irredundant(&mut ours, &d, &RunCtl::unlimited()).unwrap();
                legacy::irredundant(&mut theirs, &d);
            }
            Reduce => {
                espresso::reduce::reduce(&mut ours, &d, &RunCtl::unlimited()).unwrap();
                legacy::reduce(&mut theirs, &d);
            }
        }
        assert_eq!(ours, theirs, "{kernel:?} {fs:?} / {ds:?}");
    }
}

#[test]
fn tautology_matches_legacy_on_random_covers() {
    let mut rng = SplitMix64::new(0x7a75_7431);
    for space in spaces() {
        for _ in 0..60 {
            let f = random_cover(&mut rng, &space, 10);
            assert_eq!(
                tautology(&f),
                legacy::tautology(&f),
                "tautology diverged on {f:?}"
            );
        }
    }
}

#[test]
fn complement_matches_legacy_exactly() {
    let mut rng = SplitMix64::new(0x00c0_4911);
    for space in spaces() {
        for _ in 0..40 {
            let f = random_cover(&mut rng, &space, 8);
            let ours = complement(&f);
            let theirs = legacy::complement(&f);
            // Cube-list identity, not mere equivalence: the arena recursion
            // must retrace the legacy recursion exactly.
            assert_eq!(ours.cubes(), theirs.cubes(), "complement diverged on {f:?}");
        }
    }
}

#[test]
fn cube_in_cover_matches_legacy() {
    let mut rng = SplitMix64::new(0x0051_b5e7);
    for space in spaces() {
        for _ in 0..60 {
            let f = random_cover(&mut rng, &space, 8);
            let c = random_cube(&mut rng, &space);
            assert_eq!(
                cube_in_cover(&f, &c),
                legacy::cube_in_cover(&f, &c),
                "cube_in_cover diverged on {f:?} / {c:?}"
            );
        }
    }
}

#[test]
fn absorb_matches_legacy() {
    let mut rng = SplitMix64::new(0x00ab_504b);
    for space in spaces() {
        for _ in 0..60 {
            let f = random_cover(&mut rng, &space, 12);
            let mut ours = f.cubes().to_vec();
            let mut theirs = f.cubes().to_vec();
            containment::absorb_cubes(&space, &mut ours);
            legacy::absorb_in_place(&space, &mut theirs);
            assert_eq!(ours, theirs, "absorb diverged on {f:?}");
        }
    }
}

#[test]
fn expand_reduce_irredundant_match_legacy() {
    let mut rng = SplitMix64::new(0x00e7_8a9d);
    for space in spaces() {
        for _ in 0..25 {
            let f = random_cover(&mut rng, &space, 8);
            let d = random_cover(&mut rng, &space, 3);

            let mut a = f.clone();
            let mut b = f.clone();
            let off = CubeMatrix::from_cover(&complement(&f.union(&d)));
            espresso::expand::expand(&mut a, &off, &RunCtl::unlimited()).unwrap();
            legacy::expand(&mut b, &d);
            assert_eq!(a, b, "expand diverged on {f:?} / {d:?}");

            let mut a = f.clone();
            let mut b = f.clone();
            espresso::reduce::reduce(&mut a, &d, &RunCtl::unlimited()).unwrap();
            legacy::reduce(&mut b, &d);
            assert_eq!(a, b, "reduce diverged on {f:?} / {d:?}");

            let mut a = f.clone();
            let mut b = f.clone();
            espresso::irredundant::irredundant(&mut a, &d, &RunCtl::unlimited()).unwrap();
            legacy::irredundant(&mut b, &d);
            assert_eq!(a, b, "irredundant diverged on {f:?} / {d:?}");
        }
    }
}

#[test]
fn full_minimize_matches_legacy_cover_and_cost() {
    let mut rng = SplitMix64::new(0x3141_5926);
    let opts = MinimizeOptions {
        verify: true,
        ..MinimizeOptions::default()
    };
    for space in spaces() {
        for _ in 0..12 {
            let f = random_cover(&mut rng, &space, 7);
            let d = random_cover(&mut rng, &space, 3);
            let (ours, our_stats) = minimize_with(&f, &d, opts);
            let (theirs, their_stats) = legacy::minimize_with(&f, &d, opts);
            assert_eq!(ours, theirs, "minimize diverged on {f:?} / {d:?}");
            assert_eq!(ours.cost(), theirs.cost());
            assert_eq!(our_stats, their_stats);
        }
    }
}

/// A mostly-full cube: non-full in at most `loose` variables. Wide spaces
/// need this bias — a cube that is loose everywhere makes the legacy
/// reference complement intractable at hundreds of variables.
fn mostly_full_cube(rng: &mut SplitMix64, space: &CubeSpace, loose: u64) -> Cube {
    let mut c = Cube::full(space);
    for _ in 0..rng.below_u64(loose + 1) {
        let v = rng.below_u64(space.num_vars() as u64) as usize;
        c.clear_part(space, v, rng.below_u64(space.parts(v) as u64) as u32);
    }
    c
}

/// The universe split on one variable: two cubes, each full everywhere
/// except one complementary half of `v` — their union is a tautology no
/// matter how wide the space is.
fn universe_split(space: &CubeSpace, v: usize) -> Vec<Cube> {
    let mut a = Cube::full(space);
    a.clear_part(space, v, 0);
    let mut b = Cube::full(space);
    b.clear_part(space, v, 1);
    vec![a, b]
}

#[test]
fn kernels_match_legacy_across_chunk_boundary_widths() {
    // Strides 1..=9 cover the 1–3-word arms of the subset test and the
    // plain loop past them; 32 binary variables occupy exactly one 64-bit
    // word.
    for w in 1..=9usize {
        let space = CubeSpace::binary(32 * w);
        assert_eq!(space.words(), w, "stride setup for width {w}");
        let mut rng = SplitMix64::new(0x51_3d00 + w as u64);
        for round in 0..10 {
            let n = 2 + rng.below_u64(8) as usize;
            let mut cubes: Vec<Cube> = (0..n)
                .map(|_| mostly_full_cube(&mut rng, &space, 5))
                .collect();
            if round % 2 == 0 {
                // Make the true-tautology path reachable at every width.
                cubes.extend(universe_split(
                    &space,
                    rng.below_u64(space.num_vars() as u64) as usize,
                ));
            }
            let f = Cover::from_cubes(space.clone(), cubes);
            assert_eq!(
                tautology(&f),
                legacy::tautology(&f),
                "tautology diverged at stride {w}, round {round}"
            );
            let c = mostly_full_cube(&mut rng, &space, 5);
            assert_eq!(
                cube_in_cover(&f, &c),
                legacy::cube_in_cover(&f, &c),
                "cube_in_cover diverged at stride {w}, round {round}"
            );
            let mut ours = f.cubes().to_vec();
            let mut theirs = f.cubes().to_vec();
            containment::absorb_cubes(&space, &mut ours);
            legacy::absorb_in_place(&space, &mut theirs);
            assert_eq!(ours, theirs, "absorb diverged at stride {w}, round {round}");
            // The legacy complement and REDUCE (one tautology check per
            // part of every cube) grow costly at these widths.
            if round < 3 {
                let g = Cover::from_cubes(space.clone(), f.cubes()[..n.min(3)].to_vec());
                assert_eq!(
                    complement(&g).cubes(),
                    legacy::complement(&g).cubes(),
                    "complement diverged at stride {w}, round {round}"
                );
                let d = Cover::from_cubes(space.clone(), vec![c]);
                let (mut ours, mut theirs) = (f.clone(), f.clone());
                espresso::reduce::reduce(&mut ours, &d, &RunCtl::unlimited()).unwrap();
                legacy::reduce(&mut theirs, &d);
                assert_eq!(ours, theirs, "reduce diverged at stride {w}, round {round}");
                let (mut ours, mut theirs) = (f.clone(), f.clone());
                espresso::irredundant::irredundant(&mut ours, &d, &RunCtl::unlimited()).unwrap();
                legacy::irredundant(&mut theirs, &d);
                assert_eq!(
                    ours, theirs,
                    "irredundant diverged at stride {w}, round {round}"
                );
            }
        }
    }
}

#[test]
fn saturated_signature_window_stays_exact_beyond_127_vars() {
    // 130 binary variables exceed SIG_EXACT_VARS: high variables share the
    // saturated nonfull bit and every sig-driven fast path must fall back to
    // word scans without changing any answer.
    let space = CubeSpace::binary(130);
    assert!(space.num_vars() > espresso::SIG_EXACT_VARS);
    let mut rng = SplitMix64::new(0x5a7_0b17);
    for round in 0..8 {
        let mut cubes: Vec<Cube> = (0..(2 + rng.below_u64(6)))
            .map(|_| mostly_full_cube(&mut rng, &space, 4))
            .collect();
        if round % 2 == 0 {
            // Split on a variable above the saturation bit, so the exact
            // answer depends on exactly the aliased range.
            cubes.extend(universe_split(&space, 127 + round % 3));
        }
        let f = Cover::from_cubes(space.clone(), cubes);
        assert_eq!(tautology(&f), legacy::tautology(&f), "round {round}");
        let c = mostly_full_cube(&mut rng, &space, 4);
        assert_eq!(
            cube_in_cover(&f, &c),
            legacy::cube_in_cover(&f, &c),
            "round {round}"
        );
        let mut ours = f.cubes().to_vec();
        let mut theirs = f.cubes().to_vec();
        containment::absorb_cubes(&space, &mut ours);
        legacy::absorb_in_place(&space, &mut theirs);
        assert_eq!(ours, theirs, "round {round}");
        // One half of a split in D is non-full in one aliased variable
        // alone, so REDUCE's one-active-variable test must scan fields.
        let mut d = universe_split(&space, 127 + round % 3);
        d[1] = c;
        let d = Cover::from_cubes(space.clone(), d);
        let (mut ours, mut theirs) = (f.clone(), f.clone());
        espresso::reduce::reduce(&mut ours, &d, &RunCtl::unlimited()).unwrap();
        legacy::reduce(&mut theirs, &d);
        assert_eq!(ours, theirs, "reduce, round {round}");
        let (mut ours, mut theirs) = (f.clone(), f.clone());
        espresso::irredundant::irredundant(&mut ours, &d, &RunCtl::unlimited()).unwrap();
        legacy::irredundant(&mut theirs, &d);
        assert_eq!(ours, theirs, "irredundant, round {round}");
    }
}

#[test]
fn minimize_still_satisfies_contract_on_larger_random_covers() {
    // Not a differential check (legacy would be slow here): property-test the
    // ESPRESSO contract itself on bigger instances that stress the arena
    // recursion depth and the scratch pool.
    let mut rng = SplitMix64::new(0xdead_bee5);
    let space = CubeSpace::binary_with_output(6, 3);
    for _ in 0..8 {
        let f = random_cover(&mut rng, &space, 24);
        let d = random_cover(&mut rng, &space, 6);
        let (m, _) = minimize_with(
            &f,
            &d,
            MinimizeOptions {
                verify: true, // panics internally on contract violation
                ..MinimizeOptions::default()
            },
        );
        assert!(m.len() <= f.len() + d.len());
    }
}
