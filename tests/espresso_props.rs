//! Randomized (deterministic, `SplitMix64`-seeded) tests of the espresso
//! substrate: minimization preserves the function, complement partitions the
//! space, factoring never loses to the flat form, and the exact containment
//! oracle agrees with brute force.

use espresso::factor::{factored_literal_count, output_expr, Expr};
use espresso::{
    complement, cube_in_cover, minimize, tautology, verify_minimized, Cover, Cube, CubeSpace,
    RunCtl,
};
use fsm::generator::SplitMix64;

/// Random binary multi-output cover over `inputs` variables.
fn random_cover(rng: &mut SplitMix64, inputs: usize, outputs: usize, max_cubes: usize) -> Cover {
    let space = CubeSpace::binary_with_output(inputs, outputs);
    let mut f = Cover::empty(space);
    let rows = 1 + rng.below(max_cubes);
    for _ in 0..rows {
        let mut c = Cube::zero(f.space());
        for v in 0..inputs {
            match rng.below(3) {
                0 => c.set_part(f.space(), v, 0),
                1 => c.set_part(f.space(), v, 1),
                _ => c.set_var_full(f.space(), v),
            }
        }
        let ov = f.space().output_var().expect("output var");
        let outs = 1 + rng.below((1 << outputs) - 1) as u32;
        for o in 0..outputs {
            if outs >> o & 1 == 1 {
                c.set_part(f.space(), ov, o as u32);
            }
        }
        f.push(c);
    }
    f
}

/// Brute-force: does the cover assert output part `o` at input minterm `m`?
fn eval(f: &Cover, m: u32, o: u32) -> bool {
    let space = f.space();
    let ov = space.output_var().expect("output var");
    f.iter()
        .any(|c| c.has_part(space, ov, o) && (0..ov).all(|v| c.has_part(space, v, m >> v & 1)))
}

#[test]
fn minimize_preserves_the_function() {
    let mut rng = SplitMix64::new(0xe5b1);
    for _ in 0..48 {
        let f = random_cover(&mut rng, 4, 2, 8);
        let d = Cover::empty(f.space().clone());
        let m = minimize(&f, &d);
        assert!(m.len() <= f.len());
        assert!(verify_minimized(&m, &f, &d));
        for minterm in 0..16u32 {
            for o in 0..2 {
                assert_eq!(
                    eval(&f, minterm, o),
                    eval(&m, minterm, o),
                    "minterm {minterm:04b} output {o}"
                );
            }
        }
    }
}

#[test]
fn minimize_with_dc_stays_in_bounds() {
    let mut rng = SplitMix64::new(0xe5b2);
    for _ in 0..48 {
        let f = random_cover(&mut rng, 3, 1, 6);
        let d = random_cover(&mut rng, 3, 1, 4);
        let m = minimize(&f, &d);
        assert!(verify_minimized(&m, &f, &d));
    }
}

#[test]
fn complement_partitions_the_space() {
    let mut rng = SplitMix64::new(0xe5b3);
    for _ in 0..48 {
        let f = random_cover(&mut rng, 4, 1, 8);
        let g = complement(&f);
        assert!(tautology(&f.union(&g)));
        for a in f.iter() {
            for b in g.iter() {
                assert!(a.intersect(f.space(), b).is_none());
            }
        }
    }
}

#[test]
fn containment_oracle_matches_brute_force() {
    let mut rng = SplitMix64::new(0xe5b4);
    for _ in 0..48 {
        let f = random_cover(&mut rng, 4, 1, 6);
        let space = f.space().clone();
        // Test a probe cube against brute-force subset checks.
        let mut probe = Cube::full(&space);
        probe.clear_part(&space, 0, 0);
        let contained = cube_in_cover(&f, &probe);
        let brute = (0..16u32)
            .filter(|m| m & 1 == 1) // var0 = 1 per the probe
            .all(|m| eval(&f, m, 0));
        assert_eq!(contained, brute);
    }
}

#[test]
fn factoring_never_exceeds_flat_literals() {
    let mut rng = SplitMix64::new(0xe5b5);
    for _ in 0..48 {
        let f = random_cover(&mut rng, 4, 2, 8);
        let m = minimize(&f, &Cover::empty(f.space().clone()));
        for o in 0..2u32 {
            let e: Expr = output_expr(&m, o);
            let literals = factored_literal_count(&e, &RunCtl::unlimited());
            assert!(literals.expect("an unlimited ctl never cancels") <= e.literal_count());
        }
    }
}

#[test]
fn double_complement_is_identity() {
    let mut rng = SplitMix64::new(0xe5b6);
    for _ in 0..48 {
        let f = random_cover(&mut rng, 3, 1, 6);
        let ff = complement(&complement(&f));
        assert!(espresso::covers_equivalent(&f, &ff));
    }
}

#[test]
fn minimized_cover_is_irredundant() {
    let mut rng = SplitMix64::new(0xe5b7);
    for _ in 0..48 {
        let f = random_cover(&mut rng, 4, 1, 6);
        let d = Cover::empty(f.space().clone());
        let m = minimize(&f, &d);
        for i in 0..m.len() {
            let mut rest = m.clone();
            rest.cubes_mut().remove(i);
            assert!(
                !cube_in_cover(&rest, &m.cubes()[i]),
                "cube {i} is redundant in the result"
            );
        }
    }
}
