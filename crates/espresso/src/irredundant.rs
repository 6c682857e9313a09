//! IRREDUNDANT: drop cubes whose minterms are already covered elsewhere.
//!
//! The "rest of the cover" oracle lives in a scratch
//! [`CubeMatrix`](crate::matrix::CubeMatrix) rebuilt in place per candidate
//! cube, so redundancy testing performs no per-cube `Cover` allocation.

use crate::cover::Cover;
use crate::matrix::Sig;
use crate::scratch::with_scratch;
use crate::tautology::cube_in_matrix;

/// Removes redundant cubes from `f` (greedy, smallest-first) so that no
/// remaining cube is covered by the rest of the cover plus `d`.
///
/// The result is an irredundant cover of the same function. Greedy removal
/// is not guaranteed minimum (that is a covering problem), but matches
/// ESPRESSO's heuristic quality for the benchmark sizes this crate targets.
pub fn irredundant(f: &mut Cover, d: &Cover) {
    let space = f.space().clone();
    f.absorb();
    // Try to remove cheap cubes first so the valuable big cubes stay.
    let mut order: Vec<usize> = (0..f.len()).collect();
    order.sort_by_key(|&i| f.cubes()[i].count_ones());

    let mut removed = vec![false; f.len()];
    with_scratch(|s| {
        for &i in &order {
            let mut rest = s.acquire(&space);
            for (j, c) in f.iter().enumerate() {
                if j != i && !removed[j] {
                    rest.push_cube(&space, c);
                }
            }
            rest.extend_cubes(&space, d.iter());
            let c = &f.cubes()[i];
            let sig = Sig::of(&space, c.words());
            if cube_in_matrix(&space, &rest, c.words(), sig, s) {
                removed[i] = true;
            }
            s.release(rest);
        }
    });
    let mut idx = 0;
    f.cubes_mut().retain(|_| {
        let k = !removed[idx];
        idx += 1;
        k
    });
}

/// The relatively-essential cubes of `f`: those **not** covered by the rest
/// of the cover plus `d`. Every minimal cover of the function must retain
/// them (when `f` consists of primes).
pub fn relatively_essential(f: &Cover, d: &Cover) -> Vec<usize> {
    let space = f.space().clone();
    let mut out = Vec::new();
    with_scratch(|s| {
        for i in 0..f.len() {
            let mut rest = s.acquire(&space);
            for (j, c) in f.iter().enumerate() {
                if j != i {
                    rest.push_cube(&space, c);
                }
            }
            rest.extend_cubes(&space, d.iter());
            let c = &f.cubes()[i];
            let sig = Sig::of(&space, c.words());
            if !cube_in_matrix(&space, &rest, c.words(), sig, s) {
                out.push(i);
            }
            s.release(rest);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::CubeSpace;
    use crate::tautology::{covers_equivalent, verify_minimized};

    fn cover(space: &CubeSpace, strs: &[&str]) -> Cover {
        let mut f = Cover::empty(space.clone());
        for s in strs {
            f.push_parsed(s).unwrap();
        }
        f
    }

    #[test]
    fn removes_consensus_cube() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // x y' + x' y ... plus the redundant cube covered by x + y:
        let mut f = cover(&sp, &["10 11 1", "11 10 1", "10 10 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        irredundant(&mut f, &d);
        assert_eq!(f.len(), 2);
        assert!(covers_equivalent(&f, &orig));
    }

    #[test]
    fn keeps_needed_cubes() {
        let sp = CubeSpace::binary_with_output(2, 1);
        let mut f = cover(&sp, &["10 01 1", "01 10 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        irredundant(&mut f, &d);
        assert_eq!(f, orig);
    }

    #[test]
    fn uses_dont_cares_for_redundancy() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // Cube xy is redundant because DC covers it entirely... then the
        // remaining cover must still cover ON (empty here), fine.
        let mut f = cover(&sp, &["10 10 1"]);
        let d = cover(&sp, &["10 10 1"]);
        irredundant(&mut f, &d);
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn jointly_redundant_pair_keeps_one() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // Two identical cubes: absorption already removes one.
        let mut f = cover(&sp, &["10 11 1", "10 11 1"]);
        let d = Cover::empty(sp.clone());
        irredundant(&mut f, &d);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn relatively_essential_detection() {
        let sp = CubeSpace::binary_with_output(2, 1);
        let f = cover(&sp, &["10 11 1", "11 10 1", "10 10 1"]);
        let d = Cover::empty(sp.clone());
        let ess = relatively_essential(&f, &d);
        // The two big cubes are essential; the consensus cube is not.
        assert_eq!(ess, vec![0, 1]);
    }

    #[test]
    fn irredundant_preserves_function() {
        let sp = CubeSpace::binary_with_output(3, 2);
        let mut f = cover(
            &sp,
            &[
                "10 11 11 10",
                "11 10 11 10",
                "10 10 11 10",
                "11 11 01 01",
                "10 11 01 01",
            ],
        );
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        irredundant(&mut f, &d);
        assert!(verify_minimized(&f, &orig, &d));
        assert!(f.len() < orig.len());
    }
}
