//! EXPAND: grow each cube of a cover into a prime implicant.
//!
//! A part may be raised in a cube exactly when the raised cube is still
//! contained in `ON ∪ DC`. The caller hands in the off-set
//! `R = complement(F ∪ D)`, computed once per minimization: a cube lies in
//! `ON ∪ DC` exactly when it is disjoint from every row of `R`, so the
//! validity test is one disjointness scan over `R` (Berkeley ESPRESSO's
//! `(F, D, R)` interface) instead of a tautology check per raised part.
//!
//! Raising is monotone (a raise rejected once can never become valid as the
//! cube grows), so a single pass over the candidate parts per cube yields a
//! prime.

use crate::cover::Cover;
use crate::ctl::{Cancelled, Poll, RunCtl};
use crate::cube::Cube;
use crate::matrix::{rows_disjoint, CubeMatrix};
use crate::space::CubeSpace;
use crate::tautology::cube_in_cover;

/// Expands every cube of `f` into a prime against the off-set `off`, which
/// must denote `complement(F ∪ D)` for the don't-care cover `D`, removing
/// cubes that become covered by an expanded one. Polls `ctl` per cube; on
/// `Err` the pass stopped part way.
///
/// Cubes are processed smallest-first (they benefit most), and parts are
/// tried in descending column count over `f` (raising toward other cubes
/// maximizes the chance of covering them).
pub fn expand(f: &mut Cover, off: &CubeMatrix, ctl: &RunCtl) -> Result<(), Cancelled> {
    let space = f.space().clone();
    f.absorb();
    let n = f.len();
    if n == 0 {
        return Ok(());
    }

    // Column counts: how many cubes of f admit each part. One word pass per
    // cube, iterating set bits (a part's global bit index is its word slot).
    let total_bits = space.total_bits() as usize;
    let mut col = vec![0u32; total_bits];
    for c in f.iter() {
        for (k, &w) in c.words().iter().enumerate() {
            let mut w = w;
            while w != 0 {
                col[k * 64 + w.trailing_zeros() as usize] += 1;
                w &= w - 1;
            }
        }
    }

    // Process order: ascending size.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| f.cubes()[i].count_ones());

    let mut covered = vec![false; n];
    let mut poll = Poll::new(Some(ctl));
    for &i in &order {
        if covered[i] {
            continue;
        }
        poll.step(off.len() as u64)?;
        let mut c = f.cubes()[i].clone();

        // Candidate parts: currently absent from c, in descending column
        // count.
        let mut cands: Vec<(usize, u32)> = Vec::new();
        for v in space.vars() {
            for p in 0..space.parts(v) {
                if !c.has_part(&space, v, p) {
                    cands.push((v, p));
                }
            }
        }
        cands.sort_by_key(|&(v, p)| std::cmp::Reverse(col[space.bit(v, p) as usize]));
        for (v, p) in cands {
            raise_within(&space, off, &mut c, v, p);
        }

        // Commit and mark covered cubes.
        f.cubes_mut()[i] = c.clone();
        for (j, cov) in covered.iter_mut().enumerate() {
            if j != i && !*cov && f.cubes()[j].is_subset_of(&c) {
                *cov = true;
            }
        }
    }

    let mut idx = 0;
    f.cubes_mut().retain(|_| {
        let k = !covered[idx];
        idx += 1;
        k
    });
    Ok(())
}

/// Raises part `p` of variable `v` in `c` if the raised cube stays disjoint
/// from every row of the off-set `off`.
pub(crate) fn raise_within(space: &CubeSpace, off: &CubeMatrix, c: &mut Cube, v: usize, p: u32) {
    c.set_part(space, v, p);
    if !(0..off.len()).all(|r| rows_disjoint(space, off.row(r), c.words())) {
        c.clear_part(space, v, p);
    }
}

/// Is `c` a prime implicant of the function denoted by `fd = F ∪ D`
/// (no single part can be raised while staying inside `fd`)?
pub fn is_prime(fd: &Cover, c: &Cube) -> bool {
    let space = fd.space();
    for v in space.vars() {
        for p in 0..space.parts(v) {
            if !c.has_part(space, v, p) {
                let mut t = c.clone();
                t.set_part(space, v, p);
                if cube_in_cover(fd, &t) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complement::complement;
    use crate::space::CubeSpace;
    use crate::tautology::verify_minimized;

    fn cover(space: &CubeSpace, strs: &[&str]) -> Cover {
        let mut f = Cover::empty(space.clone());
        for s in strs {
            f.push_parsed(s).unwrap();
        }
        f
    }

    #[test]
    fn expand_merges_adjacent_minterms() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // f = x'y' + x'y  should expand to x'
        let mut f = cover(&sp, &["01 01 1", "01 10 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        let off = CubeMatrix::from_cover(&complement(&f.union(&d)));
        expand(&mut f, &off, &RunCtl::unlimited()).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f.cubes()[0].display(&sp).to_string(), "01 11 1");
        assert!(verify_minimized(&f, &orig, &d));
    }

    #[test]
    fn expand_uses_dont_cares() {
        let sp = CubeSpace::binary_with_output(2, 1);
        let mut f = cover(&sp, &["10 10 1"]); // xy
        let orig = f.clone();
        let d = cover(&sp, &["10 01 1", "01 10 1"]); // xy' and x'y are DC
        let off = CubeMatrix::from_cover(&complement(&f.union(&d)));
        expand(&mut f, &off, &RunCtl::unlimited()).unwrap();
        assert_eq!(f.len(), 1);
        // The prime may absorb either DC direction; it must be a prime and
        // stay within ON ∪ DC.
        assert!(verify_minimized(&f, &orig, &d));
        let fd = orig.union(&d);
        assert!(is_prime(&fd, &f.cubes()[0]));
        assert!(f.cubes()[0].count_ones() > orig.cubes()[0].count_ones());
    }

    #[test]
    fn expand_respects_off_set() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // xor: on = xy' + x'y, off = xy + x'y'. Nothing can expand.
        let mut f = cover(&sp, &["10 01 1", "01 10 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        let off = CubeMatrix::from_cover(&complement(&f.union(&d)));
        expand(&mut f, &off, &RunCtl::unlimited()).unwrap();
        assert_eq!(f.len(), 2);
        assert!(verify_minimized(&f, &orig, &d));
    }

    #[test]
    fn expand_multioutput_sharing() {
        let sp = CubeSpace::binary_with_output(2, 2);
        // Same product needed by both outputs: xy on f0, xy on f1.
        let mut f = cover(&sp, &["10 10 10", "10 10 01"]);
        let d = Cover::empty(sp.clone());
        let off = CubeMatrix::from_cover(&complement(&f.union(&d)));
        expand(&mut f, &off, &RunCtl::unlimited()).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f.cubes()[0].display(&sp).to_string(), "10 10 11");
    }

    #[test]
    fn expanded_cubes_are_prime() {
        let sp = CubeSpace::binary_with_output(3, 1);
        let mut f = cover(
            &sp,
            &["10 10 10 1", "10 10 01 1", "01 10 10 1", "10 01 10 1"],
        );
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        let off = CubeMatrix::from_cover(&complement(&f.union(&d)));
        expand(&mut f, &off, &RunCtl::unlimited()).unwrap();
        let fd = orig.union(&d);
        for c in f.iter() {
            assert!(is_prime(&fd, c));
        }
        assert!(verify_minimized(&f, &orig, &d));
    }
}
