//! REDUCE: shrink each cube to the smallest cube that keeps the cover valid.
//!
//! Reducing before a new EXPAND pass lets cubes re-expand in different
//! directions, escaping local minima of the expand/irredundant loop.
//!
//! A part `p` of variable `v` may be lowered in cube `c` exactly when the
//! slice of `c` at `v = p` is covered by the rest of the cover plus the
//! don't-care set. The condition is monotone in the shrinking cube, so
//! looping greedy passes converge to the maximally reduced cube (ESPRESSO's
//! "smallest cube containing the complement's cofactor").
//!
//! The "rest of the cover" oracle is staged in a scratch
//! [`CubeMatrix`](crate::matrix::CubeMatrix) and candidate slices are built
//! in a reused word buffer, so the inner loop allocates nothing.

use crate::cover::Cover;
use crate::cube::Cube;
use crate::matrix::{CubeMatrix, Sig};
use crate::scratch::{with_scratch, Scratch};
use crate::space::CubeSpace;
use crate::tautology::cube_in_matrix;

/// Reduces every cube of `f` in place against don't-care cover `d`.
///
/// Cubes are processed largest-first (mirroring ESPRESSO, which gives large
/// cubes the first chance to shed responsibility onto their neighbours).
pub fn reduce(f: &mut Cover, d: &Cover) {
    let space = f.space().clone();
    let n = f.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(f.cubes()[i].count_ones()));

    with_scratch(|s| {
        let mut slice_words: Vec<u64> = Vec::with_capacity(space.words());
        for &i in &order {
            // Oracle: everything except cube i, plus D.
            let mut rest = s.acquire(&space);
            for (j, c) in f.iter().enumerate() {
                if j != i {
                    rest.push_cube(&space, c);
                }
            }
            rest.extend_cubes(&space, d.iter());

            let mut c = f.cubes()[i].clone();
            max_reduce(&space, &rest, &mut c, &mut slice_words, s);
            s.release(rest);
            f.cubes_mut()[i] = c;
        }
    });
}

/// Greedy-to-convergence lowering of `c` against the oracle matrix `rest`.
fn max_reduce(
    space: &CubeSpace,
    rest: &CubeMatrix,
    c: &mut Cube,
    slice_words: &mut Vec<u64>,
    s: &mut Scratch,
) {
    loop {
        let mut changed = false;
        for v in space.vars() {
            for p in 0..space.parts(v) {
                if !c.has_part(space, v, p) || c.var_count(space, v) <= 1 {
                    continue;
                }
                // Slice of c at v = p: the minterms lowering would orphan.
                slice_words.clear();
                slice_words.extend_from_slice(c.words());
                for (w, m) in slice_words.iter_mut().zip(space.mask(v)) {
                    *w &= !m;
                }
                let b = space.bit(v, p) as usize;
                slice_words[b / 64] |= 1u64 << (b % 64);
                let sig = Sig::of(space, slice_words);
                if cube_in_matrix(space, rest, slice_words, sig, s) {
                    c.clear_part(space, v, p);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Maximally reduces cube `i` of `f` against the *unchanged* rest of the
/// cover plus `d`, without mutating `f` (the independent reduction used by
/// LAST_GASP).
pub fn reduce_cube_against(f: &Cover, d: &Cover, i: usize) -> Cube {
    let space = f.space().clone();
    with_scratch(|s| {
        let mut rest = s.acquire(&space);
        for (j, c) in f.iter().enumerate() {
            if j != i {
                rest.push_cube(&space, c);
            }
        }
        rest.extend_cubes(&space, d.iter());

        let mut c = f.cubes()[i].clone();
        let mut slice_words: Vec<u64> = Vec::with_capacity(space.words());
        max_reduce(&space, &rest, &mut c, &mut slice_words, s);
        s.release(rest);
        c
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complement::complement;
    use crate::expand::expand;
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
    fn reduce_shrinks_overlapping_cubes() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // f = x + y; the overlap xy can be dropped from one of them.
        let mut f = cover(&sp, &["10 11 1", "11 10 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        reduce(&mut f, &d);
        assert!(verify_minimized(&f, &orig, &d));
        // One cube must have shrunk.
        let total: u32 = f.iter().map(|c| c.count_ones()).sum();
        let orig_total: u32 = orig.iter().map(|c| c.count_ones()).sum();
        assert!(total < orig_total);
    }

    #[test]
    fn reduce_keeps_disjoint_cover_unchanged() {
        let sp = CubeSpace::binary_with_output(2, 1);
        let mut f = cover(&sp, &["10 01 1", "01 10 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        reduce(&mut f, &d);
        assert_eq!(f, orig);
    }

    #[test]
    fn reduce_then_expand_preserves_function() {
        let sp = CubeSpace::binary_with_output(3, 1);
        let mut f = cover(&sp, &["11 10 11 1", "10 11 10 1", "11 11 01 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        reduce(&mut f, &d);
        assert!(verify_minimized(&f, &orig, &d));
        let off = CubeMatrix::from_cover(&complement(&f.union(&d)));
        expand(&mut f, &off);
        assert!(verify_minimized(&f, &orig, &d));
    }

    #[test]
    fn reduce_into_dont_cares_is_allowed() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // ON = xy, cube currently covers x (over-expanded into DC = xy').
        let mut f = cover(&sp, &["10 11 1"]);
        let on = cover(&sp, &["10 10 1"]);
        let d = cover(&sp, &["10 01 1"]);
        reduce(&mut f, &d);
        // With no other cubes, the cube may shed only slices covered by D.
        assert!(verify_minimized(&f, &on, &d));
        assert_eq!(f.cubes()[0].display(&sp).to_string(), "10 10 1");
    }
}
