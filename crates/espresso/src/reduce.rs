//! REDUCE: shrink each cube to the smallest cube that keeps the cover valid.
//!
//! Reducing before a new EXPAND pass lets cubes re-expand in different
//! directions, escaping local minima of the expand/irredundant loop.
//!
//! Cube `c` of `F` reduces against `G = (F ∖ {c}) ∪ D`. Lowering a part of
//! `c` whose slice `G` covers removes only covered minterms, so the set
//! `U = c ∩ ¬G` that `G` leaves uncovered never changes: a part can be
//! lowered exactly when no minterm of `U` uses it, in whatever order parts
//! are tried. The maximal reduction is therefore the supercube of `U`, and
//! Berkeley ESPRESSO computes it in one step as `c ∩ SCCC(G_c)`, where
//! `G_c` is the cofactor of `G` against `c` and SCCC is the smallest cube
//! containing the complement of a cover. `G_c` is staged straight into one
//! scratch [`CubeMatrix`] and SCCC is one unate recursion over the scratch
//! pool.
//!
//! SCCC has no answer when `U` is empty (`G` covers `c`) or `c` is
//! degenerate (cofactoring against it keeps no row). Every slice is then
//! covered, and lowering parts one at a time lowers all but the last part
//! each variable admits; that cube is written directly, so REDUCE keeps the
//! part-by-part definition's covers (the frozen reference in the
//! `espresso-legacy` crate).

use crate::cover::Cover;
use crate::ctl::{Cancelled, Poll, RunCtl};
use crate::cube::Cube;
use crate::matrix::{nonfull_counts, select_binate, CubeMatrix, SIG_EXACT_VARS};
use crate::scratch::{with_scratch, Scratch};
use crate::space::CubeSpace;

/// Reduces every cube of `f` in place against don't-care cover `d`,
/// polling `ctl` per cube; on `Err` the pass stopped part way.
///
/// Cubes are processed largest-first (mirroring ESPRESSO, which gives large
/// cubes the first chance to shed responsibility onto their neighbours).
pub fn reduce(f: &mut Cover, d: &Cover, ctl: &RunCtl) -> Result<(), Cancelled> {
    let mut order: Vec<usize> = (0..f.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(f.cubes()[i].count_ones()));
    let mut poll = Poll::new(Some(ctl));
    with_scratch(|s| {
        for &i in &order {
            poll.step((f.len() + d.len()) as u64)?;
            f.cubes_mut()[i] = max_reduce(f, d, i, s);
        }
        Ok(())
    })
}

/// Maximally reduces cube `i` of `f` against the *unchanged* rest of the
/// cover plus `d`, without mutating `f` (the independent reduction used by
/// LAST_GASP).
pub fn reduce_cube_against(f: &Cover, d: &Cover, i: usize) -> Cube {
    with_scratch(|s| max_reduce(f, d, i, s))
}

/// Cube `i` of `f`, maximally reduced against the rest of `f` plus `d`.
fn max_reduce(f: &Cover, d: &Cover, i: usize, s: &mut Scratch) -> Cube {
    let space = f.space();
    let c = &f.cubes()[i];
    // Cofactoring against a degenerate c keeps no row, which SCCC would
    // read as "nothing covers c".
    if c.is_empty(space) {
        return last_parts(space, c);
    }
    let mut t = s.acquire(space);
    let rest = f.iter().enumerate().filter(|&(j, _)| j != i);
    for r in rest.map(|(_, r)| r).chain(d) {
        t.push_cofactor(space, r.words(), c.words());
    }
    let mut words = s.acquire_words();
    words.resize(space.words(), 0);
    let found = sccc(space, &mut t, &mut words, s);
    s.release(t);
    let out = if found {
        for (w, x) in words.iter_mut().zip(c.words()) {
            *w &= x;
        }
        Cube::from_words(space, &words)
    } else {
        last_parts(space, c)
    };
    s.release_words(words);
    out
}

/// `c` with every variable lowered to the last part it admits.
fn last_parts(space: &CubeSpace, c: &Cube) -> Cube {
    let mut out = c.clone();
    for v in space.vars() {
        if let Some(p) = (0..space.parts(v)).rev().find(|&p| c.has_part(space, v, p)) {
            out.clear_var(space, v);
            out.set_part(space, v, p);
        }
    }
    out
}

/// Writes into `out` the smallest cube containing the complement of the
/// cover held in `m` and returns `true`, or returns `false` when that
/// complement is empty. `m` is consumed as work space.
fn sccc(space: &CubeSpace, m: &mut CubeMatrix, out: &mut [u64], s: &mut Scratch) -> bool {
    if m.any_row_full(space) {
        return false;
    }
    out.copy_from_slice(space.full_words());
    if m.len() <= 1 || unate(space, m, s) {
        // Every row is non-full somewhere, so the complement takes each
        // part of each variable, except where a row is non-full in one
        // variable alone: the complement then admits only the parts that
        // row lacks there.
        for i in 0..m.len() {
            if let Some(v) = only_nonfull_var(space, m, i) {
                for ((o, w), mk) in out.iter_mut().zip(m.row(i)).zip(space.mask(v)) {
                    *o &= !(w & mk);
                }
            }
        }
        return true;
    }

    // SCCC(T) = ⋃_p (v = p) ∧ SCCC(T cofactored at v = p), over the
    // branches whose complement is not empty.
    let mut counts = s.acquire_counts();
    nonfull_counts(space, m, &mut counts);
    let v = select_binate(space, &counts).expect("a binate cover has an active variable");
    s.release_counts(counts);
    out.fill(0);
    let mut found = false;
    let mut branch_words = s.acquire_words();
    branch_words.resize(space.words(), 0);
    for p in 0..space.parts(v) {
        let mut branch = s.acquire(space);
        for i in 0..m.len() {
            if m.row_has_part(space, i, v, p) {
                branch.push_var_full_from(space, m.row(i), v, m.sig(i));
            }
        }
        let nonempty = sccc(space, &mut branch, &mut branch_words, s);
        s.release(branch);
        if !nonempty {
            continue;
        }
        found = true;
        for ((o, w), mk) in out.iter_mut().zip(&branch_words).zip(space.mask(v)) {
            *o |= w & !mk;
        }
        let b = space.bit(v, p) as usize;
        out[b / 64] |= 1u64 << (b % 64);
        if out == space.full_words() {
            break;
        }
    }
    s.release_words(branch_words);
    found
}

/// Whether every variable misses at most one part across the rows of `m`
/// (the cover is unate: each variable appears in one phase only).
fn unate(space: &CubeSpace, m: &CubeMatrix, s: &mut Scratch) -> bool {
    let mut common = s.acquire_words();
    common.extend_from_slice(space.full_words());
    for i in 0..m.len() {
        for (c, w) in common.iter_mut().zip(m.row(i)) {
            *c &= w;
        }
    }
    let unate = space.vars().all(|v| {
        let missing = space.mask(v).iter().zip(&common);
        missing.map(|(mk, c)| (mk & !c).count_ones()).sum::<u32>() <= 1
    });
    s.release_words(common);
    unate
}

/// The variable row `i` of `m` is non-full in, when it is the only one.
fn only_nonfull_var(space: &CubeSpace, m: &CubeMatrix, i: usize) -> Option<usize> {
    if space.num_vars() <= SIG_EXACT_VARS {
        let nf = m.sig(i).nonfull;
        return (nf.count_ones() == 1).then(|| nf.trailing_zeros() as usize);
    }
    // Past the exact window the signature's top bit is shared: scan fields.
    let mut nonfull = space.vars().filter(|&v| !m.row_var_is_full(space, i, v));
    match (nonfull.next(), nonfull.next()) {
        (Some(v), None) => Some(v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complement::complement;
    use crate::cube::supercube;
    use crate::expand::expand;
    use crate::space::{CubeSpace, VarKind};
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
        reduce(&mut f, &d, &RunCtl::unlimited()).unwrap();
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
        reduce(&mut f, &d, &RunCtl::unlimited()).unwrap();
        assert_eq!(f, orig);
    }

    #[test]
    fn reduce_then_expand_preserves_function() {
        let sp = CubeSpace::binary_with_output(3, 1);
        let mut f = cover(&sp, &["11 10 11 1", "10 11 10 1", "11 11 01 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        reduce(&mut f, &d, &RunCtl::unlimited()).unwrap();
        assert!(verify_minimized(&f, &orig, &d));
        let off = CubeMatrix::from_cover(&complement(&f.union(&d)));
        expand(&mut f, &off, &RunCtl::unlimited()).unwrap();
        assert!(verify_minimized(&f, &orig, &d));
    }

    #[test]
    fn reduce_into_dont_cares_is_allowed() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // ON = xy, cube currently covers x (over-expanded into DC = xy').
        let mut f = cover(&sp, &["10 11 1"]);
        let on = cover(&sp, &["10 10 1"]);
        let d = cover(&sp, &["10 01 1"]);
        reduce(&mut f, &d, &RunCtl::unlimited()).unwrap();
        // With no other cubes, the cube may shed only slices covered by D.
        assert!(verify_minimized(&f, &on, &d));
        assert_eq!(f.cubes()[0].display(&sp).to_string(), "10 10 1");
    }

    /// SplitMix64, so the random covers below need no external crate.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A random cube; about one in eight fields that lose every part stay
    /// empty, so degenerate cubes show up too.
    fn random_cube(rng: &mut Rng, sp: &CubeSpace) -> Cube {
        let mut c = Cube::full(sp);
        for v in sp.vars() {
            for p in 0..sp.parts(v) {
                if rng.below(3) == 0 {
                    c.clear_part(sp, v, p);
                }
            }
            if c.var_is_empty(sp, v) && rng.below(8) != 0 {
                c.set_part(sp, v, rng.below(sp.parts(v) as u64) as u32);
            }
        }
        c
    }

    fn random_cover(rng: &mut Rng, sp: &CubeSpace, max_cubes: u64) -> Cover {
        let n = rng.below(max_cubes + 1);
        Cover::from_cubes(sp.clone(), (0..n).map(|_| random_cube(rng, sp)).collect())
    }

    /// Every minterm of `sp`, as a cube admitting one part per variable.
    fn minterms(sp: &CubeSpace) -> Vec<Cube> {
        let mut out = vec![Cube::zero(sp)];
        for v in sp.vars() {
            out = out
                .iter()
                .flat_map(|m| {
                    (0..sp.parts(v)).map(move |p| {
                        let mut m = m.clone();
                        m.set_part(sp, v, p);
                        m
                    })
                })
                .collect();
        }
        out
    }

    #[test]
    fn reduction_is_the_supercube_of_the_uncovered_minterms() {
        // Checked by enumeration, not against a second reducer: cube c of F
        // must shrink to the supercube of the minterms of c that the rest
        // of F and D leave uncovered, and when there are none, to c with
        // each variable lowered to the last part it admits.
        let spaces = [
            CubeSpace::binary(5),
            CubeSpace::binary_with_output(3, 4),
            CubeSpace::new(
                &[3, 4, 2, 3],
                &[
                    VarKind::Multi,
                    VarKind::Multi,
                    VarKind::Binary,
                    VarKind::Output,
                ],
            ),
            CubeSpace::binary_with_output(7, 8),
        ];
        let mut rng = Rng(0x5ccc_0001);
        for sp in &spaces {
            assert!(sp.num_minterms() <= 1 << 10);
            let all = minterms(sp);
            for _ in 0..40 {
                let f = random_cover(&mut rng, sp, 8);
                let d = random_cover(&mut rng, sp, 3);
                for (i, c) in f.iter().enumerate() {
                    let rest = f.iter().enumerate().filter(|&(j, _)| j != i);
                    let rest: Vec<&Cube> = rest.map(|(_, r)| r).chain(&d).collect();
                    let uncovered = all
                        .iter()
                        .filter(|m| m.is_subset_of(c) && !rest.iter().any(|r| m.is_subset_of(r)));
                    let mut want = supercube(sp, uncovered);
                    if want.is_empty(sp) {
                        want = c.clone();
                        for v in sp.vars() {
                            let last = (0..sp.parts(v)).rev().find(|&p| c.has_part(sp, v, p));
                            if let Some(p) = last {
                                want.clear_var(sp, v);
                                want.set_part(sp, v, p);
                            }
                        }
                    }
                    assert_eq!(
                        reduce_cube_against(&f, &d, i),
                        want,
                        "cube {i} of {f:?} / {d:?}"
                    );
                }
            }
        }
    }
}
