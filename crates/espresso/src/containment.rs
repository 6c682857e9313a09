//! Single-cube containment, deduplicated and signature-pruned.
//!
//! One blocked scan over [`CubeMatrix`] rows decides every absorption:
//! [`absorb_matrix`] runs it in place inside the unate recursion, and
//! [`absorb_cubes`] (behind `Cover::absorb`) stages its cubes as rows of a
//! pooled matrix first. [`Sig`]natures reject most non-contained pairs on
//! three integer compares before any cube word is read.
//!
//! The keep/remove decisions are bit-for-bit identical to the legacy
//! routine (`espresso_legacy::absorb_in_place`): degenerate cubes are
//! dropped first, then a cube is removed when it is contained in another
//! kept cube, keeping the earliest copy of exact duplicates.
//!
//! The scan exploits that the kept set is *order-independent*: cube `i`
//! is removed iff some `j ≠ i` has `row(i) ⊆ row(j)` with `i > j` breaking
//! exact-duplicate ties. (If the absorbing `j` was itself absorbed, the
//! absorbing chain — each step growing the cube or decreasing the index —
//! terminates at a kept cube that absorbs `i` transitively, so the legacy
//! `keep[j]` re-checks never change the answer.) That makes the O(n²) loop
//! embarrassingly restructurable: signatures are scanned in blocks over the
//! contiguous [`CubeMatrix::sigs`] slice, and row words are only read for
//! the few pairs that survive the three-integer-compare reject.

use crate::ctl::Cancelled;
use crate::cube::Cube;
use crate::matrix::{row_subset, CubeMatrix, Sig};
use crate::scratch::with_scratch;
use crate::space::CubeSpace;

/// Rows per signature-scan block: survivors are gathered into a stack
/// buffer of this size before any row words are read, so the sig pass runs
/// unbranched over contiguous memory and the word pass touches only
/// candidate rows (usually none).
const BLOCK: usize = 64;

/// Single-cube containment minimization over a cube list (the shared
/// implementation behind [`Cover::absorb`](crate::cover::Cover::absorb)):
/// the cubes are staged as rows of a pooled matrix, and the one matrix scan
/// decides which survive.
pub fn absorb_cubes(space: &CubeSpace, cubes: &mut Vec<Cube>) {
    cubes.retain(|c| !c.is_empty(space));
    if cubes.len() < 2 {
        return;
    }
    with_scratch(|s| {
        let mut m = s.acquire(space);
        m.extend_cubes(space, cubes.iter());
        let mut keep = s.acquire_flags();
        mark_unabsorbed(&m, &mut keep, |_| Ok(())).expect("an unpolled scan never cancels");
        let mut flags = keep.iter();
        cubes.retain(|_| *flags.next().expect("one flag per cube"));
        s.release_flags(keep);
        s.release(m);
    });
}

/// Single-cube containment minimization over matrix rows (the arena-kernel
/// flavour used inside the unate recursion).
pub fn absorb_matrix(m: &mut CubeMatrix, keep_buf: &mut Vec<bool>) {
    absorb_matrix_polled(m, keep_buf, |_| Ok(())).expect("an unpolled absorption never cancels");
}

/// [`absorb_matrix`] that calls `poll` with the number of signatures the
/// next row's scan reads, before each row, and stops with `poll`'s error
/// (the rows are then left unabsorbed). The complement behind ESPRESSO's
/// off-set polls its run's cancellation this way.
pub(crate) fn absorb_matrix_polled(
    m: &mut CubeMatrix,
    keep_buf: &mut Vec<bool>,
    poll: impl FnMut(u64) -> Result<(), Cancelled>,
) -> Result<(), Cancelled> {
    m.drop_degenerate();
    if m.len() < 2 {
        return Ok(());
    }
    mark_unabsorbed(m, keep_buf, poll)?;
    m.retain_flags(keep_buf);
    Ok(())
}

/// The blocked signature scan: sets `keep[i]` (resized to `m.len()`) iff no
/// other row absorbs row `i`, polling before each row as
/// [`absorb_matrix_polled`] does. The rows must be non-degenerate.
fn mark_unabsorbed(
    m: &CubeMatrix,
    keep: &mut Vec<bool>,
    mut poll: impl FnMut(u64) -> Result<(), Cancelled>,
) -> Result<(), Cancelled> {
    let n = m.len();
    keep.clear();
    keep.resize(n, true);
    let sigs = m.sigs();
    let mut cand = [0u32; BLOCK];
    for i in 0..n {
        poll(n as u64)?;
        let si = sigs[i];
        'scan: for jb in (0..n).step_by(BLOCK) {
            let je = (jb + BLOCK).min(n);
            let mut nc = 0;
            for (j, sj) in sigs[jb..je].iter().enumerate() {
                if si.may_be_subset_of(*sj) {
                    cand[nc] = (jb + j) as u32;
                    nc += 1;
                }
            }
            let a = m.row(i);
            for &j in &cand[..nc] {
                let j = j as usize;
                if j == i {
                    continue;
                }
                let b = m.row(j);
                if row_subset(a, b) && (a != b || i > j) {
                    keep[i] = false;
                    break 'scan;
                }
            }
        }
    }
    Ok(())
}

/// Signature-pruned scan: does any row of `m` contain `c` outright?
/// (Sufficient but not necessary for cover containment — the fast accept in
/// front of the exact tautology test.)
pub fn any_row_contains(m: &CubeMatrix, c: &[u64], sig_c: Sig) -> bool {
    let n = m.len();
    let sigs = m.sigs();
    let mut cand = [0u32; BLOCK];
    for jb in (0..n).step_by(BLOCK) {
        let je = (jb + BLOCK).min(n);
        let mut nc = 0;
        for (j, sj) in sigs[jb..je].iter().enumerate() {
            if sig_c.may_be_subset_of(*sj) {
                cand[nc] = (jb + j) as u32;
                nc += 1;
            }
        }
        if cand[..nc].iter().any(|&j| row_subset(c, m.row(j as usize))) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::Cover;

    fn cover(strs: &[&str]) -> Cover {
        let sp = CubeSpace::binary_with_output(2, 2);
        let mut f = Cover::empty(sp);
        for s in strs {
            f.push_parsed(s).unwrap();
        }
        f
    }

    #[test]
    fn any_row_contains_is_single_cube_containment() {
        let f = cover(&["10 11 11", "01 10 10"]);
        let sp = f.space().clone();
        let mut m = CubeMatrix::new();
        m.reset(&sp);
        m.extend_cubes(&sp, f.cubes());
        let c = Cube::parse(&sp, "10 01 01").unwrap();
        assert!(any_row_contains(&m, c.words(), Sig::of(&sp, c.words())));
        let d = Cube::parse(&sp, "11 10 10").unwrap();
        assert!(!any_row_contains(&m, d.words(), Sig::of(&sp, d.words())));
    }
}
