//! Tautology checking via the unate recursive paradigm, and the containment
//! tests built on it.
//!
//! Tautology (`does this cover contain every minterm?`) decides cube-in-cover
//! containment and irredundancy through the ESPRESSO cofactor identity
//! `c ⊆ F ⇔ tautology(F cofactored by c)`; the cofactor is staged straight
//! from the cover's cubes into one scratch matrix. EXPAND tests raises
//! against the off-set instead, and REDUCE computes the smallest cube
//! containing the cofactor's complement (`reduce.rs`).
//!
//! The recursion runs on flat [`CubeMatrix`] arenas drawn from the
//! per-thread [`Scratch`] pool: branch covers are written into reused
//! buffers instead of fresh `Vec<Cube>`s, so the descent performs no heap
//! allocation after warm-up. Results are bit-identical to the frozen
//! reference in the `espresso-legacy` crate (pinned by differential tests).

use crate::containment::absorb_matrix;
use crate::cover::Cover;
use crate::cube::Cube;
use crate::matrix::{nonfull_counts, select_binate, CubeMatrix, SIG_EXACT_VARS};
use crate::scratch::{with_scratch, Scratch};
use crate::space::CubeSpace;

/// Is the cover a tautology (covers every minterm of its space)?
///
/// Uses the unate recursive paradigm: quick decisions on trivial covers,
/// deletion of weakly-unate variables, and Shannon-style branching on the
/// most binate variable otherwise.
///
/// # Examples
///
/// ```
/// use espresso::{Cover, CubeSpace, tautology};
///
/// let mut f = Cover::empty(CubeSpace::binary(1));
/// f.push_parsed("10").unwrap();
/// f.push_parsed("01").unwrap();
/// assert!(tautology(&f)); // x + x' = 1
/// ```
pub fn tautology(f: &Cover) -> bool {
    with_scratch(|s| {
        let mut m = s.acquire(f.space());
        m.extend_cubes(f.space(), f.cubes());
        let r = taut_mat(f.space(), &mut m, s);
        s.release(m);
        r
    })
}

/// The unate recursive tautology check over an arena cover. `m` is consumed
/// as work space (its contents are destroyed).
pub(crate) fn taut_mat(space: &CubeSpace, m: &mut CubeMatrix, s: &mut Scratch) -> bool {
    loop {
        m.drop_degenerate();
        if m.any_row_full(space) {
            return true;
        }
        if m.is_empty() {
            return false;
        }
        // Column check: the supercube of a tautology must be the universe.
        // One strided fold over the flat arena (a single flat OR fold for
        // stride-1 spaces), no per-row indexing.
        {
            let mut col = s.acquire_words();
            col.resize(space.words(), 0);
            m.fold_or_into(&mut col);
            let universe = col.as_slice() == space.full_words();
            s.release_words(col);
            if !universe {
                return false;
            }
        }

        // Weakly-unate variable deletion: if some part p of variable v is
        // admitted by no cube that is non-full in v, the minterms with v = p
        // can only be covered by the v-full cubes; since tautology of the
        // v = p cofactor (a subset of every other cofactor's cubes) implies
        // tautology of all cofactors, F is a tautology iff the v-full cubes
        // alone are.
        //
        // Inside the exact signature window the per-variable statistics come
        // from one fused pass: each row contributes only to the variables
        // whose `nonfull` bit is set, and the admitted-part union of those
        // rows accumulates per variable, so the pass is O(rows × nonfull
        // vars) with at most one word read per contribution.
        let nv = space.num_vars();
        let mut reduced = false;
        if nv <= SIG_EXACT_VARS {
            let mut counts = s.acquire_counts();
            counts.resize(nv, 0);
            let mut union1 = s.acquire_words();
            union1.resize(nv, 0);
            for i in 0..m.len() {
                let mut nf = m.sig(i).nonfull;
                if nf == 0 {
                    continue;
                }
                let row = m.row(i);
                while nf != 0 {
                    let v = nf.trailing_zeros() as usize;
                    nf &= nf - 1;
                    counts[v] += 1;
                    if let Some((k, mask)) = space.single_word_field(v) {
                        union1[v] |= row[k] & mask;
                    }
                }
            }
            for v in space.vars() {
                if counts[v] == 0 {
                    continue;
                }
                let union_full = match space.single_word_field(v) {
                    Some((_, mask)) => union1[v] == mask,
                    None => multiword_union_full(space, m, v),
                };
                if !union_full {
                    m.retain_var_full(space, v);
                    reduced = true;
                    break;
                }
            }
            s.release_words(union1);
            s.release_counts(counts);
        } else {
            // Beyond the window the saturated top bit is only an over-
            // approximation, so fall back to exact per-variable scans.
            for v in space.vars() {
                let any_non_full = (0..m.len()).any(|i| !m.row_var_is_full(space, i, v));
                if !any_non_full {
                    continue;
                }
                let union_full = (0..space.parts(v)).all(|p| {
                    (0..m.len())
                        .any(|i| !m.row_var_is_full(space, i, v) && m.row_has_part(space, i, v, p))
                });
                if !union_full {
                    m.retain_var_full(space, v);
                    reduced = true;
                    break;
                }
            }
        }
        if reduced {
            continue;
        }

        let mut keep = s.acquire_flags();
        absorb_matrix(m, &mut keep);
        s.release_flags(keep);
        if m.len() == 1 {
            return m.row_is_full(space, 0);
        }

        // Select the most binate variable (absorption changed the rows, so
        // the counts are retaken — from signatures alone).
        let mut counts = s.acquire_counts();
        nonfull_counts(space, m, &mut counts);
        let best = select_binate(space, &counts);
        s.release_counts(counts);
        let v = match best {
            Some(v) => v,
            // All cubes full in all variables, but none was the universe:
            // impossible (a cube full in every variable *is* the universe).
            None => return true,
        };

        // Branch over every part of v: all cofactors must be tautologies.
        for p in 0..space.parts(v) {
            let mut branch = s.acquire(space);
            for i in 0..m.len() {
                if m.row_has_part(space, i, v, p) {
                    branch.push_var_full_from(space, m.row(i), v, m.sig(i));
                }
            }
            let ok = taut_mat(space, &mut branch, s);
            s.release(branch);
            if !ok {
                return false;
            }
        }
        return true;
    }
}

/// Exact union-fullness check for a variable spanning multiple words (rare;
/// only reachable for parts > 64 fields).
fn multiword_union_full(space: &CubeSpace, m: &CubeMatrix, v: usize) -> bool {
    let (lo, hi) = space.var_span(v);
    let mask = space.mask(v);
    for (k, &mk) in mask.iter().enumerate().take(hi + 1).skip(lo) {
        let mut acc = 0u64;
        for i in 0..m.len() {
            if !m.row_var_is_full(space, i, v) {
                acc |= m.row(i)[k];
            }
        }
        if acc & mk != mk {
            return false;
        }
    }
    true
}

/// Whether the cubes `cover` jointly contain cube `c`: tautology of their
/// cofactor against `c`, staged straight into one scratch matrix. This is
/// the IRREDUNDANT oracle.
pub(crate) fn cubes_contain<'a>(
    space: &CubeSpace,
    cover: impl IntoIterator<Item = &'a Cube>,
    c: &Cube,
    s: &mut Scratch,
) -> bool {
    if c.is_empty(space) {
        return true;
    }
    let mut cf = s.acquire(space);
    for r in cover {
        cf.push_cofactor(space, r.words(), c.words());
    }
    let r = taut_mat(space, &mut cf, s);
    s.release(cf);
    r
}

/// Exact cube-in-cover containment: is every minterm of `c` covered by `f`?
///
/// Computed as tautology of the cofactor of `f` with respect to `c`.
pub fn cube_in_cover(f: &Cover, c: &Cube) -> bool {
    // Sufficient fast path: some single cube contains c outright.
    if f.iter().any(|d| c.is_subset_of(d)) {
        return true;
    }
    with_scratch(|s| cubes_contain(f.space(), f, c, s))
}

/// Exact cover containment: `g ⊆ f`?
pub fn cover_in_cover(g: &Cover, f: &Cover) -> bool {
    g.iter().all(|c| cube_in_cover(f, c))
}

/// Functional equivalence of two covers (mutual containment).
pub fn covers_equivalent(f: &Cover, g: &Cover) -> bool {
    cover_in_cover(f, g) && cover_in_cover(g, f)
}

/// Verifies the ESPRESSO contract for a minimized cover `m` of an on-set
/// `f` with don't-care set `d`: `F ⊆ M ∪ D` (every on-minterm is either
/// implemented or was a don't care — the two sets may overlap, and the
/// don't care wins) and `M ⊆ F ∪ D` (nothing outside the specification is
/// asserted).
pub fn verify_minimized(m: &Cover, f: &Cover, d: &Cover) -> bool {
    let fd = f.union(d);
    let md = m.union(d);
    cover_in_cover(f, &md) && cover_in_cover(m, &fd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{CubeSpace, VarKind};

    fn cover(space: &CubeSpace, strs: &[&str]) -> Cover {
        let mut f = Cover::empty(space.clone());
        for s in strs {
            f.push_parsed(s).unwrap();
        }
        f
    }

    #[test]
    fn empty_cover_is_not_tautology() {
        let sp = CubeSpace::binary(2);
        assert!(!tautology(&Cover::empty(sp)));
    }

    #[test]
    fn universe_is_tautology() {
        let sp = CubeSpace::binary(3);
        assert!(tautology(&Cover::universe(sp)));
    }

    #[test]
    fn xor_cover_plus_complement_is_tautology() {
        let sp = CubeSpace::binary(2);
        // x ^ y  and its complement
        let f = cover(&sp, &["10 01", "01 10", "10 10", "01 01"]);
        assert!(tautology(&f));
        let g = cover(&sp, &["10 01", "01 10", "10 10"]);
        assert!(!tautology(&g));
    }

    #[test]
    fn multivalued_tautology() {
        let sp = CubeSpace::new(&[3, 2], &[VarKind::Multi, VarKind::Binary]);
        let f = cover(&sp, &["110 11", "001 10", "001 01"]);
        assert!(tautology(&f));
        let g = cover(&sp, &["110 11", "001 10"]);
        assert!(!tautology(&g));
    }

    #[test]
    fn weakly_unate_reduction_is_sound() {
        let sp = CubeSpace::binary(3);
        // Variable 0 appears only in positive phase among non-full cubes:
        // the cover is a tautology iff the v-full part is.
        let f = cover(&sp, &["10 11 11", "11 10 11", "11 01 11"]);
        assert!(tautology(&f));
        let g = cover(&sp, &["10 11 11", "11 10 11"]);
        assert!(!tautology(&g));
    }

    #[test]
    fn cube_in_cover_exact() {
        let sp = CubeSpace::binary(2);
        // f = x + y covers the cube xy' and the cube x'y, and the full cube
        // x+y itself is covered even though no single cube contains it...
        let f = cover(&sp, &["10 11", "11 10"]);
        let c = Cube::parse(&sp, "10 01").unwrap();
        assert!(cube_in_cover(&f, &c));
        // 11 11 (universe) is not covered (x'y' missing)
        assert!(!cube_in_cover(&f, &Cube::full(&sp)));
        // multi-cube containment: cube "11 10" covered jointly
        let d = Cube::parse(&sp, "11 10").unwrap();
        assert!(cube_in_cover(&f, &d));
    }

    #[test]
    fn equivalence_of_different_covers() {
        let sp = CubeSpace::binary(2);
        let f = cover(&sp, &["10 11", "11 10"]); // x + y
        let g = cover(&sp, &["10 01", "11 10"]); // xy' + y
        assert!(covers_equivalent(&f, &g));
    }

    #[test]
    fn verify_contract() {
        let sp = CubeSpace::binary(2);
        let f = cover(&sp, &["10 10"]);
        let d = cover(&sp, &["10 01"]);
        let m = cover(&sp, &["10 11"]); // expanded into the DC set
        assert!(verify_minimized(&m, &f, &d));
        let bad = cover(&sp, &["11 11"]);
        assert!(!verify_minimized(&bad, &f, &d));
    }

    #[test]
    fn scratch_pool_stops_allocating_after_warmup() {
        use crate::scratch::thread_stats;
        let sp = CubeSpace::binary(4);
        let f = cover(
            &sp,
            &[
                "10 11 11 11",
                "01 10 11 11",
                "01 01 10 11",
                "01 01 01 10",
                "01 01 01 01",
            ],
        );
        tautology(&f); // warm-up
        let before = thread_stats();
        for _ in 0..16 {
            assert!(tautology(&f));
        }
        let delta = thread_stats().delta_from(&before);
        assert!(delta.acquires > 0, "the kernel used the pool");
        assert_eq!(
            delta.fresh_allocs, 0,
            "steady-state tautology must not allocate new matrices"
        );
    }
}
