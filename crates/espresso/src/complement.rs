//! Complementation and sharp (set difference) of covers.
//!
//! The recursive Shannon expansion runs on flat [`CubeMatrix`] arenas from
//! the per-thread [`Scratch`](crate::scratch::Scratch) pool: every recursion
//! level appends its result rows to one shared output matrix and branch
//! covers are written into reused buffers, so complementation performs no
//! heap allocation after warm-up. Results are bit-identical to the frozen
//! reference in the `espresso-legacy` crate.
//!
//! The smallest cover of a complement can be exponentially larger than the
//! cover itself, so the complement ESPRESSO takes once per minimization
//! (its off-set) polls the run's [`RunCtl`]: a deadline or stop ends it
//! even when it blows up. Polling charges no work units.

use crate::containment::{absorb_matrix, absorb_matrix_polled};
use crate::cover::Cover;
use crate::ctl::{Cancelled, RunCtl};
use crate::cube::Cube;
use crate::matrix::{nonfull_counts, select_binate, CubeMatrix, SIG_EXACT_VARS};
use crate::scratch::{with_scratch, Scratch};
use crate::space::CubeSpace;

/// Steps of a complement between two cancellation polls.
const POLL_STEPS: u64 = 4096;

/// Cancellation polling for one complement. A step is one input row of a
/// recursion node, or one row compared by a sibling merge or by the final
/// absorption; every [`POLL_STEPS`] steps [`RunCtl::cancelled`] is asked.
/// Without a ctl the complement never cancels.
struct Poll<'a> {
    ctl: Option<&'a RunCtl>,
    left: u64,
}

impl Poll<'_> {
    fn step(&mut self, n: u64) -> Result<(), Cancelled> {
        if n < self.left {
            self.left -= n;
            return Ok(());
        }
        self.left = POLL_STEPS;
        match self.ctl {
            Some(ctl) if ctl.cancelled() => Err(Cancelled),
            _ => Ok(()),
        }
    }
}

/// Complement of a single cube: one result cube per non-full variable,
/// full everywhere except that variable, where it admits exactly the parts
/// the input rejects (De Morgan on positional notation).
pub fn complement_cube(space: &CubeSpace, c: &Cube) -> Vec<Cube> {
    if c.is_empty(space) {
        return vec![Cube::full(space)];
    }
    let mut out = Vec::new();
    for v in space.vars() {
        if c.var_is_full(space, v) {
            continue;
        }
        let mut r = Cube::full(space);
        for p in 0..space.parts(v) {
            if c.has_part(space, v, p) {
                r.clear_part(space, v, p);
            }
        }
        out.push(r);
    }
    out
}

/// Complement of a cover via recursive Shannon expansion on the most binate
/// variable, with unate base cases.
///
/// The result denotes exactly the minterms not covered by `f`.
///
/// # Examples
///
/// ```
/// use espresso::{complement, tautology, Cover, CubeSpace};
///
/// let mut f = Cover::empty(CubeSpace::binary(2));
/// f.push_parsed("10 11").unwrap(); // x
/// let g = complement(&f);
/// assert!(tautology(&f.union(&g)));
/// ```
pub fn complement(f: &Cover) -> Cover {
    let space = f.space();
    let cubes = with_scratch(|s| {
        let mut out = s.acquire(space);
        complement_into(space, f.cubes(), &mut out, s, None)
            .expect("a complement without a ctl never cancels");
        let cubes = out.to_cubes(space);
        s.release(out);
        cubes
    });
    Cover::from_cubes(space.clone(), cubes)
}

/// The rows of [`complement`] of the cover with cubes `cubes`, as one
/// matrix, polling `ctl` for cancellation as it goes. ESPRESSO holds this
/// off-set for a whole minimization.
pub(crate) fn complement_matrix<'a>(
    space: &CubeSpace,
    cubes: impl IntoIterator<Item = &'a Cube>,
    ctl: &RunCtl,
) -> Result<CubeMatrix, Cancelled> {
    let mut out = CubeMatrix::new();
    out.reset(space);
    with_scratch(|s| complement_into(space, cubes, &mut out, s, Some(ctl)))?;
    Ok(out)
}

/// Writes the absorbed complement of the cover with cubes `cubes` into the
/// empty matrix `out`.
fn complement_into<'a>(
    space: &CubeSpace,
    cubes: impl IntoIterator<Item = &'a Cube>,
    out: &mut CubeMatrix,
    s: &mut Scratch,
    ctl: Option<&RunCtl>,
) -> Result<(), Cancelled> {
    let mut poll = Poll {
        ctl,
        left: POLL_STEPS,
    };
    let mut m = s.acquire(space);
    m.extend_cubes(space, cubes);
    let done = comp_mat(space, &mut m, out, s, &mut poll);
    s.release(m);
    done?;
    let mut keep = s.acquire_flags();
    let done = absorb_matrix_polled(out, &mut keep, |n| poll.step(n));
    s.release_flags(keep);
    done
}

/// Appends the complement of the cover held in `m` to `out`. `m` is consumed
/// as work space; `out` rows below the entry length are left untouched, so
/// recursion levels can share one output arena.
fn comp_mat(
    space: &CubeSpace,
    m: &mut CubeMatrix,
    out: &mut CubeMatrix,
    s: &mut Scratch,
    poll: &mut Poll,
) -> Result<(), Cancelled> {
    poll.step(m.len() as u64)?;
    m.drop_degenerate();
    if m.any_row_full(space) {
        return Ok(());
    }
    if m.is_empty() {
        out.push_full(space);
        return Ok(());
    }
    if m.len() > 1 {
        // Absorption keeps the recursion small.
        let mut keep = s.acquire_flags();
        absorb_matrix(m, &mut keep);
        s.release_flags(keep);
    }
    if m.len() == 1 {
        // One result cube per non-full variable, read off the signature's
        // nonfull bitmap when it is exact.
        if space.num_vars() <= SIG_EXACT_VARS {
            let mut nf = m.sig(0).nonfull;
            while nf != 0 {
                let v = nf.trailing_zeros() as usize;
                nf &= nf - 1;
                out.push_complement_var(space, m.row(0), v);
            }
        } else {
            for v in space.vars() {
                if !m.row_var_is_full(space, 0, v) {
                    out.push_complement_var(space, m.row(0), v);
                }
            }
        }
        return Ok(());
    }

    // Most binate variable, from signature statistics alone.
    let mut counts = s.acquire_counts();
    nonfull_counts(space, m, &mut counts);
    let best = select_binate(space, &counts);
    s.release_counts(counts);
    let v = best.expect("non-universe multi-cube cover has an active variable");

    // complement(F) = ⋃_p [ (v = p) ∧ complement(F cofactored at v = p) ]
    let level_start = out.len();
    for p in 0..space.parts(v) {
        let mut branch = s.acquire(space);
        for i in 0..m.len() {
            if m.row_has_part(space, i, v, p) {
                branch.push_var_full_from(space, m.row(i), v, m.sig(i));
            }
        }
        let mark = out.len();
        let done = comp_mat(space, &mut branch, out, s, poll);
        s.release(branch);
        done?;
        // Restrict the branch complement to v = p.
        for i in mark..out.len() {
            out.restrict_var_to_part(space, i, v, p);
        }
    }

    // Merge sibling cubes that differ only in v (reduces blow-up from the
    // value partition): two rows identical outside v merge by OR-ing their
    // v fields. Only this level's rows (a suffix of `out`) participate.
    let mut i = level_start;
    while i < out.len() {
        poll.step((out.len() - i) as u64)?;
        let mut j = i + 1;
        while j < out.len() {
            if out.rows_equal_outside_var(space, i, j, v) {
                out.or_var_from(space, i, j, v);
                out.swap_remove(j);
            } else {
                j += 1;
            }
        }
        i += 1;
    }
    Ok(())
}

/// Sharp of a cube by a cube: `a ∖ b` as a (non-disjoint) list of cubes.
pub fn sharp_cube(space: &CubeSpace, a: &Cube, b: &Cube) -> Vec<Cube> {
    if a.intersect(space, b).is_none() {
        return vec![a.clone()];
    }
    if a.is_subset_of(b) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for v in space.vars() {
        let mut r = a.clone();
        r.clear_var(space, v);
        let mut any = false;
        for p in 0..space.parts(v) {
            if a.has_part(space, v, p) && !b.has_part(space, v, p) {
                r.set_part(space, v, p);
                any = true;
            }
        }
        if any {
            out.push(r);
        }
    }
    out
}

/// Sharp of a cover by a cover: `f ∖ g` as a cover (exact set difference).
pub fn sharp(f: &Cover, g: &Cover) -> Cover {
    let space = f.space();
    let mut current: Vec<Cube> = f.cubes().to_vec();
    for b in g.iter() {
        let mut next = Vec::new();
        for a in &current {
            next.extend(sharp_cube(space, a, b));
        }
        current = next;
        // Periodic absorption keeps intermediate covers manageable.
        if current.len() > 64 {
            let mut c = Cover::from_cubes(space.clone(), std::mem::take(&mut current));
            c.absorb();
            current = c.into_iter().collect();
        }
    }
    let mut out = Cover::from_cubes(space.clone(), current);
    out.absorb();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tautology::{covers_equivalent, cube_in_cover, tautology};

    fn cover(space: &CubeSpace, strs: &[&str]) -> Cover {
        let mut f = Cover::empty(space.clone());
        for s in strs {
            f.push_parsed(s).unwrap();
        }
        f
    }

    #[test]
    fn complement_of_empty_is_universe() {
        let sp = CubeSpace::binary(2);
        let g = complement(&Cover::empty(sp.clone()));
        assert_eq!(g.len(), 1);
        assert!(g.cubes()[0].is_full(&sp));
    }

    #[test]
    fn complement_of_universe_is_empty() {
        let sp = CubeSpace::binary(2);
        assert!(complement(&Cover::universe(sp)).is_empty());
    }

    #[test]
    fn complement_partitions_space() {
        let sp = CubeSpace::binary(3);
        let f = cover(&sp, &["10 11 01", "11 10 10", "01 01 11"]);
        let g = complement(&f);
        // f ∪ f' is a tautology and f ∩ f' is empty.
        assert!(tautology(&f.union(&g)));
        for a in f.iter() {
            for b in g.iter() {
                assert!(a.intersect(&sp, b).is_none(), "complement overlaps f");
            }
        }
    }

    #[test]
    fn complement_multivalued() {
        use crate::space::VarKind;
        let sp = CubeSpace::new(&[4, 2], &[VarKind::Multi, VarKind::Binary]);
        let f = cover(&sp, &["1100 11", "0010 10"]);
        let g = complement(&f);
        assert!(tautology(&f.union(&g)));
        for b in g.iter() {
            assert!(!cube_in_cover(&f, b));
        }
    }

    #[test]
    fn double_complement_is_identity() {
        let sp = CubeSpace::binary(3);
        let f = cover(&sp, &["10 11 01", "01 10 11"]);
        let ff = complement(&complement(&f));
        assert!(covers_equivalent(&f, &ff));
    }

    #[test]
    fn complement_matrix_holds_the_complement_rows() {
        let sp = CubeSpace::binary(3);
        let f = cover(&sp, &["10 11 01", "11 10 10", "01 01 11"]);
        let m = complement_matrix(&sp, f.iter(), &RunCtl::unlimited()).expect("never cancels");
        assert_eq!(m.to_cubes(&sp), complement(&f).cubes());
    }

    #[test]
    fn off_set_blow_up_stops_at_the_deadline() {
        // x0·x1 + x2·x3 + … over 40 inputs is 20 cubes; every cover of its
        // complement needs 2^20. Only the deadline poll ends the complement.
        let sp = CubeSpace::binary(40);
        let pairs: Vec<Cube> = (0..20)
            .map(|k| {
                let mut c = Cube::full(&sp);
                c.clear_part(&sp, 2 * k, 1);
                c.clear_part(&sp, 2 * k + 1, 1);
                c
            })
            .collect();
        let deadline = std::time::Duration::from_millis(100);
        let start = std::time::Instant::now();
        let ctl = RunCtl::new(None, Some(start + deadline), nova_trace::Tracer::disabled());
        assert!(complement_matrix(&sp, &pairs, &ctl).is_err());
        assert_eq!(
            ctl.cancel_reason(),
            Some(crate::ctl::CancelReason::Deadline)
        );
        assert_eq!(ctl.counters().work, 0, "polling charges no work units");
        let late = start.elapsed().saturating_sub(deadline);
        assert!(late.as_millis() < 500, "ended {late:?} after the deadline");
    }

    #[test]
    fn sharp_is_set_difference() {
        let sp = CubeSpace::binary(2);
        let f = Cover::universe(sp.clone());
        let g = cover(&sp, &["10 11"]); // x
        let d = sharp(&f, &g); // should be x'
        assert_eq!(d.len(), 1);
        assert_eq!(d.cubes()[0].display(&sp).to_string(), "01 11");
    }

    #[test]
    fn sharp_equals_intersection_with_complement() {
        let sp = CubeSpace::binary(3);
        let f = cover(&sp, &["11 10 11", "10 11 01"]);
        let g = cover(&sp, &["10 10 11"]);
        let lhs = sharp(&f, &g);
        let rhs = f.intersection(&complement(&g));
        assert!(covers_equivalent(&lhs, &rhs));
    }
}
