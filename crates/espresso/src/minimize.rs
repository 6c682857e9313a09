//! The ESPRESSO minimization loop.
//!
//! Every EXPAND pass and LAST_GASP's raises test candidates against one
//! off-set `R = complement(F ∪ D)`, computed once per call. `R` stays valid
//! for the whole loop because `F ∪ D ≡ ON ∪ DC` holds throughout it:
//! EXPAND raises only inside `F ∪ D`; REDUCE and IRREDUNDANT drop only what
//! the rest of the cover (plus `D`) still covers; and essential primes move
//! from `F` into the augmented don't-care set, leaving the union unchanged.
//! The complement polls the run's ctl, so a deadline or stop also ends an
//! off-set that blows up (it can be exponentially larger than `F ∪ D`).
//! REDUCE, EXPAND, IRREDUNDANT, the essential-primes test and LAST_GASP
//! poll it per cube, so one pass over a wide cover does not run on past a
//! deadline either.

use crate::complement::complement_matrix;
use crate::cover::{Cover, CoverCost};
use crate::ctl::{Cancelled, Poll, RunCtl};
use crate::cube::Cube;
use crate::expand::{expand, raise_within};
use crate::irredundant::{irredundant, relatively_essential};
use crate::matrix::CubeMatrix;
use crate::reduce::{reduce, reduce_cube_against};
use crate::tautology::verify_minimized;

/// Most reduce/expand/irredundant improvement iterations between two
/// LAST_GASP steps (the frozen reference in `espresso-legacy` runs the
/// loop with the same bound).
const MAX_ITERATIONS: usize = 8;

/// Tuning knobs for [`minimize_with`]. The full loop always extracts
/// essential primes after the first pass (ESSENTIAL_PRIMES in ESPRESSO)
/// and runs the LAST_GASP escape step when the loop converges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimizeOptions {
    /// Run the post-loop verification of `F ⊆ M ⊆ F ∪ D` (debug safety net).
    pub verify: bool,
    /// Skip the reduce/expand improvement loop (single expand+irredundant
    /// pass). Fast path used by symbolic minimization's inner calls.
    pub single_pass: bool,
    /// Ignored: the unate-recursion kernels always run sequentially.
    #[deprecated(note = "ignored: the ESPRESSO kernels are always sequential")]
    pub jobs: usize,
}

impl Default for MinimizeOptions {
    #[allow(deprecated)]
    fn default() -> Self {
        MinimizeOptions {
            verify: cfg!(debug_assertions),
            single_pass: false,
            jobs: 1,
        }
    }
}

/// Statistics of a minimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimizeStats {
    /// Cubes before minimization.
    pub initial_cubes: usize,
    /// Cubes after minimization.
    pub final_cubes: usize,
    /// Number of improvement iterations executed.
    pub iterations: usize,
}

/// Heuristic two-level minimization of on-set `f` against don't-care set `d`
/// with default options. Returns a cover `M` with `F ⊆ M ⊆ F ∪ D`.
///
/// # Examples
///
/// ```
/// use espresso::{minimize, Cover, CubeSpace};
///
/// let space = CubeSpace::binary_with_output(2, 1);
/// let mut f = Cover::empty(space.clone());
/// f.push_parsed("10 10 1").unwrap(); // x y
/// f.push_parsed("10 01 1").unwrap(); // x y'
/// let m = minimize(&f, &Cover::empty(space));
/// assert_eq!(m.len(), 1); // merged into x
/// ```
pub fn minimize(f: &Cover, d: &Cover) -> Cover {
    minimize_with(f, d, MinimizeOptions::default()).0
}

/// Heuristic two-level minimization with explicit options; also returns run
/// statistics.
///
/// # Panics
///
/// Panics if `opts.verify` is set and the result violates the ESPRESSO
/// contract (this indicates an internal bug, not a user error).
pub fn minimize_with(f: &Cover, d: &Cover, opts: MinimizeOptions) -> (Cover, MinimizeStats) {
    minimize_with_ctl(f, d, opts, &RunCtl::unlimited()).expect("unlimited ctl never cancels")
}

/// [`minimize_with`] under a [`RunCtl`]: the EXPAND/IRREDUNDANT/REDUCE loop
/// charges the handle once per pass (weighted by the live cube count) and
/// unwinds with [`Cancelled`] when the deadline or budget fires, so a
/// portfolio deadline turns into a clean per-algorithm timeout instead of a
/// long-running minimization. Inside a pass the off-set's complement and
/// every kernel also poll the handle's deadline and stop, without
/// charging. Also feeds the espresso-iteration and cubes-in/out telemetry
/// counters.
pub fn minimize_with_ctl(
    f: &Cover,
    d: &Cover,
    opts: MinimizeOptions,
    ctl: &RunCtl,
) -> Result<(Cover, MinimizeStats), Cancelled> {
    let tracer = ctl.tracer().clone();
    let _minimize_span = tracer.span("espresso.minimize");
    let scratch_before = crate::scratch::thread_stats();
    let initial_cubes = f.len();
    // Scratch-pool reuse telemetry: flushed as espresso.scratch.* counters so
    // allocation regressions in the arena kernels show up in --trace output.
    let flush_scratch = |t: &nova_trace::Tracer| {
        let d = crate::scratch::thread_stats().delta_from(&scratch_before);
        t.incr("espresso.scratch.acquires", d.acquires);
        t.incr("espresso.scratch.reuses", d.reuses());
        t.incr("espresso.scratch.fresh_allocs", d.fresh_allocs);
        t.gauge("espresso.scratch.live_peak", d.live_peak as i64);
    };
    let mut cur = f.clone();
    cur.absorb();
    if cur.is_empty() {
        flush_scratch(&tracer);
        return Ok((
            cur,
            MinimizeStats {
                initial_cubes,
                final_cubes: 0,
                iterations: 0,
            },
        ));
    }

    ctl.charge(1 + cur.len() as u64)?;
    let off = tracer.scope("espresso.complement", || {
        complement_matrix(cur.space(), cur.iter().chain(d.iter()), ctl)
    })?;
    tracer.incr("espresso.offset_cubes", off.len() as u64);
    tracer.scope("espresso.expand", || expand(&mut cur, &off, ctl))?;
    tracer.scope("espresso.irredundant", || irredundant(&mut cur, d, ctl))?;

    // Essential primes never leave any prime cover: peel them off into the
    // don't-care set so the improvement loop works on a smaller problem.
    let mut essentials = Cover::empty(cur.space().clone());
    let mut d_aug = d.clone();
    if !opts.single_pass {
        let ess = relatively_essential(&cur, d, ctl)?;
        if !ess.is_empty() && ess.len() < cur.len() {
            let mut rest = Vec::new();
            for (i, c) in cur.iter().enumerate() {
                if ess.contains(&i) {
                    essentials.push(c.clone());
                    d_aug.push(c.clone());
                } else {
                    rest.push(c.clone());
                }
            }
            cur = Cover::from_cubes(cur.space().clone(), rest);
        }
    }

    let with_essentials = |c: &Cover| -> Cover {
        let mut out = essentials.clone();
        for cube in c.iter() {
            out.push(cube.clone());
        }
        out
    };
    let mut best = with_essentials(&cur);
    let mut best_cost: CoverCost = best.cost();
    let mut iterations = 0;

    if !opts.single_pass {
        loop {
            let mut improved = false;
            for _ in 0..MAX_ITERATIONS {
                ctl.charge(1 + cur.len() as u64)?;
                ctl.count_espresso_iteration();
                iterations += 1;
                let _iter_span = tracer.span("espresso.iteration");
                tracer.observe("espresso.cubes_per_iteration", cur.len() as u64);
                tracer.scope("espresso.reduce", || reduce(&mut cur, &d_aug, ctl))?;
                tracer.scope("espresso.expand", || expand(&mut cur, &off, ctl))?;
                tracer.scope("espresso.irredundant", || {
                    irredundant(&mut cur, &d_aug, ctl)
                })?;
                let full = with_essentials(&cur);
                let cost = full.cost();
                if cost < best_cost {
                    best = full;
                    best_cost = cost;
                    improved = true;
                } else {
                    break;
                }
            }
            ctl.charge(1 + cur.len() as u64)?;
            let gasped = tracer.scope("espresso.last_gasp", || {
                last_gasp(&mut cur, &d_aug, &off, ctl)
            })?;
            if !gasped {
                break;
            }
            let full = with_essentials(&cur);
            let cost = full.cost();
            if cost < best_cost {
                best = full;
                best_cost = cost;
            } else if !improved {
                break;
            }
        }
    }

    if opts.verify {
        // verify_minimized is containment checking, i.e. the tautology
        // kernel — worth its own span when enabled.
        let ok = tracer.scope("espresso.tautology", || verify_minimized(&best, f, d));
        assert!(
            ok,
            "espresso contract violated: F ⊆ M ⊆ F ∪ D does not hold"
        );
    }
    let final_cubes = best.len();
    ctl.count_cubes(initial_cubes as u64, final_cubes as u64);
    flush_scratch(&tracer);
    Ok((
        best,
        MinimizeStats {
            initial_cubes,
            final_cubes,
            iterations,
        },
    ))
}

/// LAST_GASP: reduce every cube *independently* (against the original
/// cover), expand each reduced cube against the off-set `off`, and keep the
/// new primes that cover at least two reduced cubes; returns whether the
/// cover changed. Polls `ctl` per cube.
fn last_gasp(f: &mut Cover, d: &Cover, off: &CubeMatrix, ctl: &RunCtl) -> Result<bool, Cancelled> {
    let space = f.space().clone();
    let n = f.len();
    if n < 2 {
        return Ok(false);
    }
    let mut poll = Poll::new(Some(ctl));
    // Independent maximal reductions.
    let mut reduced: Vec<Cube> = Vec::with_capacity(n);
    for i in 0..n {
        poll.step((n + d.len()) as u64)?;
        reduced.push(reduce_cube_against(f, d, i));
    }
    // Try to expand each reduced cube into a prime covering >= 2 reduced
    // cubes.
    let mut additions: Vec<Cube> = Vec::new();
    for g in &reduced {
        poll.step(off.len() as u64)?;
        let mut c = g.clone();
        for v in space.vars() {
            for p in 0..space.parts(v) {
                if !c.has_part(&space, v, p) {
                    raise_within(&space, off, &mut c, v, p);
                }
            }
        }
        let covered = reduced.iter().filter(|r| r.is_subset_of(&c)).count();
        if covered >= 2 && !f.cubes().contains(&c) && !additions.contains(&c) {
            additions.push(c);
        }
    }
    if additions.is_empty() {
        return Ok(false);
    }
    let before = f.cost();
    let mut candidate = f.clone();
    for a in additions {
        candidate.push(a);
    }
    irredundant(&mut candidate, d, ctl)?;
    if candidate.cost() < before {
        *f = candidate;
        Ok(true)
    } else {
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctl::CancelReason;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::space::{CubeSpace, VarKind};
    use crate::tautology::covers_equivalent;

    fn cover(space: &CubeSpace, strs: &[&str]) -> Cover {
        let mut f = Cover::empty(space.clone());
        for s in strs {
            f.push_parsed(s).unwrap();
        }
        f
    }

    #[test]
    fn minimizes_full_truth_table_to_tautology() {
        let sp = CubeSpace::binary_with_output(3, 1);
        let mut f = Cover::empty(sp.clone());
        for m in 0..8u32 {
            let mut s = String::new();
            for b in 0..3 {
                s.push_str(if m >> b & 1 == 1 { "10 " } else { "01 " });
            }
            s.push('1');
            f.push_parsed(&s).unwrap();
        }
        let m = minimize(&f, &Cover::empty(sp.clone()));
        assert_eq!(m.len(), 1);
        assert!(m.cubes()[0].is_full(&sp));
    }

    #[test]
    fn xor_stays_two_cubes() {
        let sp = CubeSpace::binary_with_output(2, 1);
        let f = cover(&sp, &["10 01 1", "01 10 1"]);
        let m = minimize(&f, &Cover::empty(sp));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn classic_espresso_example() {
        // The 4-input function from the espresso README-style examples:
        // scattered minterms that collapse substantially.
        let sp = CubeSpace::binary_with_output(4, 1);
        let f = cover(
            &sp,
            &[
                "01 01 01 01 1",
                "10 01 01 01 1",
                "01 10 01 01 1",
                "10 10 01 01 1",
                "01 01 10 01 1",
                "10 01 10 01 1",
                "01 10 10 01 1",
                "10 10 10 01 1",
            ],
        );
        // f = d' (independent of a, b, c)
        let m = minimize(&f, &Cover::empty(sp.clone()));
        assert_eq!(m.len(), 1);
        assert_eq!(m.cubes()[0].display(&sp).to_string(), "11 11 11 01 1");
    }

    #[test]
    fn multivalued_minimization_groups_values() {
        // One MV variable with 4 values; f(v) = 1 for v ∈ {0,1,2}.
        let sp = CubeSpace::new(&[4, 1], &[VarKind::Multi, VarKind::Output]);
        let f = cover(&sp, &["1000 1", "0100 1", "0010 1"]);
        let m = minimize(&f, &Cover::empty(sp.clone()));
        assert_eq!(m.len(), 1);
        assert_eq!(m.cubes()[0].display(&sp).to_string(), "1110 1");
    }

    #[test]
    fn dont_cares_enable_merging() {
        let sp = CubeSpace::binary_with_output(2, 1);
        let f = cover(&sp, &["10 10 1", "01 01 1"]);
        let d = cover(&sp, &["10 01 1", "01 10 1"]);
        let m = minimize(&f, &d);
        assert_eq!(m.len(), 1);
        assert!(m.cubes()[0].is_full(&sp));
    }

    #[test]
    fn equivalence_preserved_on_random_style_cover() {
        let sp = CubeSpace::binary_with_output(3, 2);
        let f = cover(
            &sp,
            &[
                "10 10 10 11",
                "10 10 01 10",
                "10 01 10 01",
                "01 10 10 10",
                "01 01 01 11",
                "01 01 10 01",
            ],
        );
        let m = minimize(&f, &Cover::empty(sp));
        assert!(covers_equivalent(&m, &f));
        assert!(m.len() <= f.len());
    }

    #[test]
    fn a_deadline_inside_a_pass_ends_it_at_the_kernels_poll() {
        // 4,096 don't-care rows make REDUCE's first cube one full poll
        // period. The injected deadline latches on the first iteration's
        // count, after the pass's charge; no charge follows until the pass
        // ends, so only the kernels' poll can notice it.
        let sp = CubeSpace::binary_with_output(4, 1);
        let f = cover(&sp, &["10 10 11 11 1", "11 10 10 11 1", "01 01 01 11 1"]);
        let mut d = Cover::empty(sp.clone());
        for _ in 0..4096 {
            d.push_parsed("10 10 10 10 1").unwrap();
        }
        let ctl = RunCtl::new(None, None, nova_trace::Tracer::enabled());
        ctl.arm_faults(&FaultPlan::single("*", 3, FaultKind::Deadline));
        let result = minimize_with_ctl(&f, &d, MinimizeOptions::default(), &ctl);
        assert!(matches!(result, Err(Cancelled)));
        assert_eq!(ctl.cancel_reason(), Some(CancelReason::Deadline));
        let events = ctl.tracer().collected_events();
        let begun = |name: &str| {
            let begins = events
                .iter()
                .filter(|e| e.phase == nova_trace::Phase::Begin);
            begins.filter(|e| e.name == name).count()
        };
        assert_eq!(begun("espresso.iteration"), 1);
        assert_eq!(begun("espresso.reduce"), 1);
        assert_eq!(begun("espresso.expand"), 1, "the pass went on past REDUCE");
    }

    #[test]
    fn stats_report_progress() {
        let sp = CubeSpace::binary_with_output(2, 1);
        let f = cover(&sp, &["10 10 1", "10 01 1", "01 10 1", "01 01 1"]);
        let (m, stats) = minimize_with(&f, &Cover::empty(sp), MinimizeOptions::default());
        assert_eq!(stats.initial_cubes, 4);
        assert_eq!(stats.final_cubes, m.len());
        assert_eq!(m.len(), 1);
    }
}
