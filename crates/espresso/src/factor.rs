//! Algebraic factoring: kernels, weak division, and factored-form literal
//! counts.
//!
//! This module is the stand-in for the multilevel optimization step the NOVA
//! paper performs with MIS-II (Table VII): a two-level cover is turned into a
//! factored form by recursive kernel extraction (the QUICK_FACTOR scheme) and
//! the number of literals of the factored form is reported. Logic sharing
//! *across* outputs is not modeled; each output is factored separately.
//! Counting [`Poll`]s the run's [`RunCtl`] deadline, which ends it.

use crate::cover::Cover;
use crate::ctl::{Cancelled, Poll, RunCtl};
use std::collections::BTreeSet;

/// A literal of an algebraic expression: `2*var + polarity`
/// (polarity 1 = positive phase).
pub type Literal = u32;

/// Encodes a literal.
pub fn literal(var: usize, positive: bool) -> Literal {
    (var as u32) << 1 | u32::from(positive)
}

/// An algebraic (single-output) sum-of-products: a set of cubes, each a set
/// of literals. Used only for factoring, not for Boolean reasoning.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Expr {
    cubes: Vec<BTreeSet<Literal>>,
}

impl Expr {
    /// Empty expression (constant 0).
    pub fn new() -> Self {
        Expr::default()
    }

    /// Builds from cube literal-sets, deduplicating identical cubes.
    pub fn from_cubes(cubes: impl IntoIterator<Item = BTreeSet<Literal>>) -> Self {
        let mut v: Vec<BTreeSet<Literal>> = cubes.into_iter().collect();
        v.sort();
        v.dedup();
        Expr { cubes: v }
    }

    /// The cubes.
    pub fn cubes(&self) -> &[BTreeSet<Literal>] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// True when the expression has no cubes.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Flat (two-level) literal count.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(BTreeSet::len).sum()
    }

    /// The largest cube dividing every cube of the expression.
    pub fn common_cube(&self) -> BTreeSet<Literal> {
        let mut it = self.cubes.iter();
        let mut acc = match it.next() {
            Some(c) => c.clone(),
            None => return BTreeSet::new(),
        };
        for c in it {
            acc = acc.intersection(c).cloned().collect();
        }
        acc
    }

    /// Quotient of the expression by a single cube: `{ c ∖ d : d ⊆ c }`.
    pub fn divide_by_cube(&self, d: &BTreeSet<Literal>) -> Expr {
        Expr::from_cubes(
            self.cubes
                .iter()
                .filter(|c| d.is_subset(c))
                .map(|c| c.difference(d).cloned().collect()),
        )
    }

    /// Weak (algebraic) division by a multi-cube divisor: returns
    /// `(quotient, remainder)` with `self = quotient·divisor + remainder`
    /// algebraically.
    pub fn divide(&self, divisor: &Expr) -> (Expr, Expr) {
        if divisor.is_empty() {
            return (Expr::new(), self.clone());
        }
        let mut quotient: Option<BTreeSet<BTreeSet<Literal>>> = None;
        for d in &divisor.cubes {
            let q: BTreeSet<BTreeSet<Literal>> = self.divide_by_cube(d).cubes.into_iter().collect();
            quotient = Some(match quotient {
                None => q,
                Some(acc) => acc.intersection(&q).cloned().collect(),
            });
            if quotient.as_ref().is_some_and(BTreeSet::is_empty) {
                break;
            }
        }
        let quotient = Expr::from_cubes(quotient.unwrap_or_default());
        if quotient.is_empty() {
            return (quotient, self.clone());
        }
        // remainder = self minus quotient × divisor
        let mut product: BTreeSet<BTreeSet<Literal>> = BTreeSet::new();
        for q in &quotient.cubes {
            for d in &divisor.cubes {
                product.insert(q.union(d).cloned().collect());
            }
        }
        let remainder =
            Expr::from_cubes(self.cubes.iter().filter(|c| !product.contains(*c)).cloned());
        (quotient, remainder)
    }

    /// Makes the expression cube-free by dividing out its common cube.
    pub fn cube_free(&self) -> Expr {
        let c = self.common_cube();
        if c.is_empty() {
            self.clone()
        } else {
            self.divide_by_cube(&c)
        }
    }

    /// All kernels of the expression (cube-free quotients by cubes),
    /// including the expression itself if cube-free. Standard recursive
    /// co-kernel enumeration.
    pub fn kernels(&self) -> Vec<Expr> {
        let mut out = Vec::new();
        let base = self.cube_free();
        if base.len() > 1 {
            out.push(base.clone());
        }
        let max_lit = base
            .cubes
            .iter()
            .flat_map(|c| c.iter())
            .max()
            .copied()
            .unwrap_or(0);
        kernels_rec(&base, 0, max_lit, &mut out);
        out.sort_by(|a, b| a.cubes.cmp(&b.cubes));
        out.dedup();
        out
    }

    /// A single level-0-ish kernel found quickly by repeated division by the
    /// most frequent literal; `None` when the expression has no non-trivial
    /// kernel (no literal appears twice).
    pub fn quick_kernel(&self) -> Option<Expr> {
        let mut f = self.cube_free();
        loop {
            if f.len() < 2 {
                return None;
            }
            match most_frequent_literal(&f) {
                Some((l, count)) if count >= 2 && count < f.len() => {
                    let mut d = BTreeSet::new();
                    d.insert(l);
                    f = f.divide_by_cube(&d).cube_free();
                }
                Some((l, count)) if count >= 2 => {
                    // literal common to all cubes would be a common cube;
                    // cube_free removed those, so count == len means a bug
                    debug_assert!(count < f.len(), "common literal {l} survived cube_free");
                    return Some(f);
                }
                _ => return Some(f).filter(|k| k.len() >= 2),
            }
        }
    }
}

fn kernels_rec(f: &Expr, from: Literal, max_lit: Literal, out: &mut Vec<Expr>) {
    for l in from..=max_lit {
        let count = f.cubes.iter().filter(|c| c.contains(&l)).count();
        if count < 2 {
            continue;
        }
        let mut d = BTreeSet::new();
        d.insert(l);
        let q = f.divide_by_cube(&d);
        let common = q.common_cube();
        // Skip if a smaller literal in the common cube would re-generate this
        // kernel (standard duplicate pruning).
        if common.iter().any(|&c| c < l) {
            continue;
        }
        let k = q.cube_free();
        if k.len() > 1 {
            out.push(k.clone());
            kernels_rec(&k, l + 1, max_lit, out);
        }
    }
}

fn most_frequent_literal(f: &Expr) -> Option<(Literal, usize)> {
    let mut counts: std::collections::BTreeMap<Literal, usize> = Default::default();
    for c in &f.cubes {
        for &l in c {
            *counts.entry(l).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(l, n)| (n, std::cmp::Reverse(l)))
}

/// Number of literals of the QUICK_FACTOR factored form of the expression,
/// or `Err(Cancelled)` once a [`Poll`] of `ctl` finds its deadline passed.
///
/// # Examples
///
/// ```
/// use espresso::factor::{literal, Expr};
/// use espresso::RunCtl;
/// use std::collections::BTreeSet;
///
/// // f = ab + ac  →  a(b + c): 3 literals instead of 4.
/// let a = literal(0, true);
/// let b = literal(1, true);
/// let c = literal(2, true);
/// let f = Expr::from_cubes(vec![
///     BTreeSet::from([a, b]),
///     BTreeSet::from([a, c]),
/// ]);
/// assert_eq!(espresso::factor::factored_literal_count(&f, &RunCtl::unlimited()), Ok(3));
/// ```
pub fn factored_literal_count(f: &Expr, ctl: &RunCtl) -> Result<usize, Cancelled> {
    count_literals(f, &mut Poll::deadline(ctl))
}

/// The QUICK_FACTOR recursion. Each call steps `poll` by the literals of
/// `f`, which every pass over its cubes reads: a cube of a 1-hot cover
/// carries dozens, so a step per cube would let a look wait too long.
fn count_literals(f: &Expr, poll: &mut Poll) -> Result<usize, Cancelled> {
    poll.step(f.literal_count() as u64)?;
    if f.is_empty() {
        return Ok(0);
    }
    if f.len() == 1 {
        return Ok(f.cubes[0].len());
    }
    // Factor out the common cube first.
    let common = f.common_cube();
    if !common.is_empty() {
        return Ok(common.len() + count_literals(&f.divide_by_cube(&common), poll)?);
    }
    let Some((best_l, count)) = most_frequent_literal(f) else {
        return Ok(0);
    };
    if count < 2 {
        return Ok(f.literal_count()); // nothing algebraic to share
    }
    if let Some(k) = f.quick_kernel() {
        if k != *f {
            let (q, r) = f.divide(&k);
            if !q.is_empty() {
                return Ok(count_literals(&q, poll)?
                    + count_literals(&k, poll)?
                    + count_literals(&r, poll)?);
            }
        }
    }
    // Fallback: literal division f = l·(f/l) + r.
    let mut d = BTreeSet::new();
    d.insert(best_l);
    let q = f.divide_by_cube(&d);
    let r = Expr::from_cubes(f.cubes.iter().filter(|c| !c.contains(&best_l)).cloned());
    Ok(1 + count_literals(&q, poll)? + count_literals(&r, poll)?)
}

/// Extracts the single-output algebraic expression of output `o` from a
/// binary multi-output cover (cubes asserting `o`; binary input literals
/// only).
///
/// # Panics
///
/// Panics if the cover's space has no output variable.
pub fn output_expr(cover: &Cover, o: u32) -> Expr {
    let space = cover.space();
    let ov = space.output_var().expect("cover needs an output variable");
    let mut cubes = Vec::new();
    for c in cover.iter() {
        if !c.has_part(space, ov, o) {
            continue;
        }
        let mut lits = BTreeSet::new();
        for v in space.vars() {
            if v == ov || c.var_is_full(space, v) {
                continue;
            }
            debug_assert_eq!(space.parts(v), 2, "factoring expects binary inputs");
            if c.has_part(space, v, 1) {
                lits.insert(literal(v, true));
            } else {
                lits.insert(literal(v, false));
            }
        }
        cubes.push(lits);
    }
    Expr::from_cubes(cubes)
}

/// Total factored-form literal count of a binary multi-output cover: each
/// output factored independently (no inter-output sharing), summed, under
/// one [`Poll`] of `ctl` (see [`factored_literal_count`]).
pub fn cover_factored_literals(cover: &Cover, ctl: &RunCtl) -> Result<usize, Cancelled> {
    let space = cover.space();
    let Some(ov) = space.output_var() else {
        return Ok(0);
    };
    let mut poll = Poll::deadline(ctl);
    (0..space.parts(ov))
        .map(|o| count_literals(&output_expr(cover, o), &mut poll))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The factored literal count under a ctl that never cancels.
    fn literals(f: &Expr) -> usize {
        factored_literal_count(f, &RunCtl::unlimited()).expect("an unlimited ctl never cancels")
    }

    fn expr(cubes: &[&[Literal]]) -> Expr {
        Expr::from_cubes(cubes.iter().map(|c| c.iter().copied().collect()))
    }

    const A: Literal = 1; // var0 positive
    const B: Literal = 3;
    const C: Literal = 5;
    const D: Literal = 7;
    const E: Literal = 9;

    /// The literal count of the two ten-input parity outputs, the same
    /// with or without a poll.
    const PARITY_LITERALS: usize = 368;

    #[test]
    fn division_basics() {
        // f = abc + abd + e; f / ab = c + d, remainder e
        let f = expr(&[&[A, B, C], &[A, B, D], &[E]]);
        let q = f.divide_by_cube(&BTreeSet::from([A, B]));
        assert_eq!(q, expr(&[&[C], &[D]]));
        let (qq, r) = f.divide(&expr(&[&[C], &[D]]));
        assert_eq!(qq, expr(&[&[A, B]]));
        assert_eq!(r, expr(&[&[E]]));
    }

    #[test]
    fn weak_division_intersects_quotients() {
        // f = ac + ad + bc + e; f / (c + d) = a (only a works for both)
        let f = expr(&[&[A, C], &[A, D], &[B, C], &[E]]);
        let (q, r) = f.divide(&expr(&[&[C], &[D]]));
        assert_eq!(q, expr(&[&[A]]));
        assert_eq!(r, expr(&[&[B, C], &[E]]));
    }

    #[test]
    fn kernels_of_textbook_example() {
        // f = ace + bce + de + g  (classic): kernels include (a+b),
        // (ac+bc+d) = c(a+b)+d, and f itself.
        let g = 11;
        let f = expr(&[&[A, C, E], &[B, C, E], &[D, E], &[g]]);
        let ks = f.kernels();
        assert!(ks.contains(&expr(&[&[A], &[B]])));
        assert!(ks.contains(&expr(&[&[A, C], &[B, C], &[D]])));
        assert!(ks.contains(&f));
    }

    #[test]
    fn factoring_shares_common_factor() {
        // f = ab + ac → a(b+c): 3 literals
        let f = expr(&[&[A, B], &[A, C]]);
        assert_eq!(literals(&f), 3);
    }

    #[test]
    fn factoring_textbook_count() {
        // f = ace + bce + de + g → e(c(a+b) + d) + g : 7 literals
        let g = 11;
        let f = expr(&[&[A, C, E], &[B, C, E], &[D, E], &[g]]);
        assert_eq!(literals(&f), 7);
    }

    #[test]
    fn factoring_cannot_beat_flat_when_nothing_shared() {
        let f = expr(&[&[A, B], &[C, D]]);
        assert_eq!(literals(&f), 4);
    }

    #[test]
    fn single_cube_counts_its_literals() {
        let f = expr(&[&[A, B, C]]);
        assert_eq!(literals(&f), 3);
    }

    #[test]
    fn output_expr_extraction() {
        use crate::space::CubeSpace;
        let sp = CubeSpace::binary_with_output(2, 2);
        let mut cov = Cover::empty(sp.clone());
        cov.push_parsed("01 10 10").unwrap(); // x y' -> f0 (part 1 = positive)
        cov.push_parsed("01 11 11").unwrap(); // x -> f0, f1
        let e0 = output_expr(&cov, 0);
        assert_eq!(e0.len(), 2);
        let e1 = output_expr(&cov, 1);
        assert_eq!(e1.len(), 1);
        assert_eq!(e1.cubes()[0], BTreeSet::from([literal(0, true)]));
    }

    #[test]
    fn cover_literals_sum_outputs() {
        use crate::space::CubeSpace;
        let sp = CubeSpace::binary_with_output(3, 2);
        let mut cov = Cover::empty(sp.clone());
        cov.push_parsed("10 10 11 10").unwrap(); // ab -> f0
        cov.push_parsed("10 11 10 10").unwrap(); // ac -> f0
        cov.push_parsed("01 11 11 01").unwrap(); // a' -> f1
                                                 // f0 = ab + ac → a(b+c): 3; f1 = a': 1
        assert_eq!(cover_factored_literals(&cov, &RunCtl::unlimited()), Ok(4));
    }

    #[test]
    fn a_passed_deadline_ends_the_count() {
        use crate::fault::{FaultKind, FaultPlan};
        use crate::space::CubeSpace;
        use nova_trace::Tracer;
        // Odd parity of ten inputs on f0 and even parity on f1: 1,024
        // minterms whose count reads more literals than one poll lets pass.
        let sp = CubeSpace::binary_with_output(10, 2);
        let mut cov = Cover::empty(sp.clone());
        for m in 0..1u32 << 10 {
            let mut row: String = (0..10)
                .map(|b| if m >> b & 1 == 1 { "01 " } else { "10 " })
                .collect();
            row.push_str(if m.count_ones() % 2 == 1 { "10" } else { "01" });
            cov.push_parsed(&row).unwrap();
        }
        let expired = RunCtl::new(None, Some(Instant::now()), Tracer::disabled());
        assert_eq!(cover_factored_literals(&cov, &expired), Err(Cancelled));
        assert_eq!(
            cover_factored_literals(&cov, &RunCtl::unlimited()),
            Ok(PARITY_LITERALS)
        );
        // A stop latched before the count, as a fault on ESPRESSO's last
        // operation latches one, does not end it.
        let stopped = RunCtl::unlimited();
        stopped.arm_faults(&FaultPlan::single("*", 1, FaultKind::Cancel));
        assert!(stopped.charge(1).is_err());
        assert_eq!(cover_factored_literals(&cov, &stopped), Ok(PARITY_LITERALS));
    }
}
