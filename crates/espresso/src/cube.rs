//! Cubes in positional notation and their algebra.
//!
//! A [`Cube`] is a bitvector interpreted against a [`CubeSpace`]: bit
//! `(v, p)` is set iff the cube admits value `p` of variable `v`. A cube
//! denotes the set of minterms that pick, for every variable, one of the
//! admitted values; a cube with an *empty field* (no admitted value for some
//! variable) denotes the empty set.

use crate::space::CubeSpace;
use std::fmt;

/// A product term over a [`CubeSpace`] in positional cube notation.
///
/// Cubes do not carry their space: all operations take the space explicitly,
/// and mixing cubes from different spaces is a logic error (checked only by
/// debug assertions on word counts).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    bits: Box<[u64]>,
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube[")?;
        for (i, w) in self.bits.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{w:016x}")?;
        }
        write!(f, "]")
    }
}

#[inline]
fn field_and_is_empty(a: &[u64], b: &[u64], mask: &[u64]) -> bool {
    a.iter().zip(b).zip(mask).all(|((x, y), m)| x & y & m == 0)
}

impl Cube {
    /// The empty-bitvector cube (denotes the empty set for any non-degenerate
    /// space).
    pub fn zero(space: &CubeSpace) -> Self {
        Cube {
            bits: vec![0u64; space.words()].into_boxed_slice(),
        }
    }

    /// The universal cube: every part of every variable admitted.
    pub fn full(space: &CubeSpace) -> Self {
        Cube {
            bits: space.full_words().into(),
        }
    }

    /// Builds a cube directly from its word representation.
    ///
    /// # Panics
    ///
    /// Panics when the slice length does not match `space.words()`. Bits
    /// outside the space's fields are not checked (they are a logic error
    /// just like mixing spaces).
    pub fn from_words(space: &CubeSpace, words: &[u64]) -> Self {
        assert_eq!(words.len(), space.words(), "word count mismatch");
        Cube { bits: words.into() }
    }

    /// Raw word access (read-only).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Whether part `p` of variable `v` is admitted.
    pub fn has_part(&self, space: &CubeSpace, v: usize, p: u32) -> bool {
        let b = space.bit(v, p) as usize;
        self.bits[b / 64] >> (b % 64) & 1 == 1
    }

    /// Admit part `p` of variable `v`.
    pub fn set_part(&mut self, space: &CubeSpace, v: usize, p: u32) {
        let b = space.bit(v, p) as usize;
        self.bits[b / 64] |= 1u64 << (b % 64);
    }

    /// Remove part `p` of variable `v`.
    pub fn clear_part(&mut self, space: &CubeSpace, v: usize, p: u32) {
        let b = space.bit(v, p) as usize;
        self.bits[b / 64] &= !(1u64 << (b % 64));
    }

    /// Make variable `v` a full don't-care (all parts admitted).
    pub fn set_var_full(&mut self, space: &CubeSpace, v: usize) {
        for (w, m) in self.bits.iter_mut().zip(space.mask(v)) {
            *w |= m;
        }
    }

    /// Remove every part of variable `v`.
    pub fn clear_var(&mut self, space: &CubeSpace, v: usize) {
        for (w, m) in self.bits.iter_mut().zip(space.mask(v)) {
            *w &= !m;
        }
    }

    /// Whether variable `v`'s field admits every part.
    pub fn var_is_full(&self, space: &CubeSpace, v: usize) -> bool {
        self.bits
            .iter()
            .zip(space.mask(v))
            .all(|(w, m)| w & m == *m)
    }

    /// Whether variable `v`'s field admits no part (cube denotes ∅).
    pub fn var_is_empty(&self, space: &CubeSpace, v: usize) -> bool {
        self.bits.iter().zip(space.mask(v)).all(|(w, m)| w & m == 0)
    }

    /// Number of admitted parts of variable `v`.
    pub fn var_count(&self, space: &CubeSpace, v: usize) -> u32 {
        self.bits
            .iter()
            .zip(space.mask(v))
            .map(|(w, m)| (w & m).count_ones())
            .sum()
    }

    /// Whether the cube denotes the empty set (some variable field empty).
    pub fn is_empty(&self, space: &CubeSpace) -> bool {
        space.vars().any(|v| self.var_is_empty(space, v))
    }

    /// Whether the cube is the universal cube.
    pub fn is_full(&self, space: &CubeSpace) -> bool {
        space.vars().all(|v| self.var_is_full(space, v))
    }

    /// Set containment: is every minterm of `self` a minterm of `other`?
    ///
    /// In positional notation (for non-empty cubes) this is bitwise
    /// inclusion: `self ⊆ other` iff `self & !other == 0`.
    pub fn is_subset_of(&self, other: &Cube) -> bool {
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// Bitwise AND of two cubes (may denote the empty set).
    pub fn and(&self, other: &Cube) -> Cube {
        Cube {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Bitwise OR of two cubes (the *supercube* of the pair: smallest cube
    /// containing both).
    pub fn or(&self, other: &Cube) -> Cube {
        Cube {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Set intersection; `None` when disjoint.
    pub fn intersect(&self, space: &CubeSpace, other: &Cube) -> Option<Cube> {
        if self.distance(space, other) > 0 {
            return None;
        }
        Some(self.and(other))
    }

    /// The *distance*: number of variables whose fields become empty in the
    /// bitwise AND. Distance 0 means the cubes intersect; distance 1 means
    /// they have a non-trivial consensus.
    pub fn distance(&self, space: &CubeSpace, other: &Cube) -> usize {
        space
            .vars()
            .filter(|&v| field_and_is_empty(&self.bits, &other.bits, space.mask(v)))
            .count()
    }

    /// Consensus of two cubes: for distance 1, the AND in all agreeing
    /// variables and the OR in the single conflicting variable. For distance
    /// 0 the result is the intersection. `None` for distance ≥ 2.
    pub fn consensus(&self, space: &CubeSpace, other: &Cube) -> Option<Cube> {
        let mut conflict = None;
        for v in space.vars() {
            if field_and_is_empty(&self.bits, &other.bits, space.mask(v)) {
                if conflict.is_some() {
                    return None;
                }
                conflict = Some(v);
            }
        }
        let mut r = self.and(other);
        if let Some(v) = conflict {
            let u = self.or(other);
            for ((rw, uw), m) in r.bits.iter_mut().zip(&u.bits).zip(space.mask(v)) {
                *rw = (*rw & !m) | (uw & m);
            }
        }
        Some(r)
    }

    /// Total number of admitted parts across all variables.
    pub fn count_ones(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// A human-readable rendering: one character per part (`1` admitted,
    /// `0` not), variables separated by spaces.
    pub fn display<'a>(&'a self, space: &'a CubeSpace) -> DisplayCube<'a> {
        DisplayCube { cube: self, space }
    }

    /// Parse from the [`display`](Cube::display) format (whitespace between
    /// variables optional).
    ///
    /// # Errors
    ///
    /// Returns `None` when the string does not supply exactly one `0`/`1`
    /// per part of the space.
    pub fn parse(space: &CubeSpace, s: &str) -> Option<Cube> {
        let digits: Vec<char> = s.chars().filter(|c| !c.is_whitespace()).collect();
        if digits.len() != space.total_bits() as usize {
            return None;
        }
        let mut c = Cube::zero(space);
        let mut i = 0;
        for v in space.vars() {
            for p in 0..space.parts(v) {
                match digits[i] {
                    '1' => c.set_part(space, v, p),
                    '0' => {}
                    _ => return None,
                }
                i += 1;
            }
        }
        Some(c)
    }
}

/// Display adapter returned by [`Cube::display`].
pub struct DisplayCube<'a> {
    cube: &'a Cube,
    space: &'a CubeSpace,
}

impl fmt::Display for DisplayCube<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in self.space.vars() {
            if v > 0 {
                write!(f, " ")?;
            }
            for p in 0..self.space.parts(v) {
                write!(
                    f,
                    "{}",
                    if self.cube.has_part(self.space, v, p) {
                        '1'
                    } else {
                        '0'
                    }
                )?;
            }
        }
        Ok(())
    }
}

/// The smallest cube containing every cube of `cubes` (bitwise OR);
/// the zero cube when the iterator is empty.
pub fn supercube<'a>(space: &CubeSpace, cubes: impl IntoIterator<Item = &'a Cube>) -> Cube {
    let mut acc = Cube::zero(space);
    for c in cubes {
        acc = acc.or(c);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> CubeSpace {
        CubeSpace::binary_with_output(2, 2)
    }

    fn cube(s: &str) -> Cube {
        Cube::parse(&space(), s).expect("parse cube")
    }

    #[test]
    fn parse_display_roundtrip() {
        let sp = space();
        let c = cube("10 11 01");
        assert_eq!(c.display(&sp).to_string(), "10 11 01");
        assert!(c.has_part(&sp, 0, 0));
        assert!(!c.has_part(&sp, 0, 1));
        assert!(c.var_is_full(&sp, 1));
    }

    #[test]
    fn containment_and_intersection() {
        let sp = space();
        let a = cube("11 11 11");
        let b = cube("10 01 01");
        assert!(b.is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        assert_eq!(a.intersect(&sp, &b), Some(b.clone()));
        let c = cube("01 11 11");
        assert_eq!(b.intersect(&sp, &c), None);
        assert_eq!(b.distance(&sp, &c), 1);
    }

    #[test]
    fn distance_counts_all_conflicts() {
        let sp = space();
        let a = cube("10 10 01");
        let b = cube("01 01 10");
        assert_eq!(a.distance(&sp, &b), 3);
        assert_eq!(a.consensus(&sp, &b), None);
    }

    #[test]
    fn consensus_distance_one() {
        let sp = space();
        // f = ab + a'b  -> consensus on variable 0 is b
        let a = cube("10 10 11");
        let b = cube("01 10 11");
        let c = a.consensus(&sp, &b).expect("distance 1");
        assert_eq!(c.display(&sp).to_string(), "11 10 11");
    }

    #[test]
    fn consensus_distance_zero_is_intersection() {
        let sp = space();
        let a = cube("11 10 11");
        let b = cube("10 11 01");
        let c = a.consensus(&sp, &b).expect("distance 0");
        assert_eq!(c, a.and(&b));
    }

    /// Reference ESPRESSO cofactor `c | !p`, restricted to the space's
    /// fields, defined only when the cubes intersect.
    fn cofactor(sp: &CubeSpace, c: &Cube, p: &Cube) -> Option<Cube> {
        let words = c.words().iter().zip(p.words()).zip(sp.full_words());
        let words: Vec<u64> = words.map(|((a, b), f)| (a | !b) & f).collect();
        (c.distance(sp, p) == 0).then(|| Cube::from_words(sp, &words))
    }

    #[test]
    fn cofactor_rules() {
        let sp = space();
        let c = cube("10 11 11");
        let p = cube("10 01 11");
        let cf = cofactor(&sp, &c, &p).expect("intersecting");
        // c | !p, restricted to the fields: 11 11 11
        assert!(cf.is_full(&sp));
        let q = cube("01 11 11");
        assert_eq!(cofactor(&sp, &c, &q), None);
    }

    #[test]
    fn supercube_of_set() {
        let sp = space();
        let s = supercube(&sp, [&cube("10 01 01"), &cube("01 01 10")]);
        assert_eq!(s.display(&sp).to_string(), "11 01 11");
    }

    #[test]
    fn empty_and_full_detection() {
        let sp = space();
        assert!(Cube::zero(&sp).is_empty(&sp));
        assert!(Cube::full(&sp).is_full(&sp));
        let mut c = Cube::full(&sp);
        c.clear_var(&sp, 1);
        assert!(c.is_empty(&sp));
        assert_eq!(c.var_count(&sp, 0), 2);
    }
}
