//! Faces of the Boolean k-cube: strings over `{0, 1, x}` and their algebra,
//! the codomain of the face hypercube embedding.

use std::fmt;

/// A face (subcube) of the k-cube.
///
/// `mask` has a 1 in every *care* position; `value` holds the fixed bits
/// (and is 0 outside the mask). The face's *level* is the number of `x`
/// positions, `k - popcount(mask)`; its cardinality is `2^level`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Face {
    k: u32,
    mask: u64,
    value: u64,
}

impl fmt::Debug for Face {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Face({self})")
    }
}

impl fmt::Display for Face {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Paper notation: leftmost character is the most significant bit.
        for i in (0..self.k).rev() {
            let bit = 1u64 << i;
            f.write_str(if self.mask & bit == 0 {
                "x"
            } else if self.value & bit != 0 {
                "1"
            } else {
                "0"
            })?;
        }
        Ok(())
    }
}

fn full_mask(k: u32) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

impl Face {
    /// A vertex of the k-cube (level 0).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds 63, or if `code` has bits above `k`.
    pub fn vertex(k: u32, code: u64) -> Face {
        assert!((1..=63).contains(&k), "cube dimension out of range");
        assert_eq!(code & !full_mask(k), 0, "code wider than the cube");
        Face {
            k,
            mask: full_mask(k),
            value: code,
        }
    }

    /// The full cube (level k, all `x`).
    pub fn full(k: u32) -> Face {
        assert!((1..=63).contains(&k));
        Face {
            k,
            mask: 0,
            value: 0,
        }
    }

    /// Builds a face from explicit mask/value.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range dimension or value bits outside the mask/cube.
    pub fn new(k: u32, mask: u64, value: u64) -> Face {
        assert!((1..=63).contains(&k));
        assert_eq!(mask & !full_mask(k), 0, "mask wider than the cube");
        assert_eq!(value & !mask, 0, "value bits outside the mask");
        Face { k, mask, value }
    }

    /// Parses the paper's string notation, e.g. `"x0x0"` (leftmost = MSB).
    ///
    /// Returns `None` on bad characters or unsupported widths.
    pub fn parse(s: &str) -> Option<Face> {
        let k = s.len() as u32;
        if k == 0 || k > 63 {
            return None;
        }
        let mut mask = 0u64;
        let mut value = 0u64;
        for (i, c) in s.chars().enumerate() {
            let bit = 1u64 << (k as usize - 1 - i);
            match c {
                'x' | 'X' | '-' => {}
                '0' => mask |= bit,
                '1' => {
                    mask |= bit;
                    value |= bit;
                }
                _ => return None,
            }
        }
        Some(Face { k, mask, value })
    }

    /// Cube dimension.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The care mask (1 in every fixed position).
    pub fn mask_bits(&self) -> u64 {
        self.mask
    }

    /// The fixed values (0 outside the mask).
    pub fn value_bits(&self) -> u64 {
        self.value
    }

    /// Number of `x` positions.
    pub fn level(&self) -> u32 {
        self.k - self.mask.count_ones()
    }

    /// Number of vertices, `2^level`.
    pub fn cardinality(&self) -> u64 {
        1u64 << self.level()
    }

    /// Does the face contain vertex `code`?
    pub fn contains_vertex(&self, code: u64) -> bool {
        code & self.mask == self.value
    }

    /// Do two faces share at least one vertex? Both must be faces of the
    /// same cube (checked in debug builds only: the embedding search asks
    /// this for every pair of faces it compares).
    pub fn intersects(&self, other: &Face) -> bool {
        debug_assert_eq!(self.k, other.k, "faces of different cubes");
        (self.value ^ other.value) & self.mask & other.mask == 0
    }

    /// The intersection face, when non-empty.
    pub fn intersection(&self, other: &Face) -> Option<Face> {
        if !self.intersects(other) {
            return None;
        }
        Some(Face {
            k: self.k,
            mask: self.mask | other.mask,
            value: self.value | other.value,
        })
    }

    /// Set containment: `self ⊇ other`. Both must be faces of the same cube
    /// (checked in debug builds only, as in [`intersects`](Face::intersects)).
    pub fn contains(&self, other: &Face) -> bool {
        debug_assert_eq!(self.k, other.k, "faces of different cubes");
        self.mask & !other.mask == 0 && other.value & self.mask == self.value
    }

    /// Strict containment.
    pub fn properly_contains(&self, other: &Face) -> bool {
        self != other && self.contains(other)
    }

    /// Iterator over the vertices of the face in increasing code order,
    /// without allocating. The first vertex equals
    /// [`value_bits`](Face::value_bits) (all free positions 0).
    pub fn vertices_iter(&self) -> VerticesIter {
        VerticesIter {
            free: !self.mask & full_mask(self.k),
            value: self.value,
            next: Some(0),
        }
    }

    /// The vertices of the face in increasing code order (a collecting
    /// wrapper around [`vertices_iter`](Face::vertices_iter)).
    pub fn vertices(&self) -> Vec<u64> {
        self.vertices_iter().collect()
    }

    /// The smallest face containing all the given vertices.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is empty or contains bits above `k`.
    pub fn spanning(k: u32, codes: &[u64]) -> Face {
        Face::span_of(k, codes.iter().copied())
    }

    /// [`spanning`](Face::spanning) over any vertex iterator (no slice, no
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty or yields bits above `k`.
    pub fn span_of(k: u32, codes: impl IntoIterator<Item = u64>) -> Face {
        let mut it = codes.into_iter();
        let first = it.next().expect("spanning face of no vertices");
        assert_eq!(first & !full_mask(k), 0);
        let mut agree = full_mask(k);
        for c in it {
            assert_eq!(c & !full_mask(k), 0);
            agree &= !(c ^ first);
        }
        Face {
            k,
            mask: agree,
            value: first & agree,
        }
    }
}

/// Iterator over a face's vertices (see [`Face::vertices_iter`]): walks the
/// subsets of the free-bit mask in increasing numeric order with the
/// in-mask increment `s' = (s - free) & free`.
#[derive(Debug, Clone)]
pub struct VerticesIter {
    free: u64,
    value: u64,
    next: Option<u64>,
}

impl Iterator for VerticesIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let s = self.next?;
        let succ = s.wrapping_sub(self.free) & self.free;
        self.next = if succ == 0 { None } else { Some(succ) };
        Some(self.value | s)
    }
}

/// Iterator over all faces of a given level of the k-cube, in a fixed
/// deterministic order (mask combinations outer, values inner).
///
/// Allocation-free: masks advance with Gosper's hack (next mask of equal
/// popcount in increasing numeric order — the same order the old
/// filter-scan produced, without visiting the other `2^k` words), values
/// with the in-mask subset increment.
pub fn faces_of_level(k: u32, level: u32) -> FacesOfLevel {
    assert!(level <= k);
    let care = k - level;
    let first_mask = if care == 0 { 0 } else { (1u64 << care) - 1 };
    FacesOfLevel {
        k,
        limit: 1u64 << k,
        mask: Some(first_mask),
        value: 0,
    }
}

/// Iterator state of [`faces_of_level`].
#[derive(Debug, Clone)]
pub struct FacesOfLevel {
    k: u32,
    limit: u64,
    /// Current care mask (`None` once exhausted).
    mask: Option<u64>,
    /// Current value within the mask.
    value: u64,
}

impl Iterator for FacesOfLevel {
    type Item = Face;

    fn next(&mut self) -> Option<Face> {
        let mask = self.mask?;
        let face = Face {
            k: self.k,
            mask,
            value: self.value,
        };
        // Advance: next value within the mask, else next mask (Gosper).
        self.value = self.value.wrapping_sub(mask) & mask;
        if self.value == 0 {
            self.mask = next_same_popcount(mask).filter(|&m| m < self.limit);
        }
        Some(face)
    }
}

/// Gosper's hack: the next integer with the same popcount, or `None` when
/// the input is 0 (only the full-level mask) or would overflow.
fn next_same_popcount(m: u64) -> Option<u64> {
    if m == 0 {
        return None;
    }
    let c = m & m.wrapping_neg();
    let r = m.checked_add(c)?;
    Some((((r ^ m) >> 2) / c) | r)
}

/// All subfaces of `face` with the given level, in the fixed deterministic
/// order of the embedding search: free-position combinations advance
/// lexicographically, value assignments of the newly fixed bits inner.
///
/// # Panics
///
/// Panics when `level` exceeds the face's own level.
pub fn subfaces_of_level(face: &Face, level: u32) -> SubfaceIter {
    let lvl = face.level();
    assert!(level <= lvl, "subface level above the face's level");
    let mut free = [0u8; 64];
    let mut n = 0;
    for i in 0..face.k() as u8 {
        if face.mask_bits() >> i & 1 == 0 {
            free[n] = i;
            n += 1;
        }
    }
    let extra = (lvl - level) as usize;
    let mut chosen = [0u8; 64];
    for (j, c) in (0..).zip(chosen.iter_mut().take(extra)) {
        *c = j;
    }
    SubfaceIter {
        base: *face,
        free,
        n,
        extra,
        chosen,
        combo: 0,
        done: false,
    }
}

/// Iterator state of [`subfaces_of_level`].
#[derive(Debug, Clone)]
pub struct SubfaceIter {
    base: Face,
    /// Free bit positions of the base face (first `n` entries).
    free: [u8; 64],
    n: usize,
    /// How many free positions get fixed per subface.
    extra: usize,
    /// Current combination: ascending indices into `free[0..n]`.
    chosen: [u8; 64],
    /// Current value assignment of the chosen positions (packed bits).
    combo: u64,
    done: bool,
}

impl Iterator for SubfaceIter {
    type Item = Face;

    fn next(&mut self) -> Option<Face> {
        if self.done {
            return None;
        }
        let mut mask = 0u64;
        let mut value = 0u64;
        for (j, &ci) in self.chosen.iter().take(self.extra).enumerate() {
            let pos = self.free[ci as usize];
            mask |= 1 << pos;
            if self.combo >> j & 1 == 1 {
                value |= 1 << pos;
            }
        }
        let face = Face {
            k: self.base.k,
            mask: self.base.mask | mask,
            value: self.base.value | value,
        };
        // Advance: next value combo, else next lexicographic combination.
        self.combo += 1;
        if self.combo >> self.extra != 0 {
            self.combo = 0;
            self.done = !self.advance_combination();
        }
        Some(face)
    }
}

impl SubfaceIter {
    /// Lexicographic successor of `chosen[0..extra]` over `[0, n)`.
    fn advance_combination(&mut self) -> bool {
        if self.extra == 0 {
            return false;
        }
        let (r, n) = (self.extra, self.n);
        let mut i = r;
        while i > 0 {
            i -= 1;
            if (self.chosen[i] as usize) < n - r + i {
                self.chosen[i] += 1;
                for j in i + 1..r {
                    self.chosen[j] = self.chosen[j - 1] + 1;
                }
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        for s in ["x0x0", "1xx0", "0000", "xxxx", "01x1"] {
            assert_eq!(Face::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn paper_example_3_1_intersections() {
        // From Example 3.1.1: f(1110000) = x0x0 intersects the singleton
        // codes of states 1..3 and no others.
        let face = Face::parse("x0x0").unwrap();
        let codes = [
            ("1000000", "0000"),
            ("0100000", "1010"),
            ("0010000", "1000"),
            ("0001000", "1100"),
            ("0000100", "0101"),
            ("0000010", "0111"),
            ("0000001", "1111"),
        ];
        for (i, (_, code)) in codes.iter().enumerate() {
            let v = u64::from_str_radix(code, 2).unwrap();
            assert_eq!(face.contains_vertex(v), i < 3, "state {i}");
        }
    }

    #[test]
    fn levels_and_cardinality() {
        let f = Face::parse("x0x0").unwrap();
        assert_eq!(f.level(), 2);
        assert_eq!(f.cardinality(), 4);
        assert_eq!(Face::vertex(4, 0b1010).level(), 0);
        assert_eq!(Face::full(4).level(), 4);
    }

    #[test]
    fn intersection_rules() {
        let a = Face::parse("x0x0").unwrap();
        let b = Face::parse("1xx0").unwrap();
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.to_string(), "10x0");
        let c = Face::parse("x1x1").unwrap();
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn containment_rules() {
        let big = Face::parse("x0x0").unwrap();
        let small = Face::parse("10x0").unwrap();
        assert!(big.contains(&small));
        assert!(big.properly_contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains(&big));
    }

    #[test]
    fn vertices_enumeration() {
        let f = Face::parse("1x0x").unwrap();
        assert_eq!(f.vertices(), vec![0b1000, 0b1001, 0b1100, 0b1101]);
    }

    #[test]
    fn spanning_face() {
        let f = Face::spanning(4, &[0b0000, 0b1010, 0b1000]);
        // agree on bits 0 (all 0) and 2 (all 0): x0x0... bits: 0000,1010,1000
        // bit0: 0,0,0 agree=0; bit1: 0,1,0 differ; bit2: 0,0,0 agree; bit3: 0,1,1 differ
        assert_eq!(f.to_string(), "x0x0");
    }

    #[test]
    fn face_counts_per_level() {
        // k-cube has C(k, l) * 2^(k-l) faces of level l.
        let count = faces_of_level(4, 2).count();
        assert_eq!(count, 6 * 4);
        let count0 = faces_of_level(3, 0).count();
        assert_eq!(count0, 8);
        let countk = faces_of_level(3, 3).count();
        assert_eq!(countk, 1);
    }

    #[test]
    fn enumeration_is_deterministic_and_unique() {
        let all: Vec<Face> = faces_of_level(4, 1).collect();
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }
}
