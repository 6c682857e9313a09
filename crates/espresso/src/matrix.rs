//! Flat cube arenas: the contiguous row-major representation the kernel hot
//! path runs on.
//!
//! A [`CubeMatrix`] stores a cover as one `Vec<u64>` with a fixed word
//! *stride* per row plus a parallel vector of per-row [`Sig`]natures. Rows
//! are appended, overwritten and compacted in place, so the unate-recursive
//! kernels ([`tautology`](crate::tautology), [`complement`](crate::complement),
//! REDUCE's SCCC and the cofactors REDUCE and IRREDUNDANT stage from the
//! cover) never allocate one `Box<[u64]>` per cube — matrices come from a
//! [`Scratch`](crate::scratch::Scratch) pool and their buffers are reused
//! across calls. EXPAND's off-set is one matrix held for a whole
//! minimization.
//!
//! The [`Sig`] signature makes pairwise containment cheap: most non-contained
//! pairs are rejected on three integer compares before any cube word is read.

use crate::cover::Cover;
use crate::cube::Cube;
use crate::space::CubeSpace;

/// Highest variable index the [`Sig::nonfull`] bitmap tracks exactly.
/// Variables at or above this index share the saturated top bit (sound: it
/// ORs their non-fullness), and the signature-driven kernel fast paths fall
/// back to word scans for such spaces. NOVA's symbolic covers have a handful
/// of variables, so the exact window covers every space seen in practice.
pub const SIG_EXACT_VARS: usize = 127;

/// Compressed per-cube signature: a set of necessary conditions for bitwise
/// row containment, checkable in a few integer operations.
///
/// For rows `a ⊆ b` (every admitted part of `a` admitted by `b`) all of the
/// following must hold, so any failure rejects the pair without touching the
/// cube words:
///
/// * `a.ones <= b.ones` — popcount is monotone under containment;
/// * `a.orbits & !b.orbits == 0` — the OR-fold of `a`'s words is contained
///   in the OR-fold of `b`'s (exact for single-word spaces);
/// * `b.nonfull & !a.nonfull == 0` — wherever `b` is non-full, `a` must be
///   non-full too (a full field cannot fit inside a proper subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sig {
    /// Total admitted parts (popcount over all words).
    pub ones: u32,
    /// Whether some variable field admits no part (the row denotes ∅).
    pub empty: bool,
    /// OR-fold of the row's words.
    pub orbits: u64,
    /// Bit `min(v, SIG_EXACT_VARS)` set iff the row is non-full in variable
    /// `v`. Exact for every variable below [`SIG_EXACT_VARS`]; beyond that
    /// the top bit saturates, which keeps the containment test sound.
    pub nonfull: u128,
}

#[inline]
fn nonfull_bit(v: usize) -> u128 {
    1u128 << v.min(SIG_EXACT_VARS)
}

impl Sig {
    /// Computes the signature of a row. Field scans only touch the words a
    /// variable actually spans (one word for almost every field), so this is
    /// `O(words + vars)` rather than `O(words × vars)`.
    pub fn of(space: &CubeSpace, words: &[u64]) -> Sig {
        let ones = words.iter().map(|w| w.count_ones()).sum();
        let orbits = words.iter().fold(0, |acc, &w| acc | w);
        let mut nonfull = 0u128;
        let mut empty = false;
        for v in space.vars() {
            match space.single_word_field(v) {
                Some((k, m)) => {
                    let x = words[k] & m;
                    if x == 0 {
                        empty = true;
                    }
                    if x != m {
                        nonfull |= nonfull_bit(v);
                    }
                }
                None => {
                    let (lo, hi) = space.var_span(v);
                    let mask = space.mask(v);
                    let mut any = 0u64;
                    let mut full = true;
                    for k in lo..=hi {
                        let x = words[k] & mask[k];
                        any |= x;
                        if x != mask[k] {
                            full = false;
                        }
                    }
                    if any == 0 {
                        empty = true;
                    }
                    if !full {
                        nonfull |= nonfull_bit(v);
                    }
                }
            }
        }
        Sig {
            ones,
            empty,
            orbits,
            nonfull,
        }
    }

    /// Necessary condition for "the row with this signature is a subset of
    /// the row with signature `b`". `false` proves non-containment; `true`
    /// means the words must be compared.
    #[inline]
    pub fn may_be_subset_of(self, b: Sig) -> bool {
        self.ones <= b.ones && self.orbits & !b.orbits == 0 && b.nonfull & !self.nonfull == 0
    }

    /// Whether the row is full in variable `v`, answered from the signature
    /// alone when `v` is below the saturation bit.
    #[inline]
    pub fn var_full_fast(self, v: usize) -> Option<bool> {
        if v < SIG_EXACT_VARS {
            Some(self.nonfull & (1u128 << v) == 0)
        } else {
            None
        }
    }
}

/// Bitwise row containment: `a ⊆ b` iff `a & !b == 0` word-wise.
///
/// Rows of 1–3 words take branch-free arms: NOVA's symbolic and encoded
/// covers are one or two words wide, so longer rows are rare enough for one
/// plain loop.
#[inline]
pub fn row_subset(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    match a.len() {
        0 => true,
        1 => a[0] & !b[0] == 0,
        2 => (a[0] & !b[0]) | (a[1] & !b[1]) == 0,
        3 => (a[0] & !b[0]) | (a[1] & !b[1]) | (a[2] & !b[2]) == 0,
        _ => a.iter().zip(b).all(|(x, y)| x & !y == 0),
    }
}

/// Whether the cubes with words `a` and `b` are disjoint: some variable's
/// field vanishes in `a ∩ b`. Only the words each field spans are read.
#[inline]
pub(crate) fn rows_disjoint(space: &CubeSpace, a: &[u64], b: &[u64]) -> bool {
    space.vars().any(|v| match space.single_word_field(v) {
        Some((k, m)) => a[k] & b[k] & m == 0,
        None => {
            let (lo, hi) = space.var_span(v);
            let mask = space.mask(v);
            (lo..=hi).all(|k| a[k] & b[k] & mask[k] == 0)
        }
    })
}

/// Fills `counts[v]` with the number of rows non-full in variable `v`.
///
/// For spaces inside the exact signature window this is one pass over the
/// contiguous signature slice iterating set `nonfull` bits — no row words
/// are touched. Wider spaces (where the top signature bit saturates) fall
/// back to per-variable word scans.
pub(crate) fn nonfull_counts(space: &CubeSpace, m: &CubeMatrix, counts: &mut Vec<u32>) {
    let nv = space.num_vars();
    counts.clear();
    counts.resize(nv, 0);
    if nv <= SIG_EXACT_VARS {
        for sg in m.sigs() {
            let mut nf = sg.nonfull;
            while nf != 0 {
                counts[nf.trailing_zeros() as usize] += 1;
                nf &= nf - 1;
            }
        }
    } else {
        for v in space.vars() {
            counts[v] = (0..m.len())
                .filter(|&i| !m.row_var_is_full(space, i, v))
                .count() as u32;
        }
    }
}

/// The most binate active variable given per-variable non-full counts: the
/// variable with the most non-full rows, ties broken toward fewer parts to
/// keep branching narrow. `None` iff every row is full in every variable.
pub(crate) fn select_binate(space: &CubeSpace, counts: &[u32]) -> Option<usize> {
    let mut best: Option<(usize, u32, u32)> = None;
    for v in space.vars() {
        let count = counts[v];
        if count == 0 {
            continue;
        }
        let parts = space.parts(v);
        best = Some(match best {
            None => (v, count, parts),
            Some(b) => {
                if count > b.1 || (count == b.1 && parts < b.2) {
                    (v, count, parts)
                } else {
                    b
                }
            }
        });
    }
    best.map(|b| b.0)
}

/// A cover as a flat arena: `len` rows of `stride` words each, plus one
/// [`Sig`] per row. Obtain instances from a
/// [`Scratch`](crate::scratch::Scratch) pool so the backing buffers are
/// reused across kernel calls.
#[derive(Debug, Default)]
pub struct CubeMatrix {
    words: Vec<u64>,
    sigs: Vec<Sig>,
    stride: usize,
}

impl CubeMatrix {
    /// An empty matrix with no stride; call [`CubeMatrix::reset`] before use.
    pub fn new() -> Self {
        CubeMatrix::default()
    }

    /// A matrix holding the cubes of `f` as rows, in order.
    pub fn from_cover(f: &Cover) -> Self {
        let mut m = CubeMatrix::new();
        m.reset(f.space());
        m.extend_cubes(f.space(), f.iter());
        m
    }

    /// Clears all rows and re-strides the matrix for `space`, keeping the
    /// allocated capacity.
    pub fn reset(&mut self, space: &CubeSpace) {
        self.words.clear();
        self.sigs.clear();
        self.stride = space.words();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Words per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i` as a word slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Signature of row `i`.
    #[inline]
    pub fn sig(&self, i: usize) -> Sig {
        self.sigs[i]
    }

    /// All row signatures as one contiguous slice (for hoisted signature
    /// scans that must not interleave with row-word reads).
    #[inline]
    pub fn sigs(&self) -> &[Sig] {
        &self.sigs
    }

    /// ORs every row into `acc` column-wise; `acc` must be `stride()` long.
    /// The stride-1 case — most NOVA covers — collapses to one flat OR fold
    /// over the whole arena.
    #[inline]
    pub fn fold_or_into(&self, acc: &mut [u64]) {
        debug_assert_eq!(acc.len(), self.stride);
        if self.stride == 1 {
            acc[0] |= self.words.iter().fold(0, |a, &w| a | w);
            return;
        }
        for row in self.words.chunks_exact(self.stride) {
            for (a, w) in acc.iter_mut().zip(row) {
                *a |= w;
            }
        }
    }

    /// Whether any row is the universal row (signature scan only).
    #[inline]
    pub fn any_row_full(&self, space: &CubeSpace) -> bool {
        let total = space.total_bits();
        self.sigs.iter().any(|s| s.ones == total)
    }

    /// Appends a row, computing its signature.
    pub fn push_row(&mut self, space: &CubeSpace, words: &[u64]) {
        debug_assert_eq!(words.len(), self.stride);
        self.words.extend_from_slice(words);
        self.sigs.push(Sig::of(space, words));
    }

    /// Appends a cube as a row.
    pub fn push_cube(&mut self, space: &CubeSpace, c: &Cube) {
        self.push_row(space, c.words());
    }

    /// Appends every cube of an iterator.
    pub fn extend_cubes<'a>(
        &mut self,
        space: &CubeSpace,
        cubes: impl IntoIterator<Item = &'a Cube>,
    ) {
        for c in cubes {
            self.push_cube(space, c);
        }
    }

    /// Appends the universal row.
    pub fn push_full(&mut self, space: &CubeSpace) {
        self.push_row(space, space.full_words());
    }

    /// Appends `words` with variable `v`'s field raised to full (the
    /// branch-building step of the unate recursion).
    pub fn push_var_full(&mut self, space: &CubeSpace, words: &[u64], v: usize) {
        debug_assert_eq!(words.len(), self.stride);
        let start = self.words.len();
        self.words.extend_from_slice(words);
        let (lo, hi) = space.var_span(v);
        let mask = space.mask(v);
        for (k, &mk) in mask.iter().enumerate().take(hi + 1).skip(lo) {
            self.words[start + k] |= mk;
        }
        let sig = Sig::of(space, &self.words[start..]);
        self.sigs.push(sig);
    }

    /// [`CubeMatrix::push_var_full`] with the source row's signature known:
    /// the pushed row's signature is derived incrementally in `O(span)`
    /// instead of recomputed, which removes the dominant per-branch cost of
    /// the unate recursion. Falls back to the full recomputation when the
    /// parent is degenerate or the space exceeds the exact signature window.
    pub fn push_var_full_from(&mut self, space: &CubeSpace, words: &[u64], v: usize, parent: Sig) {
        if parent.empty || v >= SIG_EXACT_VARS {
            self.push_var_full(space, words, v);
            return;
        }
        debug_assert_eq!(words.len(), self.stride);
        let start = self.words.len();
        self.words.extend_from_slice(words);
        let (lo, hi) = space.var_span(v);
        let mask = space.mask(v);
        let mut field_before = 0u32;
        let mut mask_fold = 0u64;
        for k in lo..=hi {
            field_before += (words[k] & mask[k]).count_ones();
            mask_fold |= mask[k];
            self.words[start + k] |= mask[k];
        }
        let sig = Sig {
            ones: parent.ones - field_before + space.parts(v),
            empty: false,
            orbits: parent.orbits | mask_fold,
            nonfull: parent.nonfull & !(1u128 << v),
        };
        debug_assert_eq!(sig, Sig::of(space, &self.words[start..]));
        self.sigs.push(sig);
    }

    /// Appends the universal row with variable `v`'s field replaced by the
    /// parts `row` rejects (the per-variable De Morgan step of cube
    /// complementation).
    pub fn push_complement_var(&mut self, space: &CubeSpace, row: &[u64], v: usize) {
        debug_assert_eq!(row.len(), self.stride);
        let start = self.words.len();
        self.words.extend(
            row.iter()
                .zip(space.mask(v))
                .zip(space.full_words())
                .map(|((r, m), f)| f & !(r & m)),
        );
        let sig = Sig::of(space, &self.words[start..]);
        self.sigs.push(sig);
    }

    /// Appends the ESPRESSO cofactor `row | !p` (restricted to the space's
    /// fields) when `row` intersects `p`; returns whether a row was pushed.
    pub fn push_cofactor(&mut self, space: &CubeSpace, row: &[u64], p: &[u64]) -> bool {
        debug_assert_eq!(row.len(), self.stride);
        if rows_disjoint(space, row, p) {
            return false;
        }
        let start = self.words.len();
        self.words.extend(
            row.iter()
                .zip(p)
                .zip(space.full_words())
                .map(|((r, q), f)| (r | !q) & f),
        );
        let sig = Sig::of(space, &self.words[start..]);
        self.sigs.push(sig);
        true
    }

    /// Whether the row has part `p` of variable `v` admitted.
    #[inline]
    pub fn row_has_part(&self, space: &CubeSpace, i: usize, v: usize, p: u32) -> bool {
        let b = space.bit(v, p) as usize;
        self.row(i)[b / 64] >> (b % 64) & 1 == 1
    }

    /// Whether row `i` is full in variable `v`.
    pub fn row_var_is_full(&self, space: &CubeSpace, i: usize, v: usize) -> bool {
        match self.sig(i).var_full_fast(v) {
            Some(b) => b,
            None => self
                .row(i)
                .iter()
                .zip(space.mask(v))
                .all(|(w, m)| w & m == *m),
        }
    }

    /// Whether row `i` is the universal row.
    #[inline]
    pub fn row_is_full(&self, space: &CubeSpace, i: usize) -> bool {
        self.sigs[i].ones == space.total_bits()
    }

    /// Restricts row `i` to `v = p`: clears variable `v`'s field, then admits
    /// only part `p` (used to re-anchor complement branches).
    pub fn restrict_var_to_part(&mut self, space: &CubeSpace, i: usize, v: usize, p: u32) {
        let start = i * self.stride;
        for (w, m) in self.words[start..start + self.stride]
            .iter_mut()
            .zip(space.mask(v))
        {
            *w &= !m;
        }
        let b = space.bit(v, p) as usize;
        self.words[start + b / 64] |= 1u64 << (b % 64);
        self.sigs[i] = Sig::of(space, &self.words[start..start + self.stride]);
    }

    /// ORs variable `v`'s field of row `j` into row `i` (the sibling-merge
    /// step of complementation).
    pub fn or_var_from(&mut self, space: &CubeSpace, i: usize, j: usize, v: usize) {
        debug_assert_ne!(i, j);
        let (is, js) = (i * self.stride, j * self.stride);
        for (k, m) in space.mask(v).iter().enumerate() {
            let jv = self.words[js + k] & m;
            self.words[is + k] |= jv;
        }
        let start = i * self.stride;
        self.sigs[i] = Sig::of(space, &self.words[start..start + self.stride]);
    }

    /// Whether rows `i` and `j` agree on every field except variable `v`'s.
    pub fn rows_equal_outside_var(&self, space: &CubeSpace, i: usize, j: usize, v: usize) -> bool {
        let mask = space.mask(v);
        self.row(i)
            .iter()
            .zip(self.row(j))
            .zip(mask)
            .all(|((x, y), m)| x & !m == y & !m)
    }

    /// Removes row `i` by swapping the last row into its place (order is not
    /// preserved).
    pub fn swap_remove(&mut self, i: usize) {
        let n = self.len();
        debug_assert!(i < n);
        let last = n - 1;
        if i != last {
            let (is, ls) = (i * self.stride, last * self.stride);
            self.words.copy_within(ls..ls + self.stride, is);
            self.sigs[i] = self.sigs[last];
        }
        self.words.truncate(last * self.stride);
        self.sigs.truncate(last);
    }

    /// Keeps exactly the rows whose flag in `keep` is `true`, preserving
    /// order. `keep` must be `len()` long.
    pub fn retain_flags(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len());
        let stride = self.stride;
        let mut out = 0usize;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                if out != i {
                    let (os, is) = (out * stride, i * stride);
                    self.words.copy_within(is..is + stride, os);
                    self.sigs[out] = self.sigs[i];
                }
                out += 1;
            }
        }
        self.words.truncate(out * stride);
        self.sigs.truncate(out);
    }

    /// Keeps only rows that are full in variable `v` (the weakly-unate
    /// deletion step), preserving order.
    pub fn retain_var_full(&mut self, space: &CubeSpace, v: usize) {
        let stride = self.stride;
        let mut out = 0usize;
        for i in 0..self.len() {
            if self.row_var_is_full(space, i, v) {
                if out != i {
                    let (os, is) = (out * stride, i * stride);
                    self.words.copy_within(is..is + stride, os);
                    self.sigs[out] = self.sigs[i];
                }
                out += 1;
            }
        }
        self.words.truncate(out * stride);
        self.sigs.truncate(out);
    }

    /// Drops rows that denote the empty set (some field empty), preserving
    /// order.
    pub fn drop_degenerate(&mut self) {
        let stride = self.stride;
        let mut out = 0usize;
        for i in 0..self.len() {
            if !self.sigs[i].empty {
                if out != i {
                    let (os, is) = (out * stride, i * stride);
                    self.words.copy_within(is..is + stride, os);
                    self.sigs[out] = self.sigs[i];
                }
                out += 1;
            }
        }
        self.words.truncate(out * stride);
        self.sigs.truncate(out);
    }

    /// Converts the rows back into owned cubes.
    pub fn to_cubes(&self, space: &CubeSpace) -> Vec<Cube> {
        (0..self.len())
            .map(|i| Cube::from_words(space, self.row(i)))
            .collect()
    }

    /// Capacity of the backing word buffer (for telemetry).
    pub fn capacity_words(&self) -> usize {
        self.words.capacity()
    }
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

    /// SplitMix64, to exercise every row width with irregular data.
    fn rng_stream(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn subset_matches_reference_across_widths() {
        for n in 0..=20 {
            let a = rng_stream(7 + n as u64, n);
            for case in 0..4 {
                let b: Vec<u64> = match case {
                    0 => a.clone(),                                    // equal
                    1 => a.iter().map(|w| w | 0xf0f0).collect(),       // superset
                    2 => a.iter().map(|w| w & !0x8000_0001).collect(), // subset-ish
                    _ => rng_stream(99 + n as u64, n),                 // unrelated
                };
                let reference = a.iter().zip(&b).all(|(x, y)| x & !y == 0);
                assert_eq!(row_subset(&a, &b), reference, "n={n} case={case}");
            }
        }
    }

    #[test]
    fn folds_match_reference_across_widths() {
        // 32 binary variables fill one 64-bit word exactly.
        for n in 0..=40 {
            let sp = CubeSpace::binary(32 * n);
            let a = rng_stream(n as u64, n);
            let s = Sig::of(&sp, &a);
            assert_eq!(s.orbits, a.iter().fold(0, |s, &w| s | w), "n={n}");
            assert_eq!(s.ones, a.iter().map(|w| w.count_ones()).sum(), "n={n}");
        }
    }

    #[test]
    fn strided_column_fold() {
        for stride in 1..=5usize {
            let sp = CubeSpace::binary(32 * stride);
            let rows = 7;
            let words = rng_stream(13, rows * stride);
            let mut m = CubeMatrix::new();
            m.reset(&sp);
            for row in words.chunks_exact(stride) {
                m.push_row(&sp, row);
            }
            let mut acc = vec![0u64; stride];
            m.fold_or_into(&mut acc);
            let mut reference = vec![0u64; stride];
            for r in 0..rows {
                for k in 0..stride {
                    reference[k] |= words[r * stride + k];
                }
            }
            assert_eq!(acc, reference, "stride={stride}");
        }
    }

    #[test]
    fn sig_conditions_are_necessary() {
        let sp = space();
        let cubes = [
            cube("10 11 01"),
            cube("11 11 11"),
            cube("10 01 01"),
            cube("00 11 11"),
            cube("01 10 10"),
        ];
        for a in &cubes {
            for b in &cubes {
                let sa = Sig::of(&sp, a.words());
                let sb = Sig::of(&sp, b.words());
                if a.is_subset_of(b) {
                    assert!(
                        sa.may_be_subset_of(sb),
                        "sig prune rejected a true containment: {a:?} ⊆ {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sig_detects_empty_and_nonfull() {
        let sp = space();
        let s = Sig::of(&sp, cube("10 00 11").words());
        assert!(s.empty);
        let s = Sig::of(&sp, cube("11 10 11").words());
        assert!(!s.empty);
        assert_eq!(s.nonfull, 0b010);
        assert_eq!(s.var_full_fast(0), Some(true));
        assert_eq!(s.var_full_fast(1), Some(false));
    }

    #[test]
    fn push_and_row_roundtrip() {
        let sp = space();
        let mut m = CubeMatrix::new();
        m.reset(&sp);
        m.push_cube(&sp, &cube("10 01 11"));
        m.push_full(&sp);
        assert_eq!(m.len(), 2);
        assert_eq!(m.row(0), cube("10 01 11").words());
        assert!(m.row_is_full(&sp, 1));
        assert_eq!(m.to_cubes(&sp)[0], cube("10 01 11"));
    }

    #[test]
    fn push_var_full_raises_field() {
        let sp = space();
        let mut m = CubeMatrix::new();
        m.reset(&sp);
        m.push_var_full(&sp, cube("10 01 11").words(), 1);
        assert_eq!(m.to_cubes(&sp)[0], cube("10 11 11"));
    }

    #[test]
    fn push_cofactor_matches_cube_cofactor() {
        let sp = space();
        let c = cube("10 11 11");
        let p = cube("10 01 11");
        let mut m = CubeMatrix::new();
        m.reset(&sp);
        assert!(m.push_cofactor(&sp, c.words(), p.words()));
        // The reference cofactor `c | !p`, restricted to the fields.
        let words = c.words().iter().zip(p.words()).zip(sp.full_words());
        let words: Vec<u64> = words.map(|((a, b), f)| (a | !b) & f).collect();
        assert_eq!(m.to_cubes(&sp)[0], Cube::from_words(&sp, &words));
        // Disjoint rows drop out.
        let q = cube("01 11 11");
        assert!(!m.push_cofactor(&sp, c.words(), q.words()));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn retain_and_drop_degenerate_compact_in_order() {
        let sp = space();
        let mut m = CubeMatrix::new();
        m.reset(&sp);
        for s in ["10 11 11", "10 00 11", "01 10 10", "11 11 01"] {
            m.push_cube(&sp, &cube(s));
        }
        m.drop_degenerate();
        assert_eq!(
            m.to_cubes(&sp),
            vec![cube("10 11 11"), cube("01 10 10"), cube("11 11 01")]
        );
        m.retain_flags(&[true, false, true]);
        assert_eq!(m.to_cubes(&sp), vec![cube("10 11 11"), cube("11 11 01")]);
    }

    #[test]
    fn restrict_and_or_var_update_sigs() {
        let sp = space();
        let mut m = CubeMatrix::new();
        m.reset(&sp);
        m.push_cube(&sp, &cube("11 11 11"));
        m.restrict_var_to_part(&sp, 0, 0, 1);
        assert_eq!(m.to_cubes(&sp)[0], cube("01 11 11"));
        assert!(!m.row_var_is_full(&sp, 0, 0));
        m.push_cube(&sp, &cube("10 11 11"));
        assert!(m.rows_equal_outside_var(&sp, 0, 1, 0));
        m.or_var_from(&sp, 0, 1, 0);
        assert!(m.row_is_full(&sp, 0));
    }
}
