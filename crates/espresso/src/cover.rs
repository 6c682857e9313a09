//! Covers: lists of cubes denoting a union of product terms.

use crate::cube::{supercube, Cube};
use crate::space::CubeSpace;
use std::fmt;

/// A sum-of-products over a [`CubeSpace`]: the union of its cubes.
///
/// A `Cover` owns its space so that all higher-level algorithms can be called
/// without threading the space separately.
///
/// # Examples
///
/// ```
/// use espresso::{Cover, CubeSpace};
///
/// let space = CubeSpace::binary_with_output(2, 1);
/// let mut f = Cover::empty(space);
/// f.push_parsed("10 11 1").unwrap();
/// f.push_parsed("11 10 1").unwrap();
/// assert_eq!(f.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Cover {
    space: CubeSpace,
    cubes: Vec<Cube>,
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Cover ({} cubes):", self.cubes.len())?;
        for c in &self.cubes {
            writeln!(f, "  {}", c.display(&self.space))?;
        }
        Ok(())
    }
}

impl Cover {
    /// An empty cover (denotes the empty set).
    pub fn empty(space: CubeSpace) -> Self {
        Cover {
            space,
            cubes: Vec::new(),
        }
    }

    /// A cover consisting of the universal cube (denotes everything).
    pub fn universe(space: CubeSpace) -> Self {
        let full = Cube::full(&space);
        Cover {
            space,
            cubes: vec![full],
        }
    }

    /// Builds a cover from parts.
    pub fn from_cubes(space: CubeSpace, cubes: Vec<Cube>) -> Self {
        Cover { space, cubes }
    }

    /// The space the cover lives in.
    pub fn space(&self) -> &CubeSpace {
        &self.space
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Whether the cover has no cubes. (An empty cover denotes ∅; note that a
    /// non-empty cover may still denote ∅ if all its cubes are degenerate.)
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Mutable access to the cubes.
    pub fn cubes_mut(&mut self) -> &mut Vec<Cube> {
        &mut self.cubes
    }

    /// Iterate over cubes.
    pub fn iter(&self) -> std::slice::Iter<'_, Cube> {
        self.cubes.iter()
    }

    /// Appends a cube.
    pub fn push(&mut self, c: Cube) {
        self.cubes.push(c);
    }

    /// Parses and appends a cube in [`Cube::display`] format.
    ///
    /// # Errors
    ///
    /// Returns an error naming the offending string when it does not match
    /// the space.
    pub fn push_parsed(&mut self, s: &str) -> Result<(), String> {
        let c = Cube::parse(&self.space, s).ok_or_else(|| format!("bad cube string: {s:?}"))?;
        self.cubes.push(c);
        Ok(())
    }

    /// Removes cubes that denote the empty set.
    pub fn drop_degenerate(&mut self) {
        let space = &self.space;
        self.cubes.retain(|c| !c.is_empty(space));
    }

    /// Single-cube containment minimization: removes every cube contained in
    /// another cube of the cover (and degenerate cubes). O(n²) with a
    /// signature prune in front of each pairwise word compare; see
    /// [`crate::containment::absorb_cubes`] (the one shared implementation).
    pub fn absorb(&mut self) {
        crate::containment::absorb_cubes(&self.space, &mut self.cubes);
    }

    /// The smallest single cube containing the whole cover.
    pub fn supercube(&self) -> Cube {
        supercube(&self.space, &self.cubes)
    }

    /// Cofactor of the cover with respect to cube `p` (cubes disjoint from
    /// `p` drop out).
    pub fn cofactor(&self, p: &Cube) -> Cover {
        let cubes = self
            .cubes
            .iter()
            .filter_map(|c| c.cofactor(&self.space, p))
            .collect();
        Cover {
            space: self.space.clone(),
            cubes,
        }
    }

    /// Union of two covers (cube lists concatenated).
    ///
    /// # Panics
    ///
    /// Panics if the spaces differ.
    pub fn union(&self, other: &Cover) -> Cover {
        assert_eq!(
            self.space, other.space,
            "union of covers in different spaces"
        );
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().cloned());
        Cover {
            space: self.space.clone(),
            cubes,
        }
    }

    /// Intersection of two covers (pairwise cube intersections).
    ///
    /// # Panics
    ///
    /// Panics if the spaces differ.
    pub fn intersection(&self, other: &Cover) -> Cover {
        assert_eq!(self.space, other.space);
        let mut out = Cover::empty(self.space.clone());
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.intersect(&self.space, b) {
                    out.push(c);
                }
            }
        }
        out.absorb();
        out
    }

    /// Whether any single cube of the cover contains `c` (sufficient but not
    /// necessary for cover containment; see [`crate::tautology::cube_in_cover`]
    /// for the exact test).
    pub fn single_cube_contains(&self, c: &Cube) -> bool {
        self.cubes.iter().any(|d| c.is_subset_of(d))
    }

    /// Total admitted-part count over all cubes (a proxy for PLA column
    /// load; expand maximizes it, reduce shrinks it).
    pub fn total_parts(&self) -> u64 {
        self.cubes.iter().map(|c| c.count_ones() as u64).sum()
    }

    /// The ESPRESSO cost of the cover: number of cubes, then the number of
    /// *literals* (non-full input-variable fields), then total parts
    /// (to break ties toward larger cubes).
    pub fn cost(&self) -> CoverCost {
        let mut literals = 0u64;
        for c in &self.cubes {
            for v in self.space.vars() {
                if Some(v) != self.space.output_var() && !c.var_is_full(&self.space, v) {
                    literals += 1;
                }
            }
        }
        CoverCost {
            cubes: self.cubes.len(),
            literals,
            parts_complement: u64::MAX - self.total_parts(),
        }
    }
}

impl IntoIterator for Cover {
    type Item = Cube;
    type IntoIter = std::vec::IntoIter<Cube>;
    fn into_iter(self) -> Self::IntoIter {
        self.cubes.into_iter()
    }
}

impl<'a> IntoIterator for &'a Cover {
    type Item = &'a Cube;
    type IntoIter = std::slice::Iter<'a, Cube>;
    fn into_iter(self) -> Self::IntoIter {
        self.cubes.iter()
    }
}

/// Lexicographic cover cost: fewer cubes, then fewer literals, then more
/// admitted parts (larger cubes). Smaller is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoverCost {
    /// Number of product terms.
    pub cubes: usize,
    /// Number of non-full input-variable fields.
    pub literals: u64,
    /// `u64::MAX - total parts`, so that Ord prefers more parts.
    pub parts_complement: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(strs: &[&str]) -> Cover {
        let sp = CubeSpace::binary_with_output(2, 2);
        let mut f = Cover::empty(sp);
        for s in strs {
            f.push_parsed(s).unwrap();
        }
        f
    }

    #[test]
    fn absorb_removes_contained_and_duplicate_cubes() {
        let mut f = cover(&["10 11 11", "10 01 01", "10 11 11", "01 10 10"]);
        f.absorb();
        assert_eq!(f.len(), 2);
        assert_eq!(f.cubes()[0].display(f.space()).to_string(), "10 11 11");
    }

    #[test]
    fn absorb_drops_degenerate() {
        let mut f = cover(&["10 00 11", "01 11 10"]);
        f.absorb();
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn cofactor_drops_disjoint_cubes() {
        let f = cover(&["10 11 11", "01 11 10"]);
        let p = Cube::parse(f.space(), "10 11 11").unwrap();
        let cf = f.cofactor(&p);
        assert_eq!(cf.len(), 1);
        assert!(cf.cubes()[0].is_full(cf.space()));
    }

    #[test]
    fn intersection_is_pairwise() {
        let f = cover(&["11 10 11"]);
        let g = cover(&["10 11 01"]);
        let h = f.intersection(&g);
        assert_eq!(h.len(), 1);
        assert_eq!(h.cubes()[0].display(h.space()).to_string(), "10 10 01");
    }

    #[test]
    fn cost_orders_sensibly() {
        let small = cover(&["11 11 11"]);
        let big = cover(&["10 11 11", "01 11 11"]);
        assert!(small.cost() < big.cost());
    }
}
