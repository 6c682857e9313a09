//! Per-thread scratch pools for the face-embedding hot path, mirroring
//! [`espresso::scratch`]: reusable buffers for the `pos_equiv` backtracking
//! search and the direct code-assignment fallback, so the per-call and
//! per-node `Vec` churn of the old implementation disappears after warm-up.
//!
//! The pool keeps the ESPRESSO pool's reuse statistics ([`ScratchStats`]),
//! which the search entry points flush into the run's tracer as
//! `embed.scratch.*` counters, so allocation regressions show up in
//! `--trace` output exactly like the ESPRESSO ones.

use crate::face::Face;
use espresso::ScratchStats;
use std::cell::RefCell;

macro_rules! pooled {
    ($acquire:ident, $release:ident, $field:ident, $t:ty) => {
        /// Hands out a cleared buffer, reusing released capacity.
        pub fn $acquire(&mut self) -> Vec<$t> {
            self.note_acquire(self.$field.is_empty());
            let mut b = self.$field.pop().unwrap_or_default();
            b.clear();
            b
        }

        /// Returns a buffer to the pool.
        pub fn $release(&mut self, b: Vec<$t>) {
            self.live = self.live.saturating_sub(1);
            self.$field.push(b);
        }
    };
}

/// A pool of reusable embedding-search buffers plus its statistics.
#[derive(Debug, Default)]
pub struct EmbedScratch {
    faces: Vec<Vec<Option<Face>>>,
    pairs: Vec<Vec<(usize, Face)>>,
    indices: Vec<Vec<usize>>,
    codes: Vec<Vec<u64>>,
    levels: Vec<Vec<u32>>,
    cands: Vec<Vec<(u32, u64)>>,
    orbits: Vec<Vec<Face>>,
    live: u64,
    stats: ScratchStats,
}

impl EmbedScratch {
    /// An empty pool.
    pub fn new() -> Self {
        EmbedScratch::default()
    }

    fn note_acquire(&mut self, fresh: bool) {
        self.stats.acquires += 1;
        if fresh {
            self.stats.fresh_allocs += 1;
        }
        self.live += 1;
        self.stats.live_peak = self.stats.live_peak.max(self.live);
    }

    pooled!(acquire_faces, release_faces, faces, Option<Face>);
    pooled!(acquire_pairs, release_pairs, pairs, (usize, Face));
    pooled!(acquire_indices, release_indices, indices, usize);
    pooled!(acquire_codes, release_codes, codes, u64);
    pooled!(acquire_levels, release_levels, levels, u32);
    pooled!(acquire_cands, release_cands, cands, (u32, u64));
    pooled!(acquire_orbits, release_orbits, orbits, Face);

    /// Snapshot of the pool's statistics.
    pub fn stats(&self) -> ScratchStats {
        self.stats
    }
}

thread_local! {
    static POOL: RefCell<EmbedScratch> = RefCell::new(EmbedScratch::new());
}

/// Runs `f` with this thread's embedding scratch pool.
///
/// Re-entrant calls fall back to a fresh throwaway pool: still correct,
/// just without reuse for that inner call.
pub fn with_embed_scratch<R>(f: impl FnOnce(&mut EmbedScratch) -> R) -> R {
    POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut pool) => f(&mut pool),
        Err(_) => f(&mut EmbedScratch::new()),
    })
}

/// Snapshot of the calling thread's pool statistics (for before/after
/// deltas around a search).
pub fn thread_stats() -> ScratchStats {
    POOL.with(|cell| match cell.try_borrow() {
        Ok(pool) => pool.stats(),
        Err(_) => ScratchStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_reuses_buffers() {
        let mut s = EmbedScratch::new();
        let mut a = s.acquire_indices();
        a.extend(0..100);
        let cap = a.capacity();
        s.release_indices(a);
        let b = s.acquire_indices();
        assert!(b.is_empty());
        assert!(b.capacity() >= cap, "capacity survives reuse");
        s.release_indices(b);
        let st = s.stats();
        assert_eq!(st.acquires, 2);
        assert_eq!(st.fresh_allocs, 1);
        assert_eq!(st.reuses(), 1);
        assert_eq!(st.live_peak, 1);
    }

    #[test]
    fn pools_are_per_kind() {
        let mut s = EmbedScratch::new();
        let f = s.acquire_faces();
        let p = s.acquire_pairs();
        assert_eq!(s.stats().live_peak, 2);
        s.release_faces(f);
        s.release_pairs(p);
        let _f2 = s.acquire_faces();
        assert_eq!(s.stats().fresh_allocs, 2, "faces buffer reused");
    }

    #[test]
    fn with_scratch_is_reentrant_safe() {
        let out = with_embed_scratch(|outer| {
            let b = outer.acquire_codes();
            let inner_fresh = with_embed_scratch(|inner| {
                let ib = inner.acquire_codes();
                let a = inner.stats().fresh_allocs;
                inner.release_codes(ib);
                a
            });
            outer.release_codes(b);
            inner_fresh
        });
        assert_eq!(out, 1, "nested call used a throwaway pool");
    }
}
