//! Per-thread scratch pools: reusable [`CubeMatrix`] buffers for the kernel
//! hot path.
//!
//! Every kernel entry point ([`tautology`](crate::tautology()),
//! [`complement`](crate::complement()), REDUCE's SCCC recursion and the
//! IRREDUNDANT oracle) acquires matrices from the thread-local pool instead
//! of allocating fresh `Vec<Cube>`s per recursion level. After a short warm-up
//! the unate-recursive descent performs no heap allocation: each acquire
//! pops a previously-released matrix whose `Vec<u64>` capacity is retained.
//!
//! The pool keeps reuse statistics ([`ScratchStats`]) which
//! [`minimize_with_ctl`](crate::minimize::minimize_with_ctl) flushes into the
//! run's tracer as `espresso.scratch.*` counters, so allocation regressions
//! show up in `--trace` output.

use crate::matrix::CubeMatrix;
use crate::space::CubeSpace;
use std::cell::RefCell;

/// Cumulative reuse statistics of one scratch pool: this crate's matrix
/// pool, or nova-core's embedding-search pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Buffers handed out.
    pub acquires: u64,
    /// Acquires that had to allocate a new buffer (pool empty). After
    /// warm-up this stops growing.
    pub fresh_allocs: u64,
    /// High-water mark of simultaneously live buffers (bounds the pool
    /// size: it never holds more than this many).
    pub live_peak: u64,
}

impl ScratchStats {
    /// Acquires served from the pool without allocating.
    pub fn reuses(&self) -> u64 {
        self.acquires - self.fresh_allocs
    }

    /// Component-wise difference (for before/after deltas).
    pub fn delta_from(&self, earlier: &ScratchStats) -> ScratchStats {
        ScratchStats {
            acquires: self.acquires - earlier.acquires,
            fresh_allocs: self.fresh_allocs - earlier.fresh_allocs,
            live_peak: self.live_peak.max(earlier.live_peak),
        }
    }
}

/// A pool of reusable [`CubeMatrix`] buffers plus its [`ScratchStats`].
///
/// Kernels thread `&mut Scratch` through their recursion; top-level entry
/// points obtain one via [`with_scratch`].
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<CubeMatrix>,
    free_flags: Vec<Vec<bool>>,
    free_counts: Vec<Vec<u32>>,
    free_words: Vec<Vec<u64>>,
    live: u64,
    stats: ScratchStats,
}

impl Scratch {
    /// An empty pool.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Hands out a matrix reset for `space`, reusing a released buffer when
    /// one is available.
    pub fn acquire(&mut self, space: &CubeSpace) -> CubeMatrix {
        self.stats.acquires += 1;
        self.live += 1;
        self.stats.live_peak = self.stats.live_peak.max(self.live);
        let mut m = match self.free.pop() {
            Some(m) => m,
            None => {
                self.stats.fresh_allocs += 1;
                CubeMatrix::new()
            }
        };
        m.reset(space);
        m
    }

    /// Returns a matrix to the pool for reuse.
    pub fn release(&mut self, m: CubeMatrix) {
        self.live = self.live.saturating_sub(1);
        self.free.push(m);
    }

    /// Hands out an empty `Vec<bool>` work buffer (keep-flags for
    /// absorption), reusing released capacity.
    pub fn acquire_flags(&mut self) -> Vec<bool> {
        let mut f = self.free_flags.pop().unwrap_or_default();
        f.clear();
        f
    }

    /// Returns a flags buffer to the pool.
    pub fn release_flags(&mut self, f: Vec<bool>) {
        self.free_flags.push(f);
    }

    /// Hands out an empty `Vec<u32>` work buffer (per-variable part counts
    /// for binate selection), reusing released capacity.
    pub fn acquire_counts(&mut self) -> Vec<u32> {
        let mut c = self.free_counts.pop().unwrap_or_default();
        c.clear();
        c
    }

    /// Returns a counts buffer to the pool.
    pub fn release_counts(&mut self, c: Vec<u32>) {
        self.free_counts.push(c);
    }

    /// Hands out an empty `Vec<u64>` word buffer (column folds, cube
    /// scratch), reusing released capacity.
    pub fn acquire_words(&mut self) -> Vec<u64> {
        let mut w = self.free_words.pop().unwrap_or_default();
        w.clear();
        w
    }

    /// Returns a word buffer to the pool.
    pub fn release_words(&mut self, w: Vec<u64>) {
        self.free_words.push(w);
    }

    /// Snapshot of the pool's statistics.
    pub fn stats(&self) -> ScratchStats {
        self.stats
    }
}

thread_local! {
    static POOL: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Runs `f` with this thread's scratch pool.
///
/// Re-entrant calls (a kernel entry point invoked while another holds the
/// pool) fall back to a fresh throwaway pool: still correct, just without
/// buffer reuse for that inner call. The kernels avoid this by threading
/// `&mut Scratch` explicitly through their internals.
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut pool) => f(&mut pool),
        Err(_) => f(&mut Scratch::new()),
    })
}

/// Snapshot of the calling thread's pool statistics (for before/after deltas
/// around a minimization run).
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
        let sp = CubeSpace::binary(3);
        let mut s = Scratch::new();
        let m1 = s.acquire(&sp);
        let m2 = s.acquire(&sp);
        assert_eq!(s.stats().fresh_allocs, 2);
        s.release(m1);
        s.release(m2);
        let _m3 = s.acquire(&sp);
        let st = s.stats();
        assert_eq!(st.acquires, 3);
        assert_eq!(st.fresh_allocs, 2, "third acquire reuses a buffer");
        assert_eq!(st.reuses(), 1);
        assert_eq!(st.live_peak, 2);
    }

    #[test]
    fn reset_keeps_capacity() {
        let sp = CubeSpace::binary(3);
        let mut s = Scratch::new();
        let mut m = s.acquire(&sp);
        for _ in 0..64 {
            m.push_full(&sp);
        }
        let cap = m.capacity_words();
        assert!(cap >= 64 * sp.words());
        s.release(m);
        let m = s.acquire(&sp);
        assert_eq!(m.len(), 0);
        assert_eq!(m.capacity_words(), cap, "buffer capacity survives reuse");
        s.release(m);
    }

    #[test]
    fn with_scratch_is_reentrant_safe() {
        let sp = CubeSpace::binary(2);
        let out = with_scratch(|outer| {
            let m = outer.acquire(&sp);
            // A nested entry point must not panic on the borrowed pool.
            let inner_allocs = with_scratch(|inner| {
                let im = inner.acquire(&sp);
                let a = inner.stats().fresh_allocs;
                inner.release(im);
                a
            });
            outer.release(m);
            inner_allocs
        });
        assert_eq!(out, 1, "nested call used a throwaway pool");
    }

    #[test]
    fn stats_delta() {
        let a = ScratchStats {
            acquires: 10,
            fresh_allocs: 3,
            live_peak: 4,
        };
        let b = ScratchStats {
            acquires: 25,
            fresh_allocs: 3,
            live_peak: 5,
        };
        let d = b.delta_from(&a);
        assert_eq!(d.acquires, 15);
        assert_eq!(d.fresh_allocs, 0);
        assert_eq!(d.reuses(), 15);
    }
}
