//! Bench for the face-embedding engine: the pos_equiv backtracking search
//! and the iexact pipeline built on it (std-only harness).
//!
//! The uncapped searches take microseconds each. Most of a suite sweep's
//! embedding time goes to searches that find nothing and stop at the
//! `max_work` cap with output covers active; `pos_equiv/s1-cluster` is one
//! of them, timed per candidate.
//!
//! Besides wall time this binary measures *heap allocation counts* through a
//! counting global allocator: after the thread-local `EmbedScratch` pool is
//! warm, a whole embedding search should make essentially no allocator
//! calls, so the steady-state number printed here is a regression check on
//! the pooled hot path, not a claim.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nova_core::exact::{iexact_code, min_code_length, pos_equiv, ExactOptions, PosEquiv};
use nova_core::{
    extract_input_constraints, mincube_dim, symbolic_minimize, InputGraph, RunCtl, StateSet,
};
use std::cmp::Reverse;

/// Counts every allocation and reallocation (frees are not counted: the
/// interesting number is how often the search goes to the allocator at all).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_of<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let r = f();
    std::hint::black_box(r);
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

/// Input graph of a named suite machine, as the encoders see it.
fn graph_of(name: &str) -> InputGraph {
    let b = fsm::benchmarks::by_name(name).expect("embedded");
    let ics = extract_input_constraints(&b.fsm);
    let sets: Vec<_> = ics.constraints.iter().map(|c| c.set).collect();
    InputGraph::build(ics.num_states, &sets)
}

/// Work cap per search: lets the satisfiable machines solve and the
/// unsatisfiable ones cap deterministically instead of running away. It is
/// also `HybridOptions::max_work`, the cap of every hybrid search.
const BUDGET: u64 = 200_000;

/// One embedding search: the input graph, the cube dimension and the
/// output covers.
type SearchCase = (InputGraph, u32, Vec<(usize, usize)>);

/// The first output-cluster search `iohybrid` runs on s1: the input
/// constraints its first stage accepts, plus the covers of the heaviest
/// cluster. It finds no embedding and stops at the cap.
fn s1_cluster_search() -> SearchCase {
    let b = fsm::benchmarks::by_name("s1").expect("embedded");
    let sym = symbolic_minimize(&b.fsm);
    let n = sym.ic.num_states;
    let k = min_code_length(n);
    let ctl = RunCtl::unlimited();
    let mut sets: Vec<StateSet> = Vec::new();
    for c in &sym.ic.constraints {
        sets.push(c.set);
        let ig = InputGraph::build(n, &sets);
        if !matches!(
            pos_equiv(&ig, k, &[], Some(BUDGET), &ctl),
            PosEquiv::Found(_)
        ) {
            sets.pop();
        }
    }
    let heaviest = (sym.oc_clusters.iter())
        .min_by_key(|c| Reverse(c.weight))
        .expect("s1 has output clusters");
    let covers = heaviest.covers.iter().map(|&(u, v)| (u.0, v.0)).collect();
    (InputGraph::build(n, &sets), k, covers)
}

/// Times the capped cluster search and prints its cost per candidate.
fn bench_capped_covers(h: &mut nova_bench::microbench::Harness) {
    let mut g = h.group("embed_pos_equiv");
    let (ig, k, covers) = s1_cluster_search();
    let ctl = RunCtl::unlimited();
    let outcome = pos_equiv(&ig, k, &covers, Some(BUDGET), &ctl);
    assert!(matches!(outcome, PosEquiv::Aborted), "{outcome:?}");
    let candidates = ctl.counters().faces_tried;
    let median = g.bench_throughput(
        "pos_equiv/s1-cluster",
        candidates as f64,
        "candidates",
        || pos_equiv(&ig, k, &covers, Some(BUDGET), &ctl),
    );
    if let Some(median) = median {
        let ns = median.as_nanos() as f64 / candidates as f64;
        println!("  {candidates} candidates, {ns:.1} ns per candidate");
    }
}

fn bench_pos_equiv(h: &mut nova_bench::microbench::Harness) {
    let mut g = h.group("embed_pos_equiv");
    let ctl = RunCtl::unlimited();
    for name in ["lion", "bbtas", "dk27", "shiftreg", "train11"] {
        let ig = graph_of(name);
        let k = mincube_dim(&ig);
        g.bench(&format!("pos_equiv/{name}"), || {
            pos_equiv(&ig, k, &[], Some(BUDGET), &ctl)
        });
    }
}

fn bench_iexact(h: &mut nova_bench::microbench::Harness) {
    let mut g = h.group("embed_iexact");
    g.sample_size(10);
    for name in ["bbtas", "dk27", "bbara"] {
        let ig = graph_of(name);
        let opts = ExactOptions {
            max_work: Some(BUDGET),
            ..ExactOptions::default()
        };
        g.bench(&format!("iexact/{name}"), || iexact_code(&ig, opts));
    }
}

/// Steady-state heap traffic of a full embedding search once the pooled
/// scratch is warm — the number this PR drove to (near) zero.
fn report_allocations() {
    println!();
    println!("heap allocations per embedding search (steady state, pooled scratch):");
    let ctl = RunCtl::unlimited();
    let mut searches: Vec<(&str, SearchCase)> = Vec::new();
    for name in ["lion", "bbtas", "dk27", "shiftreg", "train11"] {
        let ig = graph_of(name);
        let k = mincube_dim(&ig);
        searches.push((name, (ig, k, Vec::new())));
    }
    searches.push(("s1-cluster", s1_cluster_search()));
    for (name, (ig, k, covers)) in &searches {
        // Warm the thread-local scratch pool so the count reflects the
        // steady state the encoder loops actually run in.
        for _ in 0..3 {
            std::hint::black_box(pos_equiv(ig, *k, covers, Some(BUDGET), &ctl));
        }
        let allocs = allocs_of(|| pos_equiv(ig, *k, covers, Some(BUDGET), &ctl));
        println!("  {:<24} {:>8}", format!("pos_equiv/{name}"), allocs);
    }
}

fn main() {
    let mut h = nova_bench::microbench::Harness::from_args();
    bench_pos_equiv(&mut h);
    bench_capped_covers(&mut h);
    bench_iexact(&mut h);
    report_allocations();
}
