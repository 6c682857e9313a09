//! Bench for the espresso substrate itself: multiple-valued minimization of
//! symbolic covers and kernel extraction (std-only harness).
//!
//! Besides wall time this binary measures *heap allocation counts* through a
//! counting global allocator, and runs every kernel in two flavours — the
//! arena-backed hot path and the frozen `espresso-legacy` reference — so
//! the allocation and latency win of the flat-matrix rewrite is a printed,
//! regression-checkable number rather than a claim.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use espresso::factor::output_expr;
use espresso::{
    complement, containment, cube_in_cover, minimize, tautology, Cover, Cube, CubeSpace,
};
use espresso_legacy as legacy;
use fsm::{symbolic_cover, SplitMix64};
use nova_bench::microbench::Harness;

/// Counts every allocation and reallocation (frees are not counted: the
/// interesting number is how often the kernels go to the allocator at all).
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

fn bench_mv_minimize(h: &mut Harness) {
    let mut g = h.group("espresso_mv_minimize");
    g.sample_size(10);
    for name in ["lion", "bbtas", "dk27", "shiftreg", "train11"] {
        let b = fsm::benchmarks::by_name(name).expect("embedded");
        let sc = symbolic_cover(&b.fsm);
        g.bench(&format!("minimize/{name}"), || minimize(&sc.on, &sc.dc));
        g.bench(&format!("minimize_legacy/{name}"), || {
            legacy::minimize(&sc.on, &sc.dc)
        });
    }
}

fn bench_unate_paradigm(h: &mut Harness) {
    let mut g = h.group("espresso_unate");
    for name in ["bbtas", "dk27"] {
        let b = fsm::benchmarks::by_name(name).expect("embedded");
        let sc = symbolic_cover(&b.fsm);
        g.bench(&format!("tautology/{name}"), || tautology(&sc.on));
        g.bench(&format!("tautology_legacy/{name}"), || {
            legacy::tautology(&sc.on)
        });
        g.bench(&format!("complement/{name}"), || complement(&sc.on));
        g.bench(&format!("complement_legacy/{name}"), || {
            legacy::complement(&sc.on)
        });
    }
}

fn bench_kernels(h: &mut Harness) {
    let mut g = h.group("espresso_kernels");
    let b = fsm::benchmarks::by_name("bbtas").expect("embedded");
    let r = nova_core::driver::run(&b.fsm, nova_core::Algorithm::IHybrid, None).expect("runs");
    let pla = fsm::encode::encode(&b.fsm, &r.encoding);
    let min = minimize(&pla.on, &pla.dc);
    let expr = output_expr(&min, 0);
    g.bench("kernels_bbtas_f0", || expr.kernels());
    let ctl = espresso::RunCtl::unlimited();
    g.bench("quick_factor_bbtas_f0", || {
        espresso::factor::factored_literal_count(&expr, &ctl)
    });
}

/// A mostly-full random cube (loose in at most 6 variables), the shape the
/// wide-stride kernels see in practice: signature fast paths engage, word
/// scans touch the full stride.
fn mostly_full_cube(rng: &mut SplitMix64, space: &CubeSpace) -> Cube {
    let mut c = Cube::full(space);
    for _ in 0..rng.below_u64(7) {
        let v = rng.below_u64(space.num_vars() as u64) as usize;
        c.clear_part(space, v, rng.below_u64(space.parts(v) as u64) as u32);
    }
    c
}

/// Per-kernel throughput over synthetic covers at strides 1 / 4 / 9 words —
/// one word (every NOVA cover up to 64 parts), and two widths past the
/// fixed-width arms of the subset test.
/// Row-scan kernels report words/s; the pairwise absorb scan reports cube
/// pairs/s.
fn bench_kernel_throughput(h: &mut Harness) {
    let mut g = h.group("espresso_throughput");
    g.sample_size(10);
    for w in [1usize, 4, 9] {
        let space = CubeSpace::binary(32 * w);
        let mut rng = SplitMix64::new(0x7482_0000 + w as u64);
        let cubes: Vec<Cube> = (0..64)
            .map(|_| mostly_full_cube(&mut rng, &space))
            .collect();
        let f = Cover::from_cubes(space.clone(), cubes);
        let probe = mostly_full_cube(&mut rng, &space);
        let words = (f.len() * space.words()) as f64;
        let pairs = (f.len() * f.len()) as f64;
        g.bench_throughput(&format!("tautology/w{w}"), words, "words", || tautology(&f));
        g.bench_throughput(&format!("cube_in_cover/w{w}"), words, "words", || {
            cube_in_cover(&f, &probe)
        });
        // The to_vec clone is O(n) against the O(n^2) scan being measured.
        g.bench_throughput(&format!("absorb/w{w}"), pairs, "cube_pairs", || {
            let mut v = f.cubes().to_vec();
            containment::absorb_cubes(&space, &mut v);
            v.len()
        });
    }
}

/// Steady-state allocation gate for the unate recursion: once the
/// thread's scratch arena is warm, tautology and complement of a cover deep
/// enough to branch must not touch the allocator at all. Warm-up is
/// iterated because pooled buffers are handed out in release order, so a
/// buffer may first meet a larger branch (and grow) on a later call.
fn report_steady_state_allocations() {
    println!();
    println!("heap allocations per call (steady state):");
    let space = CubeSpace::binary_with_output(6, 3);
    let mut rng = SplitMix64::new(0x9a11_e702);
    let cubes: Vec<Cube> = (0..80)
        .map(|_| mostly_full_cube(&mut rng, &space))
        .collect();
    let f = Cover::from_cubes(space, cubes);
    let (mut taut, mut comp) = (u64::MAX, u64::MAX);
    for _ in 0..50 {
        taut = allocs_of(|| tautology(&f));
        comp = allocs_of(|| complement(&f));
        if taut == 0 && comp == 0 {
            break;
        }
    }
    println!("  tautology                {taut}");
    println!("  complement               {comp}");
    assert_eq!(
        (taut, comp),
        (0, 0),
        "unate recursion must reach zero steady-state allocations"
    );
}

/// Heap-allocation comparison of the arena hot path against the frozen
/// legacy kernels (steady state, after the scratch pool is warm).
fn report_allocations() {
    println!();
    println!("heap allocations per call, arena vs legacy (steady state):");
    for name in ["lion", "bbtas", "dk27", "shiftreg", "train11"] {
        let b = fsm::benchmarks::by_name(name).expect("embedded");
        let sc = symbolic_cover(&b.fsm);
        // Warm the thread-local scratch pool so the arena numbers reflect
        // steady state, which is what the minimization loop runs in.
        for _ in 0..3 {
            std::hint::black_box(tautology(&sc.on));
            std::hint::black_box(complement(&sc.on));
            std::hint::black_box(minimize(&sc.on, &sc.dc));
        }
        let rows = [
            (
                "tautology",
                allocs_of(|| tautology(&sc.on)),
                allocs_of(|| legacy::tautology(&sc.on)),
            ),
            (
                "complement",
                allocs_of(|| complement(&sc.on)),
                allocs_of(|| legacy::complement(&sc.on)),
            ),
            (
                "minimize",
                allocs_of(|| minimize(&sc.on, &sc.dc)),
                allocs_of(|| legacy::minimize(&sc.on, &sc.dc)),
            ),
        ];
        for (kernel, arena, leg) in rows {
            let ratio = leg as f64 / (arena.max(1)) as f64;
            println!(
                "  {:<24} arena {:>8}  legacy {:>8}  ({:.1}x fewer)",
                format!("{kernel}/{name}"),
                arena,
                leg,
                ratio
            );
        }
    }
}

fn main() {
    let mut h = Harness::from_args();
    bench_mv_minimize(&mut h);
    bench_unate_paradigm(&mut h);
    bench_kernels(&mut h);
    bench_kernel_throughput(&mut h);
    report_allocations();
    report_steady_state_allocations();
}
