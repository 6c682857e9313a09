//! Suite-level result-identity: on every benchmark FSM of the NOVA suite,
//! the arena-backed ESPRESSO kernels must minimize both the symbolic cover
//! and an encoded PLA to *exactly* the cover the frozen pre-arena
//! implementation (`espresso-legacy`) produces — same cubes, same cost,
//! same iteration count. This pins the perf rewrite to the seed behaviour on
//! the real workload, not just on random covers.
//!
//! Small machines run the full improvement loop; large ones run the
//! single-pass options (expand + irredundant, which still drives every
//! kernel through the arena path). The 1-hot encoded PLAs of the small
//! machines run the full loop, LAST_GASP included, whatever their size.
//! Debug builds additionally skip covers above [`DEBUG_MAX_CUBES`]: the
//! frozen legacy reference is slow enough unoptimized that the big machines
//! only fit a release-build budget (`cargo test --release -p nova-bench`
//! diffs the whole suite).
//!
//! On the ihybrid-encoded PLAs of six small machines, ESPRESSO is also
//! checked against the exact minimizer (`espresso::exact`): the exact cover
//! must be equivalent to the PLA, and ESPRESSO may never need fewer cubes.

use espresso::{minimize_with, Cover, MinimizeOptions};
use espresso_legacy as legacy;
use fsm::benchmarks::suite;
use fsm::encode::{encode, Encoding};
use fsm::symbolic::symbolic_cover;

/// Full loop below this on-set size, single pass above it.
const FULL_LOOP_MAX_CUBES: usize = 48;

/// Machines up to this many states are diffed on their 1-hot encoding.
const ONE_HOT_MAX_STATES: usize = 20;

/// Debug (unoptimized) builds diff only covers up to this size.
const DEBUG_MAX_CUBES: usize = 40;

fn skip_in_debug(on: &Cover) -> bool {
    cfg!(debug_assertions) && on.len() > DEBUG_MAX_CUBES
}

fn opts_for(on: &Cover) -> MinimizeOptions {
    MinimizeOptions {
        verify: true,
        single_pass: on.len() > FULL_LOOP_MAX_CUBES,
        ..MinimizeOptions::default()
    }
}

fn assert_identical(name: &str, kind: &str, on: &Cover, dc: &Cover, opts: MinimizeOptions) {
    let (ours, our_stats) = minimize_with(on, dc, opts);
    let (theirs, their_stats) = legacy::minimize_with(on, dc, opts);
    assert_eq!(
        ours.cubes(),
        theirs.cubes(),
        "{kind} minimize diverged from legacy on {name}"
    );
    assert_eq!(ours.cost(), theirs.cost(), "{kind} cost diverged on {name}");
    assert_eq!(our_stats, their_stats, "{kind} stats diverged on {name}");
}

#[test]
fn symbolic_minimization_is_identical_on_every_suite_fsm() {
    for b in suite() {
        let sc = symbolic_cover(&b.fsm);
        if skip_in_debug(&sc.on) {
            continue;
        }
        assert_identical(
            &b.display_name(),
            "symbolic",
            &sc.on,
            &sc.dc,
            opts_for(&sc.on),
        );
    }
}

#[test]
fn encoded_minimization_is_identical_on_every_suite_fsm() {
    for b in suite() {
        // Minimal-width binary encoding: sequential codes over ceil(log2 n)
        // bits (one-hot would exceed the 63-bit code limit on the largest
        // machines and blow up the PLA width).
        let n = b.fsm.num_states();
        let bits = usize::BITS as usize - (n - 1).leading_zeros() as usize;
        let enc = Encoding::new(bits.max(1), (0..n as u64).collect())
            .expect("sequential codes are valid");
        let pla = encode(&b.fsm, &enc);
        if skip_in_debug(&pla.on) {
            continue;
        }
        assert_identical(
            &b.display_name(),
            "encoded",
            &pla.on,
            &pla.dc,
            opts_for(&pla.on),
        );
    }
}

#[test]
fn one_hot_full_loop_is_identical_on_small_suite_fsms() {
    // The full loop with LAST_GASP on real covers: the encoded test above
    // runs single-pass beyond FULL_LOOP_MAX_CUBES cubes.
    let opts = MinimizeOptions {
        verify: true,
        ..MinimizeOptions::default()
    };
    let mut diffed = 0;
    for b in suite() {
        let n = b.fsm.num_states();
        if n > ONE_HOT_MAX_STATES {
            continue;
        }
        let pla = encode(&b.fsm, &Encoding::one_hot(n));
        if skip_in_debug(&pla.on) {
            continue;
        }
        assert_identical(&b.display_name(), "one-hot", &pla.on, &pla.dc, opts);
        diffed += 1;
    }
    assert!(diffed > 0, "no suite machine was diffed");
}

/// Suite machines whose ihybrid-encoded PLA the exact minimizer finishes
/// within its default limits in well under a second (release). Most other
/// small machines spend seconds to minutes before `minimize_exact` gives
/// up, and lion9 takes over a second, too long for a debug build.
const EXACT_MACHINES: [&str; 6] = ["lion", "shiftreg", "dol", "dk27", "bbtas", "modulo12"];

#[test]
fn espresso_is_never_below_the_exact_minimum_on_encoded_suite_plas() {
    for name in EXACT_MACHINES {
        let m = fsm::benchmarks::by_name(name)
            .unwrap_or_else(|| panic!("embedded benchmark {name}"))
            .fsm;
        let encoding = nova_core::driver::run(&m, nova_core::driver::Algorithm::IHybrid, None)
            .unwrap_or_else(|| panic!("{name}: ihybrid finishes"))
            .encoding;
        let pla = encode(&m, &encoding);
        let heuristic = espresso::minimize(&pla.on, &pla.dc);
        let exact = espresso::exact::minimize_exact(
            &pla.on,
            &pla.dc,
            espresso::exact::ExactLimits::default(),
        )
        .unwrap_or_else(|| panic!("{name}: exact minimization exceeded its limits"));
        assert!(
            espresso::verify_minimized(&exact, &pla.on, &pla.dc),
            "{name}: the exact cover is not equivalent to the PLA"
        );
        assert!(
            heuristic.len() >= exact.len(),
            "{name}: ESPRESSO's {} cubes beat the exact minimum of {}",
            heuristic.len(),
            exact.len()
        );
        println!(
            "{name}: espresso {} cubes, exact {} (gap {})",
            heuristic.len(),
            exact.len(),
            heuristic.len() - exact.len()
        );
    }
}
