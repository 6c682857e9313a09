//! Frozen pre-arena reference implementations of the ESPRESSO kernels.
//!
//! This crate is a verbatim snapshot of the `Vec<Cube>`-based kernels as
//! they existed before the flat [`CubeMatrix`](espresso::matrix::CubeMatrix)
//! arena rewrite. It exists for two reasons:
//!
//! 1. **Differential testing** — the arena kernels are required to be
//!    result-identical to these functions on every input (see
//!    `crates/espresso/tests/differential.rs` and the suite-wide checks in
//!    `nova-bench`).
//! 2. **Benchmarking** — the `espresso_kernels` bench times legacy vs arena
//!    side by side and counts heap allocations for both, so the speedup and
//!    allocation reduction are tracked artifacts rather than claims.
//!
//! Only dev-dependencies name this crate, so no shipped binary links it.
//! Do not "fix" or optimize it: its value is that it does not change. New
//! work goes into the arena path.

#![forbid(unsafe_code)]

use espresso::{supercube, Cover, CoverCost, Cube, CubeSpace, MinimizeOptions, MinimizeStats};

/// Most reduce/expand/irredundant improvement iterations between two
/// LAST_GASP steps, frozen at the bound `espresso::minimize` uses.
const MAX_ITERATIONS: usize = 8;

/// Cofactor of `f` with respect to cube `p` (cubes disjoint from `p` drop
/// out).
fn cofactor(f: &Cover, p: &Cube) -> Cover {
    let cubes = f.iter().filter_map(|c| c.cofactor(f.space(), p)).collect();
    Cover::from_cubes(f.space().clone(), cubes)
}

/// Whether any single cube of `f` contains `c` (sufficient but not
/// necessary for cover containment).
fn single_cube_contains(f: &Cover, c: &Cube) -> bool {
    f.iter().any(|d| c.is_subset_of(d))
}

/// Pre-arena single-cube containment minimization (the routine that was
/// duplicated between `Cover::absorb` and `tautology::absorb_in_place`).
pub fn absorb_in_place(space: &CubeSpace, cubes: &mut Vec<Cube>) {
    cubes.retain(|c| !c.is_empty(space));
    let n = cubes.len();
    let mut keep = vec![true; n];
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        for j in 0..n {
            if i == j || !keep[j] {
                continue;
            }
            if cubes[i].is_subset_of(&cubes[j]) && (cubes[i] != cubes[j] || i > j) {
                keep[i] = false;
                break;
            }
        }
    }
    let mut idx = 0;
    cubes.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
}

/// Pre-arena tautology check (unate recursive paradigm over `Vec<Cube>`).
pub fn tautology(f: &Cover) -> bool {
    taut_rec(f.space(), f.cubes().to_vec())
}

fn taut_rec(space: &CubeSpace, mut cubes: Vec<Cube>) -> bool {
    loop {
        cubes.retain(|c| !c.is_empty(space));
        if cubes.iter().any(|c| c.is_full(space)) {
            return true;
        }
        if cubes.is_empty() {
            return false;
        }
        let sup = supercube(space, &cubes);
        if !sup.is_full(space) {
            return false;
        }

        let mut reduced = false;
        for v in space.vars() {
            let mut non_full_union = Cube::zero(space);
            let mut any_non_full = false;
            for c in &cubes {
                if !c.var_is_full(space, v) {
                    any_non_full = true;
                    non_full_union = non_full_union.or(c);
                }
            }
            if !any_non_full {
                continue;
            }
            if !non_full_union.var_is_full(space, v) {
                cubes.retain(|c| c.var_is_full(space, v));
                reduced = true;
                break;
            }
        }
        if reduced {
            continue;
        }

        absorb_in_place(space, &mut cubes);
        if cubes.len() == 1 {
            return cubes[0].is_full(space);
        }

        let mut best: Option<(usize, usize, u32)> = None;
        for v in space.vars() {
            let count = cubes.iter().filter(|c| !c.var_is_full(space, v)).count();
            if count == 0 {
                continue;
            }
            let parts = space.parts(v);
            let cand = (v, count, parts);
            best = Some(match best {
                None => cand,
                Some(b) => {
                    if count > b.1 || (count == b.1 && parts < b.2) {
                        cand
                    } else {
                        b
                    }
                }
            });
        }
        let (v, _, _) = match best {
            Some(b) => b,
            None => return true,
        };

        for p in 0..space.parts(v) {
            let mut branch: Vec<Cube> = Vec::with_capacity(cubes.len());
            for c in &cubes {
                if c.has_part(space, v, p) {
                    let mut cf = c.clone();
                    cf.set_var_full(space, v);
                    branch.push(cf);
                }
            }
            if !taut_rec(space, branch) {
                return false;
            }
        }
        return true;
    }
}

/// Pre-arena exact cube-in-cover containment.
pub fn cube_in_cover(f: &Cover, c: &Cube) -> bool {
    if c.is_empty(f.space()) {
        return true;
    }
    let cf = cofactor(f, c);
    taut_rec(f.space(), cf.into_iter().collect())
}

/// Pre-arena exact cover containment.
pub fn cover_in_cover(g: &Cover, f: &Cover) -> bool {
    g.iter().all(|c| cube_in_cover(f, c))
}

fn verify_minimized(m: &Cover, f: &Cover, d: &Cover) -> bool {
    let fd = f.union(d);
    let md = m.union(d);
    cover_in_cover(f, &md) && cover_in_cover(m, &fd)
}

fn complement_cube(space: &CubeSpace, c: &Cube) -> Vec<Cube> {
    if c.is_empty(space) {
        return vec![Cube::full(space)];
    }
    let mut out = Vec::new();
    for v in space.vars() {
        if c.var_is_full(space, v) {
            continue;
        }
        let mut r = Cube::full(space);
        for p in 0..space.parts(v) {
            if c.has_part(space, v, p) {
                r.clear_part(space, v, p);
            }
        }
        out.push(r);
    }
    out
}

/// Pre-arena cover complementation.
pub fn complement(f: &Cover) -> Cover {
    let cubes = comp_rec(f.space(), f.cubes().to_vec());
    let mut out = Cover::from_cubes(f.space().clone(), cubes);
    absorb_in_place(&out.space().clone(), out.cubes_mut());
    out
}

fn comp_rec(space: &CubeSpace, mut cubes: Vec<Cube>) -> Vec<Cube> {
    cubes.retain(|c| !c.is_empty(space));
    if cubes.iter().any(|c| c.is_full(space)) {
        return Vec::new();
    }
    if cubes.is_empty() {
        return vec![Cube::full(space)];
    }
    if cubes.len() == 1 {
        return complement_cube(space, &cubes[0]);
    }

    let mut keep = vec![true; cubes.len()];
    for i in 0..cubes.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..cubes.len() {
            if i != j
                && keep[j]
                && cubes[i].is_subset_of(&cubes[j])
                && (cubes[i] != cubes[j] || i > j)
            {
                keep[i] = false;
                break;
            }
        }
    }
    let mut idx = 0;
    cubes.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
    if cubes.len() == 1 {
        return complement_cube(space, &cubes[0]);
    }

    let mut best: Option<(usize, usize, u32)> = None;
    for v in space.vars() {
        let count = cubes.iter().filter(|c| !c.var_is_full(space, v)).count();
        if count == 0 {
            continue;
        }
        let parts = space.parts(v);
        let cand = (v, count, parts);
        best = Some(match best {
            None => cand,
            Some(b) => {
                if count > b.1 || (count == b.1 && parts < b.2) {
                    cand
                } else {
                    b
                }
            }
        });
    }
    let v = best
        .expect("non-universe multi-cube cover has an active variable")
        .0;

    let mut out: Vec<Cube> = Vec::new();
    for p in 0..space.parts(v) {
        let mut branch: Vec<Cube> = Vec::new();
        for c in &cubes {
            if c.has_part(space, v, p) {
                let mut cf = c.clone();
                cf.set_var_full(space, v);
                branch.push(cf);
            }
        }
        let comp = comp_rec(space, branch);
        for mut c in comp {
            c.clear_var(space, v);
            c.set_part(space, v, p);
            out.push(c);
        }
    }

    merge_on_var(space, v, &mut out);
    out
}

fn merge_on_var(space: &CubeSpace, v: usize, cubes: &mut Vec<Cube>) {
    let mut i = 0;
    while i < cubes.len() {
        let mut j = i + 1;
        while j < cubes.len() {
            if equal_outside_var(space, v, &cubes[i], &cubes[j]) {
                let merged = cubes[i].or(&cubes[j]);
                cubes[i] = merged;
                cubes.swap_remove(j);
            } else {
                j += 1;
            }
        }
        i += 1;
    }
}

fn equal_outside_var(space: &CubeSpace, v: usize, a: &Cube, b: &Cube) -> bool {
    let mask = space.mask(v);
    a.words()
        .iter()
        .zip(b.words())
        .zip(mask)
        .all(|((x, y), m)| x & !m == y & !m)
}

/// Pre-arena EXPAND.
pub fn expand(f: &mut Cover, d: &Cover) {
    let space = f.space().clone();
    absorb_in_place(&space, f.cubes_mut());
    let n = f.len();
    if n == 0 {
        return;
    }

    let total_bits = space.total_bits() as usize;
    let mut col = vec![0u32; total_bits];
    for c in f.iter() {
        for v in space.vars() {
            for p in 0..space.parts(v) {
                if c.has_part(&space, v, p) {
                    col[space.bit(v, p) as usize] += 1;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| f.cubes()[i].count_ones());

    let mut covered = vec![false; n];
    for &i in &order {
        if covered[i] {
            continue;
        }
        let mut c = f.cubes()[i].clone();
        let oracle = {
            let mut cubes = Vec::with_capacity(f.len() + d.len());
            for (j, cube) in f.iter().enumerate() {
                if !covered[j] {
                    cubes.push(cube.clone());
                }
            }
            cubes.extend(d.iter().cloned());
            Cover::from_cubes(space.clone(), cubes)
        };

        let mut cands: Vec<(usize, u32)> = Vec::new();
        for v in space.vars() {
            for p in 0..space.parts(v) {
                if !c.has_part(&space, v, p) {
                    cands.push((v, p));
                }
            }
        }
        cands.sort_by_key(|&(v, p)| std::cmp::Reverse(col[space.bit(v, p) as usize]));

        for (v, p) in cands {
            let mut t = c.clone();
            t.set_part(&space, v, p);
            let ok = f
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && !covered[j] && t.is_subset_of(other))
                || single_cube_contains(d, &t)
                || cube_in_cover(&oracle, &t);
            if ok {
                c = t;
            }
        }

        f.cubes_mut()[i] = c.clone();
        for (j, cov) in covered.iter_mut().enumerate() {
            if j != i && !*cov && f.cubes()[j].is_subset_of(&c) {
                *cov = true;
            }
        }
    }

    let mut idx = 0;
    f.cubes_mut().retain(|_| {
        let k = !covered[idx];
        idx += 1;
        k
    });
}

/// Pre-arena REDUCE.
pub fn reduce(f: &mut Cover, d: &Cover) {
    let space = f.space().clone();
    let n = f.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(f.cubes()[i].count_ones()));

    for &i in &order {
        let mut rest_cubes: Vec<Cube> = Vec::with_capacity(n - 1 + d.len());
        for (j, c) in f.iter().enumerate() {
            if j != i {
                rest_cubes.push(c.clone());
            }
        }
        rest_cubes.extend(d.iter().cloned());
        let rest = Cover::from_cubes(space.clone(), rest_cubes);

        let mut c = f.cubes()[i].clone();
        loop {
            let mut changed = false;
            for v in space.vars() {
                if c.var_count(&space, v) <= 1 {
                    continue;
                }
                for p in 0..space.parts(v) {
                    if !c.has_part(&space, v, p) {
                        continue;
                    }
                    if c.var_count(&space, v) <= 1 {
                        break;
                    }
                    let mut slice = c.clone();
                    slice.clear_var(&space, v);
                    slice.set_part(&space, v, p);
                    if cube_in_cover(&rest, &slice) {
                        c.clear_part(&space, v, p);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        f.cubes_mut()[i] = c;
    }
}

fn reduce_cube_against(f: &Cover, d: &Cover, i: usize) -> Cube {
    let space = f.space().clone();
    let mut rest_cubes: Vec<Cube> = Vec::with_capacity(f.len() - 1 + d.len());
    for (j, c) in f.iter().enumerate() {
        if j != i {
            rest_cubes.push(c.clone());
        }
    }
    rest_cubes.extend(d.iter().cloned());
    let rest = Cover::from_cubes(space.clone(), rest_cubes);

    let mut c = f.cubes()[i].clone();
    loop {
        let mut changed = false;
        for v in space.vars() {
            for p in 0..space.parts(v) {
                if !c.has_part(&space, v, p) || c.var_count(&space, v) <= 1 {
                    continue;
                }
                let mut slice = c.clone();
                slice.clear_var(&space, v);
                slice.set_part(&space, v, p);
                if cube_in_cover(&rest, &slice) {
                    c.clear_part(&space, v, p);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    c
}

/// Pre-arena IRREDUNDANT.
pub fn irredundant(f: &mut Cover, d: &Cover) {
    let space = f.space().clone();
    absorb_in_place(&space, f.cubes_mut());
    let mut order: Vec<usize> = (0..f.len()).collect();
    order.sort_by_key(|&i| f.cubes()[i].count_ones());

    let mut removed = vec![false; f.len()];
    for &i in &order {
        let mut rest: Vec<Cube> = Vec::with_capacity(f.len() + d.len());
        for (j, c) in f.iter().enumerate() {
            if j != i && !removed[j] {
                rest.push(c.clone());
            }
        }
        rest.extend(d.iter().cloned());
        let rest = Cover::from_cubes(space.clone(), rest);
        if cube_in_cover(&rest, &f.cubes()[i]) {
            removed[i] = true;
        }
    }
    let mut idx = 0;
    f.cubes_mut().retain(|_| {
        let k = !removed[idx];
        idx += 1;
        k
    });
}

fn relatively_essential(f: &Cover, d: &Cover) -> Vec<usize> {
    let space = f.space().clone();
    let mut out = Vec::new();
    for i in 0..f.len() {
        let mut rest: Vec<Cube> = Vec::with_capacity(f.len() + d.len());
        for (j, c) in f.iter().enumerate() {
            if j != i {
                rest.push(c.clone());
            }
        }
        rest.extend(d.iter().cloned());
        let rest = Cover::from_cubes(space.clone(), rest);
        if !cube_in_cover(&rest, &f.cubes()[i]) {
            out.push(i);
        }
    }
    out
}

/// Pre-arena ESPRESSO minimization loop (default-option entry).
pub fn minimize(f: &Cover, d: &Cover) -> Cover {
    minimize_with(f, d, MinimizeOptions::default()).0
}

/// Pre-arena ESPRESSO minimization loop with explicit options.
pub fn minimize_with(f: &Cover, d: &Cover, opts: MinimizeOptions) -> (Cover, MinimizeStats) {
    let initial_cubes = f.len();
    let mut cur = f.clone();
    absorb_in_place(&cur.space().clone(), cur.cubes_mut());
    if cur.is_empty() {
        return (
            cur,
            MinimizeStats {
                initial_cubes,
                final_cubes: 0,
                iterations: 0,
            },
        );
    }

    expand(&mut cur, d);
    irredundant(&mut cur, d);

    let mut essentials = Cover::empty(cur.space().clone());
    let mut d_aug = d.clone();
    if !opts.single_pass {
        let ess = relatively_essential(&cur, d);
        if !ess.is_empty() && ess.len() < cur.len() {
            let mut rest = Vec::new();
            for (i, c) in cur.iter().enumerate() {
                if ess.contains(&i) {
                    essentials.push(c.clone());
                    d_aug.push(c.clone());
                } else {
                    rest.push(c.clone());
                }
            }
            cur = Cover::from_cubes(cur.space().clone(), rest);
        }
    }

    let with_essentials = |c: &Cover| -> Cover {
        let mut out = essentials.clone();
        for cube in c.iter() {
            out.push(cube.clone());
        }
        out
    };
    let mut best = with_essentials(&cur);
    let mut best_cost: CoverCost = best.cost();
    let mut iterations = 0;

    if !opts.single_pass {
        loop {
            let mut improved = false;
            for _ in 0..MAX_ITERATIONS {
                iterations += 1;
                reduce(&mut cur, &d_aug);
                expand(&mut cur, &d_aug);
                irredundant(&mut cur, &d_aug);
                let full = with_essentials(&cur);
                let cost = full.cost();
                if cost < best_cost {
                    best = full;
                    best_cost = cost;
                    improved = true;
                } else {
                    break;
                }
            }
            let gasped = last_gasp(&mut cur, &d_aug);
            if !gasped {
                break;
            }
            let full = with_essentials(&cur);
            let cost = full.cost();
            if cost < best_cost {
                best = full;
                best_cost = cost;
            } else if !improved {
                break;
            }
        }
    }

    if opts.verify {
        assert!(
            verify_minimized(&best, f, d),
            "espresso contract violated: F ⊆ M ⊆ F ∪ D does not hold"
        );
    }
    let final_cubes = best.len();
    (
        best,
        MinimizeStats {
            initial_cubes,
            final_cubes,
            iterations,
        },
    )
}

fn last_gasp(f: &mut Cover, d: &Cover) -> bool {
    let space = f.space().clone();
    let n = f.len();
    if n < 2 {
        return false;
    }
    let mut reduced: Vec<Cube> = Vec::with_capacity(n);
    for i in 0..n {
        reduced.push(reduce_cube_against(f, d, i));
    }
    let mut additions: Vec<Cube> = Vec::new();
    let oracle = {
        let mut cubes: Vec<Cube> = f.cubes().to_vec();
        cubes.extend(d.iter().cloned());
        Cover::from_cubes(space.clone(), cubes)
    };
    for g in &reduced {
        let mut c = g.clone();
        for v in space.vars() {
            for p in 0..space.parts(v) {
                if !c.has_part(&space, v, p) {
                    let mut t = c.clone();
                    t.set_part(&space, v, p);
                    if cube_in_cover(&oracle, &t) {
                        c = t;
                    }
                }
            }
        }
        let covered = reduced.iter().filter(|r| r.is_subset_of(&c)).count();
        if covered >= 2 && !f.cubes().contains(&c) && !additions.contains(&c) {
            additions.push(c);
        }
    }
    if additions.is_empty() {
        return false;
    }
    let before = f.cost();
    let mut candidate = f.clone();
    for a in additions {
        candidate.push(a);
    }
    irredundant(&mut candidate, d);
    if candidate.cost() < before {
        *f = candidate;
        true
    } else {
        false
    }
}
