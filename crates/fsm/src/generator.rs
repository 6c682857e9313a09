//! Seeded synthetic FSM generation.
//!
//! The MCNC benchmark files used in the NOVA paper are not distributable
//! with this reproduction; for the machines we cannot reconstruct from their
//! well-known tables we synthesize deterministic stand-ins matched to the
//! paper's Table I statistics (states / inputs / outputs / product terms).
//! Machines are deterministic and completely specified by construction:
//! each state's rows partition the input space (built by recursive cube
//! splitting), and next states / output patterns are drawn from small pools
//! to create the clustering structure that multiple-valued minimization
//! exploits (states mapped by an input into the same next state with equal
//! outputs — exactly what generates input constraints).
//!
//! Beyond the Table I stand-ins, [`ScaleSpec`] describes whole *corpora* of
//! shape-controlled machines for scale testing (`nova bench --synthetic`):
//! state/input/output counts, transition density, a reducibility knob that
//! plants provably mergeable states, and a Dubrova-style binary k-stage
//! family (arXiv:1009.5802) whose optimal encoding is known by construction.
//! Machine `i` of a corpus depends only on `(spec, i)` — corpora are never
//! materialized, so a 100k-machine sweep generates (and drops) one machine
//! at a time.

use crate::machine::{Fsm, StateId, Transition, Trit};
pub use crate::rng::SplitMix64;

/// Parameters of a synthetic machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthSpec {
    /// Machine name.
    pub name: String,
    /// Number of states.
    pub states: usize,
    /// Number of binary primary inputs.
    pub inputs: usize,
    /// Number of binary primary outputs.
    pub outputs: usize,
    /// Approximate number of table rows (rounded to a per-state split).
    pub terms: usize,
    /// PRNG seed (SplitMix64), fixed per benchmark for reproducibility.
    pub seed: u64,
}

/// Splits the full input cube into `k` disjoint cubes covering the whole
/// input space (recursive binary splitting of randomly chosen dash
/// positions).
fn partition_input_space(rng: &mut SplitMix64, inputs: usize, k: usize) -> Vec<Vec<Trit>> {
    let mut cubes = vec![vec![Trit::DontCare; inputs]];
    let limit = 1usize << inputs.min(20);
    let k = k.clamp(1, limit);
    while cubes.len() < k {
        // Split the cube with the most dashes (random among ties).
        let max_dashes = cubes
            .iter()
            .map(|c| c.iter().filter(|t| **t == Trit::DontCare).count())
            .max()
            .unwrap_or(0);
        if max_dashes == 0 {
            break;
        }
        let candidates: Vec<usize> = cubes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.iter().filter(|t| **t == Trit::DontCare).count() == max_dashes)
            .map(|(i, _)| i)
            .collect();
        let idx = candidates[rng.below(candidates.len())];
        let cube = cubes.swap_remove(idx);
        let dash_positions: Vec<usize> = cube
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == Trit::DontCare)
            .map(|(i, _)| i)
            .collect();
        let pos = dash_positions[rng.below(dash_positions.len())];
        let mut zero = cube.clone();
        zero[pos] = Trit::Zero;
        let mut one = cube;
        one[pos] = Trit::One;
        cubes.push(zero);
        cubes.push(one);
    }
    cubes
}

/// Generates a deterministic, completely specified synthetic FSM.
///
/// # Panics
///
/// Panics if the spec has zero states or more than 63.
pub fn generate(spec: &SynthSpec) -> Fsm {
    assert!(
        spec.states >= 1 && spec.states <= 200,
        "unsupported state count"
    );
    let mut rng = SplitMix64::new(spec.seed);
    let n = spec.states;
    let per_state = (spec.terms / n.max(1)).max(1);

    // A shared "instruction decode" over the input space: rows of different
    // states with the same input region often branch to the same target
    // class, which is what creates multi-state input constraints.
    let shared_regions = partition_input_space(&mut rng, spec.inputs, per_state);
    let shared_targets: Vec<usize> = (0..shared_regions.len()).map(|_| rng.below(n)).collect();

    // Output pattern pool: a handful of patterns reused across the table.
    let pool_size = 4 + rng.below(5);
    let out_pool: Vec<Vec<Trit>> = (0..pool_size)
        .map(|_| {
            (0..spec.outputs)
                .map(|_| {
                    if rng.chance(1, 8) {
                        Trit::DontCare
                    } else if rng.chance(3, 8) {
                        Trit::One
                    } else {
                        Trit::Zero
                    }
                })
                .collect()
        })
        .collect();

    // Real control FSMs expose several *orthogonal small partitions* of the
    // state set (think of the bit-fields of a counter, or mode/phase
    // decompositions): under one input region the machine branches on one
    // feature of the state, under another region on a different feature.
    // Multiple-valued minimization then merges the states sharing a feature
    // value into small, overlapping input constraints — many of them — which
    // is the structure NOVA exploits and random codes destroy.
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    // Feature A: consecutive pairs.
    partitions.push((0..n).map(|s| s / 2).collect());
    // Feature B: halves interleaved (pairs {i, i + n/2}).
    if n >= 4 {
        partitions.push((0..n).map(|s| s % n.div_ceil(2)).collect());
    }
    // Feature C: a seeded partition into groups of ~3.
    if n >= 6 {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let j = i + rng.below(n - i);
            perm.swap(i, j);
        }
        let mut feat = vec![0usize; n];
        for (i, &st) in perm.iter().enumerate() {
            feat[st] = i / 3;
        }
        partitions.push(feat);
    }

    // Per region: branch on one feature; each feature value gets a target
    // state and an output pattern.
    let mut transitions = Vec::new();
    let mut region_plan: Vec<(usize, Vec<usize>, Vec<usize>)> = Vec::new();
    for _ in 0..shared_regions.len() {
        let f = rng.below(partitions.len());
        let num_values = partitions[f].iter().max().copied().unwrap_or(0) + 1;
        let targets: Vec<usize> = (0..num_values).map(|_| rng.below(n)).collect();
        let outs: Vec<usize> = (0..num_values).map(|_| rng.below(out_pool.len())).collect();
        region_plan.push((f, targets, outs));
    }
    let _ = &shared_targets; // superseded by the per-region plans

    #[allow(clippy::needless_range_loop)] // `s` indexes a partition chosen per inner iteration
    for s in 0..n {
        for (r, input) in shared_regions.iter().enumerate() {
            let (f, targets, outs) = &region_plan[r];
            let value = partitions[*f][s];
            // A pinch of irregularity so the machines are not perfectly
            // decomposable (real tables never are).
            let deviate = rng.chance(1, 6);
            let next = if deviate {
                rng.below(n)
            } else {
                targets[value]
            };
            let output = if spec.outputs == 0 {
                Vec::new()
            } else {
                out_pool[outs[value]].clone()
            };
            transitions.push(Transition {
                input: input.clone(),
                present: StateId(s),
                next: StateId(next),
                output,
            });
        }
    }

    let state_names = (0..n).map(|s| format!("s{s}")).collect();
    Fsm::new(
        spec.name.clone(),
        spec.inputs,
        spec.outputs,
        state_names,
        transitions,
        Some(StateId(0)),
    )
    .expect("generated machine is structurally valid")
}

/// Which structural family a [`ScaleSpec`] corpus draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleFamily {
    /// Region-partitioned machines with clustered next-state structure — a
    /// generalization of the Table I stand-ins to arbitrary shapes.
    Random,
    /// Dubrova-style binary k-stage machines (arXiv:1009.5802): `2^k` states
    /// forming a k-bit shift register with XOR feedback. The natural code of
    /// the register contents is optimal by construction (every next-state
    /// bit but one is a wire), giving a known-structure family to validate
    /// encoders against.
    KStage,
}

impl ScaleFamily {
    /// Stable lower-case tag (`family=` value and stream-header field).
    pub fn tag(&self) -> &'static str {
        match self {
            ScaleFamily::Random => "random",
            ScaleFamily::KStage => "kstage",
        }
    }
}

/// Shape of a synthetic scale corpus: `machines` FSMs, each fully determined
/// by `(spec, index)`. Parsed from the `nova bench --synthetic` spec string.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSpec {
    /// Number of machines in the corpus.
    pub machines: usize,
    /// States per machine (power of two for `family=kstage`).
    pub states: usize,
    /// Binary primary inputs per machine (forced to 1 for `kstage`).
    pub inputs: usize,
    /// Binary primary outputs per machine (forced to 1 for `kstage`).
    pub outputs: usize,
    /// Transition density in `(0, 1]`: the fraction of the (capped) input
    /// region budget each state splits into distinct rows.
    pub density: f64,
    /// Reducibility in `[0, 1]`: the probability that a state clones an
    /// earlier state's rows verbatim, making the pair behaviourally
    /// equivalent (so `minimize_states` can merge it back out).
    pub reducible: f64,
    /// Structural family.
    pub family: ScaleFamily,
    /// Corpus seed; machine `i` uses the derived seed [`crate::rng::mix`]`(seed, i)`.
    pub seed: u64,
    /// Machine-name prefix; names are `{prefix}-NNNNNN` (zero-padded so
    /// lexicographic order equals index order).
    pub prefix: String,
}

impl Default for ScaleSpec {
    fn default() -> Self {
        ScaleSpec {
            machines: 1,
            states: 16,
            inputs: 4,
            outputs: 4,
            density: 0.5,
            reducible: 0.0,
            family: ScaleFamily::Random,
            seed: 1,
            prefix: "synth".into(),
        }
    }
}

/// Hard cap on states per synthetic machine (`kstage` reaches it exactly at
/// `k = 12`). Keeps a mistyped spec from trying to materialize a machine
/// with millions of rows.
pub const MAX_SCALE_STATES: usize = 4096;

impl ScaleSpec {
    /// Parses the `--synthetic` spec string: comma-separated `key=value`
    /// pairs over `machines`, `states`, `inputs`, `outputs`, `density`,
    /// `reducible`, `family` (`random` | `kstage`), `seed`, `prefix`.
    /// Unspecified keys keep their defaults; validation errors name the
    /// offending key.
    ///
    /// ```
    /// use fsm::generator::ScaleSpec;
    /// let spec = ScaleSpec::parse("machines=100,states=32,inputs=5,seed=7").unwrap();
    /// assert_eq!((spec.machines, spec.states, spec.inputs), (100, 32, 5));
    /// ```
    pub fn parse(s: &str) -> Result<ScaleSpec, String> {
        let mut spec = ScaleSpec::default();
        for pair in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("bad {key}={value:?}: {what}");
            match key {
                "machines" => {
                    spec.machines = value.parse().map_err(|_| bad("not a count"))?;
                }
                "states" => spec.states = value.parse().map_err(|_| bad("not a count"))?,
                "inputs" => spec.inputs = value.parse().map_err(|_| bad("not a count"))?,
                "outputs" => spec.outputs = value.parse().map_err(|_| bad("not a count"))?,
                "density" => {
                    spec.density = value.parse().map_err(|_| bad("not a number"))?;
                }
                "reducible" => {
                    spec.reducible = value.parse().map_err(|_| bad("not a number"))?;
                }
                "family" => {
                    spec.family = match value {
                        "random" => ScaleFamily::Random,
                        "kstage" => ScaleFamily::KStage,
                        _ => return Err(bad("expected random or kstage")),
                    }
                }
                "seed" => spec.seed = value.parse().map_err(|_| bad("not a u64"))?,
                "prefix" => spec.prefix = value.to_string(),
                _ => return Err(format!("unknown spec key {key:?}")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Range checks shared by [`ScaleSpec::parse`] and programmatic
    /// construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines == 0 {
            return Err("machines must be >= 1".into());
        }
        if self.states < 2 || self.states > MAX_SCALE_STATES {
            return Err(format!("states must be in 2..={MAX_SCALE_STATES}"));
        }
        if self.inputs == 0 || self.inputs > 20 {
            return Err("inputs must be in 1..=20".into());
        }
        if self.outputs > 64 {
            return Err("outputs must be <= 64".into());
        }
        if !(self.density > 0.0 && self.density <= 1.0) {
            return Err("density must be in (0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.reducible) {
            return Err("reducible must be in [0, 1]".into());
        }
        if self.family == ScaleFamily::KStage && !self.states.is_power_of_two() {
            return Err("kstage requires states to be a power of two".into());
        }
        if self.prefix.is_empty() || self.prefix.contains(|c: char| c.is_whitespace()) {
            return Err("prefix must be non-empty and whitespace-free".into());
        }
        Ok(())
    }

    /// Canonical spec string: re-parsing it reproduces the spec, and it is
    /// embedded in the `nova-bench-stream/1` header so a streamed sweep
    /// records its own corpus.
    pub fn spec_string(&self) -> String {
        format!(
            "machines={},states={},inputs={},outputs={},density={},reducible={},family={},seed={},prefix={}",
            self.machines,
            self.states,
            self.inputs,
            self.outputs,
            self.density,
            self.reducible,
            self.family.tag(),
            self.seed,
            self.prefix
        )
    }

    /// Name of machine `i` (zero-padded so lexicographic = index order).
    pub fn name(&self, i: usize) -> String {
        format!("{}-{:06}", self.prefix, i)
    }

    /// Generates machine `i` of the corpus. Depends only on `(self, i)`:
    /// any worker, on any thread, at any time produces the identical
    /// machine — the property the batch engine's byte-identical
    /// replay rests on.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ScaleSpec::validate`] or `i` is out of
    /// range.
    pub fn machine(&self, i: usize) -> Fsm {
        assert!(i < self.machines, "machine index {i} out of range");
        self.validate().expect("invalid ScaleSpec");
        let seed = crate::rng::mix(self.seed, i as u64);
        match self.family {
            ScaleFamily::Random => generate_scaled(self, &self.name(i), seed),
            ScaleFamily::KStage => generate_kstage(self, &self.name(i), seed),
        }
    }
}

/// The region budget a state may split into at a given input count: the full
/// input space for small machines, capped at 64 regions so row counts stay
/// proportional to states rather than `2^inputs`.
fn region_budget(inputs: usize) -> usize {
    1usize << inputs.min(6)
}

/// Generates one `family=random` scale machine: the Table I stand-in
/// construction generalized to arbitrary state counts, with `density`
/// controlling rows per state and `reducible` planting equivalent states.
fn generate_scaled(spec: &ScaleSpec, name: &str, seed: u64) -> Fsm {
    let mut rng = SplitMix64::new(seed);
    let n = spec.states;
    let per_state = ((spec.density * region_budget(spec.inputs) as f64).ceil() as usize).max(1);

    let regions = partition_input_space(&mut rng, spec.inputs, per_state);

    // Output pattern pool (see the module docs: reuse creates the clustering
    // multiple-valued minimization exploits).
    let pool_size = 4 + rng.below(5);
    let out_pool: Vec<Vec<Trit>> = (0..pool_size)
        .map(|_| {
            (0..spec.outputs)
                .map(|_| {
                    if rng.chance(1, 8) {
                        Trit::DontCare
                    } else if rng.chance(3, 8) {
                        Trit::One
                    } else {
                        Trit::Zero
                    }
                })
                .collect()
        })
        .collect();

    // Orthogonal small partitions of the state set (pairs, interleaved
    // halves, seeded triples) — the same feature construction as the Table I
    // stand-ins, valid at any state count.
    let mut partitions: Vec<Vec<usize>> = vec![(0..n).map(|s| s / 2).collect()];
    if n >= 4 {
        partitions.push((0..n).map(|s| s % n.div_ceil(2)).collect());
    }
    if n >= 6 {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let j = i + rng.below(n - i);
            perm.swap(i, j);
        }
        let mut feat = vec![0usize; n];
        for (i, &st) in perm.iter().enumerate() {
            feat[st] = i / 3;
        }
        partitions.push(feat);
    }

    let mut region_plan: Vec<(usize, Vec<usize>, Vec<usize>)> = Vec::new();
    for _ in 0..regions.len() {
        let f = rng.below(partitions.len());
        let num_values = partitions[f].iter().max().copied().unwrap_or(0) + 1;
        let targets: Vec<usize> = (0..num_values).map(|_| rng.below(n)).collect();
        let outs: Vec<usize> = (0..num_values).map(|_| rng.below(out_pool.len())).collect();
        region_plan.push((f, targets, outs));
    }

    // Per-state row plans: (next, output-pool index) per region. A state
    // that draws the `reducible` coin clones an earlier state's whole plan,
    // making the two states behaviourally equivalent by construction.
    let reducible_permille = (spec.reducible * 1000.0).round() as u64;
    let mut plans: Vec<Vec<(usize, usize)>> = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)] // `s` indexes plans and every partition
    for s in 0..n {
        if s > 0 && reducible_permille > 0 && rng.chance(reducible_permille, 1000) {
            let t = rng.below(s);
            let clone = plans[t].clone();
            plans.push(clone);
            continue;
        }
        let mut rows = Vec::with_capacity(regions.len());
        for (f, targets, outs) in &region_plan {
            let value = partitions[*f][s];
            // A pinch of irregularity so the machines are not perfectly
            // decomposable (real tables never are).
            let next = if rng.chance(1, 6) {
                rng.below(n)
            } else {
                targets[value]
            };
            rows.push((next, outs[value]));
        }
        plans.push(rows);
    }

    let mut transitions = Vec::with_capacity(n * regions.len());
    for (s, rows) in plans.iter().enumerate() {
        for (r, input) in regions.iter().enumerate() {
            let (next, out) = rows[r];
            let output = if spec.outputs == 0 {
                Vec::new()
            } else {
                out_pool[out].clone()
            };
            transitions.push(Transition {
                input: input.clone(),
                present: StateId(s),
                next: StateId(next),
                output,
            });
        }
    }

    let state_names = (0..n).map(|s| format!("s{s}")).collect();
    Fsm::new(
        name.to_string(),
        spec.inputs,
        spec.outputs,
        state_names,
        transitions,
        Some(StateId(0)),
    )
    .expect("generated machine is structurally valid")
}

/// Generates one `family=kstage` machine: a `k`-stage binary shift register
/// over `2^k` states. On input `x`, state `v` steps to
/// `(v << 1 | f) mod 2^k` with feedback `f = x ⊕ v[k-1] ⊕ v[tap] ⊕ pol`;
/// the single output is the shifted-out stage `v[k-1]`. The tap position and
/// feedback polarity are drawn from the per-machine seed.
///
/// Under the *natural* encoding `e(v) = v`, next-state bit `i` equals
/// present bit `i-1` for every `i > 0` (a wire — one product term per bit)
/// and bit 0 is a 3-input XOR (four terms): the optimal structure is known
/// by construction, which is what makes this family a validation oracle.
fn generate_kstage(spec: &ScaleSpec, name: &str, seed: u64) -> Fsm {
    let k = spec.states.trailing_zeros() as usize;
    debug_assert!(spec.states.is_power_of_two() && k >= 1);
    let mut rng = SplitMix64::new(seed);
    let tap = if k >= 2 { rng.below(k - 1) } else { 0 };
    let pol = rng.chance(1, 2) as usize;
    let mask = spec.states - 1;

    let mut transitions = Vec::with_capacity(2 * spec.states);
    for v in 0..spec.states {
        let out_bit = (v >> (k - 1)) & 1;
        for x in 0..2usize {
            let f = x ^ ((v >> (k - 1)) & 1) ^ ((v >> tap) & 1) ^ pol;
            let next = ((v << 1) | f) & mask;
            transitions.push(Transition {
                input: vec![if x == 0 { Trit::Zero } else { Trit::One }],
                present: StateId(v),
                next: StateId(next),
                output: vec![if out_bit == 0 { Trit::Zero } else { Trit::One }],
            });
        }
    }

    let state_names = (0..spec.states).map(|v| format!("r{v:b}")).collect();
    Fsm::new(
        name.to_string(),
        1,
        1,
        state_names,
        transitions,
        Some(StateId(0)),
    )
    .expect("k-stage machine is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SynthSpec {
        SynthSpec {
            name: "synth".into(),
            states: 8,
            inputs: 4,
            outputs: 3,
            terms: 48,
            seed: 42,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&spec());
        let b = generate(&spec());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&spec());
        let mut s = spec();
        s.seed = 43;
        let b = generate(&s);
        assert_ne!(a, b);
    }

    #[test]
    fn machines_are_deterministic_tables() {
        let m = generate(&spec());
        assert!(m.is_deterministic());
    }

    #[test]
    fn machines_are_completely_specified() {
        let m = generate(&spec());
        // every state must answer every input minterm
        for s in 0..m.num_states() {
            for minterm in 0..1u32 << m.num_inputs() {
                let bits: Vec<bool> = (0..m.num_inputs()).map(|b| minterm >> b & 1 == 1).collect();
                assert!(
                    m.step(StateId(s), &bits).is_some(),
                    "state {s} input {minterm:b} unspecified"
                );
            }
        }
    }

    #[test]
    fn partition_covers_disjointly() {
        let mut rng = SplitMix64::new(7);
        let cubes = partition_input_space(&mut rng, 5, 9);
        // disjoint and total: sizes sum to 2^5
        let size: u32 = cubes
            .iter()
            .map(|c| 1u32 << c.iter().filter(|t| **t == Trit::DontCare).count())
            .sum();
        assert_eq!(size, 32);
    }

    #[test]
    fn stats_roughly_match_spec() {
        let m = generate(&spec());
        assert_eq!(m.num_states(), 8);
        assert_eq!(m.num_inputs(), 4);
        assert_eq!(m.num_outputs(), 3);
        assert!(m.num_transitions() >= 8);
    }

    #[test]
    fn scale_spec_parses_and_round_trips() {
        let s = ScaleSpec::parse("machines=100,states=32,inputs=5,outputs=3,density=0.25,seed=9")
            .unwrap();
        assert_eq!(s.machines, 100);
        assert_eq!(s.states, 32);
        assert_eq!(s.inputs, 5);
        assert_eq!(s.outputs, 3);
        assert_eq!(s.density, 0.25);
        assert_eq!(s.seed, 9);
        let again = ScaleSpec::parse(&s.spec_string()).unwrap();
        assert_eq!(s, again);
        // Defaults apply to unspecified keys; empty spec is the default.
        assert_eq!(ScaleSpec::parse("").unwrap(), ScaleSpec::default());
    }

    #[test]
    fn scale_spec_rejects_bad_input() {
        for bad in [
            "machines=0",
            "states=1",
            "states=9999",
            "inputs=0",
            "density=0",
            "density=1.5",
            "reducible=2",
            "family=weird",
            "nonsense=1",
            "machines",
            "states=32,family=kstage,states=33",
            "prefix=has space",
        ] {
            assert!(ScaleSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
        // kstage demands a power-of-two state count.
        assert!(ScaleSpec::parse("family=kstage,states=24").is_err());
        assert!(ScaleSpec::parse("family=kstage,states=32").is_ok());
    }

    #[test]
    fn scale_machines_are_deterministic_and_distinct() {
        let spec = ScaleSpec::parse("machines=8,states=20,inputs=4,outputs=4,seed=3").unwrap();
        for i in 0..spec.machines {
            let a = spec.machine(i);
            let b = spec.machine(i);
            assert_eq!(a, b, "machine {i} not reproducible");
            assert_eq!(a.num_states(), 20);
            assert!(a.is_deterministic());
        }
        assert_ne!(spec.machine(0), spec.machine(1));
        // Index order matches lexicographic name order (stream invariant).
        let names: Vec<String> = (0..spec.machines).map(|i| spec.name(i)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn density_controls_rows_per_state() {
        let lo = ScaleSpec::parse("states=16,inputs=6,density=0.1,seed=5")
            .unwrap()
            .machine(0);
        let hi = ScaleSpec::parse("states=16,inputs=6,density=1.0,seed=5")
            .unwrap()
            .machine(0);
        assert!(
            hi.num_transitions() >= 4 * lo.num_transitions(),
            "density 1.0 ({} rows) should dwarf 0.1 ({} rows)",
            hi.num_transitions(),
            lo.num_transitions()
        );
    }

    #[test]
    fn reducible_knob_plants_mergeable_states() {
        use crate::minimize_states::minimize_states;
        let tight = ScaleSpec::parse("states=24,inputs=4,reducible=0.5,seed=11")
            .unwrap()
            .machine(0);
        let merged = minimize_states(&tight).merged;
        assert!(merged > 0, "reducible=0.5 produced no equivalent states");
        // reducible=0 has no *planted* equivalences (coincidental ones are
        // possible in principle, so only the knob's direction is asserted).
        let loose = ScaleSpec::parse("states=24,inputs=4,reducible=0,seed=11")
            .unwrap()
            .machine(0);
        assert!(minimize_states(&loose).merged <= merged);
    }

    #[test]
    fn scale_generation_handles_thousands_of_states() {
        let spec = ScaleSpec::parse("states=2048,inputs=8,outputs=8,density=0.2,seed=2").unwrap();
        let m = spec.machine(0);
        assert_eq!(m.num_states(), 2048);
        assert!(m.is_deterministic());
    }

    #[test]
    fn kstage_structure_is_as_constructed() {
        let spec = ScaleSpec::parse("family=kstage,states=16,machines=4,seed=6").unwrap();
        for i in 0..spec.machines {
            let m = spec.machine(i);
            assert_eq!(m.num_states(), 16);
            assert_eq!(m.num_inputs(), 1);
            assert_eq!(m.num_outputs(), 1);
            // Exactly two rows per state and fully deterministic.
            assert_eq!(m.num_transitions(), 32);
            assert!(m.is_deterministic());
            assert_eq!(m, spec.machine(i), "not reproducible");
        }
    }

    #[test]
    fn kstage_natural_code_beats_a_scrambled_code() {
        use crate::encode::{encode, Encoding};
        // The natural code e(v) = v makes all but one next-state bit a wire;
        // a bit-scrambled code destroys that structure. Minimized cover
        // sizes must reflect it — this is the "known-optimal structure"
        // validation the family exists for.
        let spec = ScaleSpec::parse("family=kstage,states=32,seed=8").unwrap();
        let m = spec.machine(0);
        let n = m.num_states();
        let natural = Encoding::new(5, (0..n as u64).collect()).unwrap();
        // A seeded random permutation of the codes destroys the register
        // locality almost surely (a bit-reversal would not: a reversed
        // shift register is still a shift register).
        let mut perm: Vec<u64> = (0..n as u64).collect();
        let mut rng = SplitMix64::new(0x5c2a);
        for i in 0..n {
            let j = i + rng.below(n - i);
            perm.swap(i, j);
        }
        let scrambled = Encoding::new(5, perm).unwrap();
        let cubes = |e: &Encoding| {
            let pla = encode(&m, e);
            espresso::minimize(&pla.on, &pla.dc).len()
        };
        let (nat, scr) = (cubes(&natural), cubes(&scrambled));
        assert!(
            nat < scr,
            "natural code ({nat} cubes) should beat scrambled ({scr} cubes)"
        );
    }
}
