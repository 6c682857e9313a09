//! The top-level NOVA driver: run a state-assignment algorithm on a machine,
//! encode, minimize with ESPRESSO and report the paper's metrics
//! (#bits, #cubes, PLA area, factored literals).

use crate::constraint::{extract_input_constraints_ctl, InputConstraints};
use crate::greedy::igreedy_code_ctl;
use crate::hybrid::{ihybrid_code_ctl, kiss_code_ctl, HybridOptions};
use crate::iohybrid::{iohybrid_code_ctl, iovariant_code_ctl};
use crate::mustang::{mustang_code, MustangMode};
use crate::symbolic_min::{symbolic_minimize_ctl, SymbolicMin, SymbolicMinOptions};
use crate::{exact, poset};
use espresso::factor::cover_factored_literals;
use espresso::{minimize_with_ctl, CancelReason, Cancelled, MinimizeOptions, RunCtl};
use fsm::encode::encode;
use fsm::generator::SplitMix64;
use fsm::{Encoding, Fsm};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// The state-assignment algorithms of the paper plus its baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// `iexact_code` (Section III).
    IExact,
    /// `ihybrid_code` at minimum code length (Section IV).
    IHybrid,
    /// `igreedy_code` (Section V).
    IGreedy,
    /// Symbolic minimization + `iohybrid_code` (Section VI).
    IoHybrid,
    /// The `iovariant_code` variant (Section VI-6.2.2).
    IoVariant,
    /// The KISS baseline: all input constraints satisfied.
    Kiss,
    /// MUSTANG fanout-oriented (`-p`).
    MustangP,
    /// MUSTANG fanin-oriented (`-n`).
    MustangN,
    /// 1-hot encoding.
    OneHot,
}

impl Algorithm {
    /// Every algorithm in the paper's fixed order: the NOVA family first
    /// (Tables II/IV), then the baselines (Table III). This order also
    /// breaks area ties in the portfolio engine, so keep it stable.
    pub const ALL: [Algorithm; 9] = [
        Algorithm::IExact,
        Algorithm::IHybrid,
        Algorithm::IGreedy,
        Algorithm::IoHybrid,
        Algorithm::IoVariant,
        Algorithm::Kiss,
        Algorithm::MustangP,
        Algorithm::MustangN,
        Algorithm::OneHot,
    ];

    /// Is this one of the paper's comparison baselines (as opposed to the
    /// NOVA family proper)?
    pub fn is_baseline(&self) -> bool {
        matches!(
            self,
            Algorithm::Kiss | Algorithm::MustangP | Algorithm::MustangN | Algorithm::OneHot
        )
    }

    /// Short display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::IExact => "iexact",
            Algorithm::IHybrid => "ihybrid",
            Algorithm::IGreedy => "igreedy",
            Algorithm::IoHybrid => "iohybrid",
            Algorithm::IoVariant => "iovariant",
            Algorithm::Kiss => "kiss",
            Algorithm::MustangP => "mustang-p",
            Algorithm::MustangN => "mustang-n",
            Algorithm::OneHot => "1-hot",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for [`Algorithm::from_str`] on an unknown name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgorithm(pub String);

impl std::fmt::Display for UnknownAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown algorithm {:?}", self.0)
    }
}

impl std::error::Error for UnknownAlgorithm {}

impl std::str::FromStr for Algorithm {
    type Err = UnknownAlgorithm;

    /// Accepts the paper names as printed by [`Algorithm::name`], plus the
    /// `onehot` spelling the CLI has always taken.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "onehot" {
            return Ok(Algorithm::OneHot);
        }
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| UnknownAlgorithm(s.to_string()))
    }
}

/// The paper's per-run metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalResult {
    /// Code length used.
    pub bits: usize,
    /// Product terms after ESPRESSO minimization of the encoded cover.
    pub cubes: usize,
    /// PLA area per the paper's formula.
    pub area: u64,
    /// Factored-form literal count (the MIS-II stand-in of Table VII).
    pub literals: usize,
    /// The encoding that produced these numbers.
    pub encoding: Encoding,
}

/// Encodes `fsm` with `enc`, minimizes, and reports the metrics.
///
/// # Panics
///
/// Panics if the encoding does not match the machine's state count.
pub fn evaluate(fsm: &Fsm, enc: &Encoding) -> EvalResult {
    let (ctl, cell) = (RunCtl::unlimited(), StageCell::new());
    evaluate_ctl(fsm, enc.clone(), &ctl, &cell).expect("an unlimited ctl never cancels")
}

/// Runs `algorithm` on `fsm` and evaluates the resulting encoding.
/// `target_bits` overrides the code length for the algorithms that accept
/// one. Returns `None` when the algorithm fails (only `IExact`, whose search
/// is budgeted, or machines too large for `u64` codes).
pub fn run(fsm: &Fsm, algorithm: Algorithm, target_bits: Option<u32>) -> Option<EvalResult> {
    let (ctl, cell, front) = (RunCtl::unlimited(), StageCell::new(), FrontEnd::new());
    match run_traced(fsm, algorithm, target_bits, &ctl, &cell, &front) {
        Outcome::Done(r) => Some(r),
        _ => None,
    }
}

/// Wall-clock time spent in each stage of one algorithm run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Constraint extraction / symbolic minimization (the MV front-end).
    pub constraints: Duration,
    /// Face hypercube embedding / code construction.
    pub embed: Duration,
    /// Encoding the machine's cover with the chosen codes.
    pub encode: Duration,
    /// ESPRESSO minimization of the encoded cover.
    pub espresso: Duration,
}

impl StageTimes {
    /// Sum of all stage times.
    pub fn total(&self) -> Duration {
        self.constraints + self.embed + self.encode + self.espresso
    }
}

/// An anytime result: the run was cancelled, but a search had already
/// offered a complete, valid code assignment into the [`RunCtl`], and the
/// driver promoted it instead of discarding the work.
#[derive(Debug, Clone)]
pub struct Degradation {
    /// Why the run was cancelled (deadline, budget, or stop).
    pub reason: CancelReason,
    /// Which search offered the snapshot (e.g. `"ihybrid.project"`).
    pub source: &'static str,
    /// The promoted encoding, validated by [`Encoding::new`] (distinct
    /// codes that fit the code length).
    pub encoding: Encoding,
}

/// How one algorithm run ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The full pipeline completed.
    Done(EvalResult),
    /// The algorithm gave up within its own limits (the `IExact` work
    /// budget, or a machine too large for `u64` codes) — not a
    /// cancellation, not an error.
    Unsolved,
    /// The [`RunCtl`] deadline or node budget fired (or the run was
    /// stopped) mid-run, and no valid best-so-far snapshot was available.
    Timeout,
    /// Cancelled mid-run, but a best-so-far snapshot was promoted into a
    /// valid encoding (not minimized — the deadline already fired).
    Degraded(Degradation),
    /// The run panicked; the message is retained. Only the engine's panic
    /// containment ends a run this way: [`run_traced`] never returns it.
    Failed(String),
}

impl Outcome {
    /// The completed result, if any.
    pub fn result(&self) -> Option<&EvalResult> {
        match self {
            Outcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// The degraded anytime result, if any.
    pub fn degradation(&self) -> Option<&Degradation> {
        match self {
            Outcome::Degraded(d) => Some(d),
            _ => None,
        }
    }

    /// Stable lower-case tag used in reports and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Done(_) => "done",
            Outcome::Unsolved => "unsolved",
            Outcome::Timeout => "timeout",
            Outcome::Degraded(_) => "degraded",
            Outcome::Failed(_) => "failed",
        }
    }
}

/// A shareable accumulator of [`StageTimes`], readable at any point of a run
/// — in particular by the engine *after* a worker panicked, so partial stage
/// telemetry survives (the panicking stage's own time is lost, but every
/// completed stage is in the cell).
#[derive(Debug, Default)]
pub struct StageCell(Mutex<StageTimes>);

impl StageCell {
    /// An empty cell.
    pub fn new() -> StageCell {
        StageCell::default()
    }

    /// The stage times accumulated so far. Poison-safe: the cell is read
    /// *after* worker panics by design, so a panic that unwound through a
    /// lock holder must not take the telemetry with it.
    pub fn snapshot(&self) -> StageTimes {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `f` to the accumulated times (the write side of the cell).
    pub fn add(&self, f: impl FnOnce(&mut StageTimes)) {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

/// The machine-level front end of NOVA (paper steps 2–3), derived once and
/// shared by every algorithm run of one portfolio: the input constraints of
/// one ESPRESSO-MV minimization (iexact, ihybrid, igreedy, kiss) and one
/// symbolic minimization (iohybrid, iovariant).
///
/// The first run to need a derivation computes it under its own [`RunCtl`]
/// while holding the cell's lock, so a concurrent run waits rather than
/// derives twice. The result is published only when the derivation
/// returned `Ok` with no stop latched on the ctl; a later run then replays
/// it as one [`RunCtl::charge`] of the units the derivation charged. Every
/// run enters its constraints stage with a fresh ctl under the same limits,
/// so a published derivation is one every run would have completed, and
/// the replay leaves the budget where deriving would have: outcomes and
/// `work` are those of the run alone, at any worker count.
#[derive(Debug, Default)]
pub struct FrontEnd {
    inputs: Derivation<InputConstraints>,
    symbolic: Derivation<SymbolicMin>,
}

impl FrontEnd {
    /// An empty front end: the next run to need a derivation computes it.
    pub fn new() -> FrontEnd {
        FrontEnd::default()
    }
}

/// One shared derivation: the value plus the work units charged deriving it.
#[derive(Debug)]
struct Derivation<T>(Mutex<Option<(Arc<T>, u64)>>);

impl<T> Default for Derivation<T> {
    fn default() -> Self {
        Derivation(Mutex::new(None))
    }
}

impl<T> Derivation<T> {
    /// The published value replayed onto `ctl`, or `derive()` run under it.
    fn get_or_derive(
        &self,
        ctl: &RunCtl,
        derive: impl FnOnce() -> Result<T, Cancelled>,
    ) -> Result<Arc<T>, Cancelled> {
        // A panic mid-derivation poisons the lock with the cell still empty.
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((value, units)) = slot.as_ref() {
            let (value, units) = (Arc::clone(value), *units);
            drop(slot);
            ctl.tracer().incr("engine.constraints.reused", 1);
            // A derivation that charged nothing made no ctl operation either
            // (every ESPRESSO pass opens with a charge), so neither does its
            // replay: fault plans count the same operations.
            if units > 0 {
                ctl.charge(units)?;
            }
            return Ok(value);
        }
        let before = ctl.counters().work;
        let value = Arc::new(derive()?);
        if ctl.cancel_reason().is_none() {
            *slot = Some((Arc::clone(&value), ctl.counters().work - before));
        }
        Ok(value)
    }
}

/// Runs one pipeline stage: wall time flows through the tracer
/// ([`nova_trace::Tracer::scope_timed`] always measures; the span is only
/// recorded when tracing is enabled) and into the shared cell — one
/// telemetry path for both the stage report and the trace file.
fn stage<T>(
    ctl: &RunCtl,
    cell: &StageCell,
    name: &'static str,
    slot: fn(&mut StageTimes) -> &mut Duration,
    f: impl FnOnce() -> T,
) -> T {
    ctl.set_stage(name);
    let (out, elapsed) = ctl.tracer().scope_timed(name, f);
    cell.add(|s| *slot(s) += elapsed);
    out
}

/// [`run`] under a [`RunCtl`], with per-stage wall-clock telemetry. All four
/// pipeline stages (constraint extraction, embedding, encoding, ESPRESSO)
/// check the handle, so a deadline or node budget yields a prompt
/// [`Outcome::Timeout`] (or [`Outcome::Degraded`]) instead of a hung
/// worker. The caller owns the stage-time accumulator and the [`FrontEnd`]:
/// the engine keeps the cell *outside* its `catch_unwind`, so stage times
/// recorded before a worker panic are still reported, and passes one front
/// end per portfolio, so the algorithms of a machine share its constraint
/// derivations.
pub fn run_traced(
    fsm: &Fsm,
    algorithm: Algorithm,
    target_bits: Option<u32>,
    ctl: &RunCtl,
    cell: &StageCell,
    front: &FrontEnd,
) -> Outcome {
    match run_traced_inner(fsm, algorithm, target_bits, ctl, cell, front) {
        Ok(Some(result)) => Outcome::Done(result),
        Ok(None) => Outcome::Unsolved,
        Err(Cancelled) => match degrade(fsm, ctl) {
            Some(d) => Outcome::Degraded(d),
            None => Outcome::Timeout,
        },
    }
}

/// Promotes the ctl's best-so-far snapshot (if any) into a validated
/// [`Degradation`]. A snapshot that does not validate — wrong state count,
/// duplicate codes, codes too wide — is discarded, never promoted.
fn degrade(fsm: &Fsm, ctl: &RunCtl) -> Option<Degradation> {
    let best = ctl.take_best()?;
    if best.codes.len() != fsm.num_states() || best.bits > 63 {
        return None;
    }
    let encoding = Encoding::new(best.bits as usize, best.codes).ok()?;
    Some(Degradation {
        reason: ctl.cancel_reason().unwrap_or(CancelReason::Stop),
        source: best.source,
        encoding,
    })
}

/// What an algorithm embeds: the shared front end it derived, or (MUSTANG
/// and 1-hot) the machine itself.
enum Front {
    Inputs(Arc<InputConstraints>),
    Symbolic(Arc<SymbolicMin>),
    Machine,
}

/// One run as four timed stages; nothing but bookkeeping runs between them.
fn run_traced_inner(
    fsm: &Fsm,
    algorithm: Algorithm,
    target_bits: Option<u32>,
    ctl: &RunCtl,
    cell: &StageCell,
    front: &FrontEnd,
) -> Result<Option<EvalResult>, Cancelled> {
    use Algorithm::*;
    let derive = |f: &dyn Fn() -> Result<Front, Cancelled>| {
        stage(ctl, cell, "stage.constraints", |s| &mut s.constraints, f)
    };
    let derived = match algorithm {
        IExact | IHybrid | IGreedy | Kiss => derive(&|| {
            let ics = front
                .inputs
                .get_or_derive(ctl, || extract_input_constraints_ctl(fsm, ctl));
            Ok(Front::Inputs(ics?))
        })?,
        IoHybrid | IoVariant => derive(&|| {
            let sym = front.symbolic.get_or_derive(ctl, || {
                symbolic_minimize_ctl(fsm, SymbolicMinOptions::default(), ctl)
            });
            Ok(Front::Symbolic(sym?))
        })?,
        MustangP | MustangN | OneHot => {
            ctl.charge(1)?;
            Front::Machine
        }
    };
    let embedding = || embed(fsm, algorithm, derived, target_bits, ctl);
    let Some(enc) = stage(ctl, cell, "stage.embed", |s| &mut s.embed, embedding)? else {
        return Ok(None);
    };
    // The embedding stage produced a complete encoding: offer it as the
    // definitive anytime snapshot (score MAX beats every partial offer), so
    // a cancellation during encode/ESPRESSO still degrades to a full result.
    ctl.offer_best(enc.bits() as u32, enc.codes(), algorithm.name(), u64::MAX);
    evaluate_ctl(fsm, enc, ctl, cell).map(Some)
}

/// Paper step 4: the codes `algorithm` assigns from the front end derived
/// for it, or `None` when it gives up within its own limits.
fn embed(
    fsm: &Fsm,
    algorithm: Algorithm,
    derived: Front,
    target_bits: Option<u32>,
    ctl: &RunCtl,
) -> Result<Option<Encoding>, Cancelled> {
    use Algorithm::*;
    let opts = HybridOptions::default();
    Ok(Some(match (algorithm, derived) {
        (IExact, Front::Inputs(ics)) => {
            let sets: Vec<_> = ics.constraints.iter().map(|c| c.set).collect();
            let tracer = ctl.tracer();
            let ig = tracer.scope("embed.build", || {
                poset::InputGraph::build(ics.num_states, &sets)
            });
            tracer.incr("embed.graph_nodes", ig.len() as u64);
            let found = exact::iexact_code_ctl(&ig, exact::ExactOptions::default(), ctl)?;
            return Ok(found.and_then(|e| Encoding::new(e.bits as usize, e.codes).ok()));
        }
        (IHybrid, Front::Inputs(ics)) => ihybrid_code_ctl(&ics, target_bits, opts, ctl)?.encoding,
        (IGreedy, Front::Inputs(ics)) => igreedy_code_ctl(&ics, target_bits, ctl)?.encoding,
        (Kiss, Front::Inputs(ics)) => kiss_code_ctl(&ics, opts, ctl)?.encoding,
        (IoHybrid, Front::Symbolic(sym)) => {
            iohybrid_code_ctl(&sym, target_bits, opts, ctl)?
                .hybrid
                .encoding
        }
        (IoVariant, Front::Symbolic(sym)) => {
            iovariant_code_ctl(&sym, target_bits, opts, ctl)?
                .hybrid
                .encoding
        }
        (MustangP, _) => mustang_code(fsm, MustangMode::Fanout),
        (MustangN, _) => mustang_code(fsm, MustangMode::Fanin),
        (OneHot, _) if fsm.num_states() > 63 => return Ok(None),
        (OneHot, _) => Encoding::one_hot(fsm.num_states()),
        _ => unreachable!("each algorithm embeds the front end derived for it"),
    }))
}

/// The pipeline's tail (paper step 5) for one encoding: encode the machine,
/// minimize the encoded cover with ESPRESSO, and count the paper's metrics.
/// The literal count runs in the ESPRESSO stage, under its own span.
fn evaluate_ctl(
    fsm: &Fsm,
    enc: Encoding,
    ctl: &RunCtl,
    cell: &StageCell,
) -> Result<EvalResult, Cancelled> {
    let encoding = || encode(fsm, &enc);
    let pla = stage(ctl, cell, "stage.encode", |s| &mut s.encode, encoding);
    let minimize_and_count = || {
        let (min, _) = minimize_with_ctl(&pla.on, &pla.dc, MinimizeOptions::default(), ctl)?;
        let factor = || cover_factored_literals(&min, ctl);
        Ok(EvalResult {
            bits: enc.bits(),
            cubes: min.len(),
            area: pla.area_for(min.len()),
            literals: ctl.tracer().scope("espresso.factor", factor)?,
            encoding: enc,
        })
    };
    stage(
        ctl,
        cell,
        "stage.espresso",
        |s| &mut s.espresso,
        minimize_and_count,
    )
}

/// Statistics of the random-assignment baseline.
#[derive(Debug, Clone)]
pub struct RandomStats {
    /// Best (minimum) area over the trials.
    pub best_area: u64,
    /// Average area over the trials.
    pub avg_area: u64,
    /// Best factored literal count over the trials.
    pub best_literals: usize,
    /// The best trial's full result.
    pub best: EvalResult,
    /// Number of trials run.
    pub trials: usize,
}

/// A random minimum-length encoding drawn from `rng`.
pub fn random_encoding(n: usize, rng: &mut SplitMix64) -> Encoding {
    let bits = exact::min_code_length(n);
    let mut pool: Vec<u64> = (0..1u64 << bits).collect();
    // Fisher-Yates prefix shuffle.
    for i in 0..n {
        let j = i + rng.below(pool.len() - i);
        pool.swap(i, j);
    }
    Encoding::new(bits as usize, pool[..n].to_vec()).expect("shuffled codes are distinct")
}

/// The paper's random baseline: `#states + #symbolic inputs` trials (we have
/// no symbolic inputs in the benchmark suite, so `#states` trials) of random
/// minimum-length assignments; best and average areas reported.
///
/// # Panics
///
/// Panics if the machine has more than 63 states or `trials == 0`.
pub fn random_baseline(fsm: &Fsm, trials: usize, seed: u64) -> RandomStats {
    assert!(trials > 0);
    let n = fsm.num_states();
    assert!(fsm.min_bits() <= 63);
    let mut rng = SplitMix64::new(seed);
    let mut best: Option<EvalResult> = None;
    let mut total_area = 0u64;
    let mut best_literals = usize::MAX;
    for _ in 0..trials {
        let enc = random_encoding(n, &mut rng);
        let r = evaluate(fsm, &enc);
        total_area += r.area;
        best_literals = best_literals.min(r.literals);
        if best.as_ref().is_none_or(|b| r.area < b.area) {
            best = Some(r);
        }
    }
    let best = best.expect("trials > 0");
    RandomStats {
        best_area: best.area,
        avg_area: total_area / trials as u64,
        best_literals,
        best,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Fsm {
        fsm::benchmarks::by_name("bbtas").unwrap().fsm
    }

    #[test]
    fn evaluate_reports_consistent_area() {
        let m = toy();
        let e = Encoding::new(3, (0..6).collect()).unwrap();
        let r = evaluate(&m, &e);
        assert_eq!(
            r.area,
            fsm::area::pla_area(m.num_inputs(), 3, m.num_outputs(), r.cubes)
        );
        assert!(r.cubes > 0);
    }

    #[test]
    fn all_algorithms_run_on_bbtas() {
        let m = toy();
        for alg in [
            Algorithm::IHybrid,
            Algorithm::IGreedy,
            Algorithm::IoHybrid,
            Algorithm::Kiss,
            Algorithm::MustangP,
            Algorithm::MustangN,
            Algorithm::OneHot,
        ] {
            let r = run(&m, alg, None).unwrap_or_else(|| panic!("{} failed", alg.name()));
            assert!(r.cubes > 0, "{}", alg.name());
            assert!(r.area > 0, "{}", alg.name());
        }
    }

    #[test]
    fn iexact_runs_on_small_machine() {
        let m = fsm::benchmarks::by_name("lion").unwrap().fsm;
        let r = run(&m, Algorithm::IExact, None);
        // lion is tiny; the exact search must finish.
        let r = r.expect("iexact on lion");
        assert!(r.bits >= 2);
    }

    #[test]
    fn one_hot_uses_n_bits() {
        let m = toy();
        let r = run(&m, Algorithm::OneHot, None).unwrap();
        assert_eq!(r.bits, 6);
    }

    #[test]
    fn random_baseline_statistics() {
        let m = toy();
        let stats = random_baseline(&m, 6, 0xfeed);
        assert!(stats.best_area <= stats.avg_area);
        assert_eq!(stats.trials, 6);
    }

    #[test]
    fn random_encoding_is_valid_and_seeded() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        let ea = random_encoding(6, &mut a);
        let eb = random_encoding(6, &mut b);
        assert_eq!(ea, eb);
        let mut codes = ea.codes().to_vec();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 6);
    }

    #[test]
    fn ihybrid_beats_or_matches_random_on_average() {
        let m = toy();
        let hybrid = run(&m, Algorithm::IHybrid, None).unwrap();
        let rand = random_baseline(&m, 6, 42);
        assert!(
            hybrid.area <= rand.avg_area,
            "ihybrid {} vs random avg {}",
            hybrid.area,
            rand.avg_area
        );
    }
}
