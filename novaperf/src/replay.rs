//! The traced run: every algorithm of a portfolio replayed stage by stage
//! through the public layer functions, in the order
//! `nova_core::driver::run_traced` calls them, with a span around each call
//! and the `RunCtl` counters attributed to the layer that moved them.
//!
//! Spans live in per-thread buffers and are written out once, when the run
//! ends, so recording costs two clock reads and a push per layer call.

use espresso::{minimize_with_ctl, MinimizeOptions, RunCounters, RunCtl};
use fsm::encode::encode;
use fsm::{Encoding, Fsm};
use nova_core::constraint::extract_input_constraints_ctl;
use nova_core::driver::Algorithm;
use nova_core::exact::{iexact_code_ctl, ExactOptions};
use nova_core::greedy::igreedy_code_ctl;
use nova_core::hybrid::{ihybrid_code_ctl, kiss_code_ctl, HybridOptions};
use nova_core::iohybrid::{iohybrid_code_ctl, iovariant_code_ctl};
use nova_core::mustang::{mustang_code, MustangMode};
use nova_core::poset::InputGraph;
use nova_core::symbolic_min::{symbolic_minimize_ctl, SymbolicMinOptions};
use nova_trace::json::Json;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

const UNLIMITED: &str = "an unlimited RunCtl never cancels";

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Algorithm or request class, when the span has one.
    pub detail: &'static str,
    /// Machine index or request ordinal.
    pub owner: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::uint(self.id)),
            ("parent".into(), self.parent.map_or(Json::Null, Json::uint)),
            ("name".into(), Json::str(self.name)),
            ("detail".into(), Json::str(self.detail)),
            ("owner".into(), Json::uint(self.owner)),
            ("start_ns".into(), Json::uint(self.start_ns)),
            ("end_ns".into(), Json::uint(self.end_ns)),
        ])
    }
}

/// Work counted at the layer boundaries (summed over threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerWork {
    pub constraints_count: u64,
    pub embed_solved: u64,
    pub embed: RunCounters,
    pub espresso: RunCounters,
    pub encode_rows: u64,
}

fn add(a: &mut RunCounters, before: RunCounters, after: RunCounters) {
    a.work += after.work - before.work;
    a.faces_tried += after.faces_tried - before.faces_tried;
    a.backtracks += after.backtracks - before.backtracks;
    a.espresso_iterations += after.espresso_iterations - before.espresso_iterations;
    a.cubes_in += after.cubes_in - before.cubes_in;
    a.cubes_out += after.cubes_out - before.cubes_out;
}

/// The clock and id source shared by every recorder of one run.
pub struct Clock {
    epoch: Instant,
    ids: AtomicU64,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            epoch: Instant::now(),
            ids: AtomicU64::new(0),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn recorder(&self) -> Recorder<'_> {
        Recorder {
            clock: self,
            spans: Vec::new(),
            work: LayerWork::default(),
        }
    }
}

/// A per-thread span buffer plus layer work totals.
pub struct Recorder<'c> {
    clock: &'c Clock,
    pub spans: Vec<Span>,
    pub work: LayerWork,
}

impl Recorder<'_> {
    /// Reserves a span id, to be closed by [`Recorder::close`].
    pub fn open(&self) -> (u64, Instant) {
        (
            self.clock.ids.fetch_add(1, Ordering::Relaxed),
            Instant::now(),
        )
    }

    pub fn close(
        &mut self,
        (id, start): (u64, Instant),
        parent: Option<u64>,
        name: &'static str,
        detail: &'static str,
        owner: u64,
    ) {
        self.push(id, parent, name, detail, owner, start, Instant::now());
    }

    /// Records an interval timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        detail: &'static str,
        owner: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.clock.ids.fetch_add(1, Ordering::Relaxed);
        self.push(id, None, name, detail, owner, start, end);
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        detail: &'static str,
        owner: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            detail,
            owner,
            start_ns: self.clock.ns(start),
            end_ns: self.clock.ns(end),
        });
    }

    /// Runs `f` inside a span named after its layer.
    fn layer<T>(&mut self, at: Ctx, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open();
        let out = f();
        self.close(open, Some(at.parent), name, at.detail, at.owner);
        out
    }

    pub fn absorb(&mut self, other: Recorder<'_>) {
        self.spans.extend(other.spans);
        let (w, o) = (&mut self.work, other.work);
        w.constraints_count += o.constraints_count;
        w.embed_solved += o.embed_solved;
        add(&mut w.embed, RunCounters::default(), o.embed);
        add(&mut w.espresso, RunCounters::default(), o.espresso);
        w.encode_rows += o.encode_rows;
    }
}

#[derive(Clone, Copy)]
struct Ctx {
    parent: u64,
    detail: &'static str,
    owner: u64,
}

/// What one replayed algorithm produced: the codes and cube count of a
/// completed run, `None` when the algorithm gave up.
pub type Replayed = Option<(Vec<u64>, usize)>;

/// Worker counts a portfolio runs with.
#[derive(Debug, Clone, Copy)]
pub struct Jobs {
    pub portfolio: usize,
    pub embed: usize,
    pub espresso: usize,
}

/// Replays one algorithm on `fsm`, stage by stage.
fn replay_run(fsm: &Fsm, alg: Algorithm, jobs: Jobs, rec: &mut Recorder, at: Ctx) -> Replayed {
    let ctl = RunCtl::unlimited();
    let hybrid = HybridOptions {
        embed_jobs: jobs.embed,
        ..HybridOptions::default()
    };
    let embed = |rec: &mut Recorder, f: &mut dyn FnMut() -> Option<Encoding>| {
        let before = ctl.counters();
        let out = rec.layer(at, "embed", f);
        add(&mut rec.work.embed, before, ctl.counters());
        out
    };
    let input_constraints = |rec: &mut Recorder| {
        let ics = rec.layer(at, "constraints", || {
            extract_input_constraints_ctl(fsm, &ctl).expect(UNLIMITED)
        });
        rec.work.constraints_count += ics.constraints.len() as u64;
        ics
    };
    let symbolic = |rec: &mut Recorder| {
        let sym = rec.layer(at, "constraints", || {
            symbolic_minimize_ctl(fsm, SymbolicMinOptions::default(), &ctl).expect(UNLIMITED)
        });
        rec.work.constraints_count += (sym.ic.constraints.len() + sym.oc_clusters.len()) as u64;
        sym
    };
    let enc = match alg {
        Algorithm::IExact => {
            let ics = input_constraints(rec);
            embed(rec, &mut || {
                let sets: Vec<_> = ics.constraints.iter().map(|c| c.set).collect();
                let ig = InputGraph::build(ics.num_states, &sets);
                let opts = ExactOptions {
                    embed_jobs: jobs.embed,
                    ..ExactOptions::default()
                };
                iexact_code_ctl(&ig, opts, &ctl)
                    .expect(UNLIMITED)
                    .filter(|e| e.bits <= 63)
                    .and_then(|e| Encoding::new(e.bits as usize, e.codes).ok())
            })
        }
        Algorithm::IHybrid | Algorithm::IGreedy | Algorithm::Kiss => {
            let ics = input_constraints(rec);
            embed(rec, &mut || {
                let out = match alg {
                    Algorithm::IHybrid => ihybrid_code_ctl(&ics, None, hybrid, &ctl),
                    Algorithm::IGreedy => igreedy_code_ctl(&ics, None, &ctl),
                    _ => kiss_code_ctl(&ics, hybrid, &ctl),
                };
                Some(out.expect(UNLIMITED).encoding)
            })
        }
        Algorithm::IoHybrid | Algorithm::IoVariant => {
            let sym = symbolic(rec);
            embed(rec, &mut || {
                let out = if alg == Algorithm::IoHybrid {
                    iohybrid_code_ctl(&sym, None, hybrid, &ctl)
                } else {
                    iovariant_code_ctl(&sym, None, hybrid, &ctl)
                };
                Some(out.expect(UNLIMITED).hybrid.encoding)
            })
        }
        Algorithm::MustangP | Algorithm::MustangN => {
            ctl.charge(1).expect(UNLIMITED);
            let mode = if alg == Algorithm::MustangP {
                MustangMode::Fanout
            } else {
                MustangMode::Fanin
            };
            embed(rec, &mut || Some(mustang_code(fsm, mode)))
        }
        Algorithm::OneHot => {
            ctl.charge(1).expect(UNLIMITED);
            (fsm.num_states() <= 63).then(|| Encoding::one_hot(fsm.num_states()))
        }
    };
    let enc = enc?;
    if alg != Algorithm::OneHot {
        rec.work.embed_solved += 1;
    }
    let pla = rec.layer(at, "encode", || encode(fsm, &enc));
    rec.work.encode_rows += pla.on.len() as u64;
    let before = ctl.counters();
    let (min, _) = rec.layer(at, "espresso", || {
        let opts = MinimizeOptions {
            jobs: jobs.espresso,
            ..MinimizeOptions::default()
        };
        minimize_with_ctl(&pla.on, &pla.dc, opts, &ctl).expect(UNLIMITED)
    });
    add(&mut rec.work.espresso, before, ctl.counters());
    Some((enc.codes().to_vec(), min.len()))
}

/// Replays the whole portfolio on one machine: `jobs.portfolio` threads
/// claim algorithms in order, as `nova_engine::run_portfolio` does.
/// Returns the per-algorithm results in [`Algorithm::ALL`] order.
pub fn replay_portfolio(
    fsm: &Fsm,
    owner: u64,
    parent: Option<u64>,
    jobs: Jobs,
    rec: &mut Recorder,
) -> Vec<Replayed> {
    let open = rec.open();
    let algs = Algorithm::ALL;
    let run_one = |rec: &mut Recorder, i: usize| {
        let alg = algs[i];
        let run = rec.open();
        let at = Ctx {
            parent: run.0,
            detail: alg.name(),
            owner,
        };
        let out = replay_run(fsm, alg, jobs, rec, at);
        rec.close(run, Some(open.0), "run", alg.name(), owner);
        out
    };
    let workers = jobs.portfolio.clamp(1, algs.len());
    let mut slots: Vec<Option<Replayed>> = vec![None; algs.len()];
    if workers == 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(run_one(rec, i));
        }
    } else {
        let next = AtomicUsize::new(0);
        let clock = rec.clock;
        let parts: Vec<(Recorder, Vec<(usize, Replayed)>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = clock.recorder();
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= algs.len() {
                                break;
                            }
                            done.push((i, run_one(&mut local, i)));
                        }
                        (local, done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay worker panicked"))
                .collect()
        });
        for (local, done) in parts {
            rec.absorb(local);
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    }
    rec.close(open, parent, "portfolio", "", owner);
    slots
        .into_iter()
        .map(|s| s.expect("every algorithm replayed"))
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(w, "{}", s.to_json().to_compact())?;
    }
    w.flush()
}

/// Sum of span durations (ms) and count of spans named `name`.
pub fn busy(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(ms, n), s| (ms + s.ms(), n + 1))
}
