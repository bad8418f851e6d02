//! The two kinds of op the benchmark times, each with its result check:
//! one design run through the whole pipeline, and one autotune request
//! served through the `sarad` engine.

use crate::trace::Tracer;
use plasticine_arch::SystemSpec;
use plasticine_sim::{simulate, simulate_system, SimConfig, SimOutcome};
use sara_core::compile::{compile, CompilerOptions};
use sara_dse::{autotune_with, EvalPoint, Evaluator, KnobConfig, SearchOptions};
use sara_ir::interp::{Interp, RunOutcome};
use sara_ir::{Elem, MemId, MemKind, Program};
use sara_util::json::Json;
use sarad::{CachedEval, Engine};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Per-layer work counts of one op, by metric name. Keys that are not
/// reported metrics (hits, misses) feed the ratios computed at the end.
pub type Counts = BTreeMap<&'static str, f64>;

/// What a completed op returns. A failed result check shows up as
/// `verify.mismatches > 0`, not as an error.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    /// Simulated cycles of the design (for a tune request, of the best
    /// design found).
    pub cycles: u64,
    /// Physical units of that design.
    pub pus: usize,
    pub counts: Counts,
}

fn add(c: &mut Counts, key: &'static str, v: impl Into<f64>) {
    *c.entry(key).or_insert(0.0) += v.into();
}

/// One design: a program placed on a chip or a multi-chip system.
#[derive(Debug, Clone)]
pub struct Design {
    pub label: String,
    pub program: Program,
    pub system: SystemSpec,
    pub pnr_seed: u64,
}

impl Design {
    /// Interpret, compile, place, simulate, and compare the final DRAM
    /// image with the interpreter's.
    ///
    /// # Errors
    ///
    /// The failing stage and its message.
    pub fn run(&self, tr: &Tracer) -> Result<Done, String> {
        let p = &self.program;
        let chip = &self.system.chip;
        let mut c = Counts::new();
        let reference =
            tr.span("ir", || Interp::new(p).run()).map_err(|e| format!("interp: {e}"))?;
        add(&mut c, "ir.ops", reference.stats.total_ops() as f64);
        let mut compiled = tr
            .span("core", || compile(p, chip, &CompilerOptions::default()))
            .map_err(|e| format!("compile: {e}"))?;
        add(&mut c, "core.units", compiled.vudfg.units.len() as f64);
        add(&mut c, "core.streams", compiled.report.streams as f64);
        let cfg = SimConfig::default();
        let outcome = if self.system.count == 1 {
            let pnr = tr
                .span("pnr", || {
                    sara_pnr::place_and_route(
                        &mut compiled.vudfg,
                        &compiled.assignment,
                        chip,
                        self.pnr_seed,
                    )
                })
                .map_err(|e| format!("pnr: {e}"))?;
            add(&mut c, "pnr.iterations", pnr.iterations as f64);
            add(&mut c, "pnr.wirelength", pnr.wirelength as f64);
            add(&mut c, "pnr.max_link_use", pnr.max_link_use);
            tr.span("sim", || simulate(&compiled.vudfg, chip, &cfg))
        } else {
            let pnr = tr
                .span("pnr", || {
                    sara_pnr::place_and_route_system(
                        &mut compiled.vudfg,
                        &compiled.assignment,
                        &self.system,
                        self.pnr_seed,
                    )
                })
                .map_err(|e| format!("pnr: {e}"))?;
            add(
                &mut c,
                "pnr.iterations",
                pnr.chips.iter().map(|r| r.iterations).sum::<u64>() as f64,
            );
            add(&mut c, "pnr.wirelength", pnr.wirelength() as f64);
            add(
                &mut c,
                "pnr.max_link_use",
                pnr.chips.iter().map(|r| r.max_link_use).max().unwrap_or(0),
            );
            let plan = &pnr.plan;
            let mut used = plan.chip_of.clone();
            used.sort_unstable();
            used.dedup();
            add(&mut c, "shard.crossings", plan.crossings.len() as f64);
            add(&mut c, "shard.cut_traffic", plan.cut_traffic);
            add(&mut c, "shard.chips_used", used.len() as f64);
            tr.span("sim", || simulate_system(&compiled.vudfg, &self.system, plan, &cfg))
        }
        .map_err(|e| format!("sim: {e}"))?;
        let s = &outcome.stats;
        add(&mut c, "sim.cycles", outcome.cycles as f64);
        add(&mut c, "sim.firings", s.firings as f64);
        add(&mut c, "dram.bytes", s.dram.total_bytes() as f64);
        add(&mut c, "dram.requests", s.dram.requests as f64);
        add(&mut c, "dram.row_hits", s.dram.row_hits as f64);
        add(&mut c, "dram.row_misses", s.dram.row_misses as f64);
        let (elems, mismatches) = tr.span("verify", || compare_dram(p, &reference, &outcome));
        add(&mut c, "verify.elems", elems as f64);
        add(&mut c, "verify.mismatches", mismatches as f64);
        Ok(Done { cycles: outcome.cycles, pus: compiled.report.total_pus(), counts: c })
    }
}

/// Compare every DRAM tensor of the simulated image with the
/// interpreter's: integers bit-exactly, floats within 1e-9 relative (the
/// fabric reassociates reductions). Returns `(elements, mismatches)`; a
/// missing or short tensor counts every absent element as a mismatch.
pub fn compare_dram(p: &Program, reference: &RunOutcome, out: &SimOutcome) -> (u64, u64) {
    let (mut elems, mut bad) = (0u64, 0u64);
    for (mi, m) in p.mems.iter().enumerate() {
        if m.kind != MemKind::Dram {
            continue;
        }
        let expect = &reference.mem[mi];
        let id = MemId(u32::try_from(mi).expect("memory count fits u32"));
        let got: &[Elem] = out.dram_final.get(&id).map_or(&[], Vec::as_slice);
        elems += expect.len() as u64;
        bad += expect.len().abs_diff(got.len()) as u64;
        for (e, g) in expect.iter().zip(got) {
            let ok = match (e, g) {
                (Elem::F64(a), Elem::F64(b)) => {
                    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
                }
                _ => e.bit_eq(*g),
            };
            bad += u64::from(!ok);
        }
    }
    (elems, bad)
}

/// How a tune request is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    /// A fresh engine on an empty store: every stage computes and writes.
    Cold,
    /// Again on the cold request's engine: served from memory.
    Warm,
    /// A new engine opened on the cold request's store, as after a
    /// daemon restart.
    Restart,
}

impl Serve {
    pub const ALL: [Serve; 3] = [Serve::Cold, Serve::Warm, Serve::Restart];

    pub fn name(self) -> &'static str {
        match self {
            Serve::Cold => "cold",
            Serve::Warm => "warm",
            Serve::Restart => "restart",
        }
    }
}

/// One autotune request and what its cold run left for the replays.
#[derive(Debug)]
pub struct Request {
    pub workload: &'static str,
    pub opts: SearchOptions,
    engine: Option<Arc<Engine>>,
    /// Engine counters after the previous op on `engine`.
    stats: Option<Json>,
    /// Best knob key and cycles of the latest cold run.
    best: Option<(String, u64)>,
}

/// The evaluator the search calls, timing each call into the engine.
struct TracedEval<'a> {
    inner: CachedEval,
    tr: &'a Tracer,
}

impl Evaluator for TracedEval<'_> {
    fn evaluate(&self, knobs: &KnobConfig) -> Result<EvalPoint, String> {
        self.tr.span("sarad.evaluate", || self.inner.evaluate(knobs))
    }

    fn simulate(&self, point: &mut EvalPoint) -> Result<(), String> {
        self.tr.span("sarad.simulate", || self.inner.simulate(point))
    }
}

/// Engine counters summed into the op's counts (as deltas for a warm
/// request, whose engine already served the cold one).
const ENGINE_COUNTERS: [(&str, &str); 8] = [
    ("compiles_run", "sarad.compiles_run"),
    ("pnrs_run", "sarad.pnrs_run"),
    ("sims_run", "sarad.sims_run"),
    ("disk_hits", "sarad.disk_hits"),
    ("compile_hits", "sarad.compile_hits"),
    ("compile_misses", "sarad.compile_misses"),
    ("sim_hits", "sarad.sim_hits"),
    ("sim_misses", "sarad.sim_misses"),
];

impl Request {
    pub fn new(workload: &'static str, opts: SearchOptions) -> Request {
        Request { workload, opts, engine: None, stats: None, best: None }
    }

    /// Serve the request once with its store at `dir`. Checks that the
    /// best design is no slower than the default, and that a replay
    /// returns the cold run's best knobs and cycles exactly.
    ///
    /// # Errors
    ///
    /// Engine open failures, a failed search, and a replay with no cold
    /// run before it.
    pub fn serve(&mut self, serve: Serve, dir: &Path, tr: &Tracer) -> Result<Done, String> {
        let engine = match serve {
            Serve::Warm => self.engine.clone().ok_or("warm request before a cold one")?,
            Serve::Cold | Serve::Restart => {
                self.stats = None;
                Arc::new(tr.span("sarad.open", || Engine::open(dir))?)
            }
        };
        let eval = TracedEval { inner: CachedEval::new(Arc::clone(&engine)), tr };
        let out = tr.span("dse", || autotune_with(self.workload, &self.opts, &eval))?;
        let stats = tr.span("sarad.stats", || engine.stats_json());

        let mut c = Counts::new();
        add(&mut c, "dse.points_explored", out.points_explored as f64);
        add(&mut c, "dse.sims_run", out.sims_run as f64);
        add(&mut c, "dse.infeasible_pruned", out.infeasible_pruned as f64);
        add(&mut c, "dse.rounds", out.rounds as f64);
        let counter = |doc: &Json, k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
        for (field, key) in ENGINE_COUNTERS {
            let before = self.stats.as_ref().map_or(0, |s| counter(s, field));
            add(&mut c, key, counter(&stats, field).saturating_sub(before) as f64);
        }
        if serve == Serve::Cold {
            add(&mut c, "sarad.store_bytes", counter(&stats, "store_bytes") as f64);
        }

        let best = out.best.simulated.ok_or("best point has no simulated cycles")?;
        let default = out.default_point.simulated.ok_or("default point has no simulated cycles")?;
        let key = out.best.knobs.key();
        let (checked, mismatches) = tr.span("verify", || match (serve, &self.best) {
            (Serve::Cold, _) => Ok((1u64, u64::from(best > default))),
            (_, Some((cold_key, cold_best))) => Ok((
                3,
                u64::from(best > default)
                    + u64::from(*cold_key != key)
                    + u64::from(*cold_best != best),
            )),
            (_, None) => Err("replay before a cold request"),
        })?;
        if serve == Serve::Cold {
            self.best = Some((key, best));
        }
        add(&mut c, "verify.elems", checked as f64);
        add(&mut c, "verify.mismatches", mismatches as f64);

        // The restart replay is the request's last use of its engines.
        self.engine = (serve != Serve::Restart).then_some(engine);
        self.stats = Some(stats);
        let pus = out.best.report.map_or(0, |r| r.total_pus());
        Ok(Done { cycles: best, pus, counts: c })
    }
}
