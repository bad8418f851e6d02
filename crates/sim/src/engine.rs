//! The simulation engine: builds runtime state from a compiled VUDFG and
//! advances it until the program completes (or deadlocks).
//!
//! [`simulate`] and [`simulate_system`] are two entry points over the one
//! engine. A multi-chip run differs from a single-chip one in exactly two
//! inputs: one DRAM controller per chip (each unit's requests go to its
//! own chip's; all controllers back one shared word image), and a link
//! regulator that slips packets on chip-crossing streams. A single chip
//! is one controller and no crossings.
//!
//! Two cycle-for-cycle equivalent schedulers are provided:
//!
//! * the **dense** reference loop steps every unit and ticks every DRAM
//!   controller on every cycle;
//! * the default **active-list** (wakeup-driven) loop steps a unit only
//!   when something it can observe changed — an input stream delivered a
//!   packet, an output stream freed capacity, a DRAM response arrived, or
//!   one of its own timers (AG run staleness) fired — ticks DRAM only on
//!   cycles with DRAM work, and fast-forwards the clock over cycles with
//!   no scheduled events.
//!
//! The equivalence rests on one invariant of the unit steppers: stepping
//! a unit whose observable state (its own state plus the dst-visible /
//! src-visible state of adjacent streams) has not changed since its last
//! step is a no-op. All stepper phases check availability before mutating
//! anything, so a blocked unit stays blocked and side-effect-free until
//! one of the wake conditions above occurs. Every step also leaves a
//! [`WaitSite`]: the counters its blocked unit waits on. One filter, the
//! same for every unit kind, drops a wake that finds none of them moved.

use crate::fault::{FaultPlan, Injector};
use crate::link::Links;
use crate::packet::PacketArena;
use crate::profile::Profiler;
use crate::sanitize::Sanitizer;
use crate::stream::StreamRt;
use crate::units::{
    AgRt, CollRt, CompleteKind, Ctx, DistRt, SyncRt, UKind, Units, VcuRt, VmuRt, WaitSite,
};
use crate::watchdog;
use plasticine_arch::{ChipSpec, SystemSpec};
use ramulator_lite::{DramError, DramModelCfg, DramSim, DramStats, Response};
use sara_core::profile::SimProfile;
use sara_core::robust::{InvariantKind, SanitizerReport, WatchdogReport};
use sara_core::shard::ShardPlan;
use sara_core::vudfg::{StreamKind, UnitKind, Vudfg};
use sara_ir::{Elem, MemId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Simulation limits, scheduler selection, and robustness options.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Hard cycle limit.
    pub max_cycles: u64,
    /// Cycles without any progress before declaring deadlock.
    pub deadlock_window: u64,
    /// Step every unit on every cycle (the reference scheduler) instead
    /// of the event-driven active list. Outcomes are bit-identical either
    /// way; the dense path exists for equivalence testing and debugging.
    pub dense: bool,
    /// Collect a [`SimProfile`] (per-VCU cycle attribution, per-stream
    /// backpressure, DRAM timeline) into [`SimOutcome::profile`]. The
    /// collector only observes, so cycle counts are bit-identical with
    /// profiling on or off.
    pub profile: bool,
    /// Deterministic fault plan to inject (see [`crate::fault`]). `None`
    /// (the default) constructs no injector at all: simulation is
    /// bit-identical to a build without the feature.
    pub faults: Option<FaultPlan>,
    /// Run the per-cycle invariant sanitizer (see [`crate::sanitize`]).
    /// A pure observer — cycle counts are bit-identical on or off; a
    /// violation aborts with [`SimError::Sanitizer`].
    pub sanitize: bool,
    /// Fault mode only: cycles an issued DRAM request may go unanswered
    /// before the AG reissues it.
    pub dram_retry_timeout: u64,
    /// Fault mode only: reissue budget per request before the AG gives up
    /// with [`SimError::Dram`].
    pub dram_max_retries: u32,
    /// Replace the chip's DRAM model configuration (latency/bandwidth
    /// stress tests, e.g. watchdog false-positive checks).
    pub dram_override: Option<DramModelCfg>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_cycles: 50_000_000,
            deadlock_window: 50_000,
            dense: false,
            profile: false,
            faults: None,
            sanitize: false,
            dram_retry_timeout: 10_000,
            dram_max_retries: 3,
            dram_override: None,
        }
    }
}

impl SimConfig {
    /// The reference dense-scheduler configuration.
    pub fn dense() -> Self {
        SimConfig { dense: true, ..SimConfig::default() }
    }

    /// Default configuration with profiling enabled.
    pub fn profiled() -> Self {
        SimConfig { profile: true, ..SimConfig::default() }
    }

    /// Default configuration with the invariant sanitizer enabled.
    pub fn sanitized() -> Self {
        SimConfig { sanitize: true, ..SimConfig::default() }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No unit made progress for the configured window. `report` is the
    /// watchdog's structured wait-for diagnosis; `diagnostic` its
    /// human-readable rendering plus legacy stall/backpressure detail.
    Deadlock { cycle: u64, diagnostic: String, report: Box<WatchdogReport> },
    /// The cycle limit was reached.
    Timeout { cycle: u64 },
    /// A unit detected an inconsistency (address out of range, stream
    /// width mismatch, ...). Always indicates a compiler or model bug.
    Fault { cycle: u64, unit: String, message: String },
    /// The invariant sanitizer found a protocol violation.
    Sanitizer(Box<SanitizerReport>),
    /// A DRAM request exhausted its retry budget (fault mode), or the
    /// model surfaced a typed error.
    Dram { cycle: u64, unit: String, error: DramError },
    /// The configuration is invalid (e.g. a fault plan targeting a
    /// nonexistent stream or a non-VCU stall target).
    Config { message: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, diagnostic, .. } => {
                write!(f, "deadlock at cycle {cycle}:\n{diagnostic}")
            }
            SimError::Timeout { cycle } => write!(f, "timeout at cycle {cycle}"),
            SimError::Fault { cycle, unit, message } => {
                write!(f, "fault at cycle {cycle} in {unit}: {message}")
            }
            SimError::Sanitizer(r) => write!(f, "{r}"),
            SimError::Dram { cycle, unit, error } => {
                write!(f, "dram error at cycle {cycle} in {unit}: {error}")
            }
            SimError::Config { message } => write!(f, "invalid sim config: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate statistics.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Total VCU firings.
    pub firings: u64,
    /// Firings per unit label.
    pub unit_firings: HashMap<String, u64>,
    /// DRAM model statistics.
    pub dram: DramStats,
}

/// Outcome of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Total cycles to completion.
    pub cycles: u64,
    /// Final contents of each DRAM tensor.
    pub dram_final: HashMap<MemId, Vec<Elem>>,
    /// Statistics.
    pub stats: SimStats,
    /// Observability record, present iff [`SimConfig::profile`] was set.
    pub profile: Option<SimProfile>,
}

impl SimOutcome {
    /// Final contents of a DRAM tensor as `f64`s.
    ///
    /// Returns an empty vector for a memory the program never mapped to
    /// DRAM (rather than panicking on the missing key).
    pub fn dram_f64(&self, mem: MemId) -> Vec<f64> {
        self.dram_final.get(&mem).map_or_else(Vec::new, |v| v.iter().map(|e| e.as_f64()).collect())
    }

    /// Final contents of a DRAM tensor as `i64`s.
    ///
    /// Returns an empty vector for a memory the program never mapped to
    /// DRAM (rather than panicking on the missing key).
    pub fn dram_i64(&self, mem: MemId) -> Vec<i64> {
        self.dram_final.get(&mem).map_or_else(Vec::new, |v| v.iter().map(|e| e.as_i64()).collect())
    }
}

/// The DRAM controllers of a run: one per chip, each unit's requests
/// going to its own chip's controller.
struct Drams {
    sims: Vec<DramSim>,
    /// Chip of every unit.
    chip_of: Vec<u32>,
}

impl Drams {
    fn new(chip: &ChipSpec, count: u32, chip_of: Vec<u32>, cfg: &SimConfig) -> Drams {
        let sims = (0..count.max(1))
            .map(|_| match &cfg.dram_override {
                Some(c) => DramSim::with_cfg(c.clone()),
                None => DramSim::new(chip.dram),
            })
            .collect();
        Drams { sims, chip_of }
    }

    /// The controller serving unit `i`.
    #[inline]
    fn of(&mut self, i: usize) -> &mut DramSim {
        &mut self.sims[self.chip_of[i] as usize]
    }

    fn busy(&self) -> bool {
        self.sims.iter().any(DramSim::busy)
    }

    fn has_queued(&self) -> bool {
        self.sims.iter().any(DramSim::has_queued)
    }

    fn next_completion_time(&self) -> Option<u64> {
        self.sims.iter().filter_map(DramSim::next_completion_time).min()
    }

    /// Tick every controller, appending responses in chip order.
    fn tick(&mut self, now: u64, out: &mut Vec<Response>) {
        for d in &mut self.sims {
            d.tick(now, out);
        }
    }

    /// Statistics summed over the controllers.
    fn stats(&self) -> DramStats {
        self.sims.iter().map(DramSim::stats).fold(DramStats::default(), |a, s| DramStats {
            read_bytes: a.read_bytes + s.read_bytes,
            write_bytes: a.write_bytes + s.write_bytes,
            requests: a.requests + s.requests,
            row_hits: a.row_hits + s.row_hits,
            row_misses: a.row_misses + s.row_misses,
        })
    }
}

/// Robustness-layer state threaded through the schedulers: the fault
/// injector, the sanitizer, and AG retry budgets. All `None`/inert by
/// default, in which case every hook below compiles down to a skipped
/// branch and the simulation is bit-identical to the pre-robustness
/// engine.
struct Robust {
    inj: Option<Injector>,
    san: Option<Sanitizer>,
    retry_timeout: u64,
    max_retries: u32,
}

impl Robust {
    /// Run end-of-cycle invariant checks (sanitize mode).
    fn sanitize_cycle(
        &mut self,
        now: u64,
        streams: &[StreamRt],
        units: &Units,
        drams: &Drams,
    ) -> Result<(), SimError> {
        // Mirror injected-fault events into the report ring first so a
        // violation report names its own cause.
        if let (Some(inj), Some(san)) = (self.inj.as_mut(), self.san.as_mut()) {
            for (cycle, what) in inj.applied.drain(..) {
                san.record(cycle, what);
            }
        }
        let Some(san) = self.san.as_mut() else { return Ok(()) };
        san.check_streams(now, streams).map_err(SimError::Sanitizer)?;
        // The SoA vectors are filled in unit-index order, so this matches
        // the old per-unit scan exactly.
        for v in &units.vmus {
            san.check_vmu(now, v).map_err(SimError::Sanitizer)?;
        }
        for d in &drams.sims {
            san.check_dram(now, d).map_err(SimError::Sanitizer)?;
        }
        Ok(())
    }

    /// Fault mode: reissue overdue DRAM requests, each to its AG's own
    /// chip's controller; typed error when a run exhausts its budget.
    /// Returns the number of reissues (progress).
    fn poll_ag_retries(
        &mut self,
        now: u64,
        units: &mut Units,
        drams: &mut Drams,
    ) -> Result<u64, SimError> {
        if self.inj.is_none() {
            return Ok(0);
        }
        let mut reissued = 0u64;
        for a in units.ags.iter_mut() {
            let dram = drams.of(a.unit_index);
            match a.poll_retries(now, dram, self.retry_timeout, self.max_retries) {
                Ok(tags) => {
                    for (tag, nth) in tags {
                        reissued += 1;
                        if let Some(san) = self.san.as_mut() {
                            san.record(now, format!("retry #{nth} reissued request {tag:#x}"));
                        }
                    }
                }
                Err(error) => {
                    return Err(SimError::Dram { cycle: now, unit: a.label.clone(), error });
                }
            }
        }
        Ok(reissued)
    }

    /// Earliest future cycle the retry poller must run at (fault mode).
    fn next_retry_deadline(&self, units: &Units) -> Option<u64> {
        self.inj.as_ref()?;
        units.ags.iter().filter_map(|a| a.next_retry_deadline(self.retry_timeout)).min()
    }
}

/// Build the deadlock error: run the watchdog's wait-for analysis and
/// append its rendering to the legacy stall/backpressure diagnostic.
fn deadlock_error(
    g: &Vudfg,
    units: &Units,
    streams: &[StreamRt],
    cycle: u64,
    stalled_for: u64,
) -> SimError {
    let report = watchdog::diagnose_waitfor(g, units, streams, cycle, stalled_for);
    let diagnostic = diagnose(units, streams) + &diagnose_streams(g, streams) + &report.to_string();
    SimError::Deadlock { cycle, diagnostic, report: Box::new(report) }
}

/// Runtime stream state, one per stream spec (token streams start with
/// their initial CMMC credits queued).
fn build_streams(g: &Vudfg) -> Vec<StreamRt> {
    g.streams
        .iter()
        .map(|s| {
            let init = match s.kind {
                StreamKind::Token { init } => init,
                _ => 0,
            };
            StreamRt::new(s.latency, s.depth, init)
        })
        .collect()
}

/// The flat DRAM word image, with every tensor's init copied in at its
/// base address.
fn build_image(g: &Vudfg) -> Vec<Elem> {
    let total_words = g.drams.iter().map(|d| (d.base / 4) as usize + d.words).max().unwrap_or(0);
    let mut image: Vec<Elem> = vec![Elem::F64(0.0); total_words];
    for d in &g.drams {
        let b = (d.base / 4) as usize;
        image[b..b + d.words].copy_from_slice(&d.init);
    }
    image
}

/// Runtime unit state (struct-of-arrays: a tag vector plus dense
/// per-kind vectors, each filled in unit-index order).
fn build_units(g: &Vudfg) -> Units {
    let mut units = Units::default();
    for (i, u) in g.units.iter().enumerate() {
        let tag = match &u.kind {
            UnitKind::Vcu(v) => {
                units.vcus.push(VcuRt::new(
                    v.clone(),
                    u.inputs.clone(),
                    u.outputs.clone(),
                    u.label.clone(),
                ));
                UKind::Vcu(units.vcus.len() as u32 - 1)
            }
            UnitKind::Vmu(v) => {
                units.vmus.push(VmuRt::new(
                    v.clone(),
                    u.inputs.clone(),
                    u.outputs.clone(),
                    u.label.clone(),
                ));
                UKind::Vmu(units.vmus.len() as u32 - 1)
            }
            UnitKind::Ag(a) => {
                units.ags.push(AgRt::new(
                    a.clone(),
                    u.inputs.clone(),
                    u.outputs.clone(),
                    u.label.clone(),
                    i,
                ));
                UKind::Ag(units.ags.len() as u32 - 1)
            }
            UnitKind::Sync(s) => {
                units.syncs.push(SyncRt {
                    spec: s.clone(),
                    inputs: u.inputs.clone(),
                    outputs: u.outputs.clone(),
                    fired: 0,
                });
                UKind::Sync(units.syncs.len() as u32 - 1)
            }
            UnitKind::XbarDist(d) => {
                units.dists.push(DistRt::new(d.clone(), u.inputs.clone(), u.outputs.clone()));
                UKind::Dist(units.dists.len() as u32 - 1)
            }
            UnitKind::XbarColl(c) => {
                units.colls.push(CollRt::new(c.clone(), u.inputs.clone(), u.outputs.clone()));
                UKind::Coll(units.colls.len() as u32 - 1)
            }
        };
        units.kind.push(tag);
    }
    units
}

/// Streams that must drain before the program can be considered
/// finished: anything feeding a passive unit (VMU, AG, crossbar, sync).
/// Streams into compute units may retain trailing epoch markers or
/// unused credits after the consumer completes; token streams retain
/// their initial credits.
fn build_must_drain(g: &Vudfg) -> Vec<bool> {
    g.streams
        .iter()
        .map(|s| {
            let token = matches!(s.kind, StreamKind::Token { .. });
            let dst_vcu = matches!(g.unit(s.dst).kind, UnitKind::Vcu(_));
            !token && !dst_vcu
        })
        .collect()
}

/// Final outcome assembly: per-tensor DRAM slices plus aggregate
/// statistics.
fn collect_outcome(
    g: &Vudfg,
    now: u64,
    image: &[Elem],
    units: &Units,
    dram_stats: DramStats,
    profile: Option<SimProfile>,
) -> SimOutcome {
    let mut dram_final = HashMap::new();
    for d in &g.drams {
        let b = (d.base / 4) as usize;
        dram_final.insert(d.mem, image[b..b + d.words].to_vec());
    }
    let mut stats = SimStats { dram: dram_stats, ..SimStats::default() };
    for v in &units.vcus {
        stats.firings += v.firings;
        stats.unit_firings.insert(v.label.clone(), v.firings);
    }
    SimOutcome { cycles: now, dram_final, stats, profile }
}

/// Simulate a compiled (and ideally placed-and-routed) VUDFG.
///
/// # Errors
///
/// Deadlock, timeout, or a unit fault (see [`SimError`]).
pub fn simulate(g: &Vudfg, chip: &ChipSpec, cfg: &SimConfig) -> Result<SimOutcome, SimError> {
    run(g, cfg, Drams::new(chip, 1, vec![0; g.units.len()], cfg), None)
}

/// Simulate a compiled, system-placed VUDFG on every chip of `system`
/// under one global clock.
///
/// `plan` is the shard plan `sara-pnr`'s system placement produced for
/// this graph: it assigns every unit a chip (and so a DRAM controller)
/// and lists the crossing streams, which contend for inter-chip link
/// bandwidth. A 1-chip system is one controller and no crossings,
/// bit-identical to [`simulate`].
///
/// # Errors
///
/// [`SimError::Config`] when the plan does not cover the graph or names
/// a chip outside the system; otherwise as [`simulate`].
pub fn simulate_system(
    g: &Vudfg,
    system: &SystemSpec,
    plan: &ShardPlan,
    cfg: &SimConfig,
) -> Result<SimOutcome, SimError> {
    if plan.chip_of.len() != g.units.len() {
        return Err(SimError::Config {
            message: format!(
                "shard plan covers {} units but the graph has {}",
                plan.chip_of.len(),
                g.units.len()
            ),
        });
    }
    if let Some(&c) = plan.chip_of.iter().find(|&&c| c >= system.count.max(1)) {
        return Err(SimError::Config {
            message: format!(
                "shard plan places a unit on chip {c} of a {}-chip system",
                system.count
            ),
        });
    }
    let drams = Drams::new(&system.chip, system.count, plan.chip_of.clone(), cfg);
    run(g, cfg, drams, Links::new(g, system, plan))
}

/// Build the runtime state and drive the configured scheduler to
/// completion.
fn run(
    g: &Vudfg,
    cfg: &SimConfig,
    mut drams: Drams,
    mut links: Option<Links>,
) -> Result<SimOutcome, SimError> {
    let mut streams = build_streams(g);
    let mut image = build_image(g);
    let mut units = build_units(g);

    // ---- packet arena (payload storage for every in-flight packet) ----
    let mut arena = PacketArena::new();

    let must_drain = build_must_drain(g);

    // ---- robustness layer ----
    let inj = match cfg.faults.as_ref() {
        Some(plan) => {
            let mut inj = Injector::new(plan, g).map_err(|message| SimError::Config { message })?;
            inj.prime(&streams);
            Some(inj)
        }
        None => None,
    };
    let san = cfg.sanitize.then(|| Sanitizer::new(g));
    let mut robust = Robust {
        inj,
        san,
        retry_timeout: cfg.dram_retry_timeout,
        max_retries: cfg.dram_max_retries,
    };

    // ---- main loop ----
    let mut prof = cfg.profile.then(|| Profiler::new(g, &streams));
    let run_loop = if cfg.dense { run_dense } else { run_active };
    let now = run_loop(
        g,
        cfg,
        &mut streams,
        &mut units,
        &mut arena,
        &mut drams,
        &mut links,
        &mut image,
        &must_drain,
        &mut prof,
        &mut robust,
    )?;
    let profile = prof.map(|p| p.finish(now, &streams));
    Ok(collect_outcome(g, now, &image, &units, drams.stats(), profile))
}

/// Step one unit, leaving its wait site in `site`; on stepper error,
/// wrap into a [`SimError::Fault`].
#[allow(clippy::too_many_arguments)]
fn step_unit(
    units: &mut Units,
    i: usize,
    now: u64,
    streams: &mut [StreamRt],
    arena: &mut PacketArena,
    progress: &mut u64,
    site: &mut WaitSite,
    dram: &mut DramSim,
    image: &mut [Elem],
) -> Result<(), SimError> {
    let mut ctx = Ctx { now, streams, arena, progress, site };
    units.step(i, &mut ctx, dram, image).map_err(|message| SimError::Fault {
        cycle: now,
        unit: units.fault_label(i),
        message,
    })
}

/// Route one DRAM response to its AG. Returns `true` when it matched an
/// outstanding run (progress; the unit should be woken). Duplicates from
/// the retry path are absorbed; an unknown response is a sanitizer
/// violation when sanitizing, silently dropped otherwise (pre-existing
/// behavior).
fn deliver_response(
    now: u64,
    r: &Response,
    units: &mut Units,
    robust: &mut Robust,
    progress: &mut u64,
) -> Result<bool, SimError> {
    let ui = (r.id >> 32) as usize;
    match units.ag_mut(ui) {
        Some(a) => match a.complete(r.id) {
            CompleteKind::Matched => {
                *progress += 1;
                Ok(true)
            }
            CompleteKind::Duplicate => {
                if let Some(san) = robust.san.as_mut() {
                    san.record(now, format!("duplicate response {:#x} absorbed", r.id));
                }
                Ok(false)
            }
            CompleteKind::Unknown => {
                if let Some(san) = robust.san.as_ref() {
                    return Err(SimError::Sanitizer(san.report(
                        now,
                        InvariantKind::DramResponseMismatch,
                        None,
                        a.label.clone(),
                        format!("response {:#x} matches no outstanding run", r.id),
                    )));
                }
                Ok(false)
            }
        },
        None => {
            if let Some(san) = robust.san.as_ref() {
                return Err(SimError::Sanitizer(san.report(
                    now,
                    InvariantKind::DramResponseMismatch,
                    None,
                    format!("unit {ui}"),
                    format!("response {:#x} addresses no AG", r.id),
                )));
            }
            Ok(false)
        }
    }
}

/// Completion test: all compute done, all AGs drained, every DRAM
/// controller idle, and every must-drain stream empty (up to trailing
/// markers).
fn finished(units: &Units, drams: &Drams, streams: &[StreamRt], must_drain: &[bool]) -> bool {
    let all_done = units.vcus.iter().all(|v| v.done) && units.ags.iter().all(|a| a.idle());
    all_done && !drams.busy() && streams.iter().zip(must_drain).all(|(s, d)| !*d || s.is_drained())
}

/// Reference scheduler: tick every stream and step every unit, every
/// cycle. Returns the completion cycle.
#[allow(clippy::too_many_arguments)]
fn run_dense(
    g: &Vudfg,
    cfg: &SimConfig,
    streams: &mut [StreamRt],
    units: &mut Units,
    arena: &mut PacketArena,
    drams: &mut Drams,
    links: &mut Option<Links>,
    image: &mut [Elem],
    must_drain: &[bool],
    prof: &mut Option<Profiler>,
    robust: &mut Robust,
) -> Result<u64, SimError> {
    let n = units.len();
    let mut now: u64 = 0;
    let mut last_progress_cycle: u64 = 0;
    let mut responses = Vec::new();
    // Every unit steps every cycle, so wait sites go unread.
    let mut site = WaitSite::default();
    loop {
        now += 1;
        if now > cfg.max_cycles {
            return Err(SimError::Timeout { cycle: now });
        }
        if let Some(inj) = robust.inj.as_mut() {
            inj.begin_cycle(now, streams, arena);
        }
        for s in streams.iter_mut() {
            s.tick(now);
        }
        let mut progress: u64 = 0;
        for i in 0..n {
            if let Some(inj) = robust.inj.as_ref() {
                // A stall fault freezes the unit: not stepped at all.
                if inj.unit_stalled(i, now).is_some() {
                    continue;
                }
            }
            let before = progress;
            step_unit(units, i, now, streams, arena, &mut progress, &mut site, drams.of(i), image)?;
            if let Some(l) = links.as_mut() {
                // Every unit steps every cycle, so slip wakes are moot.
                l.after_step(i, now, streams, |_, _| {});
            }
            if let Some(p) = prof.as_mut() {
                if let UKind::Vcu(k) = units.kind[i] {
                    p.observe_vcu(i, now, &units.vcus[k as usize], progress > before);
                }
                p.observe_unit_streams(i, now, streams);
            }
        }
        progress += robust.poll_ag_retries(now, units, drams)?;
        responses.clear();
        drams.tick(now, &mut responses);
        if let Some(p) = prof.as_mut() {
            p.observe_dram(now, drams.stats());
        }
        if let Some(inj) = robust.inj.as_mut() {
            inj.filter_responses(now, &mut responses);
            responses.extend(inj.due_responses(now));
        }
        for r in &responses {
            deliver_response(now, r, units, robust, &mut progress)?;
        }
        if let Some(inj) = robust.inj.as_mut() {
            inj.end_cycle(now, streams, arena);
        }
        robust.sanitize_cycle(now, streams, units, drams)?;
        if progress > 0 {
            last_progress_cycle = now;
        }
        if finished(units, drams, streams, must_drain) {
            return Ok(now);
        }
        if now - last_progress_cycle > cfg.deadlock_window {
            // Slow-but-live is not deadlock: outstanding DRAM work always
            // completes (bumping progress), pending fault-plan state still
            // mutates the simulation, and an armed retry will fire. Only
            // when none of those can move does the watchdog declare.
            let live = drams.busy()
                || robust.inj.as_ref().map(|i| i.pending(now)).unwrap_or(false)
                || robust.next_retry_deadline(units).is_some();
            if !live {
                return Err(deadlock_error(g, units, streams, now, now - last_progress_cycle));
            }
        }
    }
}

/// Calendar-wheel event queue for (cycle, unit) wake events.
///
/// Nearly every wake the active scheduler schedules lands within a few
/// cycles (`now + 1` self/pop wakes, `now + latency` deliveries), so a
/// ring of per-cycle buckets with a non-empty bitmask turns the event
/// queue's push/pop from `O(log n)` heap operations into `O(1)` bucket
/// appends and a `trailing_zeros`. The rare far-out wake (AG staleness
/// flush, fault thaw) overflows into a heap and migrates into the ring
/// as the window advances. Duplicate entries are tolerated, exactly like
/// the `BinaryHeap` this replaces: draining one merely sets an `active`
/// flag.
struct EventWheel {
    /// Buckets cover cycles `[base, base + WHEEL)`; no event older than
    /// `base` may remain scheduled (the main loop always processes the
    /// earliest event first, which maintains this).
    base: u64,
    /// Bit `t % WHEEL` set iff the bucket for cycle `t` is non-empty.
    mask: u64,
    buckets: Vec<Vec<u32>>,
    /// Events at `>= base + WHEEL`, earliest first.
    far: BinaryHeap<Reverse<(u64, u32)>>,
}

/// Wheel horizon; must stay 64 so `mask` is a single word.
const WHEEL: u64 = 64;

impl EventWheel {
    fn new() -> Self {
        EventWheel {
            base: 0,
            mask: 0,
            buckets: (0..WHEEL).map(|_| Vec::new()).collect(),
            far: BinaryHeap::new(),
        }
    }

    #[inline]
    fn push(&mut self, t: u64, u: usize) {
        debug_assert!(t >= self.base);
        if t < self.base + WHEEL {
            let slot = (t % WHEEL) as usize;
            self.buckets[slot].push(u as u32);
            self.mask |= 1 << slot;
        } else {
            self.far.push(Reverse((t, u as u32)));
        }
    }

    /// Earliest scheduled wake cycle, if any.
    #[inline]
    fn next_time(&self) -> Option<u64> {
        let near = if self.mask != 0 {
            let rot = self.mask.rotate_right((self.base % WHEEL) as u32);
            Some(self.base + rot.trailing_zeros() as u64)
        } else {
            None
        };
        match (near, self.far.peek().map(|&Reverse((t, _))| t)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Slide the window to `now` (callers guarantee nothing earlier is
    /// still scheduled) and pull far events that now fall inside it.
    fn advance(&mut self, now: u64) {
        debug_assert!(self.next_time().is_none_or(|t| t >= now));
        self.base = now;
        while let Some(&Reverse((t, u))) = self.far.peek() {
            if t >= now + WHEEL {
                break;
            }
            self.far.pop();
            let slot = (t % WHEEL) as usize;
            self.buckets[slot].push(u);
            self.mask |= 1 << slot;
        }
    }

    /// Collect every unit waking at cycle `now` into `alist` (deduped via
    /// the `active` flags). Requires a prior `advance(now)` so far events
    /// for `now` have migrated in.
    fn drain_now(&mut self, now: u64, active: &mut [bool], alist: &mut Vec<u32>) {
        let slot = (now % WHEEL) as usize;
        if self.mask & (1 << slot) != 0 {
            self.mask &= !(1 << slot);
            for &u in &self.buckets[slot] {
                if !active[u as usize] {
                    active[u as usize] = true;
                    alist.push(u);
                }
            }
            self.buckets[slot].clear();
        }
    }
}

/// Schedule AG `i`'s staleness-flush probe for the open run's `deadline`
/// (at the earliest next cycle). With `dedup`, one live probe per AG is
/// kept in `armed`, and a later deadline waits for that probe to fire.
fn arm_flush(
    events: &mut EventWheel,
    armed: &mut u64,
    i: usize,
    deadline: u64,
    now: u64,
    dedup: bool,
) {
    let t = deadline.max(now + 1);
    if !dedup || *armed <= now || *armed > t {
        events.push(t, i);
        *armed = t;
    }
}

/// The earlier of two optional cycles.
#[inline]
fn earliest(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// Wakeup-driven scheduler, cycle-for-cycle equivalent to [`run_dense`].
///
/// A unit is stepped at cycle `t` iff an event targets it at `t` and its
/// wait site lets it act:
///
/// * **delivery** — a packet pushed to one of its input streams arrives
///   (push time + stream latency);
/// * **capacity** — one of its output streams was popped. The dense loop
///   steps units in index order, so a pop by a lower-indexed consumer is
///   visible to the producer the *same* cycle while a pop by a
///   higher-indexed one is visible the *next* cycle — the wake targets
///   the matching cycle;
/// * **self** — its previous step changed anything without ending
///   blocked (it may be able to do more next cycle, e.g. a VMU serving
///   one port op per cycle);
/// * **DRAM** — a response for one of its requests retired, or its
///   coalescing run hits the staleness deadline;
/// * **link slip** — a packet pushed onto an inter-chip crossing had to
///   wait for link bandwidth: the consumer also wakes at the packet's
///   slipped delivery cycle (its `now + latency` wake is then dropped as
///   a no-op);
/// * **start** — every unit is stepped at cycle 1 (init tokens).
///
/// The wait-site filter is the same for every unit kind: a unit whose
/// last step ended blocked ([`WaitSite`]) is stepped only when a counter
/// it waits on moved since, or its deadline came. Any other wake would
/// step it for nothing and is dropped, and a blocked unit gets no
/// self-wake. Done VCUs get no wakes at all.
///
/// DRAM controllers tick only on cycles with DRAM work: a queued request
/// (from an AG step or a retry) or a completion due. A tick with empty
/// queues before the next completion changes nothing.
///
/// When no event targets the current cycle the clock fast-forwards to the
/// next event (bounded by the deadlock deadline and the cycle limit), and
/// streams are ticked lazily just before their consumer steps.
#[allow(clippy::too_many_arguments)]
fn run_active(
    g: &Vudfg,
    cfg: &SimConfig,
    streams: &mut [StreamRt],
    units: &mut Units,
    arena: &mut PacketArena,
    drams: &mut Drams,
    links: &mut Option<Links>,
    image: &mut [Elem],
    must_drain: &[bool],
    prof: &mut Option<Profiler>,
    robust: &mut Robust,
) -> Result<u64, SimError> {
    let n = units.len();
    if n == 0 {
        // Degenerate graph: the dense loop completes (or deadlocks) on
        // cycle 1 with nothing to step.
        return if finished(units, drams, streams, must_drain) {
            Ok(1)
        } else {
            Err(deadlock_error(g, units, streams, cfg.deadlock_window + 1, cfg.deadlock_window + 1))
        };
    }

    // Static adjacency: per-unit input/output stream indices, per-stream
    // endpoints and latency.
    let unit_inputs: Vec<Vec<usize>> =
        g.units.iter().map(|u| u.inputs.iter().map(|s| s.index()).collect()).collect();
    let unit_outputs: Vec<Vec<usize>> = g
        .units
        .iter()
        .map(|u| u.outputs.iter().flat_map(|p| p.streams.iter().map(|s| s.index())).collect())
        .collect();
    let src_of: Vec<usize> = g.streams.iter().map(|s| s.src.index()).collect();
    let dst_of: Vec<usize> = g.streams.iter().map(|s| s.dst.index()).collect();
    let lat_of: Vec<u64> = streams.iter().map(|s| s.latency()).collect();

    // The shortcuts that drop wakes (the wait-site filter, the
    // blocked-unit self-wake suppression and the flush-probe dedup) only
    // skip steps that would change nothing. That holds while nothing
    // outside the steppers mutates the run: a fault injector does, and
    // the sanitizer audits it, so either turns them off. The profiler
    // only observes and keeps them.
    let unobserved = robust.inj.is_none() && robust.san.is_none();

    // Future wake events (cycle, unit). Duplicate entries are tolerated:
    // draining one merely sets an `active` flag.
    let mut events = EventWheel::new();
    // Cycle-1 start events for every unit, bucketed in one reservation.
    events.buckets[1].extend(0..n as u32);
    events.mask |= 1 << 1;
    // Units to step in the cycle being processed (scanned in index order;
    // same-cycle wakes may only target not-yet-scanned higher indices).
    let mut active = vec![false; n];
    // This round's wake list (indices into `units`), sorted before the
    // stepping pass; same-cycle wakes insert into the unprocessed tail.
    let mut alist: Vec<u32> = Vec::with_capacity(n);
    // What each unit's last step left it waiting for.
    let mut sites = vec![WaitSite::default(); n];
    // Pending staleness-flush probe per AG (dedup: one live probe at a
    // time; a probe that steps the AG or is dropped by the filter re-arms
    // the run's deadline).
    let mut flush_evt = vec![0u64; n];
    // VCUs not yet done — an O(1) guard in front of the full
    // `finished()` scan, which otherwise walks every unit and stream on
    // every processed round.
    let mut undone = units.vcus.iter().filter(|v| !v.done).count();
    // Next DRAM completion over every controller, valid after every tick.
    let mut dram_next: Option<u64> = None;

    // Last observed per-stream push/free counters, for post-step wake
    // inference. A stream's `pushed` only changes during its producer's
    // step and its `freed` only during its consumer's step, and both
    // endpoints' streams are compared (and re-synced) right after every
    // step — so outside a step these always equal the live counters, and
    // a difference after a step identifies exactly the streams that step
    // touched. Global arrays instead of per-step snapshots: no per-step
    // clear/fill churn.
    let mut seen_pushed: Vec<u64> = streams.iter().map(|s| s.pushed).collect();
    let mut seen_freed: Vec<u64> = streams.iter().map(|s| s.freed).collect();

    // The cycle processed last (0 before the first round).
    let mut now: u64 = 0;
    let mut last_progress_cycle: u64 = 0;
    let mut responses: Vec<Response> = Vec::new();

    loop {
        // ---- pick the next cycle with any event ----
        let mut target = earliest(events.next_time(), dram_next);
        let (mut inj_next, mut retry_next) = (None, None);
        if let Some(inj) = robust.inj.as_ref() {
            inj_next = inj.next_cycle(now);
            retry_next = robust.next_retry_deadline(units);
            target = earliest(target, earliest(inj_next, retry_next));
        }
        // The dense loop keeps ticking through event-free cycles, so it
        // reaches the no-progress deadline (or the cycle limit) even when
        // nothing is scheduled; reproduce both outcomes exactly.
        let deadline = last_progress_cycle + cfg.deadlock_window + 1;
        let target = target.unwrap_or(deadline);
        if target > deadline {
            // Slow-but-live is not deadlock: an outstanding DRAM
            // completion, a pending fault-plan mutation, or an armed retry
            // past the deadline means the fabric can still move — jump to
            // it instead of declaring (the dense loop defers identically
            // via its `dram.busy()` guard).
            let live = dram_next.is_some() || inj_next.is_some() || retry_next.is_some();
            if !live {
                return if deadline > cfg.max_cycles {
                    Err(SimError::Timeout { cycle: cfg.max_cycles + 1 })
                } else {
                    Err(deadlock_error(g, units, streams, deadline, deadline - last_progress_cycle))
                };
            }
        }
        if target > cfg.max_cycles {
            return Err(SimError::Timeout { cycle: cfg.max_cycles + 1 });
        }
        now = target;

        // ---- apply cycle-armed faults (credit leak/steal) ----
        if let Some(inj) = robust.inj.as_mut() {
            for s in inj.begin_cycle(now, streams, arena) {
                // A mutated token edge is observable at both endpoints.
                for u in [dst_of[s], src_of[s]] {
                    if !active[u] {
                        active[u] = true;
                        alist.push(u as u32);
                    }
                }
            }
        }

        // ---- collect this cycle's active set ----
        events.advance(now);
        events.drain_now(now, &mut active, &mut alist);

        // ---- step active units in index order ----
        let mut progress: u64 = 0;
        alist.sort_unstable();
        let mut pos = 0;
        while pos < alist.len() {
            let i = alist[pos] as usize;
            pos += 1;
            active[i] = false;
            if let Some(inj) = robust.inj.as_ref() {
                // A stall fault freezes the unit; re-arm its wake for the
                // thaw cycle so no wakeup is lost.
                if let Some(thaw) = inj.unit_stalled(i, now) {
                    events.push(thaw, i);
                    continue;
                }
            }
            // Wait-site filter: a blocked unit stays blocked until a
            // counter it waits on moves, so a wake that finds none moved
            // would step it for nothing. A dropped wake may be the AG's
            // staleness probe for an earlier deadline: re-arm the run's
            // current one, or the run is never flushed.
            if unobserved
                && !sites[i].may_act(now, streams, || units.ag(i).map_or(0, |a| a.responses))
            {
                if let Some(t) = sites[i].deadline {
                    arm_flush(&mut events, &mut flush_evt[i], i, t, now, true);
                }
                continue;
            }

            // Lazy delivery: packets whose arrival time has passed become
            // visible exactly as the dense loop's global tick would make
            // them (ticking does not affect capacity, so producers never
            // need their output streams ticked).
            for &s in &unit_inputs[i] {
                streams[s].tick(now);
            }
            let progress_before = progress;
            let was_done = matches!(units.kind[i], UKind::Vcu(k) if units.vcus[k as usize].done);

            step_unit(
                units,
                i,
                now,
                streams,
                arena,
                &mut progress,
                &mut sites[i],
                drams.of(i),
                image,
            )?;
            // A done VCU's step is unconditionally a no-op (`done` is
            // sticky), so no wake targets one.
            let done = |units: &Units, u: usize| units.vcu(u).is_some_and(|v| v.done);
            if let Some(l) = links.as_mut() {
                l.after_step(i, now, streams, |t, s| {
                    let dst = dst_of[s];
                    if !done(units, dst) {
                        events.push(t, dst);
                    }
                });
            }

            if let Some(p) = prof.as_mut() {
                if let UKind::Vcu(k) = units.kind[i] {
                    p.observe_vcu(i, now, &units.vcus[k as usize], progress > progress_before);
                }
                p.observe_unit_streams(i, now, streams);
            }
            if !was_done && done(units, i) {
                undone -= 1;
            }

            let mut changed = progress > progress_before;
            // Pushes on output streams wake the consumer at delivery time.
            for &s in &unit_outputs[i] {
                if streams[s].pushed != seen_pushed[s] {
                    seen_pushed[s] = streams[s].pushed;
                    changed = true;
                    let dst = dst_of[s];
                    if !done(units, dst) {
                        events.push(now + lat_of[s], dst);
                    }
                }
            }
            // Pops on input streams free capacity for the producer
            // (`freed` counts pops plus marker skips, exactly the
            // capacity-releasing actions).
            for &s in &unit_inputs[i] {
                if streams[s].pushed != seen_pushed[s] {
                    // Self-loop push (defensive; VUDFGs are bipartite).
                    seen_pushed[s] = streams[s].pushed;
                    changed = true;
                    events.push(now + lat_of[s], dst_of[s]);
                }
                if streams[s].freed != seen_freed[s] {
                    seen_freed[s] = streams[s].freed;
                    changed = true;
                    let src = src_of[s];
                    if !done(units, src) {
                        if src > i {
                            // Same-cycle wake: insert into the unprocessed
                            // tail of the wake list, keeping it sorted.
                            if !active[src] {
                                active[src] = true;
                                let at =
                                    pos + alist[pos..].partition_point(|&x| (x as usize) < src);
                                alist.insert(at, src as u32);
                            }
                        } else {
                            events.push(now + 1, src);
                        }
                    }
                }
            }
            // Queue-full retry: the post-step DRAM tick always drains the
            // request queue, so the next cycle can issue.
            if let UKind::Ag(k) = units.kind[i] {
                if units.ags[k as usize].wants_issue() {
                    events.push(now + 1, i);
                }
            }
            // The staleness flush is evaluated inside the step, so the
            // unit must be stepped when the run's deadline passes.
            if let Some(t) = sites[i].deadline {
                arm_flush(&mut events, &mut flush_evt[i], i, t, now, unobserved);
            }
            // A blocked unit's self-wake would be dropped by the filter
            // (whatever unblocks it schedules its own wake).
            if changed && !done(units, i) && !(unobserved && sites[i].blocked) {
                events.push(now + 1, i);
            }
        }
        alist.clear();

        // ---- end-of-cycle packet faults ----
        if let Some(inj) = robust.inj.as_mut() {
            let wakes = inj.end_cycle(now, streams, arena);
            for s in wakes.streams {
                // Dropped/corrupted packets change what both endpoints
                // can observe next cycle (capacity freed, payload
                // changed); spurious wakes are harmless no-ops.
                events.push(now + 1, src_of[s]);
                events.push(now + 1, dst_of[s]);
            }
            for (t, s) in wakes.deliveries {
                events.push(t.max(now + 1), dst_of[s]);
            }
            // ---- AG retry recovery ----
            progress += robust.poll_ag_retries(now, units, drams)?;
        }

        // ---- DRAM ----
        // Requests are only queued during unit steps and retry polls, and
        // a tick schedules the whole queue, so ticking on cycles with a
        // queued request or a completion due reproduces the dense loop's
        // every-cycle tick exactly: any other tick changes nothing, and
        // the profiler ignores its zero delta.
        if dram_next == Some(now) || drams.has_queued() {
            responses.clear();
            drams.tick(now, &mut responses);
            if let Some(p) = prof.as_mut() {
                p.observe_dram(now, drams.stats());
            }
            if let Some(inj) = robust.inj.as_mut() {
                inj.filter_responses(now, &mut responses);
            }
            for r in &responses {
                let ui = (r.id >> 32) as usize;
                if deliver_response(now, r, units, robust, &mut progress)? {
                    events.push(now + 1, ui);
                }
            }
            dram_next = drams.next_completion_time();
        }
        if let Some(inj) = robust.inj.as_mut() {
            // Fault-delayed responses re-deliver on their own schedule,
            // DRAM tick or not (their deadline is folded into `target`).
            for r in inj.due_responses(now) {
                let ui = (r.id >> 32) as usize;
                if deliver_response(now, &r, units, robust, &mut progress)? {
                    events.push(now + 1, ui);
                }
            }
        }

        if robust.san.is_some() {
            robust.sanitize_cycle(now, streams, units, drams)?;
        }
        if progress > 0 {
            last_progress_cycle = now;
        }

        // Completion and deadlock can only change state on processed
        // cycles, so checking here matches the dense per-cycle check.
        // (`finished` requires every VCU done, so the O(1) `undone` guard
        // skips the full scan until the endgame.)
        if undone == 0 && finished(units, drams, streams, must_drain) {
            return Ok(now);
        }
        if now - last_progress_cycle > cfg.deadlock_window {
            let live = dram_next.is_some()
                || robust.inj.as_ref().map(|i| i.pending(now)).unwrap_or(false)
                || robust.next_retry_deadline(units).is_some();
            if !live {
                return Err(deadlock_error(g, units, streams, now, now - last_progress_cycle));
            }
        }
    }
}

fn diagnose_streams(g: &Vudfg, streams: &[StreamRt]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, s) in streams.iter().enumerate() {
        if !s.can_push() {
            let spec = &g.streams[i];
            let _ = writeln!(
                out,
                "  FULL s{i} {} -> {} [{}] occ {}",
                g.unit(spec.src).label,
                g.unit(spec.dst).label,
                spec.label,
                s.occupancy()
            );
        }
    }
    out
}

fn diagnose(units: &Units, streams: &[StreamRt]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut shown = 0;
    for v in &units.vcus {
        if !v.done {
            let _ =
                writeln!(out, "  {} stalled on '{}' after {} firings", v.label, v.stall, v.firings);
            shown += 1;
            if shown > 200 {
                let _ = writeln!(out, "  ...");
                break;
            }
        }
    }
    let backed: usize = streams.iter().filter(|s| !s.can_push()).count();
    let _ = writeln!(out, "  {} streams backpressured", backed);
    out
}
