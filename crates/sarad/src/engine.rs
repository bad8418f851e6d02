//! The service core: a staged compile → place → simulate pipeline where
//! every stage is keyed by a stable content hash of its inputs and
//! served from cache when possible.
//!
//! ## Key derivation
//!
//! ```text
//! compile_key = H("sarad-compile-v2", program_canon, options_canon, system_canon)
//! eval_key    = H("sarad-eval-v2", compile_key)
//! design      = design_digest(compiled)      carried in the eval artifact
//! place_key   = H("sarad-place-v2", compile_key, pnr_seed)
//! sim_key     = H("sarad-sim-v3", design, system_canon, pnr_seed)
//! ```
//!
//! The compile and eval keys follow from the knobs alone; the engine
//! derives them once per [`KnobConfig::key`] (which covers every knob
//! but the PnR seed) and keeps them in memory. The sim key is keyed by
//! the compiled design ([`sara_core::artifact::design_digest`]), not by
//! the knobs: flag toggles that compile to the same VUDFG and
//! assignment share one placement, one simulation and one `sim/`
//! artifact. The digest is computed once per compile, in the eval
//! stage, and saved in the eval artifact, so a request reaches its sim
//! key through the eval stage — from memory, from disk, or by
//! compiling — and a restarted engine derives it without compiling.
//!
//! Neither the compile key nor the design digest covers the cost model
//! or the digest walk itself, so the `sarad-eval-v2` domain must be
//! bumped whenever [`sara_dse::estimate`], [`CostEstimate`],
//! [`ResourceReport`] or the walk in `design_digest` changes; otherwise
//! a restarted engine serves stale estimates or stale digests. The
//! `sarad-sim-v3` domain must be bumped whenever place-and-route or
//! the simulator changes its results, so that sim artifacts written
//! before are not served. The eval key is never the bare compile key:
//! flight locks are keyed by the key string alone, and the eval stage
//! computes through the compile stage.
//!
//! Any change to any field of the request tuple changes the compile
//! and eval keys; a new PnR seed reuses the compiled design but
//! re-places and re-simulates. The system canon
//! ([`plasticine_arch::SystemSpec::canon`]) is field-complete over the
//! *whole* topology — chip geometry, unit
//! capabilities, DRAM technology, chip count, grid shape, and every
//! link parameter — so two configurations that happen to share a
//! display name can never alias in the cache (`tests/cache.rs` checks
//! each field individually). Multi-chip requests run the sharded
//! pipeline: the in-memory placement holds the shard plan alongside the
//! routed graph, and the sim stage runs the linked multi-chip
//! simulation.
//!
//! ## Cache layers
//!
//! * **In-memory index** — full `Compiled` objects, eval artifacts,
//!   placements, and sim artifacts (including *negative* entries: a
//!   compile or PnR failure is cached as its error string, so a
//!   hopeless point is never re-attempted), plus the knob-derived keys.
//! * **On-disk store** — eval and sim artifacts in the
//!   [`Store`](crate::store::Store), content-verified at read time; a
//!   hash mismatch counts as corruption and forces a recompute, never a
//!   serve. The compile and place stages are memory-only: nothing reads
//!   a lowered graph back, and a placement is needed only to simulate,
//!   so a stored one would be read only after its sim artifact was
//!   lost. The eval artifact keeps what [`CachedEval::evaluate`] needs
//!   from a compile (the cost estimate and the resource report, or the
//!   compile error) and the design digest the sim key needs, so a
//!   restarted engine answers evaluations, simulations and `run`
//!   requests from disk without compiling. Every request that
//!   simulates goes through the eval stage first, so a `run` request
//!   saves an eval artifact too.
//!
//! All four stages run one private cache routine, `Engine::cached`:
//! memory hit; flight lock and coalesced re-check; for the two stages
//! that persist, pin and verified disk load; deadline check; miss;
//! compute (which saves, or degrades); memoize unless the error is a
//! timeout.
//!
//! ## Single-flight
//!
//! Concurrent requests for the same stage key coalesce: one computes,
//! the rest wait on the per-key flight lock and then read the fresh
//! cache entry. The `coalesced` stat counts the waiters.
//!
//! ## Fault discipline
//!
//! The engine never lets the artifact store fail a request:
//!
//! * a store **write** failure (disk full, permissions, budget refusal,
//!   injected fault) downgrades to compute-without-cache — the computed
//!   result is still served and the `degraded` counter bumps;
//! * a store **read** failure that is not corruption (transient I/O)
//!   likewise degrades to a recompute;
//! * verification failures quarantine the artifact and recompute
//!   (`corrupt_detected`), never serve.
//!
//! Per-request [`Deadline`]s are enforced *between* stages: a request
//! that runs out of time gets a typed `timeout: ...` error, but every
//! stage that completed stays cached, so a retry resumes from the last
//! finished stage instead of starting over. Timeouts are never
//! negatively cached.

use crate::store::{Store, StoreFaults, StoreRead};
use plasticine_sim::{SimConfig, SimOutcome};
use sara_core::artifact::{compile_key, design_digest, f64_bits, f64_from_bits, StableHasher};
use sara_core::compile::{compile, Compiled};
use sara_core::report::{bottleneck_summary, ResourceReport};
use sara_core::shard::ShardPlan;
use sara_core::vudfg::Vudfg;
use sara_dse::{estimate, CostEstimate, EvalPoint, Evaluator, KnobConfig};
use sara_util::Json;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every engine timeout error starts with this prefix; the server maps
/// it to the typed `"code": "timeout"` response.
pub const TIMEOUT_PREFIX: &str = "timeout: ";

/// A per-request compute deadline, checked at stage boundaries. Work
/// completed before the deadline stays cached, so a retried request
/// resumes from the last finished stage.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No deadline: stages always run.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// A deadline `ms` milliseconds from now.
    pub fn in_ms(ms: u64) -> Deadline {
        Deadline(Some(Instant::now() + Duration::from_millis(ms)))
    }

    /// Whether the deadline has passed.
    pub fn exceeded(self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }

    /// Typed timeout error if the deadline has passed before `stage`
    /// could start.
    fn check(self, stage: &str) -> Result<(), String> {
        if self.exceeded() {
            Err(format!(
                "{TIMEOUT_PREFIX}deadline exceeded before the {stage} stage \
                 (completed stages are cached; retry resumes from there)"
            ))
        } else {
            Ok(())
        }
    }
}

/// The keys a knob configuration alone determines: the compile key and
/// the eval key derived from it. Neither depends on the PnR seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobKeys {
    pub compile: String,
    pub eval: String,
}

/// Every stage key of one request. The sim key needs the digest of the
/// compiled design, which the eval stage holds, so only [`Engine::run`]
/// and [`Engine::run_with`] hand these out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKeys {
    pub compile: String,
    pub eval: String,
    pub place: String,
    pub sim: String,
}

/// Derive the compile and eval keys of a knob configuration. The engine
/// derives them once per [`KnobConfig::key`], and adds the place and sim
/// keys once the eval stage has the design digest.
///
/// The compile key is [`sara_core::artifact::compile_key`]: it hashes
/// the *field-complete* [`plasticine_arch::SystemSpec::canon`] of the target (with any
/// link-knob overrides applied), never just a display name — so cached
/// artifacts cannot alias across topologies that differ in chip count,
/// grid shape, link latency/bandwidth/FIFO depth, or any per-chip
/// capability.
///
/// # Errors
///
/// When the knobs name an unknown chip/system or cannot build a
/// program.
pub fn stage_keys(knobs: &KnobConfig) -> Result<KnobKeys, String> {
    let program = knobs.build_program()?;
    let system = knobs.system_spec()?;
    let compile = compile_key(&program, &knobs.compiler_options(), &system);
    let mut h = StableHasher::new();
    h.str("sarad-eval-v2").str(&compile);
    Ok(KnobKeys { eval: h.hex(), compile })
}

impl KnobKeys {
    /// Every stage key, given the compiled design's digest, the target's
    /// system canon and the PnR seed.
    fn with_design(self, design: &str, system_canon: &str, pnr_seed: u64) -> StageKeys {
        let mut h = StableHasher::new();
        h.str("sarad-place-v2").str(&self.compile).u64(pnr_seed);
        let place = h.hex();
        let mut h = StableHasher::new();
        h.str("sarad-sim-v3").str(design).str(system_canon).u64(pnr_seed);
        StageKeys { compile: self.compile, eval: self.eval, place, sim: h.hex() }
    }
}

/// The cached result of one simulation stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArtifact {
    /// Cycles to completion (bit-identical to a fresh run).
    pub cycles: u64,
    /// Total unit firings (cheap cross-check of bit-identity).
    pub firings: u64,
    /// Fraction of VCU cycles stalled on DRAM.
    pub dram_blocked_frac: f64,
    /// Human-readable bottleneck summary.
    pub bottleneck: String,
}

impl SimArtifact {
    fn from_outcome(out: &SimOutcome) -> Result<SimArtifact, String> {
        let profile = out
            .profile
            .as_ref()
            .ok_or_else(|| "sim: profiled run returned no profile".to_string())?;
        Ok(SimArtifact {
            cycles: out.cycles,
            firings: out.stats.firings,
            dram_blocked_frac: profile.dram_blocked_frac(),
            bottleneck: bottleneck_summary(profile, 3),
        })
    }

    fn to_json(&self) -> Json {
        Json::object()
            .set("cycles", i64::try_from(self.cycles).unwrap_or(i64::MAX))
            .set("firings", i64::try_from(self.firings).unwrap_or(i64::MAX))
            .set("dram_blocked_frac", self.dram_blocked_frac)
            .set("bottleneck", self.bottleneck.as_str())
    }

    fn from_json(v: &Json) -> Result<SimArtifact, String> {
        Ok(SimArtifact {
            cycles: v.get("cycles").and_then(Json::as_u64).ok_or("sim artifact: cycles")?,
            firings: v.get("firings").and_then(Json::as_u64).ok_or("sim artifact: firings")?,
            dram_blocked_frac: v
                .get("dram_blocked_frac")
                .and_then(Json::as_f64)
                .ok_or("sim artifact: dram_blocked_frac")?,
            bottleneck: v
                .get("bottleneck")
                .and_then(Json::as_str)
                .ok_or("sim artifact: bottleneck")?
                .to_string(),
        })
    }
}

/// The cached result of one eval stage: what [`CachedEval::evaluate`]
/// needs from a compile, and the design digest the sim key needs.
/// Floats are stored as their IEEE-754 bits, so a restarted engine
/// ranks candidates bit-identically to a cold one.
#[derive(Debug, Clone, PartialEq)]
enum EvalArtifact {
    /// The design compiled: its cost estimate, resource report and
    /// [`design_digest`].
    Compiled { estimate: CostEstimate, report: ResourceReport, design: String },
    /// The compile failed with this error: the point is infeasible, and
    /// a restart does not retry it.
    Failed(String),
}

impl EvalArtifact {
    fn to_json(&self) -> Json {
        let (e, r, design) = match self {
            EvalArtifact::Failed(error) => return Json::object().set("error", error.as_str()),
            EvalArtifact::Compiled { estimate, report, design } => (estimate, report, design),
        };
        Json::object()
            .set("raw_cycles", f64_bits(e.raw_cycles))
            .set("compute_bound", f64_bits(e.compute_bound))
            .set("dram_bound", f64_bits(e.dram_bound))
            .set("startup", f64_bits(e.startup))
            .set("dram_bytes", e.dram_bytes)
            .set("pcus", r.pcus)
            .set("pmus", r.pmus)
            .set("ags", r.ags)
            .set("streams", r.streams)
            .set("token_streams", r.token_streams)
            .set("retime_units", r.retime_units)
            .set("design", design.as_str())
    }

    fn from_json(v: &Json) -> Result<EvalArtifact, String> {
        if let Some(error) = v.get("error") {
            let error = error.as_str().ok_or("eval artifact: error")?;
            return Ok(EvalArtifact::Failed(error.to_string()));
        }
        let bad = |field: &str| format!("eval artifact: {field}");
        let bits = |field: &str| {
            v.get(field).and_then(Json::as_str).and_then(f64_from_bits).ok_or_else(|| bad(field))
        };
        let count = |field: &str| v.get(field).and_then(Json::as_u64).ok_or_else(|| bad(field));
        let units = |field: &str| usize::try_from(count(field)?).map_err(|_| bad(field));
        Ok(EvalArtifact::Compiled {
            estimate: CostEstimate {
                raw_cycles: bits("raw_cycles")?,
                compute_bound: bits("compute_bound")?,
                dram_bound: bits("dram_bound")?,
                startup: bits("startup")?,
                dram_bytes: count("dram_bytes")?,
            },
            report: ResourceReport {
                pcus: units("pcus")?,
                pmus: units("pmus")?,
                ags: units("ags")?,
                streams: units("streams")?,
                token_streams: units("token_streams")?,
                retime_units: units("retime_units")?,
            },
            design: v
                .get("design")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("design"))?
                .to_string(),
        })
    }
}

/// Monotonic service counters. All atomics: read without locking.
#[derive(Debug, Default)]
pub struct Stats {
    pub compile_hits: AtomicU64,
    pub compile_misses: AtomicU64,
    pub place_hits: AtomicU64,
    pub place_misses: AtomicU64,
    pub sim_hits: AtomicU64,
    pub sim_misses: AtomicU64,
    pub eval_hits: AtomicU64,
    pub eval_misses: AtomicU64,
    /// Real compiler invocations (the number the warm-autotune
    /// acceptance test pins to zero on a repeat run).
    pub compiles_run: AtomicU64,
    pub pnrs_run: AtomicU64,
    pub sims_run: AtomicU64,
    /// On-disk artifacts served after hash verification.
    pub disk_hits: AtomicU64,
    /// On-disk artifacts that failed verification and were recomputed.
    pub corrupt_detected: AtomicU64,
    /// Requests that waited on another in-flight computation of the
    /// same key instead of redoing the work.
    pub coalesced: AtomicU64,
    /// Requests rejected by queue backpressure (maintained by the
    /// server front end).
    pub rejected: AtomicU64,
    /// Requests that completed *without* the cache because a store read
    /// or write failed (disk full, permissions, budget refusal): the
    /// result was still served, just not persisted.
    pub degraded: AtomicU64,
    /// Requests cut off by their deadline between stages.
    pub timeouts: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Render every counter.
    pub fn json(&self) -> Json {
        let g = |c: &AtomicU64| i64::try_from(c.load(Ordering::Relaxed)).unwrap_or(i64::MAX);
        Json::object()
            .set("compile_hits", g(&self.compile_hits))
            .set("compile_misses", g(&self.compile_misses))
            .set("place_hits", g(&self.place_hits))
            .set("place_misses", g(&self.place_misses))
            .set("sim_hits", g(&self.sim_hits))
            .set("sim_misses", g(&self.sim_misses))
            .set("eval_hits", g(&self.eval_hits))
            .set("eval_misses", g(&self.eval_misses))
            .set("compiles_run", g(&self.compiles_run))
            .set("pnrs_run", g(&self.pnrs_run))
            .set("sims_run", g(&self.sims_run))
            .set("disk_hits", g(&self.disk_hits))
            .set("corrupt_detected", g(&self.corrupt_detected))
            .set("coalesced", g(&self.coalesced))
            .set("rejected", g(&self.rejected))
            .set("degraded", g(&self.degraded))
            .set("timeouts", g(&self.timeouts))
    }
}

/// Per-stage progress callback: `(stage, outcome)` where outcome is
/// `"hit"`, `"disk-hit"`, or `"miss"`.
pub type Progress<'a> = &'a mut dyn FnMut(&str, &str);

/// A no-op progress sink.
pub fn no_progress() -> impl FnMut(&str, &str) {
    |_: &str, _: &str| {}
}

/// A placement: the routed graph plus, for multi-chip systems, the
/// shard plan the linked simulation needs to model chip crossings.
#[derive(Debug, Clone, PartialEq)]
pub struct Placed {
    /// The placed-and-routed VUDFG (crossing streams carry their link
    /// latencies and widened FIFO depths for multi-chip systems).
    pub vudfg: Vudfg,
    /// Where every unit lives; `None` for single-chip placements.
    pub plan: Option<ShardPlan>,
}

/// Reads a stage artifact back from its verified disk payload.
type Decode<T> = fn(&Json) -> Result<T, String>;

/// One stage's in-memory index (key → artifact, or the cached error)
/// and, for a stage that persists its artifacts, their disk decoder.
#[derive(Debug)]
struct StageCache<T> {
    name: &'static str,
    memo: Mutex<HashMap<String, Result<T, String>>>,
    decode: Option<Decode<T>>,
}

impl<T> StageCache<T> {
    fn new(name: &'static str, decode: Option<Decode<T>>) -> Self {
        StageCache { name, memo: Mutex::new(HashMap::new()), decode }
    }
}

/// The cached pipeline engine shared by the socket server and the
/// in-process [`CachedEval`] autotune backend.
#[derive(Debug)]
pub struct Engine {
    store: Store,
    compiled: StageCache<Arc<Compiled>>,
    evals: StageCache<EvalArtifact>,
    placed: StageCache<Arc<Placed>>,
    sims: StageCache<SimArtifact>,
    /// Knob-derived keys by [`KnobConfig::key`].
    knob_keys: Mutex<HashMap<String, KnobKeys>>,
    flights: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Artificial per-stage compute latency — a chaos/test hook for
    /// exercising deadlines and watchdogs; `None` in production.
    stage_delay: Mutex<Option<Duration>>,
    /// Service counters (public: the server also bumps `rejected`).
    pub stats: Stats,
}

impl Engine {
    /// Open an engine with an unbounded artifact store rooted at
    /// `cache_dir`.
    ///
    /// # Errors
    ///
    /// When the cache directory cannot be created.
    pub fn open(cache_dir: &Path) -> Result<Engine, String> {
        Engine::open_with(cache_dir, None, None)
    }

    /// Open an engine with an optional store byte budget and an
    /// optional fault-injection schedule (the chaos harness's entry
    /// point).
    ///
    /// # Errors
    ///
    /// When the cache directory cannot be created.
    pub fn open_with(
        cache_dir: &Path,
        budget: Option<u64>,
        faults: Option<StoreFaults>,
    ) -> Result<Engine, String> {
        Ok(Engine {
            store: Store::open_with(cache_dir, budget, faults)?,
            compiled: StageCache::new("compile", None),
            evals: StageCache::new("eval", Some(EvalArtifact::from_json)),
            placed: StageCache::new("place", None),
            sims: StageCache::new("sim", Some(SimArtifact::from_json)),
            knob_keys: Mutex::new(HashMap::new()),
            flights: Mutex::new(HashMap::new()),
            stage_delay: Mutex::new(None),
            stats: Stats::default(),
        })
    }

    /// The underlying artifact store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Arm (or disarm) an artificial per-stage compute delay. Chaos and
    /// deadline tests use this to make stages reliably slow; it has no
    /// effect on cache hits, so the "retry resumes from the completed
    /// stage" contract is observable.
    pub fn set_stage_delay(&self, delay: Option<Duration>) {
        *self.stage_delay.lock().expect("stage delay poisoned") = delay;
    }

    fn apply_stage_delay(&self) {
        let delay = *self.stage_delay.lock().expect("stage delay poisoned");
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
    }

    /// Engine counters merged with the store's eviction/bytes counters
    /// — the full `stats` report the protocol exposes.
    pub fn stats_json(&self) -> Json {
        let g = |c: &AtomicU64| i64::try_from(c.load(Ordering::Relaxed)).unwrap_or(i64::MAX);
        let c = &self.store.counters;
        let mut doc = self.stats.json();
        doc = doc
            .set("store_bytes", g(&c.bytes))
            .set("evictions", g(&c.evictions))
            .set("evicted_bytes", g(&c.evicted_bytes))
            .set("tmp_swept", g(&c.tmp_swept))
            .set("quarantined", g(&c.quarantined))
            .set("save_failures", g(&c.save_failures));
        if let Some(b) = self.store.budget() {
            doc = doc.set("cache_budget", i64::try_from(b).unwrap_or(i64::MAX));
        }
        doc
    }

    /// Acquire the per-key flight lock (creating it on first use).
    fn flight(&self, key: &str) -> Arc<Mutex<()>> {
        let mut flights = self.flights.lock().expect("flight registry poisoned");
        flights.entry(key.to_string()).or_default().clone()
    }

    fn flight_done(&self, key: &str) {
        self.flights.lock().expect("flight registry poisoned").remove(key);
    }

    /// Persist a stage artifact, downgrading failure to degraded mode:
    /// the request still succeeds, the artifact just is not cached.
    fn save_or_degrade(&self, stage: &str, key: &str, payload: &Json) {
        if self.store.save(stage, key, payload).is_err() {
            Stats::bump(&self.stats.degraded);
        }
    }

    /// The cache protocol every stage runs: serve `key` from memory;
    /// else take the key's flight lock and re-check (a coalesced
    /// waiter); else, for a stage that persists, pin the key and serve
    /// a verified disk artifact; else check the deadline, count a miss
    /// and `compute` (which saves its own artifact). The result, error
    /// or not, is memoized unless it is a timeout — the deadline gates
    /// computation, never a hit, and a retry must be able to resume.
    fn cached<T: Clone>(
        &self,
        cache: &StageCache<T>,
        key: &str,
        (hits, misses): (&AtomicU64, &AtomicU64),
        deadline: Deadline,
        progress: Progress,
        compute: impl FnOnce(Progress) -> Result<T, String>,
    ) -> Result<T, String> {
        let stage = cache.name;
        if let Some(entry) = cache.memo.lock().expect("stage cache poisoned").get(key) {
            Stats::bump(hits);
            progress(stage, "hit");
            return entry.clone();
        }
        let fl = self.flight(key);
        let _g = fl.lock().expect("flight lock poisoned");
        if let Some(entry) = cache.memo.lock().expect("stage cache poisoned").get(key) {
            Stats::bump(hits);
            Stats::bump(&self.stats.coalesced);
            progress(stage, "hit");
            return entry.clone();
        }
        let _pin = cache.decode.map(|_| self.store.pin(stage, key));
        let disk = cache.decode.and_then(|decode| match self.store.load(stage, key) {
            // A verified envelope whose payload does not decode is
            // corruption too: recompute, never serve.
            StoreRead::Hit(payload) => {
                decode(&payload).map_err(|_| Stats::bump(&self.stats.corrupt_detected)).ok()
            }
            StoreRead::Corrupt(_) => {
                Stats::bump(&self.stats.corrupt_detected);
                None
            }
            StoreRead::Failed(_) => {
                Stats::bump(&self.stats.degraded);
                None
            }
            StoreRead::Miss => None,
        });
        let entry = if let Some(v) = disk {
            Stats::bump(hits);
            Stats::bump(&self.stats.disk_hits);
            progress(stage, "disk-hit");
            Ok(v)
        } else if let Err(e) = deadline.check(stage) {
            Stats::bump(&self.stats.timeouts);
            Err(e)
        } else {
            Stats::bump(misses);
            progress(stage, "miss");
            compute(progress)
        };
        if !matches!(&entry, Err(e) if e.starts_with(TIMEOUT_PREFIX)) {
            cache.memo.lock().expect("stage cache poisoned").insert(key.to_string(), entry.clone());
        }
        self.flight_done(key);
        entry
    }

    /// A deadline check between a nested stage and this one's compute:
    /// work the nested stage finished stays cached, and this request
    /// stops instead of starting work it cannot afford.
    fn recheck(&self, deadline: Deadline, stage: &str) -> Result<(), String> {
        deadline.check(stage).inspect_err(|_| Stats::bump(&self.stats.timeouts))
    }

    /// Compile stage: lowered VUDFG + reports, keyed by
    /// (program, options, system), held in memory only. Compilation
    /// itself is chip-local — sharding happens at placement — but the
    /// key covers the full topology so downstream stages can never
    /// alias. Failures are cached as errors so a hopeless point never
    /// compiles twice.
    ///
    /// # Errors
    ///
    /// Setup failures (bad chip/knobs), (cached) compile failures, and
    /// typed `timeout:` errors when the deadline passed before the
    /// compile could start.
    fn compile_stage(
        &self,
        knobs: &KnobConfig,
        key: &str,
        deadline: Deadline,
        progress: Progress,
    ) -> Result<Arc<Compiled>, String> {
        let counters = (&self.stats.compile_hits, &self.stats.compile_misses);
        self.cached(&self.compiled, key, counters, deadline, progress, |_| {
            self.apply_stage_delay();
            let program = knobs.build_program()?;
            let system = knobs.system_spec()?;
            Stats::bump(&self.stats.compiles_run);
            let compiled = compile(&program, &system.chip, &knobs.compiler_options())
                .map_err(|e| format!("compile: {e}"))?;
            Ok(Arc::new(compiled))
        })
    }

    /// Eval stage: the cost estimate, resource report and design digest
    /// of the compiled design, or its compile error, keyed by the eval
    /// key. Served from memory, then from the verified disk store, then
    /// computed through the compile stage — so a restarted engine
    /// answers it without compiling. A compile failure is saved too, so
    /// a restart never retries a hopeless point; a timeout is neither
    /// saved nor cached.
    ///
    /// # Errors
    ///
    /// Setup failures and typed `timeout:` errors.
    fn eval_stage(
        &self,
        knobs: &KnobConfig,
        keys: &KnobKeys,
        deadline: Deadline,
        progress: Progress,
    ) -> Result<EvalArtifact, String> {
        let counters = (&self.stats.eval_hits, &self.stats.eval_misses);
        self.cached(&self.evals, &keys.eval, counters, deadline, progress, |progress| {
            let art = match self.compile_stage(knobs, &keys.compile, deadline, progress) {
                Ok(compiled) => EvalArtifact::Compiled {
                    estimate: estimate(
                        &knobs.build_program()?,
                        &compiled,
                        &knobs.system_spec()?.chip,
                    ),
                    report: compiled.report,
                    design: design_digest(&compiled),
                },
                Err(e) if e.starts_with(TIMEOUT_PREFIX) => return Err(e),
                Err(e) => EvalArtifact::Failed(e),
            };
            self.save_or_degrade("eval", &keys.eval, &art.to_json());
            Ok(art)
        })
    }

    /// Place stage: PnR'd VUDFG (plus the shard plan for multi-chip
    /// systems) keyed by (compile_key, pnr_seed), held in memory only
    /// and computed through the compile stage. A fresh engine whose sim
    /// artifact is missing recompiles and re-places.
    ///
    /// # Errors
    ///
    /// Setup failures plus (cached) compile/PnR failures and typed
    /// `timeout:` errors.
    pub fn place_stage(
        &self,
        knobs: &KnobConfig,
        keys: &StageKeys,
        deadline: Deadline,
        progress: Progress,
    ) -> Result<Arc<Placed>, String> {
        let counters = (&self.stats.place_hits, &self.stats.place_misses);
        self.cached(&self.placed, &keys.place, counters, deadline, progress, |progress| {
            let compiled = self.compile_stage(knobs, &keys.compile, deadline, progress)?;
            self.recheck(deadline, "place")?;
            let system = knobs.system_spec()?;
            let mut g = compiled.vudfg.clone();
            self.apply_stage_delay();
            Stats::bump(&self.stats.pnrs_run);
            // `place_and_route_system` delegates to the single-chip
            // placer (same seed, bit-identical) when `count <= 1`; the
            // plan is only kept when the linked simulation needs it.
            let pnr = sara_pnr::place_and_route_system(
                &mut g,
                &compiled.assignment,
                &system,
                knobs.pnr_seed,
            )
            .map_err(|e| format!("pnr: {e}"))?;
            let plan = (system.count > 1).then_some(pnr.plan);
            Ok(Arc::new(Placed { vudfg: g, plan }))
        })
    }

    /// Sim stage: cycles + profile scalars keyed by the design digest,
    /// the system and the PnR seed, and computed through the place stage
    /// of the first knobs that reach it. Cached sim results are
    /// bit-identical to fresh computation (`tests/cache.rs` proves it).
    ///
    /// # Errors
    ///
    /// Setup failures plus (cached) compile/PnR/sim failures and typed
    /// `timeout:` errors.
    pub fn sim_stage(
        &self,
        knobs: &KnobConfig,
        keys: &StageKeys,
        deadline: Deadline,
        progress: Progress,
    ) -> Result<SimArtifact, String> {
        let counters = (&self.stats.sim_hits, &self.stats.sim_misses);
        self.cached(&self.sims, &keys.sim, counters, deadline, progress, |progress| {
            let placed = self.place_stage(knobs, keys, deadline, progress)?;
            self.recheck(deadline, "sim")?;
            let system = knobs.system_spec()?;
            self.apply_stage_delay();
            Stats::bump(&self.stats.sims_run);
            // Profiling never changes cycle counts, and the profile
            // scalars are part of the artifact.
            let cfg = SimConfig::profiled();
            let out = match &placed.plan {
                Some(plan) => plasticine_sim::simulate_system(&placed.vudfg, &system, plan, &cfg),
                None => plasticine_sim::simulate(&placed.vudfg, &system.chip, &cfg),
            }
            .map_err(|e| format!("sim: {e}"))?;
            let art = SimArtifact::from_outcome(&out)?;
            self.save_or_degrade("sim", &keys.sim, &art.to_json());
            Ok(art)
        })
    }

    /// Run the full pipeline for one request tuple: the eval stage,
    /// whose design digest completes the sim key, then the sim stage.
    ///
    /// # Errors
    ///
    /// Any stage failure (possibly served from the negative cache).
    pub fn run(
        &self,
        knobs: &KnobConfig,
        progress: Progress,
    ) -> Result<(StageKeys, SimArtifact), String> {
        self.run_with(knobs, Deadline::none(), progress)
    }

    /// [`Engine::run`] under a per-request deadline.
    ///
    /// # Errors
    ///
    /// Stage failures, or a typed `timeout:` error when the deadline
    /// passes between stages (completed stages stay cached).
    pub fn run_with(
        &self,
        knobs: &KnobConfig,
        deadline: Deadline,
        progress: Progress,
    ) -> Result<(StageKeys, SimArtifact), String> {
        let keys = self.knob_keys(knobs)?;
        let design = match self.eval_stage(knobs, &keys, deadline, progress)? {
            EvalArtifact::Compiled { design, .. } => design,
            EvalArtifact::Failed(e) => return Err(e),
        };
        let keys = keys.with_design(&design, &knobs.system_spec()?.canon(), knobs.pnr_seed);
        let art = self.sim_stage(knobs, &keys, deadline, progress)?;
        Ok((keys, art))
    }

    /// The knob-derived keys of `knobs`, derived once per
    /// [`KnobConfig::key`]. That key covers every knob but the PnR
    /// seed, and the seed enters no knob-derived key.
    fn knob_keys(&self, knobs: &KnobConfig) -> Result<KnobKeys, String> {
        let id = knobs.key();
        if let Some(keys) = self.knob_keys.lock().expect("key memo poisoned").get(&id) {
            return Ok(keys.clone());
        }
        let keys = stage_keys(knobs)?;
        self.knob_keys.lock().expect("key memo poisoned").insert(id, keys.clone());
        Ok(keys)
    }
}

/// The cached [`Evaluator`] backend: `sara-dse` autotune served by an
/// [`Engine`], making a warm autotune run skip every repeated
/// compilation (see `tests/cache.rs`).
#[derive(Debug, Clone)]
pub struct CachedEval {
    engine: Arc<Engine>,
}

impl CachedEval {
    /// Wrap an engine.
    pub fn new(engine: Arc<Engine>) -> CachedEval {
        CachedEval { engine }
    }

    /// The shared engine (for stats inspection).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }
}

impl Evaluator for CachedEval {
    fn evaluate(&self, knobs: &KnobConfig) -> Result<EvalPoint, String> {
        // Same contract as `LocalEval`: setup failures are `Err`, a
        // compile failure is an infeasible point, and multi-chip points
        // are feasibility-checked against the system's aggregate
        // capacity.
        let system = knobs.system_spec()?;
        let keys = self.engine.knob_keys(knobs)?;
        let mut sink = no_progress();
        Ok(match self.engine.eval_stage(knobs, &keys, Deadline::none(), &mut sink) {
            Ok(EvalArtifact::Compiled { estimate, report, .. }) => {
                EvalPoint::compiled(knobs, estimate, report, &system)
            }
            Ok(EvalArtifact::Failed(_)) | Err(_) => EvalPoint::infeasible(knobs),
        })
    }

    fn simulate(&self, point: &mut EvalPoint) -> Result<(), String> {
        let mut sink = no_progress();
        let (_, art) = self.engine.run(&point.knobs, &mut sink)?;
        point.simulated = Some(art.cycles);
        point.dram_blocked_frac = Some(art.dram_blocked_frac);
        point.bottleneck = Some(art.bottleneck);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_artifact_round_trips_bit_exactly() {
        let estimate = CostEstimate {
            raw_cycles: 0.1 + 0.2,
            compute_bound: -0.0,
            dram_bound: f64::MIN_POSITIVE,
            startup: 1e300,
            dram_bytes: u64::from(u32::MAX) + 7,
        };
        let report = ResourceReport {
            pcus: 1,
            pmus: 2,
            ags: 3,
            streams: 4,
            token_streams: 5,
            retime_units: 6,
        };
        let compiled = EvalArtifact::Compiled {
            estimate: estimate.clone(),
            report,
            design: "0123456789abcdef0123456789abcdef".to_string(),
        };
        let failed = EvalArtifact::Failed("compile: need 207 PCU slots".to_string());
        for art in [compiled, failed] {
            let text = art.to_json().pretty();
            let back = EvalArtifact::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, art);
            if let EvalArtifact::Compiled { estimate: e, .. } = back {
                let bits = |c: &CostEstimate| {
                    [c.raw_cycles, c.compute_bound, c.dram_bound, c.startup].map(f64::to_bits)
                };
                assert_eq!(bits(&e), bits(&estimate));
            }
        }
        assert!(EvalArtifact::from_json(&Json::object().set("raw_cycles", 1)).is_err());
    }
}
