//! The guided search engine: coordinate-descent moves under a bounded
//! beam, pruned by the capability model, calibrated and re-ranked by
//! periodic real simulations.
//!
//! ## Strategy
//!
//! The search keeps a beam of the most promising feasible points. Each
//! round it expands every beam point with coordinate-descent moves (one
//! knob changed at a time: a `par` doubled or halved on the power-of-two
//! ladder, one optimization flag toggled, or — with `tune_chip` — the
//! chip swapped), evaluates all new candidates on the shared thread pool
//! (compile + analytical cost, no simulation), and discards points the
//! capability model rejects before they ever reach place-and-route. The
//! top few candidates by calibrated cost are then actually simulated;
//! their profiles recalibrate the cost model, re-rank the frontier, and
//! steer the next round's move ordering (a DRAM-blocked profile demotes
//! compute-side `par` moves in favor of flag and chip moves). The search
//! stops when the compile budget is spent or when two consecutive rounds
//! fail to improve the incumbent.
//!
//! The incumbent starts at the default-knob point, which is always
//! simulated first — so the returned best point is never slower than the
//! defaults in simulated cycles.

use crate::cost::{estimate, CostEstimate, CostModel};
use crate::knobs::KnobConfig;
use plasticine_arch::{ChipSpec, SystemSpec};
use sara_core::compile::compile;
use sara_core::report::{bottleneck_summary, ResourceReport};
use sara_util::pool::run_points;
use std::collections::HashSet;

/// Tuning-run parameters.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Maximum candidate points to evaluate (compile + cost model). The
    /// default point counts toward the budget.
    pub budget: usize,
    /// Beam width: feasible points kept alive between rounds.
    pub beam: usize,
    /// Candidates actually simulated per round.
    pub sim_top: usize,
    /// Place-and-route seed, pinned into every emitted artifact.
    pub pnr_seed: u64,
    /// Chip short name the tuning targets (see [`ChipSpec::by_name`]).
    pub chip: String,
    /// Also search across chip configurations.
    pub tune_chip: bool,
}

/// The search stops after this many consecutive rounds without an
/// incumbent improvement.
const STALL_ROUNDS: usize = 2;

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            budget: 200,
            beam: 4,
            sim_top: 3,
            pnr_seed: 42,
            chip: "8x8".to_string(),
            tune_chip: false,
        }
    }
}

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct EvalPoint {
    pub knobs: KnobConfig,
    /// Analytical estimate; `None` when the point failed to compile.
    pub estimate: Option<CostEstimate>,
    /// Resource usage; `None` when the point failed to compile.
    pub report: Option<ResourceReport>,
    /// Compiled successfully *and* fits the target chip.
    pub feasible: bool,
    /// Simulated cycles, when this point was one of the simulated few.
    pub simulated: Option<u64>,
    /// Fraction of VCU cycles stalled on DRAM in this point's profile.
    pub dram_blocked_frac: Option<f64>,
    /// Human-readable bottleneck summary from this point's profile.
    pub bottleneck: Option<String>,
}

impl EvalPoint {
    /// A point that failed to compile: infeasible, with no estimate.
    pub fn infeasible(knobs: &KnobConfig) -> EvalPoint {
        EvalPoint {
            knobs: knobs.clone(),
            estimate: None,
            report: None,
            feasible: false,
            simulated: None,
            dram_blocked_frac: None,
            bottleneck: None,
        }
    }

    /// A compiled point with its cost estimate and resource report.
    /// Multi-chip systems admit aggregate demand across all chips; the
    /// sharding pass and per-chip PnR settle the balance later.
    pub fn compiled(
        knobs: &KnobConfig,
        estimate: CostEstimate,
        report: ResourceReport,
        system: &SystemSpec,
    ) -> EvalPoint {
        EvalPoint {
            estimate: Some(estimate),
            report: Some(report),
            feasible: system.can_fit(report.pcus as u32, report.pmus as u32, report.ags as u32),
            ..EvalPoint::infeasible(knobs)
        }
    }

    fn raw(&self) -> f64 {
        self.estimate.as_ref().map_or(f64::INFINITY, |e| e.raw_cycles)
    }
}

/// A simulation that failed mid-search, recorded as data instead of
/// panicking the tuner: the point is dropped from contention, the
/// incumbent survives, and the search keeps going.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// [`KnobConfig::key`] of the failed point.
    pub key: String,
    /// One-line failure description (compile/pnr/sim stage prefixed).
    pub error: String,
}

/// Pluggable compile-and-simulate backend for the search.
///
/// The default [`LocalEval`] runs the pipeline in-process; a `sarad`
/// client backend serves the same calls from its artifact cache. The
/// search never assumes a call that returned `Ok` filled every field —
/// a backend bug surfaces as a typed [`SimFailure`], not a panic.
pub trait Evaluator: Sync {
    /// Compile one point and run the cost model over it (no simulation).
    fn evaluate(&self, knobs: &KnobConfig) -> Result<EvalPoint, String>;
    /// Compile, place, and simulate with profiling, filling in
    /// `simulated`, `dram_blocked_frac`, and `bottleneck`.
    fn simulate(&self, point: &mut EvalPoint) -> Result<(), String>;
}

/// The in-process backend: compile and simulate directly, no caching.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalEval;

impl Evaluator for LocalEval {
    fn evaluate(&self, knobs: &KnobConfig) -> Result<EvalPoint, String> {
        evaluate(knobs)
    }

    fn simulate(&self, point: &mut EvalPoint) -> Result<(), String> {
        simulate_point(point)
    }
}

/// The result of one autotuning run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    pub workload: String,
    /// The default-knob point (always simulated).
    pub default_point: EvalPoint,
    /// Best simulated point found (never slower than `default_point`).
    pub best: EvalPoint,
    /// All simulated points, best first (at most [`FRONTIER_LEN`]).
    pub frontier: Vec<EvalPoint>,
    /// Candidate points evaluated (compiled + cost-modeled).
    pub points_explored: usize,
    /// Real simulations run.
    pub sims_run: usize,
    /// Candidates rejected by the capability model before PnR.
    pub infeasible_pruned: usize,
    /// Simulations that failed mid-search (typed, not fatal).
    pub sim_failures: Vec<SimFailure>,
    /// Search rounds completed.
    pub rounds: usize,
    /// The cost model re-fit over the returned frontier.
    pub model: CostModel,
    /// Worst relative error of the re-fit model on the frontier.
    pub max_model_error: f64,
}

/// Frontier length cap in [`TuneOutcome::frontier`].
pub const FRONTIER_LEN: usize = 8;

/// Innermost loops vectorize across SIMD lanes; cap `par` at the lane
/// count. Outer loops spatially unroll; the same cap bounds compile-time
/// blowup (the capability model prunes oversized designs anyway).
const MAX_PAR: u32 = 16;

/// Run the autotuner for one registry workload.
///
/// # Errors
///
/// If the workload or chip is unknown, or the default-knob point fails
/// to compile, place, or simulate (candidate failures are pruned, but
/// the baseline must work).
pub fn autotune(workload: &str, opts: &SearchOptions) -> Result<TuneOutcome, String> {
    autotune_with(workload, opts, &LocalEval)
}

/// [`autotune`] with an explicit [`Evaluator`] backend — the entry point
/// `sarad` clients use to serve the search from the artifact cache.
///
/// # Errors
///
/// Same contract as [`autotune`]: only setup failures and a broken
/// default point are fatal; candidate failures become
/// [`TuneOutcome::sim_failures`] entries.
pub fn autotune_with(
    workload: &str,
    opts: &SearchOptions,
    eval: &dyn Evaluator,
) -> Result<TuneOutcome, String> {
    let w =
        sara_workloads::by_name(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let default_knobs = KnobConfig::default_for(&w, &opts.chip, opts.pnr_seed)?;
    default_knobs.system_spec()?; // fail fast on a bad chip/system name

    // Round 0: the default point, evaluated and simulated.
    let mut default_point = eval.evaluate(&default_knobs)?;
    if !default_point.feasible {
        return Err(format!("{workload}: default knobs do not fit chip {}", opts.chip));
    }
    eval.simulate(&mut default_point)?;
    let default_cycles = default_point
        .simulated
        .ok_or_else(|| format!("{workload}: backend reported no cycles for the default point"))?;
    let mut model = CostModel::new();
    model.observe(default_point.raw(), default_cycles);

    let mut seen: HashSet<String> = HashSet::new();
    seen.insert(default_point.knobs.key());
    let mut explored = 1usize;
    let mut sims_run = 1usize;
    let mut infeasible_pruned = 0usize;
    let mut sim_failures: Vec<SimFailure> = Vec::new();
    let mut rounds = 0usize;
    let mut stall = 0usize;

    let mut incumbent = default_point.clone();
    let mut incumbent_cycles = default_cycles;
    let mut simulated: Vec<EvalPoint> = vec![default_point.clone()];
    let mut beam: Vec<EvalPoint> = vec![default_point.clone()];
    // Steering signal from the latest best profile: when the design is
    // DRAM-bound, par moves stop helping — try flags and chips first.
    let mut dram_bound = default_point.dram_blocked_frac.unwrap_or(0.0) > 0.4;

    while explored < opts.budget && stall < STALL_ROUNDS {
        // Expand the beam with one-knob moves, dedup, cap to the budget.
        let mut candidates: Vec<KnobConfig> = Vec::new();
        for p in &beam {
            for n in neighbors(&p.knobs, opts.tune_chip, dram_bound) {
                if seen.insert(n.key()) {
                    candidates.push(n);
                }
            }
        }
        candidates.truncate(opts.budget - explored);
        if candidates.is_empty() {
            break;
        }
        rounds += 1;
        explored += candidates.len();

        // Evaluate candidates in parallel (compile + cost model only; a
        // compile failure is an infeasible point, not an error).
        let mut evaluated: Vec<EvalPoint> =
            run_points(&candidates, |k| eval.evaluate(k)).into_iter().collect::<Result<_, _>>()?;
        infeasible_pruned += evaluated.iter().filter(|p| !p.feasible).count();
        evaluated.retain(|p| p.feasible);

        // Re-rank: survivors of the old beam compete with the newcomers.
        // Alpha is multiplicative, so ranking by raw estimate is ranking
        // by calibrated prediction; keys break ties deterministically.
        let mut pool: Vec<EvalPoint> = beam.into_iter().chain(evaluated).collect();
        pool.sort_by(|a, b| {
            a.raw().total_cmp(&b.raw()).then_with(|| a.knobs.key().cmp(&b.knobs.key()))
        });
        pool.truncate(opts.beam.max(1));
        beam = pool;

        // Simulate the most promising un-simulated points; their cycles
        // recalibrate the model and may replace the incumbent.
        let mut improved = false;
        for p in beam.iter_mut().filter(|p| p.simulated.is_none()).take(opts.sim_top.max(1)) {
            // A candidate that compiles but fails PnR/sim — or a backend
            // that returns Ok without cycles — is recorded as a typed
            // failure and dropped from contention, never a panic; the
            // incumbent and the rest of the search survive.
            let cycles = match eval.simulate(p) {
                Ok(()) => match p.simulated {
                    Some(c) => c,
                    None => {
                        sim_failures.push(SimFailure {
                            key: p.knobs.key(),
                            error: "backend returned Ok without simulated cycles".to_string(),
                        });
                        p.estimate = None;
                        continue;
                    }
                },
                Err(e) => {
                    sim_failures.push(SimFailure { key: p.knobs.key(), error: e });
                    p.estimate = None;
                    continue;
                }
            };
            sims_run += 1;
            model.observe(p.raw(), cycles);
            simulated.push(p.clone());
            if cycles < incumbent_cycles {
                incumbent = p.clone();
                incumbent_cycles = cycles;
                improved = true;
                dram_bound = p.dram_blocked_frac.unwrap_or(0.0) > 0.4;
            }
        }
        beam.retain(|p| p.estimate.is_some());
        if beam.is_empty() {
            beam.push(incumbent.clone());
        }
        stall = if improved { 0 } else { stall + 1 };
    }

    // The frontier is every simulated point, best first; the final model
    // is re-fit over exactly those points, and its worst relative error
    // there is the accuracy figure the report cites.
    simulated.sort_by(|a, b| {
        a.simulated
            .unwrap_or(u64::MAX)
            .cmp(&b.simulated.unwrap_or(u64::MAX))
            .then_with(|| a.knobs.key().cmp(&b.knobs.key()))
    });
    simulated.dedup_by_key(|p| p.knobs.key());
    simulated.truncate(FRONTIER_LEN);
    let final_model =
        CostModel::fit_minimax(simulated.iter().filter_map(|p| p.simulated.map(|s| (p.raw(), s))));
    let max_model_error = simulated
        .iter()
        .filter_map(|p| p.simulated.map(|s| final_model.rel_error(p.raw(), s)))
        .fold(0.0, f64::max);

    Ok(TuneOutcome {
        workload: workload.to_string(),
        default_point,
        best: incumbent,
        frontier: simulated,
        points_explored: explored,
        sims_run,
        infeasible_pruned,
        sim_failures,
        rounds,
        model: final_model,
        max_model_error,
    })
}

/// Compile one point and run the cost model over it. A compile failure
/// yields an infeasible point; only setup errors (unknown workload, bad
/// knob application) are `Err`.
pub fn evaluate(knobs: &KnobConfig) -> Result<EvalPoint, String> {
    let system = knobs.system_spec()?;
    let p = knobs.build_program()?;
    Ok(match compile(&p, &system.chip, &knobs.compiler_options()) {
        Ok(compiled) => {
            let cost = estimate(&p, &compiled, &system.chip);
            EvalPoint::compiled(knobs, cost, compiled.report, &system)
        }
        Err(_) => EvalPoint::infeasible(knobs),
    })
}

/// Compile, place, and simulate a point with profiling on, filling in its
/// simulated cycles, DRAM-blocked fraction, and bottleneck summary.
/// Profiling never changes cycle counts, so the recorded number is what
/// an unprofiled replay reproduces.
fn simulate_point(p: &mut EvalPoint) -> Result<(), String> {
    let system = p.knobs.system_spec()?;
    let prog = p.knobs.build_program()?;
    let compiled = compile(&prog, &system.chip, &p.knobs.compiler_options())
        .map_err(|e| format!("compile: {e}"))?;
    let mut g = compiled.vudfg;
    // A 1-chip system places and simulates bit-identically to the
    // single-chip entry points.
    let pnr =
        sara_pnr::place_and_route_system(&mut g, &compiled.assignment, &system, p.knobs.pnr_seed)
            .map_err(|e| format!("pnr: {e}"))?;
    let cfg = plasticine_sim::SimConfig::profiled();
    let out = plasticine_sim::simulate_system(&g, &system, &pnr.plan, &cfg)
        .map_err(|e| format!("sim: {e}"))?;
    let profile = out
        .profile
        .as_ref()
        .ok_or_else(|| "sim: profiled config returned no profile".to_string())?;
    p.simulated = Some(out.cycles);
    p.dram_blocked_frac = Some(profile.dram_blocked_frac());
    p.bottleneck = Some(bottleneck_summary(profile, 3));
    Ok(())
}

/// One-knob coordinate moves from a point. Order encodes the search's
/// preference; `dram_bound` rotates flag/chip moves to the front when
/// the latest profile says compute-side moves stopped paying.
fn neighbors(k: &KnobConfig, tune_chip: bool, dram_bound: bool) -> Vec<KnobConfig> {
    let mut par_moves = Vec::new();
    for (i, knob) in k.pars.iter().enumerate() {
        let cap = u32::try_from(knob.trip.min(u64::from(MAX_PAR))).unwrap_or(MAX_PAR).max(1);
        for par in [knob.par.saturating_mul(2).min(cap), knob.par / 2] {
            if par >= 1 && par != knob.par {
                let mut n = k.clone();
                n.pars[i].par = par;
                par_moves.push(n);
            }
        }
    }

    let mut flag_moves = Vec::new();
    for f in 0..3 {
        let mut n = k.clone();
        let flag = match f {
            0 => &mut n.opt.rtelm,
            1 => &mut n.opt.retime,
            _ => &mut n.opt.retime_m,
        };
        *flag = !*flag;
        flag_moves.push(n);
    }

    let mut chip_moves = Vec::new();
    if tune_chip {
        // Chip and system names share one move axis: the tuner can scale
        // up (more chips) as well as sideways (a different chip).
        for name in ChipSpec::NAMES.iter().chain(SystemSpec::NAMES) {
            if *name != k.chip {
                let mut n = k.clone();
                n.chip = (*name).to_string();
                // Link overrides only mean something on a multi-chip
                // system; drop them when moving back to one chip.
                if SystemSpec::by_name(name).is_none_or(|s| s.count <= 1) {
                    n.link_latency = None;
                    n.link_bandwidth = None;
                }
                chip_moves.push(n);
            }
        }
        // On a multi-chip point the link itself is tunable: halve or
        // double bandwidth and latency on their power-of-two ladders.
        if k.system_spec().is_ok_and(|s| s.count > 1) {
            let defaults = plasticine_arch::LinkSpec::default();
            let bw = k.link_bandwidth.unwrap_or(defaults.bandwidth);
            for nb in [bw.saturating_mul(2).min(64), (bw / 2).max(1)] {
                if nb != bw {
                    let mut n = k.clone();
                    n.link_bandwidth = Some(nb);
                    chip_moves.push(n);
                }
            }
            let lat = k.link_latency.unwrap_or(defaults.latency);
            for nl in [lat.saturating_mul(2).min(160), (lat / 2).max(1)] {
                if nl != lat {
                    let mut n = k.clone();
                    n.link_latency = Some(nl);
                    chip_moves.push(n);
                }
            }
        }
    }

    if dram_bound {
        flag_moves.into_iter().chain(chip_moves).chain(par_moves).collect()
    } else {
        par_moves.into_iter().chain(flag_moves).chain(chip_moves).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_move_one_knob_at_a_time() {
        let w = sara_workloads::by_name("gemm").unwrap();
        let k = KnobConfig::default_for(&w, "8x8", 42).unwrap();
        let ns = neighbors(&k, false, false);
        // i and k can both double (halving par=1 is a no-op), plus 3 flag
        // toggles; no chip moves without tune_chip.
        assert_eq!(ns.len(), 2 + 3);
        for n in &ns {
            assert_ne!(n.key(), k.key());
            assert_eq!(n.chip, k.chip);
        }
        // tune_chip adds the 3 other chips and the 4 advertised systems.
        let with_chips = neighbors(&k, true, false);
        assert_eq!(with_chips.len(), 2 + 3 + 3 + SystemSpec::NAMES.len());
    }

    #[test]
    fn multi_chip_points_get_link_moves_under_tune_chip() {
        let w = sara_workloads::by_name("gemm").unwrap();
        let mut k = KnobConfig::default_for(&w, "2x8x8", 42).unwrap();
        let ns = neighbors(&k, true, false);
        let bw: Vec<u32> = ns.iter().filter_map(|n| n.link_bandwidth).collect();
        let lat: Vec<u32> = ns.iter().filter_map(|n| n.link_latency).collect();
        // Defaults are bw 4 / latency 40: both double and halve.
        assert_eq!(bw, vec![8, 2]);
        assert_eq!(lat, vec![80, 20]);
        // Moves back to a single chip drop the link overrides.
        k.link_bandwidth = Some(8);
        for n in neighbors(&k, true, false) {
            if n.system_spec().unwrap().count <= 1 {
                assert_eq!(n.link_bandwidth, None, "{}", n.key());
            }
        }
        // No link moves without tune_chip.
        assert!(neighbors(&k, false, false).iter().all(|n| n.link_latency.is_none()));
    }

    #[test]
    fn autotune_searches_multi_chip_systems() {
        let opts = SearchOptions {
            budget: 8,
            sim_top: 2,
            chip: "2x8x8".to_string(),
            ..SearchOptions::default()
        };
        let out = autotune("gemm", &opts).unwrap();
        let default = out.default_point.simulated.unwrap();
        let best = out.best.simulated.unwrap();
        assert!(best <= default, "incumbent must never regress: {best} vs {default}");
        assert!(out.sim_failures.is_empty(), "{:?}", out.sim_failures);
        assert_eq!(out.best.knobs.system_spec().unwrap().chip.name(), "8x8");
    }

    #[test]
    fn par_moves_respect_trip_and_lane_caps() {
        let w = sara_workloads::by_name("gemm").unwrap();
        let mut k = KnobConfig::default_for(&w, "8x8", 42).unwrap();
        for knob in &mut k.pars {
            // at the ladder top for this loop: doubling must be a no-op
            knob.par = u32::try_from(knob.trip.min(16)).unwrap();
        }
        let ns = neighbors(&k, false, false);
        for n in &ns {
            for knob in &n.pars {
                assert!(knob.par <= 16 && knob.par >= 1);
            }
        }
        // Only halving moves remain for the pars (2) plus the 3 flags.
        assert_eq!(ns.len(), 2 + 3);
    }

    #[test]
    fn dram_bound_guidance_reorders_moves() {
        let w = sara_workloads::by_name("gemm").unwrap();
        let k = KnobConfig::default_for(&w, "8x8", 42).unwrap();
        let compute_first = neighbors(&k, false, false);
        let dram_first = neighbors(&k, false, true);
        // Same move set either way, different priority order.
        assert_eq!(compute_first.len(), dram_first.len());
        assert_ne!(compute_first[0].key(), dram_first[0].key());
        let mut a: Vec<String> = compute_first.iter().map(KnobConfig::key).collect();
        let mut b: Vec<String> = dram_first.iter().map(KnobConfig::key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn evaluate_flags_oversized_designs_as_infeasible() {
        let w = sara_workloads::by_name("mlp").unwrap();
        let mut k = KnobConfig::default_for(&w, "4x4", 42).unwrap();
        for knob in &mut k.pars {
            if !knob.innermost {
                knob.par = u32::try_from(knob.trip.min(16)).unwrap();
            }
        }
        let p = evaluate(&k).unwrap();
        assert!(!p.feasible, "16-way unrolled mlp cannot fit a 4x4 chip");
    }

    #[test]
    fn autotune_on_a_tiny_budget_still_beats_or_matches_default() {
        let opts = SearchOptions { budget: 12, sim_top: 2, ..SearchOptions::default() };
        let out = autotune("dotprod", &opts).unwrap();
        let default = out.default_point.simulated.unwrap();
        let best = out.best.simulated.unwrap();
        assert!(best <= default, "incumbent must never regress: {best} vs {default}");
        assert!(out.points_explored <= 12);
        assert!(out.sims_run >= 1);
        assert!(out.sim_failures.is_empty());
        assert!(!out.frontier.is_empty());
        assert_eq!(out.frontier[0].simulated, out.best.simulated);
    }

    /// A backend that sabotages every non-default simulation, either by
    /// returning a typed error or — worse — by lying: `Ok(())` with no
    /// cycles filled in (what a buggy remote backend would do).
    struct PlantedFailure {
        default_key: String,
        lie: bool,
    }

    impl Evaluator for PlantedFailure {
        fn evaluate(&self, knobs: &KnobConfig) -> Result<EvalPoint, String> {
            LocalEval.evaluate(knobs)
        }

        fn simulate(&self, point: &mut EvalPoint) -> Result<(), String> {
            if point.knobs.key() == self.default_key {
                return LocalEval.simulate(point);
            }
            if self.lie {
                Ok(()) // planted: Ok but `simulated` stays None
            } else {
                Err("planted: sim exploded".to_string())
            }
        }
    }

    #[test]
    fn planted_sim_failures_are_typed_outcomes_not_panics() {
        let w = sara_workloads::by_name("dotprod").unwrap();
        let default_key = KnobConfig::default_for(&w, "8x8", 42).unwrap().key();
        for lie in [false, true] {
            let backend = PlantedFailure { default_key: default_key.clone(), lie };
            let opts = SearchOptions { budget: 12, sim_top: 2, ..SearchOptions::default() };
            let out = autotune_with("dotprod", &opts, &backend).unwrap();
            // Every candidate simulation failed, so the incumbent must be
            // the (intact) default point and each failure recorded.
            assert_eq!(out.best.knobs.key(), default_key, "incumbent lost (lie={lie})");
            assert!(out.best.simulated.is_some());
            assert!(!out.sim_failures.is_empty(), "failures must be recorded (lie={lie})");
            for f in &out.sim_failures {
                assert_ne!(f.key, default_key);
                assert!(!f.error.is_empty());
            }
            // Failed points never leak into the frontier.
            for p in &out.frontier {
                assert!(p.simulated.is_some());
            }
            assert_eq!(out.sims_run, 1, "only the default sim succeeded (lie={lie})");
        }
    }
}
