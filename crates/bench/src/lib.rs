//! Shared experiment-harness plumbing: compile+PnR+simulate runners and
//! result records serialized into `results/`. The bins fan their points
//! out over [`sara_util::pool`].

pub mod cli;
pub mod json;
pub mod trace;

use plasticine_arch::{ChipSpec, SystemSpec};
use plasticine_sim::{simulate, simulate_system, verify_dram, SimConfig, SimOutcome};
use sara_core::compile::{compile, Compiled, CompilerOptions};
use sara_ir::interp::{Interp, InterpStats};
use sara_ir::Program;
use sara_util::Json;
use std::path::PathBuf;

pub use cli::{parse_profile_dir_flag, profile_dir};

/// One full run of a program through the SARA stack, its DRAM image
/// checked against the reference interpreter.
#[derive(Debug)]
pub struct Run {
    pub compiled: Compiled,
    pub outcome: SimOutcome,
    /// Reference interpreter statistics (dynamic op/byte counts).
    pub interp: InterpStats,
}

impl Run {
    /// Cycles to completion.
    pub fn cycles(&self) -> u64 {
        self.outcome.cycles
    }

    /// Throughput in FLOP/cycle.
    pub fn flops_per_cycle(&self) -> f64 {
        self.interp.total_ops() as f64 / self.outcome.cycles as f64
    }

    /// Wall-clock seconds at the chip's clock.
    pub fn seconds(&self, chip: &ChipSpec) -> f64 {
        self.outcome.cycles as f64 / (chip.clock_ghz * 1e9)
    }

    /// Physical units used.
    pub fn pus(&self) -> usize {
        self.compiled.report.total_pus()
    }
}

/// Simulator configuration for bench runs: the wakeup-driven active-list
/// scheduler by default, or the dense reference scheduler when
/// `SARA_SIM_DENSE=1` (the two are cycle-for-cycle equivalent; the
/// override exists to measure the engine speedup, see EXPERIMENTS.md).
pub fn sim_config() -> SimConfig {
    if std::env::var_os("SARA_SIM_DENSE").is_some_and(|v| v == "1") {
        SimConfig::dense()
    } else {
        SimConfig::default()
    }
}

/// Compile, place-and-route, and simulate a program, then check the final
/// DRAM image against the reference interpreter ([`verify_dram`]).
///
/// # Errors
///
/// Returns a human-readable description of the failing phase. A DRAM
/// image that differs from the interpreter's is an error starting with
/// `verify:` that names the tensor and the index; the fig/table binaries
/// exit 1 on it.
pub fn run(p: &Program, chip: &ChipSpec, opts: &CompilerOptions) -> Result<Run, String> {
    run_with(p, chip, opts, &sim_config())
}

/// [`run`] with an explicit simulator configuration.
///
/// # Errors
///
/// As [`run`].
pub fn run_with(
    p: &Program,
    chip: &ChipSpec,
    opts: &CompilerOptions,
    cfg: &SimConfig,
) -> Result<Run, String> {
    let reference = Interp::new(p).run().map_err(|e| format!("interp: {e}"))?;
    let mut compiled = compile(p, chip, opts).map_err(|e| format!("compile: {e}"))?;
    sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, chip, 17)
        .map_err(|e| format!("pnr: {e}"))?;
    let outcome = simulate(&compiled.vudfg, chip, cfg).map_err(|e| format!("sim: {e}"))?;
    verify_dram(p, &reference, &outcome).map_err(|e| format!("verify: {e}"))?;
    Ok(Run { compiled, outcome, interp: reference.stats })
}

/// [`run`], plus profile artifacts when a profile directory is
/// configured: simulates with profiling enabled (cycle counts are
/// bit-identical either way) and writes `<dir>/<tag>.profile.json`
/// (counters) and `<dir>/<tag>.trace.json` (Chrome trace, opens in
/// Perfetto).
///
/// # Errors
///
/// As [`run`], plus artifact I/O.
pub fn run_profiled(
    tag: &str,
    p: &Program,
    chip: &ChipSpec,
    opts: &CompilerOptions,
) -> Result<Run, String> {
    let Some(dir) = profile_dir() else { return run(p, chip, opts) };
    let cfg = SimConfig { profile: true, ..sim_config() };
    let r = run_with(p, chip, opts, &cfg)?;
    if let Some(prof) = &r.outcome.profile {
        std::fs::create_dir_all(&dir).map_err(|e| format!("profile dir: {e}"))?;
        std::fs::write(dir.join(format!("{tag}.profile.json")), json::profile_json(prof).pretty())
            .map_err(|e| format!("write profile json: {e}"))?;
        std::fs::write(
            dir.join(format!("{tag}.trace.json")),
            trace::chrome_trace(tag, prof).pretty(),
        )
        .map_err(|e| format!("write chrome trace: {e}"))?;
    }
    Ok(r)
}

/// Compile, shard, place-and-route per chip, and simulate a program on
/// every chip of a multi-chip system (see `sara_pnr::place_and_route_system`
/// and `plasticine_sim::simulate_system`). A 1-chip system follows the
/// single-chip pipeline bit-for-bit. Returns the run plus the shard plan
/// (chip assignment, crossing streams, cut traffic) for reporting.
///
/// # Errors
///
/// As [`run`].
pub fn run_system(
    p: &Program,
    system: &SystemSpec,
    opts: &CompilerOptions,
) -> Result<(Run, sara_core::shard::ShardPlan), String> {
    let reference = Interp::new(p).run().map_err(|e| format!("interp: {e}"))?;
    let mut compiled = compile(p, &system.chip, opts).map_err(|e| format!("compile: {e}"))?;
    let pnr =
        sara_pnr::place_and_route_system(&mut compiled.vudfg, &compiled.assignment, system, 17)
            .map_err(|e| format!("pnr: {e}"))?;
    let outcome = simulate_system(&compiled.vudfg, system, &pnr.plan, &sim_config())
        .map_err(|e| format!("sim: {e}"))?;
    verify_dram(p, &reference, &outcome).map_err(|e| format!("verify: {e}"))?;
    Ok((Run { compiled, outcome, interp: reference.stats }, pnr.plan))
}

/// Compile and simulate through the vanilla-Plasticine (PC) baseline,
/// checked against the interpreter as [`run`] is.
///
/// # Errors
///
/// As [`run`].
pub fn run_pc(p: &Program, chip: &ChipSpec) -> Result<Run, String> {
    let reference = Interp::new(p).run().map_err(|e| format!("interp: {e}"))?;
    let mut compiled = sara_baselines::pc::compile_pc(p, chip).map_err(|e| format!("pc: {e}"))?;
    sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, chip, 17)
        .map_err(|e| format!("pnr: {e}"))?;
    sara_baselines::pc::apply_hierarchical_control(&mut compiled);
    let outcome =
        simulate(&compiled.vudfg, chip, &sim_config()).map_err(|e| format!("sim: {e}"))?;
    verify_dram(p, &reference, &outcome).map_err(|e| format!("verify: {e}"))?;
    Ok(Run { compiled, outcome, interp: reference.stats })
}

/// Write a result set to `results/<name>.json` (repo root), returning the
/// path. `SARA_BENCH_RESULTS_DIR` redirects the output directory (used by
/// the smoke tests to avoid overwriting full sweep results).
///
/// # Errors
///
/// A human-readable description when the directory cannot be created or
/// the file cannot be written.
pub fn save_json(name: &str, value: &Json) -> Result<PathBuf, String> {
    let dir = std::env::var_os("SARA_BENCH_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create results dir {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.pretty())
        .map_err(|e| format!("cannot write results file {}: {e}", path.display()))?;
    Ok(path)
}

/// [`save_json`] for the fig/table binaries: exits with a one-line
/// diagnostic (code 1) instead of a panic backtrace on I/O failure.
pub fn save_json_or_exit(name: &str, value: &Json) -> PathBuf {
    save_json(name, value).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// True when `SARA_BENCH_SMOKE` is set: binaries shrink their sweeps to a
/// few seconds total so `cargo test` can exercise them end-to-end.
pub fn smoke() -> bool {
    std::env::var_os("SARA_BENCH_SMOKE").is_some()
}

/// Geometric mean of positive factors.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn run_small_workload() {
        let chip = ChipSpec::small_8x8();
        let w = sara_workloads::by_name("dotprod").unwrap();
        let r = run(&w.program, &chip, &CompilerOptions::default()).unwrap();
        assert!(r.cycles() > 0);
        assert!(r.pus() > 0);
        assert!(r.flops_per_cycle() > 0.0);
    }
}
