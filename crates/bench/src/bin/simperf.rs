//! `simperf` — simulator-throughput benchmark over the registry
//! workloads, the data source for the `BENCH_sim_throughput.json`
//! perf trajectory that CI gates on.
//!
//! For each registry workload the program is compiled and
//! placed-and-routed once (same chip and PnR seed as the golden-cycle
//! oracle, so the simulated graphs are exactly the ones the bit-identity
//! suite pins), then `simulate` is timed over an adaptive number of
//! repetitions. The figure of merit is **simulated cycles per wall-clock
//! second**; the summary is the geometric mean across workloads.
//!
//! Because absolute cycles/sec differ between machines, the artifact also
//! records a `calib_mops` score from a fixed deterministic integer
//! microbenchmark. `--baseline FILE` compares calibration-normalized
//! geomeans — `(geomean/calib)` now vs then — and exits 1 when
//! throughput regressed more than `--max-regress` (default 0.20). This
//! is what lets the CI perf-trajectory job gate on a baseline committed
//! from a different machine.
//!
//! ```text
//! simperf [--chip 20x20|16x8|8x8] [--workload NAME] [--dense]
//!         [--out NAME] [--baseline FILE] [--max-regress FRAC]
//! ```
//!
//! `SARA_BENCH_SMOKE` shrinks the measurement windows so the whole run
//! fits in CI smoke budgets; cycles/sec is noisier but the 20% gate has
//! margin for it on top of calibration normalization.

use plasticine_arch::ChipSpec;
use plasticine_sim::simulate;
use sara_bench::{cli, geomean, save_json_or_exit, sim_config, smoke};
use sara_core::compile::{compile, CompilerOptions};
use sara_util::Json;
use std::time::Instant;

/// PnR seed matching `golden_cycles.rs`: the measured graphs are the
/// pinned ones.
const PNR_SEED: u64 = 7;

fn usage() -> ! {
    eprintln!(
        "usage: simperf [--chip {}] [--workload NAME] [--dense]\n\
         \x20              [--out NAME] [--baseline FILE] [--max-regress FRAC]",
        ChipSpec::NAMES.join("|")
    );
    std::process::exit(2);
}

/// Fixed-work integer microbenchmark (xorshift64* mix), in Mops/s.
///
/// Single-threaded and allocation-free, like the simulator hot loop, so
/// it tracks the machine speed that matters for cycles/sec. The result
/// feeds the calibration-normalized baseline comparison.
fn calibrate() -> f64 {
    const ITERS: u64 = 40_000_000;
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(x);
    ITERS as f64 / dt / 1e6
}

/// Calibration-normalized geomean from a baseline artifact, or a
/// one-line error.
fn baseline_norm(path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("baseline {path}: {e}"))?;
    let geo = doc
        .get("geomean_cycles_per_sec")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("baseline {path}: missing geomean_cycles_per_sec"))?;
    let calib = doc
        .get("calib_mops")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("baseline {path}: missing calib_mops"))?;
    if !(geo > 0.0 && calib > 0.0) {
        return Err(format!("baseline {path}: non-positive geomean/calibration"));
    }
    Ok(geo / calib)
}

fn main() {
    let args = cli::args();
    let mut chip_name = "8x8".to_string();
    let mut only: Option<String> = None;
    let mut out = "BENCH_sim_throughput".to_string();
    let mut baseline: Option<String> = None;
    let mut max_regress = 0.20f64;
    let mut dense = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chip" => chip_name = cli::flag_value(&args, &mut i, "--chip"),
            "--workload" => only = Some(cli::flag_value(&args, &mut i, "--workload")),
            "--out" => out = cli::flag_value(&args, &mut i, "--out"),
            "--baseline" => baseline = Some(cli::flag_value(&args, &mut i, "--baseline")),
            "--max-regress" => {
                let v = cli::flag_value(&args, &mut i, "--max-regress");
                max_regress = match v.parse::<f64>() {
                    Ok(f) if (0.0..1.0).contains(&f) => f,
                    _ => cli::usage_error(&format!(
                        "--max-regress {v}: expected a fraction in [0,1)"
                    )),
                };
            }
            "--dense" => dense = true,
            "--help" | "-h" => usage(),
            other => cli::usage_error(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    let chip = cli::parse_chip_or_exit(&chip_name);
    let cfg = if dense { plasticine_sim::SimConfig::dense() } else { sim_config() };

    // Measurement windows: long enough for stable cycles/sec in a full
    // run, a few hundred ms total in smoke mode.
    let (min_wall_s, min_reps) = if smoke() { (0.06, 2) } else { (0.40, 3) };

    let calib_mops = calibrate();

    let mut rows = Vec::new();
    let mut cps_all = Vec::new();
    for w in sara_workloads::all_small() {
        if only.as_deref().is_some_and(|n| n != w.name) {
            continue;
        }
        let mut compiled = match compile(&w.program, &chip, &CompilerOptions::default()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {}: compile: {e}", w.name);
                std::process::exit(1);
            }
        };
        if let Err(e) =
            sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, &chip, PNR_SEED)
        {
            eprintln!("error: {}: pnr: {e}", w.name);
            std::process::exit(1);
        }

        // Warmup run: correctness check + per-run cost estimate.
        let t0 = Instant::now();
        let cycles = match simulate(&compiled.vudfg, &chip, &cfg) {
            Ok(o) => o.cycles,
            Err(e) => {
                eprintln!("error: {}: sim: {e}", w.name);
                std::process::exit(1);
            }
        };
        let per_run = t0.elapsed().as_secs_f64().max(1e-9);

        let reps = ((min_wall_s / per_run).ceil() as u64).max(min_reps);
        let t1 = Instant::now();
        for _ in 0..reps {
            // A sim error after warm-up (e.g. a DRAM stall under a future
            // config) must be a one-line diagnostic like the warmup arm
            // above, not an `.expect` abort of the whole bench run.
            let o = match simulate(&compiled.vudfg, &chip, &cfg) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {}: sim (rep): {e}", w.name);
                    std::process::exit(1);
                }
            };
            if o.cycles != cycles {
                eprintln!(
                    "error: {}: nondeterministic cycle count ({} vs {})",
                    w.name, o.cycles, cycles
                );
                std::process::exit(1);
            }
        }
        let wall_s = t1.elapsed().as_secs_f64().max(1e-9);
        let cps = cycles as f64 * reps as f64 / wall_s;
        eprintln!("{:>9}: {:>6} cycles  x{:<5} {:>8.1} kcyc/s", w.name, cycles, reps, cps / 1e3);
        cps_all.push(cps);
        rows.push(
            Json::object()
                .set("workload", Json::Str(w.name.to_string()))
                .set("cycles", Json::Int(cycles as i64))
                .set("reps", Json::Int(reps as i64))
                .set("wall_s", Json::Float(wall_s))
                .set("cycles_per_sec", Json::Float(cps)),
        );
    }
    if rows.is_empty() {
        cli::usage_error("no workload matched (see sara-workloads registry for names)");
    }

    let geo = geomean(&cps_all);
    let doc = Json::object()
        .set("schema", Json::Str("sim-throughput/v1".into()))
        .set("chip", Json::Str(chip_name.clone()))
        .set("pnr_seed", Json::Int(PNR_SEED as i64))
        .set("scheduler", Json::Str(if dense { "dense".into() } else { "active".into() }))
        .set("smoke", Json::Bool(smoke()))
        .set("calib_mops", Json::Float(calib_mops))
        .set("geomean_cycles_per_sec", Json::Float(geo))
        .set("workloads", Json::Array(rows));
    let path = save_json_or_exit(&out, &doc);
    println!(
        "geomean {:.1} kcyc/s (calibration {:.0} Mops/s) -> {}",
        geo / 1e3,
        calib_mops,
        path.display()
    );

    if let Some(bpath) = baseline {
        let base_norm = match baseline_norm(&bpath) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let norm = geo / calib_mops;
        let ratio = norm / base_norm;
        println!(
            "vs baseline {bpath}: {:.2}x calibration-normalized ({} allowed)",
            ratio,
            format_args!(">= {:.2}x", 1.0 - max_regress),
        );
        if ratio < 1.0 - max_regress {
            eprintln!(
                "error: sim throughput regressed {:.0}% vs baseline (limit {:.0}%)",
                (1.0 - ratio) * 100.0,
                max_regress * 100.0
            );
            std::process::exit(1);
        }
    }
}
