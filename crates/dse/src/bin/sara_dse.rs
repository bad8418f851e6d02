//! `sara-dse`: the design-space exploration driver.
//!
//! Tunes par factors, optimization flags, and (with `--tune-chip`) the
//! chip configuration for one registry workload or all of them, then
//! writes two artifacts per workload:
//!
//! * `<workload>.knobs.json` — the best configuration, replayable via
//!   `sarac --knobs <file>` (bit-identical cycle count);
//! * `<workload>.report.json` — the tuning report (points explored,
//!   cost-model error, speedup over default knobs, frontier).
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage error.

use sara_dse::{autotune, report_json, search::evaluate, summary_line, KnobConfig, SearchOptions};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: sara-dse --workload NAME | --all
  [--budget N]      candidate-point budget (default 200)
  [--chip NAME]     target chip: 20x20 | 16x8 | 8x8 | 4x4 (default 8x8)
  [--seed S]        place-and-route seed (default 42)
  [--beam B]        beam width (default 4)
  [--sim-top K]     simulations per round (default 3)
  [--tune-chip]     also search across chip configurations
  [--out-dir DIR]   artifact directory (default $SARA_BENCH_RESULTS_DIR or ./results)
  [--assert-improves]  exit 1 unless every tuned workload beats its default knobs";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

struct Args {
    workloads: Vec<String>,
    opts: SearchOptions,
    out_dir: PathBuf,
    assert_improves: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload: Option<String> = None;
    let mut all = false;
    let mut opts = SearchOptions::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut assert_improves = false;

    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--all" => all = true,
            "--budget" => {
                opts.budget = value("--budget")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--budget needs a positive integer")?;
            }
            "--chip" => opts.chip = value("--chip")?,
            "--seed" => {
                opts.pnr_seed = value("--seed")?.parse().map_err(|_| "--seed needs an integer")?
            }
            "--beam" => {
                opts.beam = value("--beam")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--beam needs a positive integer")?;
            }
            "--sim-top" => {
                opts.sim_top = value("--sim-top")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--sim-top needs a positive integer")?;
            }
            "--tune-chip" => opts.tune_chip = true,
            "--out-dir" => out_dir = Some(PathBuf::from(value("--out-dir")?)),
            "--assert-improves" => assert_improves = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let workloads = match (workload, all) {
        (Some(_), true) => return Err("--workload and --all are mutually exclusive".into()),
        (Some(w), false) => vec![w],
        (None, true) => sara_workloads::names().into_iter().map(String::from).collect(),
        (None, false) => return Err("one of --workload or --all is required".into()),
    };
    let out_dir = out_dir.unwrap_or_else(|| {
        std::env::var_os("SARA_BENCH_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results")))
    });
    Ok(Args { workloads, opts, out_dir, assert_improves })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => return usage_error(&msg),
    };

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("error: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }

    let tune_all = args.workloads.len() > 1;
    let mut all_improved = true;
    for name in &args.workloads {
        // In --all mode, a workload whose default knobs do not fit the
        // target chip is skipped rather than failing the whole sweep
        // (with --workload the same situation is a hard error).
        if tune_all {
            let fits = sara_workloads::by_name(name)
                .ok_or_else(|| format!("unknown workload {name}"))
                .and_then(|w| KnobConfig::default_for(&w, &args.opts.chip, args.opts.pnr_seed))
                .and_then(|k| evaluate(&k))
                .map(|p| p.feasible);
            match fits {
                Ok(true) => {}
                Ok(false) => {
                    println!("{name}: skipped (default knobs do not fit chip {})", args.opts.chip);
                    continue;
                }
                Err(e) => {
                    eprintln!("error: {name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let out = match autotune(name, &args.opts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", summary_line(&out));
        let improved = match (out.best.simulated, out.default_point.simulated) {
            (Some(best), Some(default)) => best < default,
            _ => false,
        };
        all_improved &= improved;

        let knobs_path = args.out_dir.join(format!("{name}.knobs.json"));
        let report_path = args.out_dir.join(format!("{name}.report.json"));
        let write = |path: &PathBuf, text: String| {
            std::fs::write(path, text + "\n")
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        if let Err(e) = write(&knobs_path, out.best.knobs.to_json().pretty())
            .and_then(|()| write(&report_path, report_json(&out).pretty()))
        {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("  wrote {}", knobs_path.display());
        println!("  wrote {}", report_path.display());
    }

    if args.assert_improves && !all_improved {
        eprintln!("error: --assert-improves: at least one workload did not beat its default knobs");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
