//! `sarac` — the SARA compiler driver: compile a named workload, print
//! the pass-by-pass report, optionally simulate and dump the VUDFG as
//! Graphviz. `--sweep` compiles (and with `--simulate`, simulates) every
//! registry workload concurrently on the sweep pool
//! (`SARA_BENCH_THREADS` overrides the worker count).
//!
//! ```text
//! sarac <workload> [--chip 20x20|16x8|8x8|4x4] [--simulate] [--dot FILE] [--profile FILE]
//!                  [--faults PLAN] [--sanitize]
//! sarac <workload> --system 4x8x8 [--simulate] [--dot FILE] [--profile FILE]
//!                  [--faults PLAN] [--sanitize]      # multi-chip scale-out
//! sarac <workload> --autotune [--budget N] [--chip NAME]
//! sarac --knobs FILE [--simulate]
//! sarac --sweep   [--chip 20x20|16x8|8x8|4x4] [--simulate]
//! ```
//!
//! `--system <count>x<chip>` (e.g. `2x8x8`, `4x20x20`; plain chip names
//! mean one chip) compiles for the system's chip, shards the graph
//! across the chips where crossing traffic is thinnest, places each
//! chip independently, and — with `--simulate` — runs the linked
//! multi-chip simulation with rate-limited inter-chip links; `--faults`,
//! `--sanitize`, `--profile` and `--dot` work as on one chip. It names
//! the chip itself, so it is mutually exclusive with `--chip`, and it
//! takes only the direct compile path: not `--sweep`, `--autotune`,
//! `--knobs` or `--connect`.
//!
//! `--faults PLAN` (implies `--simulate`) injects the fault plan in file
//! PLAN (see the DSL in `plasticine_sim::fault`); `--sanitize` enables
//! the runtime invariant sanitizer. Both report typed diagnoses instead
//! of silent divergence.
//!
//! `--profile FILE` implies `--simulate`: the run is profiled (same
//! cycle counts), a Chrome-trace JSON is written to FILE (open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>), and the top
//! bottlenecks are printed.
//!
//! `--autotune` runs the design-space explorer (`sara-dse`) on the
//! workload and writes the best configuration as a replayable knob
//! artifact plus a tuning report into the results directory.
//! `--knobs FILE` replays such an artifact: the workload, chip, par
//! factors, optimization flags, and PnR seed all come from the file, so
//! the simulated cycle count reproduces the tuner's number exactly.
//!
//! `--connect ENDPOINT` routes work through a running `sarad` service
//! (start it with the `sarad` binary) instead of compiling in-process —
//! repeated requests are served from its content-addressed artifact
//! cache. An endpoint containing `':'` is a TCP `host:port` address;
//! anything else is a Unix socket path (the rule of `sarad --socket`):
//!
//! ```text
//! sarac --connect ENDPOINT <workload> [--chip NAME]  # cached compile+sim
//! sarac --connect ENDPOINT <workload> --autotune [--budget N]
//! sarac --connect ENDPOINT --stats                   # hit/miss counters
//! sarac --connect ENDPOINT --shutdown
//! ```
//!
//! `--connect` retries refused connections and `busy` shedding with
//! jittered backoff, and if the daemon stays unreachable it warns and
//! falls back to local in-process compilation; `--no-fallback` makes
//! an unreachable daemon a hard error instead (`--stats`/`--shutdown`
//! always hard-fail — there is no local equivalent to fall back to).

use plasticine_arch::{ChipSpec, SystemSpec};
use plasticine_sim::{simulate, simulate_system, FaultPlan, SimConfig};
use sara_bench::cli;
use sara_core::compile::{compile, CompilerOptions};
use sara_core::vudfg::{StreamKind, UnitKind, Vudfg};
use sara_util::pool;
use std::fmt::Write as _;

fn dot_of(g: &Vudfg) -> String {
    let mut out = String::from("digraph vudfg {\n  rankdir=LR;\n  node [fontsize=9];\n");
    for (i, u) in g.units.iter().enumerate() {
        let (shape, color) = match &u.kind {
            UnitKind::Vcu(_) => ("box", "lightblue"),
            UnitKind::Vmu(_) => ("cylinder", "lightyellow"),
            UnitKind::Ag(_) => ("house", "lightsalmon"),
            UnitKind::Sync(_) => ("diamond", "lightgray"),
            UnitKind::XbarDist(_) | UnitKind::XbarColl(_) => ("trapezium", "lightgreen"),
        };
        let _ = writeln!(
            out,
            "  u{i} [label=\"{}\" shape={shape} style=filled fillcolor={color}];",
            u.label.replace('"', "'")
        );
    }
    for s in &g.streams {
        let style = match s.kind {
            StreamKind::Token { .. } => "dashed",
            _ => "solid",
        };
        let label = match s.kind {
            StreamKind::Token { init } if init > 0 => format!("{init}"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "  u{} -> u{} [style={style} label=\"{label}\" fontsize=8];",
            s.src.0, s.dst.0
        );
    }
    out.push_str("}\n");
    out
}

/// `--sweep`: every registry workload through compile (+PnR, optionally
/// simulation) in parallel, one summary line per workload.
fn sweep_all(chip: &ChipSpec, do_sim: bool) -> ! {
    let names = sara_workloads::names();
    let results = pool::run_points(&names, |name| {
        let w = sara_workloads::by_name(name).ok_or("unknown workload")?;
        let mut compiled =
            compile(&w.program, chip, &CompilerOptions::default()).map_err(|e| e.to_string())?;
        let pnr = sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, chip, 42)
            .map_err(|e| e.to_string())?;
        let cycles = if do_sim {
            Some(
                simulate(&compiled.vudfg, chip, &SimConfig::default())
                    .map_err(|e| e.to_string())?
                    .cycles,
            )
        } else {
            None
        };
        Ok((compiled.report, pnr.wirelength, cycles))
    });
    println!(
        "{:<10} {:>5} {:>5} {:>5} {:>8} {:>7} {:>10}",
        "workload", "PCUs", "PMUs", "AGs", "streams", "wirelen", "cycles"
    );
    let mut failed = false;
    for (name, res) in names.iter().zip(results) {
        match res {
            Ok((report, wirelength, cycles)) => println!(
                "{:<10} {:>5} {:>5} {:>5} {:>8} {:>7} {:>10}",
                name,
                report.pcus,
                report.pmus,
                report.ags,
                report.streams,
                wirelength,
                cycles.map_or_else(|| "-".to_string(), |c| c.to_string()),
            ),
            Err(e) => {
                println!("{name:<10} FAILED: {e}");
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed));
}

/// `--autotune`: run the design-space explorer on one workload and emit
/// the replayable knob artifact plus the tuning report.
fn autotune(name: &str, chip: &ChipSpec, budget: Option<usize>) -> ! {
    let opts = sara_dse::SearchOptions {
        chip: chip.name(),
        budget: budget.unwrap_or_else(|| sara_dse::SearchOptions::default().budget),
        ..sara_dse::SearchOptions::default()
    };
    let out = sara_dse::autotune(name, &opts).unwrap_or_else(|e| {
        eprintln!("autotune error: {e}");
        std::process::exit(1);
    });
    println!("{}", sara_dse::summary_line(&out));
    let knobs = sara_bench::save_json_or_exit(&format!("{name}.knobs"), &out.best.knobs.to_json());
    let report =
        sara_bench::save_json_or_exit(&format!("{name}.report"), &sara_dse::report_json(&out));
    println!("knobs:  wrote {} (replay with: sarac --knobs <file>)", knobs.display());
    println!("report: wrote {}", report.display());
    std::process::exit(0);
}

/// `--connect ENDPOINT`: route the request through a running `sarad`
/// service instead of compiling in-process.
struct ConnectJob {
    /// Endpoint spelling: `host:port` for TCP, a path for Unix.
    socket: String,
    stats: bool,
    shutdown: bool,
    autotune: bool,
    budget: Option<usize>,
    workload: Option<String>,
    chip: String,
    /// Degrade to local in-process compilation when the daemon is
    /// unreachable (`--no-fallback` turns this into a hard error).
    fallback: bool,
}

/// Returning (instead of exiting) means: the daemon is unreachable and
/// the caller should fall back to local in-process compilation.
fn run_connect(job: &ConnectJob) {
    use sara_util::Json;
    use sarad::{client::run_with_retry_to, ClientError, Endpoint, RetryPolicy};
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("error: {}: {e}", job.socket);
        std::process::exit(1);
    };
    let policy = RetryPolicy::default();
    let endpoint = Endpoint::parse(&job.socket);
    // --stats / --shutdown have no local equivalent, so they never fall
    // back: an unreachable daemon is an error.
    if job.stats || job.shutdown {
        let mut client =
            sarad::Client::connect_to_with_retry(&endpoint, &policy).unwrap_or_else(|e| fail(&e));
        if job.shutdown {
            client.shutdown().unwrap_or_else(|e| fail(&e));
            println!("sarad: shutdown acknowledged");
        } else {
            let stats = client.stats().unwrap_or_else(|e| fail(&e));
            println!("{}", stats.pretty());
        }
        std::process::exit(0);
    }
    let Some(name) = &job.workload else {
        cli::usage_error("--connect needs a workload (or --stats / --shutdown)");
    };
    let req = if job.autotune {
        let mut req = Json::object()
            .set("op", "autotune")
            .set("workload", name.as_str())
            .set("chip", job.chip.as_str());
        if let Some(b) = job.budget {
            req = req.set("budget", b as i64);
        }
        req
    } else {
        Json::object()
            .set("op", "run")
            .set("workload", name.as_str())
            .set("chip", job.chip.as_str())
            .set("pnr_seed", 42)
    };
    // Transient failures — connection refused, `busy` shedding, dropped
    // connections, deadline timeouts — retry with jittered backoff;
    // requests are content-addressed and idempotent, so a retry re-serves
    // (or resumes) cached work.
    let lines = match run_with_retry_to(&endpoint, &req, &policy) {
        Ok(lines) => lines,
        Err(e @ ClientError::Connect(_)) if job.fallback => {
            eprintln!(
                "warning: {e}; falling back to local compilation \
                 (--no-fallback makes this an error)"
            );
            return;
        }
        Err(e) => fail(&e),
    };
    let done = lines.last().unwrap_or_else(|| fail(&"empty response"));
    if let Some(e) = done.get("error").and_then(Json::as_str) {
        fail(&e);
    }
    if job.autotune {
        let field = |k: &str| done.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "autotune {name}: {} -> {} cycles ({:.2}x), {} points, {} sims",
            field("default_cycles"),
            field("best_cycles"),
            done.get("speedup").and_then(Json::as_f64).unwrap_or(1.0),
            field("points_explored"),
            field("sims_run"),
        );
        if let Some(stats) = done.get("stats") {
            println!("cache: {}", stats.pretty());
        }
        std::process::exit(0);
    }
    for line in &lines {
        if line.get("event").and_then(Json::as_str) == Some("stage") {
            println!(
                "stage: {:<8} {}",
                line.get("stage").and_then(Json::as_str).unwrap_or("?"),
                line.get("cache").and_then(Json::as_str).unwrap_or("?"),
            );
        }
    }
    println!(
        "sim:   {} cycles, {} firings (dram blocked {:.1}%)",
        done.get("cycles").and_then(Json::as_u64).unwrap_or(0),
        done.get("firings").and_then(Json::as_u64).unwrap_or(0),
        done.get("dram_blocked_frac").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
    );
    if let Some(b) = done.get("bottleneck").and_then(Json::as_str) {
        if !b.is_empty() {
            println!("top:   {b}");
        }
    }
    std::process::exit(0);
}

/// `--knobs FILE`: replay a tuner artifact. Everything — workload, chip,
/// par factors, optimization flags, PnR seed — comes from the file.
fn load_knobs(file: &str) -> sara_dse::KnobConfig {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        cli::usage_error(&format!("cannot read knobs artifact {file}: {e}"));
    });
    sara_dse::KnobConfig::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {file}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args = cli::args();
    if args.is_empty() {
        eprintln!(
            "usage: sarac <workload> [--chip {chips}] [--simulate] [--dot FILE] [--profile FILE] [--faults PLAN] [--sanitize]",
            chips = ChipSpec::NAMES.join("|")
        );
        eprintln!(
            "       sarac <workload> --system {systems}|<count>x<chip> [--simulate] [--dot FILE] \
             [--profile FILE] [--faults PLAN] [--sanitize]",
            systems = SystemSpec::NAMES.join("|")
        );
        eprintln!("       sarac <workload> --autotune [--budget N] [--chip NAME]");
        eprintln!("       sarac --knobs FILE [--simulate]");
        eprintln!(
            "       sarac --sweep [--chip {chips}] [--simulate]",
            chips = ChipSpec::NAMES.join("|")
        );
        eprintln!(
            "       sarac --connect ENDPOINT [<workload> [--autotune] | --stats | --shutdown] \
             [--no-fallback]"
        );
        eprintln!("workloads: {}", sara_workloads::names().join(", "));
        std::process::exit(2);
    }
    let mut name: Option<String> = None;
    let mut do_sweep = false;
    let mut chip = ChipSpec::small_8x8();
    let mut chip_given = false;
    let mut system: Option<SystemSpec> = None;
    let mut do_sim = false;
    let mut dot_file: Option<String> = None;
    let mut profile_file: Option<String> = None;
    let mut faults_file: Option<String> = None;
    let mut sanitize = false;
    let mut do_autotune = false;
    let mut budget: Option<usize> = None;
    let mut knobs_file: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut do_stats = false;
    let mut do_shutdown = false;
    let mut no_fallback = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chip" => {
                chip = cli::parse_chip_or_exit(&cli::flag_value(&args, &mut i, "--chip"));
                chip_given = true;
            }
            "--system" => {
                system =
                    Some(cli::parse_system_or_exit(&cli::flag_value(&args, &mut i, "--system")));
            }
            "--simulate" => do_sim = true,
            "--sweep" => do_sweep = true,
            "--dot" => dot_file = Some(cli::flag_value(&args, &mut i, "--dot")),
            "--profile" => {
                profile_file = Some(cli::flag_value(&args, &mut i, "--profile"));
                do_sim = true;
            }
            "--faults" => {
                faults_file = Some(cli::flag_value(&args, &mut i, "--faults"));
                do_sim = true;
            }
            "--sanitize" => sanitize = true,
            "--autotune" => do_autotune = true,
            "--budget" => {
                let v = cli::flag_value(&args, &mut i, "--budget");
                budget = match v.parse() {
                    Ok(n) if n > 0 => Some(n),
                    _ => cli::usage_error("--budget needs a positive integer"),
                };
            }
            "--knobs" => knobs_file = Some(cli::flag_value(&args, &mut i, "--knobs")),
            "--connect" => connect = Some(cli::flag_value(&args, &mut i, "--connect")),
            "--stats" => do_stats = true,
            "--shutdown" => do_shutdown = true,
            "--no-fallback" => no_fallback = true,
            other if !other.starts_with('-') && name.is_none() => name = Some(other.to_string()),
            other => cli::usage_error(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if let Some(sys) = &system {
        if chip_given {
            cli::usage_error("--system names the chip itself; drop --chip");
        }
        if do_sweep || do_autotune || knobs_file.is_some() || connect.is_some() {
            cli::usage_error(
                "--system only supports the direct compile path \
                 (not --sweep / --autotune / --knobs / --connect)",
            );
        }
        chip = sys.chip.clone();
    }
    if let Some(socket) = connect {
        run_connect(&ConnectJob {
            socket,
            stats: do_stats,
            shutdown: do_shutdown,
            autotune: do_autotune,
            budget,
            workload: name.clone(),
            chip: chip.name(),
            fallback: !no_fallback,
        });
        // run_connect returning (instead of exiting) means the daemon is
        // unreachable and fallback is on: continue on the local path.
    }
    if do_stats || do_shutdown {
        cli::usage_error("--stats / --shutdown need --connect ENDPOINT");
    }
    if do_sweep {
        sweep_all(&chip, do_sim);
    }
    // Replay mode: the artifact carries its own workload/chip/knobs/seed,
    // and the whole point is the cycle count, so it implies --simulate.
    let replay = knobs_file.map(|f| {
        if name.is_some() {
            cli::usage_error(
                "--knobs replays the artifact's own workload; drop the positional name",
            );
        }
        do_sim = true;
        load_knobs(&f)
    });
    let name = match (&replay, name) {
        (Some(k), _) => k.workload.clone(),
        (None, Some(n)) => n,
        (None, None) => cli::usage_error("no workload given (or use --sweep / --knobs)"),
    };
    if do_autotune {
        if replay.is_some() {
            cli::usage_error("--autotune and --knobs are mutually exclusive");
        }
        autotune(&name, &chip, budget);
    }
    let Some(w) = sara_workloads::by_name(&name) else {
        eprintln!("unknown workload {name}");
        std::process::exit(2);
    };
    // In replay mode the artifact dictates the program knobs, chip,
    // compiler options, and PnR seed; the defaults apply otherwise.
    let (program, chip, options, pnr_seed) = match &replay {
        Some(k) => {
            let p = k.build_program().unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            // The artifact's chip field may name a multi-chip system;
            // replaying it follows the same scale-out pipeline the
            // tuner measured, reproducing its cycle count.
            let sys = k.system_spec().unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            println!("knobs: replaying {} on {} (pnr seed {})", k.key(), k.chip, k.pnr_seed);
            let c = sys.chip.clone();
            if sys.count > 1 {
                system = Some(sys);
            }
            (p, c, k.compiler_options(), k.pnr_seed)
        }
        None => (w.program.clone(), chip, CompilerOptions::default(), 42),
    };
    println!("== {} ({}) ==", w.name, w.domain);
    println!("{}", program.pretty());
    let mut compiled = match compile(&program, &chip, &options) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compile error: {e}");
            std::process::exit(1);
        }
    };
    println!("vudfg: {}", compiled.vudfg.summary());
    println!(
        "cmmc:  {} -> {} sync edges after reduction",
        compiled.cmmc_stats.before(),
        compiled.cmmc_stats.after()
    );
    println!(
        "chip:  {} PCUs, {} PMUs, {} AGs, {} retime units ({} streams, {} tokens)",
        compiled.report.pcus,
        compiled.report.pmus,
        compiled.report.ags,
        compiled.report.retime_units,
        compiled.report.streams,
        compiled.report.token_streams
    );
    // Multi-chip systems shard the graph and place every chip; the plan
    // is kept for the linked simulation below.
    let mut plan: Option<sara_core::shard::ShardPlan> = None;
    match &system {
        Some(sys) if sys.count > 1 => {
            let r = sara_pnr::place_and_route_system(
                &mut compiled.vudfg,
                &compiled.assignment,
                sys,
                pnr_seed,
            )
            .unwrap_or_else(|e| {
                eprintln!("pnr error: {e}");
                std::process::exit(1);
            });
            let used: std::collections::HashSet<u32> = r.plan.chip_of.iter().copied().collect();
            println!(
                "shard: {} of {} chips used, {} crossings, cut traffic {:.1}",
                used.len(),
                sys.count,
                r.plan.crossings.len(),
                r.plan.cut_traffic
            );
            println!(
                "pnr:   wirelength {} over {} chips",
                r.chips.iter().map(|c| c.wirelength).sum::<u64>(),
                r.chips.len()
            );
            plan = Some(r.plan);
        }
        _ => {
            let pnr = sara_pnr::place_and_route(
                &mut compiled.vudfg,
                &compiled.assignment,
                &chip,
                pnr_seed,
            )
            .unwrap_or_else(|e| {
                eprintln!("pnr error: {e}");
                std::process::exit(1);
            });
            println!("pnr:   wirelength {}, max link use {}", pnr.wirelength, pnr.max_link_use);
        }
    }
    if let Some(f) = dot_file {
        if let Err(e) = std::fs::write(&f, dot_of(&compiled.vudfg)) {
            eprintln!("error: cannot write dot file {f}: {e}");
            std::process::exit(1);
        }
        println!("dot:   wrote {f}");
    }
    if do_sim {
        let mut cfg =
            if profile_file.is_some() { SimConfig::profiled() } else { SimConfig::default() };
        cfg.sanitize = sanitize;
        if let Some(f) = faults_file {
            let text = std::fs::read_to_string(&f).unwrap_or_else(|e| {
                eprintln!("error: cannot read fault plan {f}: {e}");
                std::process::exit(2);
            });
            let plan = FaultPlan::parse(&text).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            println!("faults: {} fault(s) armed from {f}", plan.faults.len());
            cfg.faults = Some(plan);
        }
        let outcome = match (&system, &plan) {
            (Some(sys), Some(p)) => simulate_system(&compiled.vudfg, sys, p, &cfg),
            _ => simulate(&compiled.vudfg, &chip, &cfg),
        };
        match outcome {
            Ok(o) => {
                println!(
                    "sim:   {} cycles, {:.2} flop/cycle, dram {:.1} B/cycle",
                    o.cycles,
                    o.stats.firings as f64 / o.cycles as f64,
                    o.stats.dram.achieved_bw(o.cycles)
                );
                if let (Some(f), Some(prof)) = (profile_file, o.profile.as_ref()) {
                    let doc = sara_bench::trace::chrome_trace(&format!("{name} sim"), prof);
                    if let Err(e) = std::fs::write(&f, doc.pretty()) {
                        eprintln!("error: cannot write profile trace {f}: {e}");
                        std::process::exit(1);
                    }
                    println!("trace: wrote {f} (open in chrome://tracing or ui.perfetto.dev)");
                    print!("{}", sara_core::report::bottleneck_summary(prof, 5));
                }
            }
            Err(e) => {
                eprintln!("sim error: {e}");
                std::process::exit(1);
            }
        }
    }
}
