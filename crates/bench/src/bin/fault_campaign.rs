//! `fault-campaign` — seeded fault-injection campaign over the registry
//! workloads.
//!
//! For each workload the campaign first runs fault-free with the
//! invariant sanitizer enabled (the baseline must pass cleanly), then
//! derives a set of seeded single-fault plans from the compiled graph
//! ([`plasticine_sim::seeded_plan`]) and replays the workload under each.
//! Every faulted run must end in one of the accepted outcomes:
//!
//! * **recovered** — completed with the baseline's exact DRAM image
//!   (timing-only faults, absorbed retries, faults that never landed);
//! * **corrupt-detected** — completed but the image differs from the
//!   baseline (a payload corruption propagated; the campaign's diff is
//!   the detector);
//! * **sanitizer** — aborted with a typed [`plasticine_sim::SanitizerReport`];
//! * **watchdog** — deadlocked with a structured wait-for diagnosis;
//! * **typed-fault** — a typed `SimError::Dram`/`SimError::Fault`.
//!
//! A panic, an undiagnosed `Timeout`, or a plan the config validator
//! rejects is a **FAIL**: the fault model's contract is "recover or
//! explain", never "hang or crash". Results are written as a JSON
//! artifact and the exit code is nonzero iff any run failed.
//!
//! ```text
//! fault-campaign [--chip 20x20|16x8|8x8] [--plans N] [--seed S]
//!                [--workload NAME] [--dense] [--out NAME] [--plan FILE]
//! ```
//!
//! `--plan FILE` replays one explicit fault-plan file (see the DSL in
//! `plasticine_sim::fault`) instead of deriving seeded plans.

use plasticine_arch::ChipSpec;
use plasticine_sim::{seeded_plan, simulate, FaultPlan, SimConfig, SimError};
use sara_bench::cli;
use sara_core::compile::{compile, CompilerOptions};
use sara_util::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Campaign outcome classes, in the order they appear in the summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Recovered,
    CorruptDetected,
    Sanitizer,
    Watchdog,
    TypedFault,
    Fail,
}

impl Outcome {
    fn label(self) -> &'static str {
        match self {
            Outcome::Recovered => "recovered",
            Outcome::CorruptDetected => "corrupt-detected",
            Outcome::Sanitizer => "sanitizer",
            Outcome::Watchdog => "watchdog",
            Outcome::TypedFault => "typed-fault",
            Outcome::Fail => "FAIL",
        }
    }
}

struct Row {
    workload: String,
    plan: String,
    outcome: Outcome,
    detail: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: fault-campaign [--chip {}] [--plans N] [--seed S]\n\
         \x20                     [--workload NAME] [--dense] [--out NAME] [--plan FILE]",
        ChipSpec::NAMES.join("|")
    );
    std::process::exit(2);
}

/// Classify one faulted run against the fault-free baseline.
fn classify(
    result: Result<Result<plasticine_sim::SimOutcome, SimError>, String>,
    baseline: &plasticine_sim::SimOutcome,
) -> (Outcome, String) {
    match result {
        Err(panic_msg) => (Outcome::Fail, format!("panic: {panic_msg}")),
        Ok(Ok(o)) => {
            if o.dram_final == baseline.dram_final {
                (Outcome::Recovered, format!("completed in {} cycles", o.cycles))
            } else {
                (
                    Outcome::CorruptDetected,
                    format!(
                        "completed in {} cycles but DRAM image differs from baseline",
                        o.cycles
                    ),
                )
            }
        }
        Ok(Err(e)) => match &e {
            SimError::Sanitizer(r) => (
                Outcome::Sanitizer,
                format!("{} at cycle {}: {}", r.invariant.label(), r.cycle, r.detail),
            ),
            SimError::Deadlock { cycle, report, .. } => (
                Outcome::Watchdog,
                format!(
                    "deadlock at cycle {cycle}: {} member(s), cycle={}",
                    report.members.len(),
                    report.is_cycle
                ),
            ),
            SimError::Dram { .. } | SimError::Fault { .. } => (Outcome::TypedFault, e.to_string()),
            SimError::Timeout { cycle } => {
                (Outcome::Fail, format!("undiagnosed timeout at cycle {cycle}"))
            }
            SimError::Config { message } => {
                (Outcome::Fail, format!("plan rejected by config validation: {message}"))
            }
        },
    }
}

fn main() {
    let args = cli::args();
    let mut chip = ChipSpec::small_8x8();
    let mut plans_per_workload = 6u64;
    let mut seed = 0xFA017u64;
    let mut only: Option<String> = None;
    let mut dense = false;
    let mut out_name = "fault_campaign".to_string();
    let mut plan_file: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chip" => chip = cli::parse_chip_or_exit(&cli::flag_value(&args, &mut i, "--chip")),
            "--plans" => {
                plans_per_workload =
                    cli::flag_value(&args, &mut i, "--plans").parse().unwrap_or_else(|_| usage());
            }
            "--seed" => {
                seed = cli::flag_value(&args, &mut i, "--seed").parse().unwrap_or_else(|_| usage());
            }
            "--workload" => only = Some(cli::flag_value(&args, &mut i, "--workload")),
            "--dense" => dense = true,
            "--out" => out_name = cli::flag_value(&args, &mut i, "--out"),
            "--plan" => plan_file = Some(cli::flag_value(&args, &mut i, "--plan")),
            "--help" | "-h" => usage(),
            other => cli::usage_error(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let explicit_plan = plan_file.map(|f| {
        let text = std::fs::read_to_string(&f).unwrap_or_else(|e| {
            eprintln!("error: cannot read plan file {f}: {e}");
            std::process::exit(2);
        });
        FaultPlan::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    });

    let workloads = sara_workloads::all_small();
    let mut rows: Vec<Row> = Vec::new();
    let mut failed = false;

    for (wi, w) in workloads.iter().enumerate() {
        if let Some(name) = &only {
            if w.name != name {
                continue;
            }
        }
        let mut compiled = match compile(&w.program, &chip, &CompilerOptions::default()) {
            Ok(c) => c,
            Err(e) => {
                rows.push(Row {
                    workload: w.name.to_string(),
                    plan: String::new(),
                    outcome: Outcome::Fail,
                    detail: format!("compile error: {e}"),
                });
                failed = true;
                continue;
            }
        };
        if let Err(e) =
            sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, &chip, 42)
        {
            rows.push(Row {
                workload: w.name.to_string(),
                plan: String::new(),
                outcome: Outcome::Fail,
                detail: format!("pnr error: {e}"),
            });
            failed = true;
            continue;
        }
        // Fault-free baseline, sanitizer on: must pass cleanly.
        let base_cfg = SimConfig { sanitize: true, dense, ..SimConfig::default() };
        let baseline = match simulate(&compiled.vudfg, &chip, &base_cfg) {
            Ok(o) => o,
            Err(e) => {
                rows.push(Row {
                    workload: w.name.to_string(),
                    plan: "(baseline, no faults)".to_string(),
                    outcome: Outcome::Fail,
                    detail: format!("fault-free baseline failed: {e}"),
                });
                failed = true;
                continue;
            }
        };
        let plans: Vec<FaultPlan> = match &explicit_plan {
            Some(p) => vec![p.clone()],
            None => (0..plans_per_workload)
                .map(|pi| {
                    seeded_plan(
                        &compiled.vudfg,
                        seed ^ ((wi as u64) << 32) ^ pi,
                        // Arm within the live window of the run.
                        (baseline.cycles * 3 / 4).max(2),
                    )
                })
                .collect(),
        };
        for plan in plans {
            let plan_text = plan.to_string().trim_end().replace('\n', "; ");
            let cfg = SimConfig {
                faults: Some(plan),
                sanitize: true,
                dense,
                // Time-box: a faulted run may be slower (stalls, delays,
                // retries) but not unboundedly so.
                max_cycles: baseline.cycles * 50 + 1_000_000,
                ..SimConfig::default()
            };
            let result = catch_unwind(AssertUnwindSafe(|| simulate(&compiled.vudfg, &chip, &cfg)))
                .map_err(|e| panic_message(&e));
            let (outcome, detail) = classify(result, &baseline);
            if outcome == Outcome::Fail {
                failed = true;
            }
            println!("{:<10} {:<44} {:<16} {}", w.name, plan_text, outcome.label(), detail);
            rows.push(Row { workload: w.name.to_string(), plan: plan_text, outcome, detail });
        }
    }

    // Summary.
    let mut counts: Vec<(Outcome, u64)> = [
        Outcome::Recovered,
        Outcome::CorruptDetected,
        Outcome::Sanitizer,
        Outcome::Watchdog,
        Outcome::TypedFault,
        Outcome::Fail,
    ]
    .iter()
    .map(|&o| (o, rows.iter().filter(|r| r.outcome == o).count() as u64))
    .collect();
    counts.retain(|(_, n)| *n > 0);
    println!("---");
    println!(
        "campaign: {} runs — {}",
        rows.len(),
        counts.iter().map(|(o, n)| format!("{} {}", n, o.label())).collect::<Vec<_>>().join(", ")
    );

    let json = Json::object()
        .set("seed", Json::Int(seed as i64))
        .set(
            "runs",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::object()
                            .set("workload", Json::Str(r.workload.clone()))
                            .set("plan", Json::Str(r.plan.clone()))
                            .set("outcome", Json::Str(r.outcome.label().to_string()))
                            .set("detail", Json::Str(r.detail.clone()))
                    })
                    .collect(),
            ),
        )
        .set(
            "summary",
            counts.iter().fold(Json::object(), |j, (o, n)| j.set(o.label(), Json::Int(*n as i64))),
        );
    let path = sara_bench::save_json_or_exit(&out_name, &json);
    println!("wrote {}", path.display());
    std::process::exit(i32::from(failed));
}

/// Extract a printable message from a caught panic payload.
fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}
