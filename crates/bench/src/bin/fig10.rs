//! Fig 10: effectiveness of individual compiler optimizations — the
//! speedup (and resource delta) of enabling each optimization relative to
//! a baseline with it disabled, per application.
//!
//! Ablation axes implemented in this reproduction:
//! * `reduce`  — CMMC dependency-graph reduction (§III-A3)
//! * `relax`   — credit relaxation / multibuffered overlap (retime's
//!   performance component in the paper's taxonomy)
//! * `retime`  — retiming-buffer insertion on imbalanced joins
//! * `retime-m`— scratchpads (PMUs) as retiming buffers (resource shift)
//!
//! Every (app, variant) cell — including each app's all-optimizations
//! baseline — is an independent design point on the sweep pool
//! (`SARA_BENCH_THREADS`); `SARA_BENCH_SMOKE` shrinks the app set.

use plasticine_arch::ChipSpec;
use sara_bench::run_profiled;
use sara_core::compile::CompilerOptions;
use sara_util::{pool, Json};

const VARIANTS: &[&str] = &["reduce", "relax", "retime", "retime-m"];

/// Compiler options with one optimization ablated (`None` = baseline).
fn opts_of(variant: Option<&str>) -> CompilerOptions {
    let mut o = CompilerOptions::default();
    match variant {
        None => {}
        Some("reduce") => o.lower.cmmc.reduce = false,
        Some("relax") => o.lower.cmmc.relax_credits = false,
        Some("retime") => o.opt.retime = false,
        Some("retime-m") => o.opt.retime_m = false,
        Some(other) => panic!("unknown variant {other}"),
    }
    o
}

fn program_of(app: &str) -> sara_ir::Program {
    use sara_workloads::{linalg, ml, streamk};
    match app {
        "mlp" => linalg::mlp(&linalg::MlpParams {
            d_in: 64,
            d_hidden: 64,
            d_out: 16,
            par_inner: 16,
            par_neuron: 2,
        }),
        "lstm" => ml::lstm(&ml::LstmParams { t: 6, h: 16, par_h: 8 }),
        "bs" => streamk::bs(&streamk::BsParams { n: 512, par: 16 }),
        "gda" => ml::gda(&ml::GdaParams { n: 16, d: 12, par_d: 4 }),
        other => panic!("unknown app {other}"),
    }
}

#[derive(Debug, Clone, Copy)]
struct Pt {
    app: &'static str,
    /// `None` is the all-optimizations baseline for the app.
    variant: Option<&'static str>,
}

struct Out {
    cycles: u64,
    pus: usize,
    token_streams: usize,
}

fn eval(pt: &Pt) -> Result<Out, String> {
    let chip = ChipSpec::sara_20x20();
    let p = program_of(pt.app);
    let tag = format!("fig10-{}-{}", pt.app, pt.variant.unwrap_or("baseline"));
    let r = run_profiled(&tag, &p, &chip, &opts_of(pt.variant))?;
    eprintln!("{}/{}: {} cycles", pt.app, pt.variant.unwrap_or("baseline"), r.cycles());
    Ok(Out { cycles: r.cycles(), pus: r.pus(), token_streams: r.compiled.report.token_streams })
}

fn main() {
    sara_bench::cli::parse_profile_dir_flag();
    let apps: &[&str] =
        if sara_bench::smoke() { &["mlp", "bs"] } else { &["mlp", "lstm", "bs", "gda"] };
    let mut points: Vec<Pt> = Vec::new();
    for &app in apps {
        points.push(Pt { app, variant: None });
        for &v in VARIANTS {
            points.push(Pt { app, variant: Some(v) });
        }
    }

    let results = pool::run_points(&points, eval);
    let by_pt: Vec<(&Pt, Result<Out, String>)> = points.iter().zip(results).collect();
    for (pt, res) in &by_pt {
        if let Err(e) = res {
            eprintln!("{}/{}: {e}", pt.app, pt.variant.unwrap_or("baseline"));
            if e.starts_with("verify:") {
                std::process::exit(1);
            }
        }
    }

    let mut rows: Vec<Json> = Vec::new();
    println!(
        "{:<6} {:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "app", "opt", "speedup", "PUs+", "PUs-", "tok+", "tok-"
    );
    for &app in apps {
        let Some(with) = by_pt.iter().find_map(|(pt, res)| {
            (pt.app == app && pt.variant.is_none()).then(|| res.as_ref().ok()).flatten()
        }) else {
            continue;
        };
        for (pt, res) in &by_pt {
            let (Some(v), true) = (pt.variant, pt.app == app) else { continue };
            if let Ok(without) = res {
                let speedup = without.cycles as f64 / with.cycles as f64;
                println!(
                    "{:<6} {:<10} {:>8.2} {:>8} {:>8} {:>8} {:>8}",
                    app,
                    v,
                    speedup,
                    with.pus,
                    without.pus,
                    with.token_streams,
                    without.token_streams
                );
                rows.push(
                    Json::object()
                        .set("app", app)
                        .set("opt", v)
                        .set("speedup", speedup)
                        .set("pus_with", with.pus)
                        .set("pus_without", without.pus)
                        .set("token_streams_with", with.token_streams)
                        .set("token_streams_without", without.token_streams),
                );
            }
        }
    }
    let path = sara_bench::save_json_or_exit("fig10", &Json::from(rows));
    println!("\nsaved {}", path.display());
}
