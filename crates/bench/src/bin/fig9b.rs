//! Fig 9b: the performance/resource trade-off space. Each point is one
//! (parallelization, optimization-set) configuration; the Pareto frontier
//! is marked. Optimizations push points up (faster) and left (cheaper),
//! expanding the frontier.
//!
//! All configurations are independent and run concurrently on the sweep
//! pool (`SARA_BENCH_THREADS`); `SARA_BENCH_SMOKE` shrinks the sweep.

use plasticine_arch::ChipSpec;
use sara_bench::run_profiled;
use sara_core::compile::CompilerOptions;
use sara_core::opt::OptConfig;
use sara_util::{pool, Json};
use sara_workloads::{linalg, ml};

const OPT_SETS: &[&str] = &["all", "none", "no-retime"];

fn opts_of(name: &str) -> CompilerOptions {
    let mut o = CompilerOptions::default();
    match name {
        "all" => {}
        "none" => {
            o.opt = OptConfig::none();
            o.lower.cmmc.relax_credits = false;
        }
        "no-retime" => o.opt.retime = false,
        other => panic!("unknown opt set {other}"),
    }
    o
}

/// One configuration: app, its parallelization factors, and an opt set.
#[derive(Debug, Clone, Copy)]
struct Pt {
    app: &'static str,
    pi: u32,
    pn: u32,
    opts: &'static str,
}

struct Out {
    pus: usize,
    perf: f64,
    cycles: u64,
}

fn eval(pt: &Pt) -> Result<Out, String> {
    let chip = ChipSpec::sara_20x20();
    let p = match pt.app {
        "mlp" => linalg::mlp(&linalg::MlpParams {
            d_in: 64,
            d_hidden: 64,
            d_out: 16,
            par_inner: pt.pi,
            par_neuron: pt.pn,
        }),
        "gda" => ml::gda(&ml::GdaParams { n: 24, d: 16, par_d: pt.pi }),
        "lstm" => ml::lstm(&ml::LstmParams { t: 6, h: 16, par_h: pt.pi }),
        other => return Err(format!("unknown app {other}")),
    };
    let tag = format!("fig9b-{}-p{}x{}-{}", pt.app, pt.pi, pt.pn, pt.opts);
    let r = run_profiled(&tag, &p, &chip, &opts_of(pt.opts))?;
    eprintln!(
        "{} par {} {}: {} cycles {} PUs",
        pt.app,
        pt.pi * pt.pn,
        pt.opts,
        r.cycles(),
        r.pus()
    );
    Ok(Out { pus: r.pus(), perf: 1.0e6 / r.cycles() as f64, cycles: r.cycles() })
}

fn main() {
    sara_bench::cli::parse_profile_dir_flag();
    let smoke = sara_bench::smoke();
    let mut points: Vec<Pt> = Vec::new();
    let mlp_pars: &[(u32, u32)] =
        if smoke { &[(1, 1), (16, 1)] } else { &[(1, 1), (4, 1), (16, 1), (16, 2), (16, 4)] };
    let gda_pars: &[u32] = if smoke { &[1, 16] } else { &[1, 4, 16, 32] };
    let lstm_pars: &[u32] = if smoke { &[1, 16] } else { &[1, 8, 16] };
    for &(pi, pn) in mlp_pars {
        for &opts in OPT_SETS {
            points.push(Pt { app: "mlp", pi, pn, opts });
        }
    }
    for &par in gda_pars {
        for &opts in OPT_SETS {
            points.push(Pt { app: "gda", pi: par, pn: 1, opts });
        }
    }
    for &par in lstm_pars {
        for &opts in OPT_SETS {
            points.push(Pt { app: "lstm", pi: par, pn: 1, opts });
        }
    }

    let results = pool::run_points(&points, eval);
    let ok: Vec<(&Pt, Out)> = points
        .iter()
        .zip(results)
        .filter_map(|(pt, res)| match res {
            Ok(o) => Some((pt, o)),
            Err(e) => {
                eprintln!("{} par {} {}: {e}", pt.app, pt.pi * pt.pn, pt.opts);
                if e.starts_with("verify:") {
                    std::process::exit(1);
                }
                None
            }
        })
        .collect();

    // Per-app Pareto frontier: no other point of the same app is both
    // cheaper and faster.
    let pareto: Vec<bool> = ok
        .iter()
        .enumerate()
        .map(|(i, (pt, o))| {
            !ok.iter().enumerate().any(|(j, (qt, q))| {
                j != i
                    && qt.app == pt.app
                    && q.pus <= o.pus
                    && q.perf >= o.perf
                    && (q.pus, q.perf) != (o.pus, o.perf)
            })
        })
        .collect();

    println!(
        "{:<6} {:>5} {:<10} {:>5} {:>11} {:>7}",
        "app", "par", "opts", "PUs", "perf(1/Mcy)", "pareto"
    );
    let mut rows: Vec<Json> = Vec::new();
    for ((pt, o), is_pareto) in ok.iter().zip(&pareto) {
        println!(
            "{:<6} {:>5} {:<10} {:>5} {:>11.3} {:>7}",
            pt.app,
            pt.pi * pt.pn,
            pt.opts,
            o.pus,
            o.perf,
            is_pareto
        );
        rows.push(
            Json::object()
                .set("app", pt.app)
                .set("par", pt.pi * pt.pn)
                .set("opts", pt.opts)
                .set("pus", o.pus)
                .set("cycles", o.cycles)
                .set("perf", o.perf)
                .set("pareto", *is_pareto),
        );
    }
    let path = sara_bench::save_json_or_exit("fig9b", &Json::from(rows));
    println!("\nsaved {}", path.display());
}
