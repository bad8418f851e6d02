//! Table V: SARA vs the vanilla Plasticine compiler (PC) on the original
//! 16×8 Plasticine configuration with DDR3 DRAM. The paper reports large
//! speedups for compute-bound kernels (kmeans, gda: bigger par factors +
//! control-overhead elimination) and smaller ones for bandwidth-bound
//! kernels (logreg, sgd saturate DDR3 either way); 4.9× geo-mean.
//!
//! Each app's SARA run and PC run are separate design points on the sweep
//! pool (`SARA_BENCH_THREADS`); `SARA_BENCH_SMOKE` shrinks the inputs.

use plasticine_arch::ChipSpec;
use sara_bench::{geomean, run_pc, run_profiled};
use sara_core::compile::CompilerOptions;
use sara_util::{pool, Json};

fn apps() -> Vec<(&'static str, sara_ir::Program)> {
    use sara_workloads::{linalg, ml, streamk};
    if sara_bench::smoke() {
        return vec![
            ("kmeans", ml::kmeans(&ml::KmeansParams { n: 16, d: 32, k: 4, par_d: 16 })),
            ("dotprod", linalg::dotprod(&linalg::DotParams { n: 4096, par: 128 })),
            ("tpchq6", streamk::tpchq6(&streamk::Q6Params { n: 2048, par: 64 })),
        ];
    }
    vec![
        // compute-bound: SARA's extra parallelism + P2P control pay off
        ("kmeans", ml::kmeans(&ml::KmeansParams { n: 64, d: 32, k: 4, par_d: 16 })),
        ("gda", ml::gda(&ml::GdaParams { n: 32, d: 16, par_d: 16 })),
        ("gemm", linalg::gemm(&linalg::GemmParams { m: 32, n: 16, k: 64, par_m: 4, par_k: 16 })),
        ("dotprod", linalg::dotprod(&linalg::DotParams { n: 16384, par: 128 })),
        // bandwidth-bound: both saturate DDR3
        ("logreg", ml::logreg(&ml::RegressionParams { n: 64, d: 128, par_d: 32 })),
        ("sgd", ml::sgd(&ml::RegressionParams { n: 64, d: 128, par_d: 32 })),
        ("tpchq6", streamk::tpchq6(&streamk::Q6Params { n: 8192, par: 64 })),
        ("outerprod", linalg::outerprod(&linalg::OuterParams { n: 64, m: 128, par: 64 })),
    ]
}

struct Pt {
    app: &'static str,
    program: sara_ir::Program,
    /// Run through the vanilla-Plasticine baseline instead of SARA.
    pc: bool,
}

struct Out {
    cycles: u64,
    pus: usize,
    dram_bw: f64,
}

fn eval(pt: &Pt) -> Result<Out, String> {
    let chip = ChipSpec::vanilla_16x8();
    let r = if pt.pc {
        run_pc(&pt.program, &chip)?
    } else {
        let tag = format!("table5-{}", pt.app);
        run_profiled(&tag, &pt.program, &chip, &CompilerOptions::default())?
    };
    eprintln!("{} {}: {} cycles", pt.app, if pt.pc { "pc" } else { "sara" }, r.cycles());
    Ok(Out {
        cycles: r.cycles(),
        pus: r.pus(),
        dram_bw: r.outcome.stats.dram.achieved_bw(r.cycles()),
    })
}

fn main() {
    sara_bench::cli::parse_profile_dir_flag();
    let mut points: Vec<Pt> = Vec::new();
    for (app, program) in apps() {
        points.push(Pt { app, program: program.clone(), pc: false });
        points.push(Pt { app, program, pc: true });
    }
    let results = pool::run_points(&points, eval);
    let ok: Vec<(&Pt, Out)> = points
        .iter()
        .zip(results)
        .filter_map(|(pt, res)| match res {
            Ok(o) => Some((pt, o)),
            Err(e) => {
                eprintln!("{} {}: {e}", pt.app, if pt.pc { "pc" } else { "sara" });
                if e.starts_with("verify:") {
                    std::process::exit(1);
                }
                None
            }
        })
        .collect();

    println!(
        "{:<10} {:>11} {:>11} {:>8} {:>7} {:>7} {:>8} {:>8}",
        "app", "sara(cyc)", "pc(cyc)", "speedup", "saraPU", "pcPU", "saraBW", "pcBW"
    );
    let mut rows: Vec<Json> = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    for (pt, sara) in ok.iter().filter(|(pt, _)| !pt.pc) {
        let Some((_, pc)) = ok.iter().find(|(qt, _)| qt.app == pt.app && qt.pc) else {
            continue;
        };
        let speedup = pc.cycles as f64 / sara.cycles as f64;
        speedups.push(speedup);
        println!(
            "{:<10} {:>11} {:>11} {:>8.2} {:>7} {:>7} {:>8.2} {:>8.2}",
            pt.app, sara.cycles, pc.cycles, speedup, sara.pus, pc.pus, sara.dram_bw, pc.dram_bw
        );
        rows.push(
            Json::object()
                .set("app", pt.app)
                .set("sara_cycles", sara.cycles)
                .set("pc_cycles", pc.cycles)
                .set("speedup", speedup)
                .set("sara_pus", sara.pus)
                .set("pc_pus", pc.pus)
                .set("dram_bw_sara", sara.dram_bw)
                .set("dram_bw_pc", pc.dram_bw),
        );
    }
    let gm = geomean(&speedups);
    println!("\ngeo-mean speedup over PC: {gm:.2}x (paper: 4.9x)");
    let path = sara_bench::save_json_or_exit("table5", &Json::from(rows));
    println!("saved {}", path.display());
}
