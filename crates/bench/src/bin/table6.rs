//! Table VI: SARA on the 20×20 Plasticine (HBM2, 1 TB/s) vs a Tesla V100.
//!
//! The GPU side is the calibrated analytical model (see DESIGN.md
//! substitution #3). The paper reports a 1.9× geo-mean for SARA with 12%
//! of the GPU's silicon; dense `snet` loses in absolute terms (the chip
//! is 8.3× smaller) but wins area-normalized, while gather-heavy `rf`,
//! dataflow-friendly `ms` and sparse `pr` win outright.
//!
//! Apps run concurrently on the sweep pool (`SARA_BENCH_THREADS`);
//! `SARA_BENCH_SMOKE` shrinks the app set.

use plasticine_arch::ChipSpec;
use sara_baselines::gpu::{estimate, launches_of, GpuClass, V100};
use sara_bench::{geomean, run_profiled};
use sara_core::compile::CompilerOptions;
use sara_util::{pool, Json};

fn apps() -> Vec<(&'static str, sara_ir::Program)> {
    use sara_workloads::{cnn, graph, ml, sort, streamk};
    if sara_bench::smoke() {
        return vec![
            ("lstm", ml::lstm(&ml::LstmParams { t: 4, h: 16, par_h: 16 })),
            ("bs", streamk::bs(&streamk::BsParams { n: 512, par: 16 })),
            ("ms", streamk::ms(&streamk::MsParams { n: 64 })),
        ];
    }
    vec![
        ("snet", cnn::snet(&cnn::SnetParams { img: 10, c_in: 4, c_out: 8, par_oc: 4, par_k: 16 })),
        ("lstm", ml::lstm(&ml::LstmParams { t: 8, h: 16, par_h: 16 })),
        ("pr", graph::pr(&graph::PrParams { v: 64, avg_deg: 4, seed: 7, par_v: 2 })),
        ("bs", streamk::bs(&streamk::BsParams { n: 2048, par: 16 })),
        ("sort", sort::sort(&sort::SortParams { n: 64 })),
        ("rf", graph::rf(&graph::RfParams { n: 64, d: 16, trees: 8, depth: 4, seed: 9, par_n: 4 })),
        ("ms", streamk::ms(&streamk::MsParams { n: 256 })),
    ]
}

struct Pt {
    app: &'static str,
    program: sara_ir::Program,
}

struct Out {
    sara_cycles: u64,
    sara_us: f64,
    gpu_us: f64,
    speedup: f64,
    area_norm_speedup: f64,
    gpu_compute_bound: bool,
    sara_pus: usize,
}

fn eval(pt: &Pt) -> Result<Out, String> {
    let chip = ChipSpec::sara_20x20();
    let v100 = V100::default();
    let tag = format!("table6-{}", pt.app);
    let sara = run_profiled(&tag, &pt.program, &chip, &CompilerOptions::default())?;
    let class = GpuClass::of_workload(pt.app);
    let launches = launches_of(pt.app);
    let gpu = estimate(&v100, class, &sara.interp, launches);
    let sara_s = sara.seconds(&chip);
    let speedup = gpu.seconds / sara_s;
    eprintln!("{}: done ({} cycles)", pt.app, sara.cycles());
    Ok(Out {
        sara_cycles: sara.cycles(),
        sara_us: sara_s * 1e6,
        gpu_us: gpu.seconds * 1e6,
        speedup,
        area_norm_speedup: speedup * (v100.area_mm2 / chip.area_mm2),
        gpu_compute_bound: gpu.compute_bound,
        sara_pus: sara.pus(),
    })
}

fn main() {
    sara_bench::cli::parse_profile_dir_flag();
    let points: Vec<Pt> = apps().into_iter().map(|(app, program)| Pt { app, program }).collect();
    let results = pool::run_points(&points, eval);

    println!(
        "{:<6} {:>11} {:>9} {:>9} {:>8} {:>9} {:>6} {:>5}",
        "app", "sara(cyc)", "sara(us)", "gpu(us)", "speedup", "area-norm", "gpuCB", "PUs"
    );
    let mut rows: Vec<Json> = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    for (pt, res) in points.iter().zip(results) {
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{} sara: {e}", pt.app);
                if e.starts_with("verify:") {
                    std::process::exit(1);
                }
                continue;
            }
        };
        speedups.push(r.speedup);
        println!(
            "{:<6} {:>11} {:>9.2} {:>9.2} {:>8.2} {:>9.2} {:>6} {:>5}",
            pt.app,
            r.sara_cycles,
            r.sara_us,
            r.gpu_us,
            r.speedup,
            r.area_norm_speedup,
            r.gpu_compute_bound,
            r.sara_pus
        );
        rows.push(
            Json::object()
                .set("app", pt.app)
                .set("sara_cycles", r.sara_cycles)
                .set("sara_us", r.sara_us)
                .set("gpu_us", r.gpu_us)
                .set("speedup", r.speedup)
                .set("area_norm_speedup", r.area_norm_speedup)
                .set("gpu_compute_bound", r.gpu_compute_bound)
                .set("sara_pus", r.sara_pus),
        );
    }
    let gm = geomean(&speedups);
    println!("\ngeo-mean speedup over V100: {gm:.2}x (paper: 1.9x)");
    let path = sara_bench::save_json_or_exit("table6", &Json::from(rows));
    println!("saved {}", path.display());
}
