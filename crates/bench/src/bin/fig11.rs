//! Fig 11: traversal-based vs solver-based partitioning/merging.
//!
//! (a) normalized physical compute units after partition+merge: the
//!     solver tracks the best solution; traversal orders can be worse;
//! (b/c) compile time: traversal runs orders of magnitude faster than the
//!     branch-and-bound solver (the paper's minutes-vs-hours gap, scaled
//!     down with instance size).
//!
//! (app, algorithm) cells run concurrently on the sweep pool. Because
//! this figure measures *wall-clock compile time*, run with
//! `SARA_BENCH_THREADS=1` when you want undisturbed timing numbers —
//! concurrent workers share cores and inflate each other's latencies.
//! The PCU counts (axis a) are unaffected by threading.

use plasticine_arch::ChipSpec;
use sara_core::compile::{compile, CompilerOptions};
use sara_core::partition::{Algo, SolverCfg, TraversalOrder};
use sara_util::{pool, Json};
use std::time::Instant;

fn algos() -> Vec<(String, Algo)> {
    let budget_ms = if sara_bench::smoke() { 200 } else { 5_000 };
    let mut v: Vec<(String, Algo)> =
        TraversalOrder::ALL.iter().map(|o| (format!("{o:?}"), Algo::Traversal(*o))).collect();
    v.push(("Solver".to_string(), Algo::Solver(SolverCfg { gap: 0.15, budget_ms })));
    v
}

fn apps() -> Vec<(&'static str, sara_ir::Program)> {
    use sara_workloads::{cnn, linalg, ml, streamk};
    let mut v = vec![
        (
            "mlp",
            linalg::mlp(&linalg::MlpParams {
                d_in: 64,
                d_hidden: 64,
                d_out: 16,
                par_inner: 16,
                par_neuron: 2,
            }),
        ),
        ("lstm", ml::lstm(&ml::LstmParams { t: 4, h: 16, par_h: 8 })),
    ];
    if !sara_bench::smoke() {
        v.push(("bs", streamk::bs(&streamk::BsParams { n: 256, par: 16 })));
        v.push((
            "snet",
            cnn::snet(&cnn::SnetParams { img: 8, c_in: 3, c_out: 8, par_oc: 2, par_k: 9 }),
        ));
        v.push((
            "gemm",
            linalg::gemm(&linalg::GemmParams { m: 16, n: 16, k: 32, par_m: 2, par_k: 16 }),
        ));
    }
    v
}

struct Pt {
    app: &'static str,
    program: sara_ir::Program,
    algo_name: String,
    algo: Algo,
}

struct Out {
    pcus: usize,
    compile_ms: f64,
}

fn eval(pt: &Pt) -> Result<Out, String> {
    let chip = ChipSpec::sara_20x20();
    let opts = CompilerOptions {
        partition_algo: pt.algo,
        merge_algo: pt.algo,
        ..CompilerOptions::default()
    };
    let t0 = Instant::now();
    let c = compile(&pt.program, &chip, &opts).map_err(|e| e.to_string())?;
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!("{}/{}: {} PCUs in {compile_ms:.1} ms", pt.app, pt.algo_name, c.report.pcus);
    Ok(Out { pcus: c.report.pcus, compile_ms })
}

fn main() {
    // Uniform fig/table CLI surface: accept --profile-dir (exit-2 contract
    // on a missing value) even though this figure never simulates — the
    // flag selects a directory for run_profiled artifacts, and compile-time
    // measurement has none to write.
    sara_bench::cli::parse_profile_dir_flag();
    let mut points: Vec<Pt> = Vec::new();
    for (app, program) in apps() {
        for (algo_name, algo) in algos() {
            points.push(Pt { app, program: program.clone(), algo_name, algo });
        }
    }
    let results = pool::run_points(&points, eval);
    let ok: Vec<(&Pt, Out)> = points
        .iter()
        .zip(results)
        .filter_map(|(pt, res)| match res {
            Ok(o) => Some((pt, o)),
            Err(e) => {
                eprintln!("{}/{}: {e}", pt.app, pt.algo_name);
                None
            }
        })
        .collect();

    // Normalize each app's PCU counts to the best algorithm for that app.
    println!("{:<6} {:<9} {:>6} {:>10} {:>12}", "app", "algo", "PCUs", "normalized", "compile(ms)");
    let mut rows: Vec<Json> = Vec::new();
    for (pt, o) in &ok {
        let best = ok
            .iter()
            .filter(|(qt, _)| qt.app == pt.app)
            .map(|(_, q)| q.pcus)
            .min()
            .unwrap_or(1)
            .max(1);
        let normalized = o.pcus as f64 / best as f64;
        println!(
            "{:<6} {:<9} {:>6} {:>10.2} {:>12.2}",
            pt.app, pt.algo_name, o.pcus, normalized, o.compile_ms
        );
        rows.push(
            Json::object()
                .set("app", pt.app)
                .set("algo", pt.algo_name.as_str())
                .set("pcus", o.pcus)
                .set("normalized", normalized)
                .set("compile_ms", o.compile_ms),
        );
    }
    let path = sara_bench::save_json_or_exit("fig11", &Json::from(rows));
    println!("\nsaved {}", path.display());
}
