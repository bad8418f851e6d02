//! Fig 9a: performance and resource scaling with parallelization.
//!
//! Starting from a fully pipelined design, the parallelization factor of
//! the dominant loops is swept; the paper reports near-linear performance
//! scaling until on-chip resources (compute-bound `mlp`) or DRAM
//! bandwidth (memory-bound `rf`) saturate.
//!
//! Design points are independent and run concurrently on the sweep pool
//! (`SARA_BENCH_THREADS` overrides the worker count); result order is
//! deterministic regardless of thread count. `SARA_BENCH_SMOKE` shrinks
//! the sweep to a few seconds for CI.

use plasticine_arch::ChipSpec;
use sara_bench::{run_profiled, Run};
use sara_core::compile::CompilerOptions;
use sara_util::{pool, Json};
use sara_workloads::{graph, linalg, streamk};

/// One design point: a series and its parallelization factors.
#[derive(Debug, Clone, Copy)]
enum Pt {
    Mlp { pi: u32, pn: u32 },
    Rf { pn: u32 },
    Q6 { par: u32 },
}

struct Out {
    app: &'static str,
    par: u32,
    cycles: u64,
    flops_per_cycle: f64,
    pus: usize,
    pcus: usize,
    pmus: usize,
    dram_bw: f64,
}

fn out_of(app: &'static str, par: u32, r: &Run) -> Out {
    Out {
        app,
        par,
        cycles: r.cycles(),
        flops_per_cycle: r.flops_per_cycle(),
        pus: r.pus(),
        pcus: r.compiled.report.pcus,
        pmus: r.compiled.report.pmus,
        dram_bw: r.outcome.stats.dram.achieved_bw(r.cycles()),
    }
}

fn eval(pt: &Pt) -> Result<Out, String> {
    let smoke = sara_bench::smoke();
    match *pt {
        // mlp: compute-bound, no batch parallelism; sweep the intra-layer
        // factors (vectorize the reduction, then spatially unroll neurons).
        Pt::Mlp { pi, pn } => {
            let chip = ChipSpec::sara_20x20();
            let (d_in, d_hidden, d_out) = if smoke { (32, 32, 8) } else { (256, 256, 64) };
            let p = linalg::mlp(&linalg::MlpParams {
                d_in,
                d_hidden,
                d_out,
                par_inner: pi,
                par_neuron: pn,
            });
            let tag = format!("fig9a-mlp-par{}", pi * pn);
            let r = run_profiled(&tag, &p, &chip, &CompilerOptions::default())?;
            eprintln!("mlp par {}: {} cycles, {} PUs", pi * pn, r.cycles(), r.pus());
            Ok(out_of("mlp", pi * pn, &r))
        }
        // rf: gather-heavy, saturates DRAM bandwidth before compute.
        Pt::Rf { pn } => {
            let chip = ChipSpec::sara_20x20();
            let (n, trees) = if smoke { (16, 2) } else { (64, 8) };
            let p = graph::rf(&graph::RfParams { n, d: 16, trees, depth: 4, seed: 9, par_n: pn });
            let tag = format!("fig9a-rf-par{pn}");
            let r = run_profiled(&tag, &p, &chip, &CompilerOptions::default())?;
            eprintln!("rf par {pn}: {} cycles, {} PUs", r.cycles(), r.pus());
            Ok(out_of("rf", pn, &r))
        }
        // tpchq6 on the DDR3 chip: a streaming aggregation that hits the
        // off-chip bandwidth wall — performance saturates once achieved
        // DRAM bandwidth approaches the 49 B/cycle DDR3 peak (the paper's
        // memory-bound half of Fig 9a).
        Pt::Q6 { par } => {
            let chip = ChipSpec::vanilla_16x8();
            let n = if smoke { 2048 } else { 16384 };
            let p = streamk::tpchq6(&streamk::Q6Params { n, par });
            let tag = format!("fig9a-tpchq6-ddr3-par{par}");
            let r = run_profiled(&tag, &p, &chip, &CompilerOptions::default())?;
            eprintln!("tpchq6 par {par}: {} cycles, {} PUs", r.cycles(), r.pus());
            Ok(out_of("tpchq6-ddr3", par, &r))
        }
    }
}

fn main() {
    sara_bench::cli::parse_profile_dir_flag();
    let smoke = sara_bench::smoke();
    let mut points: Vec<Pt> = Vec::new();
    let mlp_sweep: &[(u32, u32)] = if smoke {
        &[(1, 1), (16, 1)]
    } else {
        &[(1, 1), (2, 1), (4, 1), (8, 1), (16, 1), (16, 2), (16, 4), (16, 8), (16, 16)]
    };
    points.extend(mlp_sweep.iter().map(|&(pi, pn)| Pt::Mlp { pi, pn }));
    let rf_sweep: &[u32] = if smoke { &[1, 4] } else { &[1, 2, 4, 8, 16, 32] };
    points.extend(rf_sweep.iter().map(|&pn| Pt::Rf { pn }));
    let q6_sweep: &[u32] = if smoke { &[1, 16] } else { &[1, 4, 16, 32, 64, 128] };
    points.extend(q6_sweep.iter().map(|&par| Pt::Q6 { par }));

    let results = pool::run_points(&points, eval);

    // Results come back in sweep order, so the first successful point of
    // each series is its speedup baseline, exactly as in the sequential
    // version.
    let mut rows: Vec<Json> = Vec::new();
    let mut base: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    println!(
        "{:<12} {:>5} {:>10} {:>8} {:>9} {:>5} {:>5} {:>5} {:>8}",
        "app", "par", "cycles", "flop/cy", "speedup", "PUs", "PCUs", "PMUs", "dramB/cy"
    );
    for (pt, res) in points.iter().zip(results) {
        match res {
            Ok(o) => {
                let b = *base.entry(o.app).or_insert(o.cycles);
                let speedup = b as f64 / o.cycles as f64;
                println!(
                    "{:<12} {:>5} {:>10} {:>8.2} {:>9.2} {:>5} {:>5} {:>5} {:>8.2}",
                    o.app,
                    o.par,
                    o.cycles,
                    o.flops_per_cycle,
                    speedup,
                    o.pus,
                    o.pcus,
                    o.pmus,
                    o.dram_bw
                );
                rows.push(
                    Json::object()
                        .set("app", o.app)
                        .set("par", i64::from(o.par))
                        .set("cycles", o.cycles)
                        .set("flops_per_cycle", o.flops_per_cycle)
                        .set("speedup_vs_par1", speedup)
                        .set("pus", o.pus)
                        .set("pcus", o.pcus)
                        .set("pmus", o.pmus)
                        .set("dram_bw_bytes_per_cycle", o.dram_bw),
                );
            }
            Err(e) => {
                eprintln!("{pt:?}: {e}");
                if e.starts_with("verify:") {
                    std::process::exit(1);
                }
            }
        }
    }
    let path = sara_bench::save_json_or_exit("fig9a", &Json::from(rows));
    println!("\nsaved {}", path.display());
}
