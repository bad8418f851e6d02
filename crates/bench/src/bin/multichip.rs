//! Multi-chip scale-out: cycles for every registry workload on 1-, 2-
//! and 4-chip `small_8x8` systems.
//!
//! Each n-chip point parallelizes the workload's dominant tunable loop
//! by n (capped by its trip count, and by the SIMD width for innermost
//! loops), then shards the compiled graph across the chips — the
//! scale-out story: more chips carry proportionally more parallelism,
//! paying for it in cross-chip link traffic. The 1-chip baseline keeps
//! the registry-default knobs. A point whose scaled knobs fail any
//! pipeline phase falls back to default knobs on the same system, so a
//! row is reported for every point.
//!
//! `SARA_BENCH_SMOKE` shrinks the sweep to the embarrassingly parallel
//! workloads at 1 and 4 chips. In either mode the binary exits nonzero
//! when the scale-out contract is broken: the embarrassingly parallel
//! workloads must beat their 1-chip baseline at the largest chip count.

use plasticine_arch::{ChipSpec, SystemSpec};
use sara_bench::{run_system, Run};
use sara_dse::knobs::KnobConfig;
use sara_util::{pool, Json};

/// Workloads whose dominant loop parallelizes with no (or thin)
/// cross-iteration traffic — the floor the scale-out gate enforces.
const PARALLEL: &[&str] = &["dotprod", "outerprod", "tpchq6", "logreg", "sgd", "bs"];

#[derive(Debug, Clone)]
struct Pt {
    workload: &'static str,
    chips: u32,
}

struct Out {
    workload: &'static str,
    chips: u32,
    par: u32,
    cycles: u64,
    crossings: usize,
    cut_traffic: f64,
    fell_back: bool,
}

/// Scale the dominant tunable loop's `par` by the chip count. Spatial
/// (non-innermost) loops are preferred — their unrolling adds whole
/// units for the sharder to spread — falling back to the innermost loop
/// capped at the SIMD width.
fn scaled_knobs(knobs: &KnobConfig, chips: u32, lanes: u32) -> (KnobConfig, u32) {
    let mut k = knobs.clone();
    let pick =
        k.pars.iter().position(|l| !l.innermost).or_else(|| (!k.pars.is_empty()).then_some(0));
    let Some(i) = pick else { return (k, 1) };
    let l = &mut k.pars[i];
    let mut par = l.par.saturating_mul(chips).min(l.trip.min(u64::from(u32::MAX)) as u32).max(1);
    if l.innermost {
        par = par.min(lanes);
    }
    l.par = par;
    (k, par)
}

fn run_point(knobs: &KnobConfig, system: &SystemSpec) -> Result<(Run, usize, f64), String> {
    let p = knobs.build_program()?;
    let (r, plan) = run_system(&p, system, &knobs.compiler_options())?;
    Ok((r, plan.crossings.len(), plan.cut_traffic))
}

fn eval(pt: &Pt) -> Result<Out, String> {
    let w = sara_workloads::by_name(pt.workload).ok_or("unknown workload")?;
    let chip = ChipSpec::small_8x8();
    let system = SystemSpec::grid(chip.clone(), pt.chips);
    let base = KnobConfig::default_for(&w, "8x8", 17)?;
    let (knobs, par) = if pt.chips > 1 {
        scaled_knobs(&base, pt.chips, chip.pcu.lanes)
    } else {
        (base.clone(), 1)
    };
    let (r, par, fell_back) = match run_point(&knobs, &system) {
        Ok(ok) => (ok, par, false),
        // Scaled knobs can exceed what lowering supports (banking limits,
        // SIMD width on odd shapes): keep the point at default knobs so
        // the row still shows the system's behavior.
        Err(e) if par > 1 && !e.starts_with("verify:") => (run_point(&base, &system)?, 1, true),
        Err(e) => return Err(e),
    };
    let (run, crossings, cut_traffic) = r;
    eprintln!(
        "{} x{} par {par}: {} cycles, {} crossings",
        pt.workload,
        pt.chips,
        run.cycles(),
        crossings
    );
    Ok(Out {
        workload: pt.workload,
        chips: pt.chips,
        par,
        cycles: run.cycles(),
        crossings,
        cut_traffic,
        fell_back,
    })
}

fn main() {
    let smoke = sara_bench::smoke();
    let workloads: Vec<&'static str> =
        if smoke { PARALLEL.to_vec() } else { sara_workloads::names() };
    let counts: &[u32] = if smoke { &[1, 4] } else { &[1, 2, 4] };
    let points: Vec<Pt> = workloads
        .iter()
        .flat_map(|&w| counts.iter().map(move |&c| Pt { workload: w, chips: c }))
        .collect();

    let results = pool::run_points(&points, eval);

    let mut rows: Vec<Json> = Vec::new();
    let mut base: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    let mut speedup_at_max: std::collections::HashMap<&str, f64> = std::collections::HashMap::new();
    let max_chips = *counts.last().unwrap();
    println!(
        "{:<12} {:>5} {:>5} {:>10} {:>8} {:>9} {:>12}",
        "app", "chips", "par", "cycles", "speedup", "crossings", "cut-traffic"
    );
    for (pt, res) in points.iter().zip(results) {
        match res {
            Ok(o) => {
                let b = *base.entry(o.workload).or_insert(o.cycles);
                let speedup = b as f64 / o.cycles as f64;
                if o.chips == max_chips {
                    speedup_at_max.insert(o.workload, speedup);
                }
                println!(
                    "{:<12} {:>5} {:>5} {:>10} {:>8.2} {:>9} {:>12.1}{}",
                    o.workload,
                    o.chips,
                    o.par,
                    o.cycles,
                    speedup,
                    o.crossings,
                    o.cut_traffic,
                    if o.fell_back { "  (default knobs)" } else { "" }
                );
                rows.push(
                    Json::object()
                        .set("app", o.workload)
                        .set("chips", i64::from(o.chips))
                        .set("par", i64::from(o.par))
                        .set("cycles", o.cycles)
                        .set("speedup_vs_1chip", speedup)
                        .set("crossings", o.crossings)
                        .set("cut_traffic", o.cut_traffic)
                        .set("fell_back_to_default_knobs", o.fell_back),
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
    let path = sara_bench::save_json_or_exit("BENCH_multichip", &Json::from(rows));
    println!("\nsaved {}", path.display());

    // Scale-out gate: the embarrassingly parallel workloads must beat
    // their 1-chip baseline at the largest chip count. CI runs this
    // binary in smoke mode, so a regression in the sharder or the link
    // model fails the build rather than silently flattening the curve.
    let flat: Vec<String> = PARALLEL
        .iter()
        .filter(|w| workloads.contains(w))
        .filter_map(|&w| match speedup_at_max.get(w) {
            Some(&s) if s > 1.0 => None,
            Some(&s) => Some(format!("{w}: {s:.2}x at {max_chips} chips")),
            None => Some(format!("{w}: no {max_chips}-chip result")),
        })
        .collect();
    if !flat.is_empty() {
        eprintln!("error: no scale-out speedup for:\n  {}", flat.join("\n  "));
        std::process::exit(1);
    }
}
