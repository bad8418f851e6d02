//! Pipeline benchmark for the SARA stack.
//!
//! ```text
//! perfbench --workload <fabric20|simlong|multichip|tune> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, sets up (inputs plus one
//! warm-up op) several times, then runs whole passes over the
//! workload's distinct ops, on one thread, until `--seconds` have
//! passed. Every op's result is checked. Host times are scaled to a
//! reference host speed with a calibration kernel run between ops (see
//! `calib`). The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics from the
//! spans with `--trace 1`. A traced run also writes its spans to
//! `.perfbench/trace-<workload>-<seed>.json`.

mod calib;
mod ops;
mod trace;
mod workloads;

use ops::{Counts, Done};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Calibration-kernel runs on each side of an op whose median gives the
/// op's host-speed factor: single 3 ms kernel runs jitter, while the
/// host's phases last seconds.
const SPEED_WINDOW: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fabric20|simlong|multichip|tune> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn geomean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = v.into_iter().fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What the measured passes produced.
struct Measured {
    names: Vec<String>,
    /// Wall time of every repeat of every distinct op; `times[i][p]` is
    /// op `i` in pass `p`.
    times: Vec<Vec<f64>>,
    /// Verified ops of each pass.
    verified: Vec<u32>,
    /// Host-speed factor of every op run, indexed like `times`:
    /// `calib::speed` of the median calibration-kernel time in a window
    /// of [`SPEED_WINDOW`] runs of the kernel on each side of the op.
    speed: Vec<Vec<f64>>,
    /// The first successful result of every distinct op.
    first: Vec<Option<Done>>,
    passes: usize,
    attempted: u64,
    failed: u64,
    wall: f64,
}

/// Run whole passes over the workload's ops until `budget` has passed,
/// with the calibration kernel between ops. An op fails on a stage
/// error, a failed result check, or a result that differs from the op's
/// first run.
fn measure(w: &mut Workload, budget: Duration, tr: &Tracer) -> Measured {
    let names = w.op_names();
    let n = names.len();
    let mut m = Measured {
        times: vec![Vec::new(); n],
        verified: Vec::new(),
        speed: vec![Vec::new(); n],
        first: vec![None; n],
        names,
        passes: 0,
        attempted: 0,
        failed: 0,
        wall: 0.0,
    };
    let start = Instant::now();
    let mut op_id = 0u32;
    let mut kernel_s = vec![calib::measure()];
    while m.passes == 0 || start.elapsed() < budget {
        let mut verified = 0u32;
        for i in 0..n {
            tr.set_op(op_id);
            op_id += 1;
            let t = Instant::now();
            let r = tr.span("op", || w.run_op(i, m.passes, tr));
            m.times[i].push(t.elapsed().as_secs_f64());
            kernel_s.push(calib::measure());
            m.attempted += 1;
            let problem = match r {
                Err(e) => Some(e),
                Ok(done) => {
                    let bad = done.counts.get("verify.mismatches").copied().unwrap_or(0.0);
                    match &m.first[i] {
                        _ if bad > 0.0 => Some(format!("{bad} result mismatches")),
                        Some(f) if *f != done => Some("result differs from the first run".into()),
                        Some(_) => None,
                        None => {
                            m.first[i] = Some(done);
                            None
                        }
                    }
                }
            };
            if let Some(e) = problem {
                m.failed += 1;
                eprintln!("op {} (pass {}) failed: {e}", m.names[i], m.passes);
            } else {
                verified += 1;
            }
        }
        m.verified.push(verified);
        m.passes += 1;
    }
    m.wall = start.elapsed().as_secs_f64();
    // Kernel run `j` came just before op run `j` (pass-major order).
    for j in 0..kernel_s.len() - 1 {
        let lo = j.saturating_sub(SPEED_WINDOW - 1);
        let hi = (j + SPEED_WINDOW).min(kernel_s.len() - 1);
        let k = median(&mut kernel_s[lo..=hi].to_vec());
        m.speed[j % n].push(calib::speed(k));
    }
    m
}

/// End-to-end metrics that come from timing the ops, at the reference
/// host speed (or as measured, when `scaled` is false): verified ops per
/// second of the median pass, and the geometric mean over distinct ops
/// of each op's median time. Medians, because host speed moves in
/// phases (see `calib`) that a mean carries into the result.
fn op_metrics(m: &Measured, scaled: bool) -> (f64, f64) {
    let time = |i: usize, p: usize| m.times[i][p] * if scaled { m.speed[i][p] } else { 1.0 };
    let n = m.names.len();
    let mut rates: Vec<f64> = (0..m.passes)
        .map(|p| f64::from(m.verified[p]) / (0..n).map(|i| time(i, p)).sum::<f64>())
        .collect();
    let geo =
        geomean((0..n).map(|i| median(&mut (0..m.passes).map(|p| time(i, p)).collect::<Vec<_>>())));
    (median(&mut rates), geo)
}

/// Per-layer metrics: counts per pass (summed over the distinct ops'
/// first results) and each layer's self time per pass from the spans,
/// each span scaled to the reference host speed by its op's factor.
fn layer_metrics(m: &Measured, tr: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    let mut c = Counts::new();
    for d in m.first.iter().flatten() {
        for (k, v) in &d.counts {
            *c.entry(k).or_insert(0.0) += v;
        }
    }
    let n = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let n_ops = m.names.len();
    let speed = |op: u32| m.speed[op as usize % n_ops][op as usize / n_ops];
    let self_s = trace::self_seconds(&tr.spans(), speed);
    let t = |k: &str| self_s.get(k).copied().unwrap_or(0.0) / m.passes as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (ops_per_s, geo) = op_metrics(m, true);
    vec![
        ("ir.interp_s", t("ir"), "s"),
        ("ir.ops", n("ir.ops"), "count"),
        ("core.compile_s", t("core"), "s"),
        ("core.units", n("core.units"), "count"),
        ("core.streams", n("core.streams"), "count"),
        ("pnr.place_s", t("pnr"), "s"),
        ("pnr.iterations", n("pnr.iterations"), "count"),
        ("pnr.us_per_iter", ratio(t("pnr") * 1e6, n("pnr.iterations")), "us"),
        ("pnr.wirelength", n("pnr.wirelength"), "hops"),
        ("pnr.max_link_use", n("pnr.max_link_use"), "count"),
        ("shard.crossings", n("shard.crossings"), "count"),
        ("shard.cut_traffic", n("shard.cut_traffic"), "elems"),
        ("shard.chips_used", n("shard.chips_used"), "count"),
        ("sim.sim_s", t("sim"), "s"),
        ("sim.cycles", n("sim.cycles"), "cycles"),
        ("sim.firings", n("sim.firings"), "count"),
        ("sim.cycles_per_s", ratio(n("sim.cycles"), t("sim")), "cycles/s"),
        ("sim.ns_per_firing", ratio(t("sim") * 1e9, n("sim.firings")), "ns"),
        ("dram.bytes", n("dram.bytes"), "bytes"),
        ("dram.requests", n("dram.requests"), "count"),
        (
            "dram.row_hit_ratio",
            ratio(n("dram.row_hits"), n("dram.row_hits") + n("dram.row_misses")),
            "ratio",
        ),
        ("verify.s", t("verify"), "s"),
        ("verify.elems", n("verify.elems"), "count"),
        ("verify.mismatches", n("verify.mismatches"), "count"),
        ("dse.search_s", t("dse"), "s"),
        ("dse.points_explored", n("dse.points_explored"), "count"),
        ("dse.sims_run", n("dse.sims_run"), "count"),
        ("dse.infeasible_pruned", n("dse.infeasible_pruned"), "count"),
        ("dse.rounds", n("dse.rounds"), "count"),
        ("sarad.evaluate_s", t("sarad.evaluate"), "s"),
        ("sarad.simulate_s", t("sarad.simulate"), "s"),
        ("sarad.open_s", t("sarad.open"), "s"),
        ("sarad.compiles_run", n("sarad.compiles_run"), "count"),
        ("sarad.pnrs_run", n("sarad.pnrs_run"), "count"),
        ("sarad.sims_run", n("sarad.sims_run"), "count"),
        ("sarad.disk_hits", n("sarad.disk_hits"), "count"),
        (
            "sarad.compile_hit_ratio",
            ratio(n("sarad.compile_hits"), n("sarad.compile_hits") + n("sarad.compile_misses")),
            "ratio",
        ),
        (
            "sarad.sim_hit_ratio",
            ratio(n("sarad.sim_hits"), n("sarad.sim_hits") + n("sarad.sim_misses")),
            "ratio",
        ),
        ("sarad.store_bytes", n("sarad.store_bytes"), "bytes"),
        ("traced.ops_per_s", ops_per_s, "ops/s"),
        ("traced.op_geomean_s", geo, "s"),
        ("host.speed", median(&mut m.speed.concat()), "ratio"),
    ]
}

/// Human-readable summary on standard error: op metrics as measured
/// and scaled, per-op times as measured and, when traced, each layer's
/// share of a pass.
fn report(args: &Args, m: &Measured, tr: &Tracer, w: &Workload) {
    let ((raw_rate, raw_geo), (rate, geo)) = (op_metrics(m, false), op_metrics(m, true));
    let (lo, hi) =
        m.speed.iter().flatten().fold((f64::MAX, 0.0f64), |(l, h), &s| (l.min(s), h.max(s)));
    eprintln!(
        "{} seed {}: {} passes, {} ops ({} failed) in {:.2} s; host speed {lo:.3}..{hi:.3}; \
         ops/s {raw_rate:.4} measured, {rate:.4} scaled; op geomean {raw_geo:.5} s measured, \
         {geo:.5} s scaled",
        args.workload, args.seed, m.passes, m.attempted, m.failed, m.wall
    );
    for (i, name) in m.names.iter().enumerate() {
        let t = &m.times[i];
        let (cycles, pus) = match (&m.first[i], w.counts_design(i)) {
            (Some(d), true) => (d.cycles.to_string(), d.pus.to_string()),
            _ => ("-".into(), "-".into()),
        };
        eprintln!(
            "  {name:<22} {:>9.4} s mean over {:>2}  cycles {cycles:>9}  PUs {pus:>4}",
            t.iter().sum::<f64>() / t.len() as f64,
            t.len()
        );
    }
    if args.trace {
        let busy: f64 = m.times.iter().flatten().sum();
        let mut shares = String::new();
        for (name, s) in trace::self_seconds(&tr.spans(), |_| 1.0) {
            let _ = write!(shares, " {name} {:.1}%", 100.0 * s / busy);
        }
        eprintln!("  self-time shares of {:.3} s per pass:{shares}", busy / m.passes as f64);
    }
}

fn write_trace(args: &Args, m: &Measured, tr: &Tracer) -> Result<(), String> {
    let doc = sara_util::json::Json::object()
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("ops", m.names.clone())
        .set("spans", trace::spans_json(&tr.spans()));
    let path = std::path::Path::new(".perfbench")
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::create_dir_all(".perfbench").map_err(|e| format!("create .perfbench: {e}"))?;
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<String, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut work = None;
    for _ in 0..SETUPS {
        let before = calib::measure();
        let t = Instant::now();
        let w = Workload::build(&args.workload, args.seed)?;
        w.warm_up().map_err(|e| format!("warm-up: {e}"))?;
        let took = t.elapsed().as_secs_f64();
        setups.push(took * calib::speed((before + calib::measure()) / 2.0));
        work = Some(w);
    }
    eprintln!("set-ups at reference speed: {setups:.4?} s");
    let mut w = work.expect("at least one set-up");
    let tr = Tracer::new(args.trace);
    let m = measure(&mut w, Duration::from_secs(args.seconds), &tr);
    report(args, &m, &tr, &w);

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        write_trace(args, &m, &tr)?;
        layer_metrics(&m, &tr)
    } else {
        let (ops_per_s, geo) = op_metrics(&m, true);
        let designs = || (0..m.names.len()).filter(|&i| w.counts_design(i)).map(|i| &m.first[i]);
        vec![
            ("ops_per_s", ops_per_s, "ops/s"),
            ("op_geomean_s", geo, "s"),
            ("setup_s", median(&mut setups), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            ("sim_cycles_geomean", geomean(designs().flatten().map(|d| d.cycles as f64)), "cycles"),
            ("pus_total", designs().flatten().map(|d| d.pus as f64).sum(), "PUs"),
        ]
    };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.failed == 0,
        m.attempted,
        m.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    Ok(line)
}

fn main() {
    // One worker: on a 2-vCPU host extra threads would time the OS
    // scheduler, and the span recorder keeps one stack of open spans
    // (see `trace`).
    std::env::set_var(sara_util::pool::THREADS_ENV, "1");
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
