//! Table IV: benchmark characteristics — domain, control depth, memory
//! counts, access counts, dynamic op/traffic counts and data-dependent
//! control flow.
//!
//! Workloads are characterized concurrently on the sweep pool
//! (`SARA_BENCH_THREADS`); `SARA_BENCH_SMOKE` keeps only a handful.

use sara_ir::interp::Interp;
use sara_ir::MemKind;
use sara_util::{pool, Json};

struct Row {
    name: String,
    domain: String,
    ctrl_depth: usize,
    loops: usize,
    hyperblocks: usize,
    drams: usize,
    srams: usize,
    regs: usize,
    accesses: usize,
    exprs: usize,
    data_dependent: bool,
    flops: u64,
    dram_bytes: u64,
    arithmetic_intensity: f64,
}

fn eval(name: &&'static str) -> Result<Row, String> {
    let w = sara_workloads::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let p = &w.program;
    let stats = Interp::new(p).run().map_err(|e| format!("interp: {e}"))?.stats;
    let loops = p.ctrls.iter().filter(|c| matches!(c.kind, sara_ir::CtrlKind::Loop(_))).count();
    let dyn_ctrl = p.ctrls.iter().any(|c| {
        matches!(c.kind, sara_ir::CtrlKind::Branch { .. } | sara_ir::CtrlKind::DoWhile { .. })
    }) || p.ctrls.iter().any(|c| {
        matches!(&c.kind, sara_ir::CtrlKind::Loop(s)
            if s.min.as_const().is_none() || s.max.as_const().is_none())
    });
    let count_kind = |k: MemKind| p.mems.iter().filter(|m| m.kind == k).count();
    Ok(Row {
        name: w.name.to_string(),
        domain: w.domain.to_string(),
        ctrl_depth: p.control_depth(),
        loops,
        hyperblocks: p.leaves().len(),
        drams: count_kind(MemKind::Dram),
        srams: count_kind(MemKind::Sram),
        regs: count_kind(MemKind::Reg),
        accesses: p.accesses().len(),
        exprs: p.total_exprs(),
        data_dependent: dyn_ctrl,
        flops: stats.flops,
        dram_bytes: stats.dram_bytes(),
        arithmetic_intensity: stats.flops as f64 / stats.dram_bytes().max(1) as f64,
    })
}

fn main() {
    // Uniform fig/table CLI surface: accept --profile-dir with the same
    // exit-2 contract as the simulating binaries (this table only runs
    // the interpreter, so no profile artifacts are produced).
    sara_bench::cli::parse_profile_dir_flag();
    let mut names = sara_workloads::names();
    if sara_bench::smoke() {
        names.truncate(4);
    }
    let results = pool::run_points(&names, eval);
    println!(
        "{:<10} {:<14} {:>5} {:>6} {:>4} {:>5} {:>5} {:>5} {:>5} {:>6} {:>7} {:>10} {:>10} {:>6}",
        "name",
        "domain",
        "depth",
        "loops",
        "hbs",
        "dram",
        "sram",
        "reg",
        "accs",
        "exprs",
        "dynctl",
        "flops",
        "drambytes",
        "AI"
    );
    let mut rows: Vec<Json> = Vec::new();
    for (name, res) in names.iter().zip(results) {
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: {e}");
                continue;
            }
        };
        println!(
            "{:<10} {:<14} {:>5} {:>6} {:>4} {:>5} {:>5} {:>5} {:>5} {:>6} {:>7} {:>10} {:>10} {:>6.2}",
            r.name,
            r.domain,
            r.ctrl_depth,
            r.loops,
            r.hyperblocks,
            r.drams,
            r.srams,
            r.regs,
            r.accesses,
            r.exprs,
            r.data_dependent,
            r.flops,
            r.dram_bytes,
            r.arithmetic_intensity
        );
        rows.push(
            Json::object()
                .set("name", r.name.as_str())
                .set("domain", r.domain.as_str())
                .set("ctrl_depth", r.ctrl_depth)
                .set("loops", r.loops)
                .set("hyperblocks", r.hyperblocks)
                .set("drams", r.drams)
                .set("srams", r.srams)
                .set("regs", r.regs)
                .set("accesses", r.accesses)
                .set("exprs", r.exprs)
                .set("data_dependent", r.data_dependent)
                .set("flops", r.flops)
                .set("dram_bytes", r.dram_bytes)
                .set("arithmetic_intensity", r.arithmetic_intensity),
        );
    }
    let path = sara_bench::save_json_or_exit("table4", &Json::from(rows));
    println!("\nsaved {}", path.display());
}
