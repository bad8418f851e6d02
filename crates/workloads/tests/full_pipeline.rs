//! End-to-end differential tests for every workload: the compiled,
//! placed-and-routed, cycle-simulated result must equal the sequential
//! interpreter's bit-for-bit on every DRAM tensor.

use plasticine_arch::ChipSpec;
use plasticine_sim::{simulate, verify_dram, SimConfig};
use sara_core::compile::{compile, CompilerOptions};
use sara_ir::interp::Interp;
use sara_ir::Program;

fn check(p: &Program, chip: &ChipSpec, opts: &CompilerOptions) -> u64 {
    p.validate().expect("valid");
    let reference = Interp::new(p).run().expect("interp");
    let mut compiled = compile(p, chip, opts).unwrap_or_else(|e| panic!("compile {}: {e}", p.name));
    sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, chip, 5)
        .unwrap_or_else(|e| panic!("pnr {}: {e}", p.name));
    let outcome = simulate(&compiled.vudfg, chip, &SimConfig::default())
        .unwrap_or_else(|e| panic!("sim {}: {e}", p.name));
    verify_dram(p, &reference, &outcome).unwrap_or_else(|e| panic!("{}: {e}", p.name));
    outcome.cycles
}

fn chip() -> ChipSpec {
    ChipSpec::small_8x8()
}

macro_rules! pipeline_test {
    ($name:ident) => {
        #[test]
        fn $name() {
            let w = sara_workloads::by_name(stringify!($name)).expect("registered");
            check(&w.program, &chip(), &CompilerOptions::default());
        }
    };
}

pipeline_test!(dotprod);
pipeline_test!(outerprod);
pipeline_test!(gemm);
pipeline_test!(mlp);
pipeline_test!(lstm);
pipeline_test!(snet);
pipeline_test!(logreg);
pipeline_test!(sgd);
pipeline_test!(kmeans);
pipeline_test!(gda);
pipeline_test!(tpchq6);
pipeline_test!(bs);
pipeline_test!(sort);
pipeline_test!(ms);
pipeline_test!(pr);
pipeline_test!(rf);

/// Parallelized variants stress unrolling, banking and combine trees.
#[test]
fn parallel_variants() {
    use sara_workloads::{graph, linalg, ml, streamk};
    let cases: Vec<Program> = vec![
        linalg::dotprod(&linalg::DotParams { n: 64, par: 16 }),
        linalg::gemm(&linalg::GemmParams { par_k: 8, ..Default::default() }),
        linalg::mlp(&linalg::MlpParams { par_inner: 8, ..Default::default() }),
        ml::logreg(&ml::RegressionParams { par_d: 8, ..Default::default() }),
        streamk::bs(&streamk::BsParams { n: 32, par: 8 }),
        graph::pr(&graph::PrParams { par_v: 2, ..Default::default() }),
        graph::rf(&graph::RfParams { depth: 2, trees: 2, par_n: 2, ..Default::default() }),
    ];
    for p in cases {
        check(&p, &chip(), &CompilerOptions::default());
    }
}

/// The ablation configurations must stay correct (only performance may
/// change): no reduction, no credit relaxation, no retiming.
#[test]
fn ablations_stay_correct() {
    let w = sara_workloads::by_name("mlp").unwrap();
    let mut o1 = CompilerOptions::default();
    o1.lower.cmmc.reduce = false;
    check(&w.program, &chip(), &o1);
    let mut o2 = CompilerOptions::default();
    o2.lower.cmmc.relax_credits = false;
    check(&w.program, &chip(), &o2);
    let mut o3 = CompilerOptions::default();
    o3.opt.retime = false;
    check(&w.program, &chip(), &o3);
}
