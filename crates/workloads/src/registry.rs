//! Name-indexed access to every workload at test-friendly sizes, plus the
//! Table IV characterization helpers.

use crate::{cnn, graph, linalg, ml, sort, streamk};
use sara_ir::Program;

/// A named workload with its domain tag (Table IV columns).
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub domain: &'static str,
    /// Whether the kernel contains data-dependent control flow (dynamic
    /// bounds, branches, do-while).
    pub data_dependent: bool,
    /// Names of the loops whose `par` factor the workload's parameter
    /// struct exposes as a tuning knob, at their default (par = 1)
    /// settings. This is the default-knob metadata the DSE engine uses
    /// to span its search space without guessing from the control tree.
    pub tunable_loops: &'static [&'static str],
    pub program: Program,
}

/// One registry row: a workload's Table IV metadata and the constructor
/// of its program, so a lookup builds only the program it returns.
struct Entry {
    name: &'static str,
    domain: &'static str,
    data_dependent: bool,
    tunable_loops: &'static [&'static str],
    build: fn() -> Program,
}

impl Entry {
    fn workload(&self) -> Workload {
        Workload {
            name: self.name,
            domain: self.domain,
            data_dependent: self.data_dependent,
            tunable_loops: self.tunable_loops,
            program: (self.build)(),
        }
    }
}

/// Every workload at small (fast differential-testing) sizes, in
/// listing order.
static REGISTRY: [Entry; 16] = [
    Entry {
        name: "dotprod",
        domain: "linear algebra",
        data_dependent: false,
        tunable_loops: &["i"],
        build: || linalg::dotprod(&linalg::DotParams::default()),
    },
    Entry {
        name: "outerprod",
        domain: "linear algebra",
        data_dependent: false,
        tunable_loops: &["j"],
        build: || linalg::outerprod(&linalg::OuterParams::default()),
    },
    Entry {
        name: "gemm",
        domain: "linear algebra",
        data_dependent: false,
        tunable_loops: &["i", "k"],
        build: || linalg::gemm(&linalg::GemmParams::default()),
    },
    Entry {
        name: "mlp",
        domain: "deep learning",
        data_dependent: false,
        tunable_loops: &["l1_i", "l1_j", "l2_i", "l2_j", "l3_i", "l3_j"],
        build: || linalg::mlp(&linalg::MlpParams::default()),
    },
    Entry {
        name: "lstm",
        domain: "deep learning",
        data_dependent: false,
        tunable_loops: &["gi_j", "gf_j", "go_j", "gg_j"],
        build: || ml::lstm(&ml::LstmParams::default()),
    },
    Entry {
        name: "snet",
        domain: "deep learning",
        data_dependent: false,
        tunable_loops: &["oc", "k", "poc"],
        build: || cnn::snet(&cnn::SnetParams::default()),
    },
    Entry {
        name: "logreg",
        domain: "analytics/ML",
        data_dependent: false,
        tunable_loops: &["dot_d", "upd_d"],
        build: || ml::logreg(&ml::RegressionParams::default()),
    },
    Entry {
        name: "sgd",
        domain: "analytics/ML",
        data_dependent: false,
        tunable_loops: &["dot_d", "upd_d"],
        build: || ml::sgd(&ml::RegressionParams::default()),
    },
    Entry {
        name: "kmeans",
        domain: "analytics/ML",
        data_dependent: false,
        tunable_loops: &["dist_d"],
        build: || ml::kmeans(&ml::KmeansParams::default()),
    },
    Entry {
        name: "gda",
        domain: "analytics/ML",
        data_dependent: false,
        tunable_loops: &["b"],
        build: || ml::gda(&ml::GdaParams::default()),
    },
    Entry {
        name: "tpchq6",
        domain: "analytics",
        data_dependent: false,
        tunable_loops: &["i"],
        build: || streamk::tpchq6(&streamk::Q6Params::default()),
    },
    Entry {
        name: "bs",
        domain: "finance",
        data_dependent: false,
        tunable_loops: &["i"],
        build: || streamk::bs(&streamk::BsParams::default()),
    },
    Entry {
        name: "sort",
        domain: "sorting",
        data_dependent: false,
        tunable_loops: &[],
        build: || sort::sort(&sort::SortParams::default()),
    },
    Entry {
        name: "ms",
        domain: "sorting",
        data_dependent: true,
        tunable_loops: &[],
        build: || streamk::ms(&streamk::MsParams::default()),
    },
    Entry {
        name: "pr",
        domain: "graphs",
        data_dependent: true,
        tunable_loops: &["v"],
        build: || graph::pr(&graph::PrParams::default()),
    },
    Entry {
        name: "rf",
        domain: "ML inference",
        data_dependent: false,
        tunable_loops: &["n"],
        build: || graph::rf(&graph::RfParams::default()),
    },
];

/// All workloads at small (fast differential-testing) sizes.
pub fn all_small() -> Vec<Workload> {
    REGISTRY.iter().map(Entry::workload).collect()
}

/// Look up one small-size workload by name, building only its program.
pub fn by_name(name: &str) -> Option<Workload> {
    REGISTRY.iter().find(|e| e.name == name).map(Entry::workload)
}

/// The registry's workload names, in [`all_small`] order, without
/// building any program.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_ir::interp::Interp;

    #[test]
    fn registry_has_all_paper_kernels() {
        let names: Vec<&str> = all_small().iter().map(|w| w.name).collect();
        for n in [
            "dotprod",
            "outerprod",
            "gemm",
            "mlp",
            "lstm",
            "snet",
            "logreg",
            "sgd",
            "kmeans",
            "gda",
            "tpchq6",
            "bs",
            "sort",
            "ms",
            "pr",
            "rf",
        ] {
            assert!(names.contains(&n), "{n} missing");
        }
    }

    #[test]
    fn every_workload_validates_and_interprets() {
        for w in all_small() {
            w.program.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            Interp::new(&w.program).run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn tunable_loops_name_real_static_loops() {
        for w in all_small() {
            for &loop_name in w.tunable_loops {
                let id = w
                    .program
                    .loops()
                    .into_iter()
                    .find(|&l| w.program.ctrl(l).name == loop_name)
                    .unwrap_or_else(|| panic!("{}: no loop named {loop_name}", w.name));
                let spec = w.program.ctrl(id).loop_spec().unwrap();
                assert!(
                    spec.trip_count().is_some(),
                    "{}: tunable loop {loop_name} has a dynamic bound",
                    w.name
                );
                assert_eq!(spec.par, 1, "{}: default knobs must be par = 1", w.name);
            }
        }
    }

    #[test]
    fn by_name_roundtrip() {
        assert!(by_name("mlp").is_some());
        assert!(by_name("nonexistent").is_none());
    }
}
