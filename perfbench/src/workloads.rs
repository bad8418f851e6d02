//! The four workloads, built from the benchmark seed. The seed derives
//! every PnR seed, the `rf` and `pr` data seeds, and the tune requests'
//! `pnr_seed` and order; the program sees only the generated inputs.
//! Why each workload is here, and which layer it stresses, is recorded
//! in `perfbench/README.md`.

use crate::ops::{Design, Done, Request, Serve};
use crate::trace::Tracer;
use plasticine_arch::SystemSpec;
use sara_dse::SearchOptions;
use sara_ir::Program;
use sara_workloads::{graph, linalg, sort, streamk};
use std::path::{Path, PathBuf};

pub const NAMES: [&str; 4] = ["fabric20", "simlong", "multichip", "tune"];

/// A value derived from the benchmark seed and a per-use salt
/// (splitmix64), kept below 2^32 because the generators add small
/// offsets to their seeds.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 32
}

/// A workload's distinct ops plus the state they share.
pub enum Workload {
    /// Designs, and the index of the lightest one, which set-up runs as
    /// its warm-up.
    Designs(Vec<Design>, usize),
    Tune(Tune),
}

fn system(name: &str) -> SystemSpec {
    SystemSpec::by_name(name).expect("built-in system name")
}

fn rf(n: usize, d: usize, trees: usize, depth: usize, par_n: u32, seed: u64) -> Program {
    graph::rf(&graph::RfParams { n, d, trees, depth, seed, par_n })
}

fn pr(v: usize, avg_deg: usize, par_v: u32, seed: u64) -> Program {
    graph::pr(&graph::PrParams { v, avg_deg, seed, par_v })
}

/// Builds a design's program from its data seed.
type Build = fn(u64) -> Program;

/// Designs labelled and seeded in list order: design `i` gets PnR seed
/// `derive(seed, i)` and data seed `derive(seed, 100 + i)`.
fn designs(seed: u64, list: &[(&str, &str, Build)]) -> Vec<Design> {
    list.iter()
        .enumerate()
        .map(|(i, &(label, sys, build))| Design {
            label: label.to_string(),
            program: build(derive(seed, 100 + i as u64)),
            system: system(sys),
            pnr_seed: derive(seed, i as u64),
        })
        .collect()
}

fn mlp(par_inner: u32, par_neuron: u32) -> Program {
    linalg::mlp(&linalg::MlpParams { d_in: 64, d_hidden: 64, d_out: 16, par_inner, par_neuron })
}

fn fabric20(seed: u64) -> Vec<Design> {
    designs(
        seed,
        &[
            ("mlp(16,2)", "20x20", |_| mlp(16, 2)),
            ("mlp(16,4)", "20x20", |_| mlp(16, 4)),
            ("mlp(16,8)", "20x20", |_| mlp(16, 8)),
            ("rf(par1)", "20x20", |s| rf(32, 16, 8, 4, 1, s)),
            ("rf(par2)", "20x20", |s| rf(32, 16, 8, 4, 2, s)),
            ("rf(par4)", "20x20", |s| rf(32, 16, 8, 4, 4, s)),
        ],
    )
}

fn simlong(seed: u64) -> Vec<Design> {
    designs(
        seed,
        &[
            ("tpchq6", "8x8", |_| streamk::tpchq6(&streamk::Q6Params { n: 16384, par: 1 })),
            ("dotprod", "8x8", |_| linalg::dotprod(&linalg::DotParams { n: 16384, par: 1 })),
            ("bs", "8x8", |_| streamk::bs(&streamk::BsParams { n: 4096, par: 1 })),
            ("sort", "8x8", |_| sort::sort(&sort::SortParams { n: 256 })),
            ("ms", "8x8", |_| streamk::ms(&streamk::MsParams { n: 2048 })),
            ("pr", "8x8", |s| pr(256, 4, 1, s)),
        ],
    )
}

fn multichip(seed: u64) -> Vec<Design> {
    designs(
        seed,
        &[
            ("rf(512x8)", "4x4x4", |s| rf(512, 8, 3, 3, 1, s)),
            ("rf(128x16)", "4x4x4", |s| rf(128, 16, 4, 4, 1, s)),
            ("pr(par2)", "4x4x4", |s| pr(256, 3, 2, s)),
            ("gemm(16^3)", "4x4x4", |_| {
                linalg::gemm(&linalg::GemmParams { m: 16, n: 16, k: 16, par_m: 2, par_k: 1 })
            }),
            ("ms", "4x8x8", |_| streamk::ms(&streamk::MsParams { n: 2048 })),
            ("tpchq6(par4)", "4x8x8", |_| streamk::tpchq6(&streamk::Q6Params { n: 16384, par: 4 })),
        ],
    )
}

/// A directory under `.perfbench/` in the working directory, removed
/// when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<TempDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = PathBuf::from(".perfbench").join(format!("store-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Autotune requests, each served cold, warm and after a restart, on a
/// store per request and pass under one temporary root.
pub struct Tune {
    root: TempDir,
    requests: Vec<Request>,
}

/// The registry workloads whose default knobs fit `8x8` (all but `rf`),
/// in the order the seed shuffles them into.
fn tune(seed: u64) -> Result<Tune, String> {
    let opts = SearchOptions {
        budget: 40,
        chip: "8x8".to_string(),
        pnr_seed: derive(seed, 200),
        ..SearchOptions::default()
    };
    let mut names: Vec<&'static str> =
        sara_workloads::all_small().iter().map(|w| w.name).filter(|&n| n != "rf").collect();
    for i in (1..names.len()).rev() {
        names.swap(i, (derive(seed, 300 + i as u64) % (i as u64 + 1)) as usize);
    }
    Ok(Tune {
        root: TempDir::new()?,
        requests: names.into_iter().map(|w| Request::new(w, opts.clone())).collect(),
    })
}

impl Workload {
    /// Build a workload's inputs from the seed.
    ///
    /// # Errors
    ///
    /// An unknown name, or a temporary store root that cannot be created.
    pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
        Ok(match name {
            "fabric20" => Workload::Designs(fabric20(seed), 3),
            "simlong" => Workload::Designs(simlong(seed), 5),
            "multichip" => Workload::Designs(multichip(seed), 3),
            "tune" => Workload::Tune(tune(seed)?),
            _ => return Err(format!("unknown workload {name:?} (known: {})", NAMES.join(", "))),
        })
    }

    /// Distinct op labels, in pass order.
    pub fn op_names(&self) -> Vec<String> {
        match self {
            Workload::Designs(ds, _) => ds.iter().map(|d| d.label.clone()).collect(),
            Workload::Tune(t) => t
                .requests
                .iter()
                .flat_map(|r| {
                    Serve::ALL.iter().map(move |s| format!("{}/{}", r.workload, s.name()))
                })
                .collect(),
        }
    }

    /// Whether op `i`'s design counts toward `sim_cycles_geomean` and
    /// `pus_total` (a tune request's best design counts once, on its
    /// cold op).
    pub fn counts_design(&self, i: usize) -> bool {
        match self {
            Workload::Designs(..) => true,
            Workload::Tune(_) => Serve::ALL[i % 3] == Serve::Cold,
        }
    }

    /// Run op `i` of pass `pass`.
    ///
    /// # Errors
    ///
    /// The failing stage.
    pub fn run_op(&mut self, i: usize, pass: usize, tr: &Tracer) -> Result<Done, String> {
        match self {
            Workload::Designs(ds, _) => ds[i].run(tr),
            Workload::Tune(t) => {
                let r = &mut t.requests[i / 3];
                let dir = t.root.path().join(format!("p{pass}")).join(r.workload);
                r.serve(Serve::ALL[i % 3], &dir, tr)
            }
        }
    }

    /// The untimed warm-up op of set-up: the lightest design, or a cold
    /// `dotprod` request on a store of its own.
    ///
    /// # Errors
    ///
    /// The failing stage.
    pub fn warm_up(&self) -> Result<(), String> {
        let tr = Tracer::new(false);
        match self {
            Workload::Designs(ds, lightest) => ds[*lightest].run(&tr).map(drop),
            Workload::Tune(t) => {
                let opts = t.requests[0].opts.clone();
                let dir = t.root.path().join("warmup");
                Request::new("dotprod", opts).serve(Serve::Cold, &dir, &tr).map(drop)
            }
        }
    }
}
