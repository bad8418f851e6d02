//! Placement contract: what `place_and_route` returns, pinned per case.
//!
//! Each case pins the total wirelength, the most-used link, the
//! annealing iteration count, and a stable digest of the placeables'
//! positions (placeables in sorted order) followed by every stream's
//! routed latency. A change to the annealer that claims to keep
//! placements must leave every row as it is; a change that moves
//! placements on purpose recaptures the table in the same change.
//!
//! The cases cover the annealer's tie rules: `lstm` on `8x8` packs 9 AG
//! placeables onto 8 slots, `mlp` and `pr` on `4x4` pack 5 and 7 onto
//! 4, the `4x4` chip with 12 AGs wraps AG slots onto shared positions,
//! and `mlp(16,8)` on `20x20` places 181 placeables, 33 AGs on 20 slots.

use plasticine_arch::ChipSpec;
use sara_core::artifact::StableHasher;
use sara_core::compile::{compile, CompilerOptions};
use sara_ir::Program;
use sara_pnr::{place_and_route, Placeable};
use sara_workloads::linalg;

/// PnR seed of every case.
const SEED: u64 = 7;

/// `(case, wirelength, max link use, iterations, digest)`. A case is
/// `"<chip> <design>"`; see [`design`].
const GOLDEN: &[(&str, u64, u32, u64, &str)] = &[
    ("8x8 dotprod", 28, 3, 800, "d521566c3da034ee831d993d6075b2d9"),
    ("8x8 outerprod", 32, 2, 1000, "770973dd6bc29cfdd577337ae20b2f4a"),
    ("8x8 gemm", 31, 3, 1600, "baaa9ebb1124d8c4b27ad6dbc40ba263"),
    ("8x8 mlp", 77, 3, 3600, "ed0026bf47d3c7331a8c946fc918d794"),
    ("8x8 lstm", 173, 5, 9200, "d3d03df01d1c4cae933ad75ed9094a79"),
    ("8x8 snet", 70, 3, 3000, "751a8363321ad9b9ceea339bf95cd18e"),
    ("8x8 logreg", 85, 5, 4000, "8226e82a8cc54912692ed74ac15bd3c5"),
    ("8x8 sgd", 85, 5, 4000, "8226e82a8cc54912692ed74ac15bd3c5"),
    ("8x8 kmeans", 121, 6, 6600, "b6f2ef1f1f0f7cc809a5409c6f1bd1ef"),
    ("8x8 gda", 75, 4, 2800, "ae303498c064d7cb6751008336b035cc"),
    ("8x8 tpchq6", 20, 4, 1200, "6ddb886e7bd382a18b5a64553ac9d936"),
    ("8x8 bs", 20, 4, 1200, "6ddb886e7bd382a18b5a64553ac9d936"),
    ("8x8 sort", 47, 6, 2600, "afe7df74d98bc7aa8be2f424cb92b06d"),
    ("8x8 ms", 81, 11, 3200, "f713250e516f84a1c71a73339cc2c346"),
    ("8x8 pr", 135, 8, 2800, "3dc2b1d62e4e0beaed9af1acdc1e413d"),
    ("8x8 rf", 201, 12, 5200, "4089798b0359ea1acaa589d4cad30dbd"),
    ("4x4 dotprod", 14, 2, 800, "d7f78271023c0f96d8e7292729c13e51"),
    ("4x4 outerprod", 18, 2, 1000, "3f20bed8237d164578f6a706f47ccf72"),
    ("4x4 gemm", 21, 3, 1600, "b9f9f3fe804abd6f88f769b32d4e7478"),
    ("4x4 mlp", 53, 3, 3600, "53591e29811041ea2159277180be209d"),
    ("4x4 snet", 40, 4, 3000, "16468df9cd01601c827f47c5979231bb"),
    ("4x4 gda", 57, 3, 2800, "b9c7bb639c7d1e680766b56a482bf3ef"),
    ("4x4 tpchq6", 24, 2, 1200, "aee0bbcc1b2a54f91114d86a38614d4e"),
    ("4x4 bs", 24, 2, 1200, "aee0bbcc1b2a54f91114d86a38614d4e"),
    ("4x4 sort", 43, 5, 2600, "02fffd7a26d9da49b8747435ba5a96de"),
    ("4x4 pr", 78, 7, 2800, "8bb94834c76f63c4239f62d93f304c83"),
    ("4x4/ags12 dotprod", 18, 2, 800, "428bb36014beb3f4902e107dbb41b313"),
    ("4x4/ags12 outerprod", 12, 3, 1000, "663a72395ab5c11b145167d948054a3c"),
    ("4x4/ags12 gemm", 27, 3, 1600, "399ba60c50ea7c83d23428274aaf4b04"),
    ("4x4/ags12 mlp", 51, 2, 3600, "5a4012d3efb078c3457aa3266d247aa4"),
    ("4x4/ags12 snet", 38, 3, 3000, "6ab78d757e484b1aebfce66fd395a5fd"),
    ("4x4/ags12 gda", 51, 4, 2800, "245571e98b6b62c9333ce2d209b096ce"),
    ("4x4/ags12 tpchq6", 26, 4, 1200, "8cd36daedcccf9478a8ade6603891100"),
    ("4x4/ags12 bs", 26, 4, 1200, "8cd36daedcccf9478a8ade6603891100"),
    ("4x4/ags12 sort", 43, 5, 2600, "d8bc2814ff4fd6e636af6380a49a4671"),
    ("4x4/ags12 pr", 81, 10, 2800, "07d9077c58b7c5f6fa2d54e79c98f121"),
    ("20x20 mlp(16,8)", 2648, 49, 36200, "5e18a3ef902079e9d617aa2ce0906f4e"),
];

/// The program and chip a case names.
fn design(case: &str) -> (Program, ChipSpec) {
    let (chip, name) = case.split_once(' ').expect("case is \"<chip> <design>\"");
    let chip = match chip {
        "8x8" => ChipSpec::small_8x8(),
        "4x4" => ChipSpec::tiny_4x4(),
        "4x4/ags12" => ChipSpec { ags: 12, ..ChipSpec::tiny_4x4() },
        "20x20" => ChipSpec::sara_20x20(),
        other => panic!("unknown chip {other:?}"),
    };
    let program = if name == "mlp(16,8)" {
        linalg::mlp(&linalg::MlpParams {
            d_in: 64,
            d_hidden: 64,
            d_out: 16,
            par_inner: 16,
            par_neuron: 8,
        })
    } else {
        sara_workloads::by_name(name).expect("registry workload").program
    };
    (program, chip)
}

/// Sort key of a placeable: groups first, then solo units, by index.
fn key(p: &Placeable) -> (u8, usize) {
    match p {
        Placeable::Group(g) => (0, *g),
        Placeable::Solo(u) => (1, u.index()),
    }
}

/// Place one case; returns its golden row (digest as hex) and its AG
/// placeable count.
fn place(case: &str) -> ((u64, u32, u64, String), usize) {
    let (program, chip) = design(case);
    let mut c = compile(&program, &chip, &CompilerOptions::default()).expect(case);
    let r = place_and_route(&mut c.vudfg, &c.assignment, &chip, SEED).expect(case);
    let mut placed: Vec<_> = r.positions.iter().collect();
    placed.sort_by_key(|(p, _)| key(p));
    let mut h = StableHasher::new();
    for (p, pos) in &placed {
        let (tag, index) = key(p);
        h.u64(u64::from(tag)).u64(index as u64);
        h.u64(i64::from(pos.x) as u64).u64(i64::from(pos.y) as u64);
    }
    for s in &c.vudfg.streams {
        h.u64(u64::from(s.latency));
    }
    let edge = |x: i32| x < 0 || x >= chip.cols as i32;
    let ags = placed.iter().filter(|(_, pos)| edge(pos.x)).count();
    ((r.wirelength, r.max_link_use, r.iterations, h.hex()), ags)
}

#[test]
fn placements_match_goldens() {
    let mut bad = Vec::new();
    let mut table = String::new();
    for &(case, wl, links, iters, digest) in GOLDEN {
        let (got, _) = place(case);
        table += &format!("    ({case:?}, {}, {}, {}, {:?}),\n", got.0, got.1, got.2, got.3);
        if got != (wl, links, iters, digest.to_string()) {
            bad.push(format!("{case}: got {got:?}, golden ({wl}, {links}, {iters}, {digest:?})"));
        }
    }
    assert!(bad.is_empty(), "placements drifted:\n{}\n\ncurrent table:\n{table}", bad.join("\n"));
}

#[test]
fn cases_cover_packed_and_shared_ag_slots() {
    let names: Vec<&str> = GOLDEN.iter().map(|row| row.0).collect();
    for w in sara_workloads::all_small() {
        assert!(names.contains(&format!("8x8 {}", w.name).as_str()), "8x8 {} missing", w.name);
    }
    for (case, ags, slots) in
        [("8x8 lstm", 9, 8), ("4x4 mlp", 5, 4), ("4x4 pr", 7, 4), ("20x20 mlp(16,8)", 33, 20)]
    {
        assert!(names.contains(&case), "{case} missing");
        assert_eq!((place(case).1, design(case).1.ags as usize), (ags, slots), "{case}");
    }
    assert!(names.iter().any(|n| n.starts_with("4x4/ags12 ")), "no case wraps AG slots");
}
