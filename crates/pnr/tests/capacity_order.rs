//! A design that overflows more than one unit class reports the same
//! class every time: PCUs are checked first, then PMUs, then AGs.
//! Every call builds fresh hash maps, so an order taken from a map
//! would vary between calls of one process. AG placeables share slots
//! when they outnumber them, so AGs fail only on a chip without any.

use plasticine_arch::{ChipSpec, PuType};
use sara_core::compile::{compile, CompilerOptions};
use sara_pnr::{place_and_route, PnrError};

#[test]
fn overflowing_designs_report_pcus_first_every_time() {
    let chip = ChipSpec::tiny_4x4();
    // Both overflow PCUs and PMUs on the 8-PCU, 8-PMU chip.
    for (name, needed) in [("lstm", 16), ("kmeans", 10)] {
        let w = sara_workloads::by_name(name).expect("registry workload");
        let compiled = compile(&w.program, &chip, &CompilerOptions::default()).expect(name);
        for _ in 0..20 {
            let mut g = compiled.vudfg.clone();
            let err = place_and_route(&mut g, &compiled.assignment, &chip, 7).unwrap_err();
            assert_eq!(err, PnrError { what: PuType::Pcu, needed, available: 8 }, "{name}");
        }
    }
}

#[test]
fn ag_placeables_fail_only_without_ag_slots() {
    let w = sara_workloads::by_name("dotprod").expect("registry workload");
    let chip = ChipSpec { ags: 0, ..ChipSpec::tiny_4x4() };
    let compiled = compile(&w.program, &chip, &CompilerOptions::default()).expect("compiles");
    let mut g = compiled.vudfg.clone();
    let err = place_and_route(&mut g, &compiled.assignment, &chip, 7).unwrap_err();
    assert_eq!(err, PnrError { what: PuType::Ag, needed: 3, available: 0 });
}
