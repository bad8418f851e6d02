//! # plasticine-sim
//!
//! A cycle-level, **functional** simulator for SARA-compiled virtual unit
//! dataflow graphs on the Plasticine RDA.
//!
//! Compute units walk their counter chains gated by CMMC tokens, branch
//! conditions and dynamic bounds; memory units serve banked,
//! multibuffered scratchpad ports; crossbar units route by runtime bank
//! addresses; AG units stream requests into a [`ramulator_lite::DramSim`].
//! Streams are latency- and capacity-accurate FIFOs with backpressure, so
//! pipeline bubbles, retiming and DRAM-bandwidth saturation all emerge
//! from first principles. The default scheduler steps a unit only when
//! something it can observe changed; the dense reference steps every unit
//! every cycle, with bit-identical results (see [`engine`]).
//!
//! [`simulate`] runs one chip; [`simulate_system`] runs every chip of a
//! multi-chip system in the same engine, with one DRAM controller per
//! chip and chip-crossing streams contending for inter-chip link
//! bandwidth.
//!
//! Because real values flow, the final DRAM image is compared against the
//! sequential reference interpreter in the differential test suite — the
//! executable statement of CMMC's correctness guarantee.

pub mod engine;
pub mod fault;
mod link;
pub mod packet;
pub mod profile;
pub mod sanitize;
pub mod stream;
pub mod units;
pub mod watchdog;

pub use engine::{simulate, simulate_system, SimConfig, SimError, SimOutcome, SimStats};
pub use fault::{seeded_plan, Fault, FaultKind, FaultPlan};
pub use packet::{PacketArena, PacketRef};
pub use sara_core::profile::SimProfile;
pub use sara_core::robust::{InvariantKind, SanitizerReport, WatchdogReport};

/// Unit tests of the multi-chip entry point, [`simulate_system`].
#[cfg(test)]
mod multichip {
    mod tests {
        use crate::{simulate, simulate_system, SimConfig};
        use plasticine_arch::{ChipSpec, SystemSpec};
        use sara_core::compile::compile;
        use sara_pnr::place_and_route_system;

        /// A 1-chip system is one DRAM controller and no crossings, so it
        /// runs the single-chip engine unchanged.
        #[test]
        fn one_chip_system_delegates_to_the_single_chip_engine() {
            let w = sara_workloads::by_name("dotprod").unwrap();
            let chip = ChipSpec::small_8x8();
            let system = SystemSpec::single(chip.clone());
            let mut compiled = compile(&w.program, &chip, &Default::default()).unwrap();
            let pnr = place_and_route_system(&mut compiled.vudfg, &compiled.assignment, &system, 7)
                .unwrap();
            let single = simulate(&compiled.vudfg, &chip, &SimConfig::default()).unwrap();
            let sys = simulate_system(&compiled.vudfg, &system, &pnr.plan, &SimConfig::default())
                .unwrap();
            assert_eq!(sys.cycles, single.cycles);
            assert_eq!(sys.dram_final, single.dram_final);
        }
    }
}
