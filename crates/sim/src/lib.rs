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
//! sequential reference interpreter — by the differential test suite, and
//! through [`verify_dram`] by the fuzz oracle and at every fig/table point
//! — the executable statement of CMMC's correctness guarantee.

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

/// Check a simulated DRAM image against the reference interpreter's run
/// of the same program. Every DRAM tensor of `p` must be in the image
/// with the interpreter's length; integers must match exactly, and floats
/// within 1e-9 relative, because the fabric reassociates reductions (NaN
/// matches NaN).
///
/// # Errors
///
/// The first difference, naming the tensor and, for an element, its flat
/// index.
pub fn verify_dram(
    p: &sara_ir::Program,
    reference: &sara_ir::interp::RunOutcome,
    got: &SimOutcome,
) -> Result<(), String> {
    for (mi, m) in p.mems.iter().enumerate() {
        if m.kind != sara_ir::MemKind::Dram {
            continue;
        }
        let Some(image) = got.dram_final.get(&sara_ir::MemId(mi as u32)) else {
            return Err(format!("DRAM {} missing from fabric image", m.name));
        };
        let want = &reference.mem[mi];
        if want.len() != image.len() {
            let (n, w) = (image.len(), want.len());
            return Err(format!("DRAM {}: length {n} vs interpreter {w}", m.name));
        }
        if let Some(i) = want.iter().zip(image).position(|(w, g)| !elems_close(*w, *g)) {
            let (g, w) = (image[i], want[i]);
            return Err(format!("DRAM {}[{i}]: fabric {g:?} vs interpreter {w:?}", m.name));
        }
    }
    Ok(())
}

/// The element rule of [`verify_dram`].
fn elems_close(a: sara_ir::Elem, b: sara_ir::Elem) -> bool {
    use sara_ir::Elem;
    match (a, b) {
        (Elem::I64(x), Elem::I64(y)) => x == y,
        (Elem::F64(x), Elem::F64(y)) => {
            if x.is_nan() && y.is_nan() {
                return true;
            }
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => false,
    }
}
