//! Per-unit capability specifications and the constraint view consumed by
//! the compiler's partitioner and merger.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Physical unit types on the Plasticine fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PuType {
    /// Pattern compute unit: chained counters + multi-stage SIMD pipeline.
    Pcu,
    /// Pattern memory unit: banked scratchpad + address datapath.
    Pmu,
    /// Address generator / DRAM interface at the chip edge.
    Ag,
}

impl fmt::Display for PuType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PuType::Pcu => "PCU",
            PuType::Pmu => "PMU",
            PuType::Ag => "AG",
        };
        f.write_str(s)
    }
}

/// Pattern compute unit capabilities.
///
/// Defaults follow the Plasticine paper: a 6-stage, 16-lane SIMD pipeline
/// fed by vector/scalar/control input FIFOs, with a chain of hardware
/// counters driving the pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcuSpec {
    /// SIMD lanes (vectorization width of innermost loops).
    pub lanes: u32,
    /// Pipeline stages; each stage holds one functional unit per lane.
    pub stages: u32,
    /// Vector input ports.
    pub vec_in: u32,
    /// Vector output ports (a broadcast to many consumers uses one port).
    pub vec_out: u32,
    /// Scalar input ports.
    pub scalar_in: u32,
    /// Scalar output ports.
    pub scalar_out: u32,
    /// Control (single-bit token) input ports.
    pub ctrl_in: u32,
    /// Control output ports.
    pub ctrl_out: u32,
    /// Depth of each input FIFO in elements; bounds how much pipeline-delay
    /// imbalance can be absorbed without a dedicated retiming unit.
    pub fifo_depth: u32,
    /// Maximum chained counters (bounds the loop-nest depth one unit can
    /// track).
    pub counters: u32,
    /// Extra pipeline stages consumed by a transcendental op (exp/log/...).
    pub transcendental_stages: u32,
}

impl Default for PcuSpec {
    fn default() -> Self {
        PcuSpec {
            lanes: 16,
            stages: 6,
            vec_in: 4,
            vec_out: 2,
            scalar_in: 6,
            scalar_out: 2,
            ctrl_in: 16,
            ctrl_out: 16,
            fifo_depth: 16,
            counters: 8,
            transcendental_stages: 2,
        }
    }
}

impl PcuSpec {
    /// Maximum operations one PCU can hold: one op per stage per lane is
    /// the physical limit, but lane-parallel vectorized ops occupy one
    /// *stage*, so the partitioner budget is expressed in stages.
    pub fn max_ops(&self) -> u32 {
        self.stages
    }
}

/// Pattern memory unit capabilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PmuSpec {
    /// Scratchpad capacity in bytes.
    pub capacity_bytes: u64,
    /// SRAM banks (peak on-chip words per cycle for vectorized access).
    pub banks: u32,
    /// Vector input ports.
    pub vec_in: u32,
    /// Vector output ports.
    pub vec_out: u32,
    /// Scalar ports.
    pub scalar_in: u32,
    pub scalar_out: u32,
    /// Control ports.
    pub ctrl_in: u32,
    pub ctrl_out: u32,
    /// Read latency in cycles (request arrival to response departure).
    pub read_latency: u32,
    /// Address-datapath stages available for request address computation.
    pub addr_stages: u32,
    /// Maximum concurrent read request streams the PMU can serve. The
    /// Plasticine PMU serves one; CMMC therefore orders read-after-read
    /// (paper §III-A3a).
    pub read_streams: u32,
    /// Maximum multibuffer depth (for coarse-grained pipelining across
    /// producer/consumer stages).
    pub max_multibuffer: u32,
    /// Input FIFO depth in elements.
    pub fifo_depth: u32,
}

impl Default for PmuSpec {
    fn default() -> Self {
        PmuSpec {
            capacity_bytes: 256 * 1024,
            banks: 16,
            vec_in: 4,
            vec_out: 2,
            scalar_in: 4,
            scalar_out: 2,
            ctrl_in: 16,
            ctrl_out: 16,
            read_latency: 3,
            addr_stages: 4,
            read_streams: 1,
            max_multibuffer: 8,
            fifo_depth: 16,
        }
    }
}

impl PmuSpec {
    /// Capacity in 4-byte words.
    pub fn capacity_words(&self) -> u64 {
        self.capacity_bytes / 4
    }
}

/// Address generator / DRAM interface capabilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgSpec {
    /// Outstanding requests the AG can keep in flight.
    pub outstanding: u32,
    /// Burst size in bytes of one DRAM command.
    pub burst_bytes: u32,
    /// Scalar/vector ports (AGs are simple; one stream each way).
    pub vec_in: u32,
    pub vec_out: u32,
}

impl Default for AgSpec {
    fn default() -> Self {
        AgSpec { outstanding: 64, burst_bytes: 64, vec_in: 2, vec_out: 2 }
    }
}

/// The constraint view of one PU type consumed by compute partitioning and
/// global merging (paper Table I / Table III: input/output arity, op
/// capacity, buffer depth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PartitionConstraints {
    /// Maximum operations (pipeline stages) per partition.
    pub max_ops: u32,
    /// Maximum input arity `cI` (unique external value sources).
    pub max_in: u32,
    /// Maximum output arity `cO` (unique broadcast outputs).
    pub max_out: u32,
    /// Input buffer depth `bd`: delay imbalance tolerated before a
    /// retiming partition must be inserted.
    pub buffer_depth: u32,
    /// Maximum chained counters.
    pub max_counters: u32,
}

impl PartitionConstraints {
    /// Constraint view of a PCU.
    pub fn of_pcu(p: &PcuSpec) -> Self {
        PartitionConstraints {
            max_ops: p.max_ops(),
            max_in: p.vec_in + p.scalar_in,
            max_out: p.vec_out + p.scalar_out,
            buffer_depth: p.fifo_depth,
            max_counters: p.counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_plasticine() {
        let pcu = PcuSpec::default();
        assert_eq!(pcu.lanes, 16);
        assert_eq!(pcu.stages, 6);
        assert_eq!(pcu.max_ops(), 6);
        let pmu = PmuSpec::default();
        assert_eq!(pmu.capacity_bytes, 262_144);
        assert_eq!(pmu.capacity_words(), 65_536);
        assert_eq!(pmu.read_streams, 1);
    }

    #[test]
    fn constraints_derived_from_pcu() {
        let c = PartitionConstraints::of_pcu(&PcuSpec::default());
        assert_eq!(c.max_ops, 6);
        assert_eq!(c.max_in, 10);
        assert_eq!(c.max_out, 4);
        assert_eq!(c.buffer_depth, 16);
    }

    #[test]
    fn pu_type_display() {
        assert_eq!(PuType::Pcu.to_string(), "PCU");
        assert_eq!(PuType::Pmu.to_string(), "PMU");
        assert_eq!(PuType::Ag.to_string(), "AG");
    }
}
