//! Analytical Tesla V100 model (paper §IV-D substitution).
//!
//! No GPU is available in this reproduction, so the V100 baseline is a
//! calibrated roofline: runtime = max(compute roofline, memory roofline)
//! plus kernel-launch overhead, with per-workload-class efficiency factors
//! taken from published framework measurements (cuDNN GEMM efficiency,
//! GunRock frontier parallelism on sparse graphs, CUDA elementwise
//! throughput, and so on). The model's purpose is preserving *who wins
//! and by roughly what factor* (Table VI's shape), not absolute
//! nanoseconds.

use sara_ir::interp::InterpStats;
use serde::{Deserialize, Serialize};

/// V100 hardware constants (SXM2, fp32).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct V100 {
    /// Peak fp32 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Peak HBM2 bandwidth in bytes/s.
    pub peak_bw: f64,
    /// Kernel launch overhead in seconds.
    pub launch_overhead: f64,
    /// Die area in mm² (for area-normalized throughput).
    pub area_mm2: f64,
}

impl Default for V100 {
    fn default() -> Self {
        V100 { peak_flops: 14.0e12, peak_bw: 900.0e9, launch_overhead: 7.0e-6, area_mm2: 815.0 }
    }
}

/// Workload execution class, selecting the efficiency factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuClass {
    /// Dense GEMM/conv through cuDNN.
    DenseBlas,
    /// Elementwise / transcendental streaming kernels.
    Streaming,
    /// Latency-bound recurrent cells (small GEMVs per step).
    Recurrent,
    /// Sparse gathers (trees, graphs) with poor coalescing.
    SparseGather,
    /// Sorting-network style kernels (thrust/cub).
    Sorting,
}

impl GpuClass {
    /// `(compute efficiency, memory efficiency)` fractions of peak.
    pub fn efficiency(self) -> (f64, f64) {
        match self {
            GpuClass::DenseBlas => (0.55, 0.75),
            GpuClass::Streaming => (0.10, 0.70),
            GpuClass::Recurrent => (0.05, 0.30),
            GpuClass::SparseGather => (0.02, 0.08),
            GpuClass::Sorting => (0.05, 0.40),
        }
    }

    /// Class of a named workload (Table VI's application set).
    pub fn of_workload(name: &str) -> GpuClass {
        match name {
            "snet" | "gemm" | "mlp" => GpuClass::DenseBlas,
            "lstm" => GpuClass::Recurrent,
            "pr" | "rf" => GpuClass::SparseGather,
            "sort" | "ms" => GpuClass::Sorting,
            _ => GpuClass::Streaming,
        }
    }
}

/// Modeled GPU execution of a kernel with the given dynamic counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuEstimate {
    /// Runtime in seconds.
    pub seconds: f64,
    /// Which roofline bound: true = compute-bound.
    pub compute_bound: bool,
}

/// Estimate V100 runtime for a kernel.
///
/// `launches` is the number of device kernels a framework would dispatch
/// (e.g. one per layer / per iteration); each pays the launch overhead.
pub fn estimate(v: &V100, class: GpuClass, stats: &InterpStats, launches: u32) -> GpuEstimate {
    let (ce, me) = class.efficiency();
    let t_compute = stats.total_ops() as f64 / (v.peak_flops * ce);
    let t_memory = stats.dram_bytes() as f64 / (v.peak_bw * me);
    let t = t_compute.max(t_memory) + launches as f64 * v.launch_overhead;
    GpuEstimate { seconds: t, compute_bound: t_compute >= t_memory }
}

/// Launch count heuristic per workload (framework dispatch granularity).
pub fn launches_of(name: &str) -> u32 {
    match name {
        // one kernel per layer
        "mlp" => 3,
        "snet" => 2,
        // one fused step kernel per timestep (cuDNN fuses the four gates;
        // the Table VI configuration runs 8 timesteps)
        "lstm" => 8,
        // GunRock advance+filter per iteration
        "pr" => 2,
        // bitonic: log² n passes
        "sort" => 16,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(flops: u64, bytes: u64) -> InterpStats {
        InterpStats { flops, dram_read_bytes: bytes, ..InterpStats::default() }
    }

    #[test]
    fn compute_vs_memory_bound_classification() {
        let v = V100::default();
        let heavy = estimate(&v, GpuClass::DenseBlas, &stats(10_000_000_000, 1_000), 1);
        assert!(heavy.compute_bound);
        let light = estimate(&v, GpuClass::Streaming, &stats(1_000, 10_000_000_000), 1);
        assert!(!light.compute_bound);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let v = V100::default();
        let tiny = estimate(&v, GpuClass::Streaming, &stats(1_000, 1_000), 10);
        assert!(tiny.seconds >= 10.0 * v.launch_overhead);
    }

    #[test]
    fn sparse_gather_is_much_slower_than_dense() {
        let v = V100::default();
        let s = stats(0, 1_000_000_000);
        let dense = estimate(&v, GpuClass::DenseBlas, &s, 1);
        let sparse = estimate(&v, GpuClass::SparseGather, &s, 1);
        assert!(sparse.seconds > dense.seconds * 5.0);
    }

    #[test]
    fn workload_classes_cover_table6() {
        for n in ["snet", "lstm", "pr", "bs", "sort", "rf", "ms"] {
            let _ = GpuClass::of_workload(n);
        }
        assert_eq!(GpuClass::of_workload("rf"), GpuClass::SparseGather);
        assert_eq!(GpuClass::of_workload("snet"), GpuClass::DenseBlas);
    }
}
