//! Host-speed calibration.
//!
//! On a shared 2-vCPU VM (Firecracker, no hardware performance
//! counters), host speed moves in phases of seconds to minutes: the same
//! pass over the same designs takes from 1× to 2× its fastest time, and
//! a run sits in one or two phases. Code that leans on caches and hash
//! maps, like placement and the simulator, slows the most; a plain
//! integer loop hardly slows at all, so it cannot stand in for them.
//!
//! [`kernel`] is a fixed piece of work of that kind, owned by the
//! benchmark and independent of the repository's code: random swaps in
//! a position map, wirelength sums over a net list, and a priority
//! queue. The benchmark runs it between ops and reports host times
//! scaled by [`speed`], that is, at the host speed where the kernel
//! takes [`REFERENCE_S`].

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Kernel time at the reference host speed, in seconds: about its
/// median on the 2-vCPU VM the benchmark's bounds were set on.
pub const REFERENCE_S: f64 = 0.003;

/// How much more the benchmark's host times move than the kernel's
/// across host phases, as a log-log slope. Fits gave 1.4 to 1.5 for
/// single placement and simulator calls, 1.2 to 1.4 for whole runs of
/// the design workloads, and 1.03 for passes within one `tune` run.
pub const SENSITIVITY: f64 = 1.25;

/// The factor that scales a host time measured while the kernel took
/// `kernel_s` to the reference host speed.
pub fn speed(kernel_s: f64) -> f64 {
    (REFERENCE_S / kernel_s).powf(SENSITIVITY)
}

/// The fixed calibration work; returns a checksum so it is not elided.
fn kernel() -> u64 {
    const UNITS: u32 = 512;
    let mut pos: HashMap<u32, (i32, i32), BuildHasherDefault<DefaultHasher>> =
        (0..UNITS).map(|i| (i, ((i % 23) as i32, (i / 23) as i32))).collect();
    let nets: Vec<(u32, u32)> =
        (0..4 * UNITS).map(|i| (i % UNITS, i.wrapping_mul(7919) % UNITS)).collect();
    let mut queue = BinaryHeap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut sum = 0u64;
    for step in 0..4000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (a, b) = ((x % u64::from(UNITS)) as u32, ((x >> 24) % u64::from(UNITS)) as u32);
        let (pa, pb) = (pos[&a], pos[&b]);
        pos.insert(a, pb);
        pos.insert(b, pa);
        let start = (x >> 40) as usize % (nets.len() - 32);
        for (p, q) in &nets[start..start + 32] {
            let (u, v) = (pos[p], pos[q]);
            sum += u64::from(u.0.abs_diff(v.0) + u.1.abs_diff(v.1));
        }
        queue.push(Reverse(step.wrapping_mul(x) % 4096));
        if queue.len() > 256 {
            sum += queue.pop().map_or(0, |r| r.0);
        }
    }
    sum
}

/// Seconds one run of [`kernel`] takes now.
pub fn measure() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64()
}
