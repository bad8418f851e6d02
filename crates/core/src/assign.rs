//! Virtual-to-physical assignment: internal compute partitioning, global
//! merging, retiming-buffer insertion and resource accounting (paper
//! §III-B and the retiming part of §III-C).

use crate::compile::CompilerOptions;
use crate::error::CompileError;
use crate::merge::{self, MergePlan};
use crate::partition::{partition, Problem};
use crate::report::ResourceReport;
use crate::vudfg::{StreamKind, UnitId, UnitKind, Vudfg};
use plasticine_arch::{ChipSpec, PartitionConstraints, PuType};
use std::collections::HashMap;

/// Logical DRAM streams one physical AG can serve.
const STREAMS_PER_AG: usize = 4;

/// The assignment result.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Resource usage.
    pub report: ResourceReport,
    /// Internal partition count per compute unit (1 = fits one PCU).
    pub unit_parts: HashMap<UnitId, u32>,
    /// Extra pipeline latency per unit from internal partitioning
    /// (crossing PCUs adds network hops inside the logical unit).
    pub extra_latency: HashMap<UnitId, u32>,
    /// Global merge plan (PCU packing).
    pub merge: MergePlan,
    /// Physical class of every unit.
    pub pu_type: HashMap<UnitId, PuType>,
}

/// Run assignment. Mutates stream depths when retiming is enabled
/// (buffers absorb pipeline-delay imbalance so joins do not stall).
///
/// # Errors
///
/// Fails when a single dataflow node exceeds PCU capacity or the design
/// exceeds the chip's unit counts.
pub fn assign(
    g: &mut Vudfg,
    chip: &ChipSpec,
    opts: &CompilerOptions,
) -> Result<Assignment, CompileError> {
    let cons = PartitionConstraints::of_pcu(&chip.pcu);
    let ts = chip.pcu.transcendental_stages;

    // ---- per-unit compute partitioning (§III-B1) ----
    let mut unit_parts: HashMap<UnitId, u32> = HashMap::new();
    let mut extra_latency: HashMap<UnitId, u32> = HashMap::new();
    let mut pcu_from_splits = 0usize;
    // Unrolled lanes have identical dataflow graphs: solve each distinct
    // problem once, and give every lane its partition count (or error).
    let mut solved: HashMap<Problem, Result<usize, String>> = HashMap::new();
    for u in g.unit_ids() {
        let Some(v) = g.unit(u).as_vcu() else { continue };
        let costs: Vec<u32> = v.dfg.iter().map(|n| n.op.stage_cost(ts)).collect();
        let total: u32 = costs.iter().sum();
        if total <= cons.max_ops {
            unit_parts.insert(u, 1);
            continue;
        }
        let mut edges = Vec::new();
        for (i, n) in v.dfg.iter().enumerate() {
            for &src in &n.ins {
                edges.push((src, i));
            }
        }
        let groups = solved
            .entry(Problem::new(costs, edges, cons))
            .or_insert_with_key(|p| partition(p, opts.partition_algo).map(|s| s.num_groups))
            .clone()
            .map_err(CompileError::Unpartitionable)?;
        let k = groups.max(1) as u32;
        unit_parts.insert(u, k);
        extra_latency.insert(u, (k - 1) * chip.hop_latency);
        pcu_from_splits += k as usize;
    }

    // ---- global merging (§III-B(b)) ----
    let plan = merge::merge(g, cons, ts, opts.merge_algo, &unit_parts)
        .map_err(CompileError::Unpartitionable)?;
    let mut pcus = plan.merged_count() + pcu_from_splits;

    // ---- memory accounting ----
    let mut pmus = 0usize;
    let mut ag_units = 0usize;
    let mut pu_type: HashMap<UnitId, PuType> = HashMap::new();
    for u in g.unit_ids() {
        match &g.unit(u).kind {
            UnitKind::Vmu(v) => {
                let words_needed = v.words as u64 * v.multibuffer as u64;
                pmus += (words_needed.div_ceil(chip.pmu.capacity_words().max(1))).max(1) as usize;
                pu_type.insert(u, PuType::Pmu);
            }
            UnitKind::Ag(_) => {
                ag_units += 1;
                pu_type.insert(u, PuType::Ag);
            }
            UnitKind::Vcu(v) => {
                // Response units ride in the PMU that produces their
                // completion events (paper: mapped to the same memory
                // unit); everything else is PCU-class.
                if matches!(v.role, crate::vudfg::VcuRole::Response { .. }) {
                    pu_type.insert(u, PuType::Pmu);
                } else {
                    pu_type.insert(u, PuType::Pcu);
                }
            }
            _ => {
                pu_type.insert(u, PuType::Pcu);
            }
        }
    }
    let ags = ag_units.div_ceil(STREAMS_PER_AG);

    // ---- retiming (§III-C retime / retime-m) ----
    let mut retime_units = 0usize;
    if opts.opt.retime {
        retime_units = insert_retiming(g, chip, opts.opt.retime_m);
        if opts.opt.retime_m {
            pmus += retime_units;
        } else {
            pcus += retime_units;
        }
    }

    let report = ResourceReport {
        pcus,
        pmus,
        ags,
        streams: g.streams.len(),
        token_streams: g.token_stream_count(),
        retime_units,
    };
    Ok(Assignment { report, unit_parts, extra_latency, merge: plan, pu_type })
}

/// Longest-path depth per unit over zero-credit streams, then widen the
/// receive FIFO of delay-imbalanced join inputs. Returns the number of
/// dedicated retiming units required (imbalance beyond what input FIFOs
/// absorb).
fn insert_retiming(g: &mut Vudfg, chip: &ChipSpec, retime_m: bool) -> usize {
    let n = g.units.len();
    // Build forward graph over zero-credit streams.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for s in &g.streams {
        if matches!(s.kind, StreamKind::Token { init } if init > 0) {
            continue;
        }
        if s.src == s.dst {
            continue;
        }
        adj[s.src.index()].push(s.dst.index());
        indeg[s.dst.index()] += 1;
    }
    // Kahn longest path; cycles (possible through forward token loops in
    // rare shapes) are left at depth 0 and skipped.
    let mut depth = vec![0u32; n];
    let mut q: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(x) = q.pop() {
        seen += 1;
        for &sdx in &adj[x] {
            depth[sdx] = depth[sdx].max(depth[x] + 1);
            indeg[sdx] -= 1;
            if indeg[sdx] == 0 {
                q.push(sdx);
            }
        }
    }
    let _ = seen;

    let fifo = chip.pcu.fifo_depth;
    // Units of buffering one retiming hop provides.
    let retime_cap = if retime_m {
        chip.pmu.capacity_words().min(4096) as u32
    } else {
        chip.pcu.fifo_depth * chip.pcu.stages
    };
    let mut extra_units = 0usize;
    // For each unit, compare its input producers' depths.
    for u in 0..n {
        let ins: Vec<crate::vudfg::StreamId> = g.units[u].inputs.clone();
        if ins.len() < 2 {
            continue;
        }
        let max_d = ins.iter().map(|s| depth[g.stream(*s).src.index()]).max().unwrap_or(0);
        for sid in ins {
            let src_depth = depth[g.stream(sid).src.index()];
            let imb = max_d.saturating_sub(src_depth);
            if imb == 0 {
                continue;
            }
            // One element per cycle at full rate: every extra unit level
            // on the deep path adds its pipeline depth plus a network hop
            // of latency, all of which the shallow input must buffer.
            let need = imb * (chip.hop_latency + chip.pcu.stages);
            let s = g.stream_mut(sid);
            if need > s.depth {
                let deficit = need - s.depth.min(fifo);
                s.depth = need.max(s.depth);
                extra_units += deficit.div_ceil(retime_cap.max(1)).max(1) as usize - 1;
                extra_units += 1;
            }
        }
    }
    extra_units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vudfg::{DfgNode, NodeOp, Vcu, VcuRole};
    use sara_ir::BinOp;

    fn add_vcu(g: &mut Vudfg, ops: usize) -> UnitId {
        add_vcu_dfg(g, (0..ops).map(|_| vec![]).collect())
    }

    /// A VCU with one `Add` node per entry, fed by the listed nodes.
    fn add_vcu_dfg(g: &mut Vudfg, ins: Vec<Vec<usize>>) -> UnitId {
        let dfg = ins.into_iter().map(|ins| DfgNode { op: NodeOp::Bin(BinOp::Add), ins }).collect();
        g.add_unit(
            "u",
            UnitKind::Vcu(Vcu {
                levels: vec![],
                dfg,
                width: 1,
                role: VcuRole::Merge,
                token_pops: vec![],
                token_pushes: vec![],
                producer_gate_mask: vec![],
                epoch_emit: None,
            }),
        )
    }

    #[test]
    fn oversized_unit_gets_split_and_counted() {
        let mut g = Vudfg::new("t");
        // 14 ops on a 6-stage PCU => 3 partitions
        let u = add_vcu(&mut g, 14);
        let chip = ChipSpec::tiny_4x4();
        let a = assign(&mut g, &chip, &CompilerOptions::default()).unwrap();
        assert_eq!(a.unit_parts[&u], 3);
        assert!(a.report.pcus >= 3);
        assert!(a.extra_latency[&u] > 0);
    }

    #[test]
    fn identical_lanes_get_identical_splits() {
        let mut g = Vudfg::new("t");
        // two lanes of one 14-op chain on a 6-stage PCU
        let chain = || (0..14).map(|i| if i == 0 { vec![] } else { vec![i - 1] }).collect();
        let a = add_vcu_dfg(&mut g, chain());
        let b = add_vcu_dfg(&mut g, chain());
        let chip = ChipSpec::tiny_4x4();
        let r = assign(&mut g, &chip, &CompilerOptions::default()).unwrap();
        assert_eq!(r.unit_parts[&a], 3);
        assert_eq!(r.unit_parts[&b], r.unit_parts[&a]);
        assert_eq!(r.extra_latency[&b], r.extra_latency[&a]);
        assert_eq!(r.extra_latency[&a], 2 * chip.hop_latency);
    }

    #[test]
    fn repeated_unpartitionable_unit_fails_with_its_own_error() {
        let chip = ChipSpec::tiny_4x4();
        let max_in = PartitionConstraints::of_pcu(&chip.pcu).max_in as usize;
        // the last node has one producer more than a PCU has inputs
        let fan_in = || {
            let mut ins = vec![vec![]; max_in + 1];
            ins.push((0..=max_in).collect());
            ins
        };
        let mut one = Vudfg::new("t");
        add_vcu_dfg(&mut one, fan_in());
        let mut two = one.clone();
        add_vcu_dfg(&mut two, fan_in());
        let opts = CompilerOptions::default();
        let err = assign(&mut two, &chip, &opts).unwrap_err().to_string();
        assert_eq!(
            err,
            format!(
                "partitioning failed: node {} has {} distinct producers, exceeding input arity \
                 {max_in}",
                max_in + 1,
                max_in + 1
            )
        );
        assert_eq!(err, assign(&mut one, &chip, &opts).unwrap_err().to_string());
    }

    #[test]
    fn small_units_merge_into_one_pcu() {
        let mut g = Vudfg::new("t");
        let a = add_vcu(&mut g, 2);
        let b = add_vcu(&mut g, 2);
        g.connect(a, b, StreamKind::Scalar, 4, "s");
        let chip = ChipSpec::tiny_4x4();
        let r = assign(&mut g, &chip, &CompilerOptions::default()).unwrap();
        assert_eq!(r.report.pcus, 1);
    }

    #[test]
    fn retiming_widens_imbalanced_join() {
        let mut g = Vudfg::new("t");
        // a -> b -> c -> d  and  a -> d  (short path joins a deep one)
        let a = add_vcu(&mut g, 1);
        let b = add_vcu(&mut g, 1);
        let c = add_vcu(&mut g, 1);
        let d = add_vcu(&mut g, 1);
        g.connect(a, b, StreamKind::Scalar, 4, "ab");
        g.connect(b, c, StreamKind::Scalar, 4, "bc");
        let (long, _, _) = g.connect(c, d, StreamKind::Scalar, 4, "cd");
        let (short, _, _) = g.connect(a, d, StreamKind::Scalar, 4, "ad");
        let chip = ChipSpec::tiny_4x4();
        let before = g.stream(short).depth;
        let _ = assign(&mut g, &chip, &CompilerOptions::default()).unwrap();
        assert!(g.stream(short).depth > before, "short path must gain buffering");
        assert_eq!(g.stream(long).depth, 4, "deep path unchanged");
    }

    #[test]
    fn retime_disabled_leaves_depths() {
        let mut g = Vudfg::new("t");
        let a = add_vcu(&mut g, 1);
        let b = add_vcu(&mut g, 1);
        let c = add_vcu(&mut g, 1);
        g.connect(a, b, StreamKind::Scalar, 4, "ab");
        g.connect(b, c, StreamKind::Scalar, 4, "bc");
        let (s, _, _) = g.connect(a, c, StreamKind::Scalar, 4, "ac");
        let chip = ChipSpec::tiny_4x4();
        let mut opts = CompilerOptions::default();
        opts.opt.retime = false;
        let r = assign(&mut g, &chip, &opts).unwrap();
        assert_eq!(g.stream(s).depth, 4);
        assert_eq!(r.report.retime_units, 0);
    }
}
