//! Global merging (paper §III-B(b)): pack small virtual units into larger
//! physical units. This is the partitioning problem generalized to the
//! VUDFG unit graph: nodes are compute-class virtual units, edges are the
//! zero-credit streams between them (credit-initialized token streams are
//! legal cycle-breakers and do not constrain merging), and feasibility
//! restricts fusion to units with identical control signatures.

use crate::partition::{partition, Algo, Problem, Solution};
use crate::vudfg::{Level, StreamKind, UnitId, UnitKind, Vudfg};
use plasticine_arch::PartitionConstraints;
use std::collections::HashMap;

/// Result of global merging.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MergePlan {
    /// Units that participated in merging, in problem-node order.
    pub units: Vec<UnitId>,
    /// Group assignment aligned with `units`.
    pub solution: Solution,
}

impl MergePlan {
    /// Number of physical compute units after merging.
    pub fn merged_count(&self) -> usize {
        self.solution.num_groups
    }

    /// Group id of a unit, if it participated in merging.
    pub fn group_of(&self, u: UnitId) -> Option<usize> {
        self.units.iter().position(|x| *x == u).map(|i| self.solution.group[i])
    }
}

/// Whether a unit participates in compute-side merging (PCU-class units).
/// VMUs and AGs map to their own physical classes; response units ride in
/// the PMU of the memory they observe (paper §III-A1).
pub fn is_mergeable_compute(g: &Vudfg, u: UnitId) -> bool {
    match &g.unit(u).kind {
        UnitKind::Vcu(v) => !matches!(v.role, crate::vudfg::VcuRole::Response { .. }),
        UnitKind::Sync(_) | UnitKind::XbarDist(_) | UnitKind::XbarColl(_) => true,
        UnitKind::Vmu(_) | UnitKind::Ag(_) => false,
    }
}

/// Control-signature class of each unit: only units that iterate
/// identically can share one physical unit's counter chain. Each distinct
/// VCU signature (full levels and SIMD width) gets a dense id from 1 in
/// first-seen order; lane offsets distinguish spatially unrolled lanes,
/// since one physical counter chain cannot serve two lanes. Stream-driven
/// helpers (sync, crossbars) share class 0 and merge among themselves.
fn classes_of(g: &Vudfg, units: &[UnitId]) -> Vec<u32> {
    let mut ids: HashMap<(&[Level], u32), u32> = HashMap::new();
    units
        .iter()
        .map(|u| match &g.unit(*u).kind {
            UnitKind::Vcu(v) => {
                let next = ids.len() as u32 + 1;
                *ids.entry((&v.levels, v.width)).or_insert(next)
            }
            _ => 0,
        })
        .collect()
}

/// Stage cost of a unit for merging purposes (zero-datapath units still
/// consume a pipeline slot when fused).
fn cost_of(g: &Vudfg, u: UnitId, transcendental_stages: u32) -> u32 {
    match &g.unit(u).kind {
        UnitKind::Vcu(v) => v.stage_cost(transcendental_stages).max(1),
        UnitKind::Sync(_) => 0,
        UnitKind::XbarDist(_) | UnitKind::XbarColl(_) => 1,
        _ => 0,
    }
}

/// Build and solve the global-merging problem.
///
/// `precost` optionally overrides the cost of units that were already
/// internally partitioned: units needing more than one physical unit are
/// excluded from merging (their cost is accounted separately).
///
/// # Errors
///
/// Propagates partitioning failures (none expected for well-formed
/// inputs; per-unit costs are clamped to capacity).
pub fn merge(
    g: &Vudfg,
    cons: PartitionConstraints,
    transcendental_stages: u32,
    algo: Algo,
    precost: &HashMap<UnitId, u32>,
) -> Result<MergePlan, String> {
    let units: Vec<UnitId> = g
        .unit_ids()
        .filter(|u| is_mergeable_compute(g, *u))
        .filter(|u| precost.get(u).copied().unwrap_or(1) <= 1)
        .collect();
    let index: HashMap<UnitId, usize> = units.iter().enumerate().map(|(i, u)| (*u, i)).collect();
    let costs: Vec<u32> =
        units.iter().map(|u| cost_of(g, *u, transcendental_stages).min(cons.max_ops)).collect();
    let classes = classes_of(g, &units);
    let mut edges = Vec::new();
    for s in &g.streams {
        // Credit-initialized token streams break cycles by construction.
        if matches!(s.kind, StreamKind::Token { init } if init > 0) {
            continue;
        }
        if let (Some(a), Some(b)) = (index.get(&s.src), index.get(&s.dst)) {
            if a != b {
                edges.push((*a, *b));
            }
        }
    }
    let problem = Problem::new(costs, edges, cons).with_classes(classes);
    let solution = partition(&problem, algo)?;
    Ok(MergePlan { units, solution })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vudfg::{CBound, DfgNode, NodeOp, SyncUnit, Vcu, VcuRole};
    use sara_ir::{BinOp, CtrlId};

    fn vcu(levels: Vec<Level>, n_ops: usize) -> UnitKind {
        let dfg =
            (0..n_ops).map(|_| DfgNode { op: NodeOp::Bin(BinOp::Add), ins: vec![] }).collect();
        UnitKind::Vcu(Vcu {
            levels,
            dfg,
            width: 1,
            role: VcuRole::Merge,
            token_pops: vec![],
            token_pushes: vec![],
            producer_gate_mask: vec![],
            epoch_emit: None,
        })
    }

    fn lvl(c: u32) -> Level {
        Level::Counter {
            min: CBound::Const(0),
            max: CBound::Const(8),
            step: 1,
            lane_offset: 0,
            lane_stride: 1,
            ctrl: CtrlId(c),
        }
    }

    fn cons() -> PartitionConstraints {
        PartitionConstraints {
            max_ops: 6,
            max_in: 10,
            max_out: 4,
            buffer_depth: 16,
            max_counters: 8,
        }
    }

    #[test]
    fn same_signature_units_fuse() {
        let mut g = Vudfg::new("t");
        let a = g.add_unit("a", vcu(vec![lvl(1)], 2));
        let b = g.add_unit("b", vcu(vec![lvl(1)], 2));
        g.connect(a, b, StreamKind::Scalar, 4, "s");
        let plan = merge(&g, cons(), 2, Algo::BestTraversal, &HashMap::new()).unwrap();
        assert_eq!(plan.merged_count(), 1);
        assert_eq!(plan.group_of(a), plan.group_of(b));
    }

    #[test]
    fn different_signatures_stay_apart() {
        let mut g = Vudfg::new("t");
        let a = g.add_unit("a", vcu(vec![lvl(1)], 1));
        let b = g.add_unit("b", vcu(vec![lvl(2)], 1));
        let plan = merge(&g, cons(), 2, Algo::BestTraversal, &HashMap::new()).unwrap();
        assert_eq!(plan.merged_count(), 2);
        assert_ne!(plan.group_of(a), plan.group_of(b));
    }

    #[test]
    fn signatures_get_dense_classes_in_first_seen_order() {
        let mut g = Vudfg::new("t");
        let a = g.add_unit("a", vcu(vec![lvl(2)], 1));
        let b = g.add_unit("b", vcu(vec![lvl(1)], 1));
        let sync = g.add_unit("sync", UnitKind::Sync(SyncUnit));
        let c = g.add_unit("c", vcu(vec![lvl(2)], 1));
        let mut wide = vcu(vec![lvl(2)], 1);
        if let UnitKind::Vcu(v) = &mut wide {
            v.width = 4;
        }
        let d = g.add_unit("d", wide);
        assert_eq!(classes_of(&g, &[a, b, sync, c, d]), vec![1, 2, 0, 1, 3]);
    }

    #[test]
    fn capacity_limits_fusion() {
        let mut g = Vudfg::new("t");
        let a = g.add_unit("a", vcu(vec![lvl(1)], 4));
        let _b = g.add_unit("b", vcu(vec![lvl(1)], 4));
        let plan = merge(&g, cons(), 2, Algo::BestTraversal, &HashMap::new()).unwrap();
        assert_eq!(plan.merged_count(), 2);
        let _ = a;
    }

    #[test]
    fn credited_token_cycles_do_not_block_merging() {
        let mut g = Vudfg::new("t");
        let a = g.add_unit("a", vcu(vec![lvl(1)], 1));
        let b = g.add_unit("b", vcu(vec![lvl(1)], 1));
        g.connect(a, b, StreamKind::Scalar, 4, "fwd");
        g.connect(b, a, StreamKind::Token { init: 1 }, 4, "credit");
        let plan = merge(&g, cons(), 2, Algo::BestTraversal, &HashMap::new()).unwrap();
        assert_eq!(plan.merged_count(), 1);
    }

    #[test]
    fn prepartitioned_units_excluded() {
        let mut g = Vudfg::new("t");
        let a = g.add_unit("a", vcu(vec![lvl(1)], 2));
        let b = g.add_unit("b", vcu(vec![lvl(1)], 2));
        let mut pre = HashMap::new();
        pre.insert(a, 3u32); // a already needs 3 PUs
        let plan = merge(&g, cons(), 2, Algo::BestTraversal, &pre).unwrap();
        assert_eq!(plan.units, vec![b]);
        assert_eq!(plan.merged_count(), 1);
    }
}
