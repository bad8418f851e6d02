//! Cross-chip sharding (multi-chip scale-out): cut the lowered VUDFG
//! into per-chip shards where CMMC token/credit traffic is thinnest.
//!
//! The pass runs *after* assignment, so it can respect the merge plan
//! (a merge group shares one physical PCU and can never straddle a chip
//! boundary) and the placer's PMU-riding rule (a response unit rides in
//! the PMU it listens to). Those constraints define *atomic clusters*;
//! clusters are ordered topologically and a contiguous-segment dynamic
//! program picks chip boundaries minimizing the estimated traffic
//! ([`crate::traffic`]) that crosses them, subject to per-chip grid
//! capacity. Chips are a *capacity* resource: a design that fits one
//! chip stays whole (the 1-segment plan has zero cut cost and always
//! wins when feasible), because every cut stream pays link latency and
//! shared link bandwidth — pure overhead unless the extra chip's slots
//! are actually needed.
//!
//! Chip-boundary crossings stay *explicit*: [`extract_shards`] clones
//! each chip's units (preserving unit order and port order, so a 1-chip
//! plan extracts the identity graph) and materializes every crossing as
//! a link-egress (`link.out:<label>`) or link-ingress (`link.in:<label>`)
//! stream endpoint. Each shard is therefore a closed VUDFG: every stream
//! has both endpoints on chip, token/credit conservation holds per
//! shard, and the PnR and sanitizer invariants apply unchanged. The
//! linked simulation runs the *original* graph (crossing streams become
//! rate-limited link FIFOs); the shards exist so PnR can place each chip
//! independently.

use crate::assign::Assignment;
use crate::merge::MergePlan;
use crate::partition::Solution;
use crate::report::ResourceReport;
use crate::traffic;
use crate::vudfg::{OutPort, Stream, StreamId, SyncUnit, Unit, UnitId, UnitKind, Vudfg};
use plasticine_arch::{PuType, SystemSpec};
use std::collections::HashMap;

/// Where every unit of a lowered VUDFG lives in a multi-chip system.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Number of chips in the system (shards beyond the last used
    /// segment are empty).
    pub count: u32,
    /// Chip index of every unit (indexed by unit id).
    pub chip_of: Vec<u32>,
    /// Streams whose endpoints sit on different chips, in id order.
    pub crossings: Vec<StreamId>,
    /// Estimated traffic crossing chip boundaries (element-equivalents;
    /// see [`traffic::stream_traffic`]).
    pub cut_traffic: f64,
}

impl ShardPlan {
    /// The trivial plan: everything on chip 0.
    pub fn single(g: &Vudfg) -> ShardPlan {
        ShardPlan {
            count: 1,
            chip_of: vec![0; g.units.len()],
            crossings: Vec::new(),
            cut_traffic: 0.0,
        }
    }

    /// An adversarial plan splitting the graph in half by unit index:
    /// the first half on chip 0, the rest on the last chip, so every
    /// stream between the halves crosses (multi-hop on grids wider than
    /// two chips). [`plan_shards`] keeps designs that fit one chip whole,
    /// so tests and the fuzz oracle use this plan to exercise the link
    /// model regardless of planner policy.
    pub fn halved(g: &Vudfg, count: u32) -> ShardPlan {
        let n = g.units.len();
        let last = count.max(1) - 1;
        let chip_of: Vec<u32> = (0..n).map(|i| if i < n / 2 { 0 } else { last }).collect();
        let crossings = g
            .streams
            .iter()
            .enumerate()
            .filter(|(_, s)| chip_of[s.src.index()] != chip_of[s.dst.index()])
            .map(|(i, _)| StreamId(i as u32))
            .collect();
        ShardPlan { count, chip_of, crossings, cut_traffic: 0.0 }
    }
}

/// One chip's closed sub-graph, ready for per-chip PnR.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Chip index this shard maps to.
    pub chip: u32,
    /// The shard graph: this chip's units in original relative order,
    /// then one link-endpoint unit per crossing incident to the chip.
    pub vudfg: Vudfg,
    /// Assignment restricted to the shard (link endpoints are typed AG:
    /// they live at the chip edge and never compete for PCU/PMU slots).
    pub assignment: Assignment,
    /// Local unit index → original unit (`None` for link endpoints).
    pub unit_map: Vec<Option<UnitId>>,
    /// Local stream index → `(original stream, fully on-chip?)`.
    pub stream_map: Vec<(StreamId, bool)>,
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

fn find(parent: &mut [usize], x: usize) -> usize {
    let mut r = x;
    while parent[r] != r {
        r = parent[r];
    }
    let mut c = x;
    while parent[c] != r {
        let next = parent[c];
        parent[c] = r;
        c = next;
    }
    r
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        // Deterministic: smaller root wins.
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        parent[hi] = lo;
    }
}

/// Decide a chip for every unit. A design that fits one chip stays
/// whole; otherwise the cut minimizes estimated crossing traffic over
/// the fewest-crossing capacity-feasible contiguous split. Infallible:
/// when the DP finds no feasible split the pass degrades to a
/// capacity-driven greedy split, and in the worst case to
/// everything-on-chip-0 (per-chip PnR then reports the capacity
/// overflow with exact numbers).
pub fn plan_shards(g: &Vudfg, asg: &Assignment, system: &SystemSpec) -> ShardPlan {
    let n = g.units.len();
    if system.count <= 1 || n == 0 {
        return ShardPlan { count: system.count.max(1), ..ShardPlan::single(g) };
    }

    // ---- atomic clusters: merge groups + the placer's PMU-riding rule ----
    let mut parent: Vec<usize> = (0..n).collect();
    let mut group_rep: HashMap<usize, usize> = HashMap::new();
    for (i, u) in asg.merge.units.iter().enumerate() {
        let grp = asg.merge.solution.group[i];
        match group_rep.get(&grp) {
            Some(&rep) => union(&mut parent, rep, u.index()),
            None => {
                group_rep.insert(grp, u.index());
            }
        }
    }
    for u in g.unit_ids() {
        // Mirror of sara-pnr: a PMU-class unit whose first input comes
        // from another PMU-class unit shares that unit's grid slot.
        if asg.pu_type.get(&u) == Some(&PuType::Pmu) {
            if let Some(first_in) = g.unit(u).inputs.first() {
                let src = g.stream(*first_in).src;
                if matches!(asg.pu_type.get(&src), Some(PuType::Pmu)) {
                    union(&mut parent, u.index(), src.index());
                }
            }
        }
    }

    // Dense cluster ids, ordered by smallest member unit.
    let mut cluster_of = vec![usize::MAX; n];
    let mut n_clusters = 0usize;
    for u in 0..n {
        let r = find(&mut parent, u);
        if cluster_of[r] == usize::MAX {
            cluster_of[r] = n_clusters;
            n_clusters += 1;
        }
        cluster_of[u] = cluster_of[r];
    }
    let k = n_clusters;

    // ---- per-cluster grid-slot demand and compute work ----
    // Slot accounting mirrors the placer: one slot per merge group or
    // solo unit, riders excluded, typed by the first member seen.
    let mut placeable_host = vec![usize::MAX; n]; // unit -> slot-owning unit
    let mut group_slot: HashMap<usize, usize> = HashMap::new();
    for u in g.unit_ids() {
        let owner = match asg.merge.group_of(u) {
            Some(grp) => *group_slot.entry(grp).or_insert(u.index()),
            None => u.index(),
        };
        placeable_host[u.index()] = owner;
    }
    for u in g.unit_ids() {
        if asg.pu_type.get(&u) == Some(&PuType::Pmu) {
            if let Some(first_in) = g.unit(u).inputs.first() {
                let src = g.stream(*first_in).src;
                if matches!(asg.pu_type.get(&src), Some(PuType::Pmu)) {
                    placeable_host[u.index()] = placeable_host[src.index()];
                }
            }
        }
    }
    let mut pcu_need = vec![0usize; k];
    let mut pmu_need = vec![0usize; k];
    for u in 0..n {
        let c = cluster_of[u];
        if placeable_host[u] == u {
            match asg.pu_type.get(&UnitId(u as u32)).copied().unwrap_or(PuType::Pcu) {
                PuType::Pcu => pcu_need[c] += 1,
                PuType::Pmu => pmu_need[c] += 1,
                PuType::Ag => {}
            }
        }
    }

    // ---- topological cluster order (Kahn over non-token inter-cluster
    // edges; residual cycles forced in min-unit order) ----
    let mut indeg = vec![0usize; k];
    let mut cadj: Vec<Vec<usize>> = vec![Vec::new(); k];
    for s in &g.streams {
        if s.kind.is_token() {
            continue;
        }
        let (a, b) = (cluster_of[s.src.index()], cluster_of[s.dst.index()]);
        if a != b {
            cadj[a].push(b);
            indeg[b] += 1;
        }
    }
    let mut pos = vec![usize::MAX; k];
    let mut placed = 0usize;
    let mut done = vec![false; k];
    while placed < k {
        // Smallest-id ready cluster; if none is ready (cycle), force the
        // smallest unprocessed one.
        let next = (0..k)
            .filter(|&c| !done[c] && indeg[c] == 0)
            .chain((0..k).filter(|&c| !done[c]))
            .next()
            .expect("unprocessed cluster exists");
        done[next] = true;
        pos[next] = placed;
        placed += 1;
        for &d in &cadj[next] {
            if !done[d] {
                indeg[d] = indeg[d].saturating_sub(1);
            }
        }
    }
    let mut ord = vec![0usize; k]; // position -> cluster
    for c in 0..k {
        ord[pos[c]] = c;
    }

    // ---- boundary traffic: b[j] = traffic crossing the cut between
    // positions j-1 and j (difference-array sweep over all edges) ----
    let weight = traffic::stream_traffic(g);
    let mut diff = vec![0f64; k + 1];
    for (i, s) in g.streams.iter().enumerate() {
        let (a, b) = (cluster_of[s.src.index()], cluster_of[s.dst.index()]);
        if a == b {
            continue;
        }
        let (lo, hi) = (pos[a].min(pos[b]), pos[a].max(pos[b]));
        diff[lo + 1] += weight[i];
        diff[hi + 1] -= weight[i];
    }
    let mut boundary = vec![0f64; k + 1];
    for j in 1..=k {
        boundary[j] = boundary[j - 1] + diff[j];
    }

    // ---- prefix sums in position order ----
    let mut pcu_pre = vec![0usize; k + 1];
    let mut pmu_pre = vec![0usize; k + 1];
    for p in 0..k {
        pcu_pre[p + 1] = pcu_pre[p] + pcu_need[ord[p]];
        pmu_pre[p + 1] = pmu_pre[p] + pmu_need[ord[p]];
    }
    let chip_pcus = system.chip.pcus() as usize;
    let chip_pmus = system.chip.pmus() as usize;
    let m = (system.count as usize).min(k);

    // ---- contiguous-segment DP: minimize total boundary traffic over
    // at most m segments, each within chip grid capacity. Fewer
    // segments never cost more (dropping a cut only removes boundary
    // traffic), so a design that fits one chip yields the whole-graph
    // plan with zero crossings. ----
    let try_dp = || -> Option<Vec<usize>> {
        let inf = f64::INFINITY;
        let mut f = vec![vec![inf; m + 1]; k + 1];
        let mut arg = vec![vec![usize::MAX; m + 1]; k + 1];
        f[0][0] = 0.0;
        for p in 1..=k {
            for c in 1..=m.min(p) {
                for q in (c - 1)..p {
                    if f[q][c - 1].is_infinite() {
                        continue;
                    }
                    if pcu_pre[p] - pcu_pre[q] > chip_pcus || pmu_pre[p] - pmu_pre[q] > chip_pmus {
                        continue;
                    }
                    let cost = f[q][c - 1] + if q > 0 { boundary[q] } else { 0.0 };
                    if cost < f[p][c] {
                        f[p][c] = cost;
                        arg[p][c] = q;
                    }
                }
            }
        }
        let best = (1..=m)
            .filter(|&c| f[k][c].is_finite())
            .min_by(|&a, &b| f[k][a].partial_cmp(&f[k][b]).unwrap_or(std::cmp::Ordering::Equal))?;
        let mut cuts = Vec::new(); // segment start positions, reversed
        let (mut p, mut c) = (k, best);
        while p > 0 {
            let q = arg[p][c];
            cuts.push(q);
            p = q;
            c -= 1;
        }
        cuts.reverse();
        Some(cuts)
    };

    let seg_starts = try_dp().unwrap_or_else(|| {
        // Greedy capacity-driven fallback: open a new segment whenever
        // the next cluster would overflow the chip (while chips remain).
        let mut starts = vec![0usize];
        let (mut pc, mut pm) = (0usize, 0usize);
        for (p, &c) in ord.iter().enumerate().take(k) {
            if starts.len() < system.count as usize
                && p > 0
                && (pc + pcu_need[c] > chip_pcus || pm + pmu_need[c] > chip_pmus)
            {
                starts.push(p);
                pc = 0;
                pm = 0;
            }
            pc += pcu_need[c];
            pm += pmu_need[c];
        }
        starts
    });

    // ---- materialize the plan ----
    let mut seg_of_pos = vec![0u32; k];
    for (seg, &start) in seg_starts.iter().enumerate() {
        let end = seg_starts.get(seg + 1).copied().unwrap_or(k);
        for p in seg_of_pos.iter_mut().take(end).skip(start) {
            *p = seg as u32;
        }
    }
    let chip_of: Vec<u32> = (0..n).map(|u| seg_of_pos[pos[cluster_of[u]]]).collect();
    let mut crossings = Vec::new();
    let mut cut_traffic = 0.0;
    for (i, s) in g.streams.iter().enumerate() {
        if chip_of[s.src.index()] != chip_of[s.dst.index()] {
            crossings.push(StreamId(i as u32));
            cut_traffic += weight[i];
        }
    }
    ShardPlan { count: system.count, chip_of, crossings, cut_traffic }
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

/// Cut the graph into per-chip closed shards following a plan. Shard
/// `c` holds chip `c`'s units in their original relative order (so a
/// 1-chip plan extracts a graph identical to the input, modulo name),
/// with one link-endpoint unit appended per incident crossing.
pub fn extract_shards(g: &Vudfg, asg: &Assignment, plan: &ShardPlan) -> Vec<Shard> {
    (0..plan.count).map(|chip| extract_one(g, asg, plan, chip)).collect()
}

fn extract_one(g: &Vudfg, asg: &Assignment, plan: &ShardPlan, chip: u32) -> Shard {
    let mut local_of_unit: HashMap<UnitId, UnitId> = HashMap::new();
    let mut units: Vec<Unit> = Vec::new();
    let mut unit_map: Vec<Option<UnitId>> = Vec::new();
    for u in g.unit_ids() {
        if plan.chip_of[u.index()] == chip {
            local_of_unit.insert(u, UnitId(units.len() as u32));
            units.push(g.unit(u).clone());
            unit_map.push(Some(u));
        }
    }
    let n_orig = units.len();

    // Streams in global id order; crossings grow an endpoint unit.
    let mut local_of_stream: HashMap<StreamId, StreamId> = HashMap::new();
    let mut streams: Vec<Stream> = Vec::new();
    let mut stream_map: Vec<(StreamId, bool)> = Vec::new();
    for (i, s) in g.streams.iter().enumerate() {
        let gsid = StreamId(i as u32);
        let src_on = plan.chip_of[s.src.index()] == chip;
        let dst_on = plan.chip_of[s.dst.index()] == chip;
        if !src_on && !dst_on {
            continue;
        }
        let lsid = StreamId(streams.len() as u32);
        local_of_stream.insert(gsid, lsid);
        stream_map.push((gsid, src_on && dst_on));
        let mut ns = s.clone();
        if src_on && dst_on {
            ns.src = local_of_unit[&s.src];
            ns.dst = local_of_unit[&s.dst];
        } else if src_on {
            let eid = UnitId(units.len() as u32);
            units.push(Unit {
                label: format!("link.out:{}", s.label),
                kind: UnitKind::Sync(SyncUnit),
                inputs: vec![lsid],
                outputs: Vec::new(),
            });
            unit_map.push(None);
            ns.src = local_of_unit[&s.src];
            ns.dst = eid;
        } else {
            let eid = UnitId(units.len() as u32);
            units.push(Unit {
                label: format!("link.in:{}", s.label),
                kind: UnitKind::Sync(SyncUnit),
                inputs: Vec::new(),
                outputs: vec![OutPort { streams: vec![lsid] }],
            });
            unit_map.push(None);
            ns.src = eid;
            ns.dst = local_of_unit[&s.dst];
        }
        streams.push(ns);
    }

    // Rebuild the original units' ports from the global port lists, so
    // port order (and therefore unit semantics) is preserved exactly.
    for li in 0..n_orig {
        let gu = g.unit(unit_map[li].expect("original unit"));
        units[li].inputs = gu.inputs.iter().map(|s| local_of_stream[s]).collect();
        units[li].outputs = gu
            .outputs
            .iter()
            .map(|p| OutPort { streams: p.streams.iter().map(|s| local_of_stream[s]).collect() })
            .collect();
    }

    // Restrict the assignment. Link endpoints are AG-class: they sit at
    // the chip edge next to the SerDes, and AG slots pack round-robin so
    // placement can never fail on them.
    let mut unit_parts = HashMap::new();
    let mut extra_latency = HashMap::new();
    let mut pu_type = HashMap::new();
    for (li, gopt) in unit_map.iter().enumerate() {
        let lu = UnitId(li as u32);
        match gopt {
            Some(gu) => {
                if let Some(&v) = asg.unit_parts.get(gu) {
                    unit_parts.insert(lu, v);
                }
                if let Some(&v) = asg.extra_latency.get(gu) {
                    extra_latency.insert(lu, v);
                }
                if let Some(&t) = asg.pu_type.get(gu) {
                    pu_type.insert(lu, t);
                }
            }
            None => {
                unit_parts.insert(lu, 1);
                pu_type.insert(lu, PuType::Ag);
            }
        }
    }
    let mut merge_units = Vec::new();
    let mut merge_groups = Vec::new();
    for (i, u) in asg.merge.units.iter().enumerate() {
        if let Some(&lu) = local_of_unit.get(u) {
            merge_units.push(lu);
            merge_groups.push(asg.merge.solution.group[i]);
        }
    }
    let merge = MergePlan {
        units: merge_units,
        // Group ids keep their global numbering: the placer only tests
        // them for equality.
        solution: Solution { group: merge_groups, num_groups: asg.merge.solution.num_groups },
    };
    let report = ResourceReport {
        pcus: pu_type.values().filter(|t| **t == PuType::Pcu).count(),
        pmus: pu_type.values().filter(|t| **t == PuType::Pmu).count(),
        ags: pu_type.values().filter(|t| **t == PuType::Ag).count(),
        streams: streams.len(),
        token_streams: streams.iter().filter(|s| s.kind.is_token()).count(),
        retime_units: 0,
    };
    let vudfg =
        Vudfg { units, streams, drams: g.drams.clone(), name: format!("{}:chip{}", g.name, chip) };
    Shard {
        chip,
        vudfg,
        assignment: Assignment { report, unit_parts, extra_latency, merge, pu_type },
        unit_map,
        stream_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::assign;
    use crate::compile::CompilerOptions;
    use crate::vudfg::{CBound, DfgNode, Level, NodeOp, StreamKind, Vcu, VcuRole};
    use plasticine_arch::ChipSpec;
    use sara_ir::{BinOp, CtrlId};

    fn vcu(ctrl: u32, trip: i64) -> UnitKind {
        UnitKind::Vcu(Vcu {
            levels: vec![Level::Counter {
                min: CBound::Const(0),
                max: CBound::Const(trip),
                step: 1,
                lane_offset: 0,
                lane_stride: 1,
                ctrl: CtrlId(ctrl),
            }],
            dfg: vec![DfgNode { op: NodeOp::Bin(BinOp::Add), ins: vec![] }],
            width: 1,
            role: VcuRole::Merge,
            token_pops: vec![],
            token_pushes: vec![],
            producer_gate_mask: vec![],
            epoch_emit: None,
        })
    }

    /// Two heavily connected chains of `side` units each, joined only
    /// by a thin token stream. Sized so `2 * side` slots create real
    /// capacity pressure on a small chip.
    fn dumbbell(side: usize) -> Vudfg {
        let mut g = Vudfg::new("dumbbell");
        let mut units = Vec::new();
        for i in 0..2 * side {
            units.push(g.add_unit(format!("u{i}"), vcu(i as u32 + 1, 16)));
        }
        for half in 0..2 {
            for i in 1..side {
                let (p, q) = (units[half * side + i - 1], units[half * side + i]);
                g.connect(p, q, StreamKind::Vector(8), 4, format!("v{half}.{i}"));
            }
        }
        g.connect(units[side - 1], units[side], StreamKind::Token { init: 0 }, 4, "bridge");
        g
    }

    #[test]
    fn single_chip_plan_is_trivial() {
        let mut g = dumbbell(2);
        let chip = ChipSpec::small_8x8();
        let asg = assign(&mut g, &chip, &CompilerOptions::default()).unwrap();
        let plan = plan_shards(&g, &asg, &SystemSpec::single(chip));
        assert_eq!(plan.count, 1);
        assert!(plan.crossings.is_empty());
        assert_eq!(plan.cut_traffic, 0.0);
        assert!(plan.chip_of.iter().all(|&c| c == 0));
    }

    #[test]
    fn fitting_designs_stay_on_one_chip() {
        // Chips are a capacity resource: a graph that fits one chip
        // must not be spread (every cut would trade nothing for link
        // latency), even when more chips are available.
        let mut g = dumbbell(2);
        let chip = ChipSpec::small_8x8();
        let asg = assign(&mut g, &chip, &CompilerOptions::default()).unwrap();
        let plan = plan_shards(&g, &asg, &SystemSpec::grid(chip, 4));
        assert_eq!(plan.count, 4);
        assert!(plan.crossings.is_empty(), "no forced spreading: {plan:?}");
        assert_eq!(plan.cut_traffic, 0.0);
        assert!(plan.chip_of.iter().all(|&c| c == 0));
    }

    #[test]
    fn two_chip_plan_cuts_the_thin_token_edge() {
        // Each half needs more grid slots than one tiny chip has, so
        // the planner must split — and the cheapest cut is the token
        // bridge, not a fat vector edge inside a half.
        let chip = ChipSpec::tiny_4x4();
        let side = chip.pcus() as usize; // 2*side slots on a side-slot chip
        let mut g = dumbbell(side);
        let asg = assign(&mut g, &chip, &CompilerOptions::default()).unwrap();
        let plan = plan_shards(&g, &asg, &SystemSpec::grid(chip, 2));
        assert_eq!(plan.crossings.len(), 1, "exactly one crossing: {plan:?}");
        let s = g.stream(plan.crossings[0]);
        assert!(s.kind.is_token(), "the token edge is the thinnest cut: {plan:?}");
        for i in 1..side {
            assert_eq!(plan.chip_of[i - 1], plan.chip_of[i], "left half together");
            assert_eq!(plan.chip_of[side + i - 1], plan.chip_of[side + i], "right half together");
        }
        assert_ne!(plan.chip_of[0], plan.chip_of[side]);
    }

    #[test]
    fn halved_plan_splits_by_unit_index() {
        // 3 + 3 units: the chains stay whole and only the bridge, from
        // the last unit of the first half, crosses to the last chip.
        let g = dumbbell(3);
        let plan = ShardPlan::halved(&g, 4);
        assert_eq!(plan.count, 4);
        assert_eq!(plan.chip_of, vec![0, 0, 0, 3, 3, 3]);
        assert_eq!(plan.crossings.len(), 1);
        assert_eq!(g.stream(plan.crossings[0]).label, "bridge");
    }

    #[test]
    fn one_chip_extraction_is_the_identity() {
        let mut g = dumbbell(2);
        let chip = ChipSpec::small_8x8();
        let asg = assign(&mut g, &chip, &CompilerOptions::default()).unwrap();
        let plan = ShardPlan::single(&g);
        let shards = extract_shards(&g, &asg, &plan);
        assert_eq!(shards.len(), 1);
        let sh = &shards[0];
        assert_eq!(sh.vudfg.units, g.units, "unit order and ports preserved");
        assert_eq!(sh.vudfg.streams, g.streams);
        assert_eq!(sh.vudfg.drams, g.drams);
        assert_eq!(sh.assignment.pu_type.len(), asg.pu_type.len());
        for (li, gu) in sh.unit_map.iter().enumerate() {
            assert_eq!(gu.unwrap().index(), li);
        }
        assert!(sh.stream_map.iter().all(|&(_, internal)| internal));
    }

    #[test]
    fn crossings_become_link_endpoints_and_shards_are_closed() {
        let chip = ChipSpec::tiny_4x4();
        let mut g = dumbbell(chip.pcus() as usize);
        let asg = assign(&mut g, &chip, &CompilerOptions::default()).unwrap();
        let plan = plan_shards(&g, &asg, &SystemSpec::grid(chip, 2));
        let shards = extract_shards(&g, &asg, &plan);
        assert_eq!(shards.len(), 2);
        let egress_chip = plan.chip_of[g.stream(plan.crossings[0]).src.index()];
        for sh in &shards {
            // Closed: every stream's endpoints are local units.
            for s in &sh.vudfg.streams {
                assert!(s.src.index() < sh.vudfg.units.len());
                assert!(s.dst.index() < sh.vudfg.units.len());
            }
            let eps: Vec<&Unit> =
                sh.vudfg.units.iter().filter(|u| u.label.starts_with("link.")).collect();
            assert_eq!(eps.len(), 1, "one crossing endpoint per shard");
            let want = if sh.chip == egress_chip { "link.out:" } else { "link.in:" };
            assert!(eps[0].label.starts_with(want), "{}", eps[0].label);
            // Endpoints are AG-class so placement cannot fail on them.
            let ep_id =
                UnitId(sh.vudfg.units.iter().position(|u| u.label.starts_with("link.")).unwrap()
                    as u32);
            assert_eq!(sh.assignment.pu_type[&ep_id], PuType::Ag);
            assert!(sh.unit_map[ep_id.index()].is_none());
        }
    }
}
