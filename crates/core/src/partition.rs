//! Compute partitioning (paper §III-B1, Tables I–III): splitting an
//! oversized dataflow graph into unit-sized partitions subject to
//! capacity, input/output arity and acyclicity constraints, minimizing the
//! number of allocated partitions (plus projected retiming partitions).
//!
//! Two algorithm families are provided, as in the paper:
//!
//! * **traversal-based** ([`Algo::Traversal`]): topologically sort the
//!   graph (DFS or BFS tie-breaking, forward or backward dataflow order)
//!   and greedily pack consecutive nodes into partitions — fast, decent;
//! * **solver-based** ([`Algo::Solver`]): branch-and-bound over the exact
//!   node-to-partition assignment model of Table III, warm-started by the
//!   best traversal solution and stopped at a configurable optimality gap
//!   or time budget — near-optimal, slow. (The paper uses Gurobi; this
//!   reproduction ships its own exact-model solver, see DESIGN.md.)
//!
//! The traversal packer costs each node its degree. [`partition`] builds
//! per-node predecessor and successor lists once per call, and the open
//! group keeps its input and output arity as counters that change only
//! where a joining node's edges land. [`Problem::check`] finds every
//! group's arity in one sort over the edges. The solver keeps its own
//! from-scratch arity check for partial assignments, so its search order
//! does not depend on the packer's bookkeeping. Unrolled lanes share one
//! `Problem`, so `assign` solves each distinct problem once per call.

use crate::depgraph::DiGraph;
use plasticine_arch::PartitionConstraints;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

/// A partitioning problem instance: a DAG of nodes with stage costs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Problem {
    /// Stage cost per node (0-cost nodes ride along for free).
    pub costs: Vec<u32>,
    /// Data edges `(src, dst)`, deduplicated.
    pub edges: Vec<(usize, usize)>,
    /// Hardware constraints.
    pub cons: PartitionConstraints,
    /// Optional feasibility classes (Table III's matrix `F`): nodes may
    /// share a group only if they have the same class. Used by global
    /// merging, where only units with identical control signatures can
    /// fuse into one physical unit.
    pub classes: Option<Vec<u32>>,
}

impl Problem {
    /// Build from cost and edge lists; edges are deduplicated and
    /// self-loops (internal loop-carried dependencies, legal inside a
    /// partition) dropped.
    pub fn new(
        costs: Vec<u32>,
        mut edges: Vec<(usize, usize)>,
        cons: PartitionConstraints,
    ) -> Self {
        edges.retain(|(a, b)| a != b);
        edges.sort_unstable();
        edges.dedup();
        Problem { costs, edges, cons, classes: None }
    }

    /// Attach feasibility classes (builder style).
    pub fn with_classes(mut self, classes: Vec<u32>) -> Self {
        self.classes = Some(classes);
        self
    }

    /// Whether two nodes may share a group.
    fn compatible(&self, a: usize, b: usize) -> bool {
        match &self.classes {
            None => true,
            Some(c) => c[a] == c[b],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    fn graph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.len());
        for (a, b) in &self.edges {
            g.add_edge(*a, *b);
        }
        g
    }

    /// Lower bound on the number of partitions (capacity relaxation).
    pub fn lower_bound(&self) -> usize {
        let total: u32 = self.costs.iter().sum();
        (total as usize).div_ceil(self.cons.max_ops.max(1) as usize).max(1)
    }

    /// Check a full assignment for validity; returns the violation.
    pub fn check(&self, group: &[usize]) -> Result<usize, String> {
        let n_groups = group.iter().copied().max().map(|m| m + 1).unwrap_or(0);
        // capacity
        let mut cost = vec![0u32; n_groups];
        for (i, g) in group.iter().enumerate() {
            cost[*g] += self.costs[i];
        }
        if let Some((g, c)) = cost.iter().enumerate().find(|(_, c)| **c > self.cons.max_ops) {
            return Err(format!("group {g} cost {c} exceeds {}", self.cons.max_ops));
        }
        // arity: unique external producers feeding each group, and unique
        // members with an external consumer (broadcast counts once), from
        // one sort of `(group, node)` pairs
        let mut ins = Vec::new();
        let mut outs = Vec::new();
        for &(a, b) in &self.edges {
            if group[a] != group[b] {
                ins.push((group[b], a));
                outs.push((group[a], a));
            }
        }
        let per_group = |mut pairs: Vec<(usize, usize)>| {
            pairs.sort_unstable();
            pairs.dedup();
            let mut count = vec![0usize; n_groups];
            for (g, _) in pairs {
                count[g] += 1;
            }
            count
        };
        let (ins, outs) = (per_group(ins), per_group(outs));
        for g in 0..n_groups {
            if ins[g] > self.cons.max_in as usize {
                return Err(format!("group {g} input arity {}", ins[g]));
            }
            if outs[g] > self.cons.max_out as usize {
                return Err(format!("group {g} output arity {}", outs[g]));
            }
        }
        // class feasibility
        if let Some(classes) = &self.classes {
            let mut rep: Vec<Option<u32>> = vec![None; n_groups];
            for (i, g) in group.iter().enumerate() {
                match rep[*g] {
                    None => rep[*g] = Some(classes[i]),
                    Some(c) if c != classes[i] => {
                        return Err(format!("group {g} mixes classes"));
                    }
                    _ => {}
                }
            }
        }
        // acyclicity
        let q = self.graph().quotient(group, n_groups);
        if !q.is_dag() {
            return Err("cyclic quotient".into());
        }
        Ok(n_groups)
    }
}

/// Traversal order for the heuristic packer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraversalOrder {
    DfsFwd,
    DfsBwd,
    BfsFwd,
    BfsBwd,
}

impl TraversalOrder {
    /// All four orders (the Fig 11 sweep).
    pub const ALL: [TraversalOrder; 4] = [
        TraversalOrder::DfsFwd,
        TraversalOrder::DfsBwd,
        TraversalOrder::BfsFwd,
        TraversalOrder::BfsBwd,
    ];
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverCfg {
    /// Stop when within this fraction of the capacity lower bound
    /// (paper uses a 15% optimality gap with Gurobi).
    pub gap: f64,
    /// Wall-clock budget.
    pub budget_ms: u64,
}

impl Default for SolverCfg {
    fn default() -> Self {
        SolverCfg { gap: 0.15, budget_ms: 2_000 }
    }
}

/// Algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Algo {
    Traversal(TraversalOrder),
    /// Best of all four traversal orders.
    BestTraversal,
    Solver(SolverCfg),
}

/// A partitioning result.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Solution {
    /// Group id per node.
    pub group: Vec<usize>,
    /// Number of groups.
    pub num_groups: usize,
}

/// Partition a problem with the chosen algorithm.
///
/// # Errors
///
/// Returns a message when a single node exceeds the capacity constraint
/// (no valid partitioning exists).
pub fn partition(p: &Problem, algo: Algo) -> Result<Solution, String> {
    if p.is_empty() {
        return Ok(Solution { group: vec![], num_groups: 0 });
    }
    if let Some((i, c)) = p.costs.iter().enumerate().find(|(_, c)| **c > p.cons.max_ops) {
        return Err(format!("node {i} cost {c} exceeds unit capacity {}", p.cons.max_ops));
    }
    let adj = Adjacency::new(p);
    // A node with more distinct producers than input ports is infeasible
    // even in a singleton group.
    if let Some((i, preds)) =
        adj.preds.iter().enumerate().find(|(_, ps)| ps.len() > p.cons.max_in as usize)
    {
        return Err(format!(
            "node {i} has {} distinct producers, exceeding input arity {}",
            preds.len(),
            p.cons.max_in
        ));
    }
    match algo {
        Algo::Traversal(ord) => traversal(p, &adj, ord),
        Algo::BestTraversal => best_traversal(p, &adj),
        Algo::Solver(cfg) => solver(p, &adj, cfg),
    }
}

/// Per-node adjacency of a problem's edges, repeats and self-loops
/// dropped as [`Problem::new`] drops them, in the order a [`DiGraph`]
/// built from them holds it: successors in first-seen edge order,
/// predecessors by ascending source.
struct Adjacency {
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl Adjacency {
    fn new(p: &Problem) -> Self {
        let n = p.len();
        let mut succs = vec![Vec::new(); n];
        for &(a, b) in &p.edges {
            succs[a].push(b);
        }
        // `last[b]` is the latest source that listed `b`.
        let mut last = vec![usize::MAX; n];
        for (a, ss) in succs.iter_mut().enumerate() {
            ss.retain(|&b| b != a && std::mem::replace(&mut last[b], a) != a);
        }
        let mut preds = vec![Vec::new(); n];
        for (a, ss) in succs.iter().enumerate() {
            for &b in ss {
                preds[b].push(a);
            }
        }
        Adjacency { preds, succs }
    }
}

/// Best of the four traversal orders (the first one on a tie).
fn best_traversal(p: &Problem, adj: &Adjacency) -> Result<Solution, String> {
    let mut best: Option<Solution> = None;
    for ord in TraversalOrder::ALL {
        let s = traversal(p, adj, ord)?;
        if best.as_ref().map(|b| s.num_groups < b.num_groups).unwrap_or(true) {
            best = Some(s);
        }
    }
    best.ok_or_else(|| "no traversal order produced a partition".to_string())
}

/// Topological order with DFS/BFS tie-breaking, forward or backward.
fn order_nodes(adj: &Adjacency, ord: TraversalOrder) -> Vec<usize> {
    let backward = matches!(ord, TraversalOrder::DfsBwd | TraversalOrder::BfsBwd);
    // Traverse reversed edges for backward orders.
    let (next, prev) = if backward { (&adj.preds, &adj.succs) } else { (&adj.succs, &adj.preds) };
    let n = next.len();
    let mut indeg: Vec<usize> = prev.iter().map(Vec::len).collect();
    let mut ready: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut out = Vec::with_capacity(n);
    let dfs = matches!(ord, TraversalOrder::DfsFwd | TraversalOrder::DfsBwd);
    while let Some(x) = if dfs { ready.pop_back() } else { ready.pop_front() } {
        out.push(x);
        for &s in &next[x] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                // DFS: newly enabled nodes go on top (depth-first chains);
                // BFS: at the back (layer by layer).
                ready.push_back(s);
            }
        }
    }
    if out.len() < n {
        // Cycle remnants (should not happen on DAGs; on a cycle with no
        // start node, the whole graph): append the rest in index order.
        let mut placed = vec![false; n];
        for &x in &out {
            placed[x] = true;
        }
        out.extend((0..n).filter(|&i| !placed[i]));
    }
    if backward {
        out.reverse();
    }
    out
}

/// Greedy consecutive packing along a topological order. Packing
/// consecutive order segments guarantees the quotient stays acyclic.
fn traversal(p: &Problem, adj: &Adjacency, ord: TraversalOrder) -> Result<Solution, String> {
    let mut open = OpenGroup::new(adj);
    let mut gcost = 0u32;
    let mut grep: Option<usize> = None;
    for (i, node) in order_nodes(adj, ord).into_iter().enumerate() {
        let c = p.costs[node];
        if i > 0 {
            // try current group
            let fits = gcost + c <= p.cons.max_ops
                && grep.map(|r| p.compatible(r, node)).unwrap_or(true)
                && open.arity_ok_with(node, p.cons);
            if !fits {
                open.close();
                gcost = 0;
                grep = None;
            }
        }
        open.join(node);
        gcost += c;
        grep = grep.or(Some(node));
    }
    // A node that opens a group stays there even when it alone breaks
    // the arity limits; the check below reports it.
    let sol = Solution { num_groups: open.gid + 1, group: open.group };
    // Final validation (acyclicity holds by construction for forward
    // segment packing; verify everything anyway).
    p.check(&sol.group).map_err(|e| format!("traversal produced invalid solution: {e}"))?;
    Ok(sol)
}

/// The traversal's assignment so far, with the arity of its open group
/// (`gid`) kept up to date as nodes join. Unassigned nodes and closed
/// groups count as outside.
struct OpenGroup<'a> {
    adj: &'a Adjacency,
    group: Vec<usize>,
    gid: usize,
    /// Per outside node: its edges into the group.
    feeds: Vec<u32>,
    /// Per member: its consumers outside the group.
    leaves: Vec<u32>,
    /// Input arity: outside nodes with `feeds > 0`.
    ins: usize,
    /// Output arity: members with `leaves > 0`.
    outs: usize,
    /// Nodes whose counters may be nonzero, reset when the group closes.
    touched: Vec<usize>,
}

impl<'a> OpenGroup<'a> {
    fn new(adj: &'a Adjacency) -> Self {
        let n = adj.succs.len();
        OpenGroup {
            adj,
            group: vec![usize::MAX; n],
            gid: 0,
            feeds: vec![0; n],
            leaves: vec![0; n],
            ins: 0,
            outs: 0,
            touched: Vec::new(),
        }
    }

    fn is_member(&self, v: usize) -> bool {
        self.group[v] == self.gid
    }

    /// Whether the open group with `x` added stays within the arity
    /// limits. Costs the degree of `x`.
    fn arity_ok_with(&self, x: usize, cons: PartitionConstraints) -> bool {
        // `x` stops being a producer from outside; outside producers of
        // `x` start feeding the group.
        let mut ins = self.ins - usize::from(self.feeds[x] > 0);
        let mut outs = self.outs;
        for &v in &self.adj.preds[x] {
            if !self.is_member(v) {
                ins += usize::from(self.feeds[v] == 0);
            } else if self.leaves[v] == 1 {
                // `x` was this member's last outside consumer.
                outs -= 1;
            }
        }
        if self.adj.succs[x].iter().any(|&s| !self.is_member(s)) {
            outs += 1;
        }
        ins <= cons.max_in as usize && outs <= cons.max_out as usize
    }

    /// Add `x` to the open group.
    fn join(&mut self, x: usize) {
        let adj = self.adj;
        if self.feeds[x] > 0 {
            self.feeds[x] = 0;
            self.ins -= 1;
        }
        for &v in &adj.preds[x] {
            if !self.is_member(v) {
                if self.feeds[v] == 0 {
                    self.ins += 1;
                    self.touched.push(v);
                }
                self.feeds[v] += 1;
            } else {
                self.leaves[v] -= 1;
                self.outs -= usize::from(self.leaves[v] == 0);
            }
        }
        for &s in &adj.succs[x] {
            if !self.is_member(s) {
                if self.leaves[x] == 0 {
                    self.outs += 1;
                    self.touched.push(x);
                }
                self.leaves[x] += 1;
            }
        }
        self.group[x] = self.gid;
    }

    /// Close the open group and open the next, empty one.
    fn close(&mut self) {
        for v in self.touched.drain(..) {
            self.feeds[v] = 0;
            self.leaves[v] = 0;
        }
        self.ins = 0;
        self.outs = 0;
        self.gid += 1;
    }
}

/// The solver's arity check of group `g` under a partial assignment,
/// from scratch over every edge.
fn arity_ok(p: &Problem, group: &[usize], g: usize) -> bool {
    // Treat unassigned (usize::MAX) as external.
    let (ins, outs) = group_arity_partial(p, group, g);
    ins <= p.cons.max_in as usize && outs <= p.cons.max_out as usize
}

fn group_arity_partial(p: &Problem, group: &[usize], g: usize) -> (usize, usize) {
    let mut ins: HashSet<usize> = HashSet::new();
    let mut outs: HashSet<usize> = HashSet::new();
    for (a, b) in &p.edges {
        let ga = group.get(*a).copied().unwrap_or(usize::MAX);
        let gb = group.get(*b).copied().unwrap_or(usize::MAX);
        if gb == g && ga != g {
            ins.insert(*a);
        }
        if ga == g && gb != g {
            outs.insert(*a);
        }
    }
    (ins.len(), outs.len())
}

/// Branch-and-bound solver over the Table III assignment model: nodes are
/// assigned in topological order either to an existing group or to a new
/// one; partial assignments are pruned against capacity/arity/acyclicity
/// and against the incumbent bound.
fn solver(p: &Problem, adj: &Adjacency, cfg: SolverCfg) -> Result<Solution, String> {
    let warm = best_traversal(p, adj)?;
    let lb = p.lower_bound();
    let target = ((lb as f64) * (1.0 + cfg.gap)).floor() as usize;
    if warm.num_groups <= target.max(lb) {
        return Ok(warm);
    }
    let order = order_nodes(adj, TraversalOrder::BfsFwd);
    let deadline = Instant::now() + Duration::from_millis(cfg.budget_ms);
    let mut best = warm.clone();
    let n = p.len();
    // DFS over assignments.
    struct Ctx<'x> {
        p: &'x Problem,
        order: &'x [usize],
        deadline: Instant,
        best: Solution,
        lb: usize,
        target: usize,
        expanded: u64,
    }
    fn rec(ctx: &mut Ctx<'_>, idx: usize, group: &mut Vec<usize>, gcost: &mut Vec<u32>) {
        if ctx.best.num_groups <= ctx.target.max(ctx.lb) {
            return; // good enough
        }
        ctx.expanded += 1;
        if ctx.expanded.is_multiple_of(512) && Instant::now() > ctx.deadline {
            return;
        }
        let used = gcost.len();
        if used >= ctx.best.num_groups {
            return; // cannot beat the incumbent
        }
        if idx == ctx.order.len() {
            if ctx.p.check(group).is_ok() && used < ctx.best.num_groups {
                ctx.best = Solution { group: group.clone(), num_groups: used };
            }
            return;
        }
        let node = ctx.order[idx];
        let c = ctx.p.costs[node];
        // Try existing groups (most recently opened first: keeps locality)
        for g in (0..used).rev() {
            if gcost[g] + c > ctx.p.cons.max_ops {
                continue;
            }
            if let Some(rep) = group.iter().position(|x| *x == g) {
                if !ctx.p.compatible(rep, node) {
                    continue;
                }
            }
            group[node] = g;
            gcost[g] += c;
            if arity_ok(ctx.p, group, g) && partial_acyclic(ctx.p, group, used) {
                rec(ctx, idx + 1, group, gcost);
            }
            gcost[g] -= c;
            group[node] = usize::MAX;
            if Instant::now() > ctx.deadline {
                return;
            }
        }
        // New group
        if used + 1 < ctx.best.num_groups {
            group[node] = used;
            gcost.push(c);
            rec(ctx, idx + 1, group, gcost);
            gcost.pop();
            group[node] = usize::MAX;
        }
    }
    fn partial_acyclic(p: &Problem, group: &[usize], used: usize) -> bool {
        let mut q = DiGraph::new(used);
        for (a, b) in &p.edges {
            let (ga, gb) = (group[*a], group[*b]);
            if ga != usize::MAX && gb != usize::MAX && ga != gb && ga < used && gb < used {
                q.add_edge(ga, gb);
            }
        }
        q.is_dag()
    }
    let mut group = vec![usize::MAX; n];
    let mut gcost: Vec<u32> = Vec::new();
    let mut ctx = Ctx { p, order: &order, deadline, best: best.clone(), lb, target, expanded: 0 };
    rec(&mut ctx, 0, &mut group, &mut gcost);
    best = ctx.best;
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cons(max_ops: u32, max_in: u32, max_out: u32) -> PartitionConstraints {
        PartitionConstraints { max_ops, max_in, max_out, buffer_depth: 16, max_counters: 8 }
    }

    /// A chain of 12 unit-cost nodes on units of capacity 4 needs 3 groups.
    #[test]
    fn chain_packs_tightly() {
        let n = 12;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let p = Problem::new(vec![1; n], edges, cons(4, 4, 4));
        for ord in TraversalOrder::ALL {
            let s = partition(&p, Algo::Traversal(ord)).unwrap();
            assert_eq!(s.num_groups, 3, "{ord:?}");
            p.check(&s.group).unwrap();
        }
        let s = partition(&p, Algo::Solver(SolverCfg::default())).unwrap();
        assert_eq!(s.num_groups, 3);
    }

    /// Wide fan-out forces arity-driven splits the solver can pack better.
    #[test]
    fn solver_not_worse_than_traversal() {
        // random-ish DAG: two layers with cross edges
        let mut edges = Vec::new();
        for a in 0..6 {
            for b in 0..3 {
                edges.push((a, 6 + (a + b) % 6));
            }
        }
        let p = Problem::new(vec![1; 12], edges, cons(3, 4, 2));
        let t = partition(&p, Algo::BestTraversal).unwrap();
        let s = partition(&p, Algo::Solver(SolverCfg { gap: 0.0, budget_ms: 3_000 })).unwrap();
        p.check(&t.group).unwrap();
        p.check(&s.group).unwrap();
        assert!(s.num_groups <= t.num_groups);
        assert!(s.num_groups >= p.lower_bound());
    }

    #[test]
    fn oversized_node_rejected() {
        let p = Problem::new(vec![10], vec![], cons(6, 4, 4));
        assert!(partition(&p, Algo::BestTraversal).is_err());
    }

    #[test]
    fn acyclicity_enforced_on_diamond() {
        // diamond with shortcut; capacity 2 forces splits
        let edges = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
        let p = Problem::new(vec![1; 4], edges, cons(2, 4, 4));
        let s = partition(&p, Algo::BestTraversal).unwrap();
        assert_eq!(p.check(&s.group).unwrap(), s.num_groups);
        assert_eq!(s.num_groups, 2);
    }

    #[test]
    fn zero_cost_nodes_ride_free() {
        let edges = vec![(0, 1), (1, 2)];
        let p = Problem::new(vec![0, 0, 0], edges, cons(6, 4, 4));
        let s = partition(&p, Algo::BestTraversal).unwrap();
        assert_eq!(s.num_groups, 1);
    }

    #[test]
    fn empty_problem() {
        let p = Problem::new(vec![], vec![], cons(6, 4, 4));
        let s = partition(&p, Algo::BestTraversal).unwrap();
        assert_eq!(s.num_groups, 0);
    }

    /// Cyclic problems (which `merge` can build from zero-credit
    /// streams) get a solution or `Problem::check`'s error from every
    /// algorithm, never a panic: a 2-cycle, whose traversal has no start
    /// node either way; a 3-cycle with a tail, which has none forward;
    /// and a source feeding a cycle, which has none backward.
    #[test]
    fn cyclic_problems_are_solved_or_rejected() {
        let algos = [
            Algo::Traversal(TraversalOrder::DfsFwd),
            Algo::Traversal(TraversalOrder::DfsBwd),
            Algo::Traversal(TraversalOrder::BfsFwd),
            Algo::Traversal(TraversalOrder::BfsBwd),
            Algo::BestTraversal,
            Algo::Solver(SolverCfg::default()),
        ];
        let graphs: [Vec<(usize, usize)>; 3] = [
            vec![(0, 1), (1, 0)],
            vec![(0, 1), (1, 2), (2, 0), (2, 3)],
            vec![(0, 1), (1, 2), (2, 1)],
        ];
        for edges in graphs {
            let n = edges.iter().map(|&(a, b)| a.max(b)).max().unwrap() + 1;
            // Capacity for the whole graph in one group, and for one node.
            for max_ops in [n as u32, 1] {
                let p = Problem::new(vec![1; n], edges.clone(), cons(max_ops, 4, 4));
                for algo in algos {
                    match partition(&p, algo) {
                        Ok(s) => assert_eq!(p.check(&s.group), Ok(s.num_groups), "{algo:?}"),
                        Err(e) => assert!(e.ends_with("cyclic quotient"), "{algo:?}: {e}"),
                    }
                }
                // One group holds the whole cycle; one node per group
                // cannot.
                let got = partition(&p, Algo::BestTraversal).map(|s| s.num_groups);
                if max_ops == 1 {
                    assert!(got.is_err(), "{edges:?}");
                } else {
                    assert_eq!(got, Ok(1), "{edges:?}");
                }
            }
        }
    }

    #[test]
    fn arity_limits_respected() {
        // 8 producers feeding one sink with max_in 4: infeasible even as a
        // singleton group — must be reported, not silently violated.
        let mut edges = Vec::new();
        for a in 0..8 {
            edges.push((a, 8));
        }
        let p = Problem::new(vec![1; 9], edges, cons(6, 4, 4));
        assert!(partition(&p, Algo::BestTraversal).is_err());

        // With fan-in 4 the instance is feasible; grouping producers with
        // the sink internalizes edges and must respect the limits.
        let edges4: Vec<(usize, usize)> = (0..4).map(|a| (a, 4)).collect();
        let p4 = Problem::new(vec![1; 5], edges4, cons(6, 4, 4));
        let s = partition(&p4, Algo::BestTraversal).unwrap();
        p4.check(&s.group).unwrap();
    }
}
