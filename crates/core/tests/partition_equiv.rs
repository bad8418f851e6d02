//! Differential test of the traversal partitioner and `Problem::check`
//! against their earlier quadratic versions, kept here verbatim as an
//! oracle (only `Problem`'s private `graph` and `compatible` became free
//! functions). The traversal now keeps the open group's arity
//! incrementally and the check counts every group's arity in one sort;
//! both must return exactly what the oracle returns, `Ok` and `Err`
//! alike, on seeded random graphs with and without merge classes.

use plasticine_arch::PartitionConstraints;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sara_core::depgraph::DiGraph;
use sara_core::partition::{partition, Algo, Problem, Solution, TraversalOrder};
use std::collections::HashSet;

// ---- oracle: the previous implementation ----

fn graph(p: &Problem) -> DiGraph {
    let mut g = DiGraph::new(p.len());
    for (a, b) in &p.edges {
        g.add_edge(*a, *b);
    }
    g
}

fn compatible(p: &Problem, a: usize, b: usize) -> bool {
    match &p.classes {
        None => true,
        Some(c) => c[a] == c[b],
    }
}

fn old_check(p: &Problem, group: &[usize]) -> Result<usize, String> {
    let n_groups = group.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    // capacity
    let mut cost = vec![0u32; n_groups];
    for (i, g) in group.iter().enumerate() {
        cost[*g] += p.costs[i];
    }
    if let Some((g, c)) = cost.iter().enumerate().find(|(_, c)| **c > p.cons.max_ops) {
        return Err(format!("group {g} cost {c} exceeds {}", p.cons.max_ops));
    }
    // arity
    for g in 0..n_groups {
        let (ins, outs) = old_group_arity(p, group, g);
        if ins > p.cons.max_in as usize {
            return Err(format!("group {g} input arity {ins}"));
        }
        if outs > p.cons.max_out as usize {
            return Err(format!("group {g} output arity {outs}"));
        }
    }
    // class feasibility
    if let Some(classes) = &p.classes {
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
    let q = graph(p).quotient(group, n_groups);
    if !q.is_dag() {
        return Err("cyclic quotient".into());
    }
    Ok(n_groups)
}

fn old_group_arity(p: &Problem, group: &[usize], g: usize) -> (usize, usize) {
    let mut ins: HashSet<usize> = HashSet::new();
    let mut outs: HashSet<usize> = HashSet::new();
    for (a, b) in &p.edges {
        if group[*b] == g && group[*a] != g {
            ins.insert(*a);
        }
        if group[*a] == g && group[*b] != g {
            outs.insert(*a);
        }
    }
    (ins.len(), outs.len())
}

fn old_partition(p: &Problem, algo: Algo) -> Result<Solution, String> {
    if p.is_empty() {
        return Ok(Solution { group: vec![], num_groups: 0 });
    }
    if let Some((i, c)) = p.costs.iter().enumerate().find(|(_, c)| **c > p.cons.max_ops) {
        return Err(format!("node {i} cost {c} exceeds unit capacity {}", p.cons.max_ops));
    }
    // A node with more distinct producers than input ports is infeasible
    // even in a singleton group.
    for i in 0..p.len() {
        let preds: HashSet<usize> =
            p.edges.iter().filter(|(_, b)| *b == i).map(|(a, _)| *a).collect();
        if preds.len() > p.cons.max_in as usize {
            return Err(format!(
                "node {i} has {} distinct producers, exceeding input arity {}",
                preds.len(),
                p.cons.max_in
            ));
        }
    }
    match algo {
        Algo::Traversal(ord) => old_traversal(p, ord),
        Algo::BestTraversal => {
            let mut best: Option<Solution> = None;
            for ord in TraversalOrder::ALL {
                let s = old_traversal(p, ord)?;
                if best.as_ref().map(|b| s.num_groups < b.num_groups).unwrap_or(true) {
                    best = Some(s);
                }
            }
            best.ok_or_else(|| "no traversal order produced a partition".to_string())
        }
        Algo::Solver(_) => unreachable!("the oracle covers the traversal family only"),
    }
}

/// Topological order with DFS/BFS tie-breaking, forward or backward.
fn old_order_nodes(p: &Problem, ord: TraversalOrder) -> Vec<usize> {
    let n = p.len();
    let g = graph(p);
    let backward = matches!(ord, TraversalOrder::DfsBwd | TraversalOrder::BfsBwd);
    // Build the graph to traverse (reverse edges for backward orders).
    let mut adj = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (a, b) in g.edges() {
        let (x, y) = if backward { (b, a) } else { (a, b) };
        adj[x].push(y);
        indeg[y] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut out = Vec::with_capacity(n);
    let dfs = matches!(ord, TraversalOrder::DfsFwd | TraversalOrder::DfsBwd);
    while let Some(x) = if dfs { ready.pop() } else { Some(ready.remove(0)) } {
        out.push(x);
        for &s in &adj[x] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                // DFS: newly enabled nodes go on top (depth-first chains);
                // BFS: at the back (layer by layer).
                ready.push(s);
            }
        }
        if out.len() == n {
            break;
        }
        if ready.is_empty() && out.len() < n {
            // Cycle remnants (should not happen on DAGs): append rest.
            for i in 0..n {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
            break;
        }
    }
    if backward {
        out.reverse();
    }
    out
}

/// Greedy consecutive packing along a topological order. Packing
/// consecutive order segments guarantees the quotient stays acyclic.
fn old_traversal(p: &Problem, ord: TraversalOrder) -> Result<Solution, String> {
    let order = old_order_nodes(p, ord);
    let n = p.len();
    let mut group = vec![usize::MAX; n];
    let mut gid = 0usize;
    let mut gcost = 0u32;
    let mut grep: Option<usize> = None;
    for (i, &node) in order.iter().enumerate() {
        let c = p.costs[node];
        if i > 0 {
            // try current group
            group[node] = gid;
            let fits = gcost + c <= p.cons.max_ops
                && grep.map(|r| compatible(p, r, node)).unwrap_or(true)
                && arity_ok(p, &group, gid);
            if !fits {
                group[node] = usize::MAX;
                gid += 1;
                gcost = 0;
                grep = None;
            }
        }
        group[node] = gid;
        gcost += c;
        grep = grep.or(Some(node));
        if !arity_ok(p, &group, gid) {
            // a single node violating arity cannot be fixed by packing;
            // keep it alone (arity with one node is minimal already)
            if count_in_group(&group, gid) > 1 {
                group[node] = gid + 1;
                gid += 1;
                gcost = c;
                grep = Some(node);
            }
        }
    }
    let num_groups = gid + 1;
    // Final validation (acyclicity holds by construction for forward
    // segment packing; verify everything anyway).
    let sol = Solution { group, num_groups };
    old_check(p, &sol.group).map_err(|e| format!("traversal produced invalid solution: {e}"))?;
    Ok(sol)
}

fn count_in_group(group: &[usize], g: usize) -> usize {
    group.iter().filter(|x| **x == g).count()
}

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

// ---- random instances ----

/// Edge shapes the generator draws from.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Edges oriented forward (a DAG), built with `Problem::new`.
    Dag,
    /// The same DAG edges in the raw struct, shuffled and repeated: the
    /// partitioner must treat repeats as one edge, in first-seen order.
    RawRepeats,
    /// Some back edges too (cycles), with node 0 kept a source and the
    /// last node a sink so both orders have a start.
    Cyclic,
}

fn random_problem(rng: &mut SmallRng, shape: Shape) -> Problem {
    let n = rng.gen_range(1usize..=32);
    let max_ops = rng.gen_range(2u32..=8);
    let cons = PartitionConstraints {
        max_ops,
        max_in: rng.gen_range(1u32..=6),
        max_out: rng.gen_range(0u32..=4),
        buffer_depth: 16,
        max_counters: 8,
    };
    // Mostly unit costs, some free riders, rarely an oversized node.
    let costs: Vec<u32> = (0..n)
        .map(|_| match rng.gen_range(0u32..100) {
            0 => max_ops + 1,
            1..=14 => 0,
            15..=74 => 1,
            _ => rng.gen_range(2u32..=max_ops),
        })
        .collect();
    let density = rng.gen_range(0usize..=3);
    let mut edges = Vec::new();
    for _ in 0..n * density {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    if matches!(shape, Shape::Cyclic) && n > 3 {
        for _ in 0..rng.gen_range(1usize..=3) {
            let (a, b) = (rng.gen_range(2..n - 1), rng.gen_range(1..n - 2));
            if a > b {
                edges.push((a, b));
            }
        }
    }
    let classes = rng.gen_bool(0.5).then(|| {
        let k = rng.gen_range(1u32..=3);
        (0..n).map(|_| rng.gen_range(0..k)).collect::<Vec<u32>>()
    });
    let mut p = match shape {
        Shape::Dag | Shape::Cyclic => Problem::new(costs, edges, cons),
        Shape::RawRepeats => {
            let mut raw = edges.clone();
            raw.extend(edges.iter().filter(|_| rng.gen_bool(0.3)));
            for i in (1..raw.len()).rev() {
                raw.swap(i, rng.gen_range(0..=i));
            }
            Problem { costs, edges: raw, cons, classes: None }
        }
    };
    p.classes = classes;
    p
}

/// A valid assignment with a few nodes moved to other (possibly new)
/// groups: exercises every kind of violation the check reports.
fn corrupt(rng: &mut SmallRng, sol: &Solution) -> Vec<usize> {
    let mut group = sol.group.clone();
    for _ in 0..rng.gen_range(1usize..=3) {
        let i = rng.gen_range(0..group.len());
        group[i] = rng.gen_range(0..=sol.num_groups);
    }
    group
}

#[test]
fn traversal_matches_the_quadratic_oracle() {
    let mut rng = SmallRng::seed_from_u64(0x9a27_1e55);
    let mut outcomes = [0usize; 2];
    for case in 0..1500 {
        let shape = [Shape::Dag, Shape::RawRepeats, Shape::Cyclic][case % 3];
        let p = random_problem(&mut rng, shape);
        let algos =
            TraversalOrder::ALL.map(Algo::Traversal).into_iter().chain([Algo::BestTraversal]);
        for algo in algos {
            let new = partition(&p, algo);
            let old = old_partition(&p, algo);
            assert_eq!(new, old, "case {case} {shape:?} {algo:?}: {p:?}");
            outcomes[usize::from(new.is_ok())] += 1;
        }
    }
    // Both outcomes are well represented, so Err texts are compared too.
    assert!(outcomes.iter().all(|&k| k > 1000), "Err/Ok counts {outcomes:?}");
}

#[test]
fn check_matches_the_quadratic_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xc4ec_4a11);
    let mut verdicts = [0usize; 2];
    for case in 0..1500 {
        let shape = [Shape::Dag, Shape::RawRepeats, Shape::Cyclic][case % 3];
        let mut p = random_problem(&mut rng, shape);
        // Loosen capacity so most instances have a solution to corrupt.
        p.costs.iter_mut().for_each(|c| *c = (*c).min(p.cons.max_ops));
        p.cons.max_in = p.cons.max_in.max(6);
        let Ok(sol) = old_partition(&p, Algo::Traversal(TraversalOrder::BfsFwd)) else {
            continue;
        };
        for group in [sol.group.clone(), corrupt(&mut rng, &sol), corrupt(&mut rng, &sol)] {
            let new = p.check(&group);
            assert_eq!(new, old_check(&p, &group), "case {case} {shape:?} {group:?}: {p:?}");
            verdicts[usize::from(new.is_ok())] += 1;
        }
    }
    assert!(verdicts.iter().all(|&k| k > 500), "Err/Ok counts {verdicts:?}");
}
