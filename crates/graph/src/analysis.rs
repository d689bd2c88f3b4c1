//! Graph analysis: traversal, structure tests, and output validators.
//!
//! Two groups of functionality live here:
//!
//! 1. **Structural probes** the lower-bound machinery needs — girth,
//!    "tree-like view" tests (`G_k(v)` is a tree, the precondition of the
//!    paper's Theorem 11), short-cycle membership (Lemma 12 / Corollary 15
//!    statistics), and independence numbers (Lemma 13 audits).
//! 2. **Validators** for every output object produced by the paper's
//!    algorithms: independent sets and their maximality, (α,β)-ruling sets,
//!    matchings and their maximality, sinkless orientations, and proper
//!    colorings. The test-suite and the experiment harness re-validate
//!    every algorithm run with these.

use crate::graph::{EdgeId, Graph, NodeId};
use std::collections::VecDeque;

/// Marker for "unreached" in distance arrays.
pub const UNREACHED: usize = usize::MAX;

/// BFS distances from `source`, exploring only up to `radius` hops
/// (`usize::MAX` for unbounded). Unreached nodes get [`UNREACHED`].
pub fn bfs_distances(g: &Graph, source: NodeId, radius: usize) -> Vec<usize> {
    let mut dist = vec![UNREACHED; g.n()];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        if dist[v] >= radius {
            continue;
        }
        for (u, _) in g.neighbors(v) {
            if dist[u] == UNREACHED {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Connected components; returns `(component id per node, #components)`.
pub fn components(g: &Graph) -> (Vec<usize>, usize) {
    let mut comp = vec![UNREACHED; g.n()];
    let mut next = 0;
    for s in g.nodes() {
        if comp[s] != UNREACHED {
            continue;
        }
        comp[s] = next;
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for (u, _) in g.neighbors(v) {
                if comp[u] == UNREACHED {
                    comp[u] = next;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    (comp, next)
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    g.n() == 0 || components(g).1 == 1
}

/// Whether the graph is acyclic.
pub fn is_forest(g: &Graph) -> bool {
    let (_, c) = components(g);
    g.m() + c == g.n()
}

/// Exact girth (length of the shortest cycle), or `None` for forests.
///
/// Runs a BFS from every node — O(n·m) — which is fine at the scales the
/// experiments use; for a cheap upper-bounded probe use
/// [`shortest_cycle_through`] on sampled nodes.
pub fn girth(g: &Graph) -> Option<usize> {
    let mut best: Option<usize> = None;
    for s in g.nodes() {
        if let Some(c) = shortest_cycle_through(g, s, best.map_or(usize::MAX, |b| b - 1)) {
            best = Some(best.map_or(c, |b| b.min(c)));
            if best == Some(3) {
                return best;
            }
        }
    }
    best
}

/// Length of the shortest cycle through `v` of length `<= cap`, if any.
///
/// Standard BFS argument: a non-tree edge `{x, y}` with
/// `dist(x) + dist(y) + 1 <= cap` where `x`'s and `y`'s BFS branches leave
/// `v` through different first hops closes a cycle through `v`. The value
/// returned is the exact shortest-cycle-through-`v` length whenever that
/// length is `<= cap`.
pub fn shortest_cycle_through(g: &Graph, v: NodeId, cap: usize) -> Option<usize> {
    if cap < 3 {
        return None;
    }
    let mut dist = vec![UNREACHED; g.n()];
    // First hop out of v on the BFS tree path ("branch"); v gets itself.
    let mut branch = vec![UNREACHED; g.n()];
    let mut parent_edge: Vec<EdgeId> = vec![EdgeId::MAX; g.n()];
    dist[v] = 0;
    branch[v] = v;
    let mut queue = VecDeque::from([v]);
    let mut best = usize::MAX;
    let limit = cap.saturating_add(1);
    while let Some(x) = queue.pop_front() {
        if 2 * dist[x] >= best || 2 * dist[x] >= limit {
            continue;
        }
        for (y, e) in g.neighbors(x) {
            if e == parent_edge[x] {
                continue;
            }
            if dist[y] == UNREACHED {
                dist[y] = dist[x] + 1;
                branch[y] = if x == v { y } else { branch[x] };
                parent_edge[y] = e;
                queue.push_back(y);
            } else if branch[x] != branch[y] || (x == v || y == v) {
                // Non-tree edge joining two different branches: cycle through v.
                let len = dist[x] + dist[y] + 1;
                if len <= cap {
                    best = best.min(len);
                }
            }
        }
    }
    (best != usize::MAX).then_some(best)
}

/// Whether the paper's radius-`k` view `G_k(v)` is a tree.
///
/// `G_k(v)` is the subgraph induced by nodes at distance `<= k` from `v`,
/// *excluding* edges between two nodes both at distance exactly `k`
/// (paper §C.1). Theorem 11's indistinguishability applies to nodes whose
/// views are trees; Corollary 15 bounds the probability that they are not.
pub fn view_is_tree(g: &Graph, v: NodeId, k: usize) -> bool {
    let dist = bfs_distances(g, v, k);
    let nodes = g.nodes().filter(|&x| dist[x] != UNREACHED).count();
    let mut edges = 0usize;
    for (_, x, y) in g.edges() {
        if dist[x] != UNREACHED && dist[y] != UNREACHED && !(dist[x] == k && dist[y] == k) {
            edges += 1;
        }
    }
    // The view is connected by construction (every node has a BFS path to v),
    // so tree ⇔ |E| = |V| - 1.
    edges == nodes.saturating_sub(1)
}

/// Fraction of nodes whose radius-`k` view is a tree (Corollary 15 probe).
pub fn tree_like_fraction(g: &Graph, k: usize) -> f64 {
    if g.n() == 0 {
        return 1.0;
    }
    let cnt = g.nodes().filter(|&v| view_is_tree(g, v, k)).count();
    cnt as f64 / g.n() as f64
}

/// Exact independence number by branch and bound.
///
/// Exponential time; intended for the small gadget graphs of the
/// lower-bound audits (Lemma 13 checks individual cliques/clusters).
///
/// # Panics
///
/// Panics if `g.n() > 64` — use [`greedy_independent_set`] at larger sizes.
pub fn independence_number_exact(g: &Graph) -> usize {
    assert!(
        g.n() <= 64,
        "independence_number_exact is exponential; n={} too large",
        g.n()
    );
    let n = g.n();
    let mut adj_mask = vec![0u64; n];
    for (_, u, v) in g.edges() {
        adj_mask[u] |= 1 << v;
        adj_mask[v] |= 1 << u;
    }
    fn solve(alive: u64, adj: &[u64]) -> usize {
        if alive == 0 {
            return 0;
        }
        // Pick the alive vertex of maximum alive-degree as pivot.
        let mut pivot = usize::MAX;
        let mut pivot_deg = 0;
        let mut bits = alive;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let deg = (adj[v] & alive).count_ones() as usize;
            if pivot == usize::MAX || deg > pivot_deg {
                pivot = v;
                pivot_deg = deg;
            }
        }
        if pivot_deg <= 1 {
            // Alive graph is a disjoint union of edges and isolated vertices:
            // take one endpoint per edge plus all isolated vertices.
            let mut count = 0;
            let mut rem = alive;
            while rem != 0 {
                let v = rem.trailing_zeros() as usize;
                rem &= !(1u64 << v);
                let nb = adj[v] & rem;
                rem &= !nb;
                count += 1;
            }
            return count;
        }
        // Branch: either exclude pivot, or include it (dropping N[pivot]).
        let without = solve(alive & !(1u64 << pivot), adj);
        let with = 1 + solve(alive & !(1u64 << pivot) & !adj[pivot], adj);
        without.max(with)
    }
    let alive = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    solve(alive, &adj_mask)
}

/// Greedy independent set by ascending degree; returns the set (a lower
/// bound witness for the independence number).
pub fn greedy_independent_set(g: &Graph) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|&v| g.degree(v));
    let mut blocked = vec![false; g.n()];
    let mut set = Vec::new();
    for v in order {
        if !blocked[v] {
            set.push(v);
            for (u, _) in g.neighbors(v) {
                blocked[u] = true;
            }
        }
    }
    set
}

// ---------------------------------------------------------------------------
// Structural topology metrics (per-instance sweep statistics)
// ---------------------------------------------------------------------------

/// Per-instance structural metrics emitted with every sweep group so runs
/// can correlate topology with averaged complexity (ROADMAP item 5, in
/// the spirit of the brainGraph-style efficiency metrics: the shape of
/// the degree distribution is what separates a heavy-tailed instance
/// from a regular one long before any algorithm runs on it).
///
/// Every float field is always finite: empty-set means are 0.0, and the
/// assortativity of a graph whose degrees have no variance (regular
/// graphs — the correlation is undefined there) is reported as 0.0 by
/// convention.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Smallest degree (0 on the empty graph).
    pub min_degree: usize,
    /// Largest degree (0 on the empty graph).
    pub max_degree: usize,
    /// Mean degree `2m/n` (0.0 on the empty graph).
    pub mean_degree: f64,
    /// Log2-bucketed degree histogram: bucket 0 counts isolated nodes,
    /// bucket `b >= 1` counts degrees in `[2^(b-1), 2^b)`; the counts sum
    /// to `nodes`.
    pub degree_histogram: Vec<u64>,
    /// Degree-degree Pearson correlation over the edges (assortativity):
    /// positive when high-degree nodes attach to high-degree nodes,
    /// negative for hub-and-spoke topologies (a star is exactly -1), and
    /// 0.0 by convention when the correlation is undefined (no edges, or
    /// zero degree variance across edge endpoints).
    pub degree_assortativity: f64,
    /// Number of connected components.
    pub components: usize,
}

/// Computes [`TopologyStats`] for one instance in O(n + m).
pub fn topology_stats(g: &Graph) -> TopologyStats {
    let n = g.n();
    let m = g.m();
    let degrees: Vec<usize> = g.degrees().collect();
    let min_degree = degrees.iter().copied().min().unwrap_or(0);
    let max_degree = degrees.iter().copied().max().unwrap_or(0);
    let mean_degree = if n == 0 {
        0.0
    } else {
        2.0 * m as f64 / n as f64
    };
    let bucket = |d: usize| -> usize {
        if d == 0 {
            0
        } else {
            usize::BITS as usize - d.leading_zeros() as usize
        }
    };
    let mut degree_histogram = vec![0u64; if n == 0 { 0 } else { bucket(max_degree) + 1 }];
    for &d in &degrees {
        degree_histogram[bucket(d)] += 1;
    }
    // Pearson correlation over the symmetrized endpoint-degree pairs
    // {(deg u, deg v), (deg v, deg u)}: both marginals coincide, so one
    // mean and one variance suffice. Integer accumulation keeps the
    // moments exact until the final divisions.
    let degree_assortativity = if m == 0 {
        0.0
    } else {
        let (mut s1, mut s2, mut sp) = (0u128, 0u128, 0u128);
        for (_, u, v) in g.edges() {
            let (du, dv) = (degrees[u] as u128, degrees[v] as u128);
            s1 += du + dv;
            s2 += du * du + dv * dv;
            sp += 2 * du * dv;
        }
        let k = (2 * m) as f64;
        let mean = s1 as f64 / k;
        let var = s2 as f64 / k - mean * mean;
        if var <= 0.0 {
            0.0 // zero variance: regular-ish endpoints, correlation undefined
        } else {
            (sp as f64 / k - mean * mean) / var
        }
    };
    TopologyStats {
        nodes: n,
        edges: m,
        min_degree,
        max_degree,
        mean_degree,
        degree_histogram,
        degree_assortativity,
        components: components(g).1,
    }
}

// ---------------------------------------------------------------------------
// Validators
// ---------------------------------------------------------------------------

/// Whether `in_set` (indicator per node) is an independent set.
pub fn is_independent_set(g: &Graph, in_set: &[bool]) -> bool {
    debug_assert_eq!(in_set.len(), g.n());
    g.edges().all(|(_, u, v)| !(in_set[u] && in_set[v]))
}

/// Whether `in_set` is a *maximal* independent set.
pub fn is_maximal_independent_set(g: &Graph, in_set: &[bool]) -> bool {
    is_independent_set(g, in_set)
        && g.nodes()
            .all(|v| in_set[v] || g.neighbor_ids(v).any(|u| in_set[u]))
}

/// Whether `in_set` is an (α, β)-ruling set (paper §1.1, \[AGLP89\]):
/// members are pairwise at distance `>= alpha`, and every node is within
/// distance `<= beta` of a member.
///
/// # Panics
///
/// Panics if `alpha == 0`.
pub fn is_ruling_set(g: &Graph, in_set: &[bool], alpha: usize, beta: usize) -> bool {
    assert!(alpha >= 1, "alpha must be positive");
    debug_assert_eq!(in_set.len(), g.n());
    // Multi-source BFS from the set measures distance-to-set for every node.
    let mut dist = vec![UNREACHED; g.n()];
    let mut queue = VecDeque::new();
    for v in g.nodes() {
        if in_set[v] {
            dist[v] = 0;
            queue.push_back(v);
        }
    }
    while let Some(v) = queue.pop_front() {
        for (u, _) in g.neighbors(v) {
            if dist[u] == UNREACHED {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
    if g.nodes().any(|v| dist[v] == UNREACHED || dist[v] > beta) {
        return false;
    }
    // Pairwise distance >= alpha: BFS to depth alpha-1 from each member must
    // meet no other member.
    for v in g.nodes().filter(|&v| in_set[v]) {
        let local = bfs_distances(g, v, alpha - 1);
        for u in g.nodes() {
            if u != v && in_set[u] && local[u] != UNREACHED {
                return false;
            }
        }
    }
    true
}

/// Whether `in_matching` (indicator per edge) is a matching.
pub fn is_matching(g: &Graph, in_matching: &[bool]) -> bool {
    debug_assert_eq!(in_matching.len(), g.m());
    let mut used = vec![false; g.n()];
    for (e, u, v) in g.edges() {
        if in_matching[e] {
            if used[u] || used[v] {
                return false;
            }
            used[u] = true;
            used[v] = true;
        }
    }
    true
}

/// Whether `in_matching` is a *maximal* matching.
pub fn is_maximal_matching(g: &Graph, in_matching: &[bool]) -> bool {
    debug_assert_eq!(in_matching.len(), g.m());
    let mut used = vec![false; g.n()];
    for (e, u, v) in g.edges() {
        if in_matching[e] {
            if used[u] || used[v] {
                return false;
            }
            used[u] = true;
            used[v] = true;
        }
    }
    g.edges().all(|(_, u, v)| used[u] || used[v])
}

/// Orientation of an edge, named from the canonical endpoint order
/// (`endpoints(e) = (u, v)` with `u < v`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Oriented from the smaller endpoint to the larger (`u -> v`).
    Forward,
    /// Oriented from the larger endpoint to the smaller (`v -> u`).
    Backward,
}

impl Orientation {
    /// The head (target node) of edge `e` under this orientation.
    pub fn head(self, g: &Graph, e: EdgeId) -> NodeId {
        let (u, v) = g.endpoints(e);
        match self {
            Orientation::Forward => v,
            Orientation::Backward => u,
        }
    }

    /// The tail (source node) of edge `e` under this orientation.
    pub fn tail(self, g: &Graph, e: EdgeId) -> NodeId {
        let (u, v) = g.endpoints(e);
        match self {
            Orientation::Forward => u,
            Orientation::Backward => v,
        }
    }

    /// Orientation that makes `from` the tail of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `e`.
    pub fn away_from(g: &Graph, e: EdgeId, from: NodeId) -> Self {
        let (u, v) = g.endpoints(e);
        if from == u {
            Orientation::Forward
        } else {
            assert_eq!(from, v, "node {from} is not an endpoint of edge {e}");
            Orientation::Backward
        }
    }
}

/// Out-degree of every node under a full orientation.
pub fn out_degrees(g: &Graph, orientation: &[Orientation]) -> Vec<usize> {
    debug_assert_eq!(orientation.len(), g.m());
    let mut out = vec![0usize; g.n()];
    for (e, _, _) in g.edges() {
        out[orientation[e].tail(g, e)] += 1;
    }
    out
}

/// Whether `orientation` is a *sinkless* orientation: every node with at
/// least one incident edge has out-degree `>= 1` (paper §3.3; isolated
/// nodes are vacuously fine).
pub fn is_sinkless_orientation(g: &Graph, orientation: &[Orientation]) -> bool {
    out_degrees(g, orientation)
        .iter()
        .enumerate()
        .all(|(v, &d)| d >= 1 || g.degree(v) == 0)
}

/// Whether `colors` is a proper coloring (no monochromatic edge).
pub fn is_proper_coloring(g: &Graph, colors: &[usize]) -> bool {
    debug_assert_eq!(colors.len(), g.n());
    g.edges().all(|(_, u, v)| colors[u] != colors[v])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::rng::Rng;

    #[test]
    fn bfs_on_path() {
        let g = gen::path(5);
        let d = bfs_distances(&g, 0, usize::MAX);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let capped = bfs_distances(&g, 0, 2);
        assert_eq!(capped, vec![0, 1, 2, UNREACHED, UNREACHED]);
    }

    #[test]
    fn components_and_connectivity() {
        let mut g = gen::path(3);
        assert!(is_connected(&g));
        g = Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let (comp, c) = components(&g);
        assert_eq!(c, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn forest_detection() {
        assert!(is_forest(&gen::path(6)));
        assert!(is_forest(&gen::binary_tree(10)));
        assert!(!is_forest(&gen::cycle(4)));
    }

    #[test]
    fn girth_values() {
        assert_eq!(girth(&gen::cycle(7)), Some(7));
        assert_eq!(girth(&gen::complete(4)), Some(3));
        assert_eq!(girth(&gen::path(9)), None);
        assert_eq!(girth(&gen::complete_bipartite(3, 3)), Some(4));
        assert_eq!(girth(&gen::hypercube(3)), Some(4));
        assert_eq!(girth(&gen::petersen()), Some(5));
    }

    #[test]
    fn shortest_cycle_through_node() {
        // Triangle with a pendant path: node 3 is not on any cycle.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap();
        assert_eq!(shortest_cycle_through(&g, 0, usize::MAX), Some(3));
        assert_eq!(shortest_cycle_through(&g, 3, usize::MAX), None);
        assert_eq!(shortest_cycle_through(&g, 0, 2), None); // cap below girth
    }

    #[test]
    fn view_tree_test() {
        let g = gen::cycle(8);
        // Radius 3 view of C_8 sees 7 nodes, 6 edges (the two far edges are
        // between distance-3/distance-4... here dist max 3 on both sides and
        // the closing edge joins two distance-3... wait n=8: distances go to 4).
        assert!(view_is_tree(&g, 0, 3));
        assert!(!view_is_tree(&g, 0, 4));
        let t = gen::binary_tree(15);
        for k in 0..5 {
            assert!(view_is_tree(&t, 0, k));
        }
    }

    #[test]
    fn tree_like_fraction_cycle() {
        let g = gen::cycle(10);
        assert_eq!(tree_like_fraction(&g, 4), 1.0);
        assert_eq!(tree_like_fraction(&g, 5), 0.0);
    }

    #[test]
    fn independence_exact_small() {
        assert_eq!(independence_number_exact(&gen::complete(5)), 1);
        assert_eq!(independence_number_exact(&gen::cycle(5)), 2);
        assert_eq!(independence_number_exact(&gen::cycle(6)), 3);
        assert_eq!(independence_number_exact(&gen::path(7)), 4);
        assert_eq!(independence_number_exact(&gen::complete_bipartite(3, 5)), 5);
        assert_eq!(independence_number_exact(&gen::petersen()), 4);
        assert_eq!(independence_number_exact(&Graph::empty(6)), 6);
    }

    #[test]
    fn greedy_independent_is_independent_and_maximal() {
        let mut rng = Rng::seed_from(9);
        let g = gen::gnp(60, 0.1, &mut rng);
        let set = greedy_independent_set(&g);
        let mut ind = vec![false; g.n()];
        for v in set {
            ind[v] = true;
        }
        assert!(is_maximal_independent_set(&g, &ind));
    }

    #[test]
    fn mis_validator() {
        let g = gen::path(4); // 0-1-2-3
        let mis = vec![true, false, false, false];
        assert!(is_independent_set(&g, &mis));
        assert!(!is_maximal_independent_set(&g, &mis)); // nodes 2, 3 uncovered
        let mis3 = vec![false, true, false, true];
        assert!(is_maximal_independent_set(&g, &mis3));
        let not_ind = vec![true, true, false, false];
        assert!(!is_independent_set(&g, &not_ind));
    }

    #[test]
    fn mis_validator_edge_case_cover() {
        let g = gen::path(4);
        // {0,3}: 1 covered by 0, 2 covered by 3 -> maximal.
        let m = vec![true, false, false, true];
        assert!(is_maximal_independent_set(&g, &m));
    }

    #[test]
    fn ruling_set_validator() {
        let g = gen::path(7);
        // {0, 3, 6} is an MIS -> (2,1)-ruling set.
        let s: Vec<bool> = (0..7).map(|v| v % 3 == 0).collect();
        assert!(is_ruling_set(&g, &s, 2, 1));
        // {0, 6} is a (2,3)-ruling set but not (2,2).
        let s2: Vec<bool> = (0..7).map(|v| v == 0 || v == 6).collect();
        assert!(is_ruling_set(&g, &s2, 2, 3));
        assert!(!is_ruling_set(&g, &s2, 2, 2));
        // Adjacent members violate alpha = 2.
        let s3: Vec<bool> = (0..7).map(|v| v <= 1).collect();
        assert!(!is_ruling_set(&g, &s3, 2, 6));
        // ... but satisfy alpha = 1.
        assert!(is_ruling_set(&g, &s3, 1, 6));
        // Empty set never rules a nonempty graph.
        let s4 = vec![false; 7];
        assert!(!is_ruling_set(&g, &s4, 2, 100));
    }

    #[test]
    fn matching_validator() {
        let g = gen::path(4); // edges 0:{0,1} 1:{1,2} 2:{2,3}
        assert!(is_matching(&g, &[true, false, true]));
        assert!(is_maximal_matching(&g, &[true, false, true]));
        assert!(!is_matching(&g, &[true, true, false]));
        assert!(is_matching(&g, &[false, true, false]));
        assert!(is_maximal_matching(&g, &[false, true, false]));
        assert!(!is_maximal_matching(&g, &[false, false, false]));
    }

    #[test]
    fn orientation_validator() {
        let g = gen::cycle(4);
        // Orient every edge "around" the cycle: each node out-degree 1.
        let orient: Vec<Orientation> = g
            .edges()
            .map(|(e, u, _)| {
                // edges of cycle(4): (0,1),(1,2),(2,3),(0,3). Send u->v except last.
                if e == 3 {
                    Orientation::Backward // 3 -> 0
                } else {
                    let _ = u;
                    Orientation::Forward
                }
            })
            .collect();
        assert!(is_sinkless_orientation(&g, &orient));
        assert_eq!(out_degrees(&g, &orient), vec![1, 1, 1, 1]);
        // Both of node 2's edges oriented into node 2: it becomes a sink.
        // Edges: 0:{0,1} 1:{1,2} 2:{2,3} 3:{0,3}.
        let bad = vec![
            Orientation::Forward,  // 0 -> 1
            Orientation::Forward,  // 1 -> 2
            Orientation::Backward, // 3 -> 2
            Orientation::Forward,  // 0 -> 3
        ];
        assert!(!is_sinkless_orientation(&g, &bad));
        assert_eq!(out_degrees(&g, &bad)[2], 0);
    }

    #[test]
    fn orientation_helpers() {
        let g = gen::path(2);
        let e = 0;
        assert_eq!(Orientation::Forward.tail(&g, e), 0);
        assert_eq!(Orientation::Forward.head(&g, e), 1);
        assert_eq!(Orientation::Backward.tail(&g, e), 1);
        assert_eq!(Orientation::away_from(&g, e, 1), Orientation::Backward);
        assert_eq!(Orientation::away_from(&g, e, 0), Orientation::Forward);
    }

    #[test]
    fn coloring_validator() {
        let g = gen::cycle(4);
        assert!(is_proper_coloring(&g, &[0, 1, 0, 1]));
        assert!(!is_proper_coloring(&g, &[0, 1, 1, 0]));
    }

    #[test]
    fn isolated_nodes_are_not_sinks() {
        let g = Graph::empty(3);
        assert!(is_sinkless_orientation(&g, &[]));
    }

    #[test]
    fn topology_stats_on_a_regular_graph() {
        let g = gen::cycle(8);
        let t = topology_stats(&g);
        assert_eq!(t.nodes, 8);
        assert_eq!(t.edges, 8);
        assert_eq!((t.min_degree, t.max_degree), (2, 2));
        assert_eq!(t.mean_degree, 2.0);
        // Degree 2 lands in bucket 2; all 8 nodes there.
        assert_eq!(t.degree_histogram, vec![0, 0, 8]);
        // Zero degree variance: assortativity is 0.0 by convention, not NaN.
        assert_eq!(t.degree_assortativity, 0.0);
        assert_eq!(t.components, 1);
    }

    #[test]
    fn topology_stats_star_is_maximally_disassortative() {
        let g = gen::star(9); // hub degree 8, eight leaves of degree 1
        let t = topology_stats(&g);
        assert_eq!((t.min_degree, t.max_degree), (1, 8));
        assert!((t.degree_assortativity - (-1.0)).abs() < 1e-12);
        assert_eq!(t.degree_histogram.iter().sum::<u64>(), 9);
        assert_eq!(t.degree_histogram[4], 1); // the hub: 8 is in [8, 16)
    }

    #[test]
    fn topology_stats_edge_cases_stay_finite() {
        let empty = topology_stats(&Graph::empty(0));
        assert_eq!(empty.nodes, 0);
        assert_eq!(empty.mean_degree, 0.0);
        assert_eq!(empty.degree_assortativity, 0.0);
        assert!(empty.degree_histogram.is_empty());
        assert_eq!(empty.components, 0);
        let isolated = topology_stats(&Graph::empty(4));
        assert_eq!(isolated.mean_degree, 0.0);
        assert_eq!(isolated.degree_histogram, vec![4]);
        assert_eq!(isolated.components, 4);
        assert!(isolated.degree_assortativity.is_finite());
        let two_comp = topology_stats(&Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap());
        assert_eq!(two_comp.components, 3);
        assert_eq!(two_comp.degree_assortativity, 0.0); // all endpoint degrees equal
    }

    #[test]
    fn topology_assortativity_sign_tracks_structure() {
        // A path's interior creates mixed pairs: deg-1 ends attach to
        // deg-2 nodes -> negative correlation.
        let t = topology_stats(&gen::path(10));
        assert!(t.degree_assortativity < 0.0);
        assert!(t.degree_assortativity >= -1.0 - 1e-12);
        // Complete graph: regular, so 0.0 by the variance convention.
        assert_eq!(topology_stats(&gen::complete(5)).degree_assortativity, 0.0);
    }
}
