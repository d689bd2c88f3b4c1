//! Structural graph transforms.
//!
//! * [`line_graph`] — the paper (§1.1) reduces maximal matching to MIS on
//!   the line graph: the edge-averaged complexity of maximal matching on
//!   `G` equals the node-averaged complexity of MIS on `L(G)`.
//! * [`power_graph`] — `G^k` connects nodes at distance `<= k`; Theorem 6
//!   clusters via an MIS of `G^{2r+1}`.
//! * [`induced_subgraph`] — restriction to a node subset (used when the
//!   algorithms "remove decided nodes and recurse", e.g. Theorem 2).
//! * [`disjoint_union`] — parallel composition of instances.

use crate::analysis::{bfs_distances, UNREACHED};
use crate::graph::{EdgeId, Graph, GraphBuilder, NodeId};

/// The line graph `L(G)`: one node per edge of `G`; two nodes adjacent iff
/// the corresponding edges of `G` share an endpoint.
///
/// Node `e` of `L(G)` corresponds to edge id `e` of `G`.
///
/// # Example
///
/// ```
/// use localavg_graph::{gen, transform};
/// let g = gen::star(4);            // 3 edges through the center
/// let l = transform::line_graph(&g);
/// assert_eq!(l.n(), 3);
/// assert_eq!(l.m(), 3);            // K_3: all edges share the center
/// ```
pub fn line_graph(g: &Graph) -> Graph {
    let mut lg = GraphBuilder::new(g.m());
    for v in g.nodes() {
        let mut inc = g.neighbors(v);
        while let Some((_, e1)) = inc.next() {
            for (_, e2) in inc.clone() {
                // Each pair of incident edges shares exactly one endpoint
                // (simple graph), so this pair is visited exactly once.
                lg.add_edge(e1, e2).expect("line graph edge");
            }
        }
    }
    lg.build()
}

/// The `k`-th power `G^k`: nodes of `G`, edges between distinct nodes at
/// distance `1..=k` in `G`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn power_graph(g: &Graph, k: usize) -> Graph {
    assert!(k >= 1, "power_graph requires k >= 1");
    let mut pg = GraphBuilder::new(g.n());
    for v in g.nodes() {
        let dist = bfs_distances(g, v, k);
        for u in g.nodes() {
            if u > v && dist[u] != UNREACHED && dist[u] <= k {
                pg.add_edge(v, u).expect("power graph edge");
            }
        }
    }
    pg.build()
}

/// Induced subgraph on `keep` (indicator per node).
///
/// Returns the subgraph together with the mapping from new node ids to
/// original node ids (`new_to_old`) and from original edge ids to new edge
/// ids where retained.
pub fn induced_subgraph(g: &Graph, keep: &[bool]) -> (Graph, Vec<NodeId>, Vec<Option<EdgeId>>) {
    debug_assert_eq!(keep.len(), g.n());
    let mut old_to_new = vec![usize::MAX; g.n()];
    let mut new_to_old = Vec::new();
    for v in g.nodes() {
        if keep[v] {
            old_to_new[v] = new_to_old.len();
            new_to_old.push(v);
        }
    }
    let mut sub = GraphBuilder::new(new_to_old.len());
    let mut edge_map = vec![None; g.m()];
    for (e, u, v) in g.edges() {
        if keep[u] && keep[v] {
            let ne = sub
                .add_edge(old_to_new[u], old_to_new[v])
                .expect("induced edge");
            edge_map[e] = Some(ne);
        }
    }
    (sub.build(), new_to_old, edge_map)
}

/// Disjoint union `G ⊔ H`; the nodes of `h` are shifted by `g.n()` and the
/// edges of `h` by `g.m()`.
pub fn disjoint_union(g: &Graph, h: &Graph) -> Graph {
    let mut u = GraphBuilder::with_edge_capacity(g.n() + h.n(), g.m() + h.m());
    for (_, a, b) in g.edges() {
        u.add_edge(a, b).expect("union edge");
    }
    for (_, a, b) in h.edges() {
        u.add_edge(g.n() + a, g.n() + b).expect("union edge");
    }
    u.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::gen;

    #[test]
    fn line_graph_of_path() {
        let g = gen::path(5); // 4 edges in a path -> L is a path on 4 nodes
        let l = line_graph(&g);
        assert_eq!(l.n(), 4);
        assert_eq!(l.m(), 3);
        assert!(analysis::is_forest(&l));
        assert!(analysis::is_connected(&l));
    }

    #[test]
    fn line_graph_of_cycle_is_cycle() {
        let g = gen::cycle(6);
        let l = line_graph(&g);
        assert_eq!(l.n(), 6);
        assert_eq!(l.m(), 6);
        assert!(l.degrees().all(|d| d == 2));
    }

    #[test]
    fn line_graph_edge_count_formula() {
        // |E(L(G))| = sum_v C(deg v, 2)
        let g = gen::complete_bipartite(3, 4);
        let l = line_graph(&g);
        let expect: usize = g.degrees().map(|d| d * (d - 1) / 2).sum();
        assert_eq!(l.m(), expect);
    }

    #[test]
    fn power_of_path() {
        let g = gen::path(6);
        let p2 = power_graph(&g, 2);
        assert_eq!(p2.m(), 5 + 4); // distance-1 and distance-2 pairs
        assert!(p2.has_edge(0, 2));
        assert!(!p2.has_edge(0, 3));
        let p_big = power_graph(&g, 10);
        assert_eq!(p_big.m(), 6 * 5 / 2); // complete
    }

    #[test]
    fn power_one_is_identity_shape() {
        let g = gen::petersen();
        let p1 = power_graph(&g, 1);
        assert_eq!(p1.m(), g.m());
        for (_, u, v) in g.edges() {
            assert!(p1.has_edge(u, v));
        }
    }

    #[test]
    fn induced_subgraph_maps() {
        let g = gen::cycle(5);
        let keep = vec![true, true, false, true, true];
        let (sub, new_to_old, edge_map) = induced_subgraph(&g, &keep);
        assert_eq!(sub.n(), 4);
        assert_eq!(new_to_old, vec![0, 1, 3, 4]);
        // Surviving edges: {0,1}, {3,4}, {4,0}.
        assert_eq!(sub.m(), 3);
        let kept = edge_map.iter().filter(|e| e.is_some()).count();
        assert_eq!(kept, 3);
    }

    #[test]
    fn induced_subgraph_empty_keep() {
        let g = gen::complete(4);
        let (sub, map, _) = induced_subgraph(&g, &[false; 4]);
        assert_eq!(sub.n(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn union_counts() {
        let g = gen::path(3);
        let h = gen::cycle(4);
        let u = disjoint_union(&g, &h);
        assert_eq!(u.n(), 7);
        assert_eq!(u.m(), 2 + 4);
        assert!(u.has_edge(3, 4));
        assert!(!u.has_edge(2, 3));
        let (_, c) = analysis::components(&u);
        assert_eq!(c, 2);
    }
}
