//! Structural graph transforms.
//!
//! * [`line_graph`] — the paper (§1.1) reduces maximal matching to MIS on
//!   the line graph: the edge-averaged complexity of maximal matching on
//!   `G` equals the node-averaged complexity of MIS on `L(G)`.
//! * [`induced_subgraph`] — restriction to a node subset (used when the
//!   algorithms "remove decided nodes and recurse", e.g. Theorem 2).

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
}
