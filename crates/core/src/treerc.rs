//! Rake-and-compress tree algorithms (`*/tree-rc`).
//!
//! This module implements the node-averaged tree algorithms that run on top
//! of the deterministic rake-and-compress decomposition of
//! [`localavg_graph::decomp`]. The decomposition peels a forest in `O(log n)`
//! phases; each phase first *rakes* (removes nodes of residual degree ≤ 1)
//! and then *compresses* (removes an independent set of residual-degree-2
//! nodes chosen by local priority minima). A node learns its own
//! `(layer, label)` pair after `O(layer)` LOCAL rounds because each phase is
//! `O(1)`-locally computable, which makes the decomposition a scheduling
//! substrate: a node at layer `ℓ` is *ready* to act at round
//! `2ℓ + sub(ℓ)` (`sub` = 0 for rake, 1 for compress), and commits once the
//! neighbors it depends on have committed.
//!
//! Because layer sizes decay geometrically, scheduling greedy decisions in
//! *removal order* yields commit clocks that are `O(layer(v))` per node and
//! therefore `O(1)` **on average** — the node-averaged collapse of
//! Theorems 2–3 specialized to trees — while the worst-case clock stays
//! `Θ(log n)` (the last surviving nodes). Three problems are implemented:
//!
//! * `"mis/tree-rc"` — greedy MIS in removal order. Average clock `O(1)`.
//! * `"ruling/tree-rc"` — a (2,2)-ruling set: an MIS of the induced subgraph
//!   `H = G[deg ≥ 2]`, with degree-≤ 1 nodes committing "out" at round 2
//!   (maximality on `H` guarantees a set node within distance 2 without the
//!   low-degree node ever learning which one). The flattest average of the
//!   three.
//! * `"coloring/tree-rc"` — proper 3-coloring by greedy first-free color in
//!   *reverse* removal order (top of the decomposition first). Every node
//!   sees at most 2 earlier-colored neighbors, so 3 colors suffice; the
//!   reverse order makes every clock `Θ(depth)`, so the average matches the
//!   worst case — an honest negative control: 3-coloring a path is
//!   `Θ(log n)` even node-averaged.
//!
//! All three produce *structural* transcripts (like
//! [`crate::orientation`]'s ledger runs): the commit clock is computed
//! directly from the decomposition rather than by driving the round engine,
//! and is therefore independent of executor, chunk geometry, and transcript
//! policy. Non-forest inputs are rejected with the typed
//! [`NotATree`] error — the `*/tree-rc` variants of
//! [`crate::algo::Algorithm`] turn that into a panic only when the
//! registry's tree-domain filters have been bypassed.
//!
//! # Example
//!
//! ```
//! use localavg_core::algo::{registry, RunSpec};
//! use localavg_core::verify;
//! use localavg_graph::{gen, rng::Rng};
//!
//! let g = gen::random_tree(200, &mut Rng::seed_from(7));
//! let mis = registry().get("mis/tree-rc").expect("registered");
//! let run = mis.execute(&g, &RunSpec::new(7));
//! assert!(verify::is_maximal_independent_set(
//!     &g,
//!     run.solution.node_set().unwrap()
//! ));
//! ```

use crate::algo::{AlgoRun, RunSpec, Solution, Workspace};
use localavg_graph::decomp::{NotATree, RcDecomposition, RcLabel};
use localavg_graph::Graph;
use localavg_sim::prelude::*;

/// Round at which node `v` has learned its own `(layer, label)` pair:
/// phase `ℓ` of the decomposition is simulated in LOCAL rounds
/// `2ℓ - 1, 2ℓ` (one round to gather residual degrees, one to compare
/// priorities), with the compress sub-step resolving one round after the
/// rake sub-step.
fn ready_round(d: &RcDecomposition, v: usize) -> usize {
    let sub = match d.label(v) {
        RcLabel::Rake => 0,
        RcLabel::Compress => 1,
    };
    2 * d.layer(v) as usize + sub
}

/// Commit clocks for a greedy pass over `decision` (a permutation of the
/// nodes): node `v` becomes ready at [`ready_round`] and must additionally
/// wait one round past every neighbor that decides before it.
fn commit_clocks(g: &Graph, d: &RcDecomposition, decision: &[usize]) -> Vec<usize> {
    let mut clock = vec![0usize; g.n()];
    let mut decided = vec![false; g.n()];
    for &v in decision {
        let mut c = ready_round(d, v);
        for u in g.neighbor_ids(v) {
            if decided[u] {
                c = c.max(clock[u] + 1);
            }
        }
        clock[v] = c;
        decided[v] = true;
    }
    clock
}

/// Wraps per-node commit clocks and a typed solution into an [`AlgoRun`]
/// with a structural transcript: commit = halt = clock, `rounds` = the
/// latest clock, live ledger rebuilt from the halts. Structural runs do
/// not drive the round engine (matching the orientation ledger
/// precedent), so under an audited policy the transcript carries a
/// *silent* audit (peak `Some(0)`, zero per-node volume); under a lean
/// policy the audit columns stay empty.
fn structural_run(
    name: &'static str,
    g: &Graph,
    clock: &[usize],
    solution: Solution,
    policy: TranscriptPolicy,
) -> AlgoRun {
    let mut t: Transcript<(), ()> = Transcript::empty(OutputKind::NodeLabels, g.n(), g.m());
    t.rounds = clock.iter().copied().max().unwrap_or(0);
    for v in g.nodes() {
        t.node_output[v] = Some(());
        t.node_commit_round[v] = clock[v];
        t.node_halt_round[v] = clock[v];
    }
    t.rebuild_live_ledger();
    if policy.records_audit() {
        t.record_silent_audit();
    }
    AlgoRun::new(name, g, t, solution)
}

/// Greedy MIS in rake-and-compress removal order (`"mis/tree-rc"`).
///
/// A node joins the set iff no earlier-removed neighbor joined. Any total
/// order makes this a maximal independent set; *this* order makes the
/// commit clock `O(layer(v))`: within one `(layer, sub)` class the only
/// possible adjacency is a raked 2-node residual component, so greedy
/// chains inside a class have length ≤ 2, and classes shrink
/// geometrically. Node-averaged completion is `O(1)` while the worst case
/// is `Θ(log n)`.
///
/// # Errors
///
/// Returns [`NotATree`] when `g` contains a cycle.
pub(crate) fn mis(g: &Graph, spec: &RunSpec, _ws: &mut Workspace) -> Result<AlgoRun, NotATree> {
    let d = RcDecomposition::compute(g, spec.seed)?;
    let order = d.removal_order();
    let mut in_set = vec![false; g.n()];
    let mut decided = vec![false; g.n()];
    for &v in &order {
        in_set[v] = !g.neighbor_ids(v).any(|u| decided[u] && in_set[u]);
        decided[v] = true;
    }
    let clock = commit_clocks(g, &d, &order);
    Ok(structural_run(
        "mis/tree-rc",
        g,
        &clock,
        Solution::Mis { in_set },
        spec.transcript,
    ))
}

/// (2,2)-ruling set via rake-and-compress (`"ruling/tree-rc"`).
///
/// Let `H = G[deg ≥ 2]`. The set is a greedy MIS of `H` in removal order,
/// plus the minimum-priority node of every component that has no `H` node
/// (such components have at most 2 nodes). A degree-≤ 1 node whose
/// neighbor lies in `H` commits **out** at round 2 without waiting: the
/// maximality of the MIS on `H` guarantees either the neighbor or one of
/// the neighbor's `H`-neighbors is in the set, so the node is ruled within
/// distance 2 no matter how the greedy pass resolves. This decoupling is
/// what makes the average completion of the ruling set the flattest of the
/// tree-rc family.
///
/// # Errors
///
/// Returns [`NotATree`] when `g` contains a cycle.
pub(crate) fn ruling(g: &Graph, spec: &RunSpec, _ws: &mut Workspace) -> Result<AlgoRun, NotATree> {
    let d = RcDecomposition::compute(g, spec.seed)?;
    let deg: Vec<usize> = g.degrees().collect();
    let in_h = |v: usize| deg[v] >= 2;
    let mut in_set = vec![false; g.n()];
    let mut clock = vec![0usize; g.n()];
    let mut decided = vec![false; g.n()];
    for &v in &d.removal_order() {
        if !in_h(v) {
            continue;
        }
        let mut c = ready_round(&d, v);
        let mut blocked = false;
        for u in g.neighbor_ids(v).filter(|&u| in_h(u) && decided[u]) {
            blocked |= in_set[u];
            c = c.max(clock[u] + 1);
        }
        in_set[v] = !blocked;
        clock[v] = c;
        decided[v] = true;
    }
    for v in g.nodes().filter(|&v| !in_h(v)) {
        match g.neighbor_ids(v).next() {
            // Isolated node: a component of its own; it is the set member.
            None => {
                in_set[v] = true;
                clock[v] = 1;
            }
            Some(u) if in_h(u) => clock[v] = 2,
            // A 2-node component (both endpoints of degree 1): the
            // smaller (priority, id) endpoint joins.
            Some(u) => {
                in_set[v] = (d.priority(v), v) < (d.priority(u), u);
                clock[v] = 2;
            }
        }
    }
    Ok(structural_run(
        "ruling/tree-rc",
        g,
        &clock,
        Solution::RulingSet { in_set, beta: 2 },
        spec.transcript,
    ))
}

/// Proper 3-coloring by layer peeling (`"coloring/tree-rc"`).
///
/// Colors are assigned greedily (first free color in `{0, 1, 2}`) in
/// **reverse** removal order, so the top of the decomposition commits
/// first. A compress node's two residual neighbors are removed strictly
/// later (compress candidates are an independent set and rakes precede
/// compresses within a phase), and a rake node has at most one
/// later-removed neighbor — so every node sees at most 2 earlier-colored
/// neighbors and 3 colors always suffice. The reverse order drags every
/// clock up to `Θ(depth)`: the node-averaged completion matches the
/// worst case, the honest landscape for 3-coloring (which is `Θ(log n)`
/// node-averaged even on paths).
///
/// # Errors
///
/// Returns [`NotATree`] when `g` contains a cycle.
pub(crate) fn coloring(
    g: &Graph,
    spec: &RunSpec,
    _ws: &mut Workspace,
) -> Result<AlgoRun, NotATree> {
    let d = RcDecomposition::compute(g, spec.seed)?;
    let mut order = d.removal_order();
    order.reverse();
    let mut colors = vec![usize::MAX; g.n()];
    let mut decided = vec![false; g.n()];
    for &v in &order {
        let mut used = [false; 3];
        for u in g.neighbor_ids(v).filter(|&u| decided[u]) {
            used[colors[u]] = true;
        }
        colors[v] = (0..3)
            .find(|&c| !used[c])
            .expect("a rake-and-compress node has at most 2 earlier-colored neighbors");
        decided[v] = true;
    }
    let clock = commit_clocks(g, &d, &order);
    Ok(structural_run(
        "coloring/tree-rc",
        g,
        &clock,
        Solution::Coloring { colors },
        spec.transcript,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::metrics::CompletionTimes;
    use localavg_graph::{gen, rng::Rng};

    fn tree_zoo() -> Vec<(&'static str, Graph)> {
        let mut rng = Rng::seed_from(11);
        vec![
            ("path", gen::path(97)),
            ("star", gen::star(64)),
            ("random-tree", gen::random_tree(180, &mut rng)),
            ("empty", Graph::empty(0)),
            ("singleton", Graph::empty(1)),
            ("two-paths", {
                let mut b = localavg_graph::GraphBuilder::new(6);
                b.add_edge(0, 1).unwrap();
                b.add_edge(1, 2).unwrap();
                b.add_edge(3, 4).unwrap();
                b.add_edge(4, 5).unwrap();
                b.build()
            }),
        ]
    }

    #[test]
    fn mis_is_valid_and_complete_on_the_zoo() {
        for (name, g) in tree_zoo() {
            let run = mis(&g, &RunSpec::new(3), &mut Workspace::new()).unwrap();
            check::verify_solution(&g, &run.solution).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                run.transcript.is_complete(),
                "{name}: incomplete transcript"
            );
        }
    }

    #[test]
    fn ruling_set_is_a_two_two_ruling_set_on_the_zoo() {
        for (name, g) in tree_zoo() {
            let run = ruling(&g, &RunSpec::new(3), &mut Workspace::new()).unwrap();
            check::verify_solution(&g, &run.solution).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn coloring_is_a_proper_three_coloring_on_the_zoo() {
        for (name, g) in tree_zoo() {
            let run = coloring(&g, &RunSpec::new(3), &mut Workspace::new()).unwrap();
            check::verify_solution(&g, &run.solution).unwrap_or_else(|e| panic!("{name}: {e}"));
            if let Solution::Coloring { colors } = &run.solution {
                assert!(colors.iter().all(|&c| c < 3), "{name}: palette exceeds 3");
            }
        }
    }

    #[test]
    fn cycles_are_rejected_with_the_typed_error() {
        let g = gen::cycle(12);
        let err = mis(&g, &RunSpec::new(0), &mut Workspace::new()).unwrap_err();
        assert_eq!(err.nodes, 12);
        assert!(ruling(&g, &RunSpec::new(0), &mut Workspace::new()).is_err());
        assert!(coloring(&g, &RunSpec::new(0), &mut Workspace::new()).is_err());
    }

    #[test]
    fn transcripts_are_deterministic_in_the_seed_only() {
        let mut rng = Rng::seed_from(5);
        let g = gen::random_tree(140, &mut rng);
        let base = mis(&g, &RunSpec::new(9), &mut Workspace::new()).unwrap();
        let chunked = mis(
            &g,
            &RunSpec::new(9).with_chunk_nodes(Some(1)),
            &mut Workspace::new(),
        )
        .unwrap();
        assert_eq!(base.transcript, chunked.transcript);
        assert_eq!(base.solution, chunked.solution);
        let reseeded = mis(&g, &RunSpec::new(10), &mut Workspace::new()).unwrap();
        assert_eq!(reseeded.transcript.rounds, reseeded.transcript.rounds);
        check::verify_solution(&g, &reseeded.solution).unwrap();
    }

    #[test]
    fn mis_average_is_far_below_the_worst_case_on_long_paths() {
        let g = gen::path(4096);
        let run = mis(&g, &RunSpec::new(1), &mut Workspace::new()).unwrap();
        let t = CompletionTimes::from_transcript(&g, &run.transcript);
        let avg = t.node_mean();
        let worst = run.transcript.rounds as f64;
        assert!(avg < worst / 2.0, "AVG_V {avg} not below WORST {worst} / 2");
        assert!(avg < 12.0, "AVG_V {avg} should be O(1)-ish");
    }

    #[test]
    fn ruling_low_degree_nodes_commit_at_round_two() {
        let g = gen::star(64);
        let run = ruling(&g, &RunSpec::new(2), &mut Workspace::new()).unwrap();
        for v in 1..64 {
            assert_eq!(run.transcript.node_commit_round[v], 2, "leaf {v}");
        }
    }
}
