//! `localavg_check` — the independent correctness oracle.
//!
//! After four engine rewrites (CSR core, flat arenas, transcript
//! policies, workspace reuse) the repo's correctness story rested on two
//! legs: the `localavg_graph::analysis` validators and golden bytes —
//! both of which move *with* the code they are supposed to check. This
//! module is the third, independent leg: every check here is written
//! against the paper's definitions directly, deliberately **not** sharing
//! code paths with `analysis.rs` or `metrics.rs`, so a bug introduced in
//! one side is caught by disagreement with the other. The `exp fuzz`
//! differential harness (`localavg_bench::fuzz`) drives these checks over
//! sampled (family × size × algorithm × params × policy × executor)
//! cells.
//!
//! Three layers:
//!
//! 1. [`verify_solution`] — naive O(n·Δ)-per-check reference validators
//!    for all five problems, node-centric where `analysis.rs` is
//!    edge-centric.
//! 2. Brute force for tiny instances ([`max_independent_set_size`],
//!    [`maximum_matching_size`], [`chromatic_number`],
//!    [`sinkless_orientation_exists`]) and the derived optimality bounds
//!    of [`check_brute_bounds`] (e.g. any maximal independent set `S`
//!    satisfies `n/(Δ+1) ≤ |S| ≤ α(G)`).
//! 3. [`completion_times`] / [`check_metrics`] — an independent
//!    recomputation of Definition 1's per-element completion times from
//!    the raw transcript ledger (via the `Option` accessors
//!    `Transcript::node_commit`/`edge_commit`), compared elementwise
//!    against `metrics.rs`, plus the per-run half of Appendix A's
//!    inequality chain.

use crate::algo::{AlgoRun, Solution};
use crate::metrics::Distribution;
use localavg_graph::analysis::Orientation;
use localavg_graph::{Graph, NodeId};
use localavg_sim::transcript::{OutputKind, Round, Transcript};
use std::collections::HashMap;

/// Largest instance the exponential set/matching brute forcers accept.
pub const BRUTE_MAX_NODES: usize = 20;

/// Largest instance [`chromatic_number`] accepts (its search space is the
/// harshest of the four brute forcers).
pub const CHROMATIC_MAX_NODES: usize = 12;

// ---------------------------------------------------------------------------
// Layer 1: naive reference validators.
// ---------------------------------------------------------------------------

/// Validates a [`Solution`] against `g` with the naive node-centric
/// reference validators.
///
/// # Errors
///
/// Returns a human-readable description of the first violation found
/// (sized for fuzz-failure reports, not for matching on).
pub fn verify_solution(g: &Graph, sol: &Solution) -> Result<(), String> {
    match sol {
        Solution::Mis { in_set } => mis_ok(g, in_set),
        Solution::RulingSet { in_set, beta } => ruling_ok(g, in_set, *beta),
        Solution::Matching { in_matching } => matching_ok(g, in_matching),
        Solution::Orientation { orientation } => orientation_ok(g, orientation),
        Solution::Coloring { colors } => coloring_ok(g, colors),
    }
}

fn expect_len(what: &str, expected: usize, got: usize) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("{what}: expected {expected} entries, got {got}"))
    }
}

fn mis_ok(g: &Graph, in_set: &[bool]) -> Result<(), String> {
    expect_len("MIS indicator", g.n(), in_set.len())?;
    for v in g.nodes() {
        let member_neighbors = g.neighbor_ids(v).filter(|&u| in_set[u]).count();
        if in_set[v] && member_neighbors > 0 {
            return Err(format!("node {v} is in the set next to another member"));
        }
        if !in_set[v] && member_neighbors == 0 {
            return Err(format!("node {v} is undominated (set not maximal)"));
        }
    }
    Ok(())
}

/// Distance to the nearest set member by fixpoint relaxation (the
/// textbook Bellman–Ford shape — deliberately not the BFS `analysis.rs`
/// uses).
fn dist_to_set(g: &Graph, in_set: &[bool]) -> Vec<Option<usize>> {
    let mut dist: Vec<Option<usize>> = in_set.iter().map(|&b| b.then_some(0)).collect();
    loop {
        let mut changed = false;
        for v in g.nodes() {
            let via_neighbor = g
                .neighbor_ids(v)
                .filter_map(|u| dist[u])
                .min()
                .map(|d| d + 1);
            if let Some(cand) = via_neighbor {
                if dist[v].is_none_or(|d| cand < d) {
                    dist[v] = Some(cand);
                    changed = true;
                }
            }
        }
        if !changed {
            return dist;
        }
    }
}

fn ruling_ok(g: &Graph, in_set: &[bool], beta: usize) -> Result<(), String> {
    expect_len("ruling-set indicator", g.n(), in_set.len())?;
    // α = 2: members are pairwise non-adjacent.
    for v in g.nodes().filter(|&v| in_set[v]) {
        if let Some(u) = g.neighbor_ids(v).find(|&u| in_set[u]) {
            return Err(format!("members {v} and {u} are adjacent (α = 2 violated)"));
        }
    }
    let dist = dist_to_set(g, in_set);
    for v in g.nodes() {
        match dist[v] {
            Some(d) if d <= beta => {}
            Some(d) => {
                return Err(format!(
                    "node {v} at distance {d} > β = {beta} from the set"
                ))
            }
            None => return Err(format!("node {v} unreachable from the set")),
        }
    }
    Ok(())
}

fn matching_ok(g: &Graph, in_matching: &[bool]) -> Result<(), String> {
    expect_len("matching indicator", g.m(), in_matching.len())?;
    let mut matched = vec![false; g.n()];
    for v in g.nodes() {
        let mine = g.neighbors(v).filter(|&(_, e)| in_matching[e]).count();
        if mine > 1 {
            return Err(format!("node {v} has {mine} matched incident edges"));
        }
        matched[v] = mine == 1;
    }
    for v in g.nodes().filter(|&v| !matched[v]) {
        if let Some(u) = g.neighbor_ids(v).find(|&u| !matched[u]) {
            return Err(format!(
                "edge {{{v}, {u}}} joins two unmatched nodes (matching not maximal)"
            ));
        }
    }
    Ok(())
}

fn orientation_ok(g: &Graph, orientation: &[Orientation]) -> Result<(), String> {
    expect_len("orientation labels", g.m(), orientation.len())?;
    for v in g.nodes() {
        if g.degree(v) == 0 {
            continue; // vacuously fine (paper §3.3)
        }
        let out = g
            .neighbors(v)
            .filter(|&(_, e)| orientation[e].tail(g, e) == v)
            .count();
        if out == 0 {
            return Err(format!("node {v} is a sink"));
        }
    }
    Ok(())
}

fn coloring_ok(g: &Graph, colors: &[usize]) -> Result<(), String> {
    expect_len("coloring", g.n(), colors.len())?;
    for v in g.nodes() {
        if let Some(u) = g.neighbor_ids(v).find(|&u| colors[u] == colors[v]) {
            return Err(format!(
                "nodes {v} and {u} share color {} across an edge",
                colors[v]
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Layer 2: brute force for tiny instances.
// ---------------------------------------------------------------------------

fn adjacency_masks(g: &Graph) -> Vec<u32> {
    let mut adj = vec![0u32; g.n()];
    for (_, u, v) in g.edges() {
        adj[u] |= 1 << v;
        adj[v] |= 1 << u;
    }
    adj
}

/// Exact independence number α(G) by branching on the lowest-index alive
/// node (include it, dropping its closed neighborhood, or exclude it).
///
/// # Panics
///
/// Panics if `g.n() > BRUTE_MAX_NODES`.
pub fn max_independent_set_size(g: &Graph) -> usize {
    assert!(
        g.n() <= BRUTE_MAX_NODES,
        "brute force capped at {BRUTE_MAX_NODES} nodes, got {}",
        g.n()
    );
    fn go(alive: u32, adj: &[u32]) -> usize {
        if alive == 0 {
            return 0;
        }
        let v = alive.trailing_zeros() as usize;
        let rest = alive & !(1u32 << v);
        let with = 1 + go(rest & !adj[v], adj);
        let without = go(rest, adj);
        with.max(without)
    }
    let alive = if g.n() == 32 {
        u32::MAX
    } else {
        (1u32 << g.n()) - 1
    };
    go(alive, &adjacency_masks(g))
}

/// Exact maximum matching size ν(G) by branching on the lowest-index
/// alive node with an alive neighbor, memoized on the alive mask.
///
/// # Panics
///
/// Panics if `g.n() > BRUTE_MAX_NODES`.
pub fn maximum_matching_size(g: &Graph) -> usize {
    assert!(
        g.n() <= BRUTE_MAX_NODES,
        "brute force capped at {BRUTE_MAX_NODES} nodes, got {}",
        g.n()
    );
    fn go(alive: u32, adj: &[u32], memo: &mut HashMap<u32, usize>) -> usize {
        // Skip alive nodes with no alive neighbor: they can never match.
        let mut rest = alive;
        let v = loop {
            if rest == 0 {
                return 0;
            }
            let v = rest.trailing_zeros() as usize;
            if adj[v] & alive != 0 {
                break v;
            }
            rest &= !(1u32 << v);
        };
        if let Some(&cached) = memo.get(&rest) {
            return cached;
        }
        let dropped = rest & !(1u32 << v);
        // v stays unmatched forever…
        let mut best = go(dropped, adj, memo);
        // …or matches one of its alive neighbors.
        let mut nbrs = adj[v] & rest;
        while nbrs != 0 {
            let u = nbrs.trailing_zeros() as usize;
            nbrs &= !(1u32 << u);
            best = best.max(1 + go(dropped & !(1u32 << u), adj, memo));
        }
        memo.insert(rest, best);
        best
    }
    go(
        if g.n() == 32 {
            u32::MAX
        } else {
            (1u32 << g.n()) - 1
        },
        &adjacency_masks(g),
        &mut HashMap::new(),
    )
}

/// Exact chromatic number χ(G) by iterative deepening over the palette
/// size with first-fit symmetry breaking.
///
/// # Panics
///
/// Panics if `g.n() > CHROMATIC_MAX_NODES`.
pub fn chromatic_number(g: &Graph) -> usize {
    assert!(
        g.n() <= CHROMATIC_MAX_NODES,
        "chromatic brute force capped at {CHROMATIC_MAX_NODES} nodes, got {}",
        g.n()
    );
    if g.n() == 0 {
        return 0;
    }
    if g.m() == 0 {
        return 1;
    }
    fn colorable(g: &Graph, k: usize, assigned: &mut Vec<usize>, v: NodeId) -> bool {
        if v == g.n() {
            return true;
        }
        // Symmetry breaking: node v may only open palette slot
        // max(assigned so far) + 1.
        let frontier = assigned[..v].iter().copied().max().map_or(0, |c| c + 1);
        for c in 0..k.min(frontier + 1) {
            if g.neighbor_ids(v).all(|u| u >= v || assigned[u] != c) {
                assigned[v] = c;
                if colorable(g, k, assigned, v + 1) {
                    return true;
                }
            }
        }
        false
    }
    for k in 2..=g.n() {
        if colorable(g, k, &mut vec![0; g.n()], 0) {
            return k;
        }
    }
    g.n()
}

/// Whether any sinkless orientation of `g` exists: true iff every
/// connected component that contains an edge has at least as many edges
/// as nodes (a tree component must produce a sink, a component with a
/// cycle never has to). Components come from union–find, not the BFS of
/// `analysis::components`.
pub fn sinkless_orientation_exists(g: &Graph) -> bool {
    let mut parent: Vec<usize> = (0..g.n()).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for (_, u, v) in g.edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru] = rv;
        }
    }
    let mut nodes = vec![0usize; g.n()];
    let mut edges = vec![0usize; g.n()];
    for v in g.nodes() {
        nodes[find(&mut parent, v)] += 1;
    }
    for (_, u, _) in g.edges() {
        edges[find(&mut parent, u)] += 1;
    }
    g.nodes()
        .all(|r| edges[r] == 0 || nodes[r] == 0 || edges[r] >= nodes[r])
}

/// Checks a solution against the brute-force optimality bounds — the
/// "did the algorithm find something an exhaustive search agrees is
/// legal *and plausible*" layer:
///
/// * any maximal independent set `S` has `n ≤ |S|·(Δ+1)` and `|S| ≤ α`;
/// * a (2, β)-ruling set is independent, so `|S| ≤ α`;
/// * any maximal matching `M` has `ν ≤ 2|M|` and `|M| ≤ ν`;
/// * a sinkless orientation may only exist where brute force says one
///   does;
/// * a proper coloring uses at least χ colors (χ only for
///   `n ≤ CHROMATIC_MAX_NODES`).
///
/// Call only after [`verify_solution`] and only for
/// `g.n() <= BRUTE_MAX_NODES`.
///
/// # Errors
///
/// Returns a description of the violated bound.
///
/// # Panics
///
/// Panics if `g.n() > BRUTE_MAX_NODES`.
pub fn check_brute_bounds(g: &Graph, sol: &Solution) -> Result<(), String> {
    match sol {
        Solution::Mis { in_set } => {
            let size = in_set.iter().filter(|&&b| b).count();
            let alpha = max_independent_set_size(g);
            if size > alpha {
                return Err(format!("MIS of size {size} exceeds α = {alpha}"));
            }
            if size * (g.max_degree() + 1) < g.n() {
                return Err(format!(
                    "MIS of size {size} below the n/(Δ+1) floor (n={}, Δ={})",
                    g.n(),
                    g.max_degree()
                ));
            }
            Ok(())
        }
        Solution::RulingSet { in_set, .. } => {
            let size = in_set.iter().filter(|&&b| b).count();
            let alpha = max_independent_set_size(g);
            if size > alpha {
                return Err(format!("ruling set of size {size} exceeds α = {alpha}"));
            }
            Ok(())
        }
        Solution::Matching { in_matching } => {
            let size = in_matching.iter().filter(|&&b| b).count();
            let nu = maximum_matching_size(g);
            if size > nu {
                return Err(format!("matching of size {size} exceeds ν = {nu}"));
            }
            if 2 * size < nu {
                return Err(format!(
                    "maximal matching of size {size} below ν/2 = {nu}/2"
                ));
            }
            Ok(())
        }
        Solution::Orientation { .. } => {
            if sinkless_orientation_exists(g) {
                Ok(())
            } else {
                Err("a sinkless orientation was produced where none can exist".to_string())
            }
        }
        Solution::Coloring { colors } => {
            if g.n() > CHROMATIC_MAX_NODES {
                return Ok(());
            }
            let used = {
                let mut distinct: Vec<usize> = colors.clone();
                distinct.sort_unstable();
                distinct.dedup();
                distinct.len()
            };
            let chi = chromatic_number(g);
            if used < chi {
                return Err(format!("{used} colors on a graph with χ = {chi}"));
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 3: independent Definition 1 accounting.
// ---------------------------------------------------------------------------

/// Per-element completion times recomputed from the raw ledger — the
/// oracle twin of `metrics::CompletionTimes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleTimes {
    /// `T_v` per node.
    pub node: Vec<Round>,
    /// `T_e` per edge.
    pub edge: Vec<Round>,
    /// Footnote-2 relaxed edge completion.
    pub edge_one_endpoint: Vec<Round>,
}

impl OracleTimes {
    /// Exact mean via integer summation (no incremental float error).
    fn mean(xs: &[Round]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let total: u128 = xs.iter().map(|&x| x as u128).sum();
        total as f64 / xs.len() as f64
    }

    /// `AVG_V` of this run.
    pub fn node_averaged(&self) -> f64 {
        Self::mean(&self.node)
    }

    /// `AVG_E` of this run.
    pub fn edge_averaged(&self) -> f64 {
        Self::mean(&self.edge)
    }

    /// Footnote-2 `AVG_E`.
    pub fn edge_averaged_one_endpoint(&self) -> f64 {
        Self::mean(&self.edge_one_endpoint)
    }
}

/// Recomputes Definition 1's completion times from the raw transcript,
/// node-centric where `metrics.rs` is edge-centric: a node's time is the
/// max over its own commit and its incident edges' commits (read through
/// its CSR row), an edge's time the max over its own commit and its two
/// endpoints'.
///
/// # Errors
///
/// Returns an error naming the first element whose required output never
/// committed (instead of the `metrics.rs` panic).
pub fn completion_times(g: &Graph, t: &Transcript<(), ()>) -> Result<OracleTimes, String> {
    let needs_node = matches!(t.kind, OutputKind::NodeLabels | OutputKind::Both);
    let needs_edge = matches!(t.kind, OutputKind::EdgeLabels | OutputKind::Both);
    let node_own = |v: NodeId| -> Result<Round, String> {
        if needs_node {
            t.node_commit(v)
                .ok_or_else(|| format!("node {v} never committed"))
        } else {
            Ok(0)
        }
    };
    let edge_own = |e: usize| -> Result<Round, String> {
        if needs_edge {
            t.edge_commit(e)
                .ok_or_else(|| format!("edge {e} never committed"))
        } else {
            Ok(0)
        }
    };
    let mut node = Vec::with_capacity(g.n());
    for v in g.nodes() {
        let mut tv = node_own(v)?;
        for (_, e) in g.neighbors(v) {
            tv = tv.max(edge_own(e)?);
        }
        node.push(tv);
    }
    let mut edge = Vec::with_capacity(g.m());
    let mut edge_one = Vec::with_capacity(g.m());
    for (e, u, v) in g.edges() {
        let (tu, tv) = (node_own(u)?, node_own(v)?);
        edge.push(edge_own(e)?.max(tu).max(tv));
        edge_one.push(if needs_node { tu.min(tv) } else { edge_own(e)? });
    }
    Ok(OracleTimes {
        node,
        edge,
        edge_one_endpoint: edge_one,
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Nearest-rank percentile of a completion-time sample, recomputed by
/// counting sort — deliberately **not** the sort-then-index path
/// `metrics::Distribution` uses, so the two implementations check each
/// other. Returns 0 for an empty sample (the crate's empty-set
/// convention). The counting array is sized by the sample's max, which
/// for completion times is bounded by the run's round count.
pub fn percentile_by_counting(xs: &[Round], q_num: usize, q_den: usize) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let max = xs.iter().copied().max().expect("nonempty");
    let mut counts = vec![0usize; max + 1];
    for &x in xs {
        counts[x] += 1;
    }
    let rank = (q_num * xs.len()).div_ceil(q_den).clamp(1, xs.len());
    let mut seen = 0usize;
    for (value, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return value as u64;
        }
    }
    max as u64
}

/// Cross-checks one [`Distribution`] summary against an independent
/// counting-sort recomputation from the raw sample it claims to
/// summarize.
///
/// # Errors
///
/// Returns a description of the first disagreement (percentile, max,
/// mean, count, histogram mass, or a violated ordering invariant).
pub fn check_distribution(label: &str, d: &Distribution, xs: &[Round]) -> Result<(), String> {
    if d.count != xs.len() {
        return Err(format!(
            "{label}: distribution count {} != sample size {}",
            d.count,
            xs.len()
        ));
    }
    if !d.is_well_ordered() {
        return Err(format!(
            "{label}: ordering invariant violated (p50 {} p90 {} p99 {} max {} mean {})",
            d.p50, d.p90, d.p99, d.max, d.mean
        ));
    }
    for (q, got) in [(50, d.p50), (90, d.p90), (99, d.p99)] {
        let want = percentile_by_counting(xs, q, 100);
        if got != want {
            return Err(format!(
                "{label}: p{q} diverges: summary {got}, oracle {want}"
            ));
        }
    }
    let max = xs.iter().copied().max().unwrap_or(0) as u64;
    if d.max != max {
        return Err(format!(
            "{label}: max diverges: summary {}, oracle {max}",
            d.max
        ));
    }
    if !close(d.mean, OracleTimes::mean(xs)) {
        return Err(format!(
            "{label}: mean diverges: summary {}, oracle {}",
            d.mean,
            OracleTimes::mean(xs)
        ));
    }
    Ok(())
}

/// Cross-checks a run's metrics against the oracle recomputation and the
/// per-run half of Appendix A's inequality chain:
///
/// * oracle completion times equal `metrics.rs` elementwise;
/// * the `ComplexityReport` scalars match the oracle means;
/// * every commit is within `rounds`; `AVG_V ≤ max T_v ≤ rounds`;
///   the footnote-2 time never exceeds the Definition 1 time.
///
/// # Errors
///
/// Returns a description of the first disagreement.
pub fn check_metrics(g: &Graph, run: &AlgoRun) -> Result<(), String> {
    let oracle = completion_times(g, &run.transcript)?;
    let fast = run.completion_times(g);
    if oracle.node != fast.node {
        let v = oracle
            .node
            .iter()
            .zip(&fast.node)
            .position(|(a, b)| a != b)
            .expect("some node differs");
        return Err(format!(
            "node completion times diverge at node {v}: oracle {}, metrics {}",
            oracle.node[v], fast.node[v]
        ));
    }
    if oracle.edge != fast.edge {
        return Err("edge completion times diverge".to_string());
    }
    if oracle.edge_one_endpoint != fast.edge_one_endpoint {
        return Err("footnote-2 edge completion times diverge".to_string());
    }
    let rep = run.report(g);
    if !close(rep.node_averaged, oracle.node_averaged()) {
        return Err(format!(
            "AVG_V diverges: report {}, oracle {}",
            rep.node_averaged,
            oracle.node_averaged()
        ));
    }
    if !close(rep.edge_averaged, oracle.edge_averaged()) {
        return Err(format!(
            "AVG_E diverges: report {}, oracle {}",
            rep.edge_averaged,
            oracle.edge_averaged()
        ));
    }
    if !close(
        rep.edge_averaged_one_endpoint,
        oracle.edge_averaged_one_endpoint(),
    ) {
        return Err("footnote-2 AVG_E diverges".to_string());
    }
    // Per-run Appendix A chain.
    let rounds = run.worst_case();
    let node_worst = oracle.node.iter().copied().max().unwrap_or(0);
    if rep.node_worst != node_worst {
        return Err(format!(
            "node worst diverges: report {}, oracle {node_worst}",
            rep.node_worst
        ));
    }
    if node_worst > rounds {
        return Err(format!(
            "node completion {node_worst} exceeds total rounds {rounds}"
        ));
    }
    if rep.node_averaged > node_worst as f64 + 1e-9 {
        return Err("AVG_V exceeds the worst node completion".to_string());
    }
    for (e, (&one, &full)) in oracle
        .edge_one_endpoint
        .iter()
        .zip(&oracle.edge)
        .enumerate()
    {
        if one > full {
            return Err(format!(
                "edge {e}: footnote-2 time {one} exceeds Definition 1 time {full}"
            ));
        }
        if full > rounds {
            return Err(format!(
                "edge {e} completion {full} exceeds total rounds {rounds}"
            ));
        }
    }
    // Distributional summaries (p50/p90/p99/max/mean) of the fast path
    // must agree with the counting-sort oracle over the *oracle's* raw
    // completion times — two independent percentile computations over two
    // independently-derived samples.
    check_distribution(
        "node times",
        &Distribution::from_rounds(&fast.node),
        &oracle.node,
    )?;
    check_distribution(
        "edge times",
        &Distribution::from_rounds(&fast.edge),
        &oracle.edge,
    )?;
    Ok(())
}

/// The full oracle verdict on one run: solution validity plus metrics
/// agreement (brute-force bounds are separate — they need a size gate).
///
/// # Errors
///
/// Returns the first failing layer's description.
pub fn verify_run(g: &Graph, run: &AlgoRun) -> Result<(), String> {
    verify_solution(g, &run.solution)?;
    check_metrics(g, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{registry, RunSpec};
    use localavg_graph::rng::Rng;
    use localavg_graph::{analysis, gen};
    use localavg_sim::transcript::OutputKind;

    #[test]
    fn percentiles_match_oracle_on_registry_algorithms() {
        // Every registry algorithm × a tree and a heavy-tailed family:
        // the sort-based Distribution summary must agree with the
        // counting-sort oracle on the raw ledger's completion times.
        let mut rng = Rng::seed_from(42);
        let instances = [
            ("tree", gen::random_tree(64, &mut rng)),
            ("powerlaw", gen::powerlaw(64, 2.1, 6.0, &mut rng)),
        ];
        for (family, g) in &instances {
            for algo in registry().iter() {
                if algo.problem().min_degree() > g.min_degree()
                    || (algo.requires_tree() && !analysis::is_forest(g))
                {
                    continue;
                }
                let run = algo.execute(g, &RunSpec::new(8));
                check_metrics(g, &run)
                    .unwrap_or_else(|e| panic!("{} on {family}: {e}", algo.name()));
            }
        }
    }

    #[test]
    fn counting_percentile_agrees_with_sorting_on_awkward_samples() {
        for xs in [
            vec![],
            vec![0],
            vec![5; 9],
            vec![0, 0, 0, 1],
            (0..100).collect::<Vec<_>>(),
            vec![1, 1000],
            vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5],
        ] {
            let d = Distribution::from_rounds(&xs);
            check_distribution("sample", &d, &xs).unwrap();
            for (q, got) in [(50, d.p50), (90, d.p90), (99, d.p99)] {
                assert_eq!(got, percentile_by_counting(&xs, q, 100), "p{q} of {xs:?}");
            }
        }
    }

    #[test]
    fn check_distribution_rejects_corrupted_summaries() {
        let xs = vec![1, 2, 3, 4, 5];
        let good = Distribution::from_rounds(&xs);
        check_distribution("xs", &good, &xs).unwrap();
        let mut wrong_p90 = good.clone();
        wrong_p90.p90 = 2; // breaks p50 <= p90 ordering too? p50=3 > 2 -> ordering
        assert!(check_distribution("xs", &wrong_p90, &xs).is_err());
        let mut wrong_max = good.clone();
        wrong_max.max = 9;
        assert!(check_distribution("xs", &wrong_max, &xs).is_err());
        let mut wrong_count = good.clone();
        wrong_count.count = 4;
        assert!(check_distribution("xs", &wrong_count, &xs).is_err());
        let mut wrong_mean = good;
        wrong_mean.mean = 2.0;
        assert!(check_distribution("xs", &wrong_mean, &xs).is_err());
    }

    #[test]
    fn oracle_and_analysis_validators_agree_on_valid_runs() {
        let mut rng = Rng::seed_from(31);
        let g = gen::random_regular(32, 4, &mut rng).unwrap();
        for algo in registry().iter() {
            if algo.problem().min_degree() > g.min_degree() || algo.requires_tree() {
                continue;
            }
            let run = algo.execute(&g, &RunSpec::new(6));
            assert_eq!(run.verify(&g), Ok(()), "{}", algo.name());
            verify_solution(&g, &run.solution)
                .unwrap_or_else(|e| panic!("oracle rejects {}: {e}", algo.name()));
            verify_run(&g, &run).unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
        }
    }

    #[test]
    fn oracle_rejects_what_analysis_rejects() {
        let g = gen::path(5);
        // Not maximal: empty set.
        let empty = Solution::Mis {
            in_set: vec![false; 5],
        };
        assert!(verify_solution(&g, &empty).is_err());
        // Not independent: adjacent members.
        let adjacent = Solution::Mis {
            in_set: vec![true, true, false, true, false],
        };
        assert!(verify_solution(&g, &adjacent).is_err());
        // Valid MIS passes.
        let ok = Solution::Mis {
            in_set: vec![true, false, true, false, true],
        };
        assert_eq!(verify_solution(&g, &ok), Ok(()));
        // Size mismatch.
        let short = Solution::Mis {
            in_set: vec![true; 4],
        };
        assert!(verify_solution(&g, &short).is_err());
    }

    #[test]
    fn ruling_oracle_checks_beta_exactly() {
        let g = gen::path(7);
        let endpoints: Vec<bool> = (0..7).map(|v| v == 0 || v == 6).collect();
        assert_eq!(
            verify_solution(
                &g,
                &Solution::RulingSet {
                    in_set: endpoints.clone(),
                    beta: 3
                }
            ),
            Ok(())
        );
        assert!(verify_solution(
            &g,
            &Solution::RulingSet {
                in_set: endpoints,
                beta: 2
            }
        )
        .is_err());
    }

    #[test]
    fn matching_and_orientation_and_coloring_oracles() {
        let g = gen::path(4); // edges {0,1} {1,2} {2,3}
        assert_eq!(
            verify_solution(
                &g,
                &Solution::Matching {
                    in_matching: vec![true, false, true]
                }
            ),
            Ok(())
        );
        assert!(verify_solution(
            &g,
            &Solution::Matching {
                in_matching: vec![false, true, true] // node 2 doubly matched
            }
        )
        .is_err());
        assert!(verify_solution(
            &g,
            &Solution::Matching {
                in_matching: vec![false, true, false] // {0,1}? 0 and... wait
            }
        )
        .is_ok());
        let c = gen::cycle(4);
        let around: Vec<Orientation> = c
            .edges()
            .map(|(e, _, _)| {
                if e == 3 {
                    Orientation::Backward
                } else {
                    Orientation::Forward
                }
            })
            .collect();
        assert_eq!(
            verify_solution(
                &c,
                &Solution::Orientation {
                    orientation: around
                }
            ),
            Ok(())
        );
        assert!(verify_solution(
            &c,
            &Solution::Orientation {
                orientation: vec![Orientation::Forward; 4]
            }
        )
        .is_err());
        assert_eq!(
            verify_solution(
                &c,
                &Solution::Coloring {
                    colors: vec![0, 1, 0, 1]
                }
            ),
            Ok(())
        );
        assert!(verify_solution(
            &c,
            &Solution::Coloring {
                colors: vec![0, 1, 1, 0]
            }
        )
        .is_err());
    }

    #[test]
    fn brute_force_known_values() {
        assert_eq!(max_independent_set_size(&gen::cycle(5)), 2);
        assert_eq!(max_independent_set_size(&gen::cycle(6)), 3);
        assert_eq!(max_independent_set_size(&gen::complete(5)), 1);
        assert_eq!(max_independent_set_size(&gen::petersen()), 4);
        assert_eq!(max_independent_set_size(&Graph::empty(7)), 7);
        assert_eq!(maximum_matching_size(&gen::path(4)), 2);
        assert_eq!(maximum_matching_size(&gen::cycle(5)), 2);
        assert_eq!(maximum_matching_size(&gen::complete(6)), 3);
        assert_eq!(maximum_matching_size(&gen::petersen()), 5);
        assert_eq!(maximum_matching_size(&gen::star(6)), 1);
        assert_eq!(chromatic_number(&gen::cycle(5)), 3);
        assert_eq!(chromatic_number(&gen::cycle(6)), 2);
        assert_eq!(chromatic_number(&gen::complete(5)), 5);
        assert_eq!(chromatic_number(&gen::petersen()), 3);
        assert_eq!(chromatic_number(&Graph::empty(3)), 1);
        assert!(sinkless_orientation_exists(&gen::cycle(4)));
        assert!(sinkless_orientation_exists(&gen::petersen()));
        assert!(!sinkless_orientation_exists(&gen::path(5)));
        assert!(!sinkless_orientation_exists(&gen::binary_tree(7)));
        assert!(sinkless_orientation_exists(&Graph::empty(3)));
    }

    use localavg_graph::Graph;

    #[test]
    fn brute_force_agrees_with_analysis_independence() {
        // Cross-check the two independent exponential searches on random
        // small graphs.
        let mut rng = Rng::seed_from(77);
        for _ in 0..20 {
            let n = 4 + rng.index(12);
            let g = gen::gnp(n, 0.3, &mut rng);
            assert_eq!(
                max_independent_set_size(&g),
                analysis::independence_number_exact(&g),
                "n={n}"
            );
        }
    }

    #[test]
    fn brute_bounds_accept_real_runs_and_reject_padding() {
        let g = gen::cycle(9);
        let run = registry()
            .get("mis/greedy")
            .unwrap()
            .execute(&g, &RunSpec::new(0));
        assert_eq!(check_brute_bounds(&g, &run.solution), Ok(()));
        // A "matching" bigger than ν is caught even if someone broke the
        // validator that should have rejected it first.
        let padded = Solution::Matching {
            in_matching: vec![true; 9],
        };
        assert!(check_brute_bounds(&g, &padded).is_err());
        // An undersized maximal matching claim is caught too.
        let starved = Solution::Matching {
            in_matching: vec![false; 9],
        };
        assert!(check_brute_bounds(&g, &starved).is_err());
    }

    #[test]
    fn metrics_oracle_matches_metrics_rs() {
        let mut rng = Rng::seed_from(5);
        let g = gen::random_regular(24, 4, &mut rng).unwrap();
        for algo in registry().iter() {
            if algo.problem().min_degree() > g.min_degree() || algo.requires_tree() {
                continue;
            }
            let run = algo.execute(&g, &RunSpec::new(2));
            check_metrics(&g, &run).unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
        }
    }

    #[test]
    fn metrics_oracle_detects_a_tampered_ledger() {
        let g = gen::path(4);
        let mut run = registry()
            .get("mis/greedy")
            .unwrap()
            .execute(&g, &RunSpec::new(0));
        // Push one commit past the recorded round total: the chain check
        // must notice even though the fast path recomputes consistently.
        run.transcript.node_commit_round[2] = run.transcript.rounds + 5;
        assert!(check_metrics(&g, &run).is_err());
    }

    #[test]
    fn incomplete_transcript_is_an_error_not_a_panic() {
        let g = gen::path(3);
        let t: Transcript<(), ()> = Transcript::empty(OutputKind::NodeLabels, 3, 2);
        assert!(completion_times(&g, &t).is_err());
    }
}
