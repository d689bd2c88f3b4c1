//! Graph generators.
//!
//! The experiments sweep over the standard families used in the paper's
//! statements and proofs: bounded-degree graphs (cycles, d-regular graphs,
//! grids), trees (Theorem 16's tree lower bound), Erdős–Rényi graphs, and
//! bipartite/biregular gadgets (the cluster-tree constructions of §4.6 wire
//! groups of nodes with complete bipartite graphs `K_{a,b}` and perfect
//! matchings).
//!
//! All randomized generators take the workspace [`Rng`] so results are
//! reproducible from a master seed.

use crate::graph::{Graph, GraphBuilder, GraphError, NodeId, MAX_NODES};
use crate::rng::Rng;

/// Path `P_n` on `n` nodes (`n-1` edges).
///
/// # Example
///
/// ```
/// let g = localavg_graph::gen::path(4);
/// assert_eq!(g.m(), 3);
/// ```
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_edge_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge(v - 1, v).expect("path edges are valid");
    }
    b.build()
}

/// Cycle `C_n` on `n >= 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3` (a 2-cycle would be a multi-edge).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires n >= 3, got {n}");
    let mut b = GraphBuilder::with_edge_capacity(n, n);
    for v in 1..n {
        b.add_edge(v - 1, v).expect("path edges are valid");
    }
    b.add_edge(n - 1, 0).expect("closing edge is valid");
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::with_edge_capacity(n, n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v).expect("complete edges are valid");
        }
    }
    b.build()
}

/// Complete bipartite graph `K_{a,b}`; the first `a` nodes form one side.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut builder = GraphBuilder::with_edge_capacity(a + b, a * b);
    for u in 0..a {
        for v in 0..b {
            builder
                .add_edge(u, a + v)
                .expect("bipartite edges are valid");
        }
    }
    builder.build()
}

/// Star `K_{1,n-1}` with node 0 at the center.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1, "star requires at least one node");
    let mut b = GraphBuilder::with_edge_capacity(n, n - 1);
    for v in 1..n {
        b.add_edge(0, v).expect("star edges are valid");
    }
    b.build()
}

/// `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1)).expect("grid edge");
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c)).expect("grid edge");
            }
        }
    }
    b.build()
}

/// `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut b = GraphBuilder::with_edge_capacity(n, n * d as usize / 2);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(v, u).expect("hypercube edge");
            }
        }
    }
    b.build()
}

/// Complete binary tree with `n` nodes (heap indexing: children of `v` are
/// `2v+1`, `2v+2`).
pub fn binary_tree(n: usize) -> Graph {
    let mut b = GraphBuilder::with_edge_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge(v, (v - 1) / 2).expect("tree edge");
    }
    b.build()
}

/// Caterpillar: a path of `spine` nodes, each with `legs` pendant leaves.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut b = GraphBuilder::with_edge_capacity(n, n.saturating_sub(1));
    for v in 1..spine {
        b.add_edge(v - 1, v).expect("spine edge");
    }
    for s in 0..spine {
        for l in 0..legs {
            b.add_edge(s, spine + s * legs + l).expect("leg edge");
        }
    }
    b.build()
}

/// Spider `S(legs, len)`: `legs` disjoint paths of `len` nodes, all
/// attached to a central node 0 (`n = 1 + legs·len`).
///
/// A canonical hard shape for node-averaged measures on trees: the
/// center's completion is gated by every leg, while deep leg nodes look
/// locally like a path.
///
/// # Panics
///
/// Panics if `legs == 0` or `len == 0`.
pub fn spider(legs: usize, len: usize) -> Graph {
    assert!(legs >= 1 && len >= 1, "spider requires legs, len >= 1");
    let n = 1 + legs * len;
    let mut b = GraphBuilder::with_edge_capacity(n, n - 1);
    for l in 0..legs {
        let base = 1 + l * len;
        b.add_edge(0, base).expect("spider hub edge");
        for i in 1..len {
            b.add_edge(base + i - 1, base + i).expect("spider leg edge");
        }
    }
    b.build()
}

/// Random tree on `n` nodes with maximum degree `<= dmax`, by random
/// attachment: node `v` joins a uniformly random earlier node that still
/// has spare degree capacity.
///
/// Degree-bounded trees are exactly where the node-averaged landscape
/// papers place the interesting separations (bounded-degree trees admit
/// the full ω(1)…O(log n) spectrum), so the sweep needs them as a
/// first-class family.
///
/// # Panics
///
/// Panics if `n == 0` or `dmax < 2` (a path already needs degree 2).
pub fn bounded_random_tree(n: usize, dmax: usize, rng: &mut Rng) -> Graph {
    assert!(n >= 1, "bounded_random_tree requires at least one node");
    assert!(dmax >= 2, "dmax must be >= 2 (paths need degree 2)");
    let mut b = GraphBuilder::with_edge_capacity(n, n.saturating_sub(1));
    let mut degree = vec![0usize; n];
    // Nodes with degree < dmax, in no particular order (swap_remove keeps
    // selection O(1) and fully determined by the rng stream).
    let mut open: Vec<NodeId> = Vec::with_capacity(n);
    if n >= 1 {
        open.push(0);
    }
    for v in 1..n {
        let slot = rng.index(open.len());
        let parent = open[slot];
        b.add_edge(parent, v).expect("tree edge");
        degree[parent] += 1;
        degree[v] += 1;
        if degree[parent] == dmax {
            open.swap_remove(slot);
        }
        if degree[v] < dmax {
            open.push(v);
        }
    }
    b.build()
}

/// Uniformly random labelled tree on `n` nodes via Prüfer sequences.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, rng: &mut Rng) -> Graph {
    assert!(n >= 1, "random_tree requires at least one node");
    if n == 1 {
        return Graph::empty(1);
    }
    if n == 2 {
        return Graph::from_edges(2, &[(0, 1)]).expect("valid 2-node tree");
    }
    let prufer: Vec<NodeId> = (0..n - 2).map(|_| rng.index(n)).collect();
    let mut degree = vec![1usize; n];
    for &v in &prufer {
        degree[v] += 1;
    }
    // Min-heap over current leaves.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut leaves: BinaryHeap<Reverse<NodeId>> =
        (0..n).filter(|&v| degree[v] == 1).map(Reverse).collect();
    let mut builder = GraphBuilder::with_edge_capacity(n, n - 1);
    for &v in &prufer {
        let Reverse(leaf) = leaves.pop().expect("Prüfer decoding always has a leaf");
        builder.add_edge(leaf, v).expect("tree edge");
        degree[v] -= 1;
        if degree[v] == 1 {
            leaves.push(Reverse(v));
        }
    }
    let Reverse(a) = leaves.pop().expect("two leaves remain");
    let Reverse(b) = leaves.pop().expect("two leaves remain");
    builder.add_edge(a, b).expect("final tree edge");
    builder.build()
}

/// Erdős–Rényi graph `G(n, p)`: each pair is an edge independently with
/// probability `p`.
pub fn gnp(n: usize, p: f64, rng: &mut Rng) -> Graph {
    if p <= 0.0 {
        return Graph::empty(n);
    }
    if p >= 1.0 {
        return complete(n);
    }
    let mut b = GraphBuilder::new(n);
    // Geometric skipping (Batagelj–Brandes) for sparse p.
    let log_q = (1.0 - p).ln();
    let mut v: usize = 1;
    let mut w: isize = -1;
    while v < n {
        let r = rng.f64_unit().max(f64::MIN_POSITIVE);
        w += 1 + (r.ln() / log_q).floor() as isize;
        while w >= v as isize && v < n {
            w -= v as isize;
            v += 1;
        }
        if v < n {
            b.add_edge(w as usize, v).expect("gnp edge");
        }
    }
    b.build()
}

/// Random `d`-regular graph on `n` nodes via the configuration model with
/// restarts (pairings with self-loops or multi-edges are rejected).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n * d` is odd or `d >= n`,
/// or if no simple pairing is found after many restarts (only plausible for
/// extreme parameters).
///
/// # Example
///
/// ```
/// use localavg_graph::{gen, rng::Rng};
/// let mut rng = Rng::seed_from(1);
/// let g = gen::random_regular(50, 3, &mut rng)?;
/// assert!(g.degrees().all(|d| d == 3));
/// # Ok::<(), localavg_graph::GraphError>(())
/// ```
pub fn random_regular(n: usize, d: usize, rng: &mut Rng) -> Result<Graph, GraphError> {
    if d == 0 {
        return Ok(Graph::empty(n));
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameters(format!(
            "n*d must be even for a d-regular graph (n={n}, d={d})"
        )));
    }
    if d >= n {
        return Err(GraphError::InvalidParameters(format!(
            "degree d={d} must be < n={n}"
        )));
    }
    // Steger–Wormald pairing: repeatedly connect two random unmatched stubs
    // that form a legal edge; restart only when the remaining stubs are
    // (nearly) stuck. Far more robust than rejecting whole pairings.
    let stubs_template: Vec<NodeId> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    const MAX_RESTARTS: usize = 200;
    'restart: for _ in 0..MAX_RESTARTS {
        let mut stubs = stubs_template.clone();
        let mut b = GraphBuilder::new(n);
        while stubs.len() >= 2 {
            let mut tries = 0usize;
            loop {
                let i = rng.index(stubs.len());
                let mut j = rng.index(stubs.len() - 1);
                if j >= i {
                    j += 1;
                }
                let (u, v) = (stubs[i], stubs[j]);
                if u != v && !b.contains(u, v) {
                    b.try_add(u, v);
                    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                    stubs.swap_remove(hi);
                    stubs.swap_remove(lo);
                    break;
                }
                tries += 1;
                if tries > 100 + 20 * stubs.len() {
                    continue 'restart;
                }
            }
        }
        return Ok(b.build());
    }
    Err(GraphError::InvalidParameters(format!(
        "failed to sample a simple {d}-regular graph on {n} nodes after {MAX_RESTARTS} restarts"
    )))
}

/// Random bipartite `(d_a, d_b)`-biregular graph: `a` left nodes of degree
/// `d_a`, `b` right nodes of degree `d_b` (requires `a * d_a == b * d_b`).
///
/// Left nodes are `0..a`, right nodes are `a..a+b`. Used to realize the
/// cluster-tree edge constraints of §4.3 in tests and ablations.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if the degree equation fails,
/// if a side would need more distinct neighbors than exist, or if sampling
/// keeps producing multi-edges after many restarts.
pub fn random_biregular(
    a: usize,
    b: usize,
    d_a: usize,
    d_b: usize,
    rng: &mut Rng,
) -> Result<Graph, GraphError> {
    if a * d_a != b * d_b {
        return Err(GraphError::InvalidParameters(format!(
            "biregular requires a*d_a == b*d_b ({a}*{d_a} != {b}*{d_b})"
        )));
    }
    if d_a > b || d_b > a {
        return Err(GraphError::InvalidParameters(format!(
            "degrees too large for simple biregular graph (d_a={d_a} > b={b} or d_b={d_b} > a={a})"
        )));
    }
    if a == 0 {
        return Ok(Graph::empty(b));
    }
    let left_template: Vec<NodeId> = (0..a).flat_map(|v| std::iter::repeat_n(v, d_a)).collect();
    let right_template: Vec<NodeId> = (0..b)
        .flat_map(|v| std::iter::repeat_n(a + v, d_b))
        .collect();
    const MAX_RESTARTS: usize = 200;
    'restart: for _ in 0..MAX_RESTARTS {
        let mut left = left_template.clone();
        let mut right = right_template.clone();
        let mut builder = GraphBuilder::new(a + b);
        while !left.is_empty() {
            let mut tries = 0usize;
            loop {
                let i = rng.index(left.len());
                let j = rng.index(right.len());
                if builder.try_add(left[i], right[j]) {
                    left.swap_remove(i);
                    right.swap_remove(j);
                    break;
                }
                tries += 1;
                if tries > 100 + 20 * left.len() {
                    continue 'restart;
                }
            }
        }
        return Ok(builder.build());
    }
    Err(GraphError::InvalidParameters(format!(
        "failed to sample simple ({d_a},{d_b})-biregular graph after {MAX_RESTARTS} restarts"
    )))
}

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs at Euclidean distance `<= radius`.
///
/// Models the sensor-network deployments that motivate node-averaged
/// complexity as an energy measure (paper §1, \[CGP20\]).
pub fn random_geometric(n: usize, radius: f64, rng: &mut Rng) -> Graph {
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.f64_unit(), rng.f64_unit())).collect();
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            if dx * dx + dy * dy <= r2 {
                b.add_edge(u, v).expect("rgg edge");
            }
        }
    }
    b.build()
}

/// Chung–Lu weight sequence for a power-law degree distribution with
/// exponent `beta`, scaled so the weights average `avg_degree`.
///
/// Node `v` gets weight proportional to `(v + 1)^(-1/(beta - 1))` — the
/// standard Chung–Lu parameterization whose expected degree sequence
/// follows a power law with exponent `beta`.
fn chung_lu_weights(n: usize, beta: f64, avg_degree: f64) -> Vec<f64> {
    assert!(beta > 2.0, "chung-lu exponent must be > 2, got {beta}");
    let exp = -1.0 / (beta - 1.0);
    let mut w: Vec<f64> = (0..n).map(|v| ((v + 1) as f64).powf(exp)).collect();
    let sum: f64 = w.iter().sum();
    if sum > 0.0 {
        let scale = avg_degree * n as f64 / sum;
        for x in &mut w {
            *x *= scale;
        }
    }
    w
}

/// Emits the Chung–Lu edge stream for `weights` into `edge`, consuming
/// `rng`. Each unordered pair `{u, v}` is an edge independently with
/// probability `min(1, w_u · w_v / Σw)`; pairs are visited once, so the
/// stream is duplicate-free by construction.
///
/// Uses the Miller–Hagberg skipping algorithm: weights are decreasing in
/// the node id, so for fixed `u` the acceptance probability only shrinks
/// as `v` grows and a geometric jump skips the expected run of rejected
/// candidates — O(n + m) expected work instead of O(n²).
fn chung_lu_emit(weights: &[f64], rng: &mut Rng, mut edge: impl FnMut(NodeId, NodeId)) {
    let n = weights.len();
    let s: f64 = weights.iter().sum();
    if s <= 0.0 {
        return;
    }
    for u in 0..n.saturating_sub(1) {
        let mut v = u + 1;
        let mut p = (weights[u] * weights[v] / s).min(1.0);
        while v < n && p > 0.0 {
            if p < 1.0 {
                let r = rng.f64_unit().max(f64::MIN_POSITIVE);
                // Geometric skip: number of consecutive rejections at
                // probability p. `as usize` saturates, and saturating_add
                // keeps the huge-skip case a clean loop exit.
                v = v.saturating_add((r.ln() / (1.0 - p).ln()) as usize);
            }
            if v < n {
                let q = (weights[u] * weights[v] / s).min(1.0);
                if q >= p || rng.f64_unit() < q / p {
                    edge(u, v);
                }
                p = q;
                v += 1;
            }
        }
    }
}

/// Chung–Lu power-law graph: `n` nodes whose expected degree sequence
/// follows a power law with exponent `beta` (> 2) and mean `avg_degree`.
///
/// The heavy-tailed regime of the paper's averaged-complexity story: a
/// few hub nodes of very high degree, a long tail of low-degree nodes.
/// Built through [`GraphBuilder::stream_edges`], so peak memory is ~1×
/// the final CSR even at 10⁷+ nodes.
pub fn powerlaw(n: usize, beta: f64, avg_degree: f64, rng: &mut Rng) -> Graph {
    let weights = chung_lu_weights(n, beta, avg_degree);
    let pass_seed = rng.next_u64();
    GraphBuilder::stream_edges(n, |sink| {
        let mut pass_rng = Rng::seed_from(pass_seed);
        chung_lu_emit(&weights, &mut pass_rng, |u, v| sink.edge(u, v));
    })
    .expect("chung-lu edges are valid and replay identically")
}

/// Barabási–Albert preferential attachment: starts from a complete graph
/// on `attach + 1` nodes, then every new node connects to `attach`
/// distinct existing nodes chosen with probability proportional to their
/// current degree (via the repeated-endpoints list).
///
/// Minimum degree is `attach` whenever `n > attach`; the oldest nodes
/// become hubs of degree Θ(√(n/i)) — the classic scale-free topology.
/// Built through [`GraphBuilder::stream_edges`].
///
/// # Panics
///
/// Panics if `attach == 0` or `n > u32::MAX as usize`.
pub fn pref_attach(n: usize, attach: usize, rng: &mut Rng) -> Graph {
    assert!(attach >= 1, "pref_attach requires attach >= 1");
    assert!(
        n <= u32::MAX as usize,
        "pref_attach node ids must fit in u32"
    );
    let pass_seed = rng.next_u64();
    GraphBuilder::stream_edges(n, |sink| {
        let mut pass_rng = Rng::seed_from(pass_seed);
        let n0 = n.min(attach + 1);
        let clique_edges = n0 * n0.saturating_sub(1) / 2;
        let mut reps: Vec<u32> = Vec::with_capacity(2 * (clique_edges + attach * (n - n0)));
        for u in 0..n0 {
            for v in (u + 1)..n0 {
                sink.edge(u, v);
                reps.push(u as u32);
                reps.push(v as u32);
            }
        }
        let mut targets: Vec<u32> = Vec::with_capacity(attach);
        for v in n0..n {
            targets.clear();
            while targets.len() < attach {
                let t = reps[pass_rng.index(reps.len())];
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for &t in &targets {
                sink.edge(t as usize, v);
                reps.push(t);
                reps.push(v as u32);
            }
        }
    })
    .expect("pref-attach edges are valid and replay identically")
}

/// R-MAT graph on `2^scale` nodes from `edges_target` recursive-quadrant
/// samples with the classic Graph500 split (a, b, c, d) =
/// (0.57, 0.19, 0.19, 0.05).
///
/// Self-loops are dropped and duplicate samples collapsed (sort + dedup),
/// so the realized edge count is somewhat below `edges_target` — the
/// usual R-MAT behaviour. Node ids are assigned by the bit-recursive
/// quadrant descent, which concentrates edges on low-id nodes.
///
/// # Panics
///
/// Panics if `scale > 31` (ids must fit in u32).
pub fn rmat(scale: u32, edges_target: usize, rng: &mut Rng) -> Graph {
    assert!(scale <= 31, "rmat scale must be <= 31, got {scale}");
    const A: f64 = 0.57;
    const B: f64 = 0.19;
    const C: f64 = 0.19;
    let n = 1usize << scale;
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges_target);
    for _ in 0..edges_target {
        let mut u = 0u32;
        let mut v = 0u32;
        for bit in (0..scale).rev() {
            let r = rng.f64_unit();
            let (bu, bv) = if r < A {
                (0, 0)
            } else if r < A + B {
                (0, 1)
            } else if r < A + B + C {
                (1, 0)
            } else {
                (1, 1)
            };
            u |= bu << bit;
            v |= bv << bit;
        }
        if u == v {
            continue;
        }
        pairs.push(if u < v { (u, v) } else { (v, u) });
    }
    pairs.sort_unstable();
    pairs.dedup();
    GraphBuilder::stream_edges(n, |sink| {
        for &(u, v) in &pairs {
            sink.edge(u as usize, v as usize);
        }
    })
    .expect("deduplicated rmat edges are valid")
}

/// The Petersen graph (3-regular, girth 5) — a handy fixed test instance
/// with minimum degree 3 for sinkless-orientation tests.
pub fn petersen() -> Graph {
    let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
    let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
    let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
    let edges: Vec<(NodeId, NodeId)> = outer
        .iter()
        .chain(spokes.iter())
        .chain(inner.iter())
        .copied()
        .collect();
    Graph::from_edges(10, &edges).expect("Petersen is simple")
}

// ---------------------------------------------------------------------------
// The string-keyed generator registry (DESIGN.md §6).
// ---------------------------------------------------------------------------

/// A named, seedable graph family — one entry of the generator
/// [`registry`].
///
/// Entries mirror the algorithm registry of `localavg-core`: sweep drivers
/// reference families through stable string keys (`"regular/3"`,
/// `"gnp/0.05"`, `"tree/random"`, …) instead of calling the typed
/// generator functions directly. Every family maps a *target size* `n` and
/// a seed to a concrete graph; families with structural size constraints
/// (regular parity, hypercube powers of two, near-square grids) round the
/// target to the nearest legal size deterministically, so the realized
/// node count is a pure function of `(key, n)`.
#[derive(Clone, Copy)]
pub struct NamedGenerator {
    name: &'static str,
    description: &'static str,
    min_degree_of: fn(usize) -> usize,
    build_fn: fn(usize, u64) -> Result<Graph, GraphError>,
    is_tree: bool,
}

impl NamedGenerator {
    /// Declares a named family. Public so downstream crates can
    /// contribute entries (the lower-bound hard instances of
    /// `localavg-lowerbound` cannot live here without a dependency
    /// cycle); compose them with [`GenRegistry::from_entries`]. Families
    /// whose every instance is a tree or forest additionally call
    /// [`NamedGenerator::tree`].
    pub fn new(
        name: &'static str,
        description: &'static str,
        min_degree_of: fn(usize) -> usize,
        build_fn: fn(usize, u64) -> Result<Graph, GraphError>,
    ) -> NamedGenerator {
        NamedGenerator {
            name,
            description,
            min_degree_of,
            build_fn,
            is_tree: false,
        }
    }

    /// Marks this family as guaranteed acyclic: every instance, at every
    /// size and seed, is a tree or forest. This is the static domain
    /// guarantee the sweep and fuzz drivers use to pair `*/tree-rc`
    /// algorithms only with inputs their [`crate::decomp`] layer accepts
    /// — the tree-shaped counterpart of [`NamedGenerator::min_degree`].
    pub fn tree(mut self) -> NamedGenerator {
        self.is_tree = true;
        self
    }

    /// Stable registry key, e.g. `"regular/3"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line human-readable description (used by
    /// `exp sweep --list-generators`).
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Minimum degree every instance of target size `n` is guaranteed to
    /// have — the static domain filter sweep drivers use to decide whether
    /// an algorithm (e.g. sinkless orientation, min degree 3) can run on
    /// this family without building the graph first.
    pub fn min_degree(&self, n: usize) -> usize {
        (self.min_degree_of)(n)
    }

    /// Whether every instance of this family is guaranteed to be a tree
    /// or forest (see [`NamedGenerator::tree`]).
    pub fn is_tree(&self) -> bool {
        self.is_tree
    }

    /// Builds an instance of target size `n` from `seed`.
    ///
    /// Deterministic: the result is a pure function of `(key, n, seed)` on
    /// every platform (the randomized families draw from
    /// [`Rng::seed_from`]`(seed)`).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] when `n` exceeds [`MAX_NODES`]
    /// (node ids are `u32`), checked before the family's build function
    /// runs; otherwise propagates the underlying generator's error for
    /// degenerate targets (e.g. regular sampling failures).
    pub fn build(&self, n: usize, seed: u64) -> Result<Graph, GraphError> {
        if n > MAX_NODES {
            return Err(GraphError::InvalidParameters(format!(
                "{}: n = {n} exceeds the {MAX_NODES}-node limit (node ids are u32)",
                self.name
            )));
        }
        (self.build_fn)(n, seed)
    }
}

/// The string-keyed catalog of named graph families.
pub struct GenRegistry {
    entries: Vec<NamedGenerator>,
}

impl GenRegistry {
    /// Builds a registry from explicit entries — how downstream crates
    /// compose the base families here with their own contributions (e.g.
    /// the `lb/*` hard instances of `localavg-lowerbound`).
    ///
    /// # Panics
    ///
    /// Panics on duplicate keys: two families answering to one name would
    /// make sweep results ambiguous.
    pub fn from_entries(entries: Vec<NamedGenerator>) -> GenRegistry {
        let mut keys: Vec<&str> = entries.iter().map(|g| g.name).collect();
        keys.sort_unstable();
        for w in keys.windows(2) {
            assert_ne!(w[0], w[1], "duplicate generator key `{}`", w[0]);
        }
        GenRegistry { entries }
    }

    /// Looks a family up by its registry key.
    pub fn get(&self, name: &str) -> Option<&NamedGenerator> {
        self.entries.iter().find(|g| g.name == name)
    }

    /// The registered key closest to `name` by edit distance — the same
    /// "did you mean …" policy as the algorithm registry (see
    /// [`crate::suggest::closest_match`]).
    pub fn suggest(&self, name: &str) -> Option<&'static str> {
        crate::suggest::closest_match(self.names(), name)
    }

    /// All registered families, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &NamedGenerator> + '_ {
        self.entries.iter()
    }

    /// All registry keys, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|g| g.name)
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty (it never is).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn md_zero(_n: usize) -> usize {
    0
}

fn md_cycle(_n: usize) -> usize {
    2
}

fn md_tree(n: usize) -> usize {
    usize::from(n >= 2)
}

fn md_grid(n: usize) -> usize {
    // isqrt(n) >= 2 and the column count >= 2 once n >= 4.
    if n >= 4 {
        2
    } else {
        0
    }
}

fn md_regular<const D: usize>(_n: usize) -> usize {
    D
}

fn md_hypercube(n: usize) -> usize {
    n.max(2).ilog2() as usize
}

fn build_path(n: usize, _seed: u64) -> Result<Graph, GraphError> {
    Ok(path(n))
}

fn build_cycle(n: usize, _seed: u64) -> Result<Graph, GraphError> {
    Ok(cycle(n.max(3)))
}

fn build_grid(n: usize, _seed: u64) -> Result<Graph, GraphError> {
    let rows = n.max(1).isqrt().max(1);
    let cols = n.max(1).div_ceil(rows);
    Ok(grid(rows, cols))
}

fn build_hypercube(n: usize, _seed: u64) -> Result<Graph, GraphError> {
    Ok(hypercube(n.max(2).ilog2()))
}

fn build_tree_random(n: usize, seed: u64) -> Result<Graph, GraphError> {
    Ok(random_tree(n.max(1), &mut Rng::seed_from(seed)))
}

fn build_tree_binary(n: usize, _seed: u64) -> Result<Graph, GraphError> {
    Ok(binary_tree(n.max(1)))
}

fn build_tree_bounded<const D: usize>(n: usize, seed: u64) -> Result<Graph, GraphError> {
    Ok(bounded_random_tree(n.max(1), D, &mut Rng::seed_from(seed)))
}

fn build_tree_caterpillar(n: usize, _seed: u64) -> Result<Graph, GraphError> {
    // Spine carries 3 legs per node: realized size 4·spine ≈ n.
    let spine = (n / 4).max(1);
    Ok(caterpillar(spine, 3))
}

fn build_tree_spider(n: usize, _seed: u64) -> Result<Graph, GraphError> {
    // Near-balanced shape: ~√n legs of ~√n nodes each.
    let n = n.max(5);
    let legs = (n - 1).isqrt().max(2);
    let len = ((n - 1) / legs).max(1);
    Ok(spider(legs, len))
}

fn build_regular<const D: usize>(n: usize, seed: u64) -> Result<Graph, GraphError> {
    let n = n.max(D + 1);
    let n = if (n * D) % 2 == 1 { n + 1 } else { n };
    random_regular(n, D, &mut Rng::seed_from(seed))
}

fn build_gnp_001(n: usize, seed: u64) -> Result<Graph, GraphError> {
    Ok(gnp(n, 0.01, &mut Rng::seed_from(seed)))
}

fn build_gnp_005(n: usize, seed: u64) -> Result<Graph, GraphError> {
    Ok(gnp(n, 0.05, &mut Rng::seed_from(seed)))
}

fn build_gnp_deg8(n: usize, seed: u64) -> Result<Graph, GraphError> {
    let p = 8.0 / n.max(9) as f64;
    Ok(gnp(n, p, &mut Rng::seed_from(seed)))
}

fn md_pref_attach(n: usize) -> usize {
    // Builds round the target up to 5 nodes, so every node has at least
    // the 4 attachment edges (the seed clique K_5 is 4-regular).
    let _ = n;
    4
}

/// `B10` is the power-law exponent × 10 (const generics take no floats).
fn build_powerlaw<const B10: usize>(n: usize, seed: u64) -> Result<Graph, GraphError> {
    Ok(powerlaw(
        n,
        B10 as f64 / 10.0,
        8.0,
        &mut Rng::seed_from(seed),
    ))
}

fn build_pref_attach(n: usize, seed: u64) -> Result<Graph, GraphError> {
    Ok(pref_attach(n.max(5), 4, &mut Rng::seed_from(seed)))
}

fn build_rmat(n: usize, seed: u64) -> Result<Graph, GraphError> {
    let scale = n.max(2).ilog2();
    // Average degree ~16 before dedup: m_target = 8 · 2^scale.
    Ok(rmat(scale, 8usize << scale, &mut Rng::seed_from(seed)))
}

/// The global registry of named graph families.
///
/// Keys follow `family[/variant]`:
///
/// | key | family | size rounding |
/// |---|---|---|
/// | `path` | path `P_n` | exact |
/// | `cycle` | cycle `C_n` | `max(n, 3)` |
/// | `grid` | near-square grid | `isqrt(n) × ceil(n/isqrt(n))` |
/// | `hypercube` | hypercube `Q_d` | largest `2^d <= n` |
/// | `tree/random` | uniform labelled tree (Prüfer) | exact |
/// | `tree/binary` | complete binary tree | exact |
/// | `tree/bounded/3` `tree/bounded/8` | random degree-bounded tree | exact |
/// | `tree/caterpillar` | spine with 3 leaves per node | `4 · max(n/4, 1)` |
/// | `tree/spider` | ~√n legs of ~√n nodes | `1 + legs·len` |
/// | `regular/3` `regular/4` `regular/8` `regular/16` | random d-regular | parity-adjusted |
/// | `gnp/0.01` `gnp/0.05` | Erdős–Rényi `G(n, p)` | exact |
/// | `gnp/deg8` | `G(n, 8/n)` — constant average degree | exact |
/// | `powerlaw/2.1` `powerlaw/2.5` | Chung–Lu power law, mean degree ~8 | exact |
/// | `pref-attach/4` | Barabási–Albert, 4 edges per new node | `max(n, 5)` |
/// | `rmat/16` | R-MAT (0.57/0.19/0.19/0.05), ~16 avg degree | largest `2^d <= n` |
pub fn registry() -> &'static GenRegistry {
    static REGISTRY: std::sync::OnceLock<GenRegistry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| GenRegistry {
        entries: vec![
            NamedGenerator {
                name: "path",
                description: "path P_n",
                min_degree_of: md_zero,
                build_fn: build_path,
                is_tree: true,
            },
            NamedGenerator {
                name: "cycle",
                description: "cycle C_n (n rounded up to 3)",
                min_degree_of: md_cycle,
                build_fn: build_cycle,
                is_tree: false,
            },
            NamedGenerator {
                name: "grid",
                description: "near-square grid of ~n nodes",
                min_degree_of: md_grid,
                build_fn: build_grid,
                is_tree: false,
            },
            NamedGenerator {
                name: "hypercube",
                description: "hypercube Q_d on the largest 2^d <= n nodes",
                min_degree_of: md_hypercube,
                build_fn: build_hypercube,
                is_tree: false,
            },
            NamedGenerator {
                name: "tree/random",
                description: "uniform random labelled tree (Prüfer)",
                min_degree_of: md_tree,
                build_fn: build_tree_random,
                is_tree: true,
            },
            NamedGenerator {
                name: "tree/binary",
                description: "complete binary tree",
                min_degree_of: md_tree,
                build_fn: build_tree_binary,
                is_tree: true,
            },
            NamedGenerator {
                name: "tree/bounded/3",
                description: "random tree with maximum degree 3 (random attachment)",
                min_degree_of: md_tree,
                build_fn: build_tree_bounded::<3>,
                is_tree: true,
            },
            NamedGenerator {
                name: "tree/bounded/8",
                description: "random tree with maximum degree 8 (random attachment)",
                min_degree_of: md_tree,
                build_fn: build_tree_bounded::<8>,
                is_tree: true,
            },
            NamedGenerator {
                name: "tree/caterpillar",
                description: "caterpillar: ~n/4 spine nodes with 3 pendant leaves each",
                min_degree_of: md_tree,
                build_fn: build_tree_caterpillar,
                is_tree: true,
            },
            NamedGenerator {
                name: "tree/spider",
                description: "spider: ~sqrt(n) legs of ~sqrt(n) nodes on a central hub",
                min_degree_of: md_tree,
                build_fn: build_tree_spider,
                is_tree: true,
            },
            NamedGenerator {
                name: "regular/3",
                description: "random 3-regular graph (parity-adjusted n)",
                min_degree_of: md_regular::<3>,
                build_fn: build_regular::<3>,
                is_tree: false,
            },
            NamedGenerator {
                name: "regular/4",
                description: "random 4-regular graph",
                min_degree_of: md_regular::<4>,
                build_fn: build_regular::<4>,
                is_tree: false,
            },
            NamedGenerator {
                name: "regular/8",
                description: "random 8-regular graph",
                min_degree_of: md_regular::<8>,
                build_fn: build_regular::<8>,
                is_tree: false,
            },
            NamedGenerator {
                name: "regular/16",
                description: "random 16-regular graph",
                min_degree_of: md_regular::<16>,
                build_fn: build_regular::<16>,
                is_tree: false,
            },
            NamedGenerator {
                name: "gnp/0.01",
                description: "Erdős–Rényi G(n, 0.01)",
                min_degree_of: md_zero,
                build_fn: build_gnp_001,
                is_tree: false,
            },
            NamedGenerator {
                name: "gnp/0.05",
                description: "Erdős–Rényi G(n, 0.05)",
                min_degree_of: md_zero,
                build_fn: build_gnp_005,
                is_tree: false,
            },
            NamedGenerator {
                name: "gnp/deg8",
                description: "Erdős–Rényi G(n, 8/n), constant average degree",
                min_degree_of: md_zero,
                build_fn: build_gnp_deg8,
                is_tree: false,
            },
            NamedGenerator {
                name: "powerlaw/2.1",
                description: "Chung–Lu power law, exponent 2.1, mean degree ~8",
                min_degree_of: md_zero,
                build_fn: build_powerlaw::<21>,
                is_tree: false,
            },
            NamedGenerator {
                name: "powerlaw/2.5",
                description: "Chung–Lu power law, exponent 2.5, mean degree ~8",
                min_degree_of: md_zero,
                build_fn: build_powerlaw::<25>,
                is_tree: false,
            },
            NamedGenerator {
                name: "pref-attach/4",
                description: "Barabási–Albert preferential attachment, 4 edges per node",
                min_degree_of: md_pref_attach,
                build_fn: build_pref_attach,
                is_tree: false,
            },
            NamedGenerator {
                name: "rmat/16",
                description: "R-MAT 0.57/0.19/0.19/0.05 on 2^d <= n nodes, ~16 avg degree",
                min_degree_of: md_zero,
                build_fn: build_rmat,
                is_tree: false,
            },
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn tree_flags_match_reality() {
        // Every family flagged as a tree must build forests at every
        // probed size and seed; the probe also pins the exact flagged
        // set, so a new tree family missing its `.tree()` (or a cyclic
        // family gaining one) fails here.
        let flagged: Vec<&str> = registry()
            .iter()
            .filter(|g| g.is_tree())
            .map(|g| g.name())
            .collect();
        assert_eq!(
            flagged,
            [
                "path",
                "tree/random",
                "tree/binary",
                "tree/bounded/3",
                "tree/bounded/8",
                "tree/caterpillar",
                "tree/spider",
            ]
        );
        for fam in registry().iter() {
            for n in [1usize, 2, 7, 64] {
                for seed in [0u64, 9] {
                    let g = fam.build(n, seed).expect("family builds");
                    if fam.is_tree() {
                        assert!(
                            analysis::is_forest(&g),
                            "{} claims tree but built a cycle at n={n}",
                            fam.name()
                        );
                    }
                }
            }
        }
        assert!(!registry().get("cycle").unwrap().is_tree());
        assert!(!registry().get("gnp/deg8").unwrap().is_tree());
    }

    #[test]
    fn path_and_cycle() {
        let p = path(5);
        assert_eq!(p.n(), 5);
        assert_eq!(p.m(), 4);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(2), 2);
        let c = cycle(5);
        assert!(c.degrees().all(|d| d == 2));
    }

    #[test]
    #[should_panic]
    fn tiny_cycle_panics() {
        cycle(2);
    }

    #[test]
    fn complete_graph() {
        let g = complete(6);
        assert_eq!(g.m(), 15);
        assert!(g.degrees().all(|d| d == 5));
    }

    #[test]
    fn complete_bipartite_graph() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 12);
        for u in 0..3 {
            assert_eq!(g.degree(u), 4);
        }
        for v in 3..7 {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn star_graph() {
        let g = star(6);
        assert_eq!(g.degree(0), 5);
        assert!(g.neighbor_ids(3).eq([0]));
    }

    #[test]
    fn grid_graph() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(5), 4); // interior
    }

    #[test]
    fn hypercube_graph() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert!(g.degrees().all(|d| d == 4));
        assert_eq!(g.m(), 32);
    }

    #[test]
    fn binary_tree_graph() {
        let g = binary_tree(7);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(6), 1);
        assert!(analysis::is_connected(&g));
        assert!(analysis::is_forest(&g));
    }

    #[test]
    fn caterpillar_graph() {
        let g = caterpillar(4, 2);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 + 8);
        assert!(analysis::is_forest(&g));
        assert!(analysis::is_connected(&g));
    }

    #[test]
    fn spider_structure() {
        let g = spider(4, 3);
        assert_eq!(g.n(), 13);
        assert_eq!(g.m(), 12);
        assert_eq!(g.degree(0), 4);
        assert!(analysis::is_forest(&g));
        assert!(analysis::is_connected(&g));
        // Leaf tips have degree 1, interior leg nodes degree 2.
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn bounded_random_tree_respects_cap() {
        let mut rng = Rng::seed_from(11);
        for (n, dmax) in [(1usize, 2usize), (2, 2), (50, 3), (200, 8)] {
            let g = bounded_random_tree(n, dmax, &mut rng);
            assert_eq!(g.n(), n);
            assert_eq!(g.m(), n.saturating_sub(1));
            assert!(analysis::is_connected(&g));
            assert!(analysis::is_forest(&g));
            assert!(g.max_degree() <= dmax, "n={n}, dmax={dmax}");
        }
    }

    #[test]
    fn tree_families_are_trees_at_registry_sizes() {
        for key in [
            "tree/bounded/3",
            "tree/bounded/8",
            "tree/caterpillar",
            "tree/spider",
        ] {
            let fam = registry()
                .get(key)
                .unwrap_or_else(|| panic!("missing {key}"));
            for n in [16usize, 64, 257] {
                let g = fam.build(n, 3).unwrap();
                assert!(analysis::is_connected(&g), "{key} at n={n}");
                assert!(analysis::is_forest(&g), "{key} at n={n}");
                // Size rounding stays near the target.
                assert!(
                    g.n() >= n / 2 && g.n() <= n + 4,
                    "{key}: n={} for target {n}",
                    g.n()
                );
            }
        }
        // Degree caps hold at the family level too.
        let g = registry()
            .get("tree/bounded/3")
            .unwrap()
            .build(300, 7)
            .unwrap();
        assert!(g.max_degree() <= 3);
    }

    #[test]
    fn registry_suggest_and_from_entries() {
        assert_eq!(registry().suggest("tree/spiderr"), Some("tree/spider"));
        assert_eq!(registry().suggest("regullar/4"), Some("regular/4"));
        assert_eq!(registry().suggest("qqqqqq"), None);
        let composed = GenRegistry::from_entries(vec![
            NamedGenerator::new("path", "path", md_zero, build_path),
            NamedGenerator::new("x/y", "custom", md_zero, build_path),
        ]);
        assert_eq!(composed.len(), 2);
        assert!(composed.get("x/y").is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate generator key")]
    fn from_entries_rejects_duplicates() {
        let _ = GenRegistry::from_entries(vec![
            NamedGenerator::new("path", "path", md_zero, build_path),
            NamedGenerator::new("path", "again", md_zero, build_path),
        ]);
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = Rng::seed_from(5);
        for n in [1usize, 2, 3, 10, 64] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.n(), n);
            assert_eq!(g.m(), n.saturating_sub(1));
            assert!(analysis::is_connected(&g));
            assert!(analysis::is_forest(&g));
        }
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = Rng::seed_from(1);
        assert_eq!(gnp(10, 0.0, &mut rng).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).m(), 45);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let mut rng = Rng::seed_from(2);
        let n = 300;
        let p = 0.05;
        let g = gnp(n, p, &mut rng);
        let expect = (n * (n - 1) / 2) as f64 * p;
        let m = g.m() as f64;
        assert!((m - expect).abs() < expect * 0.25, "m={m}, expect={expect}");
    }

    #[test]
    fn regular_graph_degrees() {
        let mut rng = Rng::seed_from(3);
        for (n, d) in [(10, 3), (40, 4), (25, 6)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            assert!(g.degrees().all(|deg| deg == d), "n={n}, d={d}");
        }
    }

    #[test]
    fn regular_graph_bad_parity() {
        let mut rng = Rng::seed_from(4);
        assert!(random_regular(5, 3, &mut rng).is_err());
        assert!(random_regular(4, 4, &mut rng).is_err());
    }

    #[test]
    fn regular_zero_degree() {
        let mut rng = Rng::seed_from(4);
        let g = random_regular(5, 0, &mut rng).unwrap();
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn biregular_degrees() {
        let mut rng = Rng::seed_from(6);
        let g = random_biregular(6, 4, 2, 3, &mut rng).unwrap();
        for u in 0..6 {
            assert_eq!(g.degree(u), 2);
        }
        for v in 6..10 {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn biregular_rejects_mismatch() {
        let mut rng = Rng::seed_from(6);
        assert!(random_biregular(3, 4, 2, 3, &mut rng).is_err());
        assert!(random_biregular(2, 4, 5, 1, &mut rng).is_err()); // d_a > b impossible
    }

    #[test]
    fn geometric_graph_monotone_in_radius() {
        let mut rng = Rng::seed_from(7);
        let sparse = random_geometric(100, 0.05, &mut rng);
        let mut rng = Rng::seed_from(7);
        let dense = random_geometric(100, 0.3, &mut rng);
        assert!(dense.m() > sparse.m());
    }

    #[test]
    fn registry_rejects_node_counts_past_u32_before_building() {
        // A 10¹² path would otherwise try to allocate 16 TB and abort the
        // process; every family answers with a typed error instead.
        for family in registry().iter() {
            for n in [MAX_NODES + 1, 1_000_000_000_000] {
                match family.build(n, 0) {
                    Err(GraphError::InvalidParameters(msg)) => {
                        assert!(msg.contains("u32"), "{}: {msg}", family.name());
                    }
                    other => panic!(
                        "{} n={n}: expected a typed error, got {other:?}",
                        family.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn registry_keys_unique_and_present() {
        let names: Vec<&str> = registry().names().collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate generator keys");
        for key in ["regular/3", "gnp/0.05", "tree/random", "grid", "hypercube"] {
            assert!(registry().get(key).is_some(), "missing {key}");
        }
        assert!(!registry().is_empty());
        assert_eq!(registry().len(), names.len());
        assert!(registry().get("no-such-family").is_none());
    }

    #[test]
    fn registry_builds_are_deterministic() {
        for g in registry().iter() {
            let a = g.build(70, 5).unwrap();
            let b = g.build(70, 5).unwrap();
            assert_eq!(a.n(), b.n(), "{} node count unstable", g.name());
            let ea: Vec<_> = a.edges().collect();
            let eb: Vec<_> = b.edges().collect();
            assert_eq!(ea, eb, "{} edges unstable", g.name());
        }
    }

    #[test]
    fn registry_min_degree_guarantees_hold() {
        for g in registry().iter() {
            for n in [32usize, 100] {
                let built = g.build(n, 9).unwrap();
                assert!(
                    built.min_degree() >= g.min_degree(n),
                    "{} at n={n}: realized min degree {} below declared {}",
                    g.name(),
                    built.min_degree(),
                    g.min_degree(n)
                );
            }
        }
    }

    #[test]
    fn registry_size_rounding() {
        let r = registry();
        assert_eq!(r.get("hypercube").unwrap().build(100, 0).unwrap().n(), 64);
        assert_eq!(r.get("path").unwrap().build(17, 0).unwrap().n(), 17);
        // 3-regular needs even n*d: 33*3 is odd, so the target is bumped.
        let g = r.get("regular/3").unwrap().build(33, 1).unwrap();
        assert_eq!(g.n(), 34);
        assert!(g.degrees().all(|d| d == 3));
        // Grid lands near the target on a near-square shape.
        let g = r.get("grid").unwrap().build(128, 0).unwrap();
        assert!(g.n() >= 128 && g.n() <= 140, "grid n={}", g.n());
    }

    #[test]
    fn powerlaw_degree_sequence_is_heavy_tailed() {
        let mut rng = Rng::seed_from(8);
        let g = powerlaw(2000, 2.1, 8.0, &mut rng);
        assert_eq!(g.n(), 2000);
        // Mean degree lands near the target (capping pulls it below 8).
        let mean = g.degree_sum() as f64 / g.n() as f64;
        assert!((2.0..=9.0).contains(&mean), "mean degree {mean}");
        // Hubs exist: max degree far above the mean.
        assert!(
            g.max_degree() as f64 > 4.0 * mean,
            "max {} vs mean {mean}",
            g.max_degree()
        );
        // Early (high-weight) nodes dominate late ones on average.
        let head: usize = (0..20).map(|v| g.degree(v)).sum();
        let tail: usize = (1980..2000).map(|v| g.degree(v)).sum();
        assert!(head > 4 * tail.max(1), "head {head} vs tail {tail}");
    }

    #[test]
    fn powerlaw_steeper_exponent_thins_the_tail() {
        let flat = powerlaw(1500, 2.1, 8.0, &mut Rng::seed_from(3));
        let steep = powerlaw(1500, 2.5, 8.0, &mut Rng::seed_from(3));
        // A steeper exponent concentrates less weight in the hubs.
        assert!(steep.max_degree() < flat.max_degree());
    }

    #[test]
    fn pref_attach_min_degree_and_hubs() {
        let mut rng = Rng::seed_from(9);
        let g = pref_attach(500, 4, &mut rng);
        assert_eq!(g.n(), 500);
        assert_eq!(g.m(), 10 + 4 * 495); // K_5 + 4 per later node
        assert!(g.min_degree() >= 4);
        assert!(g.max_degree() >= 20, "max {}", g.max_degree());
        assert!(analysis::is_connected(&g));
    }

    #[test]
    fn pref_attach_tiny_sizes() {
        let mut rng = Rng::seed_from(1);
        let g = pref_attach(1, 4, &mut rng);
        assert_eq!((g.n(), g.m()), (1, 0));
        let g = pref_attach(3, 4, &mut rng);
        assert_eq!((g.n(), g.m()), (3, 3)); // clamped seed clique K_3
        let g = pref_attach(5, 4, &mut rng);
        assert_eq!((g.n(), g.m()), (5, 10)); // exactly the K_5 seed
    }

    #[test]
    fn rmat_shape_and_determinism() {
        let g = rmat(10, 4096, &mut Rng::seed_from(6));
        assert_eq!(g.n(), 1024);
        // Dedup and self-loop drops shrink the target somewhat.
        assert!(g.m() > 2048 && g.m() <= 4096, "m={}", g.m());
        // Quadrant skew concentrates edges on low ids.
        let low: usize = (0..128).map(|v| g.degree(v)).sum();
        assert!(low * 2 > g.degree_sum() / 2, "low-id mass {low}");
        let h = rmat(10, 4096, &mut Rng::seed_from(6));
        assert_eq!(g, h);
    }

    #[test]
    fn heavy_tailed_registry_families_present() {
        for key in ["powerlaw/2.1", "powerlaw/2.5", "pref-attach/4", "rmat/16"] {
            let fam = registry()
                .get(key)
                .unwrap_or_else(|| panic!("missing {key}"));
            let g = fam.build(256, 2).unwrap();
            assert!(
                g.min_degree() >= fam.min_degree(256),
                "{key}: min degree {} below declared {}",
                g.min_degree(),
                fam.min_degree(256)
            );
        }
        // rmat rounds down to a power of two; pref-attach rounds up to 5.
        let r = registry();
        assert_eq!(r.get("rmat/16").unwrap().build(100, 0).unwrap().n(), 64);
        assert_eq!(r.get("pref-attach/4").unwrap().build(2, 0).unwrap().n(), 5);
    }

    #[test]
    fn petersen_structure() {
        let g = petersen();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 15);
        assert!(g.degrees().all(|d| d == 3));
        assert_eq!(analysis::girth(&g), Some(5));
    }
}
