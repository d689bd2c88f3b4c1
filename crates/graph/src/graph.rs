//! The core undirected simple-graph data structure (immutable CSR).
//!
//! The LOCAL model (paper §2) works on an undirected graph `G = (V, E)`
//! where nodes exchange messages over edges. Two representation details
//! matter for a faithful simulation:
//!
//! * **Ports.** A node of degree `d` addresses its neighbors through ports
//!   `0..d`; [`Graph::neighbors`] yields neighbors in port order, and the
//!   port order is a stable function of edge insertion order, so the
//!   simulator's behaviour is deterministic.
//! * **Edge identifiers.** The paper's edge-averaged complexity
//!   (Definition 1) assigns a completion time to every *edge*; stable
//!   [`EdgeId`]s let the simulator keep a per-edge commit ledger and let
//!   algorithms output edge labellings (matchings, orientations).
//!
//! # Representation
//!
//! [`Graph`] is **frozen**: it is produced by a [`GraphBuilder`] (or the
//! [`Graph::from_edges`] convenience) and never mutated afterwards. The
//! adjacency lives in compressed-sparse-row (CSR) form — one flat
//! `(neighbor, edge)` array indexed by per-node offsets — so the
//! simulator's hot loops walk contiguous memory instead of chasing one
//! heap allocation per node.
//!
//! The arrays are the `localavg-csr/v1` layout ([`crate::io`]): arcs,
//! edge endpoints and the edge-port table are `(u32, u32)` pairs, and
//! only the per-node offsets are word-sized. [`NodeId`] and [`EdgeId`]
//! stay `usize` in the API — accessors widen on read — and
//! [`MAX_NODES`] bounds `n` so every id fits. A resident graph costs
//! `8(n + 1) + 40m` bytes ([`Graph::memory_bytes`]), exactly its file
//! minus the 40 bytes of magic, header and footer.
//!
//! Two flat side tables are precomputed at build time for the round
//! engine's message routing:
//!
//! * the **edge-port table** ([`Graph::edge_ports`]): for edge
//!   `e = {u, v}` with `u < v`, the port of `e` at `u` and at `v`;
//! * the **reverse-arc table** ([`Graph::rev_arc`]): for every directed
//!   *arc* (a `(node, port)` pair, globally indexed by
//!   `csr_offset(node) + port`), the global index of the same edge's arc
//!   at the other endpoint. It is an involution on `0..2m`, and it is
//!   exactly the lookup a message delivery needs: the round engine's
//!   inbox pull reads a sender's outbox slot at `rev_arc(receiver arc)`
//!   with one load instead of `csr_offset(sender) + port`. The
//!   receiver-side port ([`Graph::rev_port`]) is derived from it.

use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

/// Index of a node; nodes are always `0..n`.
pub type NodeId = usize;

/// Index of an undirected edge; edges are `0..m` in insertion order.
pub type EdgeId = usize;

/// The largest node count a [`Graph`] holds: node ids are stored as
/// `u32` (the `localavg-csr/v1` width), so `n <= u32::MAX`.
pub const MAX_NODES: usize = u32::MAX as usize;

/// Widens a stored `u32` pair to the public id types.
#[inline]
fn wide((a, b): (u32, u32)) -> (usize, usize) {
    (a as usize, b as usize)
}

/// Panics unless a graph with `n` nodes and `m` edges fits the `u32`
/// tables: node ids below `n <= MAX_NODES`, arc indices below
/// `2m < u32::MAX`. Every narrowing cast in this module relies on it.
fn assert_u32_sized(n: usize, m: usize) {
    assert!(
        n <= MAX_NODES,
        "graph has {n} nodes; node ids are u32 (at most {MAX_NODES} nodes)"
    );
    assert!(
        m < u32::MAX as usize / 2,
        "graph has {m} edges; arc indices are u32"
    );
}

/// Errors produced when constructing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// A self-loop `{v, v}` was inserted; the paper's graphs are simple.
    SelfLoop(NodeId),
    /// The same undirected edge was inserted twice.
    DuplicateEdge(NodeId, NodeId),
    /// A generator was asked for an impossible parameter combination
    /// (for example an odd number of odd-degree nodes).
    InvalidParameters(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v} (graphs are simple)"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge {{{u}, {v}}}"),
            GraphError::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable undirected simple graph in CSR form, with stable edge ids
/// and port numbering.
///
/// Construction goes through [`GraphBuilder`] (incremental) or
/// [`Graph::from_edges`] (one shot); see the [module docs](self) for the
/// layout. All read accessors are cheap slice/offset arithmetic; ids are
/// stored as `u32` and widened to [`NodeId`]/[`EdgeId`] on read.
///
/// # Example
///
/// ```
/// use localavg_graph::GraphBuilder;
///
/// # fn main() -> Result<(), localavg_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// let e01 = b.add_edge(0, 1)?;
/// let e12 = b.add_edge(1, 2)?;
/// let g = b.build();
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.endpoints(e01), (0, 1));
/// assert_eq!(g.other_endpoint(e12, 2), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Graph {
    /// CSR offsets: node `v`'s ports occupy `nbrs[offsets[v]..offsets[v+1]]`.
    offsets: Vec<usize>,
    /// Flat adjacency: `(neighbor, edge id)` per arc, in port order.
    nbrs: Vec<(u32, u32)>,
    /// Edge-endpoint table: `edges[e] = (u, v)` with `u < v`.
    edges: Vec<(u32, u32)>,
    /// Edge-port table: `edge_ports[e] = (port at u, port at v)`.
    edge_ports: Vec<(u32, u32)>,
    /// Reverse-arc table: the global arc index of the same edge at the
    /// *other* endpoint (an involution; arc indices fit in u32 because
    /// `2m < u32::MAX`).
    rev_arcs: Vec<u32>,
    /// Lazily-built cache for [`Graph::sorted_port_order`]; `Some(None)`
    /// once computed on an already-sorted adjacency. Excluded from
    /// equality: it is a pure function of the fields above.
    sorted_order: OnceLock<Option<Vec<u32>>>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.nbrs == other.nbrs
            && self.edges == other.edges
            && self.edge_ports == other.edge_ports
            && self.rev_arcs == other.rev_arcs
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::empty(0)
    }
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_NODES`.
    pub fn empty(n: usize) -> Self {
        assert_u32_sized(n, 0);
        Graph {
            offsets: vec![0; n + 1],
            nbrs: Vec::new(),
            edges: Vec::new(),
            edge_ports: Vec::new(),
            rev_arcs: Vec::new(),
            sorted_order: OnceLock::new(),
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints, self-loops, or duplicate
    /// edges.
    ///
    /// # Example
    ///
    /// ```
    /// use localavg_graph::Graph;
    /// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
    /// assert_eq!(g.m(), 4);
    /// # Ok::<(), localavg_graph::GraphError>(())
    /// ```
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::with_edge_capacity(n, edges.len());
        let mut seen = HashSet::with_capacity(edges.len());
        for &(u, v) in edges {
            let key = if u < v { (u, v) } else { (v, u) };
            if !seen.insert(key) {
                return Err(GraphError::DuplicateEdge(u, v));
            }
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The CSR offset of node `v`: its ports are the arcs
    /// `csr_offset(v) .. csr_offset(v) + degree(v)` (see [`Graph::arc`]).
    ///
    /// # Panics
    ///
    /// Panics if `v > n`.
    #[inline]
    pub fn csr_offset(&self, v: NodeId) -> usize {
        self.offsets[v]
    }

    /// The global arc-index range of node `v`'s ports.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn arc_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v]..self.offsets[v + 1]
    }

    /// The `(neighbor, edge id)` of global arc `a` — port
    /// `a - csr_offset(v)` of the node `v` whose [`Graph::arc_range`]
    /// holds `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= 2m`.
    #[inline]
    pub fn arc(&self, a: usize) -> (NodeId, EdgeId) {
        wide(self.nbrs[a])
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Iterator over all node degrees, in node order.
    pub fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }

    /// Maximum degree Δ (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.degrees().max().unwrap_or(0)
    }

    /// Minimum degree (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.degrees().min().unwrap_or(0)
    }

    /// Neighbors of `v` as `(neighbor, edge id)` pairs, in port order —
    /// a walk over a contiguous range of the CSR arc array. The iterator
    /// knows its length (the degree), runs backwards, and is cheap to
    /// clone; `neighbors(v).nth(p) == Some(neighbor(v, p))`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(
        &self,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = (NodeId, EdgeId)> + DoubleEndedIterator + Clone + '_ {
        self.nbrs[self.arc_range(v)].iter().copied().map(wide)
    }

    /// The `(neighbor, edge id)` behind port `port` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` or `port >= degree(v)`.
    #[inline]
    pub fn neighbor(&self, v: NodeId, port: usize) -> (NodeId, EdgeId) {
        wide(self.nbrs[self.arc_range(v)][port])
    }

    /// Iterator over just the neighbor ids of `v`, in port order.
    pub fn neighbor_ids(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(v).map(|(u, _)| u)
    }

    /// Endpoints `(u, v)` of edge `e`, with `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        wide(self.edges[e])
    }

    /// The ports of edge `e` at its two endpoints, in
    /// [`Graph::endpoints`] order.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn edge_ports(&self, e: EdgeId) -> (usize, usize) {
        let (pu, pv) = self.edge_ports[e];
        (pu as usize, pv as usize)
    }

    /// For the arc `csr_offset(v) + port`, the global index of the same
    /// edge's arc at the other endpoint `u` — the slot `u` writes when it
    /// sends to `v`. `rev_arc(rev_arc(a)) == a`.
    ///
    /// # Panics
    ///
    /// Panics if `arc >= 2m`.
    #[inline]
    pub fn rev_arc(&self, arc: usize) -> usize {
        self.rev_arcs[arc] as usize
    }

    /// For the arc `csr_offset(v) + port`, the port of the same edge at
    /// the other endpoint — the receiver-side port of a message sent by
    /// `v` over `port`. Derived: `rev_arc(arc) - csr_offset(neighbor)`.
    ///
    /// # Panics
    ///
    /// Panics if `arc >= 2m`.
    #[inline]
    pub fn rev_port(&self, arc: usize) -> usize {
        self.rev_arc(arc) - self.offsets[self.nbrs[arc].0 as usize]
    }

    /// The endpoint of `e` that is not `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        if v == a {
            b
        } else {
            assert_eq!(v, b, "node {v} is not an endpoint of edge {e}");
            a
        }
    }

    /// Iterator over `(edge id, u, v)` for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e, u as usize, v as usize))
    }

    /// Returns the id of edge `{u, v}` if present (O(min degree) scan).
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u >= self.n() || v >= self.n() {
            return None;
        }
        let (scan, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(scan)
            .find(|&(w, _)| w == target)
            .map(|(_, e)| e)
    }

    /// Whether edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.n()
    }

    /// Sum of all degrees (= 2m); used as a cheap sanity invariant.
    pub fn degree_sum(&self) -> usize {
        self.nbrs.len()
    }

    /// Heap footprint of the CSR arrays in bytes — the resident cost of
    /// keeping this instance loaded (offsets, arcs, edge endpoints, the
    /// edge-port and reverse-arc tables; the lazily-built sort cache is
    /// excluded, like in equality). On a 64-bit target this is
    /// `8(n + 1) + 40m`: the graph's `localavg-csr/v1` file size minus
    /// its 40 bytes of magic, header and footer.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.len() * size_of::<usize>()
            + self.nbrs.len() * size_of::<(u32, u32)>()
            + self.edges.len() * size_of::<(u32, u32)>()
            + self.edge_ports.len() * size_of::<(u32, u32)>()
            + self.rev_arcs.len() * size_of::<u32>()
    }

    /// Borrows the four CSR arrays the `localavg-csr/v1` writer
    /// serializes verbatim, in declaration order (see [`crate::io`]); the
    /// file's reverse-port section is derived through [`Graph::rev_port`].
    #[allow(clippy::type_complexity)]
    pub(crate) fn raw_parts(&self) -> (&[usize], &[(u32, u32)], &[(u32, u32)], &[(u32, u32)]) {
        (&self.offsets, &self.nbrs, &self.edges, &self.edge_ports)
    }

    /// Reassembles a graph from its raw CSR arrays. The caller (the
    /// `localavg-csr/v1` reader) is responsible for having validated the
    /// invariants the accessors rely on; see `crate::io::read_graph`.
    pub(crate) fn from_raw_parts(
        offsets: Vec<usize>,
        nbrs: Vec<(u32, u32)>,
        edges: Vec<(u32, u32)>,
        edge_ports: Vec<(u32, u32)>,
        rev_arcs: Vec<u32>,
    ) -> Graph {
        debug_assert_eq!(offsets.last(), Some(&nbrs.len()));
        debug_assert_eq!(nbrs.len(), 2 * edges.len());
        Graph {
            offsets,
            nbrs,
            edges,
            edge_ports,
            rev_arcs,
            sorted_order: OnceLock::new(),
        }
    }

    /// A flat permutation table visiting every node's ports in **ascending
    /// neighbor id** order, or `None` when every adjacency is already
    /// sorted (then ports `0..degree` are the sorted order and no table is
    /// needed).
    ///
    /// When present, entry `csr_offset(v) + i` is the port of `v`'s
    /// `i`-th smallest neighbor. The round engine's inbox pull walks a
    /// receiver's senders in this order so inboxes come out sorted by
    /// sender id — the ordering the `Process` contract promises —
    /// regardless of the builder's insertion-order port numbering.
    ///
    /// Computed lazily on first use and cached for the (immutable)
    /// graph's lifetime; the check-only pass on a sorted adjacency costs
    /// O(Σdeg) once and allocates nothing.
    pub fn sorted_port_order(&self) -> Option<&[u32]> {
        self.sorted_order
            .get_or_init(|| {
                let sorted = (0..self.n()).all(|v| {
                    self.nbrs[self.arc_range(v)]
                        .windows(2)
                        .all(|w| w[0].0 < w[1].0)
                });
                if sorted {
                    return None;
                }
                let mut order = vec![0u32; self.nbrs.len()];
                for v in 0..self.n() {
                    let base = self.offsets[v];
                    let nbrs = &self.nbrs[self.arc_range(v)];
                    let slot = &mut order[base..base + nbrs.len()];
                    for (i, p) in slot.iter_mut().enumerate() {
                        *p = i as u32;
                    }
                    slot.sort_unstable_by_key(|&p| nbrs[p as usize].0);
                }
                Some(order)
            })
            .as_deref()
    }
}

/// Incremental builder — the only way to construct a non-empty [`Graph`].
///
/// All mutation lives here: [`GraphBuilder::add_edge`] (unchecked-
/// duplicate, for generators that cannot produce duplicates),
/// [`GraphBuilder::try_add`] (hash-set deduplicated, what constructions
/// like the paper's cluster-tree graphs of §4.6 use while wiring groups
/// of nodes together), and [`GraphBuilder::sort_adjacency`] (canonical
/// port order). [`GraphBuilder::build`] freezes the edge list into the
/// CSR arrays; a node's port order is the insertion order of its
/// incident edges (or sorted by neighbor id after `sort_adjacency`).
///
/// # Example
///
/// ```
/// use localavg_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// assert!(b.try_add(0, 1));
/// assert!(!b.try_add(1, 0)); // duplicate: rejected, not an error
/// let g = b.build();
/// assert_eq!(g.m(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Normalized `(u, v)` with `u < v`, in insertion order (= edge id) —
    /// moved into the frozen graph as its edge-endpoint table.
    edges: Vec<(u32, u32)>,
    /// Duplicate-detection set, materialized lazily on the first
    /// [`GraphBuilder::try_add`] so plain [`GraphBuilder::add_edge`]
    /// construction pays no hashing.
    seen: Option<HashSet<(u32, u32)>>,
    sorted_ports: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_NODES`.
    pub fn new(n: usize) -> Self {
        Self::with_edge_capacity(n, 0)
    }

    /// Creates a builder with preallocated room for `m` edges.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_NODES`.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        assert_u32_sized(n, 0);
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            seen: None,
            sorted_ports: false,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Validates `{u, v}` and returns it as the stored `(min, max)` pair;
    /// the cast is lossless because `u, v < n <= MAX_NODES`.
    fn normalize(&self, u: NodeId, v: NodeId) -> Result<(u32, u32), GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        Ok((u.min(v) as u32, u.max(v) as u32))
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// This checks range and self-loops but, for performance, **not**
    /// duplicates; use [`GraphBuilder::try_add`] or
    /// [`Graph::from_edges`] when duplicate protection is needed.
    /// Duplicate insertion is caught by `debug_assert!` in debug builds.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints or self-loops.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, GraphError> {
        let key = self.normalize(u, v)?;
        #[cfg(debug_assertions)]
        {
            // Debug builds always maintain the hash set so the duplicate
            // check stays O(1) even for generators that never call
            // `try_add` (a linear scan here would make large debug-mode
            // constructions quadratic).
            let edges = &self.edges;
            let seen = self
                .seen
                .get_or_insert_with(|| edges.iter().copied().collect());
            assert!(
                seen.insert(key),
                "duplicate edge {{{u}, {v}}} inserted via add_edge"
            );
        }
        #[cfg(not(debug_assertions))]
        if let Some(seen) = &mut self.seen {
            seen.insert(key);
        }
        let id = self.edges.len();
        self.edges.push(key);
        Ok(id)
    }

    /// Adds edge `{u, v}` if it is new; returns whether it was added.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops — those indicate a
    /// bug in the calling construction rather than recoverable input.
    pub fn try_add(&mut self, u: NodeId, v: NodeId) -> bool {
        let key = self
            .normalize(u, v)
            .expect("GraphBuilder::try_add: invalid endpoint");
        let edges = &self.edges;
        let seen = self
            .seen
            .get_or_insert_with(|| edges.iter().copied().collect());
        if seen.insert(key) {
            self.edges.push(key);
            true
        } else {
            false
        }
    }

    /// Whether `{u, v}` has already been added.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        let Ok(key) = self.normalize(u, v) else {
            return false;
        };
        match &self.seen {
            Some(seen) => seen.contains(&key),
            None => self.edges.contains(&key),
        }
    }

    /// Requests canonical port order: at [`GraphBuilder::build`] every
    /// node's ports are sorted by `(neighbor id, edge id)` instead of
    /// keeping insertion order. Useful before comparing two graphs for
    /// structural equality.
    pub fn sort_adjacency(&mut self) {
        self.sorted_ports = true;
    }

    /// Freezes the builder into the CSR [`Graph`]; the edge list moves
    /// into the graph as its edge-endpoint table.
    ///
    /// # Panics
    ///
    /// Panics if the graph exceeds the `u32` tables: `n > MAX_NODES` or
    /// `2m >= u32::MAX`.
    pub fn build(self) -> Graph {
        let n = self.n;
        let m = self.edges.len();
        assert_u32_sized(n, m);
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Fill pass in edge-id order: each node's ports end up in the
        // insertion order of its incident edges.
        let mut nbrs = vec![(0u32, 0u32); 2 * m];
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            let e = e as u32;
            nbrs[cursor[u as usize]] = (v, e);
            cursor[u as usize] += 1;
            nbrs[cursor[v as usize]] = (u, e);
            cursor[v as usize] += 1;
        }
        if self.sorted_ports {
            for v in 0..n {
                nbrs[offsets[v]..offsets[v + 1]].sort_unstable();
            }
        }
        let (edge_ports, rev_arcs) = port_tables(&offsets, &nbrs, &self.edges);
        Graph {
            offsets,
            nbrs,
            edges: self.edges,
            edge_ports,
            rev_arcs,
            sorted_order: OnceLock::new(),
        }
    }

    /// Builds a graph in **two streaming passes** over an edge source,
    /// without materializing the intermediate edge list or a dedup
    /// seen-set — peak memory is ~1× the final CSR (plus an 8-byte-per-
    /// node cursor), versus ~3× for the buffer-then-[`build`] path. This
    /// is what makes 10⁷⁺-node instances fit in RAM (DESIGN.md §10).
    ///
    /// `emit` is called exactly twice with an [`EdgeSink`]; it must feed
    /// **the identical duplicate-free edge stream** both times (pass 1
    /// counts degrees, pass 2 fills the CSR arrays). Generators replay a
    /// seeded [`crate::rng::Rng`] to satisfy this for free. A stream that
    /// changes between passes is detected and reported; **duplicate
    /// edges are not detected in release builds** (that is the memory
    /// trade), so callers must guarantee a duplicate-free stream — every
    /// debug build re-checks it after the fact.
    ///
    /// [`build`]: GraphBuilder::build
    ///
    /// # Errors
    ///
    /// Returns the first validation error from the stream (out-of-range
    /// endpoint, self-loop), or [`GraphError::InvalidParameters`] when
    /// the two passes disagree.
    ///
    /// # Panics
    ///
    /// Panics if the graph exceeds the `u32` tables: `n > MAX_NODES`
    /// (checked before the first pass) or `2m >= u32::MAX`.
    ///
    /// # Example
    ///
    /// ```
    /// use localavg_graph::GraphBuilder;
    ///
    /// let g = GraphBuilder::stream_edges(4, |sink| {
    ///     for v in 1..4 {
    ///         sink.edge(v - 1, v);
    ///     }
    /// })?;
    /// assert_eq!((g.n(), g.m()), (4, 3));
    /// # Ok::<(), localavg_graph::GraphError>(())
    /// ```
    pub fn stream_edges<F>(n: usize, mut emit: F) -> Result<Graph, GraphError>
    where
        F: FnMut(&mut EdgeSink<'_>),
    {
        assert_u32_sized(n, 0);
        // Pass 1: count each endpoint's degree into offsets[v + 1].
        let mut offsets = vec![0usize; n + 1];
        let mut m = 0usize;
        let mut error = None;
        emit(&mut EdgeSink {
            n,
            error: &mut error,
            mode: SinkMode::Count {
                counts: &mut offsets,
                m: &mut m,
            },
        });
        if let Some(e) = error {
            return Err(e);
        }
        assert_u32_sized(n, m);
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Pass 2: fill the CSR arrays in edge-id (= stream) order.
        let mut nbrs = vec![(0u32, 0u32); 2 * m];
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        emit(&mut EdgeSink {
            n,
            error: &mut error,
            mode: SinkMode::Fill {
                offsets: &offsets,
                cursor: &mut cursor,
                nbrs: &mut nbrs,
                edges: &mut edges,
            },
        });
        if let Some(e) = error {
            return Err(e);
        }
        if edges.len() != m {
            return Err(GraphError::InvalidParameters(format!(
                "stream_edges pass 2 emitted {} edges, pass 1 counted {m}",
                edges.len()
            )));
        }
        #[cfg(debug_assertions)]
        for v in 0..n {
            let mut ids: Vec<u32> = nbrs[offsets[v]..offsets[v + 1]]
                .iter()
                .map(|&(u, _)| u)
                .collect();
            ids.sort_unstable();
            debug_assert!(
                ids.windows(2).all(|w| w[0] != w[1]),
                "duplicate edge in stream at node {v}"
            );
        }
        let (edge_ports, rev_arcs) = port_tables(&offsets, &nbrs, &edges);
        Ok(Graph {
            offsets,
            nbrs,
            edges,
            edge_ports,
            rev_arcs,
            sorted_order: OnceLock::new(),
        })
    }
}

/// Builds the edge-port and reverse-arc tables from finished CSR
/// adjacency — the shared tail of [`GraphBuilder::build`] and
/// [`GraphBuilder::stream_edges`]. Ports and arc indices fit in u32: both
/// are below `2m`, which the callers' size check keeps under `u32::MAX`.
fn port_tables(
    offsets: &[usize],
    nbrs: &[(u32, u32)],
    edges: &[(u32, u32)],
) -> (Vec<(u32, u32)>, Vec<u32>) {
    let n = offsets.len() - 1;
    let m = edges.len();
    let mut edge_ports = vec![(u32::MAX, u32::MAX); m];
    for v in 0..n {
        let base = offsets[v];
        for (port, &(_, e)) in nbrs[base..offsets[v + 1]].iter().enumerate() {
            let (a, _) = edges[e as usize];
            if v == a as usize {
                edge_ports[e as usize].0 = port as u32;
            } else {
                edge_ports[e as usize].1 = port as u32;
            }
        }
    }
    // Each edge's two arcs point at each other.
    let mut rev_arcs = vec![0u32; 2 * m];
    for (&(u, v), &(pu, pv)) in edges.iter().zip(&edge_ports) {
        let au = offsets[u as usize] + pu as usize;
        let av = offsets[v as usize] + pv as usize;
        rev_arcs[au] = av as u32;
        rev_arcs[av] = au as u32;
    }
    (edge_ports, rev_arcs)
}

/// The per-pass edge receiver of [`GraphBuilder::stream_edges`].
///
/// The sink validates every edge (range, self-loops) and either counts
/// degrees (pass 1) or fills the CSR arrays (pass 2); the first error is
/// latched and subsequent edges are ignored, so generator loops don't
/// need per-edge error plumbing.
pub struct EdgeSink<'a> {
    n: usize,
    error: &'a mut Option<GraphError>,
    mode: SinkMode<'a>,
}

enum SinkMode<'a> {
    Count {
        /// `counts[v + 1]` accumulates node `v`'s degree (the layout
        /// prefix-summed into CSR offsets between the passes).
        counts: &'a mut [usize],
        m: &'a mut usize,
    },
    Fill {
        offsets: &'a [usize],
        cursor: &'a mut [usize],
        nbrs: &'a mut [(u32, u32)],
        edges: &'a mut Vec<(u32, u32)>,
    },
}

impl EdgeSink<'_> {
    /// Feeds one undirected edge `{u, v}` to the current pass.
    ///
    /// Invalid edges latch an error into the enclosing
    /// [`GraphBuilder::stream_edges`] call instead of panicking; once an
    /// error is latched the remaining stream is drained without effect.
    pub fn edge(&mut self, u: NodeId, v: NodeId) {
        if self.error.is_some() {
            return;
        }
        if u >= self.n {
            *self.error = Some(GraphError::NodeOutOfRange { node: u, n: self.n });
            return;
        }
        if v >= self.n {
            *self.error = Some(GraphError::NodeOutOfRange { node: v, n: self.n });
            return;
        }
        if u == v {
            *self.error = Some(GraphError::SelfLoop(u));
            return;
        }
        match &mut self.mode {
            SinkMode::Count { counts, m } => {
                counts[u + 1] += 1;
                counts[v + 1] += 1;
                **m += 1;
            }
            SinkMode::Fill {
                offsets,
                cursor,
                nbrs,
                edges,
            } => {
                // A stream that grew between passes would overrun a
                // node's CSR region (or the edge table) — catch both.
                if edges.len() == edges.capacity()
                    || cursor[u] >= offsets[u + 1]
                    || cursor[v] >= offsets[v + 1]
                {
                    *self.error = Some(GraphError::InvalidParameters(
                        "stream_edges: edge stream changed between passes".into(),
                    ));
                    return;
                }
                // Lossless: `u, v < n <= MAX_NODES` and `e < m`, which
                // pass 1 checked against the u32 bound.
                let e = edges.len() as u32;
                edges.push((u.min(v) as u32, u.max(v) as u32));
                nbrs[cursor[u]] = (v as u32, e);
                cursor[u] += 1;
                nbrs[cursor[v]] = (u as u32, e);
                cursor[v] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.degree_sum(), 0);
        assert_eq!(Graph::default(), Graph::empty(0));
    }

    #[test]
    fn add_edges_and_query() {
        let mut b = GraphBuilder::new(4);
        let e0 = b.add_edge(0, 1).unwrap();
        let e1 = b.add_edge(2, 1).unwrap();
        assert_eq!(e0, 0);
        assert_eq!(e1, 1);
        assert_eq!((b.n(), b.m()), (4, 2));
        let g = b.build();
        assert_eq!(g.endpoints(e1), (1, 2)); // normalized u < v
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.other_endpoint(e0, 0), 1);
        assert_eq!(g.other_endpoint(e0, 1), 0);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.find_edge(1, 2), Some(e1));
        assert_eq!(g.degree_sum(), 2 * g.m());
    }

    #[test]
    fn port_order_is_insertion_order() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(1, 3).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build();
        let ports: Vec<NodeId> = g.neighbor_ids(1).collect();
        assert_eq!(ports, vec![3, 0, 2]);
    }

    #[test]
    fn sort_adjacency_normalizes_ports() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(1, 3).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(1, 2).unwrap();
        b.sort_adjacency();
        let g = b.build();
        let ports: Vec<NodeId> = g.neighbor_ids(1).collect();
        assert_eq!(ports, vec![0, 2, 3]);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.add_edge(1, 1), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(0, 5),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        ));
    }

    #[test]
    fn from_edges_rejects_duplicates() {
        let r = Graph::from_edges(3, &[(0, 1), (1, 0)]);
        assert!(matches!(r, Err(GraphError::DuplicateEdge(1, 0))));
    }

    #[test]
    fn from_edges_builds_cycle() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert!(g.degrees().all(|d| d == 2));
    }

    #[test]
    fn builder_dedups() {
        let mut b = GraphBuilder::new(3);
        assert!(b.try_add(0, 1));
        assert!(!b.try_add(1, 0));
        assert!(b.contains(0, 1));
        assert!(!b.contains(1, 2));
        assert!(b.try_add(1, 2));
        let g = b.build();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn builder_dedups_after_plain_adds() {
        // `try_add` must see edges inserted before the hash set existed.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        assert!(b.contains(1, 0));
        assert!(!b.try_add(1, 0));
        assert!(b.try_add(2, 3));
        b.add_edge(0, 2).unwrap(); // keeps the materialized set in sync
        assert!(!b.try_add(2, 0));
        assert_eq!(b.build().m(), 3);
    }

    #[test]
    #[should_panic]
    fn builder_panics_on_self_loop() {
        let mut b = GraphBuilder::new(3);
        b.try_add(2, 2);
    }

    #[test]
    fn csr_offsets_and_arcs() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(1, 3).unwrap();
        let g = b.build();
        assert_eq!(g.csr_offset(0), 0);
        assert_eq!(g.csr_offset(1), 1);
        assert_eq!(g.arc_range(1), 1..4);
        assert_eq!(g.csr_offset(g.n()), 2 * g.m());
        assert!(g.arc_range(1).map(|a| g.arc(a)).eq(g.neighbors(1)));
        // Arc-level agreement with the per-node view, for every node.
        for v in g.nodes() {
            assert_eq!(g.neighbors(v).len(), g.degree(v));
            assert!(g
                .neighbors(v)
                .rev()
                .eq(g.neighbors(v).collect::<Vec<_>>().into_iter().rev()));
            for (port, (u, e)) in g.neighbors(v).enumerate() {
                assert_eq!(g.other_endpoint(e, v), u);
                assert_eq!(g.neighbor(v, port), (u, e));
                // The reverse port points back at this arc, and the
                // reverse arc is the same slot by global index.
                let arc = g.csr_offset(v) + port;
                assert_eq!(g.arc(arc), (u, e));
                let rev = g.rev_port(arc);
                assert_eq!(g.neighbor(u, rev), (v, e));
                assert_eq!(g.rev_port(g.csr_offset(u) + rev), port);
                assert_eq!(g.rev_arc(arc), g.csr_offset(u) + rev);
                assert_eq!(g.rev_arc(g.rev_arc(arc)), arc);
            }
        }
    }

    #[test]
    fn edge_port_table_is_consistent() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(3, 1).unwrap();
        b.add_edge(1, 4).unwrap();
        b.add_edge(0, 1).unwrap();
        b.add_edge(3, 4).unwrap();
        let g = b.build();
        for (e, u, v) in g.edges() {
            let (pu, pv) = g.edge_ports(e);
            assert_eq!(g.neighbor(u, pu), (v, e));
            assert_eq!(g.neighbor(v, pv), (u, e));
        }
    }

    #[test]
    fn sorted_port_order_on_unsorted_adjacency() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(1, 3).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(0, 4).unwrap();
        let g = b.build();
        let order = g.sorted_port_order().expect("insertion order is unsorted");
        assert_eq!(order.len(), g.degree_sum());
        for v in g.nodes() {
            let base = g.csr_offset(v);
            let ids: Vec<NodeId> = (0..g.degree(v))
                .map(|i| g.neighbor(v, order[base + i] as usize).0)
                .collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "node {v}: {ids:?}");
        }
        // Second call hits the cache (same slice).
        assert_eq!(g.sorted_port_order().unwrap().as_ptr(), order.as_ptr());
    }

    #[test]
    fn sorted_port_order_is_none_when_already_sorted() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(1, 3).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(1, 2).unwrap();
        b.sort_adjacency();
        let g = b.build();
        assert_eq!(g.sorted_port_order(), None);
        assert_eq!(Graph::empty(3).sorted_port_order(), None);
    }

    #[test]
    fn equality_ignores_the_port_order_cache() {
        let make = || Graph::from_edges(4, &[(2, 1), (0, 3), (1, 0)]).unwrap();
        let (a, b) = (make(), make());
        let _ = a.sorted_port_order(); // populate only a's cache
        assert_eq!(a, b);
        let c = a.clone();
        assert_eq!(c, a);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn neighbor_rejects_a_port_past_the_degree() {
        // Port 1 of node 0 would be node 1's first arc without the check.
        let g = path3();
        let _ = g.neighbor(0, 1);
    }

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn memory_is_eight_bytes_per_node_and_forty_per_edge() {
        let g = path3();
        assert_eq!(g.memory_bytes(), 8 * (g.n() + 1) + 40 * g.m());
        assert_eq!(Graph::empty(0).memory_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "node ids are u32")]
    fn builder_rejects_node_counts_past_u32() {
        let _ = GraphBuilder::new(MAX_NODES + 1);
    }

    #[test]
    #[should_panic(expected = "node ids are u32")]
    fn stream_edges_rejects_node_counts_past_u32() {
        let _ = GraphBuilder::stream_edges(MAX_NODES + 1, |_| {});
    }

    #[test]
    fn error_display() {
        let e = GraphError::DuplicateEdge(1, 2);
        assert!(e.to_string().contains("duplicate"));
        let e = GraphError::SelfLoop(3);
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::NodeOutOfRange { node: 9, n: 4 };
        assert!(e.to_string().contains("out of range"));
        let e = GraphError::InvalidParameters("odd".into());
        assert!(e.to_string().contains("odd"));
    }

    #[test]
    fn debug_is_nonempty() {
        let g = Graph::empty(2);
        assert_eq!(format!("{g:?}"), "Graph(n=2, m=0)");
    }
}
