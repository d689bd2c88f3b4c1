//! The [`Process`] trait implemented by distributed algorithms, and the
//! per-node execution context [`Ctx`].

use crate::message::{Envelope, MessageSize};
use crate::transcript::{OutputKind, Round};
use localavg_graph::rng::Rng;
use localavg_graph::{EdgeId, Graph, NodeId};

/// What a node knows at time 0, besides its own id, its degree, `n`, and Δ.
///
/// The paper's LOCAL model gives nodes unique O(log n)-bit ids; neighbor
/// ids/degrees are learnable in one round, so granting them initially only
/// shifts round counts by an additive constant. The default grants both
/// (and the experiments note this convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knowledge {
    /// Nodes know the ids of their neighbors (per port).
    pub neighbor_ids: bool,
    /// Nodes know the degrees of their neighbors (per port).
    pub neighbor_degrees: bool,
}

impl Default for Knowledge {
    fn default() -> Self {
        Knowledge {
            neighbor_ids: true,
            neighbor_degrees: true,
        }
    }
}

/// A distributed algorithm, instantiated once per node.
///
/// The engine calls [`Process::init`] at round 0 (a node may already send
/// and commit there) and [`Process::round`] once per subsequent round with
/// the messages that arrived. A node leaves the computation by calling
/// [`Ctx::halt`].
///
/// See the [crate-level example](crate) for a complete implementation.
pub trait Process: Sized + Send {
    /// Message payload exchanged over edges.
    type Message: Clone + Send + Sync + MessageSize;
    /// Per-node output label (use `()` for edge-labelling problems).
    type NodeOutput: Clone + Send;
    /// Per-edge output label (use `()` for node-labelling problems).
    type EdgeOutput: Clone + Send + PartialEq + std::fmt::Debug;
    /// Algorithm-wide parameters passed to every node's `init`.
    type Params: Sync + ?Sized;

    /// Which outputs this problem commits (drives Definition 1 accounting).
    const OUTPUT_KIND: OutputKind;

    /// Constructs the node's state at round 0. May send and commit.
    fn init(params: &Self::Params, ctx: &mut Ctx<'_, Self>) -> Self;

    /// Executes one round given the messages received this round.
    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<Self::Message>]);
}

/// Commit event emitted by a node during one activation.
#[derive(Debug, Clone)]
pub(crate) enum Event<NO, EO> {
    /// The node committed its own output.
    Node(NO),
    /// The node committed the label of an incident edge.
    Edge(EdgeId, EO),
}

/// A commit-event buffer: `(node, event)` pairs in the order they were
/// emitted. One buffer per executor chunk; entries within a buffer are in
/// ascending node order because each chunk activates its nodes in order.
pub(crate) type EventBuf<P> = Vec<(
    NodeId,
    Event<<P as Process>::NodeOutput, <P as Process>::EdgeOutput>,
)>;

/// Per-node execution context handed to [`Process::init`] / [`Process::round`].
///
/// All interaction with the engine — sending, committing, halting, and
/// reading local knowledge — goes through this type.
///
/// Sends land in the current round's half of the engine's double-buffered
/// outbox: the node owns one message slot per port (its slice of the CSR
/// arc array, addressed by `csr_offset(v) + port`), emptied just before
/// the activation, plus a rarely-used spill vector for the occasional
/// second message on the same port in one round. Receivers pull them
/// next round.
pub struct Ctx<'a, P: Process> {
    pub(crate) id: NodeId,
    pub(crate) round: Round,
    pub(crate) graph: &'a Graph,
    pub(crate) knowledge: Knowledge,
    pub(crate) max_degree: usize,
    pub(crate) rng: &'a mut Rng,
    /// This node's arc slots of the current outbox buffer (length = degree).
    pub(crate) out_slots: &'a mut [Option<P::Message>],
    /// Overflow for a repeated send on an already-occupied port.
    pub(crate) out_spill: &'a mut Vec<(u32, P::Message)>,
    /// Messages written this activation (lets the audit skip silent nodes).
    pub(crate) sent: &'a mut u32,
    pub(crate) events: &'a mut EventBuf<P>,
    /// Set by [`Ctx::halt`]; the engine records the halt after the
    /// activation.
    pub(crate) halted: &'a mut bool,
}

impl<'a, P: Process> Ctx<'a, P> {
    /// This node's id (`0..n`, also its unique identifier).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current round (0 during `init`).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of nodes in the graph (global knowledge, standard in LOCAL).
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Maximum degree Δ of the graph (global knowledge).
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.id)
    }

    /// Iterator over this node's ports, `0..degree`.
    pub fn ports(&self) -> std::ops::Range<usize> {
        0..self.degree()
    }

    /// The id of the neighbor behind `port`.
    ///
    /// # Panics
    ///
    /// Panics if the run was configured without neighbor-id knowledge, or
    /// if `port >= degree`.
    pub fn neighbor_id(&self, port: usize) -> NodeId {
        assert!(
            self.knowledge.neighbor_ids,
            "neighbor ids are not part of the configured initial knowledge"
        );
        self.graph.neighbor(self.id, port).0
    }

    /// The degree of the neighbor behind `port`.
    ///
    /// # Panics
    ///
    /// Panics if the run was configured without neighbor-degree knowledge.
    pub fn neighbor_degree(&self, port: usize) -> usize {
        assert!(
            self.knowledge.neighbor_degrees,
            "neighbor degrees are not part of the configured initial knowledge"
        );
        let (u, _) = self.graph.neighbor(self.id, port);
        self.graph.degree(u)
    }

    /// The edge id of the edge behind `port` (useful for edge outputs).
    pub fn edge_id(&self, port: usize) -> EdgeId {
        self.graph.neighbor(self.id, port).1
    }

    /// This node's private random stream (footnote 1 of the paper: a pure
    /// function of the master seed and the node id).
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    /// Sends `msg` to the neighbor behind `port` (delivered next round).
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree`.
    pub fn send(&mut self, port: usize, msg: P::Message) {
        *self.sent += 1;
        let slot = &mut self.out_slots[port];
        if slot.is_none() {
            *slot = Some(msg);
        } else {
            // Second message on the same port this round: rare (only the
            // orientation handshake does it), so it spills instead of
            // widening every slot. Delivery order stays chronological.
            self.out_spill.push((port as u32, msg));
        }
    }

    /// Sends `msg` to every neighbor.
    pub fn broadcast(&mut self, msg: P::Message) {
        for port in self.ports() {
            self.send(port, msg.clone());
        }
    }

    /// Commits this node's output — the moment recorded as `T_v` for the
    /// node-averaged complexity (Definition 1).
    ///
    /// # Panics
    ///
    /// The engine panics if a node commits twice (outputs are final).
    pub fn commit_node(&mut self, out: P::NodeOutput) {
        self.events.push((self.id, Event::Node(out)));
    }

    /// Commits the label of the incident edge behind `port`.
    ///
    /// Both endpoints may commit the same edge; the engine records the
    /// earliest round and panics if the two committed labels disagree
    /// (that would be an algorithm bug).
    pub fn commit_edge(&mut self, port: usize, out: P::EdgeOutput) {
        let e = self.edge_id(port);
        self.events.push((self.id, Event::Edge(e, out)));
    }

    /// Leaves the computation: after this activation the node receives no
    /// further `round` calls and messages addressed to it are dropped.
    /// The halt round is recorded as the node's *termination time* (§2).
    pub fn halt(&mut self) {
        *self.halted = true;
    }
}
