//! The [`Process`] trait implemented by distributed algorithms, and the
//! per-node execution context [`Ctx`].

use crate::message::{Envelope, MessageSize};
use crate::transcript::{OutputKind, Round};
use localavg_graph::rng::Rng;
use localavg_graph::{EdgeId, Graph, NodeId};

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
/// outbox, which holds two things per node: a **broadcast record** and
/// one message slot per port (its slice of the CSR arc array, addressed
/// by `csr_offset(v) + port`), plus a rarely-used spill vector for the
/// occasional second message on the same port in one round. A
/// [`Ctx::broadcast`] that is the activation's first send is stored once,
/// in the record; every other send goes into the slots, which the
/// activation's first such send empties. Receivers pull both next round.
pub struct Ctx<'a, P: Process> {
    pub(crate) id: NodeId,
    pub(crate) round: Round,
    pub(crate) graph: &'a Graph,
    pub(crate) max_degree: usize,
    pub(crate) rng: &'a mut Rng,
    /// This node's arc slots of the current outbox buffer (length =
    /// degree). They hold stale messages until the activation's first
    /// send that is not a recorded broadcast empties them.
    pub(crate) out_slots: &'a mut [Option<P::Message>],
    /// Overflow for a repeated send on an already-occupied port.
    pub(crate) out_spill: &'a mut Vec<(u32, P::Message)>,
    /// This node's broadcast record in the current outbox buffer.
    pub(crate) record: &'a mut Record<P::Message>,
    pub(crate) events: &'a mut EventBuf<P>,
    /// Set by [`Ctx::halt`]; the engine records the halt after the
    /// activation.
    pub(crate) halted: &'a mut bool,
    /// Set by [`Ctx::sleep_until`]: the requested wake round, 0 for none.
    pub(crate) sleep: &'a mut Round,
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

    /// The id of the neighbor behind `port`. Nodes know their
    /// neighbors' ids from round 0: they are learnable in one round, so
    /// granting them shifts round counts by an additive constant at most.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree`.
    pub fn neighbor_id(&self, port: usize) -> NodeId {
        self.graph.neighbor(self.id, port).0
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
        let record = &mut *self.record;
        if record.round != self.round {
            *record = Record {
                round: self.round,
                unicast: false,
                broadcast: None,
            };
        }
        if !record.unicast {
            // First port-by-port send of the activation: the slots still
            // hold what this node sent two rounds ago.
            record.unicast = true;
            self.out_slots.fill(None);
        }
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
    ///
    /// As the activation's first send, the message is stored once in this
    /// node's broadcast record, which every neighbor reads next round.
    /// After another send it goes out port by port like [`Ctx::send`], so
    /// each neighbor still receives this node's messages in send order.
    /// Either way the audit counts one message per neighbor.
    pub fn broadcast(&mut self, msg: P::Message) {
        if self.record.round != self.round && self.degree() > 0 {
            *self.record = Record {
                round: self.round,
                unicast: false,
                broadcast: Some(msg),
            };
            return;
        }
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

    /// Asks the engine not to activate this node again before round
    /// `round`, unless a neighbor sends it a message first. A sleeping
    /// node is skipped by the round pass: no pull, no `round` call. It
    /// wakes when `round` comes, or in the round after a neighbor sends
    /// to it, and then receives that inbox as usual.
    /// `Round::MAX` (or any round past the run's `max_rounds`) sleeps
    /// until a message arrives.
    ///
    /// Sleeping is not halting: the node stays live, so Definition 1's
    /// clocks, the live frontier and the transcript do not change. The
    /// request is an **opt-in promise** by the process, and the engine
    /// cannot check it:
    ///
    /// * every skipped activation would have been a **no-op**: with an
    ///   empty inbox, `round` would neither change the node's state, send,
    ///   commit, halt, nor draw from [`Ctx::rng`];
    /// * **waking early is harmless**: an activation with an empty inbox
    ///   before `round` (a stale timer, a message-free round after an
    ///   early wake) behaves like the skipped one would have — typically
    ///   by asking to sleep again.
    ///
    /// Under that promise a run with sleeps is transcript-identical to the
    /// same process that never sleeps; the engine test
    /// `sleeping_is_invisible_in_the_transcript` pins this.
    ///
    /// The engine grants the request after the round unless the node
    /// halts in the same activation (halting wins) or a neighbor sent it
    /// a message in the same round (the message is pulled next round). A
    /// `round` no later than the next round is no request at all. Later
    /// calls in one activation replace earlier ones.
    pub fn sleep_until(&mut self, round: Round) {
        *self.sleep = round;
    }
}

/// What one node sent in the activation that last wrote one outbox
/// buffer: the round of that activation, whether it also sent port by
/// port, and at most one broadcast. One record per (buffer, node); a
/// record whose round is not the one a reader asks about is stale and
/// says nothing, so the records need no clearing between rounds.
pub(crate) struct Record<M> {
    /// The round of the activation that wrote the record.
    pub(crate) round: Round,
    /// Whether that activation sent port by port: only then do the
    /// node's arc slots (and spills) of the buffer hold its messages.
    pub(crate) unicast: bool,
    /// The activation's broadcast, when its first send was one; delivered
    /// to every neighbor before the node's slot and spills on that arc.
    pub(crate) broadcast: Option<M>,
}

impl<M> Record<M> {
    /// A record of no round.
    pub(crate) fn stale() -> Self {
        Record {
            round: Round::MAX,
            unicast: false,
            broadcast: None,
        }
    }

    /// Whether the node sent a message in round `round` on the arc whose
    /// slot, in the same buffer as this record, is `slot`.
    pub(crate) fn mail(&self, round: Round, slot: &Option<M>) -> bool {
        self.round == round && (self.broadcast.is_some() || self.unicast && slot.is_some())
    }
}
