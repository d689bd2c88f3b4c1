//! The synchronous round engine (sequential and parallel executors).
//!
//! Both executors produce *bit-identical* [`Transcript`]s: per-node
//! randomness is derived from `(seed, node id)` alone, inboxes are ordered
//! by sender id, and commit events are applied in node order. The parallel
//! executor exists to exercise realistic concurrent message passing (and
//! to speed up big lower-bound instances); the determinism property is
//! checked by tests.
//!
//! # Round anatomy
//!
//! Every round is **one** chunked pass over the node array: a
//! word-parallel sweep of the union of the halted and the sleeping
//! bitsets, so cost tracks the **awake frontier** (the paper's
//! Definition 1 is exactly the observation that most nodes halt long
//! before the worst-case round; sleeping nodes are live but skipped).
//! The outbox is double-buffered: round `r` sends into buffer `r & 1`
//! while reading the other. A buffer holds one **broadcast record** per
//! node — the round it was written, whether the node also sent port by
//! port, and at most one broadcast message — and one message slot per
//! directed arc. Activating an awake node `v` in round `r` means
//!
//! 1. **pull** — `v` takes its inbox out of the previous round's buffer
//!    into the chunk's scratch vector: it walks its ports in ascending
//!    neighbor id order ([`Graph::sorted_port_order`]) and reads each
//!    sender's record. A record of another round is stale and skipped; a
//!    record of round `r - 1` delivers its broadcast, and only if it says
//!    the sender sent port by port does `v` `take()` the sender's slot,
//!    one load away at [`Graph::rev_arc`] of `v`'s own arc. On rounds
//!    after a spill it also clones that sender's spills on the arc;
//!    otherwise — almost always — the spill vectors are not probed;
//! 2. **step** — `init` at round 0, `round` after. A [`Ctx::broadcast`]
//!    that is the activation's first send writes only `v`'s record; any
//!    other send goes into `v`'s arc range of the current buffer, which
//!    its first such send clears (what is left there was sent two rounds
//!    ago to receivers that halted). Commits land in per-chunk event
//!    buffers, halts and sleep requests ([`Ctx::sleep_until`]) in
//!    per-chunk buffers;
//! 3. **audit** — `v` counts its own sends for the CONGEST audit (a
//!    recorded broadcast counts one message per neighbor, halted ones
//!    included), and (only while some node sleeps) pushes each sleeping
//!    receiver of its sends onto the chunk's wake list; a broadcast
//!    reaches every neighbor.
//!
//! Between rounds the driver applies commit events, records halts, and
//! clears the spill vectors its receivers just pulled. Delta routing falls
//! out for free: a halted region of the graph is skipped by the bitset
//! sweep, and a sender that went quiet leaves a stale record that costs
//! one branch per neighbor. A broadcast-only process never touches the
//! per-arc slots. Messages to halted receivers are never pulled; the
//! round tags retire them, so neither a sender nor the next run's reset
//! has to clear the slots.
//!
//! The driving thread then settles the sleep tables: it wakes the
//! receivers on the wake lists, grants each sleep request whose node was
//! sent no message this round (read from the neighbors' records and
//! slots: a sender saw that node awake and pushed no wake-up, so the
//! message must be pulled next round), and fires the round-bucketed
//! timers of the next round. A sleeper therefore never holds undelivered
//! mail, and a process that keeps [`Ctx::sleep_until`]'s promise produces
//! the transcript of its twin that never sleeps. Activations are counted: [`Workspace::stats`]
//! reports the awake node-rounds next to Σ live.
//!
//! The pass is the *same code* on both executors — the sequential loop
//! is the 1-chunk special case — so executor choice, thread count,
//! and chunk geometry are pure performance knobs that cannot perturb the
//! transcript. Parallel runs distribute chunks over the persistent
//! [`WorkerPool`] owned by the run's [`Workspace`].
//!
//! [`RunSpec::run_in`] is the one function that drives the engine.

use crate::bitset::Bitset;
use crate::message::{Envelope, MessageSize};
use crate::pool::WorkerPool;
use crate::process::{Ctx, Event, EventBuf, Process, Record};
use crate::shadow::Table;
use crate::transcript::{Round, Transcript, TranscriptPolicy, UNCOMMITTED};
pub use crate::workspace::Workspace;
use localavg_graph::rng::Rng;
use localavg_graph::{Graph, NodeId};
use std::any::TypeId;
use std::collections::BTreeMap;

/// Everything one run needs besides the graph and the algorithm's own
/// parameters: seed, executor, round budget, and transcript policy.
///
/// This is the argument of the `execute(&Graph, &RunSpec)` entry points
/// (`localavg-core`'s `Algorithm`) and of
/// [`RunSpec::run_in`], the engine's only driver. Built with chainable
/// `with_*` setters:
///
/// ```
/// use localavg_sim::engine::{Exec, RunSpec};
/// use localavg_sim::transcript::TranscriptPolicy;
///
/// let spec = RunSpec::new(7)
///     .with_exec(Exec::Parallel { threads: 2 })
///     .with_transcript(TranscriptPolicy::CompletionsOnly)
///     .with_max_rounds(10_000);
/// assert_eq!(spec.seed, 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Master seed; node `v` uses the substream `seed.fork(v)`.
    pub seed: u64,
    /// Executor driving the run (a pure performance knob — transcripts
    /// are bit-identical across executors).
    pub exec: Exec,
    /// Hard cap on rounds (the run panics beyond it).
    pub max_rounds: usize,
    /// How much ledger the transcript retains.
    pub transcript: TranscriptPolicy,
    /// Explicit scheduler chunk size (nodes per chunk); `None` — the
    /// default — picks a balanced chunk geometry. Setting this *forces*
    /// the chunked code path even below [`PARALLEL_MIN_NODES`] — the
    /// scheduler-adversarial determinism tests use it to probe chunk
    /// boundaries on small instances. A pure performance/testing knob:
    /// transcripts are bit-identical for every value.
    pub chunk_nodes: Option<usize>,
}

impl RunSpec {
    /// Creates a spec with the given seed and defaults: sequential
    /// executor, 1,000,000-round cap, [`TranscriptPolicy::Full`], default
    /// chunk geometry.
    pub fn new(seed: u64) -> Self {
        RunSpec {
            seed,
            exec: Exec::Sequential,
            max_rounds: 1_000_000,
            transcript: TranscriptPolicy::Full,
            chunk_nodes: None,
        }
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the executor.
    #[must_use]
    pub fn with_exec(mut self, exec: Exec) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the round budget.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the transcript-retention policy.
    #[must_use]
    pub fn with_transcript(mut self, policy: TranscriptPolicy) -> Self {
        self.transcript = policy;
        self
    }

    /// Sets an explicit scheduler chunk size (see [`RunSpec::chunk_nodes`]).
    #[must_use]
    pub fn with_chunk_nodes(mut self, chunk_nodes: Option<usize>) -> Self {
        self.chunk_nodes = chunk_nodes;
        self
    }

    /// Runs `P` to completion under this spec, reusing the arenas stored
    /// in `ws`. This is the engine's only driver; a one-off run passes
    /// `&mut Workspace::new()`.
    ///
    /// The first run of a process type (or the first after a CSR shape
    /// change) allocates its arenas inside the workspace; subsequent runs
    /// reuse them, paying only an O(n + m) reset instead of fresh
    /// allocations. The first *parallel* run additionally spawns the
    /// workspace's persistent worker pool; later parallel runs reuse its
    /// threads. Transcripts are bit-identical to runs on a fresh
    /// workspace — the reset path is the only initialization path in the
    /// engine.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm exceeds `max_rounds` without halting every
    /// node, if a node commits its own output twice, or if the two
    /// endpoints of an edge commit conflicting labels.
    pub fn run_in<P: Process + 'static>(
        &self,
        g: &Graph,
        params: &P::Params,
        ws: &mut Workspace,
    ) -> Transcript<P::NodeOutput, P::EdgeOutput> {
        let threads = match self.exec {
            Exec::Sequential => 1,
            Exec::Parallel { threads } => resolve_threads(threads),
        };
        let shape = (g.n(), g.m(), g.degree_sum());
        let Workspace {
            shape: ws_shape,
            states,
            pool,
            reuses,
            runs,
            awake_node_rounds,
        } = ws;
        if *ws_shape != Some(shape) {
            states.clear();
            *ws_shape = Some(shape);
        }
        *runs += 1;
        let slot = states.entry(TypeId::of::<P>());
        if let std::collections::hash_map::Entry::Occupied(_) = &slot {
            *reuses += 1;
        }
        let state = slot
            .or_insert_with(|| Box::new(RunState::<P>::empty()))
            .downcast_mut::<RunState<P>>()
            .expect("workspace slot keyed by process type");
        let transcript = run_with_threads::<P>(g, params, self, threads, state, pool);
        *awake_node_rounds += state.awake;
        transcript
    }
}

/// Which executor drives a run.
///
/// Both executors produce bit-identical transcripts (see the module docs),
/// so `Exec` is a pure performance knob: benchmark harnesses and the
/// determinism tests set it on a [`RunSpec`] to time or cross-check the
/// two executors on the same algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exec {
    /// Single-threaded executor: one chunk on the calling thread.
    #[default]
    Sequential,
    /// Chunked executor over the workspace's persistent [`WorkerPool`]
    /// (the calling thread takes chunks too).
    Parallel {
        /// Threads, the caller included; 0 means "number of available
        /// cores" ([`resolve_threads`]).
        threads: usize,
    },
}

/// Mutable per-run state shared by both executors.
///
/// Everything the per-round inner loop touches is a flat arena sized once
/// from the graph's CSR layout — no per-node heap vectors, no per-round
/// allocation in the steady state:
///
/// * `records` / `out_slots` — a **double-buffered** outbox. Round `r`
///   sends into buffer `r & 1`, and the receivers of round `r + 1` pull
///   from it while sending into the other one. Each buffer holds one
///   broadcast [`Record`] per node (index `b · n + v`) and one message
///   slot per directed arc (arc `csr_offset(v) + port` at index
///   `b · Σdeg + arc`); a record tagged with an older round is stale, and
///   a node's slots are read only when its record of the round says it
///   sent port by port. `out_spill` (index `b · n + v`) doubles the same
///   way, for the rare second message on one port in a round;
/// * there is no inbox arena: each activation assembles its inbox in the
///   chunk's `scratch` vector and hands it straight to the process;
/// * `halted_bits` / `sleeping` / `committed` — columnar bitsets, letting
///   the pass skip 64 halted or sleeping nodes per word compare.
struct RunState<P: Process> {
    processes: Vec<Option<P>>,
    rngs: Vec<Rng>,
    /// Halted nodes, updated by the driver when halts are recorded.
    halted_bits: Bitset,
    /// Columnar "node committed its own output" state.
    committed: Bitset,
    /// Nodes that have not halted yet.
    live: usize,
    /// Live nodes the pass skips until a timer or a message wakes them;
    /// written only by the driving thread, between rounds.
    sleeping: Bitset,
    /// Set bits of `sleeping`.
    sleepers: usize,
    /// Sleep requests `(node, wake round)` of this round, one buffer per
    /// executor chunk.
    sleep_requests: Vec<Vec<(NodeId, Round)>>,
    /// Sleeping receivers of this round's sends, one buffer per executor
    /// chunk (a receiver may appear more than once).
    wakes: Vec<Vec<NodeId>>,
    /// Timer wake-ups: the nodes to wake at the start of each round.
    /// Entries go stale when a message wakes a node first; a stale entry
    /// wakes its node early, which the sleep contract makes harmless.
    timers: BTreeMap<Round, Vec<NodeId>>,
    /// Emptied timer buckets, kept for their capacity.
    spare_buckets: Vec<Vec<NodeId>>,
    /// Activations of this run: awake node-rounds.
    awake: u64,
    /// Double-buffered broadcast records: buffer `b`'s record of node `v`
    /// is at `b · n + v`.
    records: Vec<Record<P::Message>>,
    /// Double-buffered outbox: buffer `b`'s slot of arc `a` is at
    /// `b · Σdeg + a`.
    out_slots: Vec<Option<P::Message>>,
    /// Double-buffered per-node overflow for repeated sends on one port
    /// (`b · n + v`; almost always empty, capacity retained across rounds).
    out_spill: Vec<Vec<(u32, P::Message)>>,
    /// Commit events, one buffer per executor chunk; entries are pushed in
    /// ascending node order within a chunk, so draining chunks in order
    /// replays events in global node order.
    events: Vec<EventBuf<P>>,
    /// Nodes that halted this round, one buffer per executor chunk.
    fresh_halts: Vec<Vec<NodeId>>,
    /// Nodes whose outbox spilled this round, one buffer per executor
    /// chunk.
    spill_nodes: Vec<Vec<NodeId>>,
    /// Nodes that spilled in the previous round: the driver clears their
    /// spill vectors once this round's receivers have pulled them.
    pending_spills: Vec<NodeId>,
    /// Per-chunk inbox scratch: an activation pulls its inbox here.
    scratch: Vec<Vec<Envelope<P::Message>>>,
    /// Per-chunk CONGEST audit and activation accumulators.
    tallies: Vec<ChunkTally>,
    /// Whether the CONGEST audit is recorded (policy [`TranscriptPolicy::Full`]).
    audit: bool,
    /// Whether per-node halt rounds are recorded (policies other than
    /// [`TranscriptPolicy::None`]).
    record_halt_rounds: bool,
    transcript: Transcript<P::NodeOutput, P::EdgeOutput>,
    /// Debug-build owner tags checking the per-chunk aliasing contract
    /// (see [`RoundShared`]).
    #[cfg(debug_assertions)]
    shadow: crate::shadow::Shadow,
}

/// Accumulators of one chunk in one round: the CONGEST audit of its
/// sends (zero unless the policy records the audit) and its activations.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkTally {
    /// Messages sent by this chunk's nodes.
    messages: usize,
    /// Largest message, in bits.
    max_bits: usize,
    /// Nodes activated.
    activations: usize,
}

impl<P: Process> RunState<P> {
    /// An unsized state holding no arenas; [`RunState::reset`] sizes it.
    fn empty() -> Self {
        RunState {
            processes: Vec::new(),
            rngs: Vec::new(),
            halted_bits: Bitset::new(0),
            committed: Bitset::new(0),
            live: 0,
            sleeping: Bitset::new(0),
            sleepers: 0,
            sleep_requests: Vec::new(),
            wakes: Vec::new(),
            timers: BTreeMap::new(),
            spare_buckets: Vec::new(),
            awake: 0,
            records: Vec::new(),
            out_slots: Vec::new(),
            out_spill: Vec::new(),
            events: Vec::new(),
            fresh_halts: Vec::new(),
            spill_nodes: Vec::new(),
            pending_spills: Vec::new(),
            scratch: Vec::new(),
            tallies: Vec::new(),
            audit: true,
            record_halt_rounds: true,
            transcript: Transcript::empty(P::OUTPUT_KIND, 0, 0),
            #[cfg(debug_assertions)]
            shadow: Default::default(),
        }
    }

    /// Prepares the state for one run on `g`, reusing every allocation
    /// from a previous run of the same process type on the same CSR
    /// shape. This is the *only* initialization path — fresh runs build
    /// an [`RunState::empty`] state and reset it — so reuse can never
    /// diverge from a cold start.
    fn reset(&mut self, g: &Graph, seed: u64, chunks: usize, policy: TranscriptPolicy) {
        let n = g.n();
        let master = Rng::seed_from(seed);
        self.processes.clear();
        self.processes.resize_with(n, || None);
        self.rngs.clear();
        self.rngs.extend((0..n).map(|v| master.fork(v as u64)));
        self.halted_bits.clear_and_resize(n);
        self.committed.clear_and_resize(n);
        self.live = n;
        self.sleeping.clear_and_resize(n);
        self.sleepers = 0;
        for list in &mut self.sleep_requests {
            list.clear();
        }
        for list in &mut self.wakes {
            list.clear();
        }
        self.sleep_requests.resize_with(chunks, Vec::new);
        self.wakes.resize_with(chunks, Vec::new);
        while let Some((_, mut bucket)) = self.timers.pop_first() {
            bucket.clear();
            self.spare_buckets.push(bucket);
        }
        self.awake = 0;
        // Every record goes stale, in both buffers. That alone retires
        // whatever a previous run left in the arc slots — the messages
        // addressed to halted receivers, or anything at all after a run
        // aborted by a caught panic (e.g. a max_rounds probe): a slot is
        // read only under a record of the round before, and a node's
        // first port-by-port send of an activation clears its range. So
        // the O(Σdeg) slot arena is filled once, when it is sized.
        self.records.clear();
        self.records.resize_with(2 * n, Record::stale);
        if self.out_slots.len() != 2 * g.degree_sum() {
            self.out_slots.clear();
            self.out_slots.resize_with(2 * g.degree_sum(), || None);
        }
        for spill in &mut self.out_spill {
            spill.clear();
        }
        self.out_spill.resize_with(2 * n, Vec::new);
        self.pending_spills.clear();
        for buf in &mut self.events {
            buf.clear();
        }
        self.events.resize_with(chunks, Vec::new);
        for buf in &mut self.fresh_halts {
            buf.clear();
        }
        self.fresh_halts.resize_with(chunks, Vec::new);
        for buf in &mut self.spill_nodes {
            buf.clear();
        }
        self.spill_nodes.resize_with(chunks, Vec::new);
        for buf in &mut self.scratch {
            buf.clear();
        }
        self.scratch.resize_with(chunks, Vec::new);
        self.tallies.clear();
        self.tallies.resize(chunks, ChunkTally::default());
        self.audit = policy.records_audit();
        self.record_halt_rounds = policy.records_halts();
        #[cfg(debug_assertions)]
        self.shadow.reset(2 * g.degree_sum(), n);
        self.transcript = Transcript::empty(P::OUTPUT_KIND, n, g.m());
        if self.audit {
            // Volume columns exist exactly when the audit does; senders
            // and receivers accumulate into them in place.
            self.transcript.node_messages_sent = vec![0; n];
            self.transcript.node_bits_sent = vec![0; n];
            self.transcript.node_messages_recv = vec![0; n];
            self.transcript.node_bits_recv = vec![0; n];
        }
    }

    /// Applies commit events (in node order — deterministic) for `round`.
    fn apply_events(&mut self, round: Round) {
        for chunk in &mut self.events {
            for (v, event) in chunk.drain(..) {
                match event {
                    Event::Node(out) => {
                        assert!(
                            !self.committed.get(v),
                            "node {v} committed twice (round {round}); outputs are final"
                        );
                        self.committed.set(v);
                        self.transcript.node_commit_round[v] = round;
                        self.transcript.node_output[v] = Some(out);
                    }
                    Event::Edge(e, out) => match &self.transcript.edge_output[e] {
                        None => {
                            self.transcript.edge_commit_round[e] = round;
                            self.transcript.edge_output[e] = Some(out);
                        }
                        Some(prev) => {
                            assert!(
                                *prev == out,
                                "edge {e} committed with conflicting labels \
                                     ({prev:?} vs {out:?}) — algorithm bug"
                            );
                        }
                    },
                }
            }
        }
    }

    /// Sums the per-chunk audit accumulators, `(messages, max_bits)`,
    /// and adds the round's activations to the run's awake count.
    fn collect_audit(&mut self) -> (usize, usize) {
        let mut messages = 0;
        let mut max_bits = 0;
        for part in &self.tallies {
            messages += part.messages;
            max_bits = max_bits.max(part.max_bits);
            self.awake += part.activations as u64;
        }
        (messages, max_bits)
    }

    /// Records this round's halts (chunk order = node order) into the
    /// transcript (unless the policy drops the termination ledger), the
    /// columnar bitset, and the live counter.
    fn record_halts(&mut self, round: Round) {
        for chunk in &mut self.fresh_halts {
            for v in chunk.drain(..) {
                if self.record_halt_rounds {
                    debug_assert_eq!(self.transcript.node_halt_round[v], UNCOMMITTED);
                    self.transcript.node_halt_round[v] = round;
                }
                self.halted_bits.set(v);
                self.live -= 1;
            }
        }
    }

    /// Clears the spill vectors filled in round `round - 1` (this round's
    /// receivers have just pulled them; those addressed to halted
    /// receivers are dropped) and queues this round's spilling senders
    /// for the same treatment after the next round.
    fn drain_spills(&mut self, round: Round) {
        let prev = (round + 1) & 1;
        let n = self.processes.len();
        for &u in &self.pending_spills {
            self.out_spill[prev * n + u].clear();
        }
        self.pending_spills.clear();
        for chunk in &mut self.spill_nodes {
            self.pending_spills.append(chunk);
        }
    }

    /// Settles the sleep tables after round `round`, in three steps whose
    /// outcome does not depend on the chunk geometry (each is a set
    /// operation):
    ///
    /// 1. wakes every sleeper a node sent to this round (the wake lists);
    /// 2. grants each sleep request unless a message of this round is
    ///    addressed to the node — a neighbor's record of this round holds
    ///    a broadcast, or says it sent port by port and the slot toward
    ///    the node is occupied: its sender saw the node awake and pushed
    ///    no wake-up, so the node must stay awake to pull it;
    /// 3. fires the timers of round `round + 1`.
    fn settle_sleep(&mut self, g: &Graph, round: Round, max_rounds: usize) {
        for list in &mut self.wakes {
            for u in list.drain(..) {
                if self.sleeping.get(u) {
                    self.sleeping.clear(u);
                    self.sleepers -= 1;
                }
            }
        }
        let (records, slots) = outbox(&self.records, &self.out_slots, g, round);
        for list in &mut self.sleep_requests {
            for (v, until) in list.drain(..) {
                if g.arc_range(v)
                    .any(|a| records[g.arc(a).0].mail(round, &slots[g.rev_arc(a)]))
                {
                    continue;
                }
                debug_assert!(!self.sleeping.get(v), "awake node {v} already sleeps");
                self.sleeping.set(v);
                self.sleepers += 1;
                if until <= max_rounds {
                    let spare = &mut self.spare_buckets;
                    self.timers
                        .entry(until)
                        .or_insert_with(|| spare.pop().unwrap_or_default())
                        .push(v);
                }
            }
        }
        while let Some(entry) = self.timers.first_entry() {
            if *entry.key() > round + 1 {
                break;
            }
            let mut bucket = entry.remove();
            for v in bucket.drain(..) {
                if self.sleeping.get(v) {
                    self.sleeping.clear(v);
                    self.sleepers -= 1;
                }
            }
            self.spare_buckets.push(bucket);
        }
        #[cfg(debug_assertions)]
        {
            let (records, slots) = outbox(&self.records, &self.out_slots, g, round);
            crate::shadow::check_sleepers(
                g,
                &self.sleeping,
                self.sleepers,
                &self.halted_bits,
                round,
                records,
                slots,
            );
        }
    }

    fn all_halted(&self) -> bool {
        self.live == 0
    }

    /// Bundles this round's shared state for the chunk pass (see
    /// [`RoundShared`]).
    fn round_shared<'a>(
        &mut self,
        g: &'a Graph,
        params: &'a P::Params,
        order: Option<&'a [u32]>,
        round: Round,
        max_degree: usize,
        chunk: usize,
    ) -> RoundShared<'a, P> {
        #[cfg(debug_assertions)]
        self.shadow.begin_pass();
        RoundShared {
            g,
            params,
            order,
            round,
            max_degree,
            n: g.n(),
            arcs: g.degree_sum(),
            cur: round & 1,
            chunk,
            audit: self.audit,
            spilled: !self.pending_spills.is_empty(),
            any_asleep: self.sleepers > 0,
            processes: self.processes.as_mut_ptr(),
            rngs: self.rngs.as_mut_ptr(),
            halted_bits: &self.halted_bits,
            sleeping: &self.sleeping,
            records: self.records.as_mut_ptr(),
            out_slots: self.out_slots.as_mut_ptr(),
            out_spill: self.out_spill.as_mut_ptr(),
            events: self.events.as_mut_ptr(),
            fresh_halts: self.fresh_halts.as_mut_ptr(),
            spill_nodes: self.spill_nodes.as_mut_ptr(),
            scratch: self.scratch.as_mut_ptr(),
            tallies: self.tallies.as_mut_ptr(),
            sleep_requests: self.sleep_requests.as_mut_ptr(),
            wakes: self.wakes.as_mut_ptr(),
            vol_msgs_sent: self.transcript.node_messages_sent.as_mut_ptr(),
            vol_bits_sent: self.transcript.node_bits_sent.as_mut_ptr(),
            vol_msgs_recv: self.transcript.node_messages_recv.as_mut_ptr(),
            vol_bits_recv: self.transcript.node_bits_recv.as_mut_ptr(),
            #[cfg(debug_assertions)]
            shadow: &self.shadow,
        }
    }
}

/// The outbox buffer that round `round` sent into: its `n` records and
/// its Σdeg arc slots.
fn outbox<'s, M>(
    records: &'s [Record<M>],
    slots: &'s [Option<M>],
    g: &Graph,
    round: Round,
) -> (&'s [Record<M>], &'s [Option<M>]) {
    let (n, arcs, b) = (g.n(), g.degree_sum(), round & 1);
    (&records[b * n..][..n], &slots[b * arcs..][..arcs])
}

/// One round's view of the run state, shared across chunk workers by raw
/// pointer.
///
/// # Safety
///
/// The pointers alias the arenas of one `RunState`, which outlives the
/// pass (the driver blocks in [`dispatch`] until every chunk finished).
/// Data races are excluded structurally, chunk by chunk:
///
/// * per-**node** columns (`processes`, `rngs`, this round's `records`
///   and `out_spill` buffers, the volume columns) and per-**chunk**
///   buffers (`events`, `fresh_halts`, `spill_nodes`, `scratch`,
///   `tallies`, `sleep_requests`, `wakes`) are written only for indices
///   owned by the running chunk — a sender records a sleeping receiver in
///   its *own* chunk's wake list, never in the receiver's state;
/// * in this round's `out_slots` buffer, a node writes only its own arc
///   range (cleared at its first port-by-port send, then filled by its
///   sends); in the previous round's buffer, receiver `v` takes only the
///   slot `rev_arc(v's arc)` of each arc `u → v` — an index unique to
///   `v` — and no sender writes that buffer this round;
/// * the previous round's `records` and `out_spill` buffers are only read
///   (cloned from) during the pass — every neighbor of a broadcaster
///   reads the same record; the driver clears the spills afterwards;
/// * `halted_bits` and `sleeping` are read-only during the pass (halts
///   and the sleep tables are settled by the driving thread between
///   rounds).
///
/// Debug builds check the first two points mechanically: every node
/// claims each `out_slots` index (`buffer · Σdeg + arc`) and per-node
/// index (its record included) it writes through [`RoundShared::claim`],
/// and the shadow checker panics on an index claimed by two chunks in
/// one round. Between rounds
/// they also check the sleep tables: no sleeper holds undelivered mail,
/// no halted node sleeps, and the sleeper count matches the bitset.
struct RoundShared<'a, P: Process> {
    g: &'a Graph,
    params: &'a P::Params,
    /// Receiver-side port permutation (ascending neighbor id); `None`
    /// when adjacency is already sorted.
    order: Option<&'a [u32]>,
    round: Round,
    max_degree: usize,
    n: usize,
    /// Σdeg: the length of one outbox buffer.
    arcs: usize,
    /// The outbox buffer this round sends into (`round & 1`); the other
    /// one holds the previous round's messages.
    cur: usize,
    /// Nodes per chunk; chunk `ci` owns `[ci * chunk, min(n, (ci+1) * chunk))`.
    chunk: usize,
    audit: bool,
    /// Whether any sender spilled last round; when false the pull skips
    /// the `out_spill` probe entirely.
    spilled: bool,
    /// Whether any node sleeps this round; when false senders skip the
    /// wake-up probe entirely.
    any_asleep: bool,
    processes: *mut Option<P>,
    rngs: *mut Rng,
    halted_bits: *const Bitset,
    sleeping: *const Bitset,
    records: *mut Record<P::Message>,
    out_slots: *mut Option<P::Message>,
    out_spill: *mut Vec<(u32, P::Message)>,
    events: *mut EventBuf<P>,
    fresh_halts: *mut Vec<NodeId>,
    spill_nodes: *mut Vec<NodeId>,
    scratch: *mut Vec<Envelope<P::Message>>,
    tallies: *mut ChunkTally,
    sleep_requests: *mut Vec<(NodeId, Round)>,
    wakes: *mut Vec<NodeId>,
    /// Per-node message-volume columns of the transcript (length `n` when
    /// `audit`, empty otherwise — dereferenced only under `audit`). Both
    /// the *sent* and the *recv* entry of node `v` are written only by
    /// `v`'s own activation.
    vol_msgs_sent: *mut u64,
    vol_bits_sent: *mut u64,
    vol_msgs_recv: *mut u64,
    vol_bits_recv: *mut u64,
    #[cfg(debug_assertions)]
    shadow: *const crate::shadow::Shadow,
}

// SAFETY: see the struct-level safety contract — all aliasing is
// partitioned per chunk / per arc; `P: Process` already bounds the
// payloads (`Message: Send + Sync`, state `Send`).
#[allow(unsafe_code)]
unsafe impl<P: Process> Sync for RoundShared<'_, P> {}

impl<P: Process> RoundShared<'_, P> {
    /// The node range `[lo, hi)` owned by chunk `ci`.
    #[inline]
    fn range(&self, ci: usize) -> (usize, usize) {
        let lo = ci * self.chunk;
        (lo.min(self.n), (lo + self.chunk).min(self.n))
    }

    /// Index of arc `arc`'s slot in outbox buffer `buf`.
    #[inline]
    fn slot(&self, buf: usize, arc: usize) -> usize {
        buf * self.arcs + arc
    }

    /// Records that chunk `ci` writes indices `at` of `table` in this
    /// round. Debug builds panic if another chunk wrote one of them in
    /// the same round; release builds compile the call out.
    #[inline(always)]
    #[allow(unsafe_code)]
    fn claim(&self, table: Table, at: std::ops::Range<usize>, ci: usize) {
        // SAFETY: the shadow lives in the `RunState` this pass borrows
        // and is only read (atomically) while the pass runs.
        #[cfg(debug_assertions)]
        for i in at {
            unsafe { (*self.shadow).claim(table, i, ci) };
        }
        #[cfg(not(debug_assertions))]
        let _ = (table, at, ci);
    }

    /// Pulls node `v`'s inbox — the previous round's messages on its arcs
    /// — into `inbox`, in ascending sender id order: each sender's
    /// broadcast record, then, if the record says it also sent port by
    /// port, its slot and (after a round with spills) its spills on the
    /// same arc — send order, the ordering the `Process` contract
    /// promises. A record of another round is stale and skipped, so a
    /// sender that halts (and never writes its record again) cannot
    /// deliver one message twice; taking the slot empties it. Accumulates
    /// the receive volume.
    ///
    /// # Safety
    ///
    /// Only chunk `ci`, the owner of `v`, may call this, at most once per
    /// round (the [`RoundShared`] contract).
    #[allow(unsafe_code)]
    unsafe fn pull(&self, v: NodeId, ci: usize, inbox: &mut Vec<Envelope<P::Message>>) {
        let prev = self.cur ^ 1;
        let sent = self.round - 1;
        let varc = self.g.csr_offset(v);
        for i in 0..self.g.degree(v) {
            let p = match self.order {
                Some(order) => order[varc + i] as usize,
                None => i,
            };
            let (u, _) = self.g.arc(varc + p);
            // SAFETY: the previous buffer's records are read-only here.
            let record = unsafe { &*self.records.add(prev * self.n + u) };
            if record.round != sent {
                continue;
            }
            if let Some(msg) = &record.broadcast {
                inbox.push(Envelope {
                    src: u,
                    port: p,
                    msg: msg.clone(),
                });
            }
            if !record.unicast {
                continue;
            }
            // The sender-side slot of the shared edge, one load away.
            let uarc = self.g.rev_arc(varc + p);
            let at = self.slot(prev, uarc);
            self.claim(Table::OutSlot, at..at + 1, ci);
            // SAFETY: slot `at` is addressed to `v` alone (contract,
            // second point).
            if let Some(msg) = unsafe { (*self.out_slots.add(at)).take() } {
                inbox.push(Envelope {
                    src: u,
                    port: p,
                    msg,
                });
            }
            if !self.spilled {
                continue;
            }
            // SAFETY: the previous buffer's spills are read-only here.
            let spill = unsafe { &*self.out_spill.add(prev * self.n + u) };
            if !spill.is_empty() {
                // Spill entries name the sender-side port.
                let up = (uarc - self.g.csr_offset(u)) as u32;
                inbox.extend(
                    spill
                        .iter()
                        .filter(|(sport, _)| *sport == up)
                        .map(|(_, msg)| Envelope {
                            src: u,
                            port: p,
                            msg: msg.clone(),
                        }),
                );
            }
        }
        if self.audit && !inbox.is_empty() {
            // SAFETY: `v`'s volume entries belong to `v`'s chunk.
            unsafe {
                *self.vol_msgs_recv.add(v) += inbox.len() as u64;
                *self.vol_bits_recv.add(v) +=
                    inbox.iter().map(|e| e.msg.size_bits() as u64).sum::<u64>();
            }
        }
    }
}

/// **The round pass**: activates every awake node of chunk `ci` (`init`
/// at round 0) — pull, step, audit, as the module docs lay out. A node's
/// arc slots are cleared by its own first port-by-port send of the
/// activation ([`Ctx::send`]), which is what lets a later send read an
/// occupied slot as a second message on its port, never as a stale one.
/// See [`RoundShared`] for the aliasing contract.
#[allow(unsafe_code)]
fn step_chunk<P: Process>(sh: &RoundShared<'_, P>, ci: usize) {
    let (lo, hi) = sh.range(ci);
    // SAFETY: chunk `ci` owns nodes `lo..hi` — their per-node entries,
    // their records and arc ranges of this round's buffer — and per-chunk
    // buffer `ci`; `pull` touches the previous buffer only as the
    // contract allows.
    unsafe {
        let events = &mut *sh.events.add(ci);
        let fresh = &mut *sh.fresh_halts.add(ci);
        let spills = &mut *sh.spill_nodes.add(ci);
        let inbox = &mut *sh.scratch.add(ci);
        let part = &mut *sh.tallies.add(ci);
        let sleeps = &mut *sh.sleep_requests.add(ci);
        let wakes = &mut *sh.wakes.add(ci);
        *part = ChunkTally::default();
        let sleeping = &*sh.sleeping;
        // A local, so the count can live in a register.
        let mut activations = 0;
        (*sh.halted_bits).for_each_zero_in_union(sleeping, lo, hi, |v| {
            sh.claim(Table::Node, v..v + 1, ci);
            activations += 1;
            inbox.clear();
            if sh.round > 0 {
                sh.pull(v, ci, inbox);
            }
            let deg = sh.g.degree(v);
            let varc = sh.g.csr_offset(v);
            let at = sh.slot(sh.cur, varc);
            let out = std::slice::from_raw_parts_mut(sh.out_slots.add(at), deg);
            let spill = &mut *sh.out_spill.add(sh.cur * sh.n + v);
            debug_assert!(spill.is_empty(), "spill of node {v} not drained");
            let record = &mut *sh.records.add(sh.cur * sh.n + v);
            let mut halted = false;
            let mut sleep: Round = 0;
            let mut ctx = Ctx {
                id: v,
                round: sh.round,
                graph: sh.g,
                max_degree: sh.max_degree,
                rng: &mut *sh.rngs.add(v),
                out_slots: &mut *out,
                out_spill: &mut *spill,
                record: &mut *record,
                events,
                halted: &mut halted,
                sleep: &mut sleep,
            };
            let proc_slot = &mut *sh.processes.add(v);
            if sh.round == 0 {
                *proc_slot = Some(P::init(sh.params, &mut ctx));
            } else {
                proc_slot
                    .as_mut()
                    .expect("process exists after init")
                    .round(&mut ctx, inbox);
            }
            if record.round == sh.round {
                if record.unicast {
                    sh.claim(Table::OutSlot, at..at + deg, ci);
                    if !spill.is_empty() {
                        spills.push(v);
                    }
                }
                if sh.audit {
                    // Every send counts, including those toward receivers
                    // that have halted and will never pull them: a
                    // recorded broadcast is one message per neighbor.
                    if let Some(msg) = &record.broadcast {
                        let bits = msg.size_bits();
                        part.max_bits = part.max_bits.max(bits);
                        part.messages += deg;
                        *sh.vol_msgs_sent.add(v) += deg as u64;
                        *sh.vol_bits_sent.add(v) += (deg * bits) as u64;
                    }
                    if record.unicast {
                        for msg in out.iter().flatten().chain(spill.iter().map(|(_, m)| m)) {
                            let bits = msg.size_bits();
                            part.max_bits = part.max_bits.max(bits);
                            part.messages += 1;
                            *sh.vol_msgs_sent.add(v) += 1;
                            *sh.vol_bits_sent.add(v) += bits as u64;
                        }
                    }
                }
                if sh.any_asleep {
                    // A sleeper must wake to pull this. A broadcast
                    // reaches every port; spills ride on ports whose slot
                    // is occupied, so the slots cover the rest.
                    let all = record.broadcast.is_some();
                    for (p, slot) in out.iter().enumerate() {
                        if all || record.unicast && slot.is_some() {
                            let (u, _) = sh.g.arc(varc + p);
                            if sleeping.get(u) {
                                wakes.push(u);
                            }
                        }
                    }
                }
            }
            if halted {
                fresh.push(v);
            } else if sleep > sh.round + 1 {
                sleeps.push((v, sleep));
            }
        });
        part.activations = activations;
    }
}

/// Runs `f` over every chunk index: inline when no pool is engaged
/// (sequential and single-chunk runs), otherwise fanned out over the
/// persistent pool (the driving thread participates).
fn dispatch(pool: Option<&WorkerPool>, limit: usize, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    match pool {
        Some(p) if chunks > 1 => p.run(chunks, limit, f),
        _ => {
            for ci in 0..chunks {
                f(ci);
            }
        }
    }
}

/// Resolves a thread count with the `0 = all available cores` convention
/// of [`Exec::Parallel`], falling back to one thread when the core count
/// is unknown. Command-line `--threads` flags resolve through it too.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
}

/// Below this node count the parallel executor falls back to the
/// sequential loop — chunking overhead would dominate. Exported so tests
/// asserting that the parallel executor really ran can size their
/// instances against the actual threshold instead of a copied magic
/// number. An explicit [`RunSpec::chunk_nodes`] overrides the fallback:
/// the chunked path then runs at any instance size (the
/// scheduler-adversarial determinism tests rely on this).
pub const PARALLEL_MIN_NODES: usize = 256;

/// Chunk geometry when none is forced: about four chunks per thread (the
/// cursor-race scheduling in the pool then smooths load imbalance),
/// rounded up to whole 64-bit bitset words so no word of the halted
/// bitset straddles a chunk boundary.
fn default_chunk(n: usize, threads: usize) -> usize {
    let target = n.div_ceil(threads.max(1) * 4).max(64);
    target.div_ceil(64) * 64
}

fn run_with_threads<P: Process>(
    g: &Graph,
    params: &P::Params,
    spec: &RunSpec,
    threads: usize,
    state: &mut RunState<P>,
    pool: &mut Option<WorkerPool>,
) -> Transcript<P::NodeOutput, P::EdgeOutput> {
    let n = g.n();
    // The chunk geometry is fixed for the whole run: small instances and
    // one-thread configs run as a single chunk unless an explicit chunk
    // size forces the chunked path.
    let chunked = match spec.chunk_nodes {
        Some(_) => true,
        None => threads > 1 && n >= PARALLEL_MIN_NODES,
    };
    let chunk = match spec.chunk_nodes {
        Some(c) => c.max(1),
        None if chunked => default_chunk(n, threads),
        None => n.max(1),
    };
    let chunks = if chunked { n.div_ceil(chunk).max(1) } else { 1 };
    // Acquire worker threads: the workspace's resident pool, grown if
    // this run wants more workers than it has. `threads` counts the
    // driver, so a `threads = t` run keeps `t - 1` workers grabbing chunks.
    let workers = if chunks > 1 {
        threads.saturating_sub(1)
    } else {
        0
    };
    let pool: Option<&WorkerPool> = if workers > 0 {
        if pool.as_ref().is_none_or(|p| p.workers() < workers) {
            *pool = Some(WorkerPool::new(workers));
        }
        pool.as_ref()
    } else {
        None
    };
    state.reset(g, spec.seed, chunks, spec.transcript);
    let max_degree = g.max_degree();
    // An inbox pull walks senders in ascending id order; for
    // insertion-ordered adjacencies that is a cached permutation.
    let order = g.sorted_port_order();

    let mut round: Round = 0;
    loop {
        {
            let sh = state.round_shared(g, params, order, round, max_degree, chunk);
            dispatch(pool, workers, chunks, &|ci| step_chunk::<P>(&sh, ci));
        }
        state.apply_events(round);
        let (messages, round_max_bits) = state.collect_audit();
        state.record_halts(round);
        if state.audit {
            state.transcript.messages_sent += messages;
            state.transcript.max_message_bits.push(round_max_bits);
        }
        if state.record_halt_rounds {
            state.transcript.live_after_round.push(state.live);
        }
        state.drain_spills(round);
        if state.all_halted() {
            break;
        }
        state.settle_sleep(g, round, spec.max_rounds);
        round += 1;
        assert!(
            round <= spec.max_rounds,
            "algorithm exceeded max_rounds={} without halting",
            spec.max_rounds
        );
    }
    state.transcript.rounds = round;
    // Hand the ledger to the caller; the arenas stay behind for reuse.
    std::mem::replace(
        &mut state.transcript,
        Transcript::empty(P::OUTPUT_KIND, 0, 0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use localavg_graph::gen;

    /// Runs `P` under `spec` on a fresh workspace.
    fn run<P: Process + 'static>(
        spec: &RunSpec,
        g: &Graph,
        params: &P::Params,
    ) -> Transcript<P::NodeOutput, P::EdgeOutput> {
        spec.run_in::<P>(g, params, &mut Workspace::new())
    }

    /// Every node floods the maximum id it has seen for `radius` rounds,
    /// then commits it. Classic LOCAL warm-up; lets us test delivery,
    /// rounds, ports, and both executors.
    struct MaxFlood {
        best: u64,
        radius: usize,
    }

    impl Process for MaxFlood {
        type Message = u64;
        type NodeOutput = u64;
        type EdgeOutput = ();
        type Params = usize; // radius

        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

        fn init(radius: &usize, ctx: &mut Ctx<'_, Self>) -> Self {
            ctx.broadcast(ctx.id() as u64);
            MaxFlood {
                best: ctx.id() as u64,
                radius: *radius,
            }
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<u64>]) {
            for env in inbox {
                self.best = self.best.max(env.msg);
            }
            if ctx.round() < self.radius {
                ctx.broadcast(self.best);
            } else {
                ctx.commit_node(self.best);
                ctx.halt();
            }
        }
    }

    const RADIUS: usize = 3;

    #[test]
    fn flood_reaches_radius() {
        let g = gen::path(8);
        let t = run::<MaxFlood>(&RunSpec::new(1), &g, &RADIUS);
        // After 3 rounds of flooding, node 0 has seen ids up to distance 3.
        assert_eq!(t.node_output[0], Some(3));
        assert_eq!(t.node_output[4], Some(7));
        assert_eq!(t.rounds, 3);
        assert!(t.all_nodes_committed());
        assert!(t.is_complete());
        // Everyone committed at round 3 and halted at round 3.
        assert!(t.node_commit_round.iter().all(|&r| r == 3));
        assert!(t.node_halt_round.iter().all(|&r| r == 3));
    }

    #[test]
    fn congest_accounting() {
        let g = gen::cycle(6);
        let t = run::<MaxFlood>(&RunSpec::new(2), &g, &RADIUS);
        assert_eq!(t.peak_message_bits(), Some(64));
        // 6 nodes broadcast to 2 neighbors for rounds 0..=2 (round 3 commits).
        assert_eq!(t.messages_sent, 6 * 2 * 3);
        // Per-node volume: every node sends and receives 2 messages per
        // flooding round, 64 bits each; the columns sum to the totals.
        assert_eq!(t.node_messages_sent, vec![2 * 3; 6]);
        assert_eq!(t.node_messages_recv, vec![2 * 3; 6]);
        assert_eq!(t.node_bits_sent, vec![2 * 3 * 64; 6]);
        assert_eq!(t.node_bits_recv, vec![2 * 3 * 64; 6]);
        assert_eq!(
            t.node_messages_sent.iter().sum::<u64>(),
            t.messages_sent as u64
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = gen::grid(8, 9);
        let spec = RunSpec::new(7);
        let a = run::<MaxFlood>(&spec, &g, &RADIUS);
        let b = run::<MaxFlood>(&spec.with_exec(Exec::Parallel { threads: 4 }), &g, &RADIUS);
        assert_eq!(a.node_output, b.node_output);
        assert_eq!(a.node_commit_round, b.node_commit_round);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages_sent, b.messages_sent);
    }

    /// A randomized process: commits a coin flip at round 0. Used to verify
    /// per-node randomness is a function of (seed, id) only.
    struct CoinFlip;

    impl Process for CoinFlip {
        type Message = ();
        type NodeOutput = bool;
        type EdgeOutput = ();
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

        fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            let flip = ctx.rng().chance(0.5);
            ctx.commit_node(flip);
            ctx.halt();
            CoinFlip
        }

        fn round(&mut self, _ctx: &mut Ctx<'_, Self>, _inbox: &[Envelope<()>]) {
            unreachable!("halted at init");
        }
    }

    #[test]
    fn randomness_is_seed_deterministic() {
        let g = gen::cycle(32);
        let a = run::<CoinFlip>(&RunSpec::new(5), &g, &());
        let b = run::<CoinFlip>(
            &RunSpec::new(5).with_exec(Exec::Parallel { threads: 3 }),
            &g,
            &(),
        );
        let c = run::<CoinFlip>(&RunSpec::new(6), &g, &());
        assert_eq!(a.node_output, b.node_output);
        assert_ne!(a.node_output, c.node_output);
        assert_eq!(a.rounds, 0, "0-round algorithm");
    }

    /// Edge-labelling process: each edge is committed by its lower-id
    /// endpoint with label = sum of endpoint ids; the higher endpoint
    /// commits the same label one round later (consistency check).
    struct EdgeLabel;

    #[derive(Debug, Clone, PartialEq)]
    struct NoMsg;
    impl MessageSize for NoMsg {
        fn size_bits(&self) -> usize {
            0
        }
    }

    impl Process for EdgeLabel {
        type Message = NoMsg;
        type NodeOutput = ();
        type EdgeOutput = u64;
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::EdgeLabels;

        fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            for port in ctx.ports() {
                let u = ctx.neighbor_id(port);
                if ctx.id() < u {
                    let label = (ctx.id() + u) as u64;
                    ctx.commit_edge(port, label);
                }
            }
            EdgeLabel
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Self>, _inbox: &[Envelope<NoMsg>]) {
            for port in ctx.ports() {
                let u = ctx.neighbor_id(port);
                if ctx.id() > u {
                    let label = (ctx.id() + u) as u64;
                    ctx.commit_edge(port, label);
                }
            }
            ctx.halt();
        }
    }

    #[test]
    fn edge_commits_record_earliest_round_and_agree() {
        let g = gen::path(4);
        let t = run::<EdgeLabel>(&RunSpec::new(1), &g, &());
        assert!(t.all_edges_committed());
        // Lower endpoint committed at round 0; duplicate commit at round 1
        // must not move the recorded round.
        assert!(t.edge_commit_round.iter().all(|&r| r == 0));
        let labels = t.edge_labels();
        for (e, u, v) in g.edges() {
            assert_eq!(labels[e], (u + v) as u64);
        }
        assert_eq!(t.kind, OutputKind::EdgeLabels);
    }

    /// Conflicting edge labels must panic.
    struct BadEdgeLabel;

    impl Process for BadEdgeLabel {
        type Message = NoMsg;
        type NodeOutput = ();
        type EdgeOutput = u64;
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::EdgeLabels;

        fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            for port in ctx.ports() {
                ctx.commit_edge(port, ctx.id() as u64); // endpoints disagree
            }
            ctx.halt();
            BadEdgeLabel
        }

        fn round(&mut self, _: &mut Ctx<'_, Self>, _: &[Envelope<NoMsg>]) {}
    }

    #[test]
    #[should_panic(expected = "conflicting labels")]
    fn conflicting_edge_commit_panics() {
        let g = gen::path(2);
        let _ = run::<BadEdgeLabel>(&RunSpec::new(1), &g, &());
    }

    /// A process that never halts must trip the round cap.
    struct Forever;
    impl Process for Forever {
        type Message = ();
        type NodeOutput = ();
        type EdgeOutput = ();
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;
        fn init(_: &(), _: &mut Ctx<'_, Self>) -> Self {
            Forever
        }
        fn round(&mut self, _: &mut Ctx<'_, Self>, _: &[Envelope<()>]) {}
    }

    #[test]
    #[should_panic(expected = "max_rounds")]
    fn round_cap_panics() {
        let g = gen::path(3);
        let _ = run::<Forever>(&RunSpec::new(1).with_max_rounds(10), &g, &());
    }

    #[test]
    fn empty_graph_trivial_run() {
        let g = Graph::empty(0);
        let t = run::<CoinFlip>(&RunSpec::new(1), &g, &());
        assert_eq!(t.rounds, 0);
        assert!(t.is_complete());
    }

    #[test]
    fn config_builders() {
        let spec = RunSpec::new(3)
            .with_seed(4)
            .with_exec(Exec::Parallel { threads: 2 })
            .with_max_rounds(99)
            .with_transcript(TranscriptPolicy::None)
            .with_chunk_nodes(Some(5));
        assert_eq!(spec.seed, 4);
        assert_eq!(spec.exec, Exec::Parallel { threads: 2 });
        assert_eq!(spec.max_rounds, 99);
        assert_eq!(spec.transcript, TranscriptPolicy::None);
        assert_eq!(spec.chunk_nodes, Some(5));
    }

    /// The defaults of `RunSpec::new`: one sequential executor, the full
    /// transcript, no forced chunking. (`RunSpec` also
    /// holds what the former `SimConfig` carried, hence the name.)
    #[test]
    fn run_spec_builders_and_sim_config() {
        let defaults = RunSpec::new(3);
        assert_eq!(defaults.seed, 3);
        assert_eq!(defaults.exec, Exec::Sequential);
        assert_eq!(defaults.max_rounds, 1_000_000);
        assert_eq!(defaults.transcript, TranscriptPolicy::Full);
        assert_eq!(defaults.chunk_nodes, None);
        // Each setter changes its own field only.
        let spec = defaults.with_max_rounds(50);
        assert_eq!(spec.seed, 3);
        assert_eq!(spec.exec, Exec::Sequential);
        assert_eq!(spec.max_rounds, 50);
        assert_eq!(spec.transcript, TranscriptPolicy::Full);
        assert_eq!(spec.chunk_nodes, None);
    }

    #[test]
    fn transcript_policy_drops_only_what_it_promises() {
        let g = gen::grid(6, 6);
        let full = run::<MaxFlood>(&RunSpec::new(5), &g, &RADIUS);
        let completions = run::<MaxFlood>(
            &RunSpec::new(5).with_transcript(TranscriptPolicy::CompletionsOnly),
            &g,
            &RADIUS,
        );
        let none = run::<MaxFlood>(
            &RunSpec::new(5).with_transcript(TranscriptPolicy::None),
            &g,
            &RADIUS,
        );
        // Outputs and commit clocks survive every policy.
        for t in [&completions, &none] {
            assert_eq!(t.node_output, full.node_output);
            assert_eq!(t.node_commit_round, full.node_commit_round);
            assert_eq!(t.rounds, full.rounds);
            assert!(t.is_complete());
            // The CONGEST audit is gone below Full — including the
            // per-node volume columns — and the peak reports "unaudited".
            assert!(t.max_message_bits.is_empty());
            assert_eq!(t.messages_sent, 0);
            assert!(!t.audited());
            assert_eq!(t.peak_message_bits(), None);
            assert!(t.node_messages_sent.is_empty());
            assert!(t.node_bits_sent.is_empty());
            assert!(t.node_messages_recv.is_empty());
            assert!(t.node_bits_recv.is_empty());
        }
        assert!(full.messages_sent > 0);
        assert!(!full.max_message_bits.is_empty());
        assert_eq!(
            full.node_messages_sent.iter().sum::<u64>(),
            full.messages_sent as u64
        );
        // Halt clocks survive CompletionsOnly but not None, and the
        // live-frontier ledger travels with them.
        assert_eq!(completions.node_halt_round, full.node_halt_round);
        assert_eq!(completions.live_after_round, full.live_after_round);
        assert_eq!(full.live_after_round.len(), full.rounds as usize + 1);
        assert!(none.node_halt_round.iter().all(|&r| r == UNCOMMITTED));
        assert!(none.live_after_round.is_empty());
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_runs() {
        let g = gen::grid(8, 9);
        let mut ws = Workspace::new();
        let spec = RunSpec::new(7);
        let first = spec.run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
        let reused = spec.run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
        let fresh = run::<MaxFlood>(&spec, &g, &RADIUS);
        assert_eq!(ws.run_count(), 2);
        assert_eq!(ws.reuse_count(), 1);
        assert_eq!(first.node_output, fresh.node_output);
        assert_eq!(reused.node_output, fresh.node_output);
        assert_eq!(reused.node_commit_round, fresh.node_commit_round);
        assert_eq!(reused.node_halt_round, fresh.node_halt_round);
        assert_eq!(reused.max_message_bits, fresh.max_message_bits);
        assert_eq!(reused.messages_sent, fresh.messages_sent);
        assert_eq!(reused.node_messages_sent, fresh.node_messages_sent);
        assert_eq!(reused.node_bits_sent, fresh.node_bits_sent);
        assert_eq!(reused.node_messages_recv, fresh.node_messages_recv);
        assert_eq!(reused.node_bits_recv, fresh.node_bits_recv);
        // A different seed through the same arenas still matches fresh.
        let other_ws = spec.with_seed(9).run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
        let other = run::<MaxFlood>(&RunSpec::new(9), &g, &RADIUS);
        assert_eq!(other_ws.node_output, other.node_output);
    }

    #[test]
    fn workspace_handles_shape_changes_and_many_process_types() {
        let small = gen::path(6);
        let big = gen::grid(7, 7);
        let mut ws = Workspace::new();
        let spec = RunSpec::new(2);
        let _ = spec.run_in::<MaxFlood>(&small, &RADIUS, &mut ws);
        let _ = spec.run_in::<CoinFlip>(&small, &(), &mut ws);
        assert_eq!(ws.arena_count(), 2);
        // Shape change flushes the stored arenas, then runs fine.
        let on_big = spec.run_in::<MaxFlood>(&big, &RADIUS, &mut ws);
        assert_eq!(ws.arena_count(), 1);
        assert_eq!(
            on_big.node_output,
            run::<MaxFlood>(&spec, &big, &RADIUS).node_output
        );
        // Back to the small shape: flush again, still correct.
        let back = spec.run_in::<MaxFlood>(&small, &RADIUS, &mut ws);
        assert_eq!(
            back.node_output,
            run::<MaxFlood>(&spec, &small, &RADIUS).node_output
        );
    }

    #[test]
    fn workspace_reuse_after_an_aborted_run_is_clean() {
        // A run that panics mid-round leaves messages behind in *both*
        // outbox buffers: this round's sends of the nodes activated
        // before the panic, and last round's sends to the nodes after it,
        // which never pulled them. Reusing the workspace afterwards — for
        // the same process type, hence the same arena slot — must behave
        // exactly like a fresh run: stale sends must not be delivered. In
        // the clean runs every third node halts in round 0, so it never
        // writes buffer 1 again; only the reset, which makes every
        // broadcast record stale, keeps the aborted run's leftovers there
        // from being delivered. Odd nodes send port by port and even
        // ones broadcast, so the leftovers sit in records and arc slots.
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// The round in which node 5 panics; 0 runs clean.
        static POISON: AtomicUsize = AtomicUsize::new(0);

        /// Sends its round number plus one to every neighbor in rounds 0
        /// to 2 and commits the sum of everything it received in round 3.
        struct MidRoundPanic {
            sum: u64,
        }
        fn send_all(ctx: &mut Ctx<'_, MidRoundPanic>, msg: u64) {
            if ctx.id() % 2 == 1 {
                for port in ctx.ports() {
                    ctx.send(port, msg);
                }
            } else {
                ctx.broadcast(msg);
            }
        }
        impl Process for MidRoundPanic {
            type Message = u64;
            type NodeOutput = u64;
            type EdgeOutput = ();
            type Params = ();
            const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;
            fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
                send_all(ctx, 1);
                if POISON.load(Ordering::Relaxed) == 0 && ctx.id().is_multiple_of(3) {
                    ctx.commit_node(0);
                    ctx.halt();
                }
                MidRoundPanic { sum: 0 }
            }
            fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<u64>]) {
                self.sum += inbox.iter().map(|e| e.msg).sum::<u64>();
                let r = ctx.round();
                if r < 3 {
                    send_all(ctx, r as u64 + 1);
                    assert!(
                        !(POISON.load(Ordering::Relaxed) == r && ctx.id() == 5),
                        "poisoned node"
                    );
                } else {
                    ctx.commit_node(self.sum);
                    ctx.halt();
                }
            }
        }

        let g = gen::grid(6, 6); // node 5 exists; sequential id order
        let mut ws = Workspace::new();
        let spec = RunSpec::new(4);
        // An odd and an even round: the abort leaves the fresher sends in
        // buffer 1 and buffer 0 respectively.
        for poison in [1, 2] {
            POISON.store(poison, Ordering::Relaxed);
            let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = spec.run_in::<MidRoundPanic>(&g, &(), &mut ws);
            }));
            assert!(
                aborted.is_err(),
                "the run poisoned in round {poison} must panic"
            );
            POISON.store(0, Ordering::Relaxed);
            let reused = spec.run_in::<MidRoundPanic>(&g, &(), &mut ws);
            let fresh = run::<MidRoundPanic>(&spec, &g, &());
            assert_eq!(
                reused, fresh,
                "stale sends after an abort in round {poison}"
            );
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_across_executors_and_policies() {
        let g = gen::grid(17, 17); // big enough to really chunk
        assert!(g.n() >= PARALLEL_MIN_NODES);
        let mut ws = Workspace::new();
        for policy in [
            TranscriptPolicy::Full,
            TranscriptPolicy::CompletionsOnly,
            TranscriptPolicy::None,
        ] {
            for exec in [Exec::Sequential, Exec::Parallel { threads: 3 }] {
                let spec = RunSpec::new(11).with_exec(exec).with_transcript(policy);
                let reused = spec.run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
                let fresh = run::<MaxFlood>(&spec, &g, &RADIUS);
                assert_eq!(reused.node_output, fresh.node_output);
                assert_eq!(reused.node_commit_round, fresh.node_commit_round);
                assert_eq!(reused.node_halt_round, fresh.node_halt_round);
                assert_eq!(reused.max_message_bits, fresh.max_message_bits);
                assert_eq!(reused.node_messages_sent, fresh.node_messages_sent);
                assert_eq!(reused.node_bits_recv, fresh.node_bits_recv);
            }
        }
        assert_eq!(ws.reuse_count(), 5);
    }

    /// Nodes halt in waves (round `id % 5`), never sending — a pure
    /// frontier-decay workload for the live ledger.
    struct Staircase;

    impl Process for Staircase {
        type Message = ();
        type NodeOutput = u64;
        type EdgeOutput = ();
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

        fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            ctx.commit_node(ctx.id() as u64);
            if ctx.id().is_multiple_of(5) {
                ctx.halt();
            }
            Staircase
        }
        fn round(&mut self, ctx: &mut Ctx<'_, Self>, _: &[Envelope<()>]) {
            if ctx.round() >= (ctx.id() % 5) as Round {
                ctx.halt();
            }
        }
    }

    #[test]
    fn live_ledger_matches_a_recount_from_halt_rounds() {
        let g = gen::grid(6, 7);
        let t = run::<Staircase>(&RunSpec::new(3), &g, &());
        assert_eq!(t.rounds, 4);
        assert_eq!(t.live_after_round.len(), 5);
        // Monotone non-increasing, ending at zero.
        assert!(t.live_after_round.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(*t.live_after_round.last().unwrap(), 0);
        // Every entry recomputes from the per-node termination ledger.
        for (r, &live) in t.live_after_round.iter().enumerate() {
            let recount = t
                .node_halt_round
                .iter()
                .filter(|&&h| h > r as Round)
                .count();
            assert_eq!(live, recount, "live count at round {r}");
        }
    }

    #[test]
    fn chunk_geometry_never_changes_the_transcript() {
        // Small enough that the default geometry is a single chunk: the
        // explicit override is what forces the chunked path here.
        let g = gen::grid(6, 6);
        let baseline = run::<MaxFlood>(&RunSpec::new(5), &g, &RADIUS);
        assert!(g.n() < PARALLEL_MIN_NODES);
        for chunk in [1, 3, 7, 36, 1000] {
            for threads in [0, 1, 2, 8] {
                let spec = RunSpec::new(5)
                    .with_exec(Exec::Parallel { threads })
                    .with_chunk_nodes(Some(chunk));
                let t = run::<MaxFlood>(&spec, &g, &RADIUS);
                assert_eq!(
                    t, baseline,
                    "transcript drift at chunk={chunk} threads={threads}"
                );
            }
        }
    }

    /// Halt round of node `v` in the spill test: nodes leave in waves.
    fn chatter_halt(v: NodeId) -> Round {
        2 + (v % 4) as Round
    }

    /// How many messages `u` sends to neighbor `v` in round `r` of the
    /// spill test: at most one on even rounds (no spills, so the next
    /// round's pulls take the spill-free path), one to three on odd rounds
    /// (the second and third send on a port spill).
    fn chatter_count(u: NodeId, v: NodeId, r: Round) -> usize {
        if r.is_multiple_of(2) {
            usize::from(!(u + v + r).is_multiple_of(3))
        } else {
            1 + (7 * u + 3 * v + r) % 3
        }
    }

    fn chatter_msg(u: NodeId, r: Round, seq: usize) -> u64 {
        (u as u64) << 32 | (r as u64) << 16 | seq as u64
    }

    /// Sends `chatter_count` messages to every neighbor every round, up
    /// to and including its halt round, and checks each inbox against
    /// the plan: ascending sender, then that sender's messages in send
    /// order (slot first, then spills). Outputs (messages received,
    /// largest inbox minus degree).
    struct Chatter {
        received: u64,
        max_excess: i64,
    }

    impl Chatter {
        fn send_all(ctx: &mut Ctx<'_, Self>) {
            let (u, r) = (ctx.id(), ctx.round());
            for port in ctx.ports() {
                let v = ctx.neighbor_id(port);
                for seq in 0..chatter_count(u, v, r) {
                    ctx.send(port, chatter_msg(u, r, seq));
                }
            }
        }
    }

    impl Process for Chatter {
        type Message = u64;
        type NodeOutput = (u64, i64);
        type EdgeOutput = ();
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

        fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            Self::send_all(ctx);
            Chatter {
                received: 0,
                max_excess: i64::MIN,
            }
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<u64>]) {
            let (v, r) = (ctx.id(), ctx.round());
            let mut senders: Vec<(NodeId, usize)> =
                ctx.ports().map(|p| (ctx.neighbor_id(p), p)).collect();
            senders.sort_unstable();
            let expect: Vec<(NodeId, usize, u64)> = senders
                .into_iter()
                .filter(|&(u, _)| chatter_halt(u) >= r - 1)
                .flat_map(|(u, p)| {
                    (0..chatter_count(u, v, r - 1)).map(move |s| (u, p, chatter_msg(u, r - 1, s)))
                })
                .collect();
            let got: Vec<_> = inbox.iter().map(|e| (e.src, e.port, e.msg)).collect();
            assert_eq!(got, expect, "inbox of node {v} in round {r}");
            self.received += inbox.len() as u64;
            self.max_excess = self
                .max_excess
                .max(inbox.len() as i64 - ctx.degree() as i64);
            Self::send_all(ctx);
            if r == chatter_halt(v) {
                ctx.commit_node((self.received, self.max_excess));
                ctx.halt();
            }
        }
    }

    #[test]
    fn spills_deliver_in_order_on_every_chunk_geometry() {
        let mut rng = Rng::seed_from(3);
        let regular = gen::random_regular(30, 4, &mut rng).expect("4-regular graph");
        assert!(regular.sorted_port_order().is_some(), "unsorted adjacency");
        for g in [gen::grid(5, 6), regular] {
            // The plan covers the three spill cases: a spill-free round
            // next to spilling ones, an inbox past its degree, and a
            // spill toward a receiver that halts in the round it is sent.
            let spill_to_halting = g.edges().any(|(_, a, b)| {
                [(a, b), (b, a)].into_iter().any(|(u, v)| {
                    let r = chatter_halt(v);
                    chatter_halt(u) >= r && chatter_count(u, v, r) >= 2
                })
            });
            assert!(spill_to_halting);
            let sent: usize = g
                .nodes()
                .flat_map(|u| {
                    let g = &g;
                    (0..=chatter_halt(u))
                        .flat_map(move |r| g.neighbor_ids(u).map(move |v| chatter_count(u, v, r)))
                })
                .sum();

            let baseline = run::<Chatter>(&RunSpec::new(1), &g, &());
            assert_eq!(baseline.rounds, 5);
            assert_eq!(baseline.messages_sent, sent);
            let outputs: Vec<(u64, i64)> = baseline.node_output.iter().flatten().copied().collect();
            assert_eq!(outputs.len(), g.n());
            assert!(
                outputs.iter().any(|&(_, excess)| excess > 0),
                "no inbox overflowed"
            );
            let received: Vec<u64> = outputs.iter().map(|&(k, _)| k).collect();
            assert_eq!(baseline.node_messages_recv, received);
            for chunk in [1, 3, g.n()] {
                for threads in [1, 2] {
                    let spec = RunSpec::new(1)
                        .with_exec(Exec::Parallel { threads })
                        .with_chunk_nodes(Some(chunk));
                    let t = run::<Chatter>(&spec, &g, &());
                    assert_eq!(
                        t, baseline,
                        "transcript drift at chunk={chunk} threads={threads}"
                    );
                }
            }
        }
    }

    /// Halt round of node `v` in the farewell test: a third of the nodes
    /// halts in round 0, a third in round 1, and the rest stays live
    /// until round 5, three rounds past the last farewell it receives.
    fn farewell_halt(v: NodeId) -> Round {
        [0, 1, 5][v % 3]
    }

    /// Copies of its farewell that quitter `u` sends to neighbor `v`:
    /// two (the second spills) from the quitters with ids 0 or 1 mod 4
    /// toward nodes that stay live, one otherwise.
    fn farewell_copies(u: NodeId, v: NodeId) -> usize {
        if u % 4 < 2 && farewell_halt(v) == 5 {
            2
        } else {
            1
        }
    }

    /// Quitters broadcast a farewell in their halt round and halt; the
    /// others never send. Every inbox is checked against the plan, so a
    /// halted sender's messages must arrive exactly once — in the round
    /// after its halt, and never again while the receiver keeps pulling
    /// the same outbox buffer every other round. Outputs the number of
    /// messages received.
    struct Farewell {
        received: u64,
    }

    impl Farewell {
        fn step(&mut self, ctx: &mut Ctx<'_, Self>) {
            let u = ctx.id();
            let halt = farewell_halt(u);
            if ctx.round() < halt {
                return;
            }
            if halt < 5 {
                for port in ctx.ports() {
                    for seq in 0..farewell_copies(u, ctx.neighbor_id(port)) {
                        ctx.send(port, (u as u64) << 8 | seq as u64);
                    }
                }
            }
            ctx.commit_node(self.received);
            ctx.halt();
        }
    }

    impl Process for Farewell {
        type Message = u64;
        type NodeOutput = u64;
        type EdgeOutput = ();
        type Params = ();
        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

        fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            let mut node = Farewell { received: 0 };
            node.step(ctx);
            node
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<u64>]) {
            let (v, r) = (ctx.id(), ctx.round());
            let mut senders: Vec<(NodeId, usize)> =
                ctx.ports().map(|p| (ctx.neighbor_id(p), p)).collect();
            senders.sort_unstable();
            let expect: Vec<(NodeId, usize, u64)> = senders
                .into_iter()
                .filter(|&(u, _)| farewell_halt(u) == r - 1)
                .flat_map(|(u, p)| {
                    (0..farewell_copies(u, v)).map(move |seq| (u, p, (u as u64) << 8 | seq as u64))
                })
                .collect();
            let got: Vec<_> = inbox.iter().map(|e| (e.src, e.port, e.msg)).collect();
            assert_eq!(got, expect, "inbox of node {v} in round {r}");
            self.received += inbox.len() as u64;
            self.step(ctx);
        }
    }

    #[test]
    fn halted_senders_deliver_their_last_messages_exactly_once() {
        let mut rng = Rng::seed_from(5);
        let regular = gen::random_regular(30, 4, &mut rng).expect("4-regular graph");
        assert!(regular.sorted_port_order().is_some(), "unsorted adjacency");
        for g in [gen::grid(5, 6), regular] {
            // Both waves of quitters spill toward a node that stays live.
            for wave in [0, 1] {
                assert!(
                    g.nodes().any(|u| farewell_halt(u) == wave
                        && g.neighbor_ids(u).any(|v| farewell_copies(u, v) == 2)),
                    "no spill in wave {wave}"
                );
            }
            // A receiver live in the round after the farewell gets every
            // copy once.
            let expected: Vec<u64> = g
                .nodes()
                .map(|v| {
                    g.neighbor_ids(v)
                        .filter(|&u| farewell_halt(u) < farewell_halt(v))
                        .map(|u| farewell_copies(u, v) as u64)
                        .sum()
                })
                .collect();
            let baseline = run::<Farewell>(&RunSpec::new(1), &g, &());
            assert_eq!(baseline.rounds, 5);
            assert_eq!(baseline.node_messages_recv, expected);
            let outputs: Vec<u64> = baseline.node_output.iter().flatten().copied().collect();
            assert_eq!(outputs, expected);
            for chunk in [1, 3, g.n()] {
                for threads in [1, 2] {
                    let spec = RunSpec::new(1)
                        .with_exec(Exec::Parallel { threads })
                        .with_chunk_nodes(Some(chunk));
                    let t = run::<Farewell>(&spec, &g, &());
                    assert_eq!(
                        t, baseline,
                        "transcript drift at chunk={chunk} threads={threads}"
                    );
                }
            }
        }
    }

    /// Halt round of node `v` in the sleep test.
    fn nap_halt(v: NodeId) -> Round {
        8 + (v % 4) as Round
    }

    /// Whether node `v` acts in round `r` of the sleep test: it sends
    /// its plan in round 0, in one round of five after that, and in its
    /// halt round.
    fn nap_busy(v: NodeId, r: Round) -> bool {
        r == 0 || r == nap_halt(v) || (3 * v + r).is_multiple_of(5)
    }

    /// Messages `u` sends to neighbor `v` in round `r` of the sleep test:
    /// zero to three in a busy round before its halt (the second and
    /// third spill), a farewell to every other neighbor in its halt round.
    fn nap_sends(u: NodeId, v: NodeId, r: Round) -> usize {
        if r > nap_halt(u) || !nap_busy(u, r) {
            0
        } else if r == nap_halt(u) {
            (u + v) % 2
        } else {
            (u + 2 * v + r) % 4
        }
    }

    /// The first round after `r` in which `v` acts.
    fn nap_next_busy(v: NodeId, r: Round) -> Round {
        (r + 1..)
            .find(|&s| nap_busy(v, s))
            .expect("the halt round is busy")
    }

    /// Acts on the plan and folds every inbox into an order- and
    /// round-sensitive checksum; rounds without a plan or a message are
    /// no-ops. With `Params = true` it sleeps through them until its next
    /// busy round, which by [`Ctx::sleep_until`]'s contract must leave
    /// the transcript of the twin run (`false`) untouched. Outputs
    /// (checksum, messages received).
    struct Napper {
        sleepy: bool,
        sum: u64,
        received: u64,
    }

    impl Napper {
        fn act(&mut self, ctx: &mut Ctx<'_, Self>) {
            let (u, r) = (ctx.id(), ctx.round());
            if nap_busy(u, r) {
                for port in ctx.ports() {
                    for seq in 0..nap_sends(u, ctx.neighbor_id(port), r) {
                        ctx.send(port, chatter_msg(u, r, seq));
                    }
                }
            }
            if r == nap_halt(u) {
                ctx.commit_node((self.sum, self.received));
                ctx.halt();
            } else if self.sleepy {
                ctx.sleep_until(nap_next_busy(u, r));
            }
        }
    }

    impl Process for Napper {
        type Message = u64;
        type NodeOutput = (u64, u64);
        type EdgeOutput = ();
        type Params = bool;
        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

        fn init(sleepy: &bool, ctx: &mut Ctx<'_, Self>) -> Self {
            let mut node = Napper {
                sleepy: *sleepy,
                sum: 0,
                received: 0,
            };
            node.act(ctx);
            node
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<u64>]) {
            let r = ctx.round() as u64;
            for env in inbox {
                self.sum = self.sum.rotate_left(7) ^ env.msg ^ r << 56 ^ (env.port as u64) << 48;
                self.received += 1;
            }
            self.act(ctx);
        }
    }

    #[test]
    fn sleeping_is_invisible_in_the_transcript() {
        let mut rng = Rng::seed_from(3);
        let regular = gen::random_regular(30, 4, &mut rng).expect("4-regular graph");
        assert!(regular.sorted_port_order().is_some(), "unsorted adjacency");
        for g in [gen::grid(5, 6), regular] {
            // The plan, replayed: `v` is awake in round `r` when it acts
            // or has mail (a sleep request is refused exactly when mail
            // arrives, and every timer targets a busy round).
            let got = |v: NodeId, r: Round| {
                r > 0 && g.neighbor_ids(v).any(|u| nap_sends(u, v, r - 1) > 0)
            };
            let awake = |v: NodeId, r: Round| nap_busy(v, r) || got(v, r);
            let asks =
                |v: NodeId, r: Round| awake(v, r) && r < nap_halt(v) && nap_next_busy(v, r) > r + 1;
            let cases = |pred: &dyn Fn(NodeId, NodeId, Round) -> bool| {
                g.edges().any(|(_, a, b)| {
                    [(a, b), (b, a)]
                        .into_iter()
                        .any(|(u, v)| (0..nap_halt(v)).any(|r| pred(u, v, r)))
                })
            };
            let asleep = |v: NodeId, r: Round| r <= nap_halt(v) && !awake(v, r);
            assert!(cases(&|_, v, r| nap_busy(v, r + 1)
                && asleep(v, r)
                && !got(v, r + 1)));
            assert!(cases(&|_, v, r| asleep(v, r)
                && got(v, r + 1)
                && !nap_busy(v, r + 1)));
            assert!(cases(&|u, v, r| asks(v, r) && nap_sends(u, v, r) > 0));
            assert!(cases(&|u, v, r| asleep(v, r) && nap_sends(u, v, r) >= 2));
            for farewell in [0, 1] {
                assert!(cases(&|u, v, r| {
                    r == nap_halt(u) && asleep(v, r) && nap_sends(u, v, r) == farewell
                }));
            }
            let awake_rounds: u64 = g
                .nodes()
                .map(|v| (0..=nap_halt(v)).filter(|&r| awake(v, r)).count() as u64)
                .sum();

            let mut ws = Workspace::new();
            let twin = RunSpec::new(1).run_in::<Napper>(&g, &false, &mut ws);
            let live: u64 = g.nodes().map(|v| nap_halt(v) as u64 + 1).sum();
            assert_eq!(ws.stats().awake_node_rounds, live);
            assert!(twin.node_messages_recv.iter().all(|&k| k > 0));
            for chunk in [1, 3, g.n()] {
                for threads in [1, 2] {
                    let spec = RunSpec::new(1)
                        .with_exec(Exec::Parallel { threads })
                        .with_chunk_nodes(Some(chunk));
                    let before = ws.stats().awake_node_rounds;
                    let t = spec.run_in::<Napper>(&g, &true, &mut ws);
                    assert_eq!(
                        t, twin,
                        "transcript drift at chunk={chunk} threads={threads}"
                    );
                    assert_eq!(
                        ws.stats().awake_node_rounds - before,
                        awake_rounds,
                        "awake node-rounds at chunk={chunk} threads={threads}"
                    );
                }
            }
            assert!(awake_rounds < live);
        }
    }

    /// Halt round of node `v` in the mixed-send test: a quarter of the
    /// nodes halts in round 3 while its neighbors broadcast until round 8.
    fn mix_halt(v: NodeId) -> Round {
        [3, 6, 7, 8][v % 4]
    }

    /// Whether `v` sends in round `r` of the mixed-send test: in round 0,
    /// in one round of three after that, and in its halt round. It
    /// sleeps through the other rounds.
    fn mix_busy(v: NodeId, r: Round) -> bool {
        r == 0 || r == mix_halt(v) || (v + r).is_multiple_of(3)
    }

    /// Broadcasts `v` makes in round `r` of the mixed-send test.
    fn mix_broadcasts(v: NodeId, r: Round) -> usize {
        match (r > mix_halt(v) || !mix_busy(v, r), mix_case(v, r)) {
            (true, _) => 0,
            (false, 3) => 2,
            (false, _) => 1,
        }
    }

    /// The sends of a busy round before the halt: 0 broadcast only, 1 a
    /// unicast then a broadcast, 2 a broadcast then a unicast, 3 two
    /// broadcasts. In its halt round a node broadcasts a farewell only.
    fn mix_case(v: NodeId, r: Round) -> usize {
        if r == mix_halt(v) {
            0
        } else {
            (v + 2 * r) % 4
        }
    }

    /// Whether `v`'s unicast in round `r` goes out on `port`.
    fn mix_unicast_port(v: NodeId, r: Round, port: usize) -> bool {
        (v + port + r).is_multiple_of(2)
    }

    /// A payload whose audited size varies with its value.
    #[derive(Debug, Clone, PartialEq)]
    struct Sized(u64);

    impl MessageSize for Sized {
        fn size_bits(&self) -> usize {
            1 + (self.0 % 61) as usize
        }
    }

    /// Sends on the mixed-send plan and folds every inbox into an order-
    /// and port-sensitive checksum, sleeping between busy rounds. With
    /// `Params = true` each broadcast goes out port by port: the twin
    /// whose transcript the broadcast records must reproduce. Outputs
    /// (checksum, messages received).
    struct Mixed {
        by_port: bool,
        sum: u64,
        received: u64,
    }

    impl Mixed {
        fn broadcast(&self, ctx: &mut Ctx<'_, Self>, seq: u64) {
            let msg = Sized(chatter_msg(ctx.id(), ctx.round(), seq as usize));
            if self.by_port {
                for port in ctx.ports() {
                    ctx.send(port, msg.clone());
                }
            } else {
                ctx.broadcast(msg);
            }
        }

        fn unicast(ctx: &mut Ctx<'_, Self>, seq: u64) {
            let (v, r) = (ctx.id(), ctx.round());
            for port in ctx.ports() {
                if mix_unicast_port(v, r, port) {
                    ctx.send(port, Sized(chatter_msg(v, r, seq as usize) ^ port as u64));
                }
            }
        }

        fn act(&mut self, ctx: &mut Ctx<'_, Self>) {
            let (v, r) = (ctx.id(), ctx.round());
            if mix_busy(v, r) {
                match mix_case(v, r) {
                    0 => self.broadcast(ctx, 0),
                    1 => {
                        Self::unicast(ctx, 0);
                        self.broadcast(ctx, 1);
                    }
                    2 => {
                        self.broadcast(ctx, 0);
                        Self::unicast(ctx, 1);
                    }
                    _ => {
                        self.broadcast(ctx, 0);
                        self.broadcast(ctx, 1);
                    }
                }
            }
            if r == mix_halt(v) {
                ctx.commit_node((self.sum, self.received));
                ctx.halt();
            } else {
                let next = (r + 1..).find(|&s| mix_busy(v, s)).expect("busy halt");
                ctx.sleep_until(next);
            }
        }
    }

    impl Process for Mixed {
        type Message = Sized;
        type NodeOutput = (u64, u64);
        type EdgeOutput = ();
        type Params = bool;
        const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

        fn init(by_port: &bool, ctx: &mut Ctx<'_, Self>) -> Self {
            let mut node = Mixed {
                by_port: *by_port,
                sum: 0,
                received: 0,
            };
            node.act(ctx);
            node
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<Sized>]) {
            let r = ctx.round() as u64;
            for env in inbox {
                self.sum = self.sum.rotate_left(7) ^ env.msg.0 ^ r << 56 ^ (env.port as u64) << 48;
                self.received += 1;
            }
            self.act(ctx);
        }
    }

    #[test]
    fn broadcast_records_match_the_port_by_port_twin() {
        let mut rng = Rng::seed_from(7);
        let regular = gen::random_regular(30, 4, &mut rng).expect("4-regular graph");
        assert!(regular.sorted_port_order().is_some(), "unsorted adjacency");
        for g in [gen::grid(5, 6), regular] {
            // The plan covers every case, and broadcasts toward halted
            // and toward sleeping neighbors.
            let sends = |v: NodeId, r: Round| r <= mix_halt(v) && mix_busy(v, r);
            let got = |v: NodeId, r: Round| r > 0 && g.neighbor_ids(v).any(|u| sends(u, r - 1));
            let asleep = |v: NodeId, r: Round| r <= mix_halt(v) && !mix_busy(v, r) && !got(v, r);
            let toward = |pred: &dyn Fn(NodeId, Round) -> bool| {
                g.nodes().any(|u| {
                    g.neighbor_ids(u)
                        .any(|v| (0..=mix_halt(u)).any(|r| sends(u, r) && pred(v, r)))
                })
            };
            assert!(
                toward(&|v, r| r > mix_halt(v)),
                "no broadcast to a halted node"
            );
            assert!(toward(&asleep), "no broadcast to a sleeper");
            for case in 0..4 {
                assert!(
                    g.nodes()
                        .any(|v| (0..mix_halt(v)).any(|r| mix_busy(v, r) && mix_case(v, r) == case)),
                    "case {case} never runs"
                );
            }
            let planned: usize = g
                .nodes()
                .flat_map(|v| (0..=mix_halt(v)).map(move |r| (v, r)))
                .filter(|&(v, r)| sends(v, r))
                .map(|(v, r)| {
                    let unicasts = match mix_case(v, r) {
                        1 | 2 => (0..g.degree(v))
                            .filter(|&p| mix_unicast_port(v, r, p))
                            .count(),
                        _ => 0,
                    };
                    mix_broadcasts(v, r) * g.degree(v) + unicasts
                })
                .sum();

            let mut ws = Workspace::new();
            let twin = RunSpec::new(1).run_in::<Mixed>(&g, &true, &mut ws);
            let twin_awake = ws.stats().awake_node_rounds;
            assert_eq!(twin.messages_sent, planned);
            assert!(twin.node_messages_recv.iter().all(|&k| k > 0));
            for chunk in [1, 3, g.n()] {
                for threads in [1, 2] {
                    let spec = RunSpec::new(1)
                        .with_exec(Exec::Parallel { threads })
                        .with_chunk_nodes(Some(chunk));
                    for by_port in [false, true] {
                        let before = ws.stats().awake_node_rounds;
                        let t = spec.run_in::<Mixed>(&g, &by_port, &mut ws);
                        assert_eq!(
                            t, twin,
                            "transcript drift at chunk={chunk} threads={threads} \
                             by_port={by_port}"
                        );
                        assert_eq!(
                            ws.stats().awake_node_rounds - before,
                            twin_awake,
                            "awake node-rounds at chunk={chunk} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn workspace_keeps_a_resident_pool_across_runs() {
        let g = gen::grid(17, 17);
        assert!(g.n() >= PARALLEL_MIN_NODES);
        let mut ws = Workspace::new();
        let seq = RunSpec::new(2).run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
        assert_eq!(ws.pool_workers(), 0, "sequential runs never spawn the pool");
        let spec = RunSpec::new(2).with_exec(Exec::Parallel { threads: 3 });
        let par = spec.run_in::<MaxFlood>(&g, &RADIUS, &mut ws);
        assert_eq!(par, seq);
        assert_eq!(ws.pool_workers(), 2, "threads = 3 keeps 2 pool workers");
        // Re-running with fewer threads reuses the bigger pool as-is …
        let spec2 = RunSpec::new(2).with_exec(Exec::Parallel { threads: 2 });
        assert_eq!(spec2.run_in::<MaxFlood>(&g, &RADIUS, &mut ws), seq);
        assert_eq!(ws.pool_workers(), 2);
        // … a wider run grows it, and clear() keeps it.
        let spec3 = RunSpec::new(2).with_exec(Exec::Parallel { threads: 4 });
        assert_eq!(spec3.run_in::<MaxFlood>(&g, &RADIUS, &mut ws), seq);
        assert_eq!(ws.pool_workers(), 3);
        ws.clear();
        assert_eq!(ws.pool_workers(), 3);
    }
}
