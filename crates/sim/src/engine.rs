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
//! word-parallel sweep of the halted bitset, so cost tracks the **live
//! frontier** (the paper's Definition 1 is exactly the observation that
//! most nodes halt long before the worst-case round). The outbox is
//! double-buffered: round `r` sends into buffer `r & 1` while reading the
//! other. Activating a live node `v` in round `r` means
//!
//! 1. **pull** — `v` takes its inbox out of the previous round's buffer
//!    into the chunk's scratch vector: it walks its ports in ascending
//!    neighbor id order ([`Graph::sorted_port_order`]) and `take()`s each
//!    sender's slot, one load away at [`Graph::rev_arc`] of `v`'s own
//!    arc. On rounds after a spill it also clones that sender's spills on
//!    the arc; otherwise — almost always — the spill vectors are not
//!    probed at all;
//! 2. **clear** — `v` empties its own arc range of the current buffer
//!    (what is left there was addressed to halted receivers);
//! 3. **step** — `init` at round 0, `round` after; sends land in that
//!    range, commits in per-chunk event buffers, halts in per-chunk halt
//!    buffers;
//! 4. **audit** — `v` counts its own sends for the CONGEST audit.
//!
//! Between rounds the driver applies commit events, records halts, and
//! clears the spill vectors its receivers just pulled. Delta routing falls
//! out for free: a halted region of the graph is skipped by the bitset
//! sweep, and arcs whose sender went quiet hold `None` and cost one
//! branch. Messages to halted receivers are never pulled; a live sender
//! clears them two rounds later, and the next run's reset drops the rest.
//!
//! The pass is the *same code* on both executors — the sequential loop
//! is the 1-chunk special case — so executor choice, thread count,
//! and chunk geometry are pure performance knobs that cannot perturb the
//! transcript. Parallel runs distribute chunks over a persistent
//! [`WorkerPool`] (spawned once per run, or once
//! per [`Workspace`] when runs are batched) instead of respawning scoped
//! threads every round.

use crate::bitset::Bitset;
use crate::message::{Envelope, MessageSize};
use crate::pool::WorkerPool;
use crate::process::{Ctx, Event, EventBuf, Knowledge, Process};
use crate::shadow::Table;
use crate::transcript::{Round, Transcript, TranscriptPolicy, UNCOMMITTED};
pub use crate::workspace::Workspace;
use localavg_graph::rng::Rng;
use localavg_graph::{Graph, NodeId};
use std::any::TypeId;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; node `v` uses the substream `seed.fork(v)`.
    pub seed: u64,
    /// Hard cap on rounds; exceeding it panics (indicates a non-terminating
    /// algorithm — every algorithm in this workspace halts explicitly).
    pub max_rounds: usize,
    /// Initial knowledge configuration.
    pub knowledge: Knowledge,
    /// Number of worker threads for [`run_parallel`] (ignored by
    /// [`run_sequential`]); 0 means "number of available cores".
    pub threads: usize,
    /// How much ledger the transcript retains (see [`TranscriptPolicy`]).
    pub transcript: TranscriptPolicy,
    /// Explicit scheduler chunk size (nodes per chunk) for the chunked
    /// executor; `None` picks a balanced default. Setting this *forces*
    /// the chunked code path even below [`PARALLEL_MIN_NODES`] — the
    /// scheduler-adversarial determinism tests use it to probe chunk
    /// boundaries on small instances. A pure performance/testing knob:
    /// transcripts are bit-identical for every value.
    pub chunk_nodes: Option<usize>,
}

impl SimConfig {
    /// Creates a configuration with the given seed and defaults: a
    /// 1,000,000-round cap, full neighbor knowledge, automatic threads,
    /// and a [`TranscriptPolicy::Full`] ledger.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            max_rounds: 1_000_000,
            knowledge: Knowledge::default(),
            threads: 0,
            transcript: TranscriptPolicy::Full,
            chunk_nodes: None,
        }
    }

    /// Sets the round cap.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the knowledge configuration.
    #[must_use]
    pub fn with_knowledge(mut self, knowledge: Knowledge) -> Self {
        self.knowledge = knowledge;
        self
    }

    /// Sets the worker-thread count for the parallel executor.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the transcript-retention policy.
    #[must_use]
    pub fn with_transcript(mut self, policy: TranscriptPolicy) -> Self {
        self.transcript = policy;
        self
    }

    /// Sets an explicit scheduler chunk size (see [`SimConfig::chunk_nodes`]).
    #[must_use]
    pub fn with_chunk_nodes(mut self, chunk_nodes: Option<usize>) -> Self {
        self.chunk_nodes = chunk_nodes;
        self
    }
}

/// Everything one run needs besides the graph and the algorithm's own
/// parameters: seed, executor, round budget, and transcript policy.
///
/// This is the argument of the unified `execute(&Graph, &RunSpec)` entry
/// points (`localavg-core`'s `Algorithm`/`DynAlgorithm`), replacing the
/// old positional `run(&Graph, seed)` / `run_with_exec(.., exec)` pair.
/// Built like [`SimConfig`], with chainable `with_*` setters:
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
    /// Initial knowledge configuration.
    pub knowledge: Knowledge,
    /// Explicit scheduler chunk size (see [`SimConfig::chunk_nodes`]);
    /// `None` — the default — picks a balanced chunk geometry.
    pub chunk_nodes: Option<usize>,
}

impl RunSpec {
    /// Creates a spec with the given seed and defaults: sequential
    /// executor, 1,000,000-round cap, [`TranscriptPolicy::Full`], full
    /// neighbor knowledge, default chunk geometry.
    pub fn new(seed: u64) -> Self {
        RunSpec {
            seed,
            exec: Exec::Sequential,
            max_rounds: 1_000_000,
            transcript: TranscriptPolicy::Full,
            knowledge: Knowledge::default(),
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

    /// Sets the knowledge configuration.
    #[must_use]
    pub fn with_knowledge(mut self, knowledge: Knowledge) -> Self {
        self.knowledge = knowledge;
        self
    }

    /// Sets an explicit scheduler chunk size (see [`SimConfig::chunk_nodes`]).
    #[must_use]
    pub fn with_chunk_nodes(mut self, chunk_nodes: Option<usize>) -> Self {
        self.chunk_nodes = chunk_nodes;
        self
    }

    /// The equivalent [`SimConfig`] (threads resolved from the executor).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            max_rounds: self.max_rounds,
            knowledge: self.knowledge,
            threads: match self.exec {
                Exec::Sequential => 1,
                Exec::Parallel { threads } => threads,
            },
            transcript: self.transcript,
            chunk_nodes: self.chunk_nodes,
        }
    }

    /// Runs `P` under this spec with fresh arenas.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_sequential`].
    pub fn run<P: Process>(
        &self,
        g: &Graph,
        params: &P::Params,
    ) -> Transcript<P::NodeOutput, P::EdgeOutput> {
        self.exec.run::<P>(g, params, &self.sim_config())
    }

    /// Runs `P` under this spec, reusing the arenas in `ws`
    /// (see [`run_spec_in`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_sequential`].
    pub fn run_in<P>(
        &self,
        g: &Graph,
        params: &P::Params,
        ws: &mut Workspace,
    ) -> Transcript<P::NodeOutput, P::EdgeOutput>
    where
        P: Process + 'static,
        P::Message: 'static,
        P::NodeOutput: 'static,
        P::EdgeOutput: 'static,
    {
        run_spec_in::<P>(g, params, self, ws)
    }
}

/// Which executor drives a run.
///
/// Both executors produce bit-identical transcripts (see the module docs),
/// so `Exec` is a pure performance knob: benchmark harnesses and the
/// determinism tests thread it through the `localavg-core` registry's
/// `run_exec` entry points to time or cross-check the two executors on
/// the same algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exec {
    /// Single-threaded executor ([`run_sequential`]).
    #[default]
    Sequential,
    /// Chunked `std::thread::scope` executor ([`run_parallel`]).
    Parallel {
        /// Worker threads; 0 means "number of available cores".
        threads: usize,
    },
}

impl Exec {
    /// Runs `P` under this executor (overriding `cfg.threads` for
    /// [`Exec::Parallel`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_sequential`].
    pub fn run<P: Process>(
        self,
        g: &Graph,
        params: &P::Params,
        cfg: &SimConfig,
    ) -> Transcript<P::NodeOutput, P::EdgeOutput> {
        match self {
            Exec::Sequential => run_sequential::<P>(g, params, cfg),
            Exec::Parallel { threads } => {
                run_parallel::<P>(g, params, &cfg.clone().with_threads(threads))
            }
        }
    }
}

/// Mutable per-run state shared by both executors.
///
/// Everything the per-round inner loop touches is a flat arena sized once
/// from the graph's CSR layout — no per-node heap vectors, no per-round
/// allocation in the steady state:
///
/// * `out_slots` — a **double-buffered** outbox: two message slots per
///   directed arc, buffer `b`'s slot of arc `csr_offset(v) + port` at
///   index `b · Σdeg + arc`. Round `r` sends into buffer `r & 1`, and the
///   receivers of round `r + 1` pull from it while sending into the other
///   one. `out_spill` (index `b · n + v`) doubles the same way, for the
///   rare second message on one port in a round;
/// * there is no inbox arena: each activation assembles its inbox in the
///   chunk's `scratch` vector and hands it straight to the process;
/// * `halted_bits` / `committed` — columnar bitsets, letting the pass
///   skip 64 halted nodes per word compare.
struct RunState<P: Process> {
    processes: Vec<Option<P>>,
    rngs: Vec<Rng>,
    /// Halted nodes, updated by the driver when halts are recorded.
    halted_bits: Bitset,
    /// Columnar "node committed its own output" state.
    committed: Bitset,
    /// Nodes that have not halted yet.
    live: usize,
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
    /// Per-chunk CONGEST audit accumulators.
    audit_parts: Vec<AuditPart>,
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

/// CONGEST audit accumulators of one chunk's sends in one round (zero
/// unless the policy records the audit).
#[derive(Debug, Clone, Copy, Default)]
struct AuditPart {
    /// Messages sent by this chunk's nodes.
    messages: usize,
    /// Largest message, in bits.
    max_bits: usize,
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
            out_slots: Vec::new(),
            out_spill: Vec::new(),
            events: Vec::new(),
            fresh_halts: Vec::new(),
            spill_nodes: Vec::new(),
            pending_spills: Vec::new(),
            scratch: Vec::new(),
            audit_parts: Vec::new(),
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
        // Both outbox buffers are refilled unconditionally. A completed
        // run leaves behind the messages addressed to halted receivers
        // (nobody pulls them), and a run aborted by a caught panic (e.g.
        // a max_rounds probe) can leave anything in either buffer; a
        // sender that halts early in the next run never clears its range
        // again, so a stale slot would be delivered. This is an O(Σdeg)
        // overwrite of warm memory, the same order as the rest of the
        // reset.
        self.out_slots.clear();
        self.out_slots.resize_with(2 * g.degree_sum(), || None);
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
        self.audit_parts.clear();
        self.audit_parts.resize(chunks, AuditPart::default());
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

    /// Sums the per-chunk audit accumulators: `(messages, max_bits)`.
    fn collect_audit(&self) -> (usize, usize) {
        let mut messages = 0;
        let mut max_bits = 0;
        for part in &self.audit_parts {
            messages += part.messages;
            max_bits = max_bits.max(part.max_bits);
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

    fn all_halted(&self) -> bool {
        self.live == 0
    }

    /// Bundles this round's shared state for the chunk pass (see
    /// [`RoundShared`]).
    #[allow(clippy::too_many_arguments)]
    fn round_shared<'a>(
        &mut self,
        g: &'a Graph,
        cfg: &'a SimConfig,
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
            cfg,
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
            processes: self.processes.as_mut_ptr(),
            rngs: self.rngs.as_mut_ptr(),
            halted_bits: &self.halted_bits,
            out_slots: self.out_slots.as_mut_ptr(),
            out_spill: self.out_spill.as_mut_ptr(),
            events: self.events.as_mut_ptr(),
            fresh_halts: self.fresh_halts.as_mut_ptr(),
            spill_nodes: self.spill_nodes.as_mut_ptr(),
            scratch: self.scratch.as_mut_ptr(),
            audit_parts: self.audit_parts.as_mut_ptr(),
            vol_msgs_sent: self.transcript.node_messages_sent.as_mut_ptr(),
            vol_bits_sent: self.transcript.node_bits_sent.as_mut_ptr(),
            vol_msgs_recv: self.transcript.node_messages_recv.as_mut_ptr(),
            vol_bits_recv: self.transcript.node_bits_recv.as_mut_ptr(),
            #[cfg(debug_assertions)]
            shadow: &self.shadow,
        }
    }
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
/// * per-**node** columns (`processes`, `rngs`, this round's `out_spill`
///   buffer, the volume columns) and per-**chunk** buffers (`events`,
///   `fresh_halts`, `spill_nodes`, `scratch`, `audit_parts`) are written
///   only for indices owned by the running chunk;
/// * in this round's `out_slots` buffer, a node writes only its own arc
///   range (cleared, then filled by its sends); in the previous round's
///   buffer, receiver `v` takes only the slot `rev_arc(v's arc)` of each
///   arc `u → v` — an index unique to `v` — and no sender writes that
///   buffer this round;
/// * the previous round's `out_spill` buffer is only read (cloned from)
///   during the pass; the driver clears it afterwards;
/// * `halted_bits` is read-only during the pass (halts are recorded by
///   the driver between rounds).
///
/// Debug builds check the first two points mechanically: every node
/// claims each `out_slots` index (`buffer · Σdeg + arc`) and per-node
/// index it writes through [`RoundShared::claim`], and the shadow checker
/// panics on an index claimed by two chunks in one round.
struct RoundShared<'a, P: Process> {
    g: &'a Graph,
    cfg: &'a SimConfig,
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
    processes: *mut Option<P>,
    rngs: *mut Rng,
    halted_bits: *const Bitset,
    out_slots: *mut Option<P::Message>,
    out_spill: *mut Vec<(u32, P::Message)>,
    events: *mut EventBuf<P>,
    fresh_halts: *mut Vec<NodeId>,
    spill_nodes: *mut Vec<NodeId>,
    scratch: *mut Vec<Envelope<P::Message>>,
    audit_parts: *mut AuditPart,
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
    /// — into `inbox`, in ascending sender id order: each sender's slot,
    /// then (after a round with spills) its spills on the same arc in
    /// send order, the ordering the `Process` contract promises. Taking
    /// the slot empties it, so a sender that halts and never clears its
    /// range again cannot deliver one message twice. Accumulates the
    /// receive volume.
    ///
    /// # Safety
    ///
    /// Only chunk `ci`, the owner of `v`, may call this, at most once per
    /// round (the [`RoundShared`] contract).
    #[allow(unsafe_code)]
    unsafe fn pull(&self, v: NodeId, ci: usize, inbox: &mut Vec<Envelope<P::Message>>) {
        let prev = self.cur ^ 1;
        let varc = self.g.csr_offset(v);
        for i in 0..self.g.degree(v) {
            let p = match self.order {
                Some(order) => order[varc + i] as usize,
                None => i,
            };
            // The sender-side slot of the shared edge, one load away.
            let uarc = self.g.rev_arc(varc + p);
            let at = self.slot(prev, uarc);
            self.claim(Table::OutSlot, at..at + 1, ci);
            // SAFETY: slot `at` is addressed to `v` alone (contract,
            // second point).
            let slot = unsafe { (*self.out_slots.add(at)).take() };
            if slot.is_none() && !self.spilled {
                continue;
            }
            // The sender's id is read only for an arc that can carry a
            // message: a silent arc costs two loads, not three.
            let (u, _) = self.g.arc(varc + p);
            if let Some(msg) = slot {
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

/// **The round pass**: activates every live node of chunk `ci` (`init`
/// at round 0) — pull, clear, step, audit, as the module docs lay out.
/// Clearing before the step is what lets `Ctx::send` read an occupied
/// slot as a second message on its port, never as a stale one. See
/// [`RoundShared`] for the aliasing contract.
#[allow(unsafe_code)]
fn step_chunk<P: Process>(sh: &RoundShared<'_, P>, ci: usize) {
    let (lo, hi) = sh.range(ci);
    // SAFETY: chunk `ci` owns nodes `lo..hi` — their per-node entries
    // and their arc ranges of this round's buffer — and per-chunk buffer
    // `ci`; `pull` touches the previous buffer only as the contract
    // allows.
    unsafe {
        let events = &mut *sh.events.add(ci);
        let fresh = &mut *sh.fresh_halts.add(ci);
        let spills = &mut *sh.spill_nodes.add(ci);
        let inbox = &mut *sh.scratch.add(ci);
        let part = &mut *sh.audit_parts.add(ci);
        *part = AuditPart::default();
        (*sh.halted_bits).for_each_zero_in(lo, hi, |v| {
            sh.claim(Table::Node, v..v + 1, ci);
            inbox.clear();
            if sh.round > 0 {
                sh.pull(v, ci, inbox);
            }
            let deg = sh.g.degree(v);
            let at = sh.slot(sh.cur, sh.g.csr_offset(v));
            sh.claim(Table::OutSlot, at..at + deg, ci);
            let out = std::slice::from_raw_parts_mut(sh.out_slots.add(at), deg);
            for slot in out.iter_mut() {
                *slot = None;
            }
            let spill = &mut *sh.out_spill.add(sh.cur * sh.n + v);
            debug_assert!(spill.is_empty(), "spill of node {v} not drained");
            let mut sent = 0;
            let mut halted = false;
            let mut ctx = Ctx {
                id: v,
                round: sh.round,
                graph: sh.g,
                knowledge: sh.cfg.knowledge,
                max_degree: sh.max_degree,
                rng: &mut *sh.rngs.add(v),
                out_slots: out,
                out_spill: spill,
                sent: &mut sent,
                events,
                halted: &mut halted,
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
            if *ctx.sent > 0 {
                let (out, spill) = (&*ctx.out_slots, &*ctx.out_spill);
                if !spill.is_empty() {
                    spills.push(v);
                }
                if sh.audit {
                    // Every send counts, including those toward receivers
                    // that have halted and will never pull them.
                    for msg in out.iter().flatten().chain(spill.iter().map(|(_, m)| m)) {
                        let bits = msg.size_bits();
                        part.max_bits = part.max_bits.max(bits);
                        part.messages += 1;
                        *sh.vol_msgs_sent.add(v) += 1;
                        *sh.vol_bits_sent.add(v) += bits as u64;
                    }
                }
            }
            if *ctx.halted {
                fresh.push(v);
            }
        });
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

/// Runs the algorithm to completion on the sequential executor.
///
/// # Panics
///
/// Panics if the algorithm exceeds `cfg.max_rounds` without halting every
/// node, if a node commits its own output twice, or if the two endpoints
/// of an edge commit conflicting labels.
pub fn run_sequential<P: Process>(
    g: &Graph,
    params: &P::Params,
    cfg: &SimConfig,
) -> Transcript<P::NodeOutput, P::EdgeOutput> {
    run_with_threads::<P>(g, params, cfg, 1, &mut RunState::empty(), None)
}

/// Runs the algorithm on the chunked parallel executor, spawning a
/// transient [`WorkerPool`] for the run. Batched
/// callers should prefer [`run_spec_in`], whose [`Workspace`] keeps the
/// pool (and the arenas) alive across runs.
///
/// Produces a transcript bit-identical to [`run_sequential`]; see the
/// module docs for why.
///
/// # Panics
///
/// Same conditions as [`run_sequential`].
pub fn run_parallel<P: Process>(
    g: &Graph,
    params: &P::Params,
    cfg: &SimConfig,
) -> Transcript<P::NodeOutput, P::EdgeOutput> {
    run_with_threads::<P>(
        g,
        params,
        cfg,
        resolve_threads(cfg.threads),
        &mut RunState::empty(),
        None,
    )
}

/// Resolves a thread count with the `0 = all available cores` convention.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(4, |p| p.get())
    } else {
        threads
    }
    .max(1)
}

/// Below this node count [`run_parallel`] falls back to the sequential
/// loop — chunking overhead would dominate. Exported so tests asserting
/// that the parallel executor really ran can size their instances
/// against the actual threshold instead of a copied magic number. An
/// explicit [`SimConfig::chunk_nodes`] overrides the fallback: the
/// chunked path then runs at any instance size (the scheduler-adversarial
/// determinism tests rely on this).
pub const PARALLEL_MIN_NODES: usize = 256;

/// Chunk geometry when none is forced: about four chunks per thread (the
/// cursor-race scheduling in the pool then smooths load imbalance),
/// rounded up to whole 64-bit bitset words so no word of the halted
/// bitset straddles a chunk boundary.
fn default_chunk(n: usize, threads: usize) -> usize {
    let target = n.div_ceil(threads.max(1) * 4).max(64);
    target.div_ceil(64) * 64
}

/// Runs `P` under `spec`, reusing the arenas stored in `ws`.
///
/// The first run of a process type (or the first after a CSR shape
/// change) allocates its arenas inside the workspace; subsequent runs
/// reuse them, paying only an O(n + m) reset instead of fresh
/// allocations. The first *parallel* run additionally spawns the
/// workspace's persistent worker pool; later parallel runs reuse its
/// threads. Transcripts are bit-identical to workspace-less runs — the
/// reset path is the only initialization path in the engine.
///
/// # Panics
///
/// Same conditions as [`run_sequential`].
pub fn run_spec_in<P>(
    g: &Graph,
    params: &P::Params,
    spec: &RunSpec,
    ws: &mut Workspace,
) -> Transcript<P::NodeOutput, P::EdgeOutput>
where
    P: Process + 'static,
    P::Message: 'static,
    P::NodeOutput: 'static,
    P::EdgeOutput: 'static,
{
    let cfg = spec.sim_config();
    let threads = match spec.exec {
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
    run_with_threads::<P>(g, params, &cfg, threads, state, Some(pool))
}

fn run_with_threads<P: Process>(
    g: &Graph,
    params: &P::Params,
    cfg: &SimConfig,
    threads: usize,
    state: &mut RunState<P>,
    ws_pool: Option<&mut Option<WorkerPool>>,
) -> Transcript<P::NodeOutput, P::EdgeOutput> {
    let n = g.n();
    // The chunk geometry is fixed for the whole run: small instances and
    // one-thread configs run as a single chunk unless an explicit chunk
    // size forces the chunked path.
    let chunked = match cfg.chunk_nodes {
        Some(_) => true,
        None => threads > 1 && n >= PARALLEL_MIN_NODES,
    };
    let chunk = match cfg.chunk_nodes {
        Some(c) => c.max(1),
        None if chunked => default_chunk(n, threads),
        None => n.max(1),
    };
    let chunks = if chunked { n.div_ceil(chunk).max(1) } else { 1 };
    // Acquire worker threads: the workspace's resident pool when running
    // through one (grown if this run wants more workers than it has), a
    // transient pool otherwise. `threads` counts the driver, so a
    // `threads = t` run keeps `t - 1` workers grabbing chunks.
    let workers = if chunks > 1 {
        threads.saturating_sub(1)
    } else {
        0
    };
    let mut transient = None;
    let pool: Option<&WorkerPool> = if workers > 0 {
        match ws_pool {
            Some(slot) => {
                if slot.as_ref().is_none_or(|p| p.workers() < workers) {
                    *slot = Some(WorkerPool::new(workers));
                }
                slot.as_ref()
            }
            None => Some(transient.insert(WorkerPool::new(workers))),
        }
    } else {
        None
    };
    state.reset(g, cfg.seed, chunks, cfg.transcript);
    let max_degree = g.max_degree();
    // An inbox pull walks senders in ascending id order; for
    // insertion-ordered adjacencies that is a cached permutation.
    let order = g.sorted_port_order();

    let mut round: Round = 0;
    loop {
        {
            let sh = state.round_shared(g, cfg, params, order, round, max_degree, chunk);
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
        round += 1;
        assert!(
            round <= cfg.max_rounds,
            "algorithm exceeded max_rounds={} without halting",
            cfg.max_rounds
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
        let cfg = SimConfig::new(1);
        let t = run_sequential::<MaxFlood>(&g, &RADIUS, &cfg);
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
        let t = run_sequential::<MaxFlood>(&g, &RADIUS, &SimConfig::new(2));
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
        let cfg = SimConfig::new(7).with_threads(4);
        let a = run_sequential::<MaxFlood>(&g, &RADIUS, &cfg);
        let b = run_parallel::<MaxFlood>(&g, &RADIUS, &cfg);
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
        let a = run_sequential::<CoinFlip>(&g, &(), &SimConfig::new(5));
        let b = run_parallel::<CoinFlip>(&g, &(), &SimConfig::new(5).with_threads(3));
        let c = run_sequential::<CoinFlip>(&g, &(), &SimConfig::new(6));
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
        let t = run_sequential::<EdgeLabel>(&g, &(), &SimConfig::new(1));
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
        let _ = run_sequential::<BadEdgeLabel>(&g, &(), &SimConfig::new(1));
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
        let cfg = SimConfig::new(1).with_max_rounds(10);
        let _ = run_sequential::<Forever>(&g, &(), &cfg);
    }

    #[test]
    fn knowledge_gating() {
        struct NosyProcess;
        impl Process for NosyProcess {
            type Message = ();
            type NodeOutput = ();
            type EdgeOutput = ();
            type Params = ();
            const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;
            fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
                let _ = ctx.neighbor_id(0); // should panic without knowledge
                NosyProcess
            }
            fn round(&mut self, _: &mut Ctx<'_, Self>, _: &[Envelope<()>]) {}
        }
        let g = gen::path(2);
        let cfg = SimConfig::new(1).with_knowledge(Knowledge {
            neighbor_ids: false,
            neighbor_degrees: false,
        });
        let result = std::panic::catch_unwind(|| {
            let _ = run_sequential::<NosyProcess>(&g, &(), &cfg);
        });
        assert!(result.is_err());
    }

    #[test]
    fn empty_graph_trivial_run() {
        let g = Graph::empty(0);
        let t = run_sequential::<CoinFlip>(&g, &(), &SimConfig::new(1));
        assert_eq!(t.rounds, 0);
        assert!(t.is_complete());
    }

    #[test]
    fn config_builders() {
        let cfg = SimConfig::new(9)
            .with_max_rounds(50)
            .with_threads(2)
            .with_knowledge(Knowledge::default())
            .with_transcript(TranscriptPolicy::CompletionsOnly);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.max_rounds, 50);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.transcript, TranscriptPolicy::CompletionsOnly);
    }

    #[test]
    fn run_spec_builders_and_sim_config() {
        let spec = RunSpec::new(3)
            .with_seed(4)
            .with_exec(Exec::Parallel { threads: 2 })
            .with_max_rounds(99)
            .with_transcript(TranscriptPolicy::None)
            .with_knowledge(Knowledge::default());
        assert_eq!(spec.seed, 4);
        assert_eq!(spec.max_rounds, 99);
        let cfg = spec.sim_config();
        assert_eq!(cfg.seed, 4);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.max_rounds, 99);
        assert_eq!(cfg.transcript, TranscriptPolicy::None);
        assert_eq!(RunSpec::new(1).sim_config().threads, 1);
    }

    #[test]
    fn transcript_policy_drops_only_what_it_promises() {
        let g = gen::grid(6, 6);
        let full = RunSpec::new(5).run::<MaxFlood>(&g, &RADIUS);
        let completions = RunSpec::new(5)
            .with_transcript(TranscriptPolicy::CompletionsOnly)
            .run::<MaxFlood>(&g, &RADIUS);
        let none = RunSpec::new(5)
            .with_transcript(TranscriptPolicy::None)
            .run::<MaxFlood>(&g, &RADIUS);
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
        let fresh = spec.run::<MaxFlood>(&g, &RADIUS);
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
        let other = RunSpec::new(9).run::<MaxFlood>(&g, &RADIUS);
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
            spec.run::<MaxFlood>(&big, &RADIUS).node_output
        );
        // Back to the small shape: flush again, still correct.
        let back = spec.run_in::<MaxFlood>(&small, &RADIUS, &mut ws);
        assert_eq!(
            back.node_output,
            spec.run::<MaxFlood>(&small, &RADIUS).node_output
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
        // clears its range of buffer 1 again; only the reset can.
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// The round in which node 5 panics; 0 runs clean.
        static POISON: AtomicUsize = AtomicUsize::new(0);

        /// Broadcasts its round number plus one in rounds 0 to 2 and
        /// commits the sum of everything it received in round 3.
        struct MidRoundPanic {
            sum: u64,
        }
        impl Process for MidRoundPanic {
            type Message = u64;
            type NodeOutput = u64;
            type EdgeOutput = ();
            type Params = ();
            const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;
            fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
                ctx.broadcast(1);
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
                    ctx.broadcast(r as u64 + 1);
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
            let fresh = spec.run::<MidRoundPanic>(&g, &());
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
                let fresh = spec.run::<MaxFlood>(&g, &RADIUS);
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
        let t = RunSpec::new(3).run::<Staircase>(&g, &());
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
        let baseline = RunSpec::new(5).run::<MaxFlood>(&g, &RADIUS);
        assert!(g.n() < PARALLEL_MIN_NODES);
        for chunk in [1, 3, 7, 36, 1000] {
            for threads in [1, 2, 8] {
                let spec = RunSpec::new(5)
                    .with_exec(Exec::Parallel { threads })
                    .with_chunk_nodes(Some(chunk));
                let t = spec.run::<MaxFlood>(&g, &RADIUS);
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

            let baseline = RunSpec::new(1).run::<Chatter>(&g, &());
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
                    let t = RunSpec::new(1)
                        .with_exec(Exec::Parallel { threads })
                        .with_chunk_nodes(Some(chunk))
                        .run::<Chatter>(&g, &());
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
            let baseline = RunSpec::new(1).run::<Farewell>(&g, &());
            assert_eq!(baseline.rounds, 5);
            assert_eq!(baseline.node_messages_recv, expected);
            let outputs: Vec<u64> = baseline.node_output.iter().flatten().copied().collect();
            assert_eq!(outputs, expected);
            for chunk in [1, 3, g.n()] {
                for threads in [1, 2] {
                    let t = RunSpec::new(1)
                        .with_exec(Exec::Parallel { threads })
                        .with_chunk_nodes(Some(chunk))
                        .run::<Farewell>(&g, &());
                    assert_eq!(
                        t, baseline,
                        "transcript drift at chunk={chunk} threads={threads}"
                    );
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
