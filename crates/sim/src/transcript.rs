//! Execution transcripts: the per-node / per-edge commit ledger.
//!
//! The transcript records exactly the quantities Definition 1 of the paper
//! averages: for every node the round at which it committed its own output,
//! for every edge the round at which its label was committed, and for every
//! node the round at which it *terminated* (stopped sending messages) —
//! the alternative complexity notion discussed in §2 ("Computation vs.
//! Termination Time").

/// A round counter. Round 0 is the `init` phase (a "0-round algorithm"
/// commits during `init`); messages sent in round `r` arrive in round `r+1`.
pub type Round = usize;

/// Sentinel for "never committed / never halted".
pub const UNCOMMITTED: Round = Round::MAX;

/// How much ledger a run retains beyond the outputs themselves.
///
/// The paper's averaged measures (Definition 1) need only the per-element
/// *commit* clocks, yet the full transcript also carries the termination
/// ledger and a per-round CONGEST audit. When a caller runs thousands of
/// cells and only reads completion times, that bookkeeping is pure
/// overhead — the policy lets the engine skip it. Commit clocks and
/// outputs are **always** retained: without them the run could neither be
/// verified nor measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TranscriptPolicy {
    /// Everything: commit clocks, halt clocks, and the per-round
    /// CONGEST message audit (`max_message_bits`, `messages_sent`).
    #[default]
    Full,
    /// Commit and halt clocks only; the CONGEST audit is skipped
    /// (`max_message_bits` stays empty, `messages_sent` stays 0, and the
    /// engine never calls `MessageSize::size_bits`).
    CompletionsOnly,
    /// The bare minimum for a measurable, verifiable run: outputs and
    /// commit clocks. Halt clocks stay [`UNCOMMITTED`] (termination-time
    /// metrics degrade to the worst case) and the CONGEST audit is
    /// skipped.
    None,
}

impl TranscriptPolicy {
    /// Whether the engine keeps the per-round CONGEST audit.
    pub fn records_audit(&self) -> bool {
        matches!(self, TranscriptPolicy::Full)
    }

    /// Whether the engine records per-node halt (termination) rounds.
    pub fn records_halts(&self) -> bool {
        !matches!(self, TranscriptPolicy::None)
    }

    /// Stable CLI / JSON label (`"full"`, `"completions"`, `"none"`).
    pub fn label(&self) -> &'static str {
        match self {
            TranscriptPolicy::Full => "full",
            TranscriptPolicy::CompletionsOnly => "completions",
            TranscriptPolicy::None => "none",
        }
    }

    /// Parses a CLI label; the inverse of [`TranscriptPolicy::label`].
    pub fn parse(s: &str) -> Option<TranscriptPolicy> {
        match s {
            "full" => Some(TranscriptPolicy::Full),
            "completions" | "completions-only" => Some(TranscriptPolicy::CompletionsOnly),
            "none" => Some(TranscriptPolicy::None),
            _ => None,
        }
    }
}

/// Which outputs a problem labels — determines how Definition 1 completion
/// times treat missing commitments.
///
/// * For a node-labelling problem (MIS, coloring, ruling sets) the edges
///   carry no output; an edge is complete when both endpoints are.
/// * For an edge-labelling problem (matching, orientations) the nodes carry
///   no output; a node is complete when all incident edges are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputKind {
    /// Only nodes commit outputs.
    NodeLabels,
    /// Only edges commit outputs.
    EdgeLabels,
    /// Both nodes and edges commit outputs.
    Both,
}

/// Record of one simulated execution.
///
/// Produced by the [`engine`](crate::engine); can also be assembled by
/// hand for algorithms whose complexity accounting is done structurally
/// (Theorem 6's contraction levels build transcripts directly).
#[derive(Debug, Clone, PartialEq)]
pub struct Transcript<NO, EO> {
    /// What kind of outputs this problem commits.
    pub kind: OutputKind,
    /// Total rounds executed until every node halted.
    pub rounds: Round,
    /// Final node outputs (`None` if the node never committed one).
    pub node_output: Vec<Option<NO>>,
    /// Final edge outputs.
    pub edge_output: Vec<Option<EO>>,
    /// Round at which each node committed its own output ([`UNCOMMITTED`]
    /// if it never did — legitimate for [`OutputKind::EdgeLabels`]).
    pub node_commit_round: Vec<Round>,
    /// Round at which each edge's output was committed (earliest endpoint).
    pub edge_commit_round: Vec<Round>,
    /// Round at which each node halted (stopped participating).
    pub node_halt_round: Vec<Round>,
    /// Number of live (not yet halted) nodes *after* each executed round's
    /// halts were recorded — the engine's O(1) live-frontier counter,
    /// exported so oracles can cross-check it against a recomputation from
    /// `node_halt_round`. Recorded whenever halt rounds are (policies
    /// [`TranscriptPolicy::Full`] and [`TranscriptPolicy::CompletionsOnly`]);
    /// monotone non-increasing, and the final entry of a completed run
    /// is 0.
    pub live_after_round: Vec<usize>,
    /// Per-round maximum message size in bits (CONGEST audit); index 0 is
    /// the init phase.
    pub max_message_bits: Vec<usize>,
    /// Total number of point-to-point messages delivered.
    pub messages_sent: usize,
    /// Messages sent by each node over the whole run (CONGEST volume
    /// audit, the Rosenbaum–Suomela "volume" axis). Empty unless the run
    /// was audited ([`TranscriptPolicy::records_audit`]); when present the
    /// entries sum to [`Transcript::messages_sent`].
    pub node_messages_sent: Vec<u64>,
    /// Total bits sent by each node; empty unless audited.
    pub node_bits_sent: Vec<u64>,
    /// Messages received by each node; empty unless audited. Sums to at
    /// most `messages_sent` — messages addressed to an already-halted
    /// receiver count as sent but are never delivered.
    pub node_messages_recv: Vec<u64>,
    /// Total bits received by each node; empty unless audited.
    pub node_bits_recv: Vec<u64>,
}

impl<NO, EO> Transcript<NO, EO> {
    /// Creates an empty transcript for `n` nodes and `m` edges.
    ///
    /// Every per-node/per-edge ledger column is allocated up front at its
    /// final size, and the per-round audit vector reserves a generous
    /// starting capacity — the engine never reallocates a transcript in
    /// the steady state.
    pub fn empty(kind: OutputKind, n: usize, m: usize) -> Self {
        Transcript {
            kind,
            rounds: 0,
            node_output: (0..n).map(|_| None).collect(),
            edge_output: (0..m).map(|_| None).collect(),
            node_commit_round: vec![UNCOMMITTED; n],
            edge_commit_round: vec![UNCOMMITTED; m],
            node_halt_round: vec![UNCOMMITTED; n],
            live_after_round: Vec::with_capacity(64),
            max_message_bits: Vec::with_capacity(64),
            messages_sent: 0,
            node_messages_sent: Vec::new(),
            node_bits_sent: Vec::new(),
            node_messages_recv: Vec::new(),
            node_bits_recv: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.node_output.len()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edge_output.len()
    }

    /// Whether every node committed a node output.
    pub fn all_nodes_committed(&self) -> bool {
        self.node_commit_round.iter().all(|&r| r != UNCOMMITTED)
    }

    /// Whether every edge output was committed.
    pub fn all_edges_committed(&self) -> bool {
        self.edge_commit_round.iter().all(|&r| r != UNCOMMITTED)
    }

    /// Whether the transcript's committed outputs are complete for its
    /// [`OutputKind`].
    pub fn is_complete(&self) -> bool {
        match self.kind {
            OutputKind::NodeLabels => self.all_nodes_committed(),
            OutputKind::EdgeLabels => self.all_edges_committed(),
            OutputKind::Both => self.all_nodes_committed() && self.all_edges_committed(),
        }
    }

    /// Whether this run carried the CONGEST audit at all. The engine pushes
    /// one `max_message_bits` entry per executed round — and round 0 (init)
    /// always executes — so an audited transcript is never empty here, and
    /// emptiness cleanly means "the audit was skipped", not "silent run".
    pub fn audited(&self) -> bool {
        !self.max_message_bits.is_empty()
    }

    /// The maximum message size over all rounds, in bits.
    ///
    /// Returns `None` when the run was not audited
    /// ([`TranscriptPolicy::CompletionsOnly`] / [`TranscriptPolicy::None`])
    /// and `Some(0)` for an audited run that happened to be silent — the
    /// two cases an unconditional `0` used to conflate.
    pub fn peak_message_bits(&self) -> Option<usize> {
        self.audited()
            .then(|| self.max_message_bits.iter().copied().max().unwrap_or(0))
    }

    /// Stamps the audit columns of a hand-built *structural* transcript
    /// whose accounting proves no messages are exchanged: every round's
    /// peak is 0 bits and every node's volume is 0. Callers set `rounds`
    /// first. After this, [`Transcript::audited`] reports `true` and
    /// [`Transcript::peak_message_bits`] returns `Some(0)` — a silent but
    /// audited run, distinct from a run whose audit was skipped.
    pub fn record_silent_audit(&mut self) {
        let n = self.n();
        self.max_message_bits = vec![0; self.rounds + 1];
        self.messages_sent = 0;
        self.node_messages_sent = vec![0; n];
        self.node_bits_sent = vec![0; n];
        self.node_messages_recv = vec![0; n];
        self.node_bits_recv = vec![0; n];
    }

    /// The round node `v` committed its own output, or `None` if it never
    /// did. The `Option` accessors exist for independent reimplementations
    /// of the Definition 1 accounting (the `localavg_core::check` oracle):
    /// they expose the raw ledger without the [`UNCOMMITTED`] sentinel
    /// convention leaking into the caller.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn node_commit(&self, v: usize) -> Option<Round> {
        match self.node_commit_round[v] {
            UNCOMMITTED => None,
            r => Some(r),
        }
    }

    /// The round edge `e`'s output was committed, or `None` if it never
    /// was.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    pub fn edge_commit(&self, e: usize) -> Option<Round> {
        match self.edge_commit_round[e] {
            UNCOMMITTED => None,
            r => Some(r),
        }
    }

    /// The round node `v` halted, or `None` if the run never recorded a
    /// halt for it (legitimate under `TranscriptPolicy::None`).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn node_halt(&self, v: usize) -> Option<Round> {
        match self.node_halt_round[v] {
            UNCOMMITTED => None,
            r => Some(r),
        }
    }

    /// Rebuilds [`Transcript::live_after_round`] from the per-node halt
    /// ledger: entry `r` counts the nodes still live after round `r`
    /// (halt round `> r`), computed as a halt-round histogram plus a
    /// suffix sum — O(n + rounds).
    ///
    /// This is how *structural* algorithms (sinkless orientation's
    /// deterministic construction, the `*/tree-rc` layer-peeling family)
    /// hand-build transcripts that satisfy the same frontier-decay
    /// invariant the round engine's O(1) live counter records: monotone
    /// non-increasing, final entry zero. Callers set `rounds` and every
    /// `node_halt_round` first.
    ///
    /// # Panics
    ///
    /// Panics if any node's halt round exceeds `self.rounds` (such a halt
    /// could never have been observed by a `rounds`-round run).
    pub fn rebuild_live_ledger(&mut self) {
        let rounds = self.rounds;
        let mut halts_at = vec![0usize; rounds + 1];
        for &h in &self.node_halt_round {
            assert!(
                h <= rounds,
                "node halt round {h} exceeds the transcript's {rounds} rounds"
            );
            halts_at[h] += 1;
        }
        self.live_after_round = vec![0; rounds + 1];
        let mut live = 0;
        for r in (0..rounds).rev() {
            live += halts_at[r + 1];
            self.live_after_round[r] = live;
        }
    }
}

impl<NO, EO> Transcript<NO, EO> {
    /// Erases the output types, keeping every timing/audit field.
    ///
    /// The erased transcript carries `()` placeholders wherever an output
    /// was committed, so completeness checks and all of Definition 1's
    /// completion-time accounting keep working. This is what lets
    /// heterogeneous algorithm families share one result type
    /// (`localavg_core::algo::AlgoRun`). The ledger columns (commit/halt
    /// clocks, audit) are *moved*, not cloned; only the two output
    /// vectors are re-mapped.
    pub fn into_erased(self) -> Transcript<(), ()> {
        Transcript {
            kind: self.kind,
            rounds: self.rounds,
            node_output: self
                .node_output
                .iter()
                .map(|o| o.as_ref().map(|_| ()))
                .collect(),
            edge_output: self
                .edge_output
                .iter()
                .map(|o| o.as_ref().map(|_| ()))
                .collect(),
            node_commit_round: self.node_commit_round,
            edge_commit_round: self.edge_commit_round,
            node_halt_round: self.node_halt_round,
            live_after_round: self.live_after_round,
            max_message_bits: self.max_message_bits,
            messages_sent: self.messages_sent,
            node_messages_sent: self.node_messages_sent,
            node_bits_sent: self.node_bits_sent,
            node_messages_recv: self.node_messages_recv,
            node_bits_recv: self.node_bits_recv,
        }
    }
}

impl<NO: Clone, EO: Clone> Transcript<NO, EO> {
    /// Extracts the node outputs, panicking on any missing one.
    ///
    /// # Panics
    ///
    /// Panics if some node never committed — call only on complete
    /// node-labelling transcripts.
    pub fn node_labels(&self) -> Vec<NO> {
        self.node_output
            .iter()
            .enumerate()
            .map(|(v, o)| {
                o.clone()
                    .unwrap_or_else(|| panic!("node {v} never committed"))
            })
            .collect()
    }

    /// Extracts the edge outputs, panicking on any missing one.
    ///
    /// # Panics
    ///
    /// Panics if some edge never committed.
    pub fn edge_labels(&self) -> Vec<EO> {
        self.edge_output
            .iter()
            .enumerate()
            .map(|(e, o)| {
                o.clone()
                    .unwrap_or_else(|| panic!("edge {e} never committed"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_transcript() {
        let t: Transcript<bool, ()> = Transcript::empty(OutputKind::NodeLabels, 3, 2);
        assert_eq!(t.n(), 3);
        assert_eq!(t.m(), 2);
        assert!(!t.all_nodes_committed());
        assert!(!t.is_complete());
        assert!(!t.audited());
        assert_eq!(t.peak_message_bits(), None);
    }

    #[test]
    fn silent_audit_is_distinct_from_no_audit() {
        let mut t: Transcript<bool, ()> = Transcript::empty(OutputKind::NodeLabels, 3, 2);
        t.rounds = 2;
        t.record_silent_audit();
        assert!(t.audited());
        assert_eq!(t.peak_message_bits(), Some(0));
        assert_eq!(t.max_message_bits, vec![0, 0, 0]);
        assert_eq!(t.node_messages_sent, vec![0, 0, 0]);
        assert_eq!(t.node_bits_recv, vec![0, 0, 0]);
        assert_eq!(t.messages_sent, 0);
    }

    #[test]
    fn completeness_by_kind() {
        let mut t: Transcript<bool, bool> = Transcript::empty(OutputKind::EdgeLabels, 2, 1);
        t.edge_commit_round[0] = 3;
        t.edge_output[0] = Some(true);
        assert!(t.is_complete());
        t.kind = OutputKind::Both;
        assert!(!t.is_complete());
        t.node_commit_round = vec![0, 1];
        assert!(t.is_complete());
    }

    #[test]
    fn label_extraction() {
        let mut t: Transcript<u8, u8> = Transcript::empty(OutputKind::Both, 2, 1);
        t.node_output = vec![Some(1), Some(2)];
        t.edge_output = vec![Some(9)];
        assert_eq!(t.node_labels(), vec![1, 2]);
        assert_eq!(t.edge_labels(), vec![9]);
    }

    #[test]
    #[should_panic]
    fn missing_label_panics() {
        let t: Transcript<u8, ()> = Transcript::empty(OutputKind::NodeLabels, 1, 0);
        let _ = t.node_labels();
    }

    #[test]
    fn policy_gates_and_labels() {
        assert!(TranscriptPolicy::Full.records_audit());
        assert!(TranscriptPolicy::Full.records_halts());
        assert!(!TranscriptPolicy::CompletionsOnly.records_audit());
        assert!(TranscriptPolicy::CompletionsOnly.records_halts());
        assert!(!TranscriptPolicy::None.records_audit());
        assert!(!TranscriptPolicy::None.records_halts());
        assert_eq!(TranscriptPolicy::default(), TranscriptPolicy::Full);
        for p in [
            TranscriptPolicy::Full,
            TranscriptPolicy::CompletionsOnly,
            TranscriptPolicy::None,
        ] {
            assert_eq!(TranscriptPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(
            TranscriptPolicy::parse("completions-only"),
            Some(TranscriptPolicy::CompletionsOnly)
        );
        assert_eq!(TranscriptPolicy::parse("fast"), None);
    }

    #[test]
    fn option_accessors_mirror_the_sentinel_columns() {
        let mut t: Transcript<u8, u8> = Transcript::empty(OutputKind::Both, 2, 1);
        t.node_commit_round[0] = 3;
        t.edge_commit_round[0] = 4;
        t.node_halt_round[1] = 5;
        assert_eq!(t.node_commit(0), Some(3));
        assert_eq!(t.node_commit(1), None);
        assert_eq!(t.edge_commit(0), Some(4));
        assert_eq!(t.node_halt(0), None);
        assert_eq!(t.node_halt(1), Some(5));
    }

    #[test]
    fn into_erased_preserves_the_ledger() {
        let mut t: Transcript<u8, u8> = Transcript::empty(OutputKind::Both, 2, 1);
        t.node_commit_round = vec![1, 2];
        t.node_output = vec![Some(7), None];
        t.edge_commit_round = vec![3];
        t.edge_output = vec![Some(9)];
        t.node_halt_round = vec![4, 5];
        t.live_after_round = vec![2, 1, 0];
        t.max_message_bits = vec![8, 16];
        t.messages_sent = 6;
        t.node_messages_sent = vec![4, 2];
        t.node_bits_sent = vec![24, 16];
        t.node_messages_recv = vec![2, 4];
        t.node_bits_recv = vec![16, 24];
        t.rounds = 5;
        let erased = t.into_erased();
        assert_eq!(erased.kind, OutputKind::Both);
        assert_eq!(erased.rounds, 5);
        assert_eq!(erased.node_commit_round, vec![1, 2]);
        assert_eq!(erased.edge_commit_round, vec![3]);
        assert_eq!(erased.node_halt_round, vec![4, 5]);
        assert_eq!(erased.live_after_round, vec![2, 1, 0]);
        assert_eq!(erased.max_message_bits, vec![8, 16]);
        assert_eq!(erased.messages_sent, 6);
        assert_eq!(erased.node_messages_sent, vec![4, 2]);
        assert_eq!(erased.node_bits_sent, vec![24, 16]);
        assert_eq!(erased.node_messages_recv, vec![2, 4]);
        assert_eq!(erased.node_bits_recv, vec![16, 24]);
        assert_eq!(erased.node_output, vec![Some(()), None]);
        assert_eq!(erased.edge_output, vec![Some(())]);
    }
}
