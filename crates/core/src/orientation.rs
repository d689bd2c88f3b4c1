//! Sinkless orientation (paper §3.3, Theorem 6, and the randomized
//! counterpart of §1.2/\[GS17a\]).
//!
//! A *sinkless orientation* directs every edge so that every node has
//! out-degree at least 1 (the problem is defined on graphs of minimum
//! degree 3). Deterministically the worst case is Θ(log n) even on
//! 3-regular graphs \[BFH+16\]; the paper's Theorem 6 shows the
//! node-averaged complexity is nevertheless only O(log* n).
//!
//! Two algorithms:
//!
//! * `"orientation/rand"` — proposal contests in the spirit of \[GS17a\]: every
//!   unsatisfied node claims a random unoriented edge each iteration, with
//!   a *grant rule* that keeps every unsatisfied node at least two
//!   unoriented edges (so nobody can be starved into a sink). On a
//!   3-regular input no proposing node has grant budget (3 − 2 − 1 = 0),
//!   so the contest orients nothing and the structural finisher below
//!   does the whole job: at n = 65 536, d = 3 a run reads 25.00 awake
//!   node-rounds per node, node-avg 45.55 and peak message bits 0.
//! * `"orientation/det"` — Theorem 6's algorithm with its contraction-level
//!   cost accounting implemented exactly as the paper's proof charges it:
//!   each node picks 3 edges (unreciprocated picks act as the paper's
//!   *self-loops* = free outs); short cycles (≤ 6r + 1 vedges) take the
//!   *preferred orientation of the containing cycle with the
//!   lexicographically smallest sorted-id key* (conflict-free by the
//!   paper's argument); the remaining high-girth 3-regular structure
//!   is clustered around a (2r+1)-independent set, cluster interiors
//!   orient toward the kept exit paths, and the cluster graph recurses as
//!   a virtual graph where one virtual round costs `4r+4` real rounds.
//!   The few final virtual nodes go to the structural finisher below.
//!   Clustering and that finisher run only on a residue component of the
//!   level-0 mutual-pick graph that is 3-regular with no cycle of at most
//!   6r + 1 vedges; at r = 2 the Moore bound puts such a component at 254
//!   or more vnodes. No registry family, test or benchmark builds one:
//!   on each of them the waves and the short cycles decide every vnode at
//!   level 0.
//!
//! Both finish with one structural rule on a virtual graph;
//! `orientation/rand` builds a stretch-1 one with a link per unoriented
//! edge of an unsatisfied node:
//!
//! * `waves`: undecided vnodes take a free port or a link to a decided
//!   vnode as their out-edge, one wave per `stretch` rounds;
//! * `cycle_finisher`: each leftover component orients toward the cycle
//!   that a BFS from its minimum-id vnode closes, every vnode charged the
//!   radius it read (the LOCAL-model equivalence of §2: a T-round
//!   algorithm ≡ a function of the radius-T view);
//! * `default_orient`: every edge still unset orients away from its
//!   higher-id endpoint.
//!
//! See DESIGN.md ("Theorem 6 contraction levels") for the accounting and
//! substitution notes: the clustering MIS uses a measured greedy sweep
//! instead of Linial's constant-heavy O(log* n) procedure.
//!
//! Both run through [`crate::algo::registry`]:
//!
//! ```
//! use localavg_core::algo::{registry, RunSpec};
//! use localavg_graph::{analysis, gen, rng::Rng};
//!
//! let mut rng = Rng::seed_from(5);
//! let g = gen::random_regular(64, 3, &mut rng).expect("graph");
//! for name in ["orientation/rand", "orientation/det"] {
//!     let run = registry().get(name).expect("registered").execute(&g, &RunSpec::new(11));
//!     let orientation = run.solution.orientation().expect("an orientation solution");
//!     assert!(analysis::is_sinkless_orientation(&g, orientation));
//! }
//! ```

use crate::algo::{AlgoRun, Solution};
use localavg_graph::analysis::Orientation;
use localavg_graph::{analysis, EdgeId, Graph, NodeId};
use localavg_sim::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

// ---------------------------------------------------------------------------
// Shared ledger for structurally-accounted phases
// ---------------------------------------------------------------------------

/// Collects orientations and commit clocks, then becomes a transcript.
struct Ledger {
    orient: Vec<Option<Orientation>>,
    clock: Vec<usize>,
    node_clock: Vec<usize>,
}

impl Ledger {
    fn new(g: &Graph) -> Self {
        Ledger {
            orient: vec![None; g.m()],
            clock: vec![0; g.m()],
            node_clock: vec![0; g.n()],
        }
    }

    fn set(&mut self, e: EdgeId, o: Orientation, clock: usize) {
        assert!(
            self.orient[e].is_none(),
            "edge {e} oriented twice — construction bug"
        );
        self.orient[e] = Some(o);
        self.clock[e] = clock;
    }

    fn is_set(&self, e: EdgeId) -> bool {
        self.orient[e].is_some()
    }

    fn decide_node(&mut self, v: NodeId, clock: usize) {
        if self.node_clock[v] == 0 {
            self.node_clock[v] = clock;
        }
    }

    fn into_transcript(self, g: &Graph, policy: TranscriptPolicy) -> Transcript<(), Orientation> {
        let mut t: Transcript<(), Orientation> =
            Transcript::empty(OutputKind::EdgeLabels, g.n(), g.m());
        let mut max_clock = 0usize;
        for e in 0..g.m() {
            let o = self.orient[e].unwrap_or_else(|| panic!("edge {e} never oriented"));
            t.edge_output[e] = Some(o);
            t.edge_commit_round[e] = self.clock[e];
            max_clock = max_clock.max(self.clock[e]);
        }
        // A node terminates when its last incident edge commits.
        for v in g.nodes() {
            let last = g
                .neighbors(v)
                .map(|(_, e)| self.clock[e])
                .max()
                .unwrap_or(0);
            t.node_halt_round[v] = last;
        }
        t.rounds = max_clock;
        // Hand-built transcripts carry the same live-frontier ledger the
        // engine records — rebuilt from the halt rounds in O(n + rounds).
        t.rebuild_live_ledger();
        // The structural accounting proves the construction exchanges no
        // messages, so an audited run is *silently* audited: peak
        // `Some(0)` under Full, `None` (audit skipped) otherwise —
        // mirroring what the round engine records for each policy.
        if policy.records_audit() {
            t.record_silent_audit();
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Randomized sinkless orientation
// ---------------------------------------------------------------------------

/// Messages of the randomized phase-1 process.
#[derive(Debug, Clone, PartialEq)]
pub enum SoMsg {
    /// Claim the shared edge outward (with a tie-break coin).
    Propose(u64),
    /// Grant the proposer's claim.
    Grant,
    /// The shared edge is now oriented away from the sender.
    Orient,
    /// The sender is satisfied (has an out-edge).
    Satisfied,
}

impl MessageSize for SoMsg {
    fn size_bits(&self) -> usize {
        match self {
            SoMsg::Propose(_) => 2 + 64,
            _ => 2,
        }
    }
}

/// Proposal-contest phase: runs a fixed number of 3-round iterations.
struct RandOrient {
    iterations: usize,
    satisfied: bool,
    oriented: Vec<bool>,
    nbr_satisfied: Vec<bool>,
    proposal: Option<usize>,
    coin: u64,
    proposers: Vec<Option<u64>>,
}

impl RandOrient {
    fn unoriented_count(&self) -> usize {
        self.oriented.iter().filter(|&&o| !o).count()
    }

    /// Sleeps until the final round once the node can no longer contest
    /// (see `Ctx::sleep_until`): a satisfied node, or one whose every edge
    /// is oriented, draws no randomness, holds no proposal, and with an
    /// empty inbox neither proposes nor grants. Proposals and orientations
    /// reach it as messages, which wake it.
    fn nap(&self, ctx: &mut Ctx<'_, Self>) {
        if self.satisfied || self.unoriented_count() == 0 {
            ctx.sleep_until(3 * self.iterations);
        }
    }

    fn propose_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<SoMsg>]) {
        self.absorb_with_commit(ctx, inbox);
        self.proposal = None;
        if self.satisfied {
            return;
        }
        // Free grab: an unoriented edge toward a satisfied neighbor.
        let free = ctx
            .ports()
            .find(|&p| !self.oriented[p] && self.nbr_satisfied[p]);
        if let Some(p) = free {
            self.take_out_edge(ctx, p);
            return;
        }
        // Contest: claim a random unoriented edge.
        let candidates: Vec<usize> = ctx.ports().filter(|&p| !self.oriented[p]).collect();
        if candidates.is_empty() {
            return; // residue; resolved by the structural finisher
        }
        let p = *ctx.rng().choose(&candidates);
        self.coin = ctx.rng().next_u64();
        self.proposal = Some(p);
        ctx.send(p, SoMsg::Propose(self.coin));
    }

    fn grant_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<SoMsg>]) {
        for env in inbox {
            if let SoMsg::Propose(c) = env.msg {
                self.proposers[env.port] = Some(c);
            }
        }
        // An unsatisfied node must keep at least 2 unoriented edges even if
        // every grant succeeds, so its grant *budget* this round is
        // `unoriented - 2` (minus one more if it might win its own mutual
        // contest simultaneously).
        let mut budget = if self.satisfied {
            usize::MAX
        } else {
            self.unoriented_count()
                .saturating_sub(2)
                .saturating_sub(usize::from(self.proposal.is_some()))
        };
        for port in ctx.ports() {
            let Some(their_coin) = self.proposers[port] else {
                continue;
            };
            let mutual = self.proposal == Some(port);
            if mutual && (self.coin, ctx.id()) > (their_coin, ctx.neighbor_id(port)) {
                continue; // we win the mutual contest; no grant
            }
            if budget == 0 {
                continue;
            }
            budget = budget.saturating_sub(1);
            ctx.send(port, SoMsg::Grant);
        }
        // Proposals live for one grant round.
        self.proposers.iter_mut().for_each(|p| *p = None);
    }

    fn resolve_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<SoMsg>]) {
        let Some(p) = self.proposal else {
            return;
        };
        let granted = inbox
            .iter()
            .any(|env| env.port == p && matches!(env.msg, SoMsg::Grant));
        if granted && !self.oriented[p] {
            self.take_out_edge(ctx, p);
        }
    }

    /// Orients port `p` outward, commits, and announces.
    fn take_out_edge(&mut self, ctx: &mut Ctx<'_, Self>, p: usize) {
        self.oriented[p] = true;
        self.satisfied = true;
        // A satisfied node never proposes again (the next propose phase
        // would clear this anyway).
        self.proposal = None;
        let away = ctx.orientation_away_from_self(p);
        ctx.commit_edge(p, away);
        ctx.send(p, SoMsg::Orient);
        ctx.broadcast(SoMsg::Satisfied);
    }

    fn absorb_with_commit(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<SoMsg>]) {
        for env in inbox {
            match env.msg {
                SoMsg::Orient => {
                    if !self.oriented[env.port] {
                        self.oriented[env.port] = true;
                        let toward_me = ctx.orientation_toward_self(env.port);
                        ctx.commit_edge(env.port, toward_me);
                    }
                    self.nbr_satisfied[env.port] = true;
                }
                SoMsg::Satisfied => self.nbr_satisfied[env.port] = true,
                _ => {}
            }
        }
    }
}

/// Helper extension: compute [`Orientation`] labels relative to self.
trait OrientExt {
    fn orientation_away_from_self(&self, port: usize) -> Orientation;
    fn orientation_toward_self(&self, port: usize) -> Orientation;
}

impl OrientExt for Ctx<'_, RandOrient> {
    fn orientation_away_from_self(&self, port: usize) -> Orientation {
        let me = self.id();
        let other = self.neighbor_id(port);
        if me < other {
            Orientation::Forward
        } else {
            Orientation::Backward
        }
    }

    fn orientation_toward_self(&self, port: usize) -> Orientation {
        match self.orientation_away_from_self(port) {
            Orientation::Forward => Orientation::Backward,
            Orientation::Backward => Orientation::Forward,
        }
    }
}

impl Process for RandOrient {
    type Message = SoMsg;
    type NodeOutput = ();
    type EdgeOutput = Orientation;
    type Params = usize; // number of contest iterations

    const OUTPUT_KIND: OutputKind = OutputKind::EdgeLabels;

    fn init(iterations: &usize, ctx: &mut Ctx<'_, Self>) -> Self {
        let degree = ctx.degree();
        let mut state = RandOrient {
            iterations: *iterations,
            satisfied: false,
            oriented: vec![false; degree],
            nbr_satisfied: vec![false; degree],
            proposal: None,
            coin: 0,
            proposers: vec![None; degree],
        };
        state.propose_phase(ctx, &[]);
        state.nap(ctx);
        state
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<SoMsg>]) {
        if ctx.round() >= 3 * self.iterations {
            // End of the message phase: absorb stragglers and stop.
            self.absorb_with_commit(ctx, inbox);
            ctx.halt();
            return;
        }
        match ctx.round() % 3 {
            0 => self.propose_phase(ctx, inbox),
            1 => self.grant_phase(ctx, inbox),
            _ => self.resolve_phase(ctx, inbox),
        }
        self.nap(ctx);
    }
}

/// Tuning parameters of the randomized orientation (`"orientation/rand"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RandOrientParams {
    /// Proposal-contest iterations before the structural finisher takes
    /// over; more iterations shrink the residue the finisher pays for.
    /// Must be at least 1.
    pub contest_iterations: usize,
}

impl Default for RandOrientParams {
    fn default() -> Self {
        RandOrientParams {
            contest_iterations: 8,
        }
    }
}

/// Runs the randomized sinkless orientation (`"orientation/rand"`):
/// contest phase plus the structural finisher (see module docs). The
/// workspace serves the contest phase; the finisher allocates its own
/// ledger.
///
/// # Panics
///
/// Panics if the graph has minimum degree `< 3` (the problem's domain) or
/// the produced orientation fails validation.
///
/// # Example
///
/// ```
/// use localavg_core::algo::{registry, RunSpec};
/// use localavg_graph::{analysis, gen, rng::Rng};
///
/// let mut rng = Rng::seed_from(5);
/// let g = gen::random_regular(64, 3, &mut rng).expect("graph");
/// let rand = registry().get("orientation/rand").expect("registered");
/// let run = rand.execute(&g, &RunSpec::new(11));
/// let orientation = run.solution.orientation().expect("an orientation solution");
/// assert!(analysis::is_sinkless_orientation(&g, orientation));
/// ```
pub(crate) fn randomized(
    g: &Graph,
    spec: &RunSpec,
    params: &RandOrientParams,
    ws: &mut Workspace,
) -> AlgoRun {
    assert!(
        g.n() == 0 || g.min_degree() >= 3,
        "sinkless orientation requires minimum degree 3"
    );
    let t = spec.run_in::<RandOrient>(g, &params.contest_iterations, ws);

    // Transfer the phase-1 commits into the ledger, then finish structurally
    // on a stretch-1 vgraph: one vnode per node, ports in `g.neighbors`
    // order.
    let mut ledger = Ledger::new(g);
    for e in 0..g.m() {
        if let Some(o) = t.edge_output[e] {
            ledger.set(e, o, t.edge_commit_round[e]);
        }
    }
    let base = t.rounds;
    // A node is satisfied (decided at `base`) once it has an out-edge.
    let mut decided: Vec<bool> = g
        .nodes()
        .map(|v| {
            g.neighbors(v)
                .any(|(_, e)| ledger.orient[e].is_some_and(|o| o.tail(g, e) == v))
        })
        .collect();
    // An unsatisfied node picks its unoriented edges: a link to another
    // unsatisfied node, a free port toward a satisfied one.
    let picks: Vec<Vec<EdgeId>> = g
        .nodes()
        .map(|v| {
            g.neighbors(v)
                .map(|(_, e)| e)
                .filter(|&e| !decided[v] && !ledger.is_set(e))
                .collect()
        })
        .collect();
    let vg = picked_vgraph(g, &picks);
    let mut result = LevelResult {
        vedge_dir: vec![None; vg.vedges.len()],
        vnode_clock: decided.iter().map(|&d| if d { base } else { 0 }).collect(),
    };
    // The finisher starts one tick after the last productive wave.
    let clock = waves(&vg, &mut decided, 1, base, &mut ledger, &mut result) + 1;
    cycle_finisher(&vg, &decided, 1, clock, &mut ledger, &mut result);
    default_orient(g, &result.vnode_clock, &mut ledger, clock);
    finalize("orientation/rand", g, ledger, spec.transcript)
}

/// Decides every node at its level-0 vnode clock, then orients every edge
/// still unset away from its higher-id endpoint, one tick after the later
/// of `floor` and its endpoints' decision clocks.
fn default_orient(g: &Graph, vnode_clock: &[usize], ledger: &mut Ledger, floor: usize) {
    for (v, &c) in vnode_clock.iter().enumerate() {
        ledger.decide_node(v, c);
    }
    for (e, u, v) in g.edges() {
        if !ledger.is_set(e) {
            let c = ledger.node_clock[u].max(ledger.node_clock[v]).max(floor) + 1;
            ledger.set(e, Orientation::away_from(g, e, u.max(v)), c);
        }
    }
}

fn finalize(
    algorithm: &'static str,
    g: &Graph,
    ledger: Ledger,
    policy: TranscriptPolicy,
) -> AlgoRun {
    let t = ledger.into_transcript(g, policy);
    let orientation = t.edge_labels();
    assert!(
        analysis::is_sinkless_orientation(g, &orientation),
        "produced orientation has a sink"
    );
    AlgoRun::new(
        algorithm,
        g,
        t.into_erased(),
        Solution::Orientation { orientation },
    )
}

// ---------------------------------------------------------------------------
// Theorem 6: deterministic sinkless orientation with contraction levels
// ---------------------------------------------------------------------------

/// A virtual edge: a path of original edges between two virtual nodes.
#[derive(Debug, Clone)]
struct VEdge {
    a: usize,
    /// `None` = free port of `a` (the paper's "self-loop": orientable
    /// outward by `a` at any time).
    b: Option<usize>,
    /// Original edges along the path from the `a` side; `bool` = walk
    /// direction agrees with the stored endpoint order (`Forward`).
    path: Vec<(EdgeId, bool)>,
    /// Original nodes strictly inside the path.
    inner: Vec<NodeId>,
}

impl VEdge {
    /// Orients the whole path away from one side.
    fn orient(&self, ledger: &mut Ledger, from_a: bool, clock: usize) {
        let seq: Vec<(EdgeId, bool)> = if from_a {
            self.path.clone()
        } else {
            self.path.iter().rev().map(|&(e, s)| (e, !s)).collect()
        };
        for (e, sense) in seq {
            if !ledger.is_set(e) {
                let o = if sense {
                    Orientation::Forward
                } else {
                    Orientation::Backward
                };
                ledger.set(e, o, clock);
            }
        }
        for &v in &self.inner {
            ledger.decide_node(v, clock);
        }
    }
}

#[derive(Debug, Clone)]
struct VGraph {
    /// host original node per vnode, ascending in the vnode index at every
    /// level (level 0 is the identity; a deeper level keeps its centers in
    /// index order).
    host: Vec<NodeId>,
    /// ports\[v\] = indices into `vedges` (1..=3 per vnode in Theorem 6;
    /// one per residue edge in `orientation/rand`).
    ports: Vec<Vec<usize>>,
    vedges: Vec<VEdge>,
}

impl VGraph {
    fn other(&self, ve: usize, v: usize) -> Option<usize> {
        let edge = &self.vedges[ve];
        if edge.a == v {
            edge.b
        } else {
            Some(edge.a)
        }
    }
}

/// Outcome of a level solve for the caller: orientation (from-a?) and
/// clock per vedge, and decision clock per vnode.
struct LevelResult {
    vedge_dir: Vec<Option<(bool, usize)>>,
    vnode_clock: Vec<usize>,
}

/// Parameters of the deterministic algorithm.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DetOrientParams {
    /// The paper's constant `r` (short cycles of `<= 6r + 1` vedges,
    /// cluster radius `2r+1`, stretch `4r+4`). The paper takes `r >= 15`
    /// for its constant bounds; `r = 2` keeps the measured constants small
    /// while preserving every structural property (the girth argument
    /// needs `r >= 2`).
    pub r: usize,
    /// Recursion cutoff: virtual graphs at most this large go straight to
    /// the cycle finisher.
    pub finish_threshold: usize,
    /// Hard cap on recursion depth.
    pub max_depth: usize,
}

impl Default for DetOrientParams {
    fn default() -> Self {
        DetOrientParams {
            r: 2,
            finish_threshold: 48,
            max_depth: 12,
        }
    }
}

/// Runs Theorem 6's deterministic sinkless orientation
/// (`"orientation/det"`) under `policy` — the only part of a [`RunSpec`]
/// that affects a structurally-assembled transcript (there is no round
/// engine to parallelize or seed). Under an audited policy the transcript
/// carries a silent audit (peak `Some(0)`); otherwise the audit columns
/// stay empty, like an engine run under the same policy.
///
/// # Panics
///
/// Panics if the graph is nonempty with minimum degree `< 3`, or if the
/// produced orientation fails validation.
///
/// # Example
///
/// ```
/// use localavg_core::algo::{registry, RunSpec};
/// use localavg_graph::{analysis, gen, rng::Rng};
///
/// let mut rng = Rng::seed_from(9);
/// let g = gen::random_regular(64, 3, &mut rng).expect("graph");
/// let det = registry().get("orientation/det").expect("registered");
/// let run = det.execute(&g, &RunSpec::new(0));
/// let orientation = run.solution.orientation().expect("an orientation solution");
/// assert!(analysis::is_sinkless_orientation(&g, orientation));
/// let reseeded = det.execute(&g, &RunSpec::new(1));
/// assert_eq!(reseeded.solution.orientation(), Some(orientation));
/// ```
pub(crate) fn deterministic(
    g: &Graph,
    params: DetOrientParams,
    policy: TranscriptPolicy,
) -> AlgoRun {
    assert!(
        g.n() == 0 || g.min_degree() >= 3,
        "sinkless orientation requires minimum degree 3"
    );
    let mut ledger = Ledger::new(g);
    let vg = level0_vgraph(g);
    let mut result = LevelResult {
        vedge_dir: vec![None; vg.vedges.len()],
        vnode_clock: vec![0; vg.host.len()],
    };
    solve_level(&vg, &params, 1, 0, 0, &mut ledger, &mut result);

    // Default-orient the never-picked original edges.
    default_orient(g, &result.vnode_clock, &mut ledger, 1);
    finalize("orientation/det", g, ledger, policy)
}

/// Level 0 of Theorem 6: every node picks its 3 smallest incident edges
/// (the paper's degree-3 truncation); unpicked edges default later.
fn level0_vgraph(g: &Graph) -> VGraph {
    let picks: Vec<Vec<EdgeId>> = g
        .nodes()
        .map(|v| {
            let mut es: Vec<EdgeId> = g.neighbors(v).map(|(_, e)| e).collect();
            es.sort_unstable();
            es.truncate(3);
            es
        })
        .collect();
    picked_vgraph(g, &picks)
}

/// The vgraph of per-node edge picks: one vnode per node with one port
/// per pick, in pick order. Mutual picks are links; one-sided picks act
/// as the paper's self-loops (free ports).
fn picked_vgraph(g: &Graph, picks: &[Vec<EdgeId>]) -> VGraph {
    let mut pickers = vec![0u8; g.m()];
    picks.iter().flatten().for_each(|&e| pickers[e] += 1);
    let mut vedges = Vec::new();
    let mut ports: Vec<Vec<usize>> = vec![Vec::new(); g.n()];
    // The vedge of each picked edge, made by its first picking endpoint.
    let mut vedge_of: Vec<Option<usize>> = vec![None; g.m()];
    for v in g.nodes() {
        for &e in &picks[v] {
            if let Some(idx) = vedge_of[e] {
                // The other endpoint picked `e` too: a link.
                ports[v].push(idx);
                continue;
            }
            let (x, y) = g.endpoints(e);
            let other = if x == v { y } else { x };
            let idx = vedges.len();
            vedges.push(VEdge {
                a: v,
                b: (pickers[e] == 2).then_some(other),
                path: vec![(e, x == v)],
                inner: Vec::new(),
            });
            vedge_of[e] = Some(idx);
            ports[v].push(idx);
        }
    }
    VGraph {
        host: g.nodes().collect(),
        ports,
        vedges,
    }
}

/// The wave rule of both algorithms: free ports and links to decided
/// vnodes are outs. Wave `i` runs at `clock + i·stretch`; in it every
/// undecided vnode (in id order, seeing the vnodes decided earlier in the
/// same wave) with such a port orients its first one outward and decides.
/// Returns the clock of the last wave that decided a vnode, or `clock` if
/// none did.
fn waves(
    vg: &VGraph,
    decided: &mut [bool],
    stretch: usize,
    mut clock: usize,
    ledger: &mut Ledger,
    result: &mut LevelResult,
) -> usize {
    loop {
        let wave = clock + stretch;
        let mut changed = false;
        for v in 0..decided.len() {
            if decided[v] {
                continue;
            }
            let out = vg.ports[v].iter().copied().find(|&ve| {
                result.vedge_dir[ve].is_none()
                    && match vg.other(ve, v) {
                        None => true,
                        Some(u) => decided[u],
                    }
            });
            if let Some(ve) = out {
                orient_vedge(vg, ve, v, wave, ledger, result);
                decided[v] = true;
                result.vnode_clock[v] = wave;
                changed = true;
            }
        }
        if !changed {
            return clock;
        }
        clock = wave;
    }
}

/// One level of Theorem 6's recursion. Fills `result` with the direction
/// and clock of every vedge and the decision clock of every vnode.
#[allow(clippy::too_many_arguments)]
fn solve_level(
    vg: &VGraph,
    params: &DetOrientParams,
    stretch: usize,
    clock: usize,
    depth: usize,
    ledger: &mut Ledger,
    result: &mut LevelResult,
) {
    let n = vg.host.len();
    let r = params.r;
    let mut decided = vec![false; n];
    let mut clock_now = waves(vg, &mut decided, stretch, clock, ledger, result);

    // --- Short cycles (<= 6r + 1 vedges) among links of undecided vnodes,
    // each vedge oriented by its lexicographically smallest sorted-id key.
    let cycle_clock = clock_now + 6 * r * stretch;
    let cycles = short_cycle_orientations(vg, &decided, result, 6 * r);
    if !cycles.is_empty() {
        for (ve, from_side) in cycles {
            if result.vedge_dir[ve].is_none() {
                orient_vedge(vg, ve, from_side, cycle_clock, ledger, result);
            }
        }
        for (v, d) in decided.iter_mut().enumerate() {
            if !*d && has_outward(vg, v, result) {
                *d = true;
                result.vnode_clock[v] = cycle_clock;
            }
        }
        // New decided vnodes unlock more waves.
        clock_now = waves(vg, &mut decided, stretch, cycle_clock, ledger, result);
    }

    let remaining: Vec<usize> = (0..n).filter(|&v| !decided[v]).collect();
    if remaining.is_empty() {
        default_orient_level(vg, clock_now + stretch, ledger, result);
        return;
    }

    // A vnode on the undecided residue has all 3 ports as links to other
    // undecided vnodes (anything else was a wave-out).
    if remaining.len() <= params.finish_threshold || depth >= params.max_depth {
        cycle_finisher(vg, &decided, stretch, clock_now, ledger, result);
        default_orient_level(vg, result_max_clock(result) + stretch, ledger, result);
        return;
    }

    // --- Clustering: greedy (2r+1)-independent centers via measured sweeps.
    let radius = 2 * r + 1;
    let (centers, sweep_rounds) = greedy_power_mis(vg, &decided, radius);
    let mis_clock = clock_now + sweep_rounds * radius * stretch;

    // Assign every undecided vnode to its closest center (tie: smaller id).
    let assignment = assign_clusters(vg, &decided, &centers, radius);

    // Cluster adjacency via linking vedges (unique per pair: no short cycles).
    let mut cluster_links: HashMap<(usize, usize), usize> = HashMap::new();
    for (ve_idx, ve) in vg.vedges.iter().enumerate() {
        let (Some(b), a) = (ve.b, ve.a) else { continue };
        if decided[a] || decided[b] {
            continue;
        }
        let (ca, cb) = (assignment[&a], assignment[&b]);
        if ca != cb {
            let key = (ca.min(cb), ca.max(cb));
            cluster_links.entry(key).or_insert(ve_idx);
        }
    }
    let mut neighbors_of: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
    for (&(ca, cb), &ve) in &cluster_links {
        neighbors_of.entry(ca).or_default().push((cb, ve));
        neighbors_of.entry(cb).or_default().push((ca, ve));
    }
    // Every cluster needs 3 neighbors to keep the 3-regular recursion going.
    let all_have_three = centers
        .iter()
        .all(|c| neighbors_of.get(c).map_or(0, Vec::len) >= 3);
    if !all_have_three {
        cycle_finisher(vg, &decided, stretch, mis_clock, ledger, result);
        default_orient_level(vg, result_max_clock(result) + stretch, ledger, result);
        return;
    }

    // Each cluster picks its 3 smallest neighbor clusters.
    let mut picked: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
    for &c in &centers {
        let mut nb = neighbors_of[&c].clone();
        nb.sort_unstable();
        nb.dedup();
        nb.truncate(3);
        picked.insert(c, nb);
    }

    // Build cluster interiors: BFS tree from the center over its members.
    let cluster_clock = mis_clock + radius * stretch;
    let interiors = build_interiors(vg, &decided, &assignment, &centers);

    // Kept trees: union of the BFS paths from each picked boundary vnode up
    // to the center. Everything else in the cluster orients toward its BFS
    // parent now.
    let mut kept: HashSet<usize> = HashSet::new();
    let mut exit_leaf: HashMap<(usize, usize), usize> = HashMap::new(); // (cluster, vedge) -> boundary vnode
    for &c in &centers {
        for &(_, link_ve) in &picked[&c] {
            let ve = &vg.vedges[link_ve];
            let b = ve.b.expect("link vedge");
            let boundary = if assignment[&ve.a] == c { ve.a } else { b };
            exit_leaf.insert((c, link_ve), boundary);
            // Walk boundary -> center via BFS parents, keeping nodes.
            let mut cur = boundary;
            kept.insert(cur);
            while cur != c {
                let (p, _) = interiors.parent[&cur];
                kept.insert(p);
                cur = p;
            }
        }
    }
    for v in &remaining {
        let v = *v;
        if kept.contains(&v) || centers.contains(&v) {
            continue;
        }
        // Orient the BFS-parent vedge away from v: decided now.
        let (_, pe) = interiors.parent[&v];
        if result.vedge_dir[pe].is_none() {
            orient_vedge(vg, pe, v, cluster_clock, ledger, result);
        }
        decided[v] = true;
        result.vnode_clock[v] = cluster_clock;
    }

    // Virtual graph of clusters. Ports: mutual picks are links, one-sided
    // picks are free (the far side's boundary is decided at this level).
    let center_index: HashMap<usize, usize> = centers.iter().copied().zip(0..).collect();
    let mut next_vedges: Vec<VEdge> = Vec::new();
    let mut next_ports: Vec<Vec<usize>> = vec![Vec::new(); centers.len()];
    let mut link_to_next: HashMap<usize, usize> = HashMap::new();
    for &c in &centers {
        for &(other_cluster, link_ve) in &picked[&c] {
            let mutual = picked[&other_cluster].iter().any(|&(cc, _)| cc == c);
            if let Some(&ni) = link_to_next.get(&link_ve) {
                next_ports[center_index[&c]].push(ni);
                continue;
            }
            let orig = &vg.vedges[link_ve];
            let ni = next_vedges.len();
            // The next-level vedge reuses the same original path; endpoints
            // become cluster indices. The `a` side stays the original `a`'s
            // cluster for sense consistency.
            let a_cluster = assignment[&orig.a];
            let b_cluster = assignment[&orig.b.expect("link")];
            let (na, nb) = (center_index[&a_cluster], center_index[&b_cluster]);
            next_vedges.push(VEdge {
                a: na,
                b: if mutual { Some(nb) } else { None },
                path: orig.path.clone(),
                inner: orig.inner.clone(),
            });
            // For a one-sided pick by `c`, the vedge's `a` side must be the
            // picking cluster so "orient from a" means outward.
            if !mutual {
                let pick_side = center_index[&c];
                if na != pick_side {
                    let last = next_vedges.last_mut().expect("just pushed");
                    last.a = pick_side;
                    last.b = None;
                    last.path = orig.path.iter().rev().map(|&(e, s)| (e, !s)).collect();
                }
            }
            link_to_next.insert(link_ve, ni);
            next_ports[center_index[&c]].push(ni);
        }
    }
    let next_vg = VGraph {
        host: centers.iter().map(|&c| vg.host[c]).collect(),
        ports: next_ports,
        vedges: next_vedges,
    };
    let mut next_result = LevelResult {
        vedge_dir: vec![None; next_vg.vedges.len()],
        vnode_clock: vec![0; next_vg.host.len()],
    };
    solve_level(
        &next_vg,
        params,
        stretch * (4 * r + 4),
        cluster_clock,
        depth + 1,
        ledger,
        &mut next_result,
    );

    // Unwind: each cluster's exit = a next-level port oriented away from it.
    for &c in &centers {
        let ci = center_index[&c];
        let exit = next_vg.ports[ci]
            .iter()
            .copied()
            .find(|&ni| {
                let (from_a, _) = next_result.vedge_dir[ni].expect("deeper level oriented all");

                if from_a {
                    next_vg.vedges[ni].a == ci
                } else {
                    next_vg.vedges[ni].b == Some(ci)
                }
            })
            .expect("virtual sinklessness: every cluster has an outward port");
        let (_, deep_clock) = next_result.vedge_dir[exit].expect("oriented");
        // Map the next-level vedge back to this level's link vedge.
        let link_ve = *link_to_next
            .iter()
            .find(|&(_, &ni)| ni == exit)
            .map(|(l, _)| l)
            .expect("exit maps to a link");
        let leaf = exit_leaf[&(c, link_ve)];
        // Orient the kept tree toward the exit leaf.
        let t_clock = deep_clock + stretch;
        orient_kept_tree(vg, &interiors, c, leaf, t_clock, ledger, result);
        for v in kept_nodes_of(&interiors, c, &kept) {
            if result.vnode_clock[v] == 0 {
                result.vnode_clock[v] = t_clock;
            }
            decided[v] = true;
        }
        result.vnode_clock[c] = t_clock;
        decided[c] = true;
    }

    // Port vedges of this level that the deeper level oriented: copy their
    // direction (the orientation itself already reached the ledger through
    // the shared path references).
    for (&link_ve, &ni) in &link_to_next {
        if result.vedge_dir[link_ve].is_none() {
            if let Some((from_a_next, cl)) = next_result.vedge_dir[ni] {
                // Translate: the next vedge's `a` side corresponds to this
                // vedge's `a` side iff the paths are stored in the same order.
                let same_order = next_vg.vedges[ni].path.first().map(|&(e, _)| e)
                    == vg.vedges[link_ve].path.first().map(|&(e, _)| e)
                    && next_vg.vedges[ni].path.first().map(|&(_, s)| s)
                        == vg.vedges[link_ve].path.first().map(|&(_, s)| s);
                let from_a = if same_order {
                    from_a_next
                } else {
                    !from_a_next
                };
                result.vedge_dir[link_ve] = Some((from_a, cl));
            }
        }
    }

    default_orient_level(vg, result_max_clock(result) + stretch, ledger, result);
}

fn result_max_clock(result: &LevelResult) -> usize {
    result
        .vnode_clock
        .iter()
        .copied()
        .chain(result.vedge_dir.iter().flatten().map(|&(_, c)| c))
        .max()
        .unwrap_or(0)
}

/// Orients vedge `ve` away from vnode `v`.
fn orient_vedge(
    vg: &VGraph,
    ve: usize,
    v: usize,
    clock: usize,
    ledger: &mut Ledger,
    result: &mut LevelResult,
) {
    let from_a = vg.vedges[ve].a == v;
    assert!(from_a || vg.vedges[ve].b == Some(v), "v not an endpoint");
    vg.vedges[ve].orient(ledger, from_a, clock);
    result.vedge_dir[ve] = Some((from_a, clock));
}

fn has_outward(vg: &VGraph, v: usize, result: &LevelResult) -> bool {
    vg.ports[v].iter().any(|&ve| match result.vedge_dir[ve] {
        Some((from_a, _)) => {
            if from_a {
                vg.vedges[ve].a == v
            } else {
                vg.vedges[ve].b == Some(v)
            }
        }
        None => false,
    })
}

/// Finds, per link vedge among undecided vnodes, the containing cycle of
/// `<= max_len + 1` vedges with the lexicographically smallest sorted-id
/// key, and returns the orientation each such vedge takes under the
/// preferred orientation of that cycle (paper §B, proof of Theorem 6).
///
/// Each simple cycle is enumerated once, from its smallest vedge `s =
/// (a, b)`: a DFS walks from `b` back to `a` over usable vedges with ids
/// above `s`. A BFS from `a` over the same vedges, truncated at radius
/// `reach / 2`, gives every vnode a lower bound on its distance back to
/// `a` (`reach / 2 + 1` beyond the ball), and the DFS extends a path only
/// while it can still close within `reach` vedges. The output depends only
/// on the set of cycles through each vedge, so it equals that of any
/// complete enumeration.
fn short_cycle_orientations(
    vg: &VGraph,
    decided: &[bool],
    result: &LevelResult,
    max_len: usize,
) -> Vec<(usize, usize)> {
    // Cycles close at up to `max_len + 1` vedges: the longest path the
    // search extends has `max_len` of them, plus the closing one.
    let reach = max_len + 1;
    let radius = reach / 2;
    let m = vg.vedges.len();
    // Undecided link vedges between undecided vnodes.
    let usable: Vec<bool> = vg
        .vedges
        .iter()
        .zip(&result.vedge_dir)
        .map(|(ve, dir)| dir.is_none() && !decided[ve.a] && ve.b.is_some_and(|b| !decided[b]))
        .collect();
    // The usable links as one flat adjacency: (vedge, far end) per port.
    let mut offsets = Vec::with_capacity(vg.host.len() + 1);
    offsets.push(0);
    let mut adj: Vec<(usize, usize)> = Vec::new();
    for (v, ports) in vg.ports.iter().enumerate() {
        adj.extend(
            ports
                .iter()
                .filter(|&&ve| usable[ve])
                .map(|&ve| (ve, vg.other(ve, v).expect("link"))),
        );
        offsets.push(adj.len());
    }
    let links = |v: usize| &adj[offsets[v]..offsets[v + 1]];
    // Per cycle: (sorted-id key, vedge sequence from its smallest vedge's `a`).
    let mut cycles: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    let mut best: Vec<Option<usize>> = vec![None; m];
    let mut dist = vec![usize::MAX; vg.host.len()];
    let mut ball: Vec<usize> = Vec::new();
    let mut on_path = vec![false; vg.host.len()];
    let mut path: Vec<usize> = Vec::new();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for s in (0..m).filter(|&s| usable[s]) {
        let a = vg.vedges[s].a;
        let b = vg.vedges[s].b.expect("link");

        // Truncated BFS from `a` (the vedges after `s` only).
        dist[a] = 0;
        ball.push(a);
        let mut head = 0;
        while head < ball.len() {
            let v = ball[head];
            head += 1;
            if dist[v] == radius {
                continue;
            }
            for &(_, u) in links(v).iter().filter(|&&(ve, _)| ve > s) {
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    ball.push(u);
                }
            }
        }

        // In-place DFS from `b`; `path` holds the vedges taken from `a`.
        on_path[a] = true;
        on_path[b] = true;
        path.push(s);
        stack.push((b, 0));
        while let Some(top) = stack.last_mut() {
            let (cur, i) = *top;
            let Some(&(ve, next)) = links(cur).get(i) else {
                on_path[cur] = false;
                path.pop();
                stack.pop();
                continue;
            };
            top.1 += 1;
            if ve <= s {
                continue;
            }
            if next == a {
                if path.len() >= 2 {
                    let mut ves = path.clone();
                    ves.push(ve);
                    let mut key = ves.clone();
                    key.sort_unstable();
                    let idx = cycles.len();
                    for &cve in &ves {
                        if best[cve].is_none_or(|c| key < cycles[c].0) {
                            best[cve] = Some(idx);
                        }
                    }
                    cycles.push((key, ves));
                }
            } else if !on_path[next] && path.len() + 1 + dist[next].min(radius + 1) <= reach {
                on_path[next] = true;
                path.push(ve);
                stack.push((next, 0));
            }
        }
        on_path[a] = false;
        for v in ball.drain(..) {
            dist[v] = usize::MAX;
        }
    }
    // Preferred orientation per vedge from its own best cycle.
    let mut out = Vec::new();
    for (ve, c) in best.iter().enumerate() {
        let Some(c) = *c else { continue };
        let cyc = &cycles[c].1;
        // The cycle is a vedge sequence starting and ending at its first
        // vedge's `a`; walk it to find the node sequence.
        let mut node_seq = Vec::with_capacity(cyc.len() + 1);
        let mut cur = vg.vedges[cyc[0]].a;
        node_seq.push(cur);
        for &cve in cyc {
            cur = vg.other(cve, cur).expect("cycle over links");
            node_seq.push(cur);
        }
        // Preferred orientation: the smallest vedge id in the cycle (its
        // first) orients from its smaller-host endpoint; the rest follow
        // around.
        let forward = vg.host[node_seq[0]] < vg.host[node_seq[1]];
        let my_pos = cyc.iter().position(|&x| x == ve).expect("present");
        let (x, y) = (node_seq[my_pos], node_seq[my_pos + 1]);
        out.push((ve, if forward { x } else { y }));
    }
    out
}

/// Greedy maximal (radius)-independent set over the undecided link graph,
/// computed as a literal local-minimum sweep; returns the centers and the
/// number of sweep rounds the local algorithm needed.
fn greedy_power_mis(vg: &VGraph, decided: &[bool], radius: usize) -> (Vec<usize>, usize) {
    let n = vg.host.len();
    let ball = |v: usize| -> Vec<usize> {
        let mut dist = HashMap::new();
        dist.insert(v, 0usize);
        let mut q = VecDeque::from([v]);
        let mut out = vec![v];
        while let Some(x) = q.pop_front() {
            if dist[&x] == radius {
                continue;
            }
            for &ve in &vg.ports[x] {
                if vg.vedges[ve].b.is_none() {
                    continue;
                }
                let u = vg.other(ve, x).expect("link");
                if decided[u] || dist.contains_key(&u) {
                    continue;
                }
                dist.insert(u, dist[&x] + 1);
                out.push(u);
                q.push_back(u);
            }
        }
        out
    };
    #[derive(Clone, Copy, PartialEq)]
    enum S {
        Open,
        Member,
        Blocked,
    }
    let mut state = vec![S::Open; n];
    for v in 0..n {
        if decided[v] {
            state[v] = S::Blocked;
        }
    }
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut progress = false;
        let snapshot = state.clone();
        for v in 0..n {
            if snapshot[v] != S::Open || decided[v] {
                continue;
            }
            let b = ball(v);
            let am_min = b
                .iter()
                .all(|&u| u == v || snapshot[u] != S::Open || vg.host[u] > vg.host[v]);
            if am_min {
                let blocked = b.iter().any(|&u| u != v && snapshot[u] == S::Member);
                state[v] = if blocked { S::Blocked } else { S::Member };
                progress = true;
            }
        }
        if !progress {
            break;
        }
        if (0..n).all(|v| state[v] != S::Open) {
            break;
        }
        assert!(rounds < 4 * n + 16, "greedy sweep failed to converge");
    }
    let centers: Vec<usize> = (0..n).filter(|&v| state[v] == S::Member).collect();
    (centers, rounds)
}

/// Nearest-center assignment of every undecided vnode (ties: smaller
/// center id). Guaranteed within `radius` by maximality of the centers.
fn assign_clusters(
    vg: &VGraph,
    decided: &[bool],
    centers: &[usize],
    radius: usize,
) -> HashMap<usize, usize> {
    let mut assignment: HashMap<usize, usize> = HashMap::new();
    let mut dist: HashMap<usize, usize> = HashMap::new();
    let mut sorted_centers = centers.to_vec();
    sorted_centers.sort_unstable();
    let mut queue = VecDeque::new();
    for &c in &sorted_centers {
        assignment.insert(c, c);
        dist.insert(c, 0);
        queue.push_back(c);
    }
    while let Some(v) = queue.pop_front() {
        if dist[&v] == radius {
            continue;
        }
        for &ve in &vg.ports[v] {
            if vg.vedges[ve].b.is_none() {
                continue;
            }
            let u = vg.other(ve, v).expect("link");
            if decided[u] || dist.contains_key(&u) {
                continue;
            }
            dist.insert(u, dist[&v] + 1);
            assignment.insert(u, assignment[&v]);
            queue.push_back(u);
        }
    }
    assignment
}

/// Per-cluster BFS trees: parent pointers (vnode, vedge) toward the center.
struct Interiors {
    parent: HashMap<usize, (usize, usize)>,
}

fn build_interiors(
    vg: &VGraph,
    decided: &[bool],
    assignment: &HashMap<usize, usize>,
    centers: &[usize],
) -> Interiors {
    let mut parent = HashMap::new();
    for &c in centers {
        let mut q = VecDeque::from([c]);
        let mut seen: HashSet<usize> = HashSet::from([c]);
        while let Some(v) = q.pop_front() {
            for &ve in &vg.ports[v] {
                if vg.vedges[ve].b.is_none() {
                    continue;
                }
                let u = vg.other(ve, v).expect("link");
                if decided[u] || seen.contains(&u) || assignment.get(&u) != Some(&c) {
                    continue;
                }
                seen.insert(u);
                parent.insert(u, (v, ve));
                q.push_back(u);
            }
        }
    }
    Interiors { parent }
}

fn kept_nodes_of(interiors: &Interiors, center: usize, kept: &HashSet<usize>) -> Vec<usize> {
    // Kept nodes whose parent chain ends at `center`.
    kept.iter()
        .copied()
        .filter(|&v| {
            let mut cur = v;
            loop {
                match interiors.parent.get(&cur) {
                    None => return cur == center,
                    Some(&(p, _)) => cur = p,
                }
            }
        })
        .collect()
}

/// Orients the kept tree of `center` toward `leaf`: every tree vedge points
/// from the endpoint farther from `leaf` to the nearer one.
#[allow(clippy::too_many_arguments)]
fn orient_kept_tree(
    vg: &VGraph,
    interiors: &Interiors,
    center: usize,
    leaf: usize,
    clock: usize,
    ledger: &mut Ledger,
    result: &mut LevelResult,
) {
    // Path from leaf up to center: these vedges orient toward the leaf
    // (i.e., from the parent side toward the child side when walking down).
    let mut chain = Vec::new();
    let mut cur = leaf;
    while cur != center {
        let (p, ve) = interiors.parent[&cur];
        chain.push((p, cur, ve));
        cur = p;
    }
    // On the exit path, orient from parent toward child (toward the leaf).
    let mut on_exit_path: HashSet<usize> = HashSet::new();
    for &(p, child, ve) in &chain {
        on_exit_path.insert(p);
        on_exit_path.insert(child);
        if result.vedge_dir[ve].is_none() {
            orient_vedge(vg, ve, p, clock, ledger, result);
        }
    }
    // Every other kept vedge (branches of the kept tree off the exit path)
    // orients toward its parent (which leads to the exit path).
    // Walk all kept nodes: those whose parent vedge is unoriented orient
    // child -> parent.
    let kept_vedges: Vec<(usize, usize)> = interiors
        .parent
        .iter()
        .map(|(&child, &(_, ve))| (child, ve))
        .collect();
    for (child, ve) in kept_vedges {
        if result.vedge_dir[ve].is_none() && reaches(interiors, child, center) {
            orient_vedge(vg, ve, child, clock, ledger, result);
        }
    }
}

fn reaches(interiors: &Interiors, mut v: usize, center: usize) -> bool {
    loop {
        match interiors.parent.get(&v) {
            None => return v == center,
            Some(&(p, _)) => v = p,
        }
    }
}

/// The cycle-rooted residue finisher of both algorithms. Every undecided
/// vnode keeps at least 2 unoriented links to undecided vnodes, so each
/// component of that residue has a cycle. A BFS from the component's
/// first vnode (the smallest host: hosts ascend with the vnode index at
/// every level) stops at the first link that closes a cycle; the cycle
/// orients around itself, and BFS trees from the cycle orient toward it.
/// A cycle vnode is charged `clock + (cycle length + 1)·stretch`, a tree
/// vnode that plus its distance to the cycle times `stretch`: the radius
/// it reads (§2's equivalence).
fn cycle_finisher(
    vg: &VGraph,
    decided: &[bool],
    stretch: usize,
    clock: usize,
    ledger: &mut Ledger,
    result: &mut LevelResult,
) {
    // The undecided far end of `v`'s unoriented link `ve`.
    let residue_link = |result: &LevelResult, ve: usize, v: usize| {
        (result.vedge_dir[ve].is_none())
            .then(|| vg.other(ve, v))
            .flatten()
            .filter(|&u| !decided[u])
    };
    let n = vg.host.len();
    let mut seen = vec![false; n];
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for root in 0..n {
        if decided[root] || dist[root] != usize::MAX {
            continue;
        }
        // BFS from the root until a non-tree link closes a cycle.
        queue.clear();
        queue.push_back(root);
        seen[root] = true;
        let (x, y, closing) = 'bfs: loop {
            let v = queue.pop_front().expect("a residue component has a cycle");
            for &ve in &vg.ports[v] {
                let Some(u) = residue_link(result, ve, v) else {
                    continue;
                };
                if parent[v].is_some_and(|(_, pe)| pe == ve) {
                    continue;
                }
                if seen[u] {
                    break 'bfs (v, u, ve);
                }
                seen[u] = true;
                parent[u] = Some((v, ve));
                queue.push_back(u);
            }
        };
        // Both tree paths end at the root; drop their common part above
        // the meeting vnode.
        let up = |mut v: usize| {
            let mut path = vec![v];
            while let Some((p, _)) = parent[v] {
                v = p;
                path.push(v);
            }
            path
        };
        let (mut px, mut py) = (up(x), up(y));
        while px.len() > 1 && py.len() > 1 && px[px.len() - 2] == py[py.len() - 2] {
            px.pop();
            py.pop();
        }
        // The cycle as (vnode, out-link): up from `x` to the meeting
        // vnode, down to `y`, and back to `x` over the closing link.
        let mut cycle: Vec<(usize, usize)> = px[..px.len() - 1]
            .iter()
            .map(|&v| (v, parent[v].expect("below the meeting vnode").1))
            .collect();
        for k in (0..py.len()).rev() {
            let out = if k == 0 {
                closing
            } else {
                parent[py[k - 1]].expect("below the meeting vnode").1
            };
            cycle.push((py[k], out));
        }
        let cycle_clock = clock + (cycle.len() + 1) * stretch;
        for &(v, ve) in &cycle {
            orient_vedge(vg, ve, v, cycle_clock, ledger, result);
            result.vnode_clock[v] = cycle_clock;
            dist[v] = 0;
        }
        // Multi-source BFS from the cycle; tree links orient child -> parent.
        queue.clear();
        queue.extend(cycle.iter().map(|&(v, _)| v));
        while let Some(v) = queue.pop_front() {
            for &ve in &vg.ports[v] {
                let Some(u) = residue_link(result, ve, v) else {
                    continue;
                };
                if dist[u] != usize::MAX {
                    continue;
                }
                dist[u] = dist[v] + 1;
                let c = cycle_clock + dist[u] * stretch;
                orient_vedge(vg, ve, u, c, ledger, result);
                result.vnode_clock[u] = c;
                queue.push_back(u);
            }
        }
    }
}

/// Default-orients every leftover vedge of the level (both endpoints are
/// decided by now): away from the larger host.
fn default_orient_level(vg: &VGraph, clock: usize, ledger: &mut Ledger, result: &mut LevelResult) {
    for ve in 0..vg.vedges.len() {
        if result.vedge_dir[ve].is_some() {
            continue;
        }
        let a = vg.vedges[ve].a;
        let from = match vg.vedges[ve].b {
            None => a,
            Some(b) => {
                if vg.host[a] > vg.host[b] {
                    a
                } else {
                    b
                }
            }
        };
        orient_vedge(vg, ve, from, clock, ledger, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ComplexityReport;
    use localavg_graph::gen;

    fn randomized(g: &Graph, seed: u64) -> AlgoRun {
        let params = RandOrientParams::default();
        super::randomized(g, &RunSpec::new(seed), &params, &mut Workspace::new())
    }

    fn deterministic(g: &Graph, params: DetOrientParams) -> AlgoRun {
        super::deterministic(g, params, TranscriptPolicy::default())
    }

    fn orientation(run: &AlgoRun) -> &[Orientation] {
        run.solution.orientation().expect("an orientation solution")
    }

    fn regular3(n: usize, seed: u64) -> Graph {
        let mut rng = Rng::seed_from(seed);
        gen::random_regular(n, 3, &mut rng).expect("3-regular graph")
    }

    /// The unpruned enumeration [`short_cycle_orientations`] replaced: a DFS
    /// from every usable vedge over every simple path of `<= max_len`
    /// vedges, cloning its path at each step, closing cycles of up to
    /// `max_len + 1` vedges and finding each from all of its vedges.
    fn reference_short_cycle_orientations(
        vg: &VGraph,
        decided: &[bool],
        result: &LevelResult,
        max_len: usize,
    ) -> Vec<(usize, usize)> {
        // Adjacency restricted to undecided link vedges.
        let usable = |ve: usize| {
            result.vedge_dir[ve].is_none()
                && vg.vedges[ve].b.is_some()
                && !decided[vg.vedges[ve].a]
                && !decided[vg.vedges[ve].b.expect("link")]
        };
        // Enumerate cycles by DFS from each vedge.
        // Cycle key: sorted vedge ids (the paper concatenates edge ids; any
        // injective canonical form works for consistent minimum selection).
        let mut best_cycle: HashMap<usize, Vec<usize>> = HashMap::new(); // vedge -> vedge sequence
        let mut best_key: HashMap<usize, Vec<usize>> = HashMap::new();
        for start_ve in 0..vg.vedges.len() {
            if !usable(start_ve) {
                continue;
            }
            let a = vg.vedges[start_ve].a;
            let b = vg.vedges[start_ve].b.expect("link");
            // DFS from b back to a with <= max_len further vedges.
            let mut stack: Vec<(usize, Vec<usize>, Vec<usize>)> =
                vec![(b, vec![start_ve], vec![a, b])];
            while let Some((cur, ves, nodes)) = stack.pop() {
                if ves.len() > max_len {
                    continue;
                }
                for &ve in &vg.ports[cur] {
                    if !usable(ve) || ves.contains(&ve) {
                        continue;
                    }
                    let Some(nxt) = vg.other(ve, cur) else {
                        continue;
                    };
                    if nxt == a && ves.len() >= 2 {
                        // Found a cycle.
                        let mut cyc = ves.clone();
                        cyc.push(ve);
                        let mut key = cyc.clone();
                        key.sort_unstable();
                        for &cve in &cyc {
                            let better = match best_key.get(&cve) {
                                None => true,
                                Some(k) => key < *k,
                            };
                            if better {
                                best_key.insert(cve, key.clone());
                                best_cycle.insert(cve, cyc.clone());
                            }
                        }
                    } else if !nodes.contains(&nxt) && ves.len() < max_len {
                        let mut nv = ves.clone();
                        nv.push(ve);
                        let mut nn = nodes.clone();
                        nn.push(nxt);
                        stack.push((nxt, nv, nn));
                    }
                }
            }
        }
        // Preferred orientation per vedge from its own best cycle.
        let mut out = Vec::new();
        for (&ve, cyc) in &best_cycle {
            // The cycle is a vedge sequence starting and ending at the start
            // vedge's `a`; walk it to find the node sequence.
            let mut node_seq = Vec::with_capacity(cyc.len());
            let mut cur = vg.vedges[cyc[0]].a;
            node_seq.push(cur);
            for &cve in cyc {
                cur = vg.other(cve, cur).expect("cycle over links");
                node_seq.push(cur);
            }
            // Preferred orientation: the smallest vedge id in the cycle orients
            // from its smaller-host endpoint; the rest follow around.
            let min_ve = *cyc.iter().min().expect("nonempty cycle");
            let pos = cyc.iter().position(|&x| x == min_ve).expect("present");
            let (p, q) = (node_seq[pos], node_seq[pos + 1]);
            // Walk direction: node_seq order. Flip if the minimum vedge would
            // go from larger host to smaller.
            let forward = vg.host[p] < vg.host[q];
            let my_pos = cyc.iter().position(|&x| x == ve).expect("present");
            let (x, y) = (node_seq[my_pos], node_seq[my_pos + 1]);
            let from = if forward { x } else { y };
            out.push((ve, from));
        }
        out
    }

    /// Sorted `(vedge, from)` pairs, so two enumerations compare as sets.
    fn sorted(mut pairs: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn pruned_enumeration_matches_the_reference_dfs() {
        // Small random 3-regular graphs and every `lb/*` family at its
        // smallest size, as level-0 vgraphs with random decided vnodes and
        // random pre-oriented vedges, so that partial usable sets occur.
        let lb = localavg_lowerbound::families::generators();
        let mut with_cycles = 0;
        for seed in 0..60u64 {
            let mut rng = Rng::seed_from(1000 + seed);
            let g = if seed % 3 == 2 {
                let family = &lb[(seed / 3) as usize % lb.len()];
                family.build(1, seed).expect("lb instance")
            } else {
                regular3(8 + 2 * rng.range(0, 40), seed)
            };
            let vg = level0_vgraph(&g);
            let p_decided = [0.0, 0.1, 0.3][rng.range(0, 3)];
            let decided: Vec<bool> = (0..vg.host.len()).map(|_| rng.chance(p_decided)).collect();
            let vedge_dir = (0..vg.vedges.len())
                .map(|_| rng.chance(0.15).then(|| (rng.chance(0.5), 1)))
                .collect();
            let result = LevelResult {
                vedge_dir,
                vnode_clock: vec![0; vg.host.len()],
            };
            for max_len in [5, 12] {
                let want = sorted(reference_short_cycle_orientations(
                    &vg, &decided, &result, max_len,
                ));
                let got = sorted(short_cycle_orientations(&vg, &decided, &result, max_len));
                assert_eq!(got, want, "seed {seed}, max_len {max_len}");
                with_cycles += usize::from(!want.is_empty());
            }
        }
        assert!(with_cycles >= 60, "only {with_cycles} cases had a cycle");
    }

    #[test]
    fn short_cycles_close_at_6r_plus_1_vedges() {
        // Two disjoint rings of 13 = 6r + 1 and 14 vedges at r = 2: the
        // first is a short cycle, the second is not.
        let rings = [(0usize, 13usize), (13, 14)];
        let n = 27;
        let mut vedges = Vec::new();
        let mut ports = vec![Vec::new(); n];
        for (first, len) in rings {
            for i in 0..len {
                let (a, b) = (first + i, first + (i + 1) % len);
                ports[a].push(vedges.len());
                ports[b].push(vedges.len());
                vedges.push(VEdge {
                    a,
                    b: Some(b),
                    path: Vec::new(),
                    inner: Vec::new(),
                });
            }
        }
        let vg = VGraph {
            host: (0..n).collect(),
            ports,
            vedges,
        };
        let result = LevelResult {
            vedge_dir: vec![None; vg.vedges.len()],
            vnode_clock: vec![0; n],
        };
        let decided = vec![false; n];
        let r = DetOrientParams::default().r;
        assert_eq!(r, 2);
        for found in [
            short_cycle_orientations(&vg, &decided, &result, 6 * r),
            reference_short_cycle_orientations(&vg, &decided, &result, 6 * r),
        ] {
            let found = sorted(found);
            let ves: Vec<usize> = found.iter().map(|&(ve, _)| ve).collect();
            assert_eq!(ves, (0..13).collect::<Vec<_>>());
            // The ring is oriented as a cycle: every vnode has one out.
            let mut froms: Vec<usize> = found.iter().map(|&(_, from)| from).collect();
            froms.sort_unstable();
            assert_eq!(froms, (0..13).collect::<Vec<_>>());
        }
    }

    #[test]
    fn finisher_charges_cycle_then_distance_on_a_level0_vgraph() {
        // Every vnode undecided and no waves: the finisher does the whole
        // job. Per component, the vnodes with the smallest clock are its
        // cycle, charged clock + (cycle length + 1)·stretch; every other
        // vnode pays its link distance to the cycle on top, ·stretch.
        let (clock, stretch) = (7, 3);
        for g in [gen::petersen(), regular3(40, 4), regular3(96, 5)] {
            let vg = level0_vgraph(&g);
            let n = vg.host.len();
            assert!(vg.vedges.iter().all(|ve| ve.b.is_some()), "all links");
            let mut ledger = Ledger::new(&g);
            let mut result = LevelResult {
                vedge_dir: vec![None; vg.vedges.len()],
                vnode_clock: vec![0; n],
            };
            cycle_finisher(
                &vg,
                &vec![false; n],
                stretch,
                clock,
                &mut ledger,
                &mut result,
            );
            assert!((0..n).all(|v| has_outward(&vg, v, &result)), "a sink");
            let c = &result.vnode_clock;
            let out = |v: usize| {
                vg.ports[v]
                    .iter()
                    .find_map(|&ve| {
                        let (from_a, _) = result.vedge_dir[ve]?;
                        let e = &vg.vedges[ve];
                        (if from_a { e.a == v } else { e.b == Some(v) })
                            .then(|| vg.other(ve, v).expect("link"))
                    })
                    .expect("an out-link")
            };
            // Components of the link graph, each with its cycle.
            let mut comp = vec![usize::MAX; n];
            for s in 0..n {
                if comp[s] != usize::MAX {
                    continue;
                }
                let mut members = vec![s];
                comp[s] = s;
                let mut i = 0;
                while i < members.len() {
                    for &ve in &vg.ports[members[i]] {
                        let u = vg.other(ve, members[i]).expect("link");
                        if comp[u] == usize::MAX {
                            comp[u] = s;
                            members.push(u);
                        }
                    }
                    i += 1;
                }
                let low = members.iter().map(|&v| c[v]).min().expect("nonempty");
                let cycle: Vec<usize> = members.iter().copied().filter(|&v| c[v] == low).collect();
                assert_eq!(low, clock + (cycle.len() + 1) * stretch);
                // The cycle vnodes' out-links walk one simple cycle.
                let mut v = cycle[0];
                for step in 1..=cycle.len() {
                    v = out(v);
                    assert_eq!(c[v], low);
                    assert_eq!(v == cycle[0], step == cycle.len());
                }
                // Tree vnodes: BFS distance to the cycle, ·stretch.
                let mut dist = vec![usize::MAX; n];
                let mut queue: VecDeque<usize> = cycle.iter().copied().collect();
                cycle.iter().for_each(|&v| dist[v] = 0);
                while let Some(v) = queue.pop_front() {
                    assert_eq!(c[v], low + dist[v] * stretch, "vnode {v}");
                    for &ve in &vg.ports[v] {
                        let u = vg.other(ve, v).expect("link");
                        if dist[u] == usize::MAX {
                            dist[u] = dist[v] + 1;
                            queue.push_back(u);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn randomized_on_petersen() {
        let run = randomized(&gen::petersen(), 3);
        assert!(analysis::is_sinkless_orientation(
            &gen::petersen(),
            orientation(&run)
        ));
    }

    #[test]
    fn randomized_on_random_3regular() {
        for seed in 0..5 {
            let g = regular3(60, seed);
            let run = randomized(&g, seed * 7 + 1);
            assert!(analysis::is_sinkless_orientation(&g, orientation(&run)));
            assert!(run.transcript.all_edges_committed());
        }
    }

    #[test]
    fn randomized_on_higher_degree() {
        let mut rng = Rng::seed_from(5);
        let g = gen::random_regular(80, 6, &mut rng).unwrap();
        let run = randomized(&g, 9);
        assert!(analysis::is_sinkless_orientation(&g, orientation(&run)));
    }

    #[test]
    fn randomized_node_averaged_small() {
        let g = regular3(400, 11);
        let run = randomized(&g, 2);
        let r = ComplexityReport::from_run(&g, &run.transcript);
        assert!(r.node_averaged < 40.0, "node avg {}", r.node_averaged);
    }

    #[test]
    #[should_panic(expected = "minimum degree 3")]
    fn randomized_rejects_low_degree() {
        let _ = randomized(&gen::cycle(5), 1);
    }

    #[test]
    fn deterministic_on_petersen() {
        let g = gen::petersen();
        let run = deterministic(&g, DetOrientParams::default());
        assert!(analysis::is_sinkless_orientation(&g, orientation(&run)));
    }

    #[test]
    fn deterministic_on_complete_graphs() {
        for n in [4usize, 6, 9] {
            let g = gen::complete(n);
            let run = deterministic(&g, DetOrientParams::default());
            assert!(analysis::is_sinkless_orientation(&g, orientation(&run)));
        }
    }

    #[test]
    fn deterministic_on_random_3regular() {
        for seed in 0..6 {
            let g = regular3(64, seed + 20);
            let run = deterministic(&g, DetOrientParams::default());
            assert!(
                analysis::is_sinkless_orientation(&g, orientation(&run)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn deterministic_on_larger_3regular() {
        let g = regular3(600, 77);
        let run = deterministic(&g, DetOrientParams::default());
        assert!(analysis::is_sinkless_orientation(&g, orientation(&run)));
        let r = ComplexityReport::from_run(&g, &run.transcript);
        assert!(
            r.node_averaged <= r.rounds as f64,
            "avg below worst case trivially"
        );
    }

    #[test]
    fn deterministic_on_higher_degree() {
        let mut rng = Rng::seed_from(31);
        let g = gen::random_regular(90, 5, &mut rng).unwrap();
        let run = deterministic(&g, DetOrientParams::default());
        assert!(analysis::is_sinkless_orientation(&g, orientation(&run)));
    }

    #[test]
    fn deterministic_is_reproducible() {
        let g = regular3(48, 3);
        let a = deterministic(&g, DetOrientParams::default());
        let b = deterministic(&g, DetOrientParams::default());
        assert_eq!(a.solution, b.solution);
        assert_eq!(
            a.transcript.edge_commit_round,
            b.transcript.edge_commit_round
        );
    }

    #[test]
    fn deterministic_on_hypercube() {
        // Q4 is 4-regular with min degree 4 >= 3 and plenty of 4-cycles:
        // exercises the short-cycle preferred-orientation rule.
        let g = gen::hypercube(4);
        let run = deterministic(&g, DetOrientParams::default());
        assert!(analysis::is_sinkless_orientation(&g, orientation(&run)));
    }

    #[test]
    #[should_panic(expected = "minimum degree 3")]
    fn deterministic_rejects_low_degree() {
        let _ = deterministic(&gen::path(5), DetOrientParams::default());
    }

    #[test]
    fn empty_graph_ok() {
        let g = Graph::empty(0);
        let run = deterministic(&g, DetOrientParams::default());
        assert!(orientation(&run).is_empty());
        let run2 = randomized(&g, 1);
        assert!(orientation(&run2).is_empty());
    }
}
