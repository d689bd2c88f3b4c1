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
//! * [`randomized`] — proposal contests in the spirit of \[GS17a\]: every
//!   unsatisfied node claims a random unoriented edge each iteration, with
//!   a *grant rule* that keeps every unsatisfied node at least two
//!   unoriented edges (so nobody can be starved into a sink). After O(1)
//!   iterations the unsatisfied residue is tiny; it is finished by the
//!   structural cycle-orientation rule below, whose cost is charged per
//!   node as the ball radius actually needed (the LOCAL-model equivalence
//!   of §2: a T-round algorithm ≡ a function of the radius-T view).
//! * [`deterministic`] — Theorem 6's algorithm with its contraction-level
//!   cost accounting implemented exactly as the paper's proof charges it:
//!   each node picks 3 edges (unreciprocated picks act as the paper's
//!   *self-loops* = free outs); short cycles (≤ 6r) take the *preferred
//!   orientation of their smallest-id containing cycle* (conflict-free by
//!   the paper's argument); the remaining high-girth 3-regular structure
//!   is clustered around a (2r+1)-independent set, cluster interiors
//!   orient toward the kept exit paths, and the cluster graph recurses as
//!   a virtual graph where one virtual round costs `4r+4` real rounds.
//!   The few final virtual nodes are finished by the ball-growing rule.
//!
//! See DESIGN.md ("Theorem 6 contraction levels") for the accounting and
//! substitution notes: the clustering MIS uses a measured greedy sweep
//! instead of Linial's constant-heavy O(log* n) procedure.

use localavg_graph::analysis::Orientation;
use localavg_graph::{analysis, EdgeId, Graph, NodeId};
use localavg_sim::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

/// Result of a sinkless orientation run.
#[derive(Debug, Clone)]
pub struct OrientationRun {
    /// Full transcript with per-edge commit clocks.
    pub transcript: Transcript<(), Orientation>,
    /// The orientation of every edge.
    pub orientation: Vec<Orientation>,
}

impl OrientationRun {
    /// Total rounds (worst-case complexity of the run).
    pub fn worst_case(&self) -> Round {
        self.transcript.rounds
    }
}

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

    fn propose_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<SoMsg>]) {
        self.absorb_with_commit(ctx, inbox);
        self.proposers.iter_mut().for_each(|p| *p = None);
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
    }
}

/// Runs the randomized sinkless orientation: contest phase plus the
/// structural ball-growing finisher (see module docs).
///
/// # Panics
///
/// Panics if the graph has minimum degree `< 3` (the problem's domain) or
/// the produced orientation fails validation.
///
/// # Example
///
/// ```
/// use localavg_graph::{analysis, gen, rng::Rng};
/// use localavg_core::orientation;
///
/// let mut rng = Rng::seed_from(5);
/// let g = gen::random_regular(64, 3, &mut rng).expect("graph");
/// let run = orientation::randomized(&g, 11);
/// assert!(analysis::is_sinkless_orientation(&g, &run.orientation));
/// ```
pub fn randomized(g: &Graph, seed: u64) -> OrientationRun {
    randomized_spec(
        g,
        &RunSpec::new(seed),
        &RandOrientParams::default(),
        &mut Workspace::new(),
    )
}

/// Tuning parameters of the randomized orientation (`"orientation/rand"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandOrientParams {
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

/// [`randomized`] under an explicit [`RunSpec`], with tunable parameters
/// and reusable [`Workspace`] arenas (the workspace serves the contest
/// phase; the structural finisher allocates its own ledger).
pub fn randomized_spec(
    g: &Graph,
    spec: &RunSpec,
    params: &RandOrientParams,
    ws: &mut Workspace,
) -> OrientationRun {
    assert!(
        g.n() == 0 || g.min_degree() >= 3,
        "sinkless orientation requires minimum degree 3"
    );
    let t = spec.run_in::<RandOrient>(g, &params.contest_iterations, ws);

    // Transfer the phase-1 commits into the ledger, then finish structurally.
    let mut ledger = Ledger::new(g);
    for e in 0..g.m() {
        if let Some(o) = t.edge_output[e] {
            ledger.set(e, o, t.edge_commit_round[e]);
        }
    }
    let base = t.rounds;
    finish_structurally(g, &mut ledger, base);
    finalize(g, ledger, spec.transcript)
}

/// [`randomized`] on a chosen executor (bit-identical across executors).
#[deprecated(note = "use `randomized_spec(g, &RunSpec::new(seed).with_exec(exec), ..)`")]
pub fn randomized_exec(g: &Graph, seed: u64, exec: Exec) -> OrientationRun {
    randomized_spec(
        g,
        &RunSpec::new(seed).with_exec(exec),
        &RandOrientParams::default(),
        &mut Workspace::new(),
    )
}

/// Completes any partial orientation: satisfied-neighbor waves, then the
/// cycle rule on the min-degree-2 unsatisfied residue.
fn finish_structurally(g: &Graph, ledger: &mut Ledger, base: usize) {
    let out_deg = |g: &Graph, ledger: &Ledger, v: NodeId| {
        g.neighbors(v)
            .filter(|&(_, e)| ledger.orient[e].map(|o| o.tail(g, e) == v) == Some(true))
            .count()
    };
    let mut satisfied: Vec<bool> = g
        .nodes()
        .map(|v| g.degree(v) == 0 || out_deg(g, ledger, v) >= 1)
        .collect();
    for v in g.nodes() {
        if satisfied[v] && ledger.node_clock[v] == 0 {
            ledger.decide_node(v, base);
        }
    }

    // Wave phase: unoriented edges with a satisfied endpoint orient away
    // from the unsatisfied one (or by id when both are satisfied later).
    let mut clock = base;
    loop {
        clock += 1;
        let mut changed = false;
        for v in g.nodes() {
            if satisfied[v] {
                continue;
            }
            let free = g
                .neighbors(v)
                .find(|&(u, e)| !ledger.is_set(e) && satisfied[u]);
            if let Some((_, e)) = free {
                ledger.set(e, Orientation::away_from(g, e, v), clock);
                satisfied[v] = true;
                ledger.decide_node(v, clock);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Residue: unsatisfied nodes whose unoriented edges all lead to
    // unsatisfied nodes. The residue has minimum degree >= 2, so every
    // component contains a cycle: orient trees toward a cycle and the
    // cycle around itself.
    let residue: Vec<NodeId> = g.nodes().filter(|&v| !satisfied[v]).collect();
    if !residue.is_empty() {
        let keep: Vec<bool> = g.nodes().map(|v| !satisfied[v]).collect();
        orient_toward_cycles(g, &keep, ledger, clock);
    }

    // Defaults: everything else orients higher id -> lower id once both
    // endpoints are decided.
    for (e, u, v) in g.edges() {
        if !ledger.is_set(e) {
            let c = ledger.node_clock[u].max(ledger.node_clock[v]).max(clock) + 1;
            ledger.set(e, Orientation::away_from(g, e, u.max(v)), c);
        }
    }
}

/// Orients the subgraph induced by `keep` (every kept node must have >= 2
/// kept unoriented neighbors) so that every kept node gets an out-edge:
/// per component, find a cycle via BFS, orient it consistently, and point
/// BFS trees toward it. Charges each node `dist + cycle length` clock
/// ticks — the radius a LOCAL algorithm would need (§2's equivalence).
fn orient_toward_cycles(g: &Graph, keep: &[bool], ledger: &mut Ledger, base: usize) {
    let mut visited = vec![false; g.n()];
    for start in g.nodes().filter(|&v| keep[v]) {
        if visited[start] {
            continue;
        }
        // Collect the component over kept nodes and unoriented edges.
        let mut comp = Vec::new();
        let mut queue = VecDeque::from([start]);
        visited[start] = true;
        while let Some(v) = queue.pop_front() {
            comp.push(v);
            for (u, e) in g.neighbors(v) {
                if keep[u] && !ledger.is_set(e) && !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
        // BFS from the minimum-id node until a non-tree edge closes a cycle.
        let root = *comp.iter().min().expect("nonempty component");
        let mut parent: HashMap<NodeId, (NodeId, EdgeId)> = HashMap::new();
        let mut depth: HashMap<NodeId, usize> = HashMap::new();
        depth.insert(root, 0);
        let mut q = VecDeque::from([root]);
        let mut cycle_edge: Option<(NodeId, NodeId, EdgeId)> = None;
        'bfs: while let Some(v) = q.pop_front() {
            for (u, e) in g.neighbors(v) {
                if !keep[u] || ledger.is_set(e) {
                    continue;
                }
                if let Some(&(_, pe)) = parent.get(&v) {
                    if pe == e {
                        continue;
                    }
                }
                if depth.contains_key(&u) {
                    cycle_edge = Some((v, u, e));
                    break 'bfs;
                }
                depth.insert(u, depth[&v] + 1);
                parent.insert(u, (v, e));
                q.push_back(u);
            }
        }
        let (x, y, closing) = cycle_edge.expect("min-degree-2 residue component has a cycle");
        // Reconstruct the cycle: paths from x and y to their meeting point.
        let path_to_root = |mut v: NodeId| {
            let mut path = vec![v];
            while let Some(&(p, _)) = parent.get(&v) {
                v = p;
                path.push(v);
            }
            path
        };
        let px = path_to_root(x);
        let py = path_to_root(y);
        let sx: HashSet<NodeId> = px.iter().copied().collect();
        let meet = *py.iter().find(|v| sx.contains(v)).expect("common ancestor");
        let mut cycle: Vec<NodeId> = px.iter().take_while(|&&v| v != meet).copied().collect();
        cycle.push(meet);
        let mut back: Vec<NodeId> = py.iter().take_while(|&&v| v != meet).copied().collect();
        back.reverse();
        cycle.extend(back);
        let clen = cycle.len();
        // Orient the cycle around: cycle[i] -> cycle[i+1], closing via `closing`.
        let cycle_clock = base + clen + 1;
        for i in 0..clen {
            let a = cycle[i];
            let b = cycle[(i + 1) % clen];
            let e = if i + 1 == clen {
                closing
            } else {
                // consecutive on tree paths: the parent edge between them
                parent
                    .get(&cycle[i])
                    .filter(|&&(p, _)| p == b)
                    .map(|&(_, e)| e)
                    .or_else(|| {
                        parent
                            .get(&cycle[(i + 1) % clen])
                            .filter(|&&(p, _)| p == a)
                            .map(|&(_, e)| e)
                    })
                    .unwrap_or_else(|| g.find_edge(a, b).expect("cycle edge exists"))
            };
            if !ledger.is_set(e) {
                ledger.set(e, Orientation::away_from(g, e, a), cycle_clock);
            }
            ledger.decide_node(a, cycle_clock);
        }
        // Multi-source BFS from the cycle; tree edges orient child -> parent.
        let mut dist: HashMap<NodeId, usize> = cycle.iter().map(|&v| (v, 0)).collect();
        let mut q2: VecDeque<NodeId> = cycle.iter().copied().collect();
        while let Some(v) = q2.pop_front() {
            for (u, e) in g.neighbors(v) {
                if !keep[u] || ledger.is_set(e) || dist.contains_key(&u) {
                    continue;
                }
                dist.insert(u, dist[&v] + 1);
                let c = base + clen + 1 + dist[&u];
                ledger.set(e, Orientation::away_from(g, e, u), c);
                ledger.decide_node(u, c);
                q2.push_back(u);
            }
        }
    }
}

fn finalize(g: &Graph, ledger: Ledger, policy: TranscriptPolicy) -> OrientationRun {
    let t = ledger.into_transcript(g, policy);
    let orientation = t.edge_labels();
    assert!(
        analysis::is_sinkless_orientation(g, &orientation),
        "produced orientation has a sink"
    );
    OrientationRun {
        transcript: t,
        orientation,
    }
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
    /// host original node per vnode.
    host: Vec<NodeId>,
    /// ports\[v\] = indices into `vedges` (1..=3 per vnode).
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
pub struct DetOrientParams {
    /// The paper's constant `r` (cycle threshold `6r`, cluster radius
    /// `2r+1`, stretch `4r+4`). The paper takes `r >= 15` for its constant
    /// bounds; `r = 2` keeps the measured constants small while preserving
    /// every structural property (the girth argument needs `r >= 2`).
    pub r: usize,
    /// Recursion cutoff: virtual graphs at most this large go straight to
    /// the ball-growing finisher.
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

/// Runs Theorem 6's deterministic sinkless orientation.
///
/// # Panics
///
/// Panics if the graph is nonempty with minimum degree `< 3`, or if the
/// produced orientation fails validation.
///
/// # Example
///
/// ```
/// use localavg_graph::{analysis, gen, rng::Rng};
/// use localavg_core::orientation::{deterministic, DetOrientParams};
///
/// let mut rng = Rng::seed_from(9);
/// let g = gen::random_regular(64, 3, &mut rng).expect("graph");
/// let run = deterministic(&g, DetOrientParams::default());
/// assert!(analysis::is_sinkless_orientation(&g, &run.orientation));
/// ```
pub fn deterministic(g: &Graph, params: DetOrientParams) -> OrientationRun {
    deterministic_with(g, params, TranscriptPolicy::default())
}

/// [`deterministic`] under an explicit [`TranscriptPolicy`] — the only
/// part of a [`RunSpec`] that affects a structurally-assembled transcript
/// (there is no round engine to parallelize or seed). Under an audited
/// policy the transcript carries a silent audit (peak `Some(0)`);
/// otherwise the audit columns stay empty, like an engine run under the
/// same policy.
pub fn deterministic_with(
    g: &Graph,
    params: DetOrientParams,
    policy: TranscriptPolicy,
) -> OrientationRun {
    assert!(
        g.n() == 0 || g.min_degree() >= 3,
        "sinkless orientation requires minimum degree 3"
    );
    let mut ledger = Ledger::new(g);

    // Level 0: every node picks its 3 smallest incident edges (the paper's
    // degree-3 truncation). Mutual picks are links; one-sided picks act as
    // the paper's self-loops (free ports); unpicked edges default later.
    let mut picks: Vec<Vec<EdgeId>> = g
        .nodes()
        .map(|v| {
            let mut es: Vec<EdgeId> = g.neighbors(v).map(|(_, e)| e).collect();
            es.sort_unstable();
            es.truncate(3);
            es
        })
        .collect();
    let mut vedges = Vec::new();
    let mut ports: Vec<Vec<usize>> = vec![Vec::new(); g.n()];
    let mut seen: HashMap<EdgeId, usize> = HashMap::new();
    for v in g.nodes() {
        let list = std::mem::take(&mut picks[v]);
        for e in list {
            let (x, y) = g.endpoints(e);
            let other = if x == v { y } else { x };
            let mutual_pick = {
                let mut os: Vec<EdgeId> = g.neighbors(other).map(|(_, ee)| ee).collect();
                os.sort_unstable();
                os.truncate(3);
                os.contains(&e)
            };
            if let Some(&idx) = seen.get(&e) {
                let _ = idx; // already created by the other endpoint
                if mutual_pick {
                    ports[v].push(idx_for(&seen, e));
                }
                continue;
            }
            let sense_from_v = x == v;
            let idx = vedges.len();
            vedges.push(VEdge {
                a: v,
                b: if mutual_pick { Some(other) } else { None },
                path: vec![(e, sense_from_v)],
                inner: Vec::new(),
            });
            seen.insert(e, idx);
            ports[v].push(idx);
        }
    }
    let vg = VGraph {
        host: g.nodes().collect(),
        ports,
        vedges,
    };

    let mut result = LevelResult {
        vedge_dir: vec![None; vg.vedges.len()],
        vnode_clock: vec![0; vg.host.len()],
    };
    solve_level(&vg, &params, 1, 0, 0, &mut ledger, &mut result);

    // Decide node clocks from vnode clocks.
    for (v, &c) in result.vnode_clock.iter().enumerate() {
        ledger.decide_node(vg.host[v], c);
    }
    // Default-orient the never-picked original edges.
    let final_clock = result.vnode_clock.iter().copied().max().unwrap_or(0);
    for (e, u, v) in g.edges() {
        if !ledger.is_set(e) {
            let c = ledger.node_clock[u].max(ledger.node_clock[v]).max(1) + 1;
            ledger.set(e, Orientation::away_from(g, e, u.max(v)), c);
        }
    }
    let _ = final_clock;
    finalize(g, ledger, policy)
}

fn idx_for(seen: &HashMap<EdgeId, usize>, e: EdgeId) -> usize {
    *seen.get(&e).expect("vedge exists")
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
    let mut clock_now = clock;

    // --- Free-port waves: free ports and links to decided vnodes are outs.
    loop {
        clock_now += stretch;
        let mut changed = false;
        for v in 0..n {
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
                orient_vedge(vg, ve, v, clock_now, ledger, result);
                decided[v] = true;
                result.vnode_clock[v] = clock_now;
                changed = true;
            }
        }
        if !changed {
            clock_now -= stretch;
            break;
        }
    }

    // --- Short cycles (length <= 6r) among links of undecided vnodes.
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
        clock_now = cycle_clock;
        // New decided vnodes unlock more waves.
        loop {
            clock_now += stretch;
            let mut changed = false;
            for v in 0..n {
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
                    orient_vedge(vg, ve, v, clock_now, ledger, result);
                    decided[v] = true;
                    result.vnode_clock[v] = clock_now;
                    changed = true;
                }
            }
            if !changed {
                clock_now -= stretch;
                break;
            }
        }
    }

    let remaining: Vec<usize> = (0..n).filter(|&v| !decided[v]).collect();
    if remaining.is_empty() {
        default_orient_level(vg, clock_now + stretch, ledger, result);
        return;
    }

    // A vnode on the undecided residue has all 3 ports as links to other
    // undecided vnodes (anything else was a wave-out).
    if remaining.len() <= params.finish_threshold || depth >= params.max_depth {
        ball_finisher(vg, &decided, stretch, clock_now, ledger, result);
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
        ball_finisher(vg, &decided, stretch, mis_clock, ledger, result);
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

/// Finds, per link vedge among undecided vnodes, the smallest containing
/// cycle of length `<= max_len`, and returns the orientation each such
/// vedge takes under the preferred orientation of its smallest cycle
/// (paper §B, proof of Theorem 6).
fn short_cycle_orientations(
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
    let mut best_cycle: HashMap<usize, Vec<usize>> = HashMap::new(); // vedge -> cycle key/seq? store vedge sequence
    let mut best_key: HashMap<usize, Vec<usize>> = HashMap::new();
    for start_ve in 0..vg.vedges.len() {
        if !usable(start_ve) {
            continue;
        }
        let a = vg.vedges[start_ve].a;
        let b = vg.vedges[start_ve].b.expect("link");
        // DFS from b back to a with <= max_len - 1 further vedges.
        let mut stack: Vec<(usize, Vec<usize>, Vec<usize>)> = vec![(b, vec![start_ve], vec![a, b])];
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

/// Ball-growing finisher on the undecided link graph (3-regular, so every
/// component has a cycle): orient a cycle per component and BFS trees
/// toward it; charge `dist + cycle length` virtual rounds per vnode.
fn ball_finisher(
    vg: &VGraph,
    decided: &[bool],
    stretch: usize,
    clock: usize,
    ledger: &mut Ledger,
    result: &mut LevelResult,
) {
    let n = vg.host.len();
    let mut visited = vec![false; n];
    for s in 0..n {
        if decided[s] || visited[s] {
            continue;
        }
        // Component over undecided link vedges.
        let mut comp = Vec::new();
        let mut q = VecDeque::from([s]);
        visited[s] = true;
        while let Some(v) = q.pop_front() {
            comp.push(v);
            for &ve in &vg.ports[v] {
                if result.vedge_dir[ve].is_some() || vg.vedges[ve].b.is_none() {
                    continue;
                }
                let u = vg.other(ve, v).expect("link");
                if !decided[u] && !visited[u] {
                    visited[u] = true;
                    q.push_back(u);
                }
            }
        }
        // BFS for a cycle from the min-host vnode.
        let root = *comp
            .iter()
            .min_by_key(|&&v| vg.host[v])
            .expect("nonempty component");
        let mut parent: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut depth: HashMap<usize, usize> = HashMap::new();
        depth.insert(root, 0);
        let mut bq = VecDeque::from([root]);
        let mut closing: Option<(usize, usize, usize)> = None;
        'bfs: while let Some(v) = bq.pop_front() {
            for &ve in &vg.ports[v] {
                if result.vedge_dir[ve].is_some() || vg.vedges[ve].b.is_none() {
                    continue;
                }
                let u = vg.other(ve, v).expect("link");
                if decided[u] {
                    continue;
                }
                if parent.get(&v).map(|&(_, pe)| pe) == Some(ve) {
                    continue;
                }
                if depth.contains_key(&u) {
                    closing = Some((v, u, ve));
                    break 'bfs;
                }
                depth.insert(u, depth[&v] + 1);
                parent.insert(u, (v, ve));
                bq.push_back(u);
            }
        }
        let Some((x, y, closing_ve)) = closing else {
            // Degenerate: tree component (possible only for tiny graphs fed
            // directly to the finisher). Orient toward the root; the root
            // must have some decided neighbor or free port handled earlier.
            for &v in &comp {
                if let Some(&(_, ve)) = parent.get(&v) {
                    if result.vedge_dir[ve].is_none() {
                        orient_vedge(vg, ve, v, clock + stretch, ledger, result);
                    }
                    result.vnode_clock[v] = clock + stretch;
                }
            }
            // Root: any unoriented port outward.
            let out = vg.ports[root]
                .iter()
                .copied()
                .find(|&ve| result.vedge_dir[ve].is_none());
            if let Some(ve) = out {
                orient_vedge(vg, ve, root, clock + stretch, ledger, result);
            }
            result.vnode_clock[root] = clock + stretch;
            continue;
        };
        // Reconstruct cycle node sequence.
        let path_up = |mut v: usize| {
            let mut p = vec![v];
            while let Some(&(pp, _)) = parent.get(&v) {
                v = pp;
                p.push(v);
            }
            p
        };
        let px = path_up(x);
        let py = path_up(y);
        let sx: HashSet<usize> = px.iter().copied().collect();
        let meet = *py.iter().find(|v| sx.contains(v)).expect("meet");
        let mut cycle: Vec<usize> = px.iter().take_while(|&&v| v != meet).copied().collect();
        cycle.push(meet);
        let mut tail: Vec<usize> = py.iter().take_while(|&&v| v != meet).copied().collect();
        tail.reverse();
        cycle.extend(tail);
        let clen = cycle.len();
        let cyc_clock = clock + (clen + 1) * stretch;
        for i in 0..clen {
            let a = cycle[i];
            let b = cycle[(i + 1) % clen];
            let ve = if i + 1 == clen {
                closing_ve
            } else {
                parent
                    .get(&a)
                    .filter(|&&(p, _)| p == b)
                    .map(|&(_, ve)| ve)
                    .or_else(|| parent.get(&b).filter(|&&(p, _)| p == a).map(|&(_, ve)| ve))
                    .expect("cycle vedge")
            };
            if result.vedge_dir[ve].is_none() {
                orient_vedge(vg, ve, a, cyc_clock, ledger, result);
            }
            if result.vnode_clock[a] == 0 {
                result.vnode_clock[a] = cyc_clock;
            }
        }
        // Trees toward the cycle.
        let mut dist: HashMap<usize, usize> = cycle.iter().map(|&v| (v, 0)).collect();
        let mut q2: VecDeque<usize> = cycle.iter().copied().collect();
        while let Some(v) = q2.pop_front() {
            for &ve in &vg.ports[v] {
                if result.vedge_dir[ve].is_some() || vg.vedges[ve].b.is_none() {
                    continue;
                }
                let u = vg.other(ve, v).expect("link");
                if decided[u] || dist.contains_key(&u) {
                    continue;
                }
                dist.insert(u, dist[&v] + 1);
                let c = cyc_clock + dist[&u] * stretch;
                orient_vedge(vg, ve, u, c, ledger, result);
                if result.vnode_clock[u] == 0 {
                    result.vnode_clock[u] = c;
                }
                q2.push_back(u);
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

    fn regular3(n: usize, seed: u64) -> Graph {
        let mut rng = Rng::seed_from(seed);
        gen::random_regular(n, 3, &mut rng).expect("3-regular graph")
    }

    #[test]
    fn randomized_on_petersen() {
        let run = randomized(&gen::petersen(), 3);
        assert!(analysis::is_sinkless_orientation(
            &gen::petersen(),
            &run.orientation
        ));
    }

    #[test]
    fn randomized_on_random_3regular() {
        for seed in 0..5 {
            let g = regular3(60, seed);
            let run = randomized(&g, seed * 7 + 1);
            assert!(analysis::is_sinkless_orientation(&g, &run.orientation));
            assert!(run.transcript.all_edges_committed());
        }
    }

    #[test]
    fn randomized_on_higher_degree() {
        let mut rng = Rng::seed_from(5);
        let g = gen::random_regular(80, 6, &mut rng).unwrap();
        let run = randomized(&g, 9);
        assert!(analysis::is_sinkless_orientation(&g, &run.orientation));
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
        assert!(analysis::is_sinkless_orientation(&g, &run.orientation));
    }

    #[test]
    fn deterministic_on_complete_graphs() {
        for n in [4usize, 6, 9] {
            let g = gen::complete(n);
            let run = deterministic(&g, DetOrientParams::default());
            assert!(analysis::is_sinkless_orientation(&g, &run.orientation));
        }
    }

    #[test]
    fn deterministic_on_random_3regular() {
        for seed in 0..6 {
            let g = regular3(64, seed + 20);
            let run = deterministic(&g, DetOrientParams::default());
            assert!(
                analysis::is_sinkless_orientation(&g, &run.orientation),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn deterministic_on_larger_3regular() {
        let g = regular3(600, 77);
        let run = deterministic(&g, DetOrientParams::default());
        assert!(analysis::is_sinkless_orientation(&g, &run.orientation));
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
        assert!(analysis::is_sinkless_orientation(&g, &run.orientation));
    }

    #[test]
    fn deterministic_is_reproducible() {
        let g = regular3(48, 3);
        let a = deterministic(&g, DetOrientParams::default());
        let b = deterministic(&g, DetOrientParams::default());
        assert_eq!(a.orientation, b.orientation);
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
        assert!(analysis::is_sinkless_orientation(&g, &run.orientation));
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
        assert!(run.orientation.is_empty());
        let run2 = randomized(&g, 1);
        assert!(run2.orientation.is_empty());
    }
}
