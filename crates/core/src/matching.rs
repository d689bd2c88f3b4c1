//! Maximal matching algorithms (paper §3.2, Theorems 4 and 5).
//!
//! * `"matching/luby"` — **Theorem 4**: mark each edge `{u,v}` with probability
//!   `1/(4(d_u + d_v))`; a marked edge with no other marked incident edge
//!   joins the matching; matched nodes leave; repeat. The paper shows a
//!   constant fraction of the *edges* is removed per iteration, so the
//!   edge-averaged complexity is O(1) while the worst case is O(log n) whp.
//! * `"matching/det"` — **Theorem 5**: per iteration, build the fractional
//!   matching `f_e = 1/(d_u + d_v)`, deterministically round it to an
//!   integral matching carrying a constant fraction of `|E|`, add it, drop
//!   matched nodes, and repeat. Rounding follows the Fischer/AKO technique:
//!   values are powers of two; same-value edges are paired at their
//!   endpoints into paths/cycles, 6-colored by Cole–Vishkin in O(log* n)
//!   rounds, and an independent set of path positions doubles while its
//!   partners zero — preserving node constraints exactly. A local-max-id
//!   fallback guarantees progress even when rounding stalls. (See DESIGN.md
//!   for the substitution notes; the measured per-iteration edge-kill ratio
//!   is reported by experiment E5.)
//! * `"matching/greedy"` — deterministic local-max-edge-id proposal matching
//!   (baseline).
//!
//! Matching is an *edge-labelling* problem: edges commit `true`/`false`,
//! nodes commit nothing, and Definition 1 gives `T_v = max` over incident
//! edge commit times — exactly the accounting the paper's Theorem 4/5
//! statements average. All three run through [`crate::algo::registry`]:
//!
//! ```
//! use localavg_core::algo::{registry, RunSpec};
//! use localavg_graph::{analysis, gen, rng::Rng};
//!
//! let mut rng = Rng::seed_from(8);
//! let g = gen::random_regular(60, 4, &mut rng).expect("graph");
//! for name in ["matching/luby", "matching/det", "matching/greedy"] {
//!     let run = registry().get(name).expect("registered").execute(&g, &RunSpec::new(21));
//!     let in_matching = run.solution.matching().expect("a matching solution");
//!     assert!(analysis::is_maximal_matching(&g, in_matching));
//! }
//! ```

use crate::algo::{AlgoRun, Solution};
use crate::subroutines::{ceil_log2, cv_rounds, cv_step, cv_step_root};
use localavg_graph::{EdgeId, Graph};
use localavg_sim::prelude::*;

/// Wraps a finished matching transcript into the run of `algorithm`.
fn matching_run(algorithm: &'static str, g: &Graph, t: Transcript<(), bool>) -> AlgoRun {
    let in_matching = t.edge_labels();
    AlgoRun::new(
        algorithm,
        g,
        t.into_erased(),
        Solution::Matching { in_matching },
    )
}

// ---------------------------------------------------------------------------
// Theorem 4: Luby-style randomized maximal matching
// ---------------------------------------------------------------------------

/// Messages of the randomized matching process.
#[derive(Debug, Clone, PartialEq)]
pub enum LubyMatchMsg {
    /// Residual degree announcement (phase 0).
    Degree(u64),
    /// Mark of the shared edge, drawn by the lower-id endpoint (phase 1).
    Mark(bool),
    /// Number of marked incident edges at the sender (phase 2).
    Count(u64),
    /// The sender got matched and leaves (phase 3).
    Matched,
}

impl MessageSize for LubyMatchMsg {
    fn size_bits(&self) -> usize {
        match self {
            LubyMatchMsg::Degree(_) | LubyMatchMsg::Count(_) => 2 + 64,
            LubyMatchMsg::Mark(_) => 3,
            LubyMatchMsg::Matched => 2,
        }
    }
}

/// Tuning parameters of Theorem 4's matching (`"matching/luby"`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LubyMatchParams {
    /// Per-iteration edge-mark probability numerator: edge `{u,v}` is
    /// marked with probability `mark_factor / (d_u + d_v)`. Theorem 4's
    /// choice `1/(4(d_u + d_v))` is `0.25`; must lie in `(0, 1]`.
    pub mark_factor: f64,
}

impl Default for LubyMatchParams {
    fn default() -> Self {
        LubyMatchParams { mark_factor: 0.25 }
    }
}

/// Theorem 4 process; iteration = 4 rounds
/// (degree, mark, count, decide).
struct LubyMatching {
    nbr_active: Vec<bool>,
    /// Set entries of `nbr_active`: the residual degree.
    active_degree: u64,
    nbr_degree: Vec<u64>,
    edge_marked: Vec<bool>,
    my_marked_count: u64,
    nbr_count: Vec<u64>,
    mark_factor: f64,
}

impl LubyMatching {
    fn degree_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<LubyMatchMsg>]) {
        for env in inbox {
            if matches!(env.msg, LubyMatchMsg::Matched)
                && std::mem::replace(&mut self.nbr_active[env.port], false)
            {
                self.active_degree -= 1;
            }
        }
        if self.active_degree == 0 {
            ctx.halt(); // all incident edges already committed by neighbors
            return;
        }
        ctx.broadcast(LubyMatchMsg::Degree(self.active_degree));
    }

    fn mark_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<LubyMatchMsg>]) {
        for env in inbox {
            if let LubyMatchMsg::Degree(d) = env.msg {
                self.nbr_degree[env.port] = d;
            }
        }
        self.edge_marked.iter_mut().for_each(|m| *m = false);
        self.my_marked_count = 0;
        let my_degree = self.active_degree;
        for port in ctx.ports() {
            if !self.nbr_active[port] || ctx.neighbor_id(port) < ctx.id() {
                continue; // the lower-id endpoint draws the mark
            }
            let p = self.mark_factor / (my_degree + self.nbr_degree[port]) as f64;
            let marked = ctx.rng().chance(p);
            self.edge_marked[port] = marked;
            if marked {
                self.my_marked_count += 1;
            }
            ctx.send(port, LubyMatchMsg::Mark(marked));
        }
    }

    fn count_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<LubyMatchMsg>]) {
        for env in inbox {
            if let LubyMatchMsg::Mark(m) = env.msg {
                self.edge_marked[env.port] = m;
                if m {
                    self.my_marked_count += 1;
                }
            }
        }
        ctx.broadcast(LubyMatchMsg::Count(self.my_marked_count));
    }

    fn decide_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<LubyMatchMsg>]) {
        for env in inbox {
            if let LubyMatchMsg::Count(c) = env.msg {
                self.nbr_count[env.port] = c;
            }
        }
        if self.my_marked_count != 1 {
            return;
        }
        let port = (0..self.edge_marked.len())
            .find(|&p| self.edge_marked[p])
            .expect("exactly one marked edge");
        if self.nbr_count[port] == 1 {
            // Edge isolated among marked edges on both sides: matched.
            for p in ctx.ports() {
                if self.nbr_active[p] {
                    ctx.commit_edge(p, p == port);
                }
            }
            ctx.broadcast(LubyMatchMsg::Matched);
            ctx.halt();
        }
    }
}

impl Process for LubyMatching {
    type Message = LubyMatchMsg;
    type NodeOutput = ();
    type EdgeOutput = bool;
    type Params = LubyMatchParams;

    const OUTPUT_KIND: OutputKind = OutputKind::EdgeLabels;

    fn init(params: &LubyMatchParams, ctx: &mut Ctx<'_, Self>) -> Self {
        let degree = ctx.degree();
        let mut state = LubyMatching {
            nbr_active: vec![true; degree],
            active_degree: degree as u64,
            nbr_degree: vec![0; degree],
            edge_marked: vec![false; degree],
            my_marked_count: 0,
            nbr_count: vec![0; degree],
            mark_factor: params.mark_factor,
        };
        state.degree_phase(ctx, &[]);
        state
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<LubyMatchMsg>]) {
        match ctx.round() % 4 {
            0 => self.degree_phase(ctx, inbox),
            1 => self.mark_phase(ctx, inbox),
            2 => self.count_phase(ctx, inbox),
            _ => self.decide_phase(ctx, inbox),
        }
    }
}

/// Runs Theorem 4's randomized maximal matching (CONGEST,
/// `"matching/luby"`) under `spec`, reusing the arenas in `ws`.
///
/// # Example
///
/// ```
/// use localavg_core::algo::{registry, RunSpec};
/// use localavg_graph::{analysis, gen, rng::Rng};
///
/// let mut rng = Rng::seed_from(8);
/// let g = gen::random_regular(60, 4, &mut rng).expect("graph");
/// let luby = registry().get("matching/luby").expect("registered");
/// let run = luby.execute(&g, &RunSpec::new(21));
/// let in_matching = run.solution.matching().expect("a matching solution");
/// assert!(analysis::is_maximal_matching(&g, in_matching));
/// ```
pub(crate) fn luby(
    g: &Graph,
    spec: &RunSpec,
    params: &LubyMatchParams,
    ws: &mut Workspace,
) -> AlgoRun {
    let t = spec.run_in::<LubyMatching>(g, params, ws);
    matching_run("matching/luby", g, t)
}

// ---------------------------------------------------------------------------
// Greedy baseline: local-max-edge-id proposals
// ---------------------------------------------------------------------------

/// Messages of the greedy matching process.
#[derive(Debug, Clone, PartialEq)]
pub enum GreedyMatchMsg {
    /// Proposal over the sender's local-max active edge.
    Propose,
    /// The sender got matched and leaves.
    Matched,
}

impl MessageSize for GreedyMatchMsg {
    fn size_bits(&self) -> usize {
        1
    }
}

struct GreedyMatching {
    nbr_active: Vec<bool>,
    proposal: Option<usize>,
}

impl GreedyMatching {
    fn propose_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<GreedyMatchMsg>]) {
        for env in inbox {
            if matches!(env.msg, GreedyMatchMsg::Matched) {
                self.nbr_active[env.port] = false;
            }
        }
        self.proposal = ctx
            .ports()
            .filter(|&p| self.nbr_active[p])
            .max_by_key(|&p| ctx.edge_id(p));
        match self.proposal {
            None => ctx.halt(),
            Some(p) => ctx.send(p, GreedyMatchMsg::Propose),
        }
    }

    fn resolve_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<GreedyMatchMsg>]) {
        let my = self.proposal.expect("active node proposed");
        let mutual = inbox
            .iter()
            .any(|env| env.port == my && matches!(env.msg, GreedyMatchMsg::Propose));
        if mutual {
            for p in ctx.ports() {
                if self.nbr_active[p] {
                    ctx.commit_edge(p, p == my);
                }
            }
            ctx.broadcast(GreedyMatchMsg::Matched);
            ctx.halt();
        }
    }
}

impl Process for GreedyMatching {
    type Message = GreedyMatchMsg;
    type NodeOutput = ();
    type EdgeOutput = bool;
    type Params = ();

    const OUTPUT_KIND: OutputKind = OutputKind::EdgeLabels;

    fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
        let mut state = GreedyMatching {
            nbr_active: vec![true; ctx.degree()],
            proposal: None,
        };
        state.propose_phase(ctx, &[]);
        state
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<GreedyMatchMsg>]) {
        if ctx.round() % 2 == 0 {
            self.propose_phase(ctx, inbox);
        } else {
            self.resolve_phase(ctx, inbox);
        }
    }
}

/// Runs the deterministic greedy proposal matching baseline
/// (`"matching/greedy"`) under `spec`, reusing the arenas in `ws` (the
/// seed is ignored).
pub(crate) fn greedy(g: &Graph, spec: &RunSpec, ws: &mut Workspace) -> AlgoRun {
    let t = spec.run_in::<GreedyMatching>(g, &(), ws);
    matching_run("matching/greedy", g, t)
}

// ---------------------------------------------------------------------------
// Theorem 5: deterministic matching via fractional rounding
// ---------------------------------------------------------------------------

/// Messages of the deterministic matching process.
#[derive(Debug, Clone, PartialEq)]
pub enum DetMatchMsg {
    /// Residual degree announcement at iteration start.
    Degree(u64),
    /// Cole–Vishkin color of the shared edge (sent by the edge's owner).
    CvColor(u64),
    /// Relay by a link node: the final color and edge id of the path
    /// partner that the shared edge is paired with at the sender's side.
    PartnerColor(u64, u64),
    /// The shared edge joined this class's path-independent set.
    MisJoin,
    /// A path-partner of the shared edge (paired at the sender) joined.
    PartnerJoined,
    /// Owner requests doubling of the shared edge.
    WantDouble,
    /// Non-owner grants the doubling.
    Grant,
    /// The shared edge doubled its value.
    Doubled,
    /// The shared edge's value dropped to zero.
    Zeroed,
    /// Fallback proposal over the sender's local-max active edge.
    Propose,
    /// Commit handshake: the sender intends to match the shared edge.
    MatchIntent,
    /// The sender got matched and leaves.
    Matched,
}

impl MessageSize for DetMatchMsg {
    fn size_bits(&self) -> usize {
        match self {
            DetMatchMsg::Degree(_) | DetMatchMsg::CvColor(_) => 4 + 64,
            DetMatchMsg::PartnerColor(..) => 4 + 128,
            _ => 4,
        }
    }
}

/// Colors of the Cole–Vishkin coloring the class sweep walks through,
/// one join round and one relay round each.
const SWEEP_COLORS: usize = 6;

/// Fixed schedule of one outer iteration, identical at every node.
#[derive(Debug, Clone, Copy)]
struct DetMatchSchedule {
    /// Highest value class: values are `2^-k`, k in `1..=k_max`.
    k_max: usize,
    /// Class offset of the partner-color relay round.
    relay: usize,
    /// Class offset of the want round.
    want: usize,
    /// Rounds of one class phase.
    class_len: usize,
    /// Rounds of one outer iteration.
    iter_len: usize,
}

impl DetMatchSchedule {
    fn new(m: usize, max_degree: usize) -> Self {
        // CV rounds needed to 6-color path structures whose ids are edge ids.
        let cv = cv_rounds(m.max(2) as u64);
        let k_max = ceil_log2(2 * max_degree.max(1) as u64) as usize + 1;
        // Class offsets: 0 pair, 1..cv CV message rounds (first CV step is
        // computed locally from edge ids), 1 partner-color relay round,
        // then 12 sweep rounds (6 colors x (join + relay)), then
        // want/grant/double/zero (4 rounds).
        let relay = 1 + cv.saturating_sub(1);
        let want = relay + 1 + 2 * SWEEP_COLORS;
        let class_len = want + 4;
        // Iteration: 1 degree round + classes + fallback propose/resolve +
        // match-intent handshake + commit + prune rounds.
        let iter_len = 1 + k_max * class_len + 5;
        DetMatchSchedule {
            k_max,
            relay,
            want,
            class_len,
            iter_len,
        }
    }

    /// Class offset of the join round of sweep color `c`.
    fn join(&self, c: usize) -> usize {
        self.relay + 1 + 2 * c
    }
}

/// Per-port (edge) state within one outer iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeValue {
    /// Committed (matched earlier or dropped); no longer active.
    Inactive,
    /// Active with value `2^-k`.
    Exp(usize),
    /// Active with value zero this iteration (still an edge of the graph).
    Zero,
    /// Active with value one: selected into this iteration's matching.
    One,
}

struct DetMatching {
    sched: DetMatchSchedule,
    nbr_active: Vec<bool>,
    /// Set entries of `nbr_active`: the residual degree.
    active_degree: u64,
    nbr_degree: Vec<u64>,
    value: Vec<EdgeValue>,
    /// partner\[p\] = the port paired with `p` at this node (same class).
    partner: Vec<Option<usize>>,
    /// For ports whose edge this node owns: CV color of the edge.
    cv_color: Vec<u64>,
    /// Latest CV color received over each port (the far owner's view).
    nbr_cv_color: Vec<u64>,
    /// Far-side path partner (color, edge id) per owned port, relayed by
    /// the far endpoint.
    far_partner: Vec<Option<(u64, u64)>>,
    /// Whether the edge behind port p joined the class independent set.
    mis: Vec<bool>,
    /// Whether a path-partner of the edge behind port p joined.
    partner_joined: Vec<bool>,
    /// Owner-side root flag for the CV pointer structure.
    is_root: Vec<bool>,
    /// Grant received for the edge behind port p.
    granted: Vec<bool>,
    /// Port matched during this iteration's fallback, if any.
    fallback_port: Option<usize>,
    matched: bool,
    /// Whether this node has a port of the current value class, as of
    /// its pair round (the class can only lose ports during its phase,
    /// never gain one).
    in_class: bool,
    /// Whether this node owns the edge of one of those ports.
    owns_class_edge: bool,
}

impl DetMatching {
    fn owner(&self, ctx: &Ctx<'_, Self>, port: usize) -> bool {
        ctx.id() < ctx.neighbor_id(port)
    }

    /// Current value of the edge behind `port` as a fraction of 1.
    fn value_f(&self, port: usize) -> f64 {
        match self.value[port] {
            EdgeValue::Exp(k) => 0.5f64.powi(k as i32),
            EdgeValue::One => 1.0,
            _ => 0.0,
        }
    }

    fn slack(&self, ctx: &Ctx<'_, Self>) -> f64 {
        let sum: f64 = ctx.ports().map(|p| self.value_f(p)).sum();
        1.0 - sum
    }

    fn prune(&mut self, inbox: &[Envelope<DetMatchMsg>]) {
        for env in inbox {
            match env.msg {
                DetMatchMsg::Matched => {
                    if std::mem::replace(&mut self.nbr_active[env.port], false) {
                        self.active_degree -= 1;
                    }
                    self.value[env.port] = EdgeValue::Inactive;
                }
                // Zero notifications can cross a phase boundary (they are
                // sent in the last round of a class phase); honor them
                // whenever they arrive.
                DetMatchMsg::Zeroed => {
                    if matches!(self.value[env.port], EdgeValue::Exp(_)) {
                        self.value[env.port] = EdgeValue::Zero;
                    }
                }
                _ => {}
            }
        }
    }

    /// Iteration offset 0: exchange residual degrees.
    fn degree_round(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.matched = false;
        self.fallback_port = None;
        if self.active_degree == 0 {
            ctx.halt();
            return;
        }
        ctx.broadcast(DetMatchMsg::Degree(self.active_degree));
    }

    /// First round of a class phase: set initial values (class `k_max`
    /// phase only), pair same-class edges in port order.
    fn pair_round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMatchMsg>], k: usize) {
        if k == self.sched.k_max {
            // First class phase of the iteration: initialize values from
            // the degrees received in the degree round.
            for env in inbox {
                if let DetMatchMsg::Degree(d) = env.msg {
                    self.nbr_degree[env.port] = d;
                }
            }
            let my = self.active_degree;
            for p in ctx.ports() {
                if self.nbr_active[p] {
                    let ke = ceil_log2(my + self.nbr_degree[p]) as usize;
                    self.value[p] = EdgeValue::Exp(ke.clamp(1, self.sched.k_max));
                } else {
                    self.value[p] = EdgeValue::Inactive;
                }
            }
        }
        // Pair class-k edges in port order.
        self.partner.iter_mut().for_each(|q| *q = None);
        self.in_class = false;
        self.owns_class_edge = false;
        let mut unpaired = None;
        for p in ctx.ports() {
            if self.value[p] != EdgeValue::Exp(k) {
                continue;
            }
            self.in_class = true;
            self.owns_class_edge |= self.owner(ctx, p);
            match unpaired.take() {
                Some(q) => {
                    self.partner[q] = Some(p);
                    self.partner[p] = Some(q);
                }
                None => unpaired = Some(p),
            }
        }
        // Reset per-class CV / sweep state for owned class edges.
        for p in ctx.ports() {
            if self.value[p] != EdgeValue::Exp(k) {
                continue;
            }
            self.mis[p] = false;
            self.partner_joined[p] = false;
            self.granted[p] = false;
            self.far_partner[p] = None;
            if self.owner(ctx, p) {
                // Pointer parent of edge e = partner at the owner's side.
                let my_edge = ctx.edge_id(p) as u64;
                match self.partner[p] {
                    Some(q) => {
                        let parent_edge = ctx.edge_id(q) as u64;
                        // Mutual pair (both point at each other through this
                        // node) — the smaller edge id acts as root.
                        let mutual = self.partner[q] == Some(p);
                        if mutual && my_edge < parent_edge {
                            self.is_root[p] = true;
                            self.cv_color[p] = cv_step_root(my_edge);
                        } else {
                            self.is_root[p] = false;
                            self.cv_color[p] = cv_step(my_edge, parent_edge);
                        }
                    }
                    None => {
                        self.is_root[p] = true;
                        self.cv_color[p] = cv_step_root(my_edge);
                    }
                }
                ctx.send(p, DetMatchMsg::CvColor(self.cv_color[p]));
            }
        }
    }

    fn note_cv_colors(&mut self, inbox: &[Envelope<DetMatchMsg>]) {
        for env in inbox {
            if let DetMatchMsg::CvColor(c) = env.msg {
                self.nbr_cv_color[env.port] = c;
            }
        }
    }

    /// The final color of the edge behind `port` in this class: our own
    /// view if we own it, the owner's last broadcast otherwise.
    fn color_of(&self, ctx: &Ctx<'_, Self>, port: usize) -> u64 {
        if self.owner(ctx, port) {
            self.cv_color[port]
        } else {
            self.nbr_cv_color[port]
        }
    }

    /// Relay round after CV: each link node tells every paired edge the
    /// final color and id of its partner on this side.
    fn relay_color_round(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        inbox: &[Envelope<DetMatchMsg>],
        k: usize,
    ) {
        self.note_cv_colors(inbox);
        for p in ctx.ports() {
            if self.value[p] != EdgeValue::Exp(k) {
                continue;
            }
            if let Some(q) = self.partner[p] {
                let color = self.color_of(ctx, q);
                ctx.send(p, DetMatchMsg::PartnerColor(color, ctx.edge_id(q) as u64));
            }
        }
    }

    /// CV message rounds: the owner updates against the parent edge's color.
    ///
    /// Every update reads the *previous* round's colors. A parent edge we
    /// own ourselves is the root of a pair at this node (pairs are mutual
    /// here, and the smaller edge id is the root), so its child is updated
    /// together with it, before the root's own color moves.
    fn cv_round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMatchMsg>], k: usize) {
        self.note_cv_colors(inbox);
        for p in ctx.ports() {
            if self.value[p] != EdgeValue::Exp(k) || !self.owner(ctx, p) {
                continue;
            }
            let q = self.partner[p];
            if self.is_root[p] {
                if let Some(q) = q.filter(|&q| self.owner(ctx, q) && !self.is_root[q]) {
                    self.cv_color[q] = cv_step(self.cv_color[q], self.cv_color[p]);
                    ctx.send(q, DetMatchMsg::CvColor(self.cv_color[q]));
                }
                self.cv_color[p] = cv_step_root(self.cv_color[p]);
            } else {
                let q = q.expect("non-root has a parent");
                if self.owner(ctx, q) {
                    continue; // updated with its root `q`
                }
                // The parent edge's owner sent its color this round.
                debug_assert!(
                    inbox
                        .iter()
                        .any(|env| env.port == q && matches!(env.msg, DetMatchMsg::CvColor(_))),
                    "parent edge owner broadcasts CV color"
                );
                self.cv_color[p] = cv_step(self.cv_color[p], self.nbr_cv_color[q]);
            }
            ctx.send(p, DetMatchMsg::CvColor(self.cv_color[p]));
        }
    }

    /// Sweep join round for color `c` (first round of the 2-round phase).
    ///
    /// The CV coloring is proper along owner-side pair links; pair links at
    /// non-owner endpoints may join two same-colored path-adjacent edges,
    /// so equal-color adjacencies are additionally broken by edge id.
    fn sweep_join_round(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        inbox: &[Envelope<DetMatchMsg>],
        k: usize,
        c: u64,
    ) -> bool {
        self.note_partner_joins(inbox);
        let mut joined = false;
        for p in ctx.ports() {
            if self.value[p] != EdgeValue::Exp(k)
                || !self.owner(ctx, p)
                || self.partner_joined[p]
                || self.cv_color[p] != c
            {
                continue;
            }
            debug_assert!(
                self.cv_color[p] < SWEEP_COLORS as u64,
                "CV converged to < 6 colors"
            );
            let my_id = ctx.edge_id(p) as u64;
            // Near partner (paired at this node).
            if let Some(q) = self.partner[p] {
                if self.color_of(ctx, q) == c && (ctx.edge_id(q) as u64) < my_id {
                    continue;
                }
            }
            // Far partner (paired at the other endpoint; relayed).
            if let Some((fc, fid)) = self.far_partner[p] {
                if fc == c && fid < my_id {
                    continue;
                }
            }
            self.mis[p] = true;
            joined = true;
            ctx.send(p, DetMatchMsg::MisJoin);
        }
        joined
    }

    /// Sweep relay round: forward join news to path partners.
    fn sweep_relay_round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMatchMsg>]) {
        for env in inbox {
            if matches!(env.msg, DetMatchMsg::MisJoin) {
                self.mis[env.port] = true;
                if let Some(q) = self.partner[env.port] {
                    ctx.send(q, DetMatchMsg::PartnerJoined);
                }
            }
        }
        // Local relays: a join we made ourselves also blocks our partners.
        for p in ctx.ports() {
            if self.mis[p] {
                if let Some(q) = self.partner[p] {
                    self.partner_joined[q] = true;
                }
            }
        }
    }

    fn note_partner_joins(&mut self, inbox: &[Envelope<DetMatchMsg>]) {
        for env in inbox {
            match env.msg {
                DetMatchMsg::PartnerJoined => self.partner_joined[env.port] = true,
                DetMatchMsg::MisJoin => self.mis[env.port] = true,
                DetMatchMsg::PartnerColor(c, id) => self.far_partner[env.port] = Some((c, id)),
                _ => {}
            }
        }
    }

    /// Rule D's wake color: the smallest color `c >= from` of an owned
    /// class-k edge that can still join, i.e. neither it nor a path
    /// partner has joined. Only such an edge acts in a join round.
    fn next_join_color(&self, ctx: &Ctx<'_, Self>, k: usize, from: u64) -> Option<u64> {
        ctx.ports()
            .filter(|&p| {
                self.value[p] == EdgeValue::Exp(k)
                    && self.owner(ctx, p)
                    && !self.mis[p]
                    && !self.partner_joined[p]
            })
            .map(|p| self.cv_color[p])
            .filter(|c| (from..SWEEP_COLORS as u64).contains(c))
            .min()
    }

    /// Whether an owned class-k edge joined the sweep's independent set:
    /// only such an edge asks to double in the want round.
    fn owns_joined_edge(&self, ctx: &Ctx<'_, Self>, k: usize) -> bool {
        ctx.ports()
            .any(|p| self.value[p] == EdgeValue::Exp(k) && self.owner(ctx, p) && self.mis[p])
    }

    /// The class offset this node may sleep until after its activation at
    /// class offset `coff` (see `Ctx::sleep_until`), or `None` to stay
    /// awake. `joined` says whether an owned edge joined in this round.
    ///
    /// Each rule skips only rounds that, with an empty inbox, would
    /// change no state, send nothing and commit nothing (the process
    /// draws no randomness at all). A message wakes the node early, its
    /// round runs as usual, and the rules are applied again.
    /// DESIGN.md §2, "Sleep-aware activation", counts what they save.
    fn class_wake(
        &self,
        ctx: &Ctx<'_, Self>,
        k: usize,
        coff: usize,
        joined: bool,
    ) -> Option<usize> {
        let DetMatchSchedule { relay, want, .. } = self.sched;
        // The next class's pair round (after class 1, the fallback
        // proposal): it resets the pairing and must run.
        let next_pair = self.sched.class_len;
        if !self.in_class || coff >= want {
            // Rule A: no class-k port, and every round of the phase
            // touches class-k ports only.
            // Rule C: the grant, double and zero rounds act only on the
            // `WantDouble`, `Grant` and `Doubled`/`Zeroed` messages of
            // their own round (`granted` is reset at the pair round and
            // set only from a `Grant`).
            return Some(next_pair);
        }
        if !self.owns_class_edge {
            // Rule B′: a non-owner's CV rounds only note colors, which
            // arrive as messages; it relays partner colors in the relay
            // round. After that its sweep rounds relay joins, which
            // arrive as messages (a `MisJoin` is marked at the partner in
            // the round it arrives, so the local relay of a later round
            // is idempotent), and the want round is for owners only.
            return Some(if coff < relay { relay } else { next_pair });
        }
        if coff < relay || joined {
            // An owner steps every CV round. One that just joined an edge
            // runs the next relay round: its local relay marks the
            // edge's partners.
            return None;
        }
        // Rule D: an owner's join round acts only on an owned class-k edge
        // of that round's color that has not joined and whose partners
        // have not; its later relay rounds only act on messages.
        let from = if coff == relay {
            0
        } else {
            ((coff - relay - 1) / 2 + 1) as u64
        };
        Some(match self.next_join_color(ctx, k, from) {
            Some(c) => self.sched.join(c as usize),
            None if self.owns_joined_edge(ctx, k) => want,
            None => next_pair,
        })
    }

    /// Doubling handshake (4 rounds): want, grant, double, zero.
    fn want_round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMatchMsg>], k: usize) {
        self.note_partner_joins(inbox);
        // No value moves in this round: the O(deg) slack is summed once.
        let mut slack = None;
        for p in ctx.ports() {
            if self.value[p] == EdgeValue::Exp(k) && self.owner(ctx, p) && self.mis[p] {
                // Owner-side feasibility: paired here, or enough slack.
                let ok = self.partner[p].is_some()
                    || *slack.get_or_insert_with(|| self.slack(ctx)) >= self.value_f(p) - 1e-12;
                if ok {
                    ctx.send(p, DetMatchMsg::WantDouble);
                }
            }
        }
    }

    fn grant_round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMatchMsg>], k: usize) {
        // No value moves in this round: the O(deg) slack is summed once.
        let mut slack = None;
        for env in inbox {
            if matches!(env.msg, DetMatchMsg::WantDouble) {
                let p = env.port;
                // Deny if our view of the edge is stale (e.g. a zero crossed
                // a phase boundary); the owner simply keeps the old value.
                if self.value[p] != EdgeValue::Exp(k) {
                    continue;
                }
                let ok = self.partner[p].is_some()
                    || *slack.get_or_insert_with(|| self.slack(ctx)) >= self.value_f(p) - 1e-12;
                if ok {
                    ctx.send(p, DetMatchMsg::Grant);
                }
            }
        }
    }

    fn double_round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMatchMsg>], k: usize) {
        for env in inbox {
            if matches!(env.msg, DetMatchMsg::Grant) {
                self.granted[env.port] = true;
            }
        }
        for p in ctx.ports() {
            if self.value[p] == EdgeValue::Exp(k)
                && self.owner(ctx, p)
                && self.mis[p]
                && self.granted[p]
            {
                self.apply_double(p, k);
                ctx.send(p, DetMatchMsg::Doubled);
                // Our own partner (if any) zeroes; tell its other endpoint.
                if let Some(q) = self.partner[p] {
                    if self.value[q] == EdgeValue::Exp(k) {
                        self.value[q] = EdgeValue::Zero;
                        ctx.send(q, DetMatchMsg::Zeroed);
                    }
                }
            }
        }
    }

    fn zero_round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMatchMsg>], k: usize) {
        for env in inbox {
            match env.msg {
                DetMatchMsg::Doubled => {
                    // The other endpoint doubled the shared edge.
                    if self.value[env.port] == EdgeValue::Exp(k) {
                        self.apply_double(env.port, k);
                    }
                    // Its zeroed partner at our side.
                    if let Some(q) = self.partner[env.port] {
                        if self.value[q] == EdgeValue::Exp(k) {
                            self.value[q] = EdgeValue::Zero;
                            ctx.send(q, DetMatchMsg::Zeroed);
                        }
                    }
                }
                DetMatchMsg::Zeroed => {
                    if matches!(self.value[env.port], EdgeValue::Exp(_)) {
                        self.value[env.port] = EdgeValue::Zero;
                    }
                }
                _ => {}
            }
        }
    }

    fn apply_double(&mut self, port: usize, k: usize) {
        self.value[port] = if k == 1 {
            EdgeValue::One
        } else {
            EdgeValue::Exp(k - 1)
        };
    }

    /// Fallback proposal round: nodes with no value-1 edge propose over
    /// their local-max-id active edge; mutual proposals match. Guarantees
    /// progress even when the rounding stalls.
    fn fallback_propose(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMatchMsg>]) {
        // Clean up any Zeroed stragglers.
        for env in inbox {
            if matches!(env.msg, DetMatchMsg::Zeroed)
                && matches!(self.value[env.port], EdgeValue::Exp(_))
            {
                self.value[env.port] = EdgeValue::Zero;
            }
        }
        if ctx.ports().any(|p| self.value[p] == EdgeValue::One) {
            return; // already matched by the rounding
        }
        let candidate = ctx
            .ports()
            .filter(|&p| self.nbr_active[p])
            .max_by_key(|&p| ctx.edge_id(p));
        if let Some(p) = candidate {
            ctx.send(p, DetMatchMsg::Propose);
        }
    }

    fn fallback_resolve(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMatchMsg>]) {
        let candidate = ctx
            .ports()
            .filter(|&p| self.nbr_active[p])
            .max_by_key(|&p| ctx.edge_id(p));
        if ctx.ports().any(|p| self.value[p] == EdgeValue::One) {
            return;
        }
        if let Some(p) = candidate {
            let mutual = inbox
                .iter()
                .any(|env| env.port == p && matches!(env.msg, DetMatchMsg::Propose));
            if mutual {
                self.fallback_port = Some(p);
            }
        }
    }

    /// This node's match candidate for this iteration, if any.
    fn match_candidate(&self, ctx: &Ctx<'_, Self>) -> Option<usize> {
        ctx.ports()
            .find(|&p| self.value[p] == EdgeValue::One)
            .or(self.fallback_port)
    }

    /// Intent round: announce the candidate over the shared edge. Commits
    /// are final in the model, so an edge only enters the matching when
    /// *both* endpoints announce it — this makes the commit immune to any
    /// residual value disagreement between the endpoints.
    fn intent_round(&mut self, ctx: &mut Ctx<'_, Self>, _inbox: &[Envelope<DetMatchMsg>]) {
        if let Some(p) = self.match_candidate(ctx) {
            ctx.send(p, DetMatchMsg::MatchIntent);
        }
    }

    /// Commit round: a mutually-intended candidate commits; an
    /// unreciprocated candidate is dropped (the node stays active and the
    /// fallback of the next iteration guarantees progress).
    fn commit_round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMatchMsg>]) {
        let Some(mp) = self.match_candidate(ctx) else {
            return;
        };
        let mutual = inbox
            .iter()
            .any(|env| env.port == mp && matches!(env.msg, DetMatchMsg::MatchIntent));
        if !mutual {
            // The far endpoint disagrees: drop our claim on this edge.
            if self.value[mp] == EdgeValue::One {
                self.value[mp] = EdgeValue::Zero;
            }
            self.fallback_port = None;
            return;
        }
        for p in ctx.ports() {
            if self.nbr_active[p] {
                ctx.commit_edge(p, p == mp);
            }
        }
        self.matched = true;
        ctx.broadcast(DetMatchMsg::Matched);
        ctx.halt();
    }
}

impl Process for DetMatching {
    type Message = DetMatchMsg;
    type NodeOutput = ();
    type EdgeOutput = bool;
    type Params = ();

    const OUTPUT_KIND: OutputKind = OutputKind::EdgeLabels;

    fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
        let degree = ctx.degree();
        let sched = DetMatchSchedule::new(ctx.n() * ctx.max_degree().max(1), ctx.max_degree());
        let mut state = DetMatching {
            sched,
            nbr_active: vec![true; degree],
            active_degree: degree as u64,
            nbr_degree: vec![0; degree],
            value: vec![EdgeValue::Inactive; degree],
            partner: vec![None; degree],
            cv_color: vec![0; degree],
            nbr_cv_color: vec![u64::MAX; degree],
            far_partner: vec![None; degree],
            mis: vec![false; degree],
            partner_joined: vec![false; degree],
            is_root: vec![false; degree],
            granted: vec![false; degree],
            fallback_port: None,
            matched: false,
            in_class: false,
            owns_class_edge: false,
        };
        state.degree_round(ctx);
        state
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMatchMsg>]) {
        self.prune(inbox);
        let off = ctx.round() % self.sched.iter_len;
        let s = self.sched;
        if off == 0 {
            self.degree_round(ctx);
            return;
        }
        let class_region = 1 + s.k_max * s.class_len;
        if off < class_region {
            let class_idx = (off - 1) / s.class_len;
            let k = s.k_max - class_idx; // classes processed high -> low
            let coff = (off - 1) % s.class_len;
            let mut joined = false;
            if coff == 0 {
                self.pair_round(ctx, inbox, k);
            } else if coff < s.relay {
                self.cv_round(ctx, inbox, k);
            } else if coff == s.relay {
                self.relay_color_round(ctx, inbox, k);
            } else if coff < s.want {
                let sweep = coff - s.relay - 1;
                if sweep.is_multiple_of(2) {
                    joined = self.sweep_join_round(ctx, inbox, k, (sweep / 2) as u64);
                } else {
                    self.sweep_relay_round(ctx, inbox);
                }
            } else {
                match coff - s.want {
                    0 => self.want_round(ctx, inbox, k),
                    1 => self.grant_round(ctx, inbox, k),
                    2 => self.double_round(ctx, inbox, k),
                    _ => self.zero_round(ctx, inbox, k),
                }
            }
            if let Some(wake) = self.class_wake(ctx, k, coff, joined) {
                ctx.sleep_until(ctx.round() - coff + wake);
            }
            return;
        }
        match off - class_region {
            0 => self.fallback_propose(ctx, inbox),
            1 => self.fallback_resolve(ctx, inbox),
            2 => self.intent_round(ctx, inbox),
            3 => self.commit_round(ctx, inbox),
            _ => {} // prune-only round; Matched messages handled by prune()
        }
    }
}

/// Runs Theorem 5's deterministic maximal matching (`"matching/det"`)
/// under `spec`, reusing the arenas in `ws` (the seed is ignored).
///
/// # Example
///
/// ```
/// use localavg_core::algo::{registry, RunSpec};
/// use localavg_graph::{analysis, gen};
///
/// let g = gen::grid(5, 5);
/// let det = registry().get("matching/det").expect("registered");
/// let run = det.execute(&g, &RunSpec::new(0));
/// let in_matching = run.solution.matching().expect("a matching solution");
/// assert!(analysis::is_maximal_matching(&g, in_matching));
/// let reseeded = det.execute(&g, &RunSpec::new(1));
/// assert_eq!(reseeded.solution.matching(), Some(in_matching));
/// ```
pub(crate) fn deterministic(g: &Graph, spec: &RunSpec, ws: &mut Workspace) -> AlgoRun {
    let t = spec.run_in::<DetMatching>(g, &(), ws);
    matching_run("matching/det", g, t)
}

/// The fractional matching of Theorem 5's analysis: `f_e = 1/(d_u + d_v)`
/// on the *current* graph. Exposed for tests and the E5 experiment (the
/// rounding quality is measured against `Σ f_e · w_e = |E|`).
pub fn fractional_matching(g: &Graph) -> Vec<f64> {
    g.edges()
        .map(|(_, u, v)| 1.0 / (g.degree(u) + g.degree(v)) as f64)
        .collect()
}

/// Validates the fractional matching node constraints (`Σ_{e ∋ v} f_e <= 1`).
pub fn fractional_is_valid(g: &Graph, f: &[f64]) -> bool {
    let mut load = vec![0.0f64; g.n()];
    for (e, u, v) in g.edges() {
        load[u] += f[e];
        load[v] += f[e];
    }
    load.iter().all(|&l| l <= 1.0 + 1e-9)
}

/// Edge weight `w_e = d_u + d_v` used by Theorem 5's kill-count argument.
pub fn edge_weight(g: &Graph, e: EdgeId) -> usize {
    let (u, v) = g.endpoints(e);
    g.degree(u) + g.degree(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ComplexityReport;
    use localavg_graph::{analysis, gen};

    fn luby(g: &Graph, seed: u64) -> AlgoRun {
        let params = LubyMatchParams::default();
        super::luby(g, &RunSpec::new(seed), &params, &mut Workspace::new())
    }

    fn greedy(g: &Graph) -> AlgoRun {
        super::greedy(g, &RunSpec::new(0), &mut Workspace::new())
    }

    fn deterministic(g: &Graph) -> AlgoRun {
        super::deterministic(g, &RunSpec::new(0), &mut Workspace::new())
    }

    fn in_matching(run: &AlgoRun) -> &[bool] {
        run.solution.matching().expect("a matching solution")
    }

    /// Number of matched edges.
    fn size(run: &AlgoRun) -> usize {
        in_matching(run).iter().filter(|&&b| b).count()
    }

    fn check(g: &Graph, run: &AlgoRun) {
        assert!(
            analysis::is_maximal_matching(g, in_matching(run)),
            "invalid maximal matching"
        );
        assert!(run.transcript.all_edges_committed());
    }

    #[test]
    fn luby_on_standard_graphs() {
        for g in [
            gen::path(30),
            gen::cycle(29),
            gen::complete(11),
            gen::star(14),
            gen::grid(5, 7),
            gen::petersen(),
        ] {
            let run = luby(&g, 3);
            check(&g, &run);
        }
    }

    #[test]
    fn luby_on_random_graphs() {
        for seed in 0..4 {
            let mut rng = Rng::seed_from(seed);
            let g = gen::gnp(100, 0.06, &mut rng);
            let run = luby(&g, seed + 50);
            check(&g, &run);
        }
    }

    #[test]
    fn luby_edge_averaged_is_constant_ish() {
        // Theorem 4: edge-averaged complexity O(1) (this is the Def. 1 edge
        // average — matching labels live on edges).
        let mut rng = Rng::seed_from(7);
        let g = gen::random_regular(400, 8, &mut rng).unwrap();
        let run = luby(&g, 5);
        check(&g, &run);
        let r = ComplexityReport::from_run(&g, &run.transcript);
        assert!(
            r.edge_averaged < 30.0,
            "edge averaged = {}",
            r.edge_averaged
        );
        assert!(r.rounds > 0);
    }

    #[test]
    fn luby_is_congest() {
        let mut rng = Rng::seed_from(9);
        let g = gen::gnp(80, 0.1, &mut rng);
        let run = luby(&g, 2);
        assert!(
            run.transcript
                .peak_message_bits()
                .expect("full-policy run is audited")
                <= 128
        );
    }

    #[test]
    fn greedy_on_standard_graphs() {
        for g in [
            gen::path(21),
            gen::cycle(16),
            gen::complete(9),
            gen::star(11),
            gen::grid(4, 6),
        ] {
            let run = greedy(&g);
            check(&g, &run);
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let mut rng = Rng::seed_from(11);
        let g = gen::gnp(70, 0.08, &mut rng);
        let a = greedy(&g);
        let b = greedy(&g);
        assert_eq!(in_matching(&a), in_matching(&b));
    }

    #[test]
    fn deterministic_on_standard_graphs() {
        for g in [
            gen::path(18),
            gen::cycle(15),
            gen::complete(8),
            gen::star(9),
            gen::grid(4, 5),
            gen::petersen(),
        ] {
            let run = deterministic(&g);
            check(&g, &run);
        }
    }

    #[test]
    fn deterministic_on_random_graphs() {
        for seed in 0..3 {
            let mut rng = Rng::seed_from(seed + 30);
            let g = gen::gnp(60, 0.08, &mut rng);
            let run = deterministic(&g);
            check(&g, &run);
        }
    }

    #[test]
    fn deterministic_on_regular_graphs() {
        for d in [3usize, 6] {
            let mut rng = Rng::seed_from(d as u64);
            let g = gen::random_regular(64, d, &mut rng).unwrap();
            let run = deterministic(&g);
            check(&g, &run);
        }
    }

    #[test]
    fn deterministic_sleeps_through_most_live_rounds() {
        // Awake node-rounds over Σ live on fixed lower-bound instances.
        // Rules A–D give 0.317 and 0.322. Each bound trips when a rule is
        // lost: at n = 576 the ratio is 0.50 without D, 0.337 without A,
        // 0.332 without C, and 0.323 with B′ cut back to sleeping from
        // the relay to the want round. Rules A and B alone gave 0.55.
        let lift = localavg_lowerbound::families::generators()
            .into_iter()
            .find(|f| f.name() == "lb/lift/1")
            .expect("registered");
        for (n, seed, bound) in [(576, 1, 0.32), (1152, 3, 0.325)] {
            let g = lift.build(n, seed).expect("instance");
            let mut ws = Workspace::new();
            let run = super::deterministic(&g, &RunSpec::new(0), &mut ws);
            check(&g, &run);
            let live: u64 = run
                .transcript
                .node_halt_round
                .iter()
                .map(|&h| h as u64 + 1)
                .sum();
            let ratio = ws.stats().awake_node_rounds as f64 / live as f64;
            assert!(ratio < bound, "n={n}: awake / live = {ratio:.4}");
        }
    }

    #[test]
    fn deterministic_single_edge() {
        let g = gen::path(2);
        let run = deterministic(&g);
        assert_eq!(in_matching(&run), [true]);
    }

    #[test]
    fn fractional_matching_valid_and_full_weight() {
        let mut rng = Rng::seed_from(44);
        let g = gen::gnp(50, 0.15, &mut rng);
        let f = fractional_matching(&g);
        assert!(fractional_is_valid(&g, &f));
        // Σ f_e * w_e = |E| identically (Theorem 5's starting point).
        let total: f64 = g
            .edges()
            .map(|(e, _, _)| f[e] * edge_weight(&g, e) as f64)
            .collect::<Vec<_>>()
            .iter()
            .sum();
        assert!((total - g.m() as f64).abs() < 1e-6);
    }

    #[test]
    fn matching_sizes_comparable() {
        // All three algorithms produce maximal matchings, which are 2-
        // approximations of each other.
        let mut rng = Rng::seed_from(4);
        let g = gen::random_regular(100, 4, &mut rng).unwrap();
        let a = size(&luby(&g, 1));
        let b = size(&greedy(&g));
        let c = size(&deterministic(&g));
        for (x, y) in [(a, b), (a, c), (b, c)] {
            assert!(x <= 2 * y && y <= 2 * x, "sizes {x} vs {y}");
        }
    }
}
