//! Ruling set algorithms (paper §3.1, Theorems 2 and 3).
//!
//! An (α, β)-ruling set is a set `S` with pairwise distances `>= α` whose
//! members are within distance `β` of every node \[AGLP89\]; an MIS is a
//! (2,1)-ruling set.
//!
//! * `"ruling/two-two"` — **Theorem 2**, implemented verbatim: each active node
//!   marks itself with probability `1/(deg(v)+1)`; a marked node joins if
//!   it has no marked *higher-priority* neighbor (priority = lexicographic
//!   (degree, id)); everything within distance 2 of the new members is
//!   deleted; recurse. The paper proves a constant fraction of nodes is
//!   deleted per iteration, giving node-averaged complexity O(1).
//! * `"ruling/det"` — **Theorem 3**: O(log Δ) iterations of a
//!   dominating-set step that (empirically, and by \[KP98\]'s guarantee
//!   for the paper's subroutine) halves the active nodes in O(log* n)
//!   rounds, followed by a Linial-coloring MIS finisher on the few
//!   survivors. Terminated nodes are always within distance ≤ 2 of the
//!   surviving set, so `T` iterations yield a (2, 2T+1)-ruling set.
//!
//! The dominating-set step follows the paper's own footnote 7: build the
//! pointer pseudo-forest, put *parents of leaves* into the dominating set,
//! remove the dominated nodes, and finish with an MIS of the remaining
//! pseudo-forest (computed by Cole–Vishkin 6-coloring of pointer chains in
//! O(log* n) rounds plus a 6-phase color sweep).
//!
//! Both run through [`crate::algo::registry`]; a run reports the β it
//! guarantees in its [`Solution::RulingSet`]:
//!
//! ```
//! use localavg_core::algo::{registry, RunSpec, Solution};
//! use localavg_graph::{analysis, gen, rng::Rng};
//!
//! let mut rng = Rng::seed_from(2);
//! let g = gen::random_regular(64, 4, &mut rng).expect("graph");
//! for name in ["ruling/two-two", "ruling/det"] {
//!     let run = registry().get(name).expect("registered").execute(&g, &RunSpec::new(5));
//!     let Solution::RulingSet { in_set, beta } = &run.solution else {
//!         panic!("{name} returns a ruling set");
//!     };
//!     assert!(analysis::is_ruling_set(&g, in_set, 2, *beta));
//! }
//! ```

use crate::algo::{AlgoRun, Solution};
use crate::subroutines::{
    ceil_log2, cv_rounds, cv_step, cv_step_root, linial_schedule, LinialStep,
};
use localavg_graph::Graph;
use localavg_sim::prelude::*;

// ---------------------------------------------------------------------------
// Theorem 2: randomized (2,2)-ruling set
// ---------------------------------------------------------------------------

/// Messages of the (2,2)-ruling set process.
#[derive(Debug, Clone, PartialEq)]
pub enum TwoTwoMsg {
    /// Mark announcement with the sender's residual degree.
    Mark {
        /// Whether the sender marked itself this iteration.
        marked: bool,
        /// Sender's residual degree (for the priority comparison).
        degree: u64,
    },
    /// Sender joined the ruling set.
    Joined,
    /// Sender is adjacent to the set (so the receiver is within distance 2).
    NearSet,
    /// Sender left the residual graph.
    Removed,
}

impl MessageSize for TwoTwoMsg {
    fn size_bits(&self) -> usize {
        match self {
            TwoTwoMsg::Mark { .. } => 2 + 1 + 64,
            _ => 2,
        }
    }
}

/// Theorem 2's process; iteration = 4 rounds (mark, join, near, removed).
struct TwoTwoRuling {
    active_degree: usize,
    marked: bool,
}

impl TwoTwoRuling {
    fn mark_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<TwoTwoMsg>]) {
        for env in inbox {
            if matches!(env.msg, TwoTwoMsg::Removed) {
                self.active_degree -= 1;
            }
        }
        if self.active_degree == 0 {
            // Isolated in the residual graph: must join (nothing can cover it).
            ctx.commit_node(true);
            ctx.halt();
            return;
        }
        // p_v := 1 / (deg(v) + 1), exactly as in the proof of Theorem 2.
        self.marked = ctx.rng().chance(1.0 / (self.active_degree as f64 + 1.0));
        ctx.broadcast(TwoTwoMsg::Mark {
            marked: self.marked,
            degree: self.active_degree as u64,
        });
    }

    fn join_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<TwoTwoMsg>]) {
        if !self.marked {
            return;
        }
        // Higher priority: deg(w) > deg(v), or equal degree and ID(w) > ID(v).
        let mine = (self.active_degree as u64, ctx.id() as u64);
        let beaten = inbox.iter().any(|env| match env.msg {
            TwoTwoMsg::Mark { marked, degree } => marked && (degree, env.src as u64) > mine,
            _ => false,
        });
        if !beaten {
            ctx.commit_node(true);
            ctx.broadcast(TwoTwoMsg::Joined);
            ctx.halt();
        }
    }

    fn near_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<TwoTwoMsg>]) {
        if inbox.iter().any(|env| matches!(env.msg, TwoTwoMsg::Joined)) {
            // Distance 1 from the set: deleted; notify distance-2 nodes.
            ctx.commit_node(false);
            ctx.broadcast(TwoTwoMsg::NearSet);
            ctx.halt();
        }
    }

    fn far_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<TwoTwoMsg>]) {
        if inbox
            .iter()
            .any(|env| matches!(env.msg, TwoTwoMsg::NearSet))
        {
            // Distance 2 from the set: deleted.
            ctx.commit_node(false);
            ctx.broadcast(TwoTwoMsg::Removed);
            ctx.halt();
        }
    }
}

impl Process for TwoTwoRuling {
    type Message = TwoTwoMsg;
    type NodeOutput = bool;
    type EdgeOutput = ();
    type Params = ();

    const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

    fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
        let mut state = TwoTwoRuling {
            active_degree: ctx.degree(),
            marked: false,
        };
        state.mark_phase(ctx, &[]);
        state
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<TwoTwoMsg>]) {
        match ctx.round() % 4 {
            0 => self.mark_phase(ctx, inbox),
            1 => self.join_phase(ctx, inbox),
            2 => self.near_phase(ctx, inbox),
            _ => self.far_phase(ctx, inbox),
        }
    }
}

/// Runs Theorem 2's randomized (2,2)-ruling set algorithm (CONGEST,
/// `"ruling/two-two"`) under `spec`, reusing the arenas in `ws`.
///
/// # Example
///
/// ```
/// use localavg_core::algo::{registry, RunSpec};
/// use localavg_graph::{analysis, gen, rng::Rng};
///
/// let mut rng = Rng::seed_from(2);
/// let g = gen::random_regular(64, 4, &mut rng).expect("graph");
/// let two_two = registry().get("ruling/two-two").expect("registered");
/// let run = two_two.execute(&g, &RunSpec::new(5));
/// let in_set = run.solution.node_set().expect("a ruling set solution");
/// assert!(analysis::is_ruling_set(&g, in_set, 2, 2));
/// ```
pub(crate) fn two_two(g: &Graph, spec: &RunSpec, ws: &mut Workspace) -> AlgoRun {
    let t = spec.run_in::<TwoTwoRuling>(g, &(), ws);
    let in_set = t.node_labels();
    let solution = Solution::RulingSet { in_set, beta: 2 };
    AlgoRun::new("ruling/two-two", g, t.into_erased(), solution)
}

// ---------------------------------------------------------------------------
// Theorem 3: deterministic ruling sets
// ---------------------------------------------------------------------------

/// Messages of the deterministic ruling set process.
#[derive(Debug, Clone, PartialEq)]
pub enum DetMsg {
    /// "You are my pointer target" (pseudo-forest edge).
    Pointer,
    /// "I am a leaf of the pointer forest and you are my parent."
    LeafNotice,
    /// "I joined the dominating set of this iteration."
    InDominating,
    /// "I terminated" (receiver prunes me from its residual neighborhood).
    Gone,
    /// Cole–Vishkin color announcement within the pointer forest.
    CvColor(u64),
    /// "I joined the pseudo-forest MIS of this iteration."
    InForestMis,
    /// Linial color announcement (finisher stage).
    Color(u64),
    /// "I joined the final ruling set."
    SetJoined,
}

impl MessageSize for DetMsg {
    fn size_bits(&self) -> usize {
        match self {
            DetMsg::CvColor(_) | DetMsg::Color(_) => 3 + 64,
            _ => 3,
        }
    }
}

/// Parameters of the deterministic ruling set: the number of
/// dominating-set iterations before the MIS finisher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DetRulingParams {
    /// Number of halving iterations `T` (the final β is `2T + 1`).
    pub iterations: usize,
}

impl DetRulingParams {
    /// Theorem 3's (2, O(log Δ)) variant: `T = 3⌈log2 Δ⌉ + 1` iterations,
    /// leaving ~`n/Δ³` nodes for the finisher.
    pub fn for_log_delta(g: &Graph) -> Self {
        let delta = g.max_degree().max(2) as u64;
        DetRulingParams {
            iterations: 3 * ceil_log2(delta) as usize + 1,
        }
    }

    /// Theorem 3's (2, O(log log n)) variant: `T = 3⌈log2 log2 n⌉ + 1`
    /// iterations, leaving ~`n / log³ n` nodes for the finisher.
    pub fn for_log_log_n(g: &Graph) -> Self {
        let loglog = ceil_log2(ceil_log2(g.n().max(4) as u64).max(2) as u64) as usize;
        DetRulingParams {
            iterations: 3 * loglog + 1,
        }
    }
}

/// Fixed per-iteration schedule, derived identically by all nodes from the
/// global knowledge `(n, Δ)`.
#[derive(Debug, Clone)]
struct DetSchedule {
    iterations: usize,
    cv: usize,
    iter_len: usize,
    linial: Vec<LinialStep>,
}

impl DetSchedule {
    fn new(n: usize, params: &DetRulingParams) -> Self {
        let cv = cv_rounds(n.max(2) as u64);
        DetSchedule {
            iterations: params.iterations,
            cv,
            // offsets: 0 point, 1 leaf, 2 lp-join, 3 dominated, 4 pf-setup,
            // 5..5+cv CV, then 6 sweep rounds, then 1 finish round.
            iter_len: cv + 12,
            linial: Vec::new(), // filled lazily per process (needs Δ)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DetStage {
    Iterating,
    LinialColoring,
    Sweep,
}

/// Theorem 3's process. See the module docs for the schedule.
struct DetRuling {
    sched: DetSchedule,
    nbr_active: Vec<bool>,
    // Per-iteration state:
    pointer_port: Option<usize>,
    in_children: Vec<bool>,
    in_dominating: bool,
    is_forest_node: bool,
    forest_parent: Option<usize>,
    cv_color: u64,
    forest_covered: bool,
    // Finisher state:
    stage: DetStage,
    color: u64,
    nbr_color: Vec<u64>,
    linial_idx: usize,
}

impl DetRuling {
    /// The iteration offset up to which this node's rounds after `off`
    /// are no-ops with an empty inbox, if any (see `Ctx::sleep_until`;
    /// messages wake the node early and are handled as usual):
    ///
    /// * a dominating-set member (joined at LP-JOIN or in the forest MIS)
    ///   sits out the rest of the iteration;
    /// * in the sweep, a forest node that a neighbor covered only waits
    ///   for FINISH, and an uncovered one for its own color's round.
    fn idle_until(&self, off: usize) -> Option<usize> {
        let sweep = 5 + self.sched.cv.saturating_sub(1);
        if self.in_dominating && off >= 2 {
            Some(self.sched.iter_len)
        } else if self.is_forest_node && (sweep..sweep + 6).contains(&off) {
            Some(if self.forest_covered {
                sweep + 6
            } else {
                sweep + self.cv_color as usize
            })
        } else {
            None
        }
    }

    fn prune(&mut self, inbox: &[Envelope<DetMsg>]) {
        for env in inbox {
            if matches!(env.msg, DetMsg::Gone) {
                self.nbr_active[env.port] = false;
                self.in_children[env.port] = false;
            }
        }
    }

    fn iteration_round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMsg>], off: usize) {
        let cv = self.sched.cv;
        match off {
            // POINT: reset iteration state; pick the max-id active neighbor.
            0 => {
                self.pointer_port = None;
                self.in_children.iter_mut().for_each(|c| *c = false);
                self.in_dominating = false;
                self.is_forest_node = false;
                self.forest_parent = None;
                self.forest_covered = false;
                let target = ctx
                    .ports()
                    .filter(|&p| self.nbr_active[p])
                    .max_by_key(|&p| ctx.neighbor_id(p));
                match target {
                    None => {
                        // Isolated in the residual graph: joins the set.
                        ctx.commit_node(true);
                        ctx.halt();
                    }
                    Some(p) => {
                        self.pointer_port = Some(p);
                        ctx.send(p, DetMsg::Pointer);
                    }
                }
            }
            // LEAF: record in-pointers; leaves notify their parent.
            1 => {
                for env in inbox {
                    if matches!(env.msg, DetMsg::Pointer) {
                        self.in_children[env.port] = true;
                    }
                }
                if !self.in_children.iter().any(|&c| c) {
                    let p = self.pointer_port.expect("non-isolated node has a pointer");
                    ctx.send(p, DetMsg::LeafNotice);
                }
            }
            // LP-JOIN: parents of leaves join the dominating set.
            2 => {
                if inbox
                    .iter()
                    .any(|env| matches!(env.msg, DetMsg::LeafNotice))
                {
                    self.in_dominating = true;
                    ctx.broadcast(DetMsg::InDominating);
                }
            }
            // DOMINATED: neighbors of the dominating set terminate.
            3 => {
                let dominated = inbox
                    .iter()
                    .any(|env| matches!(env.msg, DetMsg::InDominating));
                if dominated && !self.in_dominating {
                    ctx.commit_node(false);
                    ctx.broadcast(DetMsg::Gone);
                    ctx.halt();
                }
            }
            // PF-SETUP: determine forest membership, parent, and isolation.
            4 => {
                if self.in_dominating {
                    return; // dominating-set members sit this part out
                }
                self.is_forest_node = true;
                let p = self.pointer_port.expect("forest node has a pointer");
                if self.nbr_active[p] {
                    // Mutual pair: the smaller id acts as root.
                    let mutual = self.in_children[p];
                    if mutual && ctx.id() < ctx.neighbor_id(p) {
                        self.forest_parent = None;
                    } else {
                        self.forest_parent = Some(p);
                    }
                } else if self.in_children.iter().any(|&c| c) {
                    self.forest_parent = None; // dangling pointer: root
                } else {
                    // Isolated in the forest: its target was dominated, so it
                    // sits within distance 2 of the dominating set. Terminate.
                    self.is_forest_node = false;
                    ctx.commit_node(false);
                    ctx.broadcast(DetMsg::Gone);
                    ctx.halt();
                    return;
                }
                self.cv_color = ctx.id() as u64;
                if cv > 0 {
                    // First CV step uses the parent's id, already known.
                    self.cv_color = match self.forest_parent {
                        Some(p) => cv_step(self.cv_color, ctx.neighbor_id(p) as u64),
                        None => cv_step_root(self.cv_color),
                    };
                    ctx.broadcast(DetMsg::CvColor(self.cv_color));
                }
            }
            // CV iterations and the 6-phase sweep, then FINISH.
            _ => {
                if !self.is_forest_node {
                    return;
                }
                let cv_off = off - 5;
                if cv_off < cv.saturating_sub(1) {
                    // CV step using the parent's color from this inbox.
                    self.cv_color = match self.forest_parent {
                        Some(p) => {
                            let parent_color = inbox
                                .iter()
                                .find_map(|env| match env.msg {
                                    DetMsg::CvColor(c) if env.port == p => Some(c),
                                    _ => None,
                                })
                                .expect("parent broadcasts its CV color");
                            cv_step(self.cv_color, parent_color)
                        }
                        None => cv_step_root(self.cv_color),
                    };
                    ctx.broadcast(DetMsg::CvColor(self.cv_color));
                } else if off < 5 + cv.saturating_sub(1) + 7 {
                    // Sweep rounds: 6 color phases + finish. Compute the
                    // sweep index; colors are < 6 after the CV rounds.
                    let sweep_base = 5 + cv.saturating_sub(1);
                    let sweep_idx = off - sweep_base;
                    for env in inbox {
                        if matches!(env.msg, DetMsg::InForestMis)
                            && (Some(env.port) == self.forest_parent || self.in_children[env.port])
                        {
                            self.forest_covered = true;
                        }
                    }
                    if sweep_idx < 6 {
                        debug_assert!(self.cv_color < 6, "CV must have converged");
                        if !self.forest_covered
                            && !self.in_dominating
                            && self.cv_color == sweep_idx as u64
                        {
                            self.in_dominating = true; // joins via the forest MIS
                            ctx.broadcast(DetMsg::InForestMis);
                        }
                    } else {
                        // FINISH: forest nodes not in the dominating set are
                        // covered by a forest-MIS neighbor; they terminate.
                        if !self.in_dominating {
                            debug_assert!(
                                self.forest_covered,
                                "forest MIS must be maximal on the pointer forest"
                            );
                            ctx.commit_node(false);
                            ctx.broadcast(DetMsg::Gone);
                            ctx.halt();
                        }
                    }
                }
            }
        }
    }

    fn finisher_round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMsg>], off: usize) {
        match self.stage {
            DetStage::Iterating => unreachable!("finisher entered in Iterating stage"),
            DetStage::LinialColoring => {
                if off == 0 {
                    self.color = ctx.id() as u64;
                    self.linial_idx = 0;
                    ctx.broadcast(DetMsg::Color(self.color));
                    if self.sched.linial.is_empty() {
                        self.stage = DetStage::Sweep;
                    }
                    return;
                }
                // Apply one Linial step using the colors just received.
                let step = self.sched.linial[self.linial_idx];
                let nbr: Vec<u64> = inbox
                    .iter()
                    .filter_map(|env| match env.msg {
                        DetMsg::Color(c) => Some(c),
                        _ => None,
                    })
                    .collect();
                self.color = step.reduce(self.color, &nbr);
                self.linial_idx += 1;
                ctx.broadcast(DetMsg::Color(self.color));
                if self.linial_idx == self.sched.linial.len() {
                    self.stage = DetStage::Sweep;
                }
            }
            DetStage::Sweep => {
                // Record final neighbor colors (arriving one round after the
                // last Linial broadcast), then run local-minimum sweep.
                for env in inbox {
                    match env.msg {
                        DetMsg::Color(c) => self.nbr_color[env.port] = c,
                        DetMsg::SetJoined => {
                            ctx.commit_node(false);
                            ctx.broadcast(DetMsg::Gone);
                            ctx.halt();
                            return;
                        }
                        _ => {}
                    }
                }
                let local_min = ctx
                    .ports()
                    .filter(|&p| self.nbr_active[p])
                    .all(|p| self.nbr_color[p] > self.color);
                if local_min {
                    ctx.commit_node(true);
                    ctx.broadcast(DetMsg::SetJoined);
                    ctx.halt();
                } else {
                    // The colors are final, and only a message (a joined
                    // or departed neighbor) can change the verdict:
                    // sleep until one arrives (see `Ctx::sleep_until`).
                    ctx.sleep_until(Round::MAX);
                }
            }
        }
    }
}

impl Process for DetRuling {
    type Message = DetMsg;
    type NodeOutput = bool;
    type EdgeOutput = ();
    type Params = (DetRulingParams, usize); // (params, max_degree hint)

    const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

    fn init(params: &(DetRulingParams, usize), ctx: &mut Ctx<'_, Self>) -> Self {
        let mut sched = DetSchedule::new(ctx.n(), &params.0);
        sched.linial = linial_schedule(ctx.n().max(2) as u64, ctx.max_degree().max(1) as u64);
        let degree = ctx.degree();
        let mut state = DetRuling {
            sched,
            nbr_active: vec![true; degree],
            pointer_port: None,
            in_children: vec![false; degree],
            in_dominating: false,
            is_forest_node: false,
            forest_parent: None,
            cv_color: 0,
            forest_covered: false,
            stage: DetStage::Iterating,
            color: 0,
            nbr_color: vec![u64::MAX; degree],
            linial_idx: 0,
        };
        state.iteration_round(ctx, &[], 0);
        state
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<DetMsg>]) {
        self.prune(inbox);
        let total_iter_rounds = self.sched.iterations * self.sched.iter_len;
        let r = ctx.round();
        if r < total_iter_rounds {
            let off = r % self.sched.iter_len;
            self.iteration_round(ctx, inbox, off);
            if let Some(wake) = self.idle_until(off) {
                ctx.sleep_until(r - off + wake);
            }
        } else {
            if self.stage == DetStage::Iterating {
                self.stage = DetStage::LinialColoring;
            }
            self.finisher_round(ctx, inbox, r - total_iter_rounds);
        }
    }
}

/// Runs Theorem 3's deterministic ruling set (`"ruling/det"`) under
/// `spec`, reusing the arenas in `ws` (the seed is ignored).
///
/// Returns a (2, β)-ruling set with `β = 2 * params.iterations + 1`.
///
/// # Example
///
/// ```
/// use localavg_core::algo::{registry, RunSpec, Solution};
/// use localavg_graph::{analysis, gen};
///
/// let g = gen::grid(8, 8);
/// let det = registry().get("ruling/det").expect("registered");
/// let run = det.execute(&g, &RunSpec::new(0));
/// let Solution::RulingSet { in_set, beta } = &run.solution else {
///     panic!("ruling/det returns a ruling set");
/// };
/// // The default `log-delta` variant: T = 3⌈log₂ Δ⌉ + 1 = 7 at Δ = 4.
/// assert_eq!(*beta, 2 * 7 + 1);
/// assert!(analysis::is_ruling_set(&g, in_set, 2, *beta));
/// ```
pub(crate) fn deterministic(
    g: &Graph,
    spec: &RunSpec,
    params: DetRulingParams,
    ws: &mut Workspace,
) -> AlgoRun {
    let t = spec.run_in::<DetRuling>(g, &(params, g.max_degree()), ws);
    let in_set = t.node_labels();
    let beta = 2 * params.iterations + 1;
    let solution = Solution::RulingSet { in_set, beta };
    AlgoRun::new("ruling/det", g, t.into_erased(), solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ComplexityReport;
    use localavg_graph::{analysis, gen};

    fn two_two(g: &Graph, seed: u64) -> AlgoRun {
        super::two_two(g, &RunSpec::new(seed), &mut Workspace::new())
    }

    fn deterministic(g: &Graph, params: DetRulingParams) -> AlgoRun {
        super::deterministic(g, &RunSpec::new(0), params, &mut Workspace::new())
    }

    /// The ruling set and its β.
    fn ruled(run: &AlgoRun) -> (&[bool], usize) {
        match &run.solution {
            Solution::RulingSet { in_set, beta } => (in_set, *beta),
            other => panic!("not a ruling set: {other:?}"),
        }
    }

    #[test]
    fn two_two_on_standard_graphs() {
        for g in [
            gen::path(30),
            gen::cycle(31),
            gen::complete(10),
            gen::star(12),
            gen::grid(5, 6),
            gen::petersen(),
        ] {
            let run = two_two(&g, 3);
            assert!(
                analysis::is_ruling_set(&g, ruled(&run).0, 2, 2),
                "invalid (2,2)-ruling set"
            );
        }
    }

    #[test]
    fn two_two_on_random_graphs() {
        for seed in 0..5 {
            let mut rng = Rng::seed_from(seed);
            let g = gen::gnp(120, 0.05, &mut rng);
            let run = two_two(&g, seed * 11 + 1);
            assert!(analysis::is_ruling_set(&g, ruled(&run).0, 2, 2));
        }
    }

    #[test]
    fn two_two_is_congest() {
        let mut rng = Rng::seed_from(4);
        let g = gen::random_regular(100, 8, &mut rng).unwrap();
        let run = two_two(&g, 9);
        assert!(
            run.transcript
                .peak_message_bits()
                .expect("full-policy run is audited")
                <= 128
        );
    }

    #[test]
    fn two_two_node_averaged_is_small() {
        // Theorem 2: node-averaged complexity O(1) — even on high-degree
        // graphs, unlike MIS.
        let mut rng = Rng::seed_from(5);
        let g = gen::random_regular(512, 16, &mut rng).unwrap();
        let run = two_two(&g, 13);
        let report = ComplexityReport::from_run(&g, &run.transcript);
        assert!(
            report.node_averaged < 16.0,
            "node averaged = {}",
            report.node_averaged
        );
    }

    #[test]
    fn two_two_empty_and_singleton() {
        let g = Graph::empty(1);
        let run = two_two(&g, 1);
        assert_eq!(ruled(&run).0, [true]);
        let g0 = Graph::empty(0);
        let run0 = two_two(&g0, 1);
        assert!(ruled(&run0).0.is_empty());
    }

    #[test]
    fn deterministic_on_standard_graphs() {
        for g in [
            gen::path(40),
            gen::cycle(37),
            gen::star(15),
            gen::grid(6, 6),
            gen::petersen(),
            gen::binary_tree(31),
        ] {
            let params = DetRulingParams::for_log_delta(&g);
            let run = deterministic(&g, params);
            let (in_set, beta) = ruled(&run);
            assert!(
                analysis::is_ruling_set(&g, in_set, 2, beta),
                "invalid (2,{beta})-ruling set"
            );
        }
    }

    #[test]
    fn deterministic_on_random_graphs() {
        for seed in 0..3 {
            let mut rng = Rng::seed_from(seed + 100);
            let g = gen::gnp(90, 0.06, &mut rng);
            let run = deterministic(&g, DetRulingParams::for_log_delta(&g));
            let (in_set, beta) = ruled(&run);
            assert!(analysis::is_ruling_set(&g, in_set, 2, beta));
        }
    }

    #[test]
    fn deterministic_log_log_variant() {
        let mut rng = Rng::seed_from(42);
        let g = gen::random_regular(128, 4, &mut rng).unwrap();
        let params = DetRulingParams::for_log_log_n(&g);
        let run = deterministic(&g, params);
        let (in_set, beta) = ruled(&run);
        assert!(analysis::is_ruling_set(&g, in_set, 2, beta));
        // β = O(log log n), far below the log Δ variant on high-degree graphs.
        assert!(beta <= 2 * (3 * 3 + 1) + 1);
    }

    #[test]
    fn deterministic_is_reproducible() {
        let g = gen::grid(7, 7);
        let params = DetRulingParams::for_log_delta(&g);
        let a = deterministic(&g, params);
        let b = deterministic(&g, params);
        assert_eq!(a.solution, b.solution);
        assert_eq!(
            a.transcript.node_commit_round,
            b.transcript.node_commit_round
        );
    }

    #[test]
    fn deterministic_active_set_shrinks_fast() {
        // The halving claim: after T iterations few nodes remain undecided.
        let mut rng = Rng::seed_from(77);
        let g = gen::random_regular(256, 4, &mut rng).unwrap();
        let params = DetRulingParams::for_log_delta(&g);
        let run = deterministic(&g, params);
        let report = ComplexityReport::from_run(&g, &run.transcript);
        // Node-averaged must be much smaller than the worst case.
        assert!(
            report.node_averaged * 2.0 < report.rounds as f64,
            "node avg {} vs rounds {}",
            report.node_averaged,
            report.rounds
        );
    }

    #[test]
    fn params_scale_with_graph() {
        let small = gen::cycle(8);
        let big = gen::complete(64);
        assert!(
            DetRulingParams::for_log_delta(&small).iterations
                < DetRulingParams::for_log_delta(&big).iterations
        );
    }
}
