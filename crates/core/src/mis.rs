//! Maximal independent set algorithms (paper §3.1).
//!
//! Three algorithms, matching the paper's discussion:
//!
//! * `"mis/luby"` — Luby's classic randomized MIS \[Lub86, ABI86\]. Removes a
//!   constant fraction of *edges* per iteration, so under the relaxed
//!   one-endpoint edge convention (footnote 2) its edge-averaged complexity
//!   is O(1); on constant-degree graphs its node-averaged complexity is
//!   O(1) too (§1.1). On the lower-bound graphs of §4 its node-averaged
//!   complexity must grow — Theorem 16 — which experiment E9 measures.
//! * `"mis/degree-guided"` — a desire-level algorithm in the style of
//!   Ghaffari \[Gha16\] / \[BYCHGS17\], whose per-node decision probability
//!   stays constant per O(log Δ)-phase; the paper cites it for the
//!   O(log Δ / log log Δ) node-averaged upper bound.
//! * `"mis/greedy"` — the deterministic local-minimum greedy baseline
//!   (every round, an undecided node with the smallest id in its undecided
//!   neighborhood joins).
//!
//! All three commit node labels (`true` = in the MIS) the moment they are
//! decided, which is exactly the `T_v` Definition 1 averages. They run
//! through [`crate::algo::registry`]:
//!
//! ```
//! use localavg_core::algo::{registry, RunSpec};
//! use localavg_graph::{analysis, gen, rng::Rng};
//!
//! let mut rng = Rng::seed_from(3);
//! let g = gen::random_regular(60, 4, &mut rng).expect("graph");
//! for name in ["mis/luby", "mis/degree-guided", "mis/greedy"] {
//!     let run = registry().get(name).expect("registered").execute(&g, &RunSpec::new(7));
//!     let in_set = run.solution.node_set().expect("an MIS solution");
//!     assert!(analysis::is_maximal_independent_set(&g, in_set));
//! }
//! ```

use crate::algo::{AlgoRun, Solution};
use localavg_graph::Graph;
use localavg_sim::prelude::*;

/// Wraps a finished MIS transcript into the run of `algorithm`.
fn mis_run(algorithm: &'static str, g: &Graph, t: Transcript<bool, ()>) -> AlgoRun {
    let in_set = t.node_labels();
    AlgoRun::new(algorithm, g, t.into_erased(), Solution::Mis { in_set })
}

/// Messages exchanged by the randomized MIS processes.
#[derive(Debug, Clone, PartialEq)]
pub enum MisMsg {
    /// "I marked myself (or not) this iteration; my current residual degree
    /// (Luby) or desire level (degree-guided) is attached."
    Mark {
        /// Whether the sender marked itself.
        marked: bool,
        /// Luby: residual degree. Degree-guided: desire level scaled by 2^32.
        weight: u64,
    },
    /// "I joined the MIS; you are covered."
    Join,
    /// "I left the graph (covered); update your residual degree."
    Removed,
}

impl MessageSize for MisMsg {
    fn size_bits(&self) -> usize {
        match self {
            MisMsg::Mark { .. } => 2 + 1 + 64,
            MisMsg::Join | MisMsg::Removed => 2,
        }
    }
}

// ---------------------------------------------------------------------------
// Luby's algorithm
// ---------------------------------------------------------------------------

/// Tuning parameters of Luby's MIS (`"mis/luby"`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LubyMisParams {
    /// Per-iteration mark probability numerator: an active node marks
    /// itself with probability `mark_factor / deg(v)`. The classic choice
    /// `1/(2 deg(v))` is `0.5`; must lie in `(0, 1]` so the probability
    /// is valid on every degree.
    pub mark_factor: f64,
}

impl Default for LubyMisParams {
    fn default() -> Self {
        LubyMisParams { mark_factor: 0.5 }
    }
}

/// Luby's MIS as a 3-round-per-iteration CONGEST process.
///
/// Iteration structure (phase = round mod 3):
/// * **mark**: update the residual degree from `Removed` messages; a node
///   whose residual degree reached 0 joins; otherwise mark with probability
///   `mark_factor/deg` (default `1/(2 deg)`) and announce the mark and the
///   degree.
/// * **join**: a marked node with no marked higher-priority neighbor
///   (priority = lexicographic (degree, id), as in Theorem 2's tie
///   breaking) joins the MIS and announces it.
/// * **cover**: neighbors of joiners commit `false`, announce `Removed`,
///   and terminate.
struct LubyMis {
    active_degree: usize,
    marked: bool,
    mark_factor: f64,
}

impl LubyMis {
    fn mark_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<MisMsg>]) {
        for env in inbox {
            if matches!(env.msg, MisMsg::Removed) {
                self.active_degree -= 1;
            }
        }
        if self.active_degree == 0 {
            ctx.commit_node(true);
            ctx.halt();
            return;
        }
        self.marked = ctx
            .rng()
            .chance(self.mark_factor / self.active_degree as f64);
        ctx.broadcast(MisMsg::Mark {
            marked: self.marked,
            weight: self.active_degree as u64,
        });
    }

    fn join_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<MisMsg>]) {
        if !self.marked {
            return;
        }
        let my_priority = (self.active_degree as u64, ctx.id() as u64);
        let beaten = inbox.iter().any(|env| match env.msg {
            MisMsg::Mark { marked, weight } => marked && (weight, env.src as u64) > my_priority,
            _ => false,
        });
        if !beaten {
            ctx.commit_node(true);
            ctx.broadcast(MisMsg::Join);
            ctx.halt();
        }
    }

    fn cover_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<MisMsg>]) {
        if inbox.iter().any(|env| matches!(env.msg, MisMsg::Join)) {
            ctx.commit_node(false);
            ctx.broadcast(MisMsg::Removed);
            ctx.halt();
        }
    }
}

impl Process for LubyMis {
    type Message = MisMsg;
    type NodeOutput = bool;
    type EdgeOutput = ();
    type Params = LubyMisParams;

    const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

    fn init(params: &LubyMisParams, ctx: &mut Ctx<'_, Self>) -> Self {
        let mut state = LubyMis {
            active_degree: ctx.degree(),
            marked: false,
            mark_factor: params.mark_factor,
        };
        state.mark_phase(ctx, &[]);
        state
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<MisMsg>]) {
        match ctx.round() % 3 {
            0 => self.mark_phase(ctx, inbox),
            1 => self.join_phase(ctx, inbox),
            _ => self.cover_phase(ctx, inbox),
        }
    }
}

/// Runs Luby's randomized MIS (`"mis/luby"`) under `spec`, reusing the
/// arenas in `ws`.
///
/// # Example
///
/// ```
/// use localavg_core::algo::{registry, RunSpec};
/// use localavg_graph::{analysis, gen, rng::Rng};
///
/// let mut rng = Rng::seed_from(3);
/// let g = gen::random_regular(60, 4, &mut rng).expect("graph");
/// let luby = registry().get("mis/luby").expect("registered");
/// let run = luby.execute(&g, &RunSpec::new(42));
/// let in_set = run.solution.node_set().expect("an MIS solution");
/// assert!(analysis::is_maximal_independent_set(&g, in_set));
/// ```
pub(crate) fn luby(
    g: &Graph,
    spec: &RunSpec,
    params: &LubyMisParams,
    ws: &mut Workspace,
) -> AlgoRun {
    mis_run("mis/luby", g, spec.run_in::<LubyMis>(g, params, ws))
}

// ---------------------------------------------------------------------------
// Degree-guided (Ghaffari-style) algorithm
// ---------------------------------------------------------------------------

const DESIRE_SCALE: f64 = (1u64 << 32) as f64;

/// Tuning parameters of the degree-guided MIS (`"mis/degree-guided"`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DegreeGuidedParams {
    /// Starting desire level `p_v` (and the cap desire levels double back
    /// up to). Ghaffari's choice is `1/2`; must lie in `(0, 0.5]`.
    pub initial_desire: f64,
    /// Neighborhood desire mass above which a node halves its desire
    /// level (`Σ p_u >= mass_threshold`). Ghaffari's choice is `2`; must
    /// be positive.
    pub mass_threshold: f64,
}

impl Default for DegreeGuidedParams {
    fn default() -> Self {
        DegreeGuidedParams {
            initial_desire: 0.5,
            mass_threshold: 2.0,
        }
    }
}

/// Ghaffari-style MIS: each node keeps a desire level `p_v` (starting at
/// `initial_desire`, default 1/2), marks itself with probability `p_v`,
/// joins when marked with no marked neighbor, and halves/doubles `p_v`
/// depending on the neighborhood desire mass (`Σ p_u >= mass_threshold`
/// halves, otherwise doubles up to 1/2).
struct DegreeGuidedMis {
    p: f64,
    active_degree: usize,
    marked: bool,
    neighbor_mass: f64,
    mass_threshold: f64,
}

impl DegreeGuidedMis {
    fn mark_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<MisMsg>]) {
        for env in inbox {
            if matches!(env.msg, MisMsg::Removed) {
                self.active_degree -= 1;
            }
        }
        if self.active_degree == 0 {
            ctx.commit_node(true);
            ctx.halt();
            return;
        }
        self.marked = ctx.rng().chance(self.p);
        ctx.broadcast(MisMsg::Mark {
            marked: self.marked,
            weight: (self.p * DESIRE_SCALE) as u64,
        });
    }

    fn join_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<MisMsg>]) {
        self.neighbor_mass = 0.0;
        let mut any_marked_neighbor = false;
        for env in inbox {
            if let MisMsg::Mark { marked, weight } = env.msg {
                any_marked_neighbor |= marked;
                self.neighbor_mass += weight as f64 / DESIRE_SCALE;
            }
        }
        if self.marked && !any_marked_neighbor {
            ctx.commit_node(true);
            ctx.broadcast(MisMsg::Join);
            ctx.halt();
        }
    }

    fn cover_phase(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<MisMsg>]) {
        if inbox.iter().any(|env| matches!(env.msg, MisMsg::Join)) {
            ctx.commit_node(false);
            ctx.broadcast(MisMsg::Removed);
            ctx.halt();
            return;
        }
        if self.neighbor_mass >= self.mass_threshold {
            self.p /= 2.0;
        } else {
            self.p = (2.0 * self.p).min(0.5);
        }
    }
}

impl Process for DegreeGuidedMis {
    type Message = MisMsg;
    type NodeOutput = bool;
    type EdgeOutput = ();
    type Params = DegreeGuidedParams;

    const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

    fn init(params: &DegreeGuidedParams, ctx: &mut Ctx<'_, Self>) -> Self {
        let mut state = DegreeGuidedMis {
            p: params.initial_desire,
            active_degree: ctx.degree(),
            marked: false,
            neighbor_mass: 0.0,
            mass_threshold: params.mass_threshold,
        };
        state.mark_phase(ctx, &[]);
        state
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<MisMsg>]) {
        match ctx.round() % 3 {
            0 => self.mark_phase(ctx, inbox),
            1 => self.join_phase(ctx, inbox),
            _ => self.cover_phase(ctx, inbox),
        }
    }
}

/// Runs the degree-guided (Ghaffari-style) randomized MIS
/// (`"mis/degree-guided"`) under `spec`, reusing the arenas in `ws`.
pub(crate) fn degree_guided(
    g: &Graph,
    spec: &RunSpec,
    params: &DegreeGuidedParams,
    ws: &mut Workspace,
) -> AlgoRun {
    let t = spec.run_in::<DegreeGuidedMis>(g, params, ws);
    mis_run("mis/degree-guided", g, t)
}

// ---------------------------------------------------------------------------
// Deterministic greedy baseline
// ---------------------------------------------------------------------------

/// Messages of the greedy process: join/leave announcements only.
#[derive(Debug, Clone, PartialEq)]
pub enum GreedyMsg {
    /// Sender joined the MIS.
    Joined,
    /// Sender committed `false` (covered) and left.
    Out,
}

impl MessageSize for GreedyMsg {
    fn size_bits(&self) -> usize {
        1
    }
}

struct GreedyMis {
    nbr_undecided: Vec<bool>,
}

impl GreedyMis {
    fn try_join(&mut self, ctx: &mut Ctx<'_, Self>) {
        let me = ctx.id();
        let is_local_min = ctx
            .ports()
            .all(|port| !self.nbr_undecided[port] || ctx.neighbor_id(port) > me);
        if is_local_min {
            ctx.commit_node(true);
            ctx.broadcast(GreedyMsg::Joined);
            ctx.halt();
        }
    }
}

impl Process for GreedyMis {
    type Message = GreedyMsg;
    type NodeOutput = bool;
    type EdgeOutput = ();
    type Params = ();

    const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

    fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
        let mut state = GreedyMis {
            nbr_undecided: vec![true; ctx.degree()],
        };
        state.try_join(ctx);
        state
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<GreedyMsg>]) {
        for env in inbox {
            match env.msg {
                GreedyMsg::Joined => {
                    ctx.commit_node(false);
                    ctx.broadcast(GreedyMsg::Out);
                    ctx.halt();
                    return;
                }
                GreedyMsg::Out => self.nbr_undecided[env.port] = false,
            }
        }
        self.try_join(ctx);
    }
}

/// Runs the deterministic greedy-by-id MIS baseline (`"mis/greedy"`)
/// under `spec`, reusing the arenas in `ws` (the seed is ignored).
pub(crate) fn greedy_by_id(g: &Graph, spec: &RunSpec, ws: &mut Workspace) -> AlgoRun {
    mis_run("mis/greedy", g, spec.run_in::<GreedyMis>(g, &(), ws))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ComplexityReport;
    use localavg_graph::{analysis, gen};

    fn luby(g: &Graph, seed: u64) -> AlgoRun {
        let params = LubyMisParams::default();
        super::luby(g, &RunSpec::new(seed), &params, &mut Workspace::new())
    }

    fn degree_guided(g: &Graph, seed: u64) -> AlgoRun {
        let params = DegreeGuidedParams::default();
        super::degree_guided(g, &RunSpec::new(seed), &params, &mut Workspace::new())
    }

    fn greedy_by_id(g: &Graph) -> AlgoRun {
        super::greedy_by_id(g, &RunSpec::new(0), &mut Workspace::new())
    }

    fn in_set(run: &AlgoRun) -> &[bool] {
        run.solution.node_set().expect("an MIS solution")
    }

    fn check_valid(g: &Graph, run: &AlgoRun) {
        assert!(
            analysis::is_maximal_independent_set(g, in_set(run)),
            "invalid MIS"
        );
        assert!(run.transcript.all_nodes_committed());
    }

    #[test]
    fn luby_on_standard_graphs() {
        for (name, g) in [
            ("path", gen::path(40)),
            ("cycle", gen::cycle(41)),
            ("complete", gen::complete(12)),
            ("star", gen::star(20)),
            ("grid", gen::grid(6, 7)),
            ("petersen", gen::petersen()),
        ] {
            let run = luby(&g, 7);
            check_valid(&g, &run);
            let _ = name;
        }
    }

    #[test]
    fn luby_isolated_nodes_join_at_round_zero() {
        let g = Graph::empty(5);
        let run = luby(&g, 1);
        assert!(in_set(&run).iter().all(|&b| b));
        assert!(run.transcript.node_commit_round.iter().all(|&r| r == 0));
    }

    #[test]
    fn luby_different_seeds_differ() {
        let mut rng = Rng::seed_from(5);
        let g = gen::random_regular(80, 6, &mut rng).unwrap();
        let a = luby(&g, 1);
        let b = luby(&g, 2);
        check_valid(&g, &a);
        check_valid(&g, &b);
        assert_ne!(in_set(&a), in_set(&b), "almost surely different MIS");
    }

    #[test]
    fn luby_is_congest() {
        let mut rng = Rng::seed_from(6);
        let g = gen::gnp(100, 0.08, &mut rng);
        let run = luby(&g, 3);
        check_valid(&g, &run);
        assert!(
            run.transcript
                .peak_message_bits()
                .expect("full-policy run is audited")
                <= 128
        );
    }

    #[test]
    fn luby_node_averaged_small_on_constant_degree() {
        let mut rng = Rng::seed_from(8);
        let g = gen::random_regular(400, 4, &mut rng).unwrap();
        let run = luby(&g, 11);
        check_valid(&g, &run);
        let report = ComplexityReport::from_run(&g, &run.transcript);
        // O(1) node-averaged on constant degree: generous bound.
        assert!(
            report.node_averaged < 20.0,
            "node averaged {}",
            report.node_averaged
        );
        // Relaxed edge average is even smaller in expectation.
        assert!(report.edge_averaged_one_endpoint <= report.edge_averaged + 1e-9);
    }

    #[test]
    fn degree_guided_on_standard_graphs() {
        for g in [
            gen::path(30),
            gen::cycle(33),
            gen::complete(10),
            gen::star(16),
            gen::hypercube(4),
        ] {
            let run = degree_guided(&g, 9);
            check_valid(&g, &run);
        }
    }

    #[test]
    fn degree_guided_on_random_graph() {
        let mut rng = Rng::seed_from(10);
        let g = gen::gnp(150, 0.05, &mut rng);
        let run = degree_guided(&g, 4);
        check_valid(&g, &run);
    }

    #[test]
    fn greedy_matches_sequential_greedy() {
        // Greedy-by-id equals the sequential greedy that scans ids in order.
        let mut rng = Rng::seed_from(12);
        let g = gen::gnp(60, 0.1, &mut rng);
        let run = greedy_by_id(&g);
        check_valid(&g, &run);
        let mut expect = vec![false; g.n()];
        for v in g.nodes() {
            if g.neighbor_ids(v).all(|u| u > v || !expect[u]) {
                expect[v] = true;
            }
        }
        assert_eq!(in_set(&run), &expect[..]);
    }

    #[test]
    fn greedy_on_path_takes_linear_rounds_in_worst_case() {
        // Path with increasing ids: node 0 joins first, then a wave.
        let g = gen::path(30);
        let run = greedy_by_id(&g);
        check_valid(&g, &run);
        assert!(run.worst_case() >= 10, "adversarial id order is slow");
    }

    #[test]
    fn parallel_executor_agrees_with_sequential() {
        let mut rng = Rng::seed_from(14);
        let g = gen::random_regular(300, 6, &mut rng).unwrap();
        let spec = RunSpec::new(77);
        let params = LubyMisParams::default();
        let seq = spec.run_in::<LubyMis>(&g, &params, &mut Workspace::new());
        let par = spec
            .with_exec(Exec::Parallel { threads: 4 })
            .run_in::<LubyMis>(&g, &params, &mut Workspace::new());
        assert_eq!(seq.node_output, par.node_output);
        assert_eq!(seq.node_commit_round, par.node_commit_round);
    }

    #[test]
    fn luby_mark_factor_changes_the_run_but_stays_valid() {
        let mut rng = Rng::seed_from(30);
        let g = gen::random_regular(200, 4, &mut rng).unwrap();
        let default = luby(&g, 5);
        let aggressive = super::luby(
            &g,
            &RunSpec::new(5),
            &LubyMisParams { mark_factor: 1.0 },
            &mut Workspace::new(),
        );
        check_valid(&g, &aggressive);
        assert_ne!(
            default.transcript.node_commit_round, aggressive.transcript.node_commit_round,
            "doubling the mark probability should change the schedule"
        );
    }

    #[test]
    fn degree_guided_params_change_the_run_but_stay_valid() {
        let mut rng = Rng::seed_from(31);
        let g = gen::random_regular(200, 6, &mut rng).unwrap();
        let default = degree_guided(&g, 4);
        let cautious = super::degree_guided(
            &g,
            &RunSpec::new(4),
            &DegreeGuidedParams {
                initial_desire: 0.25,
                mass_threshold: 1.0,
            },
            &mut Workspace::new(),
        );
        check_valid(&g, &cautious);
        assert_ne!(
            default.transcript.node_commit_round,
            cautious.transcript.node_commit_round
        );
    }

    #[test]
    fn luby_edge_averaged_one_endpoint_constant() {
        // Footnote 2 / §3.1: Luby halves the edges each iteration, so the
        // one-endpoint edge-averaged complexity is O(1) on any graph.
        let mut rng = Rng::seed_from(20);
        let g = gen::gnp(300, 0.03, &mut rng);
        let run = luby(&g, 5);
        let report = ComplexityReport::from_run(&g, &run.transcript);
        assert!(
            report.edge_averaged_one_endpoint < 15.0,
            "edge-averaged (one endpoint) = {}",
            report.edge_averaged_one_endpoint
        );
    }
}
