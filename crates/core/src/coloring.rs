//! Distributed coloring (paper §1.2 context + deterministic subroutines).
//!
//! * `"coloring/trial"` — the classic (Δ+1)-coloring by random color trials
//!   \[Lub93, Joh99\]: every uncolored node proposes a uniform color from
//!   its remaining palette and keeps it if no neighbor proposed the same.
//!   Every node succeeds with constant probability per attempt, so the
//!   node-averaged complexity is O(1) (§1.2) while the worst case is
//!   Θ(log n) whp — experiment E15 measures the separation.
//! * `"coloring/linial"` — Linial's O(log* n)-round coloring with O(Δ² log² Δ)
//!   colors, used as the deterministic symmetry-breaking workhorse by the
//!   ruling-set finisher and available standalone here.
//!
//! Both run through [`crate::algo::registry`]:
//!
//! ```
//! use localavg_core::algo::{registry, RunSpec};
//! use localavg_graph::{analysis, gen};
//!
//! let g = gen::grid(6, 6);
//! for name in ["coloring/trial", "coloring/linial"] {
//!     let run = registry().get(name).expect("registered").execute(&g, &RunSpec::new(4));
//!     let colors = run.solution.colors().expect("a coloring solution");
//!     assert!(analysis::is_proper_coloring(&g, colors));
//! }
//! ```

use crate::algo::{AlgoRun, Solution};
use crate::subroutines::{linial_schedule, LinialStep};
use localavg_graph::Graph;
use localavg_sim::prelude::*;

/// Wraps a finished coloring transcript into the run of `algorithm`.
fn coloring_run(algorithm: &'static str, g: &Graph, t: Transcript<u64, ()>) -> AlgoRun {
    let colors: Vec<usize> = t.node_labels().iter().map(|&c| c as usize).collect();
    AlgoRun::new(algorithm, g, t.into_erased(), Solution::Coloring { colors })
}

/// Messages of the random-trial process.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialMsg {
    /// Proposed color this attempt.
    Try(u64),
    /// Sender fixed this color permanently.
    Fixed(u64),
}

impl MessageSize for TrialMsg {
    fn size_bits(&self) -> usize {
        1 + 64
    }
}

/// Tuning parameters of the random-trial coloring (`"coloring/trial"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct TrialColoringParams {
    /// Extra palette slots beyond the guaranteed Δ+1: a larger palette
    /// lowers the per-attempt conflict probability at the cost of more
    /// colors. The paper's §1.2 algorithm uses 0.
    pub extra_colors: usize,
}

struct RandomTrial {
    forbidden: Vec<bool>,
    proposal: u64,
}

impl RandomTrial {
    fn propose(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<TrialMsg>]) {
        for env in inbox {
            if let TrialMsg::Fixed(c) = env.msg {
                self.forbidden[c as usize] = true;
            }
        }
        let palette: Vec<u64> = (0..self.forbidden.len() as u64)
            .filter(|&c| !self.forbidden[c as usize])
            .collect();
        debug_assert!(!palette.is_empty(), "palette Δ+1 never exhausts");
        self.proposal = *ctx.rng().choose(&palette);
        ctx.broadcast(TrialMsg::Try(self.proposal));
    }

    fn resolve(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<TrialMsg>]) {
        let conflict = inbox.iter().any(|env| match env.msg {
            TrialMsg::Try(c) => c == self.proposal && env.src > ctx.id(),
            TrialMsg::Fixed(c) => c == self.proposal,
        });
        // Also learn colors fixed by neighbors in this window.
        for env in inbox {
            if let TrialMsg::Fixed(c) = env.msg {
                self.forbidden[c as usize] = true;
            }
        }
        if !conflict && !self.forbidden[self.proposal as usize] {
            ctx.commit_node(self.proposal);
            ctx.broadcast(TrialMsg::Fixed(self.proposal));
            ctx.halt();
        }
    }
}

impl Process for RandomTrial {
    type Message = TrialMsg;
    type NodeOutput = u64;
    type EdgeOutput = ();
    type Params = TrialColoringParams;

    const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

    fn init(params: &TrialColoringParams, ctx: &mut Ctx<'_, Self>) -> Self {
        let mut state = RandomTrial {
            forbidden: vec![false; ctx.max_degree() + 1 + params.extra_colors],
            proposal: 0,
        };
        state.propose(ctx, &[]);
        state
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<TrialMsg>]) {
        if ctx.round() % 2 == 0 {
            self.propose(ctx, inbox);
        } else {
            self.resolve(ctx, inbox);
        }
    }
}

/// Runs the randomized (Δ+1)-coloring by color trials
/// (`"coloring/trial"`) under `spec`, reusing the arenas in `ws`.
///
/// # Example
///
/// ```
/// use localavg_core::algo::{registry, RunSpec};
/// use localavg_graph::{analysis, gen};
///
/// let g = gen::grid(6, 6);
/// let trial = registry().get("coloring/trial").expect("registered");
/// let run = trial.execute(&g, &RunSpec::new(4));
/// let colors = run.solution.colors().expect("a coloring solution");
/// assert!(analysis::is_proper_coloring(&g, colors));
/// assert!(colors.iter().all(|&c| c <= g.max_degree()));
/// ```
pub(crate) fn random_trial(
    g: &Graph,
    spec: &RunSpec,
    params: &TrialColoringParams,
    ws: &mut Workspace,
) -> AlgoRun {
    let t = spec.run_in::<RandomTrial>(g, params, ws);
    coloring_run("coloring/trial", g, t)
}

/// Messages of the Linial process: bare colors.
#[derive(Debug, Clone, PartialEq)]
pub struct ColorMsg(pub u64);

impl MessageSize for ColorMsg {
    fn size_bits(&self) -> usize {
        64
    }
}

struct LinialColoring {
    color: u64,
    schedule: Vec<LinialStep>,
    idx: usize,
}

impl Process for LinialColoring {
    type Message = ColorMsg;
    type NodeOutput = u64;
    type EdgeOutput = ();
    type Params = ();

    const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;

    fn init(_: &(), ctx: &mut Ctx<'_, Self>) -> Self {
        let schedule = linial_schedule(ctx.n().max(2) as u64, ctx.max_degree().max(1) as u64);
        let color = ctx.id() as u64;
        if schedule.is_empty() {
            ctx.commit_node(color);
            ctx.halt();
        } else {
            ctx.broadcast(ColorMsg(color));
        }
        LinialColoring {
            color,
            schedule,
            idx: 0,
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<ColorMsg>]) {
        let step = self.schedule[self.idx];
        let nbr: Vec<u64> = inbox.iter().map(|env| env.msg.0).collect();
        self.color = step.reduce(self.color, &nbr);
        self.idx += 1;
        if self.idx == self.schedule.len() {
            ctx.commit_node(self.color);
            ctx.halt();
        } else {
            ctx.broadcast(ColorMsg(self.color));
        }
    }
}

/// Runs Linial's deterministic O(log* n)-round coloring
/// (`"coloring/linial"`) under `spec`, reusing the arenas in `ws` (the
/// seed is ignored).
///
/// The palette size is O(Δ² log² Δ); the round count equals the length of
/// [`linial_schedule`] — a log*-type schedule all nodes derive from
/// `(n, Δ)`.
pub(crate) fn linial(g: &Graph, spec: &RunSpec, ws: &mut Workspace) -> AlgoRun {
    let t = spec.run_in::<LinialColoring>(g, &(), ws);
    coloring_run("coloring/linial", g, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ComplexityReport;
    use localavg_graph::{analysis, gen};

    fn random_trial(g: &Graph, seed: u64) -> AlgoRun {
        let params = TrialColoringParams::default();
        super::random_trial(g, &RunSpec::new(seed), &params, &mut Workspace::new())
    }

    fn linial(g: &Graph) -> AlgoRun {
        super::linial(g, &RunSpec::new(0), &mut Workspace::new())
    }

    fn colors(run: &AlgoRun) -> &[usize] {
        run.solution.colors().expect("a coloring solution")
    }

    #[test]
    fn random_trial_on_standard_graphs() {
        for g in [
            gen::path(30),
            gen::cycle(25),
            gen::complete(9),
            gen::star(13),
            gen::grid(5, 5),
            gen::petersen(),
        ] {
            let delta = g.max_degree();
            let run = random_trial(&g, 6);
            assert!(analysis::is_proper_coloring(&g, colors(&run)));
            assert!(colors(&run).iter().all(|&c| c <= delta));
        }
    }

    #[test]
    fn random_trial_node_averaged_constant() {
        let mut rng = Rng::seed_from(3);
        let g = gen::random_regular(400, 8, &mut rng).unwrap();
        let run = random_trial(&g, 10);
        let r = ComplexityReport::from_run(&g, &run.transcript);
        assert!(r.node_averaged < 12.0, "node avg {}", r.node_averaged);
    }

    #[test]
    fn linial_on_standard_graphs() {
        for g in [gen::cycle(64), gen::grid(8, 8), gen::petersen()] {
            let run = linial(&g);
            assert!(analysis::is_proper_coloring(&g, colors(&run)));
        }
    }

    #[test]
    fn linial_palette_much_smaller_than_n() {
        let mut rng = Rng::seed_from(5);
        let g = gen::random_regular(600, 4, &mut rng).unwrap();
        let run = linial(&g);
        assert!(analysis::is_proper_coloring(&g, colors(&run)));
        let max_color = *colors(&run).iter().max().unwrap();
        assert!(
            max_color < 600,
            "Linial should beat the trivial id coloring: {max_color}"
        );
        // Round count is a log*-type schedule: tiny.
        assert!(run.worst_case() <= 8);
    }

    #[test]
    fn linial_deterministic() {
        let g = gen::grid(6, 7);
        assert_eq!(linial(&g).solution, linial(&g).solution);
    }

    #[test]
    fn random_trial_extra_colors_widen_the_palette() {
        let mut rng = Rng::seed_from(9);
        let g = gen::random_regular(120, 4, &mut rng).unwrap();
        let run = super::random_trial(
            &g,
            &RunSpec::new(2),
            &TrialColoringParams { extra_colors: 8 },
            &mut Workspace::new(),
        );
        assert!(analysis::is_proper_coloring(&g, colors(&run)));
        // Colors stay within the widened palette Δ+1+extra.
        assert!(colors(&run).iter().all(|&c| c <= g.max_degree() + 8));
        // The widened palette changes the run (different proposals).
        let default = random_trial(&g, 2);
        assert_ne!(run.solution, default.solution);
    }

    #[test]
    fn random_trial_empty_graph() {
        let g = Graph::empty(3);
        let run = random_trial(&g, 1);
        assert_eq!(colors(&run).len(), 3);
        assert!(run.transcript.node_commit_round.iter().all(|&r| r <= 1));
    }
}
