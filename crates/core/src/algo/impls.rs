//! [`Algorithm`] implementations for every family in the workspace.
//!
//! Each implementation is a zero-sized unit struct wrapping the family
//! module's crate-private runner, named after the algorithm (`mis::luby`,
//! `treerc::mis`, ...), which returns the unified [`AlgoRun`] directly.
//! These wrappers (reached through [`super::registry`]) are the only
//! public way to run an algorithm.
//!
//! Algorithms with tuning knobs declare them as [`ParamSpec`]s and
//! validate string assignments in `set_param` — that is what
//! `DynAlgorithm::with_params` (and `exp --param family/name:key=value`)
//! dispatches through. Defaults are always the paper's constants, so a
//! parameterless run is byte-identical to the pre-parameter engine.

use super::{AlgoRun, Algorithm, ParamError, ParamSpec, Problem, RunSpec, Workspace};
use crate::coloring::TrialColoringParams;
use crate::matching::LubyMatchParams;
use crate::mis::{DegreeGuidedParams, LubyMisParams};
use crate::orientation::{DetOrientParams, RandOrientParams};
use crate::ruling::DetRulingParams;
use crate::{coloring, matching, mis, orientation, ruling, treerc};
use localavg_graph::decomp::NotATree;
use localavg_graph::Graph;

/// Parses a float parameter in `(0, hi]`.
fn parse_unit_factor(
    algorithm: &'static str,
    key: &str,
    value: &str,
    hi: f64,
    expected: &'static str,
) -> Result<f64, ParamError> {
    value
        .parse::<f64>()
        .ok()
        .filter(|f| f.is_finite() && *f > 0.0 && *f <= hi)
        .ok_or_else(|| ParamError::invalid(algorithm, key, value, expected))
}

/// Parses an unsigned integer parameter with a lower bound.
fn parse_count(
    algorithm: &'static str,
    key: &str,
    value: &str,
    min: usize,
    expected: &'static str,
) -> Result<usize, ParamError> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&v| v >= min)
        .ok_or_else(|| ParamError::invalid(algorithm, key, value, expected))
}

/// Luby's randomized MIS (`"mis/luby"`, §3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct MisLuby;

impl Algorithm for MisLuby {
    type Params = LubyMisParams;

    fn name(&self) -> &'static str {
        "mis/luby"
    }

    fn problem(&self) -> Problem {
        Problem::Mis
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        params: &LubyMisParams,
        ws: &mut Workspace,
    ) -> AlgoRun {
        mis::luby(g, spec, params, ws)
    }

    fn param_specs(&self) -> &'static [ParamSpec] {
        &[ParamSpec {
            key: "mark-factor",
            default: "0.5",
            doc: "mark probability numerator, p_v = mark-factor/deg(v); a float in (0, 1]",
        }]
    }

    fn set_param(
        &self,
        params: &mut LubyMisParams,
        key: &str,
        value: &str,
    ) -> Result<(), ParamError> {
        match key {
            "mark-factor" => {
                params.mark_factor =
                    parse_unit_factor(self.name(), key, value, 1.0, "a float in (0, 1]")?;
                Ok(())
            }
            _ => Err(ParamError::unknown_key(
                self.name(),
                key,
                self.param_specs(),
            )),
        }
    }
}

/// Ghaffari-style degree-guided MIS (`"mis/degree-guided"`, §3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct MisDegreeGuided;

impl Algorithm for MisDegreeGuided {
    type Params = DegreeGuidedParams;

    fn name(&self) -> &'static str {
        "mis/degree-guided"
    }

    fn problem(&self) -> Problem {
        Problem::Mis
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        params: &DegreeGuidedParams,
        ws: &mut Workspace,
    ) -> AlgoRun {
        mis::degree_guided(g, spec, params, ws)
    }

    fn param_specs(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "initial-desire",
                default: "0.5",
                doc: "starting desire level p_v; a float in (0, 0.5]",
            },
            ParamSpec {
                key: "mass-threshold",
                default: "2.0",
                doc: "neighborhood desire mass above which p_v halves; a positive float",
            },
        ]
    }

    fn set_param(
        &self,
        params: &mut DegreeGuidedParams,
        key: &str,
        value: &str,
    ) -> Result<(), ParamError> {
        match key {
            "initial-desire" => {
                params.initial_desire =
                    parse_unit_factor(self.name(), key, value, 0.5, "a float in (0, 0.5]")?;
                Ok(())
            }
            "mass-threshold" => {
                params.mass_threshold =
                    parse_unit_factor(self.name(), key, value, f64::INFINITY, "a positive float")?;
                Ok(())
            }
            _ => Err(ParamError::unknown_key(
                self.name(),
                key,
                self.param_specs(),
            )),
        }
    }
}

/// Deterministic greedy-by-id MIS baseline (`"mis/greedy"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MisGreedy;

impl Algorithm for MisGreedy {
    type Params = ();

    fn name(&self) -> &'static str {
        "mis/greedy"
    }

    fn problem(&self) -> Problem {
        Problem::Mis
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        _params: &(),
        ws: &mut Workspace,
    ) -> AlgoRun {
        mis::greedy_by_id(g, spec, ws)
    }
}

/// Theorem 2's randomized (2,2)-ruling set (`"ruling/two-two"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RulingTwoTwo;

impl Algorithm for RulingTwoTwo {
    type Params = ();

    fn name(&self) -> &'static str {
        "ruling/two-two"
    }

    fn problem(&self) -> Problem {
        Problem::RulingSet
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        _params: &(),
        ws: &mut Workspace,
    ) -> AlgoRun {
        ruling::two_two(g, spec, ws)
    }
}

/// How `"ruling/det"` chooses Theorem 3's iteration count. The
/// graph-dependent variants are resolved against the input graph inside
/// `execute_with_in`, which is what lets `Default` stay graph-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetRulingSpec {
    /// Theorem 3's (2, O(log Δ)) variant (the default).
    #[default]
    LogDelta,
    /// Theorem 3's (2, O(log log n)) variant.
    LogLogN,
    /// Explicit iteration count.
    Fixed(DetRulingParams),
}

impl DetRulingSpec {
    /// Resolves the spec to concrete parameters for `g`.
    pub fn resolve(&self, g: &Graph) -> DetRulingParams {
        match self {
            DetRulingSpec::LogDelta => DetRulingParams::for_log_delta(g),
            DetRulingSpec::LogLogN => DetRulingParams::for_log_log_n(g),
            DetRulingSpec::Fixed(p) => *p,
        }
    }
}

/// Theorem 3's deterministic (2,β)-ruling set (`"ruling/det"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RulingDet;

impl Algorithm for RulingDet {
    type Params = DetRulingSpec;

    fn name(&self) -> &'static str {
        "ruling/det"
    }

    fn problem(&self) -> Problem {
        Problem::RulingSet
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        params: &DetRulingSpec,
        ws: &mut Workspace,
    ) -> AlgoRun {
        ruling::deterministic(g, spec, params.resolve(g), ws)
    }

    fn param_specs(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "variant",
                default: "log-delta",
                doc: "iteration policy: `log-delta` (Theorem 3a) or `log-log-n` (Theorem 3b)",
            },
            ParamSpec {
                key: "iterations",
                default: "(variant)",
                doc: "fixed halving-iteration count T (yields a (2, 2T+1)-ruling set); an integer >= 1",
            },
        ]
    }

    fn set_param(
        &self,
        params: &mut DetRulingSpec,
        key: &str,
        value: &str,
    ) -> Result<(), ParamError> {
        // `variant` and `iterations` both choose the whole spec; a
        // silent overwrite would make repeated --param flags
        // order-dependent, so contradictory pairs are rejected.
        match key {
            "variant" => {
                if matches!(params, DetRulingSpec::Fixed(_)) {
                    return Err(ParamError::invalid(
                        self.name(),
                        key,
                        value,
                        "no `variant` on top of an explicit `iterations` \
                         (the two are mutually exclusive)",
                    ));
                }
                *params = match value {
                    "log-delta" => DetRulingSpec::LogDelta,
                    "log-log-n" => DetRulingSpec::LogLogN,
                    _ => {
                        return Err(ParamError::invalid(
                            self.name(),
                            key,
                            value,
                            "`log-delta` or `log-log-n`",
                        ))
                    }
                };
                Ok(())
            }
            "iterations" => {
                if matches!(params, DetRulingSpec::LogLogN) {
                    return Err(ParamError::invalid(
                        self.name(),
                        key,
                        value,
                        "no `iterations` on top of an explicit `variant` \
                         (the two are mutually exclusive)",
                    ));
                }
                let iterations = parse_count(self.name(), key, value, 1, "an integer >= 1")?;
                *params = DetRulingSpec::Fixed(DetRulingParams { iterations });
                Ok(())
            }
            _ => Err(ParamError::unknown_key(
                self.name(),
                key,
                self.param_specs(),
            )),
        }
    }
}

/// Theorem 4's randomized maximal matching (`"matching/luby"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchingLuby;

impl Algorithm for MatchingLuby {
    type Params = LubyMatchParams;

    fn name(&self) -> &'static str {
        "matching/luby"
    }

    fn problem(&self) -> Problem {
        Problem::MaximalMatching
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        params: &LubyMatchParams,
        ws: &mut Workspace,
    ) -> AlgoRun {
        matching::luby(g, spec, params, ws)
    }

    fn param_specs(&self) -> &'static [ParamSpec] {
        &[ParamSpec {
            key: "mark-factor",
            default: "0.25",
            doc: "edge-mark probability numerator, p_e = mark-factor/(d_u+d_v); a float in (0, 1]",
        }]
    }

    fn set_param(
        &self,
        params: &mut LubyMatchParams,
        key: &str,
        value: &str,
    ) -> Result<(), ParamError> {
        match key {
            "mark-factor" => {
                params.mark_factor =
                    parse_unit_factor(self.name(), key, value, 1.0, "a float in (0, 1]")?;
                Ok(())
            }
            _ => Err(ParamError::unknown_key(
                self.name(),
                key,
                self.param_specs(),
            )),
        }
    }
}

/// Theorem 5's deterministic maximal matching (`"matching/det"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchingDet;

impl Algorithm for MatchingDet {
    type Params = ();

    fn name(&self) -> &'static str {
        "matching/det"
    }

    fn problem(&self) -> Problem {
        Problem::MaximalMatching
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        _params: &(),
        ws: &mut Workspace,
    ) -> AlgoRun {
        matching::deterministic(g, spec, ws)
    }
}

/// Deterministic proposal-matching baseline (`"matching/greedy"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchingGreedy;

impl Algorithm for MatchingGreedy {
    type Params = ();

    fn name(&self) -> &'static str {
        "matching/greedy"
    }

    fn problem(&self) -> Problem {
        Problem::MaximalMatching
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        _params: &(),
        ws: &mut Workspace,
    ) -> AlgoRun {
        matching::greedy(g, spec, ws)
    }
}

/// Randomized sinkless orientation (`"orientation/rand"`, \[GS17a\]-style).
#[derive(Debug, Clone, Copy, Default)]
pub struct OrientationRand;

impl Algorithm for OrientationRand {
    type Params = RandOrientParams;

    fn name(&self) -> &'static str {
        "orientation/rand"
    }

    fn problem(&self) -> Problem {
        Problem::SinklessOrientation
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        params: &RandOrientParams,
        ws: &mut Workspace,
    ) -> AlgoRun {
        orientation::randomized(g, spec, params, ws)
    }

    fn param_specs(&self) -> &'static [ParamSpec] {
        &[ParamSpec {
            key: "contest-iterations",
            default: "8",
            doc: "proposal-contest iterations before the structural finisher; an integer >= 1",
        }]
    }

    fn set_param(
        &self,
        params: &mut RandOrientParams,
        key: &str,
        value: &str,
    ) -> Result<(), ParamError> {
        match key {
            "contest-iterations" => {
                params.contest_iterations =
                    parse_count(self.name(), key, value, 1, "an integer >= 1")?;
                Ok(())
            }
            _ => Err(ParamError::unknown_key(
                self.name(),
                key,
                self.param_specs(),
            )),
        }
    }
}

/// Theorem 6's deterministic sinkless orientation (`"orientation/det"`).
///
/// The transcript is assembled structurally (no round engine), so
/// `spec.exec` and the workspace have no effect on this algorithm; the
/// transcript policy only decides whether the (silent) CONGEST audit
/// columns are stamped.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrientationDet;

impl Algorithm for OrientationDet {
    type Params = DetOrientParams;

    fn name(&self) -> &'static str {
        "orientation/det"
    }

    fn problem(&self) -> Problem {
        Problem::SinklessOrientation
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        params: &DetOrientParams,
        _ws: &mut Workspace,
    ) -> AlgoRun {
        orientation::deterministic(g, *params, spec.transcript)
    }

    fn param_specs(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "r",
                default: "2",
                doc: "the paper's constant r (short cycles of <= 6r + 1 vedges, cluster radius 2r+1); an integer >= 2",
            },
            ParamSpec {
                key: "finish-threshold",
                default: "48",
                doc: "virtual graphs at most this large go straight to the ball-growing finisher; an integer >= 4",
            },
            ParamSpec {
                key: "max-depth",
                default: "12",
                doc: "hard cap on contraction-recursion depth; an integer >= 1",
            },
        ]
    }

    fn set_param(
        &self,
        params: &mut DetOrientParams,
        key: &str,
        value: &str,
    ) -> Result<(), ParamError> {
        match key {
            "r" => {
                params.r = parse_count(self.name(), key, value, 2, "an integer >= 2")?;
                Ok(())
            }
            "finish-threshold" => {
                params.finish_threshold =
                    parse_count(self.name(), key, value, 4, "an integer >= 4")?;
                Ok(())
            }
            "max-depth" => {
                params.max_depth = parse_count(self.name(), key, value, 1, "an integer >= 1")?;
                Ok(())
            }
            _ => Err(ParamError::unknown_key(
                self.name(),
                key,
                self.param_specs(),
            )),
        }
    }
}

/// Randomized (Δ+1)-coloring by color trials (`"coloring/trial"`, §1.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct ColoringTrial;

impl Algorithm for ColoringTrial {
    type Params = TrialColoringParams;

    fn name(&self) -> &'static str {
        "coloring/trial"
    }

    fn problem(&self) -> Problem {
        Problem::Coloring
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        params: &TrialColoringParams,
        ws: &mut Workspace,
    ) -> AlgoRun {
        coloring::random_trial(g, spec, params, ws)
    }

    fn param_specs(&self) -> &'static [ParamSpec] {
        &[ParamSpec {
            key: "extra-colors",
            default: "0",
            doc: "palette slots beyond the guaranteed Δ+1; a non-negative integer",
        }]
    }

    fn set_param(
        &self,
        params: &mut TrialColoringParams,
        key: &str,
        value: &str,
    ) -> Result<(), ParamError> {
        match key {
            "extra-colors" => {
                params.extra_colors =
                    parse_count(self.name(), key, value, 0, "a non-negative integer")?;
                Ok(())
            }
            _ => Err(ParamError::unknown_key(
                self.name(),
                key,
                self.param_specs(),
            )),
        }
    }
}

/// Linial's deterministic O(log* n) coloring (`"coloring/linial"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ColoringLinial;

impl Algorithm for ColoringLinial {
    type Params = ();

    fn name(&self) -> &'static str {
        "coloring/linial"
    }

    fn problem(&self) -> Problem {
        Problem::Coloring
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        _params: &(),
        ws: &mut Workspace,
    ) -> AlgoRun {
        coloring::linial(g, spec, ws)
    }
}

/// Panic message shared by the `*/tree-rc` wrappers when the tree-domain
/// filters were bypassed and a cyclic graph reached a tree algorithm.
fn expect_tree(name: &'static str, result: Result<AlgoRun, NotATree>) -> AlgoRun {
    result.unwrap_or_else(|e| {
        panic!(
            "{name} is restricted to forests but was handed a cyclic graph ({e}); \
             sweep/fuzz domain filters only pair `*/tree-rc` with tree generators — \
             pick a `tree/*` (or `path`) family when forcing this algorithm by hand"
        )
    })
}

/// Rake-and-compress greedy MIS on forests (`"mis/tree-rc"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MisTreeRc;

impl Algorithm for MisTreeRc {
    type Params = ();

    fn name(&self) -> &'static str {
        "mis/tree-rc"
    }

    fn problem(&self) -> Problem {
        Problem::Mis
    }

    fn requires_tree(&self) -> bool {
        true
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        _params: &(),
        ws: &mut Workspace,
    ) -> AlgoRun {
        expect_tree(self.name(), treerc::mis(g, spec, ws))
    }
}

/// Rake-and-compress (2,2)-ruling set on forests (`"ruling/tree-rc"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RulingTreeRc;

impl Algorithm for RulingTreeRc {
    type Params = ();

    fn name(&self) -> &'static str {
        "ruling/tree-rc"
    }

    fn problem(&self) -> Problem {
        Problem::RulingSet
    }

    fn requires_tree(&self) -> bool {
        true
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        _params: &(),
        ws: &mut Workspace,
    ) -> AlgoRun {
        expect_tree(self.name(), treerc::ruling(g, spec, ws))
    }
}

/// Rake-and-compress 3-coloring on forests (`"coloring/tree-rc"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ColoringTreeRc;

impl Algorithm for ColoringTreeRc {
    type Params = ();

    fn name(&self) -> &'static str {
        "coloring/tree-rc"
    }

    fn problem(&self) -> Problem {
        Problem::Coloring
    }

    fn requires_tree(&self) -> bool {
        true
    }

    fn execute_with_in(
        &self,
        g: &Graph,
        spec: &RunSpec,
        _params: &(),
        ws: &mut Workspace,
    ) -> AlgoRun {
        expect_tree(self.name(), treerc::coloring(g, spec, ws))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{registry, DynAlgorithm, Solution};
    use localavg_graph::gen;
    use localavg_graph::rng::Rng;

    #[test]
    fn det_ruling_spec_variants_resolve() {
        let g = gen::grid(6, 6);
        let spec = DetRulingSpec::default();
        assert_eq!(spec, DetRulingSpec::LogDelta);
        assert_eq!(spec.resolve(&g), DetRulingParams::for_log_delta(&g));
        assert_eq!(
            DetRulingSpec::LogLogN.resolve(&g),
            DetRulingParams::for_log_log_n(&g)
        );
        let fixed = DetRulingParams { iterations: 4 };
        assert_eq!(DetRulingSpec::Fixed(fixed).resolve(&g), fixed);
    }

    #[test]
    fn ruling_det_beta_tracks_spec() {
        let g = gen::grid(5, 5);
        let run = RulingDet.execute_with(
            &g,
            &RunSpec::new(0),
            &DetRulingSpec::Fixed(DetRulingParams { iterations: 3 }),
        );
        match run.solution {
            Solution::RulingSet { beta, .. } => assert_eq!(beta, 7),
            ref other => panic!("wrong solution kind: {other:?}"),
        }
        run.verify(&g).expect("valid ruling set");
    }

    #[test]
    fn deterministic_flags_match_seed_behavior() {
        let mut rng = Rng::seed_from(4);
        let g = gen::random_regular(40, 4, &mut rng).unwrap();
        for algo in crate::algo::registry().iter() {
            if algo.problem().min_degree() > g.min_degree() || !algo.deterministic() {
                continue;
            }
            let a = algo.execute(&g, &RunSpec::new(1));
            let b = algo.execute(&g, &RunSpec::new(99));
            assert_eq!(
                a.solution,
                b.solution,
                "{} claims determinism but depends on the seed",
                algo.name()
            );
        }
    }

    #[test]
    fn orientation_algorithms_run_on_cubic_graph() {
        let mut rng = Rng::seed_from(7);
        let g = gen::random_regular(32, 3, &mut rng).unwrap();
        for name in ["orientation/rand", "orientation/det"] {
            let run = crate::algo::registry()
                .get(name)
                .unwrap()
                .execute(&g, &RunSpec::new(2));
            run.verify(&g).expect("sinkless");
        }
    }

    #[test]
    fn string_params_configure_every_declared_key() {
        // Every declared (key, default-compatible value) round-trips
        // through with_params and still produces a verifying run.
        let mut rng = Rng::seed_from(11);
        let g = gen::random_regular(48, 4, &mut rng).unwrap();
        let assignments: &[(&str, &[(&str, &str)])] = &[
            ("mis/luby", &[("mark-factor", "0.3")]),
            (
                "mis/degree-guided",
                &[("initial-desire", "0.25"), ("mass-threshold", "1.5")],
            ),
            ("ruling/det", &[("variant", "log-log-n")]),
            ("ruling/det", &[("iterations", "2")]),
            ("matching/luby", &[("mark-factor", "0.5")]),
            ("coloring/trial", &[("extra-colors", "3")]),
        ];
        for (name, kvs) in assignments {
            let algo = registry()
                .get(name)
                .unwrap()
                .with_params(kvs)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(algo.name(), *name);
            let run = algo.execute(&g, &RunSpec::new(3));
            run.verify(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn ruling_det_iterations_param_sets_beta() {
        let g = gen::grid(5, 5);
        let algo = registry()
            .get("ruling/det")
            .unwrap()
            .with_params(&[("iterations", "3")])
            .unwrap();
        let run = algo.execute(&g, &RunSpec::new(0));
        match run.solution {
            Solution::RulingSet { beta, .. } => assert_eq!(beta, 7),
            ref other => panic!("wrong solution kind: {other:?}"),
        }
    }

    /// `expect_err` needs `T: Debug`, which trait-object boxes lack.
    fn param_err(result: Result<Box<dyn DynAlgorithm>, ParamError>) -> ParamError {
        match result {
            Err(e) => e,
            Ok(_) => panic!("expected a parameter error"),
        }
    }

    #[test]
    fn invalid_values_are_rejected_with_expectations() {
        let cases: &[(&str, &str, &str)] = &[
            ("mis/luby", "mark-factor", "2.0"),
            ("mis/luby", "mark-factor", "nan"),
            ("mis/luby", "mark-factor", "-0.5"),
            ("mis/degree-guided", "initial-desire", "0.9"),
            ("ruling/det", "variant", "log-squared"),
            ("ruling/det", "iterations", "0"),
            ("orientation/det", "r", "1"),
            ("orientation/rand", "contest-iterations", "0"),
            ("coloring/trial", "extra-colors", "-1"),
        ];
        for (name, key, value) in cases {
            let err = param_err(registry().get(name).unwrap().with_params(&[(key, value)]));
            assert!(
                matches!(err, ParamError::InvalidValue { .. }),
                "{name} {key}={value}: got {err:?}"
            );
            assert!(err.to_string().contains("expected"));
        }
    }

    #[test]
    fn ruling_det_conflicting_params_are_rejected() {
        // `variant` and `iterations` both pick the whole spec: combining
        // them must fail loudly instead of silently keeping the last one.
        let r = registry().get("ruling/det").unwrap();
        let err = param_err(r.with_params(&[("iterations", "3"), ("variant", "log-delta")]));
        assert!(matches!(err, ParamError::InvalidValue { .. }));
        assert!(err.to_string().contains("mutually exclusive"));
        let err = param_err(r.with_params(&[("variant", "log-log-n"), ("iterations", "3")]));
        assert!(matches!(err, ParamError::InvalidValue { .. }));
        // Each alone still works.
        assert!(r.with_params(&[("variant", "log-log-n")]).is_ok());
        assert!(r.with_params(&[("iterations", "3")]).is_ok());
    }

    #[test]
    fn unknown_keys_suggest_close_matches() {
        let err = param_err(
            registry()
                .get("mis/luby")
                .unwrap()
                .with_params(&[("mark-facotr", "0.5")]),
        );
        match err {
            ParamError::UnknownKey { suggestion, .. } => {
                assert_eq!(suggestion, Some("mark-factor"));
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        // Parameterless algorithms reject with NoParams.
        let err = param_err(
            registry()
                .get("mis/greedy")
                .unwrap()
                .with_params(&[("anything", "1")]),
        );
        assert!(matches!(err, ParamError::NoParams { .. }));
        assert!(err.to_string().contains("takes no parameters"));
    }

    #[test]
    fn with_params_layers_on_previous_configuration() {
        let g = gen::grid(5, 5);
        let base = registry()
            .get("ruling/det")
            .unwrap()
            .with_params(&[("iterations", "1")])
            .unwrap();
        // Re-configuring a configured algorithm overrides on top.
        let refined = base.with_params(&[("iterations", "2")]).unwrap();
        let beta = |algo: &dyn DynAlgorithm| match algo.execute(&g, &RunSpec::new(0)).solution {
            Solution::RulingSet { beta, .. } => beta,
            ref other => panic!("wrong solution kind: {other:?}"),
        };
        assert_eq!(beta(base.as_ref()), 3);
        assert_eq!(beta(refined.as_ref()), 5);
        assert_eq!(refined.problem(), Problem::RulingSet);
        assert!(refined.deterministic());
        assert_eq!(refined.param_specs().len(), 2);
    }
}
