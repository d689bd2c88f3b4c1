//! The one [`Algorithm`] type: a closed enum over every algorithm in the
//! workspace.
//!
//! Each variant carries its algorithm's typed parameters and dispatches
//! to the family module's crate-private runner, named after the
//! algorithm (`mis::luby`, `treerc::mis`, ...), which returns the
//! unified [`AlgoRun`] directly. The registry entries (reached through
//! [`super::registry`]) and the copies [`Algorithm::with_params`] makes
//! of them are the only public way to run an algorithm.
//!
//! Algorithms with tuning knobs declare them as [`ParamSpec`]s and
//! validate string assignments in the private `set_param` — that is what
//! [`Algorithm::with_params`] (and `exp --param family/name:key=value`)
//! dispatches through. Defaults are always the paper's constants, so a
//! parameterless run is byte-identical to the pre-parameter engine.

use super::{AlgoRun, ParamError, ParamSpec, Problem, RunSpec, Workspace};
use crate::coloring::TrialColoringParams;
use crate::matching::LubyMatchParams;
use crate::mis::{DegreeGuidedParams, LubyMisParams};
use crate::orientation::{DetOrientParams, RandOrientParams};
use crate::ruling::DetRulingParams;
use crate::{coloring, matching, mis, orientation, ruling, treerc};
use localavg_graph::decomp::NotATree;
use localavg_graph::Graph;

/// One registered algorithm together with its parameters: a
/// [`super::registry`] entry (the paper's defaults) or an owned copy
/// configured by [`Algorithm::with_params`].
///
/// The set of algorithms is closed; every method dispatches on the
/// private variant once per call, never per round.
#[derive(Debug, Clone)]
pub struct Algorithm(Variant);

/// One variant per registry key, carrying that algorithm's typed
/// parameters.
#[derive(Debug, Clone)]
enum Variant {
    /// Luby's randomized MIS (`"mis/luby"`, §3.1).
    MisLuby(LubyMisParams),
    /// Ghaffari-style degree-guided MIS (`"mis/degree-guided"`, §3.1).
    MisDegreeGuided(DegreeGuidedParams),
    /// Deterministic greedy-by-id MIS baseline (`"mis/greedy"`).
    MisGreedy,
    /// Theorem 2's randomized (2,2)-ruling set (`"ruling/two-two"`).
    RulingTwoTwo,
    /// Theorem 3's deterministic (2,β)-ruling set (`"ruling/det"`).
    RulingDet(DetRulingSpec),
    /// Theorem 4's randomized maximal matching (`"matching/luby"`).
    MatchingLuby(LubyMatchParams),
    /// Theorem 5's deterministic maximal matching (`"matching/det"`).
    MatchingDet,
    /// Deterministic proposal-matching baseline (`"matching/greedy"`).
    MatchingGreedy,
    /// Randomized sinkless orientation (`"orientation/rand"`,
    /// \[GS17a\]-style).
    OrientationRand(RandOrientParams),
    /// Theorem 6's deterministic sinkless orientation
    /// (`"orientation/det"`). Its transcript is assembled structurally
    /// (no round engine), so `spec.exec` and the workspace have no
    /// effect; the transcript policy only decides whether the (silent)
    /// CONGEST audit columns are stamped.
    OrientationDet(DetOrientParams),
    /// Randomized (Δ+1)-coloring by color trials (`"coloring/trial"`,
    /// §1.2).
    ColoringTrial(TrialColoringParams),
    /// Linial's deterministic O(log* n) coloring (`"coloring/linial"`).
    ColoringLinial,
    /// Rake-and-compress greedy MIS on forests (`"mis/tree-rc"`).
    MisTreeRc,
    /// Rake-and-compress (2,2)-ruling set on forests (`"ruling/tree-rc"`).
    RulingTreeRc,
    /// Rake-and-compress 3-coloring on forests (`"coloring/tree-rc"`).
    ColoringTreeRc,
}

/// How `"ruling/det"` chooses Theorem 3's iteration count. The
/// graph-dependent variants are resolved against the input graph at
/// execution, which is what lets `Default` stay graph-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum DetRulingSpec {
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
    fn resolve(&self, g: &Graph) -> DetRulingParams {
        match self {
            DetRulingSpec::LogDelta => DetRulingParams::for_log_delta(g),
            DetRulingSpec::LogLogN => DetRulingParams::for_log_log_n(g),
            DetRulingSpec::Fixed(p) => *p,
        }
    }
}

const MIS_LUBY_PARAMS: &[ParamSpec] = &[ParamSpec {
    key: "mark-factor",
    default: "0.5",
    doc: "mark probability numerator, p_v = mark-factor/deg(v); a float in (0, 1]",
}];

const MIS_DEGREE_GUIDED_PARAMS: &[ParamSpec] = &[
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
];

const RULING_DET_PARAMS: &[ParamSpec] = &[
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
];

const MATCHING_LUBY_PARAMS: &[ParamSpec] = &[ParamSpec {
    key: "mark-factor",
    default: "0.25",
    doc: "edge-mark probability numerator, p_e = mark-factor/(d_u+d_v); a float in (0, 1]",
}];

const ORIENTATION_RAND_PARAMS: &[ParamSpec] = &[ParamSpec {
    key: "contest-iterations",
    default: "8",
    doc: "proposal-contest iterations before the structural finisher; an integer >= 1",
}];

const ORIENTATION_DET_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "r",
        default: "2",
        doc: "the paper's constant r (short cycles of <= 6r + 1 vedges, cluster radius 2r+1); an integer >= 2",
    },
    ParamSpec {
        key: "finish-threshold",
        default: "48",
        doc: "virtual graphs at most this large go straight to the cycle finisher; an integer >= 4",
    },
    ParamSpec {
        key: "max-depth",
        default: "12",
        doc: "hard cap on contraction-recursion depth; an integer >= 1",
    },
];

const COLORING_TRIAL_PARAMS: &[ParamSpec] = &[ParamSpec {
    key: "extra-colors",
    default: "0",
    doc: "palette slots beyond the guaranteed Δ+1; a non-negative integer",
}];

/// Parses a float in `(0, hi]`.
fn unit_factor(value: &str, hi: f64) -> Option<f64> {
    value
        .parse::<f64>()
        .ok()
        .filter(|f| f.is_finite() && *f > 0.0 && *f <= hi)
}

/// Parses an unsigned integer of at least `min`.
fn count(value: &str, min: usize) -> Option<usize> {
    value.parse::<usize>().ok().filter(|&v| v >= min)
}

/// Panic message shared by the `*/tree-rc` variants when the tree-domain
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

impl Algorithm {
    /// Every algorithm with its default parameters, in registry order.
    pub(super) fn all() -> Vec<Algorithm> {
        use Variant::*;
        [
            MisLuby(LubyMisParams::default()),
            MisDegreeGuided(DegreeGuidedParams::default()),
            MisGreedy,
            RulingTwoTwo,
            RulingDet(DetRulingSpec::default()),
            MatchingLuby(LubyMatchParams::default()),
            MatchingDet,
            MatchingGreedy,
            OrientationRand(RandOrientParams::default()),
            OrientationDet(DetOrientParams::default()),
            ColoringTrial(TrialColoringParams::default()),
            ColoringLinial,
            MisTreeRc,
            RulingTreeRc,
            ColoringTreeRc,
        ]
        .into_iter()
        .map(Algorithm)
        .collect()
    }

    /// Stable registry key, e.g. `"mis/luby"`.
    pub fn name(&self) -> &'static str {
        match self.0 {
            Variant::MisLuby(_) => "mis/luby",
            Variant::MisDegreeGuided(_) => "mis/degree-guided",
            Variant::MisGreedy => "mis/greedy",
            Variant::RulingTwoTwo => "ruling/two-two",
            Variant::RulingDet(_) => "ruling/det",
            Variant::MatchingLuby(_) => "matching/luby",
            Variant::MatchingDet => "matching/det",
            Variant::MatchingGreedy => "matching/greedy",
            Variant::OrientationRand(_) => "orientation/rand",
            Variant::OrientationDet(_) => "orientation/det",
            Variant::ColoringTrial(_) => "coloring/trial",
            Variant::ColoringLinial => "coloring/linial",
            Variant::MisTreeRc => "mis/tree-rc",
            Variant::RulingTreeRc => "ruling/tree-rc",
            Variant::ColoringTreeRc => "coloring/tree-rc",
        }
    }

    /// The problem this algorithm solves.
    pub fn problem(&self) -> Problem {
        match self.0 {
            Variant::MisLuby(_)
            | Variant::MisDegreeGuided(_)
            | Variant::MisGreedy
            | Variant::MisTreeRc => Problem::Mis,
            Variant::RulingTwoTwo | Variant::RulingDet(_) | Variant::RulingTreeRc => {
                Problem::RulingSet
            }
            Variant::MatchingLuby(_) | Variant::MatchingDet | Variant::MatchingGreedy => {
                Problem::MaximalMatching
            }
            Variant::OrientationRand(_) | Variant::OrientationDet(_) => {
                Problem::SinklessOrientation
            }
            Variant::ColoringTrial(_) | Variant::ColoringLinial | Variant::ColoringTreeRc => {
                Problem::Coloring
            }
        }
    }

    /// Whether the run is a pure function of the graph (the seed is
    /// ignored).
    pub fn deterministic(&self) -> bool {
        matches!(
            self.0,
            Variant::MisGreedy
                | Variant::RulingDet(_)
                | Variant::MatchingDet
                | Variant::MatchingGreedy
                | Variant::OrientationDet(_)
                | Variant::ColoringLinial
        )
    }

    /// Whether the algorithm's domain is restricted to forests. Sweep and
    /// fuzz sampling only pair `true` algorithms with generators flagged
    /// [`localavg_graph::gen::NamedGenerator::is_tree`]; forcing such a
    /// pairing by hand yields a
    /// [`localavg_graph::decomp::NotATree`]-carrying panic from
    /// [`Algorithm::execute_in`].
    pub fn requires_tree(&self) -> bool {
        matches!(
            self.0,
            Variant::MisTreeRc | Variant::RulingTreeRc | Variant::ColoringTreeRc
        )
    }

    /// The string-keyed parameters this algorithm accepts (empty for
    /// parameterless algorithms).
    pub fn param_specs(&self) -> &'static [ParamSpec] {
        match self.0 {
            Variant::MisLuby(_) => MIS_LUBY_PARAMS,
            Variant::MisDegreeGuided(_) => MIS_DEGREE_GUIDED_PARAMS,
            Variant::RulingDet(_) => RULING_DET_PARAMS,
            Variant::MatchingLuby(_) => MATCHING_LUBY_PARAMS,
            Variant::OrientationRand(_) => ORIENTATION_RAND_PARAMS,
            Variant::OrientationDet(_) => ORIENTATION_DET_PARAMS,
            Variant::ColoringTrial(_) => COLORING_TRIAL_PARAMS,
            _ => &[],
        }
    }

    /// An owned copy with the given `(key, value)` assignments applied, in
    /// order, on top of this instance's parameters.
    ///
    /// # Errors
    ///
    /// [`ParamError::UnknownKey`] / [`ParamError::NoParams`] for keys not
    /// in [`Algorithm::param_specs`] (with a closest-match suggestion),
    /// [`ParamError::InvalidValue`] for values that fail the algorithm's
    /// validation.
    pub fn with_params(&self, params: &[(&str, &str)]) -> Result<Algorithm, ParamError> {
        let mut configured = self.clone();
        for (key, value) in params {
            configured.set_param(key, value)?;
        }
        Ok(configured)
    }

    /// Applies one string-keyed parameter assignment, validating key and
    /// value.
    fn set_param(&mut self, key: &str, value: &str) -> Result<(), ParamError> {
        let (name, specs) = (self.name(), self.param_specs());
        let invalid = |expected| ParamError::invalid(name, key, value, expected);
        match (&mut self.0, key) {
            (Variant::MisLuby(p), "mark-factor") => {
                p.mark_factor =
                    unit_factor(value, 1.0).ok_or_else(|| invalid("a float in (0, 1]"))?
            }
            (Variant::MisDegreeGuided(p), "initial-desire") => {
                p.initial_desire =
                    unit_factor(value, 0.5).ok_or_else(|| invalid("a float in (0, 0.5]"))?
            }
            (Variant::MisDegreeGuided(p), "mass-threshold") => {
                p.mass_threshold =
                    unit_factor(value, f64::INFINITY).ok_or_else(|| invalid("a positive float"))?
            }
            // `variant` and `iterations` both choose the whole spec; a
            // silent overwrite would make repeated --param flags
            // order-dependent, so contradictory pairs are rejected.
            (Variant::RulingDet(p), "variant") => {
                if matches!(p, DetRulingSpec::Fixed(_)) {
                    return Err(invalid(
                        "no `variant` on top of an explicit `iterations` \
                         (the two are mutually exclusive)",
                    ));
                }
                *p = match value {
                    "log-delta" => DetRulingSpec::LogDelta,
                    "log-log-n" => DetRulingSpec::LogLogN,
                    _ => return Err(invalid("`log-delta` or `log-log-n`")),
                }
            }
            (Variant::RulingDet(p), "iterations") => {
                if matches!(p, DetRulingSpec::LogLogN) {
                    return Err(invalid(
                        "no `iterations` on top of an explicit `variant` \
                         (the two are mutually exclusive)",
                    ));
                }
                let iterations = count(value, 1).ok_or_else(|| invalid("an integer >= 1"))?;
                *p = DetRulingSpec::Fixed(DetRulingParams { iterations })
            }
            (Variant::MatchingLuby(p), "mark-factor") => {
                p.mark_factor =
                    unit_factor(value, 1.0).ok_or_else(|| invalid("a float in (0, 1]"))?
            }
            (Variant::OrientationRand(p), "contest-iterations") => {
                p.contest_iterations = count(value, 1).ok_or_else(|| invalid("an integer >= 1"))?
            }
            (Variant::OrientationDet(p), "r") => {
                p.r = count(value, 2).ok_or_else(|| invalid("an integer >= 2"))?
            }
            (Variant::OrientationDet(p), "finish-threshold") => {
                p.finish_threshold = count(value, 4).ok_or_else(|| invalid("an integer >= 4"))?
            }
            (Variant::OrientationDet(p), "max-depth") => {
                p.max_depth = count(value, 1).ok_or_else(|| invalid("an integer >= 1"))?
            }
            (Variant::ColoringTrial(p), "extra-colors") => {
                p.extra_colors = count(value, 0).ok_or_else(|| invalid("a non-negative integer"))?
            }
            _ => return Err(ParamError::unknown_key(name, key, specs)),
        }
        Ok(())
    }

    /// Runs under `spec` with this instance's parameters and fresh arenas.
    pub fn execute(&self, g: &Graph, spec: &RunSpec) -> AlgoRun {
        self.execute_in(g, spec, &mut Workspace::new())
    }

    /// Runs under `spec` with this instance's parameters, reusing the
    /// arenas in `ws`.
    ///
    /// Executors are bit-identical (see `localavg_sim::engine`), so
    /// `spec.exec` is a pure performance knob; structural algorithms that
    /// never enter the round engine ignore it (and the workspace).
    ///
    /// # Panics
    ///
    /// Panics if a `*/tree-rc` algorithm (see
    /// [`Algorithm::requires_tree`]) is handed a graph with a cycle.
    pub fn execute_in(&self, g: &Graph, spec: &RunSpec, ws: &mut Workspace) -> AlgoRun {
        match &self.0 {
            Variant::MisLuby(p) => mis::luby(g, spec, p, ws),
            Variant::MisDegreeGuided(p) => mis::degree_guided(g, spec, p, ws),
            Variant::MisGreedy => mis::greedy_by_id(g, spec, ws),
            Variant::RulingTwoTwo => ruling::two_two(g, spec, ws),
            Variant::RulingDet(p) => ruling::deterministic(g, spec, p.resolve(g), ws),
            Variant::MatchingLuby(p) => matching::luby(g, spec, p, ws),
            Variant::MatchingDet => matching::deterministic(g, spec, ws),
            Variant::MatchingGreedy => matching::greedy(g, spec, ws),
            Variant::OrientationRand(p) => orientation::randomized(g, spec, p, ws),
            Variant::OrientationDet(p) => orientation::deterministic(g, *p, spec.transcript),
            Variant::ColoringTrial(p) => coloring::random_trial(g, spec, p, ws),
            Variant::ColoringLinial => coloring::linial(g, spec, ws),
            Variant::MisTreeRc => expect_tree(self.name(), treerc::mis(g, spec, ws)),
            Variant::RulingTreeRc => expect_tree(self.name(), treerc::ruling(g, spec, ws)),
            Variant::ColoringTreeRc => expect_tree(self.name(), treerc::coloring(g, spec, ws)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{registry, Solution};
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
        let fixed = DetRulingSpec::Fixed(DetRulingParams { iterations: 3 });
        let run = Algorithm(Variant::RulingDet(fixed)).execute(&g, &RunSpec::new(0));
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
        for algo in registry().iter() {
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
            let run = registry().get(name).unwrap().execute(&g, &RunSpec::new(2));
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
            let err = registry()
                .get(name)
                .unwrap()
                .with_params(&[(key, value)])
                .expect_err("an invalid value");
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
        let err = r
            .with_params(&[("iterations", "3"), ("variant", "log-delta")])
            .expect_err("a conflicting pair");
        assert!(matches!(err, ParamError::InvalidValue { .. }));
        assert!(err.to_string().contains("mutually exclusive"));
        let err = r
            .with_params(&[("variant", "log-log-n"), ("iterations", "3")])
            .expect_err("a conflicting pair");
        assert!(matches!(err, ParamError::InvalidValue { .. }));
        // Each alone still works.
        assert!(r.with_params(&[("variant", "log-log-n")]).is_ok());
        assert!(r.with_params(&[("iterations", "3")]).is_ok());
    }

    #[test]
    fn unknown_keys_suggest_close_matches() {
        let err = registry()
            .get("mis/luby")
            .unwrap()
            .with_params(&[("mark-facotr", "0.5")])
            .expect_err("an unknown key");
        match err {
            ParamError::UnknownKey { suggestion, .. } => {
                assert_eq!(suggestion, Some("mark-factor"));
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        // Parameterless algorithms reject with NoParams.
        let err = registry()
            .get("mis/greedy")
            .unwrap()
            .with_params(&[("anything", "1")])
            .expect_err("a key on a parameterless algorithm");
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
        let beta = |algo: &Algorithm| match algo.execute(&g, &RunSpec::new(0)).solution {
            Solution::RulingSet { beta, .. } => beta,
            ref other => panic!("wrong solution kind: {other:?}"),
        };
        assert_eq!(beta(&base), 3);
        assert_eq!(beta(&refined), 5);
        assert_eq!(refined.problem(), Problem::RulingSet);
        assert!(refined.deterministic());
        assert_eq!(refined.param_specs().len(), 2);
    }
}
