//! Unified algorithm API: one algorithm type, one result type, one registry.
//!
//! The paper measures every algorithm with the same yardstick — the
//! per-node/per-edge commit times of Definition 1 — yet each family
//! (MIS, ruling sets, matching, orientation, coloring) naturally produces
//! a differently-typed output. This module erases that difference:
//!
//! * [`Algorithm`] — one concrete type over a closed set of 15
//!   algorithms, each carrying its typed parameters: `name()`,
//!   `problem()`, `param_specs()`, and `execute(&Graph, &RunSpec) ->
//!   AlgoRun`.
//! * [`RunSpec`] — everything one run needs besides graph and algorithm
//!   parameters: seed, executor, round budget, and a
//!   [`TranscriptPolicy`] that lets the engine skip ledger bookkeeping
//!   when only completion times are wanted.
//! * [`Workspace`] — reusable engine arenas keyed to a graph's CSR
//!   shape; repeated runs through `execute_in` reuse allocations
//!   instead of paying them per run.
//! * [`AlgoRun`] — the single result type: an output-erased transcript
//!   (commit clocks survive; labels move into [`Solution`]) plus shared
//!   [`AlgoRun::worst_case`], [`AlgoRun::report`], and
//!   [`AlgoRun::verify`] wired to the `localavg_graph::analysis`
//!   validators.
//! * [`registry`] — the string-keyed catalog (`"mis/luby"`,
//!   `"ruling/two-two"`, `"matching/det"`, …) for dynamic dispatch:
//!   sweep drivers iterate it instead of special-casing five families.
//!   [`Algorithm::with_params`] copies an entry with string `key=value`
//!   pairs applied under per-algorithm validation, so CLIs can vary
//!   tuning knobs without knowing the typed parameter structs.
//!
//! # Quickstart
//!
//! ```
//! use localavg_core::algo::{registry, RunSpec};
//! use localavg_graph::{gen, rng::Rng};
//!
//! let mut rng = Rng::seed_from(1);
//! let g = gen::random_regular(64, 4, &mut rng).expect("graph");
//!
//! // Dynamic dispatch by name…
//! let run = registry()
//!     .get("mis/luby")
//!     .expect("registered")
//!     .execute(&g, &RunSpec::new(7));
//! run.verify(&g).expect("valid MIS");
//! assert!(run.report(&g).node_averaged < 32.0);
//!
//! // …or sweep everything whose domain fits the graph (degree floor,
//! // and the `*/tree-rc` family only runs on forests).
//! for algo in registry().iter() {
//!     if algo.problem().min_degree() <= g.min_degree() && !algo.requires_tree() {
//!         let run = algo.execute(&g, &RunSpec::new(7));
//!         run.verify(&g).expect("every algorithm is valid");
//!     }
//! }
//! ```
//!
//! # Repeated runs and string-keyed parameters
//!
//! ```
//! use localavg_core::algo::{registry, RunSpec, TranscriptPolicy, Workspace};
//! use localavg_graph::gen;
//!
//! let g = gen::grid(8, 8);
//! // A (2, 5)-ruling set: Theorem 3 with a fixed iteration count.
//! let algo = registry()
//!     .get("ruling/det")
//!     .expect("registered")
//!     .with_params(&[("iterations", "2")])
//!     .expect("valid parameters");
//! // Reuse arenas and skip the CONGEST audit across repeated runs.
//! let mut ws = Workspace::new();
//! let spec = RunSpec::new(0).with_transcript(TranscriptPolicy::CompletionsOnly);
//! for seed in 0..4 {
//!     let run = algo.execute_in(&g, &spec.clone().with_seed(seed), &mut ws);
//!     run.verify(&g).expect("valid ruling set");
//! }
//! ```

mod impls;

pub use impls::Algorithm;

use crate::metrics::{CompletionTimes, ComplexityReport};
use localavg_graph::analysis::{self, Orientation};
use localavg_graph::suggest::closest_match;
use localavg_graph::Graph;
pub use localavg_sim::engine::{Exec, RunSpec};
pub use localavg_sim::transcript::TranscriptPolicy;
use localavg_sim::transcript::{Round, Transcript};
pub use localavg_sim::workspace::Workspace;
use std::fmt;
use std::sync::OnceLock;

/// The problem an algorithm solves (the LCL class, in the landscape
/// papers' terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Problem {
    /// Maximal independent set (§3.1).
    Mis,
    /// (2, β)-ruling set (Theorems 2–3).
    RulingSet,
    /// Maximal matching (Theorems 4–5).
    MaximalMatching,
    /// Sinkless orientation (Theorem 6 / \[GS17a\]).
    SinklessOrientation,
    /// Proper (vertex) coloring (§1.2).
    Coloring,
}

impl Problem {
    /// Every problem family, in registry-key order.
    pub const ALL: [Problem; 5] = [
        Problem::Mis,
        Problem::RulingSet,
        Problem::MaximalMatching,
        Problem::SinklessOrientation,
        Problem::Coloring,
    ];

    /// Minimum degree the problem's domain requires (sinkless orientation
    /// is only defined on graphs of minimum degree 3).
    pub fn min_degree(&self) -> usize {
        match self {
            Problem::SinklessOrientation => 3,
            _ => 0,
        }
    }

    /// Short human-readable label (used by `exp --list`).
    pub fn label(&self) -> &'static str {
        match self {
            Problem::Mis => "maximal independent set",
            Problem::RulingSet => "ruling set",
            Problem::MaximalMatching => "maximal matching",
            Problem::SinklessOrientation => "sinkless orientation",
            Problem::Coloring => "coloring",
        }
    }

    /// Stable selector key — the family prefix of the registry keys
    /// (`"mis"`, `"ruling"`, `"matching"`, `"orientation"`, `"coloring"`).
    /// Used by `exp --problem`.
    pub fn key(&self) -> &'static str {
        match self {
            Problem::Mis => "mis",
            Problem::RulingSet => "ruling",
            Problem::MaximalMatching => "matching",
            Problem::SinklessOrientation => "orientation",
            Problem::Coloring => "coloring",
        }
    }

    /// Parses a selector key; the inverse of [`Problem::key`].
    pub fn parse(s: &str) -> Option<Problem> {
        Problem::ALL.into_iter().find(|p| p.key() == s)
    }

    /// The problem key closest to `s` by edit distance, for
    /// "unknown problem, did you mean …" errors. Garbage input (further
    /// than a plausible typo) gets no suggestion.
    pub fn suggest(s: &str) -> Option<&'static str> {
        closest_match(Problem::ALL.into_iter().map(|p| p.key()), s)
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The typed output of a run, one variant per problem family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solution {
    /// MIS indicator per node.
    Mis {
        /// `in_set[v]` iff node `v` joined the independent set.
        in_set: Vec<bool>,
    },
    /// Ruling-set indicator per node with the guaranteed domination radius.
    RulingSet {
        /// `in_set[v]` iff node `v` joined the ruling set.
        in_set: Vec<bool>,
        /// Every node is within distance `beta` of the set.
        beta: usize,
    },
    /// Matching indicator per edge.
    Matching {
        /// `in_matching[e]` iff edge `e` was matched.
        in_matching: Vec<bool>,
    },
    /// Orientation label per edge.
    Orientation {
        /// Direction of every edge.
        orientation: Vec<Orientation>,
    },
    /// Color per node.
    Coloring {
        /// The color assigned to every node.
        colors: Vec<usize>,
    },
}

impl Solution {
    /// The problem this solution answers.
    pub fn problem(&self) -> Problem {
        match self {
            Solution::Mis { .. } => Problem::Mis,
            Solution::RulingSet { .. } => Problem::RulingSet,
            Solution::Matching { .. } => Problem::MaximalMatching,
            Solution::Orientation { .. } => Problem::SinklessOrientation,
            Solution::Coloring { .. } => Problem::Coloring,
        }
    }

    /// Node-set indicator, for MIS and ruling-set solutions.
    pub fn node_set(&self) -> Option<&[bool]> {
        match self {
            Solution::Mis { in_set } | Solution::RulingSet { in_set, .. } => Some(in_set),
            _ => None,
        }
    }

    /// Matching indicator, for matching solutions.
    pub fn matching(&self) -> Option<&[bool]> {
        match self {
            Solution::Matching { in_matching } => Some(in_matching),
            _ => None,
        }
    }

    /// Edge orientations, for orientation solutions.
    pub fn orientation(&self) -> Option<&[Orientation]> {
        match self {
            Solution::Orientation { orientation } => Some(orientation),
            _ => None,
        }
    }

    /// Node colors, for coloring solutions.
    pub fn colors(&self) -> Option<&[usize]> {
        match self {
            Solution::Coloring { colors } => Some(colors),
            _ => None,
        }
    }
}

/// Why a [`Solution`] failed validation against a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationError {
    /// Output vector length does not match the graph.
    SizeMismatch {
        /// Elements the graph expects (nodes or edges).
        expected: usize,
        /// Elements the solution carries.
        got: usize,
    },
    /// The node set is not a maximal independent set.
    NotMaximalIndependentSet,
    /// The node set is not a (2, β)-ruling set.
    NotRulingSet {
        /// The β the run promised.
        beta: usize,
    },
    /// The edge set is not a maximal matching.
    NotMaximalMatching,
    /// Some node of degree ≥ 1 has out-degree 0.
    HasSink,
    /// Two adjacent nodes share a color.
    NotProperColoring,
    /// The transcript never committed every required output.
    IncompleteTranscript,
}

impl fmt::Display for ViolationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationError::SizeMismatch { expected, got } => {
                write!(f, "solution size mismatch: expected {expected}, got {got}")
            }
            ViolationError::NotMaximalIndependentSet => {
                f.write_str("not a maximal independent set")
            }
            ViolationError::NotRulingSet { beta } => {
                write!(f, "not a (2, {beta})-ruling set")
            }
            ViolationError::NotMaximalMatching => f.write_str("not a maximal matching"),
            ViolationError::HasSink => f.write_str("orientation has a sink"),
            ViolationError::NotProperColoring => f.write_str("coloring is not proper"),
            ViolationError::IncompleteTranscript => {
                f.write_str("transcript incomplete: some output never committed")
            }
        }
    }
}

impl std::error::Error for ViolationError {}

/// The unified result of running any [`Algorithm`].
///
/// The transcript is output-erased (labels live in [`Solution`]), so every
/// family shares the same metrics plumbing: [`AlgoRun::report`] feeds it to
/// [`ComplexityReport`] and [`AlgoRun::completion_times`] to
/// [`CompletionTimes`] / [`crate::metrics::RunAggregate`].
#[derive(Debug, Clone)]
pub struct AlgoRun {
    /// Registry key of the algorithm that produced this run.
    pub algorithm: &'static str,
    /// Output-erased execution transcript (commit clocks, halt rounds, and
    /// the CONGEST message audit all survive erasure).
    pub transcript: Transcript<(), ()>,
    /// The typed output labels.
    pub solution: Solution,
}

impl AlgoRun {
    /// Assembles the run of `algorithm` from its output-erased transcript
    /// and its solution. Every family's runner returns through here, so
    /// one debug-build check covers them all: the solution must pass
    /// [`AlgoRun::verify`] on `g`.
    pub(crate) fn new(
        algorithm: &'static str,
        g: &Graph,
        transcript: Transcript<(), ()>,
        solution: Solution,
    ) -> AlgoRun {
        let run = AlgoRun {
            algorithm,
            transcript,
            solution,
        };
        debug_assert_eq!(
            run.verify(g),
            Ok(()),
            "{algorithm} produced an invalid output"
        );
        run
    }

    /// The problem this run solved.
    pub fn problem(&self) -> Problem {
        self.solution.problem()
    }

    /// Total rounds until global termination (classic worst case).
    pub fn worst_case(&self) -> Round {
        self.transcript.rounds
    }

    /// Definition 1 / Appendix A complexity measures of this run.
    ///
    /// # Panics
    ///
    /// Panics if the transcript is incomplete (see
    /// [`ComplexityReport::from_run`]).
    pub fn report(&self, g: &Graph) -> ComplexityReport {
        ComplexityReport::from_run(g, &self.transcript)
    }

    /// Per-element completion times (for [`crate::metrics::RunAggregate`]).
    ///
    /// # Panics
    ///
    /// Panics if the transcript is incomplete.
    pub fn completion_times(&self, g: &Graph) -> CompletionTimes {
        CompletionTimes::from_transcript(g, &self.transcript)
    }

    /// Validates the solution against `g` using the
    /// [`localavg_graph::analysis`] validators.
    pub fn verify(&self, g: &Graph) -> Result<(), ViolationError> {
        if !self.transcript.is_complete() {
            return Err(ViolationError::IncompleteTranscript);
        }
        let check_len = |expected: usize, got: usize| {
            if expected == got {
                Ok(())
            } else {
                Err(ViolationError::SizeMismatch { expected, got })
            }
        };
        match &self.solution {
            Solution::Mis { in_set } => {
                check_len(g.n(), in_set.len())?;
                if analysis::is_maximal_independent_set(g, in_set) {
                    Ok(())
                } else {
                    Err(ViolationError::NotMaximalIndependentSet)
                }
            }
            Solution::RulingSet { in_set, beta } => {
                check_len(g.n(), in_set.len())?;
                if analysis::is_ruling_set(g, in_set, 2, *beta) {
                    Ok(())
                } else {
                    Err(ViolationError::NotRulingSet { beta: *beta })
                }
            }
            Solution::Matching { in_matching } => {
                check_len(g.m(), in_matching.len())?;
                if analysis::is_maximal_matching(g, in_matching) {
                    Ok(())
                } else {
                    Err(ViolationError::NotMaximalMatching)
                }
            }
            Solution::Orientation { orientation } => {
                check_len(g.m(), orientation.len())?;
                if analysis::is_sinkless_orientation(g, orientation) {
                    Ok(())
                } else {
                    Err(ViolationError::HasSink)
                }
            }
            Solution::Coloring { colors } => {
                check_len(g.n(), colors.len())?;
                if analysis::is_proper_coloring(g, colors) {
                    Ok(())
                } else {
                    Err(ViolationError::NotProperColoring)
                }
            }
        }
    }
}

/// Declares one string-keyed tuning parameter of an algorithm (the
/// machine-readable side of [`Algorithm::with_params`]). Listed by
/// `exp --list` and the README parameter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter key as accepted by [`Algorithm::with_params`]
    /// (kebab-case, e.g. `"mark-factor"`).
    pub key: &'static str,
    /// Human-readable rendering of the default value.
    pub default: &'static str,
    /// One-line description, including the accepted range.
    pub doc: &'static str,
}

/// Why a string-keyed parameter assignment was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// The algorithm takes no parameters at all.
    NoParams {
        /// Registry key of the algorithm.
        algorithm: &'static str,
        /// The key that was offered anyway.
        key: String,
    },
    /// The key names no parameter of this algorithm.
    UnknownKey {
        /// Registry key of the algorithm.
        algorithm: &'static str,
        /// The unknown key.
        key: String,
        /// Closest declared key, if any is a plausible typo.
        suggestion: Option<&'static str>,
        /// Every declared key, for the error message.
        known: Vec<&'static str>,
    },
    /// The key exists but the value failed this algorithm's validation.
    InvalidValue {
        /// Registry key of the algorithm.
        algorithm: &'static str,
        /// The parameter key.
        key: String,
        /// The rejected value.
        value: String,
        /// What the algorithm accepts (e.g. `"a float in (0, 1]"`).
        expected: &'static str,
    },
}

impl ParamError {
    /// The standard rejection for a key that matches no [`ParamSpec`]:
    /// picks [`ParamError::NoParams`] or a [`ParamError::UnknownKey`]
    /// with a `suggest()`-style closest match, from `set_param`'s
    /// fall-through arm.
    pub(crate) fn unknown_key(
        algorithm: &'static str,
        key: &str,
        specs: &[ParamSpec],
    ) -> ParamError {
        if specs.is_empty() {
            return ParamError::NoParams {
                algorithm,
                key: key.to_string(),
            };
        }
        let suggestion = closest_match(specs.iter().map(|s| s.key), key);
        ParamError::UnknownKey {
            algorithm,
            key: key.to_string(),
            suggestion,
            known: specs.iter().map(|s| s.key).collect(),
        }
    }

    /// Builds an [`ParamError::InvalidValue`].
    pub(crate) fn invalid(
        algorithm: &'static str,
        key: &str,
        value: &str,
        expected: &'static str,
    ) -> ParamError {
        ParamError::InvalidValue {
            algorithm,
            key: key.to_string(),
            value: value.to_string(),
            expected,
        }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::NoParams { algorithm, key } => {
                write!(f, "`{algorithm}` takes no parameters (got `{key}`)")
            }
            ParamError::UnknownKey {
                algorithm,
                key,
                suggestion,
                known,
            } => {
                write!(f, "`{algorithm}` has no parameter `{key}`")?;
                if let Some(s) = suggestion {
                    write!(f, " — did you mean `{s}`?")?;
                }
                write!(f, " (known: {})", known.join(", "))
            }
            ParamError::InvalidValue {
                algorithm,
                key,
                value,
                expected,
            } => write!(
                f,
                "invalid value `{value}` for `{algorithm}` parameter `{key}`: expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// The string-keyed catalog of every registered algorithm.
pub struct Registry {
    entries: Vec<Algorithm>,
}

impl Registry {
    /// Looks an algorithm up by its registry key. The entry runs with
    /// its default parameters; [`Algorithm::with_params`] makes a
    /// configured copy.
    pub fn get(&self, name: &str) -> Option<&Algorithm> {
        self.entries.iter().find(|a| a.name() == name)
    }

    /// All registered algorithms, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Algorithm> + '_ {
        self.entries.iter()
    }

    /// The registered algorithms solving `problem`, in registration
    /// order — the filter behind `exp --problem mis|coloring|…`.
    pub fn by_problem(&self, problem: Problem) -> impl Iterator<Item = &Algorithm> + '_ {
        self.entries.iter().filter(move |a| a.problem() == problem)
    }

    /// All registry keys, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|a| a.name())
    }

    /// Number of registered algorithms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty (it never is).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered key closest to `name` by edit distance — the basis
    /// of `exp`'s "unknown algorithm, did you mean …" error, via the
    /// workspace-wide [`localavg_graph::suggest`] policy. Returns `None`
    /// when even the best candidate is too far off to be a typo, so
    /// garbage input doesn't get a misleading suggestion.
    pub fn suggest(&self, name: &str) -> Option<&'static str> {
        closest_match(self.names(), name)
    }
}

/// The global registry of every algorithm in the workspace.
///
/// Keys follow `family/variant`:
///
/// | key | problem | paper result |
/// |---|---|---|
/// | `mis/luby` | MIS | §3.1, Luby \[Lub86, ABI86\] |
/// | `mis/degree-guided` | MIS | §3.1, Ghaffari-style desire levels |
/// | `mis/greedy` | MIS | deterministic greedy-by-id baseline |
/// | `ruling/two-two` | ruling set | Theorem 2, randomized (2,2) |
/// | `ruling/det` | ruling set | Theorem 3, deterministic (2,β) |
/// | `matching/luby` | matching | Theorem 4, randomized |
/// | `matching/det` | matching | Theorem 5, fractional rounding |
/// | `matching/greedy` | matching | deterministic proposal baseline |
/// | `orientation/rand` | sinkless orientation | \[GS17a\]-style |
/// | `orientation/det` | sinkless orientation | Theorem 6 |
/// | `coloring/trial` | coloring | §1.2, random (Δ+1) trials |
/// | `coloring/linial` | coloring | Linial's O(log* n) |
/// | `mis/tree-rc` | MIS | rake-and-compress, trees only |
/// | `ruling/tree-rc` | ruling set | rake-and-compress (2,2), trees only |
/// | `coloring/tree-rc` | coloring | rake-and-compress 3-coloring, trees only |
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        entries: Algorithm::all(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use localavg_graph::gen;
    use localavg_graph::rng::Rng;

    #[test]
    fn registry_keys_are_unique_and_stable() {
        let names: Vec<&str> = registry().names().collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate registry keys");
        for key in [
            "mis/luby",
            "ruling/two-two",
            "matching/det",
            "orientation/det",
            "coloring/linial",
        ] {
            assert!(registry().get(key).is_some(), "missing {key}");
        }
        assert_eq!(registry().len(), 15);
    }

    #[test]
    fn a_configured_copy_runs_like_its_registry_entry() {
        let mut rng = Rng::seed_from(2);
        let g = gen::random_regular(48, 4, &mut rng).unwrap();
        let spec = RunSpec::new(5);
        let entry = registry().get("mis/luby").unwrap();
        let copy = entry.with_params(&[]).unwrap();
        let (a, b) = (entry.execute(&g, &spec), copy.execute(&g, &spec));
        assert_eq!(a.solution, b.solution);
        assert_eq!(
            a.transcript.node_commit_round,
            b.transcript.node_commit_round
        );
        assert_eq!(b.algorithm, "mis/luby");
    }

    #[test]
    fn verify_accepts_valid_and_rejects_corrupted() {
        let g = gen::grid(4, 4);
        let run = registry()
            .get("mis/greedy")
            .unwrap()
            .execute(&g, &RunSpec::new(0));
        assert_eq!(run.verify(&g), Ok(()));
        let mut bad = run.clone();
        if let Solution::Mis { in_set } = &mut bad.solution {
            for b in in_set.iter_mut() {
                *b = false; // empty set is not maximal
            }
        }
        assert_eq!(
            bad.verify(&g),
            Err(ViolationError::NotMaximalIndependentSet)
        );
        let mut short = run.clone();
        if let Solution::Mis { in_set } = &mut short.solution {
            in_set.pop();
        }
        assert!(matches!(
            short.verify(&g),
            Err(ViolationError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn verify_checks_each_family() {
        let mut rng = Rng::seed_from(9);
        let g = gen::random_regular(32, 4, &mut rng).unwrap();
        for algo in registry().iter() {
            if algo.problem().min_degree() > g.min_degree() || algo.requires_tree() {
                continue;
            }
            let run = algo.execute(&g, &RunSpec::new(3));
            assert_eq!(run.verify(&g), Ok(()), "{} failed", algo.name());
            assert_eq!(run.problem(), algo.problem());
            assert!(run.worst_case() == run.transcript.rounds);
        }
    }

    #[test]
    fn by_problem_partitions_the_registry() {
        let r = registry();
        let mut total = 0;
        for p in Problem::ALL {
            let names: Vec<&str> = r.by_problem(p).map(|a| a.name()).collect();
            assert!(!names.is_empty(), "no algorithm for {p}");
            assert!(
                names.iter().all(|n| n.starts_with(p.key())),
                "{p}: keys {names:?} should start with `{}`",
                p.key()
            );
            total += names.len();
        }
        assert_eq!(total, r.len(), "every algorithm belongs to one problem");
        assert_eq!(r.by_problem(Problem::Mis).count(), 4);
    }

    #[test]
    fn problem_keys_parse_and_suggest() {
        for p in Problem::ALL {
            assert_eq!(Problem::parse(p.key()), Some(p));
        }
        assert_eq!(Problem::parse("matchings"), None);
        assert_eq!(Problem::suggest("matchign"), Some("matching"));
        assert_eq!(Problem::suggest("colorng"), Some("coloring"));
        assert_eq!(Problem::suggest("zzzzzz"), None);
    }

    #[test]
    fn workspace_execute_in_matches_fresh_execution() {
        let mut rng = Rng::seed_from(12);
        let g = gen::random_regular(48, 4, &mut rng).unwrap();
        let mut ws = Workspace::new();
        let spec = RunSpec::new(9);
        for algo in registry().iter() {
            if algo.problem().min_degree() > g.min_degree() || algo.requires_tree() {
                continue;
            }
            // Twice through the same workspace (second run reuses arenas),
            // then compared against a fresh execution.
            let first = algo.execute_in(&g, &spec, &mut ws);
            let reused = algo.execute_in(&g, &spec, &mut ws);
            let fresh = algo.execute(&g, &spec);
            assert_eq!(first.solution, fresh.solution, "{}", algo.name());
            assert_eq!(reused.solution, fresh.solution, "{}", algo.name());
            assert_eq!(
                reused.transcript.node_commit_round,
                fresh.transcript.node_commit_round,
                "{}",
                algo.name()
            );
            assert_eq!(
                reused.transcript.edge_commit_round,
                fresh.transcript.edge_commit_round,
                "{}",
                algo.name()
            );
        }
        assert!(ws.reuse_count() > 0);
    }

    #[test]
    fn transcript_policies_preserve_solutions_and_completions() {
        let mut rng = Rng::seed_from(13);
        let g = gen::random_regular(48, 4, &mut rng).unwrap();
        for algo in registry().iter() {
            if algo.problem().min_degree() > g.min_degree() || algo.requires_tree() {
                continue;
            }
            let full = algo.execute(&g, &RunSpec::new(4));
            for policy in [TranscriptPolicy::CompletionsOnly, TranscriptPolicy::None] {
                let lean = algo.execute(&g, &RunSpec::new(4).with_transcript(policy));
                assert_eq!(lean.solution, full.solution, "{}", algo.name());
                assert_eq!(
                    lean.completion_times(&g),
                    full.completion_times(&g),
                    "{} under {policy:?}",
                    algo.name()
                );
                assert_eq!(lean.verify(&g), Ok(()));
            }
        }
    }

    #[test]
    fn ruling_set_beta_violation_detected() {
        // A (2,2)-ruling set claimed as beta is fine, but an empty set is
        // not a ruling set at all on a nonempty graph.
        let g = gen::path(5);
        let bad = AlgoRun {
            algorithm: "ruling/two-two",
            transcript: {
                let mut t =
                    Transcript::empty(localavg_sim::transcript::OutputKind::NodeLabels, 5, 4);
                t.node_commit_round = vec![0; 5];
                t.node_output = vec![Some(()); 5];
                t
            },
            solution: Solution::RulingSet {
                in_set: vec![false; 5],
                beta: 2,
            },
        };
        assert_eq!(
            bad.verify(&g),
            Err(ViolationError::NotRulingSet { beta: 2 })
        );
    }

    #[test]
    fn suggest_finds_close_matches() {
        let r = registry();
        assert_eq!(r.suggest("mis/lubby"), Some("mis/luby"));
        assert_eq!(r.suggest("matchign/det"), Some("matching/det"));
        assert_eq!(r.suggest("coloring/linail"), Some("coloring/linial"));
    }

    #[test]
    fn suggest_rejects_garbage() {
        // Nothing remotely close: no misleading "did you mean".
        assert_eq!(registry().suggest("foobar"), None);
        assert_eq!(registry().suggest("xx"), None);
    }

    #[test]
    fn solution_accessors() {
        let s = Solution::Mis {
            in_set: vec![true, false],
        };
        assert_eq!(s.node_set(), Some(&[true, false][..]));
        assert!(s.matching().is_none());
        let m = Solution::Matching {
            in_matching: vec![true],
        };
        assert_eq!(m.matching(), Some(&[true][..]));
        assert!(m.colors().is_none());
        assert_eq!(m.problem(), Problem::MaximalMatching);
    }
}
