//! `exp fuzz` — the seeded differential fuzz harness.
//!
//! Four PRs of engine surgery (CSR core, flat arenas, transcript
//! policies, workspace reuse) left correctness resting on golden bytes —
//! self-consistency, not independent evidence. This harness supplies the
//! evidence: it samples (family × size × algorithm × params × policy ×
//! executor) cells from a master seed, runs the fast engine, and
//! cross-checks every run against the `localavg_core::check` oracle:
//!
//! 1. the fast `analysis.rs` validator and the naive oracle validator
//!    must both accept the solution;
//! 2. the oracle's independent Definition 1 recomputation must match
//!    `metrics.rs` elementwise, and the per-run Appendix A inequality
//!    chain must hold;
//! 3. a canonical re-run (sequential executor, full transcript, fresh
//!    workspace) must reproduce the solution and completion times
//!    bit-for-bit — policies and executors are pure performance knobs;
//! 4. on tiny instances the brute-force optimality bounds must hold;
//! 5. a deterministically corrupted copy of the solution must be
//!    **rejected by both validators** — this is the mutation leg that
//!    catches a weakened validator on either side (break one locally and
//!    `exp fuzz` fails within a handful of cases);
//! 6. the canonical run's live-frontier ledger must replay from its
//!    per-node termination ledger: recomputing "nodes still live after
//!    round r" from the halt rounds has to reproduce the engine's O(1)
//!    live counter at every round, monotone non-increasing, reaching
//!    zero exactly at the final round — the invariant the delta-routed
//!    executor's per-round cost model stands on;
//! 7. a re-run of the same cell with the chunk size forced to one node
//!    per chunk (the most adversarial geometry the chunked executor
//!    admits) must byte-match the default geometry;
//! 8. the instance must survive a `localavg-csr/v1` serialization round
//!    trip bit-for-bit with a footer equal to its content hash, and a
//!    copy whose header counts are byte-swapped to big-endian must be
//!    rejected as [`localavg_graph::io::ReadError::HeaderOutOfRange`] —
//!    the reader must never misread a foreign-endian file as a small
//!    valid graph;
//! 9. the distributional summaries the sweep emits per group must be
//!    internally consistent on the cell's own sample: nearest-rank
//!    percentiles are monotone (`p50 ≤ p90 ≤ p99 ≤ max`), histograms
//!    account for every observation, the node mean never exceeds the
//!    node p99, and an audited run's per-node sent-volume summary obeys
//!    the same ordering.
//!
//! On failure the harness shrinks the cell — smaller size, default
//! params, full transcript, sequential executor, smaller seed — and
//! reports the minimal failing `(generator, n, seed, algorithm, params)`
//! tuple, ready to paste into a regression test.
//!
//! Everything is a pure function of `FuzzSpec`: case `i` draws from
//! `Rng::seed_from(master_seed).fork(i)`, and instances reuse the
//! sweep's content-addressed [`sweep::graph_seed`], so a reported tuple
//! replays exactly.

use crate::cell::CellKey;
use crate::generators;
use crate::sweep::{self, SweepError};
use localavg_core::algo::{
    registry, DynAlgorithm, Exec, RunSpec, Solution, TranscriptPolicy, Workspace,
};
use localavg_core::check;
use localavg_core::metrics::Distribution;
use localavg_graph::analysis::Orientation;
use localavg_graph::io;
use localavg_graph::rng::Rng;
use localavg_graph::Graph;
use std::collections::BTreeMap;
use std::fmt;

/// What `exp fuzz` samples over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzSpec {
    /// Number of sampled cells.
    pub cases: usize,
    /// Master seed every per-case substream forks from.
    pub master_seed: u64,
    /// Algorithm registry keys to sample (default: all of them).
    pub algorithms: Vec<String>,
    /// Generator registry keys to sample (default: a mix of easy, tree,
    /// and lower-bound hard families).
    pub generators: Vec<String>,
    /// Target sizes to sample, biased small so the brute-force layer
    /// fires often.
    pub sizes: Vec<usize>,
    /// Fully pinned single-cell mode — the replay path printed on
    /// failure. Requires exactly one generator, one size, and one
    /// algorithm; seed/policy/threads/params come from here instead of
    /// being sampled, so the reported shrunk tuple reproduces verbatim.
    pub exact: Option<ExactCell>,
}

/// The pinned axes of an `--exact` replay (see [`FuzzSpec::exact`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExactCell {
    /// Run seed.
    pub seed: u64,
    /// Transcript policy.
    pub policy: TranscriptPolicy,
    /// Parallel worker count (0 = sequential executor).
    pub threads: usize,
    /// Parameter overrides for the single selected algorithm.
    pub params: Vec<(String, String)>,
}

impl Default for FuzzSpec {
    fn default() -> Self {
        FuzzSpec {
            cases: 256,
            master_seed: 0,
            algorithms: registry().names().map(str::to_string).collect(),
            generators: [
                "path",
                "cycle",
                "grid",
                "tree/random",
                "tree/bounded/3",
                "tree/bounded/8",
                "tree/caterpillar",
                "tree/spider",
                "regular/3",
                "regular/8",
                "gnp/deg8",
                "lb/cluster-tree/1",
                "lb/cluster-tree/2",
                "lb/lift/1",
                "lb/lift/2",
                "lb/doubled/1",
            ]
            .map(str::to_string)
            .to_vec(),
            sizes: vec![8, 10, 12, 14, 16, 18, 20, 32, 64, 128, 256],
            exact: None,
        }
    }
}

/// One sampled cell — also the shape of the shrunk failure tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCell {
    /// Generator registry key.
    pub generator: &'static str,
    /// Target size (the family may round it).
    pub n: usize,
    /// Algorithm registry key.
    pub algorithm: &'static str,
    /// Sampled `(key, value)` parameter overrides (empty = defaults).
    pub params: Vec<(String, String)>,
    /// Transcript policy of the fast run.
    pub policy: TranscriptPolicy,
    /// Parallel worker count of the fast run (0 = sequential executor).
    pub threads: usize,
    /// Run seed.
    pub seed: u64,
}

impl FuzzCell {
    fn exec(&self) -> Exec {
        if self.threads == 0 {
            Exec::Sequential
        } else {
            Exec::Parallel {
                threads: self.threads,
            }
        }
    }

    /// The canonical [`CellKey`] of this cell — the identity the failure
    /// report prints and the `--exact` replay command is built from
    /// (`threads` is an executor knob, carried separately).
    pub fn key(&self) -> CellKey {
        CellKey::new(self.generator, self.n, self.seed, self.algorithm)
            .with_params(self.params.clone())
            .with_policy(self.policy)
    }
}

impl fmt::Display for FuzzCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}; threads={})", self.key(), self.threads)
    }
}

/// A confirmed disagreement, with its shrunk reproduction.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The cell as originally sampled.
    pub original: FuzzCell,
    /// The minimal failing cell after shrinking.
    pub shrunk: FuzzCell,
    /// What went wrong at the shrunk cell.
    pub message: String,
}

/// Outcome of a fuzz session.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cells sampled and checked.
    pub cases: usize,
    /// Cells per algorithm key (coverage evidence).
    pub per_algorithm: BTreeMap<&'static str, usize>,
    /// Cells per generator key.
    pub per_generator: BTreeMap<&'static str, usize>,
    /// Cells small enough for the brute-force layer.
    pub brute_checked: usize,
    /// Cells whose corrupted twin exercised the mutation leg.
    pub mutations_checked: usize,
    /// The first failure, shrunk, if any check tripped.
    pub failure: Option<FuzzFailure>,
}

/// Known-good sample values per tunable parameter, used to exercise the
/// `with_params` path without tripping its validation. One pair is
/// sampled at a time (some keys are mutually exclusive, e.g.
/// `ruling/det`'s `variant` vs `iterations`).
fn param_pool(algorithm: &str) -> &'static [(&'static str, &'static [&'static str])] {
    match algorithm {
        "mis/luby" => &[("mark-factor", &["0.25", "0.75", "1.0"])],
        "mis/degree-guided" => &[
            ("initial-desire", &["0.25", "0.4"]),
            ("mass-threshold", &["1.0", "4.0"]),
        ],
        "ruling/det" => &[
            ("variant", &["log-delta", "log-log-n"]),
            ("iterations", &["1", "2", "4"]),
        ],
        "matching/luby" => &[("mark-factor", &["0.1", "0.5", "1.0"])],
        "orientation/rand" => &[("contest-iterations", &["1", "4", "16"])],
        "orientation/det" => &[
            ("r", &["2", "3"]),
            ("finish-threshold", &["8", "64"]),
            ("max-depth", &["4", "12"]),
        ],
        "coloring/trial" => &[("extra-colors", &["1", "3"])],
        _ => &[],
    }
}

/// Deterministically corrupts a valid solution into one that violates
/// its problem's constraints (`None` when the graph is edgeless and no
/// single corruption is guaranteed to invalidate).
fn corrupt(g: &Graph, sol: &Solution, seed: u64) -> Option<Solution> {
    if g.m() == 0 {
        return None;
    }
    let mut rng = Rng::seed_from(seed ^ 0xBAD5EED);
    match sol {
        Solution::Mis { in_set } => {
            // Any single flip breaks an MIS: removing a member leaves it
            // undominated, adding a non-member breaks independence.
            let mut bad = in_set.clone();
            let v = rng.index(bad.len());
            bad[v] = !bad[v];
            Some(Solution::Mis { in_set: bad })
        }
        Solution::RulingSet { in_set, beta } => {
            // Adding a neighbor of a member breaks α = 2. A valid ruling
            // set on a graph with edges always has a member with a
            // neighbor (the set dominates both endpoints of some edge).
            let member = g.nodes().find(|&v| in_set[v] && g.degree(v) >= 1)?;
            let nbr = g.neighbor_ids(member).next()?;
            let mut bad = in_set.clone();
            bad[nbr] = true;
            Some(Solution::RulingSet {
                in_set: bad,
                beta: *beta,
            })
        }
        Solution::Matching { in_matching } => {
            // Any single flip breaks a maximal matching: adding an edge
            // conflicts with the matched endpoint maximality guarantees,
            // removing one leaves its endpoints jointly uncovered.
            let mut bad = in_matching.clone();
            let e = rng.index(bad.len());
            bad[e] = !bad[e];
            Some(Solution::Matching { in_matching: bad })
        }
        Solution::Orientation { orientation } => {
            // Point every edge of one node inward: a guaranteed sink.
            let v = g.nodes().max_by_key(|&v| g.degree(v))?;
            let mut bad = orientation.clone();
            for (_, e) in g.neighbors(v) {
                let (u, w) = g.endpoints(e);
                bad[e] = if v == w {
                    Orientation::Forward // u -> v
                } else {
                    debug_assert_eq!(v, u);
                    Orientation::Backward // w -> v
                };
            }
            Some(Solution::Orientation { orientation: bad })
        }
        Solution::Coloring { colors } => {
            // Copy a neighbor's color across an edge.
            let (_, u, v) = g.edges().next()?;
            let mut bad = colors.clone();
            bad[u] = bad[v];
            Some(Solution::Coloring { colors: bad })
        }
    }
}

/// Leg 8 of [`Session::check_cell`]: the `localavg-csr/v1` differential.
///
/// Serializes `g` to an in-memory buffer, requires the read-back graph
/// to be bit-identical with a footer equal to [`io::content_hash`], and
/// then byte-swaps each header count (`n` at bytes 16..24, `m` at
/// 24..32) to big-endian: any nonzero count stored big-endian decodes as
/// an astronomically large little-endian value, so the reader must
/// reject it as [`io::ReadError::HeaderOutOfRange`] for *that field* —
/// before the checksum, before any allocation sized by the lie.
fn check_csr_round_trip(g: &Graph) -> Result<(), String> {
    let mut bytes = Vec::new();
    io::write_graph(&mut bytes, g).map_err(|e| format!("csr write failed: {e}"))?;
    let (twin, footer) = io::read_graph_with_hash(&bytes[..])
        .map_err(|e| format!("csr round trip rejected a freshly written graph: {e}"))?;
    if &twin != g {
        return Err("csr round trip changed the graph".to_string());
    }
    if footer != io::content_hash(g) {
        return Err(format!(
            "csr footer {footer:#018x} disagrees with content_hash {:#018x}",
            io::content_hash(g)
        ));
    }
    for (field, at) in [("n", 16usize), ("m", 24usize)] {
        let word: [u8; 8] = bytes[at..at + 8].try_into().expect("8-byte header field");
        let swapped = u64::from_le_bytes(word).swap_bytes();
        if swapped == u64::from_le_bytes(word) {
            continue; // an all-zero count (edgeless graph) swaps to itself
        }
        let mut bad = bytes.clone();
        bad[at..at + 8].copy_from_slice(&swapped.to_le_bytes());
        match io::read_graph(&bad[..]) {
            Err(io::ReadError::HeaderOutOfRange { field: f, value }) if f == field => {
                if value != swapped {
                    return Err(format!(
                        "big-endian `{field}` rejected with the wrong value {value}"
                    ));
                }
            }
            Ok(_) => {
                return Err(format!(
                    "big-endian `{field}` header was accepted as a valid graph"
                ));
            }
            Err(e) => {
                return Err(format!(
                    "big-endian `{field}` header rejected for the wrong reason: {e}"
                ));
            }
        }
    }
    Ok(())
}

struct Session {
    /// One fixed instance per (generator, n), exactly like the sweep.
    graphs: BTreeMap<(&'static str, usize), Graph>,
    master_seed: u64,
    workspace: Workspace,
}

impl Session {
    fn ensure_graph(&mut self, generator: &'static str, n: usize) -> Result<(), SweepError> {
        if !self.graphs.contains_key(&(generator, n)) {
            let g = generators::registry()
                .get(generator)
                .expect("validated key")
                .build(n, sweep::graph_seed(self.master_seed, generator, n))
                .map_err(|e| SweepError::GraphBuild {
                    generator: generator.to_string(),
                    n,
                    message: format!("{e:?}"),
                })?;
            self.graphs.insert((generator, n), g);
        }
        Ok(())
    }

    /// Runs every differential check for one cell. `Ok(stats)` reports
    /// which optional layers fired; `Err` carries the failure message.
    fn check_cell(&mut self, cell: &FuzzCell) -> Result<(bool, bool), String> {
        let kvs: Vec<(&str, &str)> = cell
            .params
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let algo = registry()
            .get(cell.algorithm)
            .ok_or_else(|| format!("unknown algorithm `{}`", cell.algorithm))?
            .with_params(&kvs)
            .map_err(|e| format!("param rejection: {e}"))?;
        let (generator, n) = (cell.generator, cell.n);
        self.ensure_graph(generator, n)
            .map_err(|e| format!("graph build failed: {e}"))?;
        // Split borrows: the cached instance is read-only while the
        // workspace arenas mutate.
        let Session {
            graphs, workspace, ..
        } = self;
        let g = &graphs[&(generator, n)];
        if algo.problem().min_degree() > g.min_degree() {
            return Err(format!(
                "domain filter breach: {} on {} (min degree {} < {})",
                cell.algorithm,
                cell.generator,
                g.min_degree(),
                algo.problem().min_degree()
            ));
        }
        if algo.requires_tree() && !localavg_graph::analysis::is_forest(g) {
            return Err(format!(
                "domain filter breach: {} only runs on forests but {} built a cyclic graph",
                cell.algorithm, cell.generator
            ));
        }
        let fast_spec = RunSpec::new(cell.seed)
            .with_exec(cell.exec())
            .with_transcript(cell.policy);
        let run = algo.execute_in(g, &fast_spec, workspace);

        // 1. Both validators accept.
        run.verify(g)
            .map_err(|e| format!("fast validator rejected the run: {e}"))?;
        check::verify_solution(g, &run.solution)
            .map_err(|e| format!("oracle validator rejected the run: {e}"))?;

        // 2. Independent metrics recomputation + per-run Appendix A chain.
        check::check_metrics(g, &run).map_err(|e| format!("metrics oracle: {e}"))?;

        // 9. Distributional summaries: the same shapes the sweep pools
        //    per group, checked on the single-run sample. The node-mean
        //    ≤ node-p99 claim is the one the emitted tail statistics
        //    stand on (a nearest-rank p99 covers ≥ 99% of the mass, and
        //    completion times are never concentrated in the top 1% on
        //    instances the samplers build).
        let times = run.completion_times(g);
        let d_node = Distribution::from_rounds(&times.node);
        let d_edge = Distribution::from_rounds(&times.edge);
        for (label, d) in [("node", &d_node), ("edge", &d_edge)] {
            if !d.is_well_ordered() {
                return Err(format!(
                    "{label} time distribution is not well ordered: {d:?}"
                ));
            }
        }
        if d_node.mean > d_node.p99 as f64 {
            return Err(format!(
                "node mean {} exceeds node p99 {}",
                d_node.mean, d_node.p99
            ));
        }
        if run.transcript.audited() {
            let d_bits = Distribution::from_values(&run.transcript.node_bits_sent);
            if !d_bits.is_well_ordered() {
                return Err(format!(
                    "sent-volume distribution is not well ordered: {d_bits:?}"
                ));
            }
        }

        // 3. Canonical re-run: sequential, full transcript, fresh arenas.
        let canon = algo.execute(g, &RunSpec::new(cell.seed));
        if canon.solution != run.solution {
            return Err(format!(
                "solution differs from the canonical run under policy={} threads={}",
                cell.policy.label(),
                cell.threads
            ));
        }
        if canon.completion_times(g) != times {
            return Err(format!(
                "completion times differ from the canonical run under policy={} threads={}",
                cell.policy.label(),
                cell.threads
            ));
        }

        // 6. Frontier decay: the canonical run records the engine's O(1)
        //    live counter after every round; it must replay exactly from
        //    the per-node termination ledger.
        let ledger = &canon.transcript.live_after_round;
        if ledger.len() != canon.transcript.rounds as usize + 1 {
            return Err(format!(
                "live ledger has {} entries for {} rounds",
                ledger.len(),
                canon.transcript.rounds
            ));
        }
        for (r, &live) in ledger.iter().enumerate() {
            let recount = canon
                .transcript
                .node_halt_round
                .iter()
                .filter(|&&h| h > r)
                .count();
            if live != recount {
                return Err(format!(
                    "live counter diverges from the termination ledger at round {r}: \
                     engine says {live}, recount says {recount}"
                ));
            }
            if r + 1 == ledger.len() && live != 0 {
                return Err(format!("final live count is {live}, not zero"));
            }
        }
        if ledger.windows(2).any(|w| w[0] < w[1]) {
            return Err("live frontier grew between rounds".to_string());
        }

        // 7. Chunk-geometry leg: one node per chunk, same cell, same
        //    arenas — the schedule must be invisible in the bytes.
        let shredded = algo.execute_in(g, &fast_spec.clone().with_chunk_nodes(Some(1)), workspace);
        if shredded.solution != run.solution || shredded.transcript != run.transcript {
            return Err(format!(
                "chunk-size 1 diverges from the default geometry under policy={} threads={}",
                cell.policy.label(),
                cell.threads
            ));
        }

        // 8. Serialization leg: the fuzz sizes are small enough to
        //    round-trip the instance through localavg-csr/v1 on every
        //    case. The read-back graph must be bit-identical, the footer
        //    must equal the content hash, and big-endian header counts
        //    must be rejected as out-of-range, never misread.
        check_csr_round_trip(g)?;

        // 4. Brute-force optimality bounds on tiny instances.
        let brute = g.n() <= check::BRUTE_MAX_NODES;
        if brute {
            check::check_brute_bounds(g, &run.solution)
                .map_err(|e| format!("brute-force bound: {e}"))?;
        }

        // 5. Mutation leg: a corrupted solution must fail on both sides.
        let mutated = corrupt(g, &run.solution, cell.seed);
        if let Some(bad) = &mutated {
            if check::verify_solution(g, bad).is_ok() {
                return Err("oracle validator accepted a corrupted solution".to_string());
            }
            let mut twin = run.clone();
            twin.solution = bad.clone();
            if twin.verify(g).is_ok() {
                return Err("fast validator accepted a corrupted solution".to_string());
            }
        }
        Ok((brute, mutated.is_some()))
    }
}

/// The compatible sampling domain: one entry per (family, size) pair
/// with the algorithms whose domain requirement the family guarantees.
/// Pairs with no eligible algorithm are dropped here, so sampling can
/// never land on an empty choice.
type Domain = Vec<(&'static str, usize, Vec<&'static dyn DynAlgorithm>)>;

fn sample_domain(
    spec: &FuzzSpec,
    gens: &[&'static str],
    algos: &[&'static dyn DynAlgorithm],
) -> Domain {
    let mut domain = Vec::new();
    for &generator in gens {
        let fam = generators::registry().get(generator).expect("validated");
        for &n in &spec.sizes {
            let eligible: Vec<&'static dyn DynAlgorithm> = algos
                .iter()
                .copied()
                .filter(|a| {
                    a.problem().min_degree() <= fam.min_degree(n)
                        && (!a.requires_tree() || fam.is_tree())
                })
                .collect();
            if !eligible.is_empty() {
                domain.push((generator, n, eligible));
            }
        }
    }
    domain
}

/// Samples one cell from the case substream.
fn sample_cell(spec: &FuzzSpec, domain: &Domain, case: u64) -> FuzzCell {
    let mut rng = Rng::seed_from(spec.master_seed).fork(0xF0CC_u64 ^ case);
    let (generator, n, eligible) = &domain[rng.index(domain.len())];
    let algo = eligible[rng.index(eligible.len())];
    let pool = param_pool(algo.name());
    let params = if !pool.is_empty() && rng.chance(0.5) {
        let (key, values) = pool[rng.index(pool.len())];
        vec![(key.to_string(), values[rng.index(values.len())].to_string())]
    } else {
        Vec::new()
    };
    let policy = [
        TranscriptPolicy::Full,
        TranscriptPolicy::CompletionsOnly,
        TranscriptPolicy::None,
    ][rng.index(3)];
    let threads = [0usize, 2, 4][rng.index(3)];
    FuzzCell {
        generator,
        n: *n,
        algorithm: algo.name(),
        params,
        policy,
        threads,
        seed: rng.next_u64() % 1_000,
    }
}

/// Shrinks a failing cell to a minimal failing tuple: smaller sizes
/// first (the biggest win for a human), then default params, full
/// transcript, sequential executor, smaller seeds. Each accepted step
/// must still fail; the loop runs to fixpoint.
fn shrink(session: &mut Session, spec: &FuzzSpec, cell: &FuzzCell, message: String) -> FuzzFailure {
    let mut sizes = spec.sizes.clone();
    sizes.sort_unstable();
    let mut cur = cell.clone();
    let mut msg = message;
    loop {
        let mut improved = false;
        for &n in sizes.iter().filter(|&&n| n < cur.n) {
            let cand = FuzzCell { n, ..cur.clone() };
            if let Err(m) = session.check_cell(&cand) {
                (cur, msg) = (cand, m);
                improved = true;
                break;
            }
        }
        if !cur.params.is_empty() {
            let cand = FuzzCell {
                params: Vec::new(),
                ..cur.clone()
            };
            if let Err(m) = session.check_cell(&cand) {
                (cur, msg) = (cand, m);
                improved = true;
            }
        }
        if cur.policy != TranscriptPolicy::Full {
            let cand = FuzzCell {
                policy: TranscriptPolicy::Full,
                ..cur.clone()
            };
            if let Err(m) = session.check_cell(&cand) {
                (cur, msg) = (cand, m);
                improved = true;
            }
        }
        if cur.threads != 0 {
            let cand = FuzzCell {
                threads: 0,
                ..cur.clone()
            };
            if let Err(m) = session.check_cell(&cand) {
                (cur, msg) = (cand, m);
                improved = true;
            }
        }
        for seed in 0..cur.seed.min(8) {
            let cand = FuzzCell {
                seed,
                ..cur.clone()
            };
            if let Err(m) = session.check_cell(&cand) {
                (cur, msg) = (cand, m);
                improved = true;
                break;
            }
        }
        if !improved {
            return FuzzFailure {
                original: cell.clone(),
                shrunk: cur,
                message: msg,
            };
        }
    }
}

/// Runs the differential harness.
///
/// # Errors
///
/// Returns [`SweepError`] for unknown registry keys or empty axes (a
/// *failing check* is not an error — it is reported in
/// [`FuzzReport::failure`], shrunk).
pub fn run(spec: &FuzzSpec) -> Result<FuzzReport, SweepError> {
    if spec.cases == 0
        || spec.algorithms.is_empty()
        || spec.generators.is_empty()
        || spec.sizes.is_empty()
    {
        return Err(SweepError::EmptyAxis);
    }
    let mut algos: Vec<&'static dyn DynAlgorithm> = Vec::new();
    for name in &spec.algorithms {
        match registry().get(name) {
            Some(a) => algos.push(a),
            None => {
                return Err(SweepError::UnknownAlgorithm {
                    name: name.clone(),
                    suggestion: registry().suggest(name).map(str::to_string),
                })
            }
        }
    }
    let mut gens: Vec<&'static str> = Vec::new();
    for name in &spec.generators {
        match generators::registry().get(name) {
            Some(g) => gens.push(g.name()),
            None => {
                return Err(SweepError::UnknownGenerator {
                    name: name.clone(),
                    suggestion: generators::registry().suggest(name).map(str::to_string),
                })
            }
        }
    }

    let mut session = Session {
        graphs: BTreeMap::new(),
        master_seed: spec.master_seed,
        workspace: Workspace::new(),
    };
    let mut report = FuzzReport {
        cases: 0,
        per_algorithm: BTreeMap::new(),
        per_generator: BTreeMap::new(),
        brute_checked: 0,
        mutations_checked: 0,
        failure: None,
    };

    // `--exact` replay: one fully pinned cell, no sampling, no shrinking
    // (the tuple is already minimal — shrinking would move the pins).
    if let Some(exact) = &spec.exact {
        if gens.len() != 1 || algos.len() != 1 || spec.sizes.len() != 1 {
            return Err(SweepError::Param {
                message: "--exact requires exactly one generator, one algorithm, and one size"
                    .to_string(),
            });
        }
        let cell = FuzzCell {
            generator: gens[0],
            n: spec.sizes[0],
            algorithm: algos[0].name(),
            params: exact.params.clone(),
            policy: exact.policy,
            threads: exact.threads,
            seed: exact.seed,
        };
        report.cases = 1;
        *report.per_algorithm.entry(cell.algorithm).or_insert(0) += 1;
        *report.per_generator.entry(cell.generator).or_insert(0) += 1;
        match session.check_cell(&cell) {
            Ok((brute, mutated)) => {
                report.brute_checked += usize::from(brute);
                report.mutations_checked += usize::from(mutated);
            }
            Err(message) => {
                report.failure = Some(FuzzFailure {
                    original: cell.clone(),
                    shrunk: cell,
                    message,
                });
            }
        }
        return Ok(report);
    }

    let domain = sample_domain(spec, &gens, &algos);
    if domain.is_empty() {
        return Err(SweepError::NoCompatibleCells);
    }
    for case in 0..spec.cases as u64 {
        let cell = sample_cell(spec, &domain, case);
        report.cases += 1;
        *report.per_algorithm.entry(cell.algorithm).or_insert(0) += 1;
        *report.per_generator.entry(cell.generator).or_insert(0) += 1;
        match session.check_cell(&cell) {
            Ok((brute, mutated)) => {
                report.brute_checked += usize::from(brute);
                report.mutations_checked += usize::from(mutated);
            }
            Err(message) => {
                report.failure = Some(shrink(&mut session, spec, &cell, message));
                return Ok(report);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> FuzzSpec {
        FuzzSpec {
            cases: 24,
            master_seed: 5,
            sizes: vec![8, 12, 16, 32],
            ..FuzzSpec::default()
        }
    }

    #[test]
    fn quick_fuzz_session_is_clean() {
        let report = run(&quick_spec()).expect("valid spec");
        assert_eq!(report.cases, 24);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.brute_checked > 0, "tiny sizes must hit brute force");
        assert!(report.mutations_checked > 0);
        assert!(!report.per_algorithm.is_empty());
    }

    fn resolve(spec: &FuzzSpec) -> (Vec<&'static str>, Vec<&'static dyn DynAlgorithm>) {
        let gens = spec
            .generators
            .iter()
            .map(|g| generators::registry().get(g).unwrap().name())
            .collect();
        let algos = spec
            .algorithms
            .iter()
            .map(|a| registry().get(a).unwrap())
            .collect();
        (gens, algos)
    }

    #[test]
    fn sampling_is_deterministic() {
        let spec = quick_spec();
        let (gens, algos) = resolve(&spec);
        let domain = sample_domain(&spec, &gens, &algos);
        for case in 0..10 {
            let a = sample_cell(&spec, &domain, case);
            let b = sample_cell(&spec, &domain, case);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sampling_respects_domain_filters() {
        let spec = FuzzSpec {
            cases: 64,
            generators: vec!["tree/random".into(), "path".into()],
            ..quick_spec()
        };
        let (gens, algos) = resolve(&spec);
        let domain = sample_domain(&spec, &gens, &algos);
        assert!(!domain.is_empty());
        for case in 0..64 {
            let cell = sample_cell(&spec, &domain, case);
            assert!(
                !cell.algorithm.starts_with("orientation/"),
                "sinkless orientation sampled on a tree family"
            );
        }
    }

    #[test]
    fn tree_rc_samples_only_on_tree_families() {
        // Mixed axes: `*/tree-rc` must never land on the cyclic families,
        // and must still be reachable on the tree families.
        let spec = FuzzSpec {
            cases: 96,
            generators: vec!["gnp/deg8".into(), "tree/random".into(), "cycle".into()],
            ..quick_spec()
        };
        let (gens, algos) = resolve(&spec);
        let domain = sample_domain(&spec, &gens, &algos);
        let mut seen_on_tree = false;
        for case in 0..512 {
            let cell = sample_cell(&spec, &domain, case);
            if cell.algorithm.ends_with("/tree-rc") {
                let fam = generators::registry().get(cell.generator).unwrap();
                assert!(
                    fam.is_tree(),
                    "{} sampled on {}",
                    cell.algorithm,
                    cell.generator
                );
                seen_on_tree = true;
            }
        }
        assert!(seen_on_tree, "tree-rc never sampled on the tree family");
    }

    #[test]
    fn forcing_tree_rc_onto_a_cyclic_family_is_a_clean_check_error() {
        let mut session = Session {
            graphs: BTreeMap::new(),
            master_seed: 1,
            workspace: Workspace::new(),
        };
        let cell = FuzzCell {
            generator: "cycle",
            n: 16,
            algorithm: "mis/tree-rc",
            params: Vec::new(),
            policy: TranscriptPolicy::Full,
            threads: 0,
            seed: 0,
        };
        let err = session.check_cell(&cell).unwrap_err();
        assert!(
            err.contains("only runs on forests"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn incompatible_axes_error_instead_of_panicking() {
        // Every selected algorithm's domain exceeds every selected
        // family's guarantee: a clean error, not an index-out-of-bounds
        // in the sampler.
        let spec = FuzzSpec {
            algorithms: vec!["orientation/rand".into(), "orientation/det".into()],
            generators: vec!["tree/spider".into(), "path".into()],
            ..quick_spec()
        };
        assert!(matches!(run(&spec), Err(SweepError::NoCompatibleCells)));
    }

    fn bad_run_err(spec: &FuzzSpec) -> SweepError {
        match run(spec) {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        }
    }

    #[test]
    fn exact_mode_replays_a_pinned_cell_verbatim() {
        // A pinned invalid-param cell must fail identically through the
        // --exact path, with the reported tuple equal to the pins.
        let spec = FuzzSpec {
            cases: 1,
            master_seed: 5,
            algorithms: vec!["mis/luby".into()],
            generators: vec!["path".into()],
            sizes: vec![8],
            exact: Some(ExactCell {
                seed: 3,
                policy: TranscriptPolicy::None,
                threads: 2,
                params: vec![("mark-factor".into(), "2.5".into())],
            }),
        };
        let report = run(&spec).expect("valid spec");
        let failure = report.failure.expect("invalid param must fail");
        assert_eq!(failure.shrunk.seed, 3);
        assert_eq!(failure.shrunk.policy, TranscriptPolicy::None);
        assert_eq!(failure.shrunk.threads, 2);
        assert!(failure.message.contains("param rejection"));
        // The same pins with a valid value pass.
        let mut ok = spec.clone();
        ok.exact = Some(ExactCell {
            seed: 3,
            policy: TranscriptPolicy::None,
            threads: 2,
            params: vec![("mark-factor".into(), "0.5".into())],
        });
        assert!(run(&ok).expect("valid spec").failure.is_none());
        // Multiple generators are rejected up front in exact mode.
        let mut bad = spec.clone();
        bad.generators.push("cycle".into());
        assert!(matches!(bad_run_err(&bad), SweepError::Param { .. }));
    }

    #[test]
    fn corrupted_solutions_are_rejected_by_both_validators() {
        // The mutation leg's own guarantee, checked directly on one run
        // per problem family.
        let spec = RunSpec::new(3);
        let mut rng = Rng::seed_from(9);
        let g = localavg_graph::gen::random_regular(24, 4, &mut rng).unwrap();
        let tree = localavg_graph::gen::random_tree(24, &mut rng);
        for algo in registry().iter() {
            let g = if algo.requires_tree() { &tree } else { &g };
            let run = algo.execute(g, &spec);
            let bad = corrupt(g, &run.solution, 3).expect("graph has edges");
            assert!(
                check::verify_solution(g, &bad).is_err(),
                "{}: oracle accepted a corrupted solution",
                algo.name()
            );
            let mut twin = run.clone();
            twin.solution = bad;
            assert!(
                twin.verify(g).is_err(),
                "{}: fast validator accepted a corrupted solution",
                algo.name()
            );
        }
    }

    #[test]
    fn a_broken_run_shrinks_to_a_minimal_tuple() {
        // Feed the harness a cell that *will* fail (a param rejection
        // masquerades as a check failure) and watch shrinking reduce the
        // incidental axes.
        let spec = quick_spec();
        let mut session = Session {
            graphs: BTreeMap::new(),
            master_seed: spec.master_seed,
            workspace: Workspace::new(),
        };
        let cell = FuzzCell {
            generator: "path",
            n: 32,
            algorithm: "mis/luby",
            params: vec![("mark-factor".into(), "2.5".into())], // invalid: > 1
            policy: TranscriptPolicy::None,
            threads: 4,
            seed: 700,
        };
        let failure = shrink(&mut session, &spec, &cell, "seed message".into());
        // Params are the actual culprit, so they survive; everything
        // incidental shrinks away.
        assert_eq!(
            failure.shrunk.params,
            vec![("mark-factor".to_string(), "2.5".to_string())]
        );
        assert_eq!(failure.shrunk.n, 8);
        assert_eq!(failure.shrunk.policy, TranscriptPolicy::Full);
        assert_eq!(failure.shrunk.threads, 0);
        assert_eq!(failure.shrunk.seed, 0);
        assert!(failure.message.contains("param rejection"));
    }

    #[test]
    fn csr_leg_accepts_valid_instances_including_edgeless() {
        // The serialization leg must pass on any graph the sampler can
        // build — including the m = 0 corner where the big-endian swap
        // of the edge count is a no-op and the sub-check is skipped.
        let mut rng = Rng::seed_from(4);
        let g = localavg_graph::gen::gnp(32, 0.2, &mut rng);
        check_csr_round_trip(&g).expect("valid instance");
        check_csr_round_trip(&Graph::empty(5)).expect("edgeless instance");
    }

    #[test]
    fn unknown_keys_error_with_suggestions() {
        let mut spec = quick_spec();
        spec.generators.push("lb/clustertree/1".into());
        match run(&spec) {
            Err(SweepError::UnknownGenerator { suggestion, .. }) => {
                assert_eq!(suggestion.as_deref(), Some("lb/cluster-tree/1"));
            }
            other => panic!("expected UnknownGenerator, got {other:?}"),
        }
        let mut spec = quick_spec();
        spec.algorithms = vec!["mis/lubby".into()];
        assert!(matches!(
            run(&spec),
            Err(SweepError::UnknownAlgorithm { .. })
        ));
    }
}
