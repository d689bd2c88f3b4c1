//! Registry integration test (the unified-API acceptance check): every
//! registered algorithm runs on a small random-regular graph and a path,
//! its output verifies, and the Appendix A inequality chain holds on the
//! aggregated reports.

use localavg::core::algo::{registry, AlgoRun, Problem, RunSpec};
use localavg::core::metrics::{CompletionTimes, RunAggregate};
use localavg::graph::{gen, rng::Rng, Graph};

/// Runs `algo` for several seeds and checks the Appendix A chain
/// `AVG_V ≤ AVG^w_V ≤ EXP_V ≤ E[WORST]` on the aggregate.
fn check_inequality_chain(g: &Graph, runs: &[AlgoRun]) {
    let times: Vec<CompletionTimes> = runs.iter().map(|r| r.completion_times(g)).collect();
    let rounds: Vec<usize> = runs.iter().map(|r| r.worst_case()).collect();
    let agg = RunAggregate::from_times(&times, &rounds);
    assert!(
        agg.inequality_chain_holds(),
        "inequality chain violated: AVG {} / EXP {} / WORST {}",
        agg.node_averaged,
        agg.node_expected,
        agg.worst_case
    );
}

#[test]
fn every_registered_algorithm_runs_on_a_regular_graph() {
    // d = 4 ≥ 3 keeps every problem's domain (incl. sinkless orientation).
    let mut rng = Rng::seed_from(0xBEEF);
    let g = gen::random_regular(64, 4, &mut rng).expect("4-regular graph");
    assert!(!registry().is_empty());
    for algo in registry().iter() {
        assert!(algo.problem().min_degree() <= g.min_degree());
        if algo.requires_tree() {
            // `*/tree-rc` is forest-only; the path test below covers it.
            continue;
        }
        let runs: Vec<AlgoRun> = (0..4u64)
            .map(|s| algo.execute(&g, &RunSpec::new(s + 1)))
            .collect();
        for r in &runs {
            r.verify(&g)
                .unwrap_or_else(|e| panic!("{} invalid on the regular graph: {e}", algo.name()));
            assert_eq!(r.problem(), algo.problem());
            assert_eq!(r.algorithm, algo.name());
        }
        check_inequality_chain(&g, &runs);
    }
}

#[test]
fn every_registered_algorithm_runs_on_a_path() {
    // A path has min degree 1: every algorithm except sinkless
    // orientation (domain: min degree 3) must solve it.
    let g = gen::path(24);
    for algo in registry().iter() {
        if algo.problem().min_degree() > g.min_degree() {
            assert_eq!(
                algo.problem(),
                Problem::SinklessOrientation,
                "only sinkless orientation may skip the path"
            );
            continue;
        }
        let runs: Vec<AlgoRun> = (0..4u64)
            .map(|s| algo.execute(&g, &RunSpec::new(s + 1)))
            .collect();
        for r in &runs {
            r.verify(&g)
                .unwrap_or_else(|e| panic!("{} invalid on the path: {e}", algo.name()));
            assert_eq!(r.algorithm, algo.name());
        }
        check_inequality_chain(&g, &runs);
    }
}

#[test]
fn registry_covers_all_five_families() {
    let problems: Vec<Problem> = registry().iter().map(|a| a.problem()).collect();
    for p in [
        Problem::Mis,
        Problem::RulingSet,
        Problem::MaximalMatching,
        Problem::SinklessOrientation,
        Problem::Coloring,
    ] {
        assert!(problems.contains(&p), "no registered algorithm for {p}");
    }
}

#[test]
fn lookup_and_suggestions() {
    assert!(registry().get("mis/luby").is_some());
    assert!(registry().get("no/such-algo").is_none());
    let hint = registry().suggest("mis/lubi").expect("nonempty registry");
    assert_eq!(hint, "mis/luby");
}
