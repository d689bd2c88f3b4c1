//! Integration tests spanning the whole workspace: algorithms dispatched
//! through the unified registry running on graphs from `localavg-graph`
//! and `localavg-lowerbound`, with metrics cross-checked on the shared
//! `AlgoRun` result type.

use localavg::core::algo::{registry, AlgoRun, RunSpec, Solution};
use localavg::core::metrics::{CompletionTimes, RunAggregate};
use localavg::graph::{gen, rng::Rng};
use localavg::lowerbound::base_graph::{BaseGraph, LiftedGk};
use localavg::lowerbound::constructions::DoubledGk;

fn lifted(k: usize, beta: u64, q: usize, seed: u64) -> LiftedGk {
    let base = BaseGraph::build(k, beta, 4_000_000).expect("base graph");
    let mut rng = Rng::seed_from(seed);
    LiftedGk::build(base, q, &mut rng)
}

fn run(name: &str, g: &localavg::graph::Graph, seed: u64) -> AlgoRun {
    let r = registry()
        .get(name)
        .unwrap_or_else(|| panic!("{name} not registered"))
        .execute(g, &RunSpec::new(seed));
    r.verify(g).unwrap_or_else(|e| panic!("{name}: {e}"));
    r
}

#[test]
fn every_algorithm_solves_the_lower_bound_graph() {
    let lg = lifted(1, 4, 2, 3);
    let g = lg.graph();
    // G̃_k has minimum degree >= 3, so even sinkless orientation is in
    // scope: the whole registry must verify.
    assert!(g.min_degree() >= 3);
    for algo in registry().iter() {
        if algo.requires_tree() {
            // The lifted lower-bound graph is 3-regular, hence cyclic.
            continue;
        }
        let r = algo.execute(g, &RunSpec::new(1));
        r.verify(g)
            .unwrap_or_else(|e| panic!("{} failed on G̃_1: {e}", algo.name()));
        assert_eq!(r.algorithm, algo.name());
    }
}

#[test]
fn trial_coloring_respects_the_delta_plus_one_palette() {
    // verify() only checks properness (coloring/linial legitimately uses
    // O(Δ² log² Δ) colors); the §1.2 (Δ+1) bound is specific to the
    // random-trial algorithm and is asserted here.
    let lg = lifted(1, 4, 2, 3);
    let g = lg.graph();
    let r = run("coloring/trial", g, 1);
    let colors = r.solution.colors().expect("coloring output");
    assert!(
        colors.iter().all(|&c| c <= g.max_degree()),
        "random trial must stay within the Δ+1 palette"
    );
}

#[test]
fn theorem2_beats_mis_on_the_lower_bound_family() {
    // The headline separation: on G̃_k the (2,2)-ruling set node-average
    // is (much) smaller than the MIS node-average once k >= 1.
    let lg = lifted(2, 4, 2, 5);
    let g = lg.graph();
    let mis_avg = run("mis/luby", g, 2).report(g).node_averaged;
    let rs_avg = run("ruling/two-two", g, 2).report(g).node_averaged;
    assert!(
        rs_avg < mis_avg,
        "(2,2)-RS node-avg {rs_avg} should beat MIS node-avg {mis_avg}"
    );
}

#[test]
fn s0_stalls_under_mis_but_not_under_ruling_set() {
    let k = 1;
    let lg = lifted(k, 4, 4, 7);
    let g = lg.graph();
    let s0 = lg.s0();

    let r = run("mis/luby", g, 11);
    let undecided_frac = s0
        .iter()
        .filter(|&&v| r.transcript.node_commit_round[v] > 3 * k)
        .count() as f64
        / s0.len() as f64;
    assert!(
        undecided_frac > 0.3,
        "a large fraction of S(c0) must stall beyond round k: {undecided_frac}"
    );
}

#[test]
fn doubled_construction_runs_matching() {
    // β must be large relative to k for S(c0) to dominate (the paper takes
    // β = Ω(k² log k)); then at least half of S(c0) can only be matched
    // through the cross perfect matching.
    let lg = lifted(1, 8, 1, 9);
    let d = DoubledGk::build(&lg);
    let r = run("matching/luby", &d.graph, 3);
    let in_matching = r.solution.matching().expect("matching output");
    assert!(
        d.cross_fraction(in_matching) > 0.2,
        "cross fraction {}",
        d.cross_fraction(in_matching)
    );
}

#[test]
fn orientation_on_lower_bound_graph() {
    // G̃_k has minimum degree >= 3 (every cluster label is at least 2β^0).
    let lg = lifted(1, 4, 2, 13);
    let g = lg.graph();
    assert!(g.min_degree() >= 3);
    run("orientation/rand", g, 3);
    run("orientation/det", g, 0);
}

#[test]
fn ruling_det_specs_resolve_per_graph() {
    let mut rng = Rng::seed_from(19);
    let g = gen::random_regular(128, 4, &mut rng).unwrap();
    let det = registry().get("ruling/det").expect("registered");
    for variant in ["log-delta", "log-log-n"] {
        let r = det
            .with_params(&[("variant", variant)])
            .expect("a registered variant")
            .execute(&g, &RunSpec::new(0));
        r.verify(&g).expect("valid ruling set");
        match r.solution {
            Solution::RulingSet { beta, .. } => assert!(beta >= 3),
            ref other => panic!("wrong solution kind: {other:?}"),
        }
    }
}

#[test]
fn appendix_a_chain_on_real_runs() {
    let mut rng = Rng::seed_from(17);
    let g = gen::random_regular(256, 4, &mut rng).unwrap();
    let runs: Vec<AlgoRun> = (0..8u64).map(|s| run("mis/luby", &g, s)).collect();
    let times: Vec<CompletionTimes> = runs.iter().map(|r| r.completion_times(&g)).collect();
    let rounds: Vec<usize> = runs.iter().map(|r| r.worst_case()).collect();
    let agg = RunAggregate::from_times(&times, &rounds);
    assert!(agg.inequality_chain_holds());
    assert!(agg.node_averaged > 0.0);
}

#[test]
fn congest_audit_across_algorithms() {
    // Theorems 2-5 are CONGEST algorithms: O(log n) bits per message.
    let mut rng = Rng::seed_from(23);
    let g = gen::random_regular(128, 6, &mut rng).unwrap();
    let bits_cap = 192; // generous O(log n) allowance
    for name in [
        "mis/luby",
        "ruling/two-two",
        "ruling/det",
        "matching/luby",
        "matching/det",
    ] {
        let r = run(name, &g, 1);
        let peak = r
            .transcript
            .peak_message_bits()
            .expect("full-policy run is audited");
        assert!(
            peak <= bits_cap,
            "{name} exceeded the CONGEST budget: {peak} bits"
        );
    }
}

#[test]
fn def1_edge_average_dominates_one_endpoint_convention() {
    let lg = lifted(1, 4, 2, 29);
    let g = lg.graph();
    let rep = run("mis/luby", g, 5).report(g);
    assert!(rep.edge_averaged_one_endpoint <= rep.edge_averaged + 1e-9);
    assert!(rep.node_averaged <= rep.rounds as f64 + 1e-9);
}
