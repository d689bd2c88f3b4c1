//! Cross-executor and cross-run determinism: the same seed must produce
//! bit-identical transcripts sequentially, in parallel, and across calls —
//! checked uniformly through the registry.

use localavg::core::algo::{registry, Exec, RunSpec};
use localavg::graph::{gen, rng::Rng};
use localavg::sim::engine::resolve_threads;

#[test]
fn luby_mis_is_seed_deterministic() {
    let mut rng = Rng::seed_from(3);
    let g = gen::random_regular(256, 6, &mut rng).unwrap();
    let luby = registry().get("mis/luby").unwrap();
    let a = luby.execute(&g, &RunSpec::new(42));
    let b = luby.execute(&g, &RunSpec::new(42));
    assert_eq!(a.solution, b.solution);
    assert_eq!(
        a.transcript.node_commit_round,
        b.transcript.node_commit_round
    );
    let c = luby.execute(&g, &RunSpec::new(43));
    assert_ne!(a.solution, c.solution, "different seeds should differ");
}

#[test]
fn every_randomized_algorithm_is_seed_deterministic() {
    let mut rng = Rng::seed_from(4);
    let g = gen::random_regular(96, 4, &mut rng).unwrap();
    for algo in registry().iter() {
        if algo.problem().min_degree() > g.min_degree()
            || (algo.requires_tree() && !localavg::graph::analysis::is_forest(&g))
        {
            continue;
        }
        let a = algo.execute(&g, &RunSpec::new(9));
        let b = algo.execute(&g, &RunSpec::new(9));
        assert_eq!(
            a.solution,
            b.solution,
            "{} is not reproducible",
            algo.name()
        );
        assert_eq!(
            a.transcript.node_commit_round,
            b.transcript.node_commit_round,
            "{} commit clocks differ",
            algo.name()
        );
        assert_eq!(
            a.transcript.edge_commit_round,
            b.transcript.edge_commit_round,
            "{} edge clocks differ",
            algo.name()
        );
    }
}

#[test]
fn parallel_and_sequential_executors_are_bit_identical() {
    // Every registry algorithm, on a random tree and a grid (instances big
    // enough that the parallel executor actually chunks), at 1/2/8 worker
    // threads and at 0 (all cores): transcripts must match the sequential executor bit for bit
    // — outputs, commit clocks, halt clocks, and the CONGEST audit.
    for family in ["tree/random", "grid"] {
        let g = gen::registry()
            .get(family)
            .expect("registered family")
            .build(300, 17)
            .expect("instance");
        assert!(
            g.n() >= localavg::sim::engine::PARALLEL_MIN_NODES,
            "instance too small to exercise chunking"
        );
        for algo in registry().iter() {
            if algo.problem().min_degree() > g.min_degree()
                || (algo.requires_tree() && !localavg::graph::analysis::is_forest(&g))
            {
                continue;
            }
            let seq = algo.execute(&g, &RunSpec::new(5));
            for threads in [0usize, 1, 2, 8] {
                let par = algo.execute(&g, &RunSpec::new(5).with_exec(Exec::Parallel { threads }));
                let label = format!("{} on {family} with {threads} thread(s)", algo.name());
                assert_eq!(seq.solution, par.solution, "{label}: outputs differ");
                assert_eq!(
                    seq.transcript.node_commit_round, par.transcript.node_commit_round,
                    "{label}: node commit clocks differ"
                );
                assert_eq!(
                    seq.transcript.edge_commit_round, par.transcript.edge_commit_round,
                    "{label}: edge commit clocks differ"
                );
                assert_eq!(
                    seq.transcript.node_halt_round, par.transcript.node_halt_round,
                    "{label}: halt clocks differ"
                );
                assert_eq!(
                    seq.transcript.messages_sent, par.transcript.messages_sent,
                    "{label}: message counts differ"
                );
                assert_eq!(
                    seq.transcript.max_message_bits, par.transcript.max_message_bits,
                    "{label}: CONGEST audit differs"
                );
            }
        }
    }
}

#[test]
fn chunk_geometry_is_invisible_in_every_transcript() {
    // Scheduler-adversarial matrix: every registry algorithm, with the
    // chunk size forced to degenerate extremes — one node per chunk (every
    // pass crosses a chunk boundary between any two nodes), a tiny prime
    // (chunks straddle bitset words), one chunk per thread, and a single
    // chunk covering the instance — at 1/2/8 worker threads and at 0 (all
    // cores). The explicit override forces the chunked executor even
    // below its size cutoff, and any scheduling sensitivity (event order,
    // halt order, audit sums) shows up as a transcript diff against the
    // sequential baseline.
    let mut rng = Rng::seed_from(12);
    let g = gen::random_regular(90, 4, &mut rng).unwrap();
    let n = g.n();
    for algo in registry().iter() {
        if algo.problem().min_degree() > g.min_degree()
            || (algo.requires_tree() && !localavg::graph::analysis::is_forest(&g))
        {
            continue;
        }
        let baseline = algo.execute(&g, &RunSpec::new(7));
        for threads in [0usize, 1, 2, 8] {
            for chunk in [1, 3, n.div_ceil(resolve_threads(threads)), n] {
                let spec = RunSpec::new(7)
                    .with_exec(Exec::Parallel { threads })
                    .with_chunk_nodes(Some(chunk));
                let run = algo.execute(&g, &spec);
                let label = format!("{} at chunk={chunk} threads={threads}", algo.name());
                assert_eq!(baseline.solution, run.solution, "{label}: outputs differ");
                assert_eq!(
                    baseline.transcript, run.transcript,
                    "{label}: transcript differs"
                );
            }
        }
    }
}

#[test]
fn deterministic_algorithms_ignore_the_seed() {
    let mut rng = Rng::seed_from(6);
    let g = gen::gnp(120, 0.07, &mut rng);
    for algo in registry().iter() {
        if !algo.deterministic()
            || algo.problem().min_degree() > g.min_degree()
            || (algo.requires_tree() && !localavg::graph::analysis::is_forest(&g))
        {
            continue;
        }
        assert_eq!(
            algo.execute(&g, &RunSpec::new(1)).solution,
            algo.execute(&g, &RunSpec::new(999)).solution,
            "{} claims to ignore the seed",
            algo.name()
        );
    }
}
