//! Property-style tests over the whole stack, driven by a hand-rolled
//! deterministic case generator (the container has no proptest): algorithm
//! outputs are valid on arbitrary random graphs, metrics obey their
//! defining inequalities, and structural transforms preserve invariants.

use localavg::core::algo::{registry, Problem, RunSpec};
use localavg::core::matching;
use localavg::graph::rng::Rng;
use localavg::graph::{analysis, gen, lift, transform, Graph, GraphBuilder};

/// The four views of one arc agree — `neighbor(v, p)`,
/// `arc(csr_offset(v) + p)` and `neighbors(v).nth(p)` name the same
/// `(neighbor, edge)` — and the reverse-arc table is an involution that
/// pairs each arc with the same edge's arc at the other endpoint, with
/// derived reverse ports that agree with the edge-port table.
fn assert_arc_views_agree(g: &Graph, label: &str) {
    for v in g.nodes() {
        let row = g.neighbors(v);
        assert_eq!(row.len(), g.degree(v), "{label}: node {v} row length");
        for (p, (u, e)) in row.enumerate() {
            let a = g.csr_offset(v) + p;
            assert_eq!(g.neighbor(v, p), (u, e), "{label}: neighbor({v}, {p})");
            assert_eq!(g.arc(a), (u, e), "{label}: arc({a})");
            assert_eq!(g.neighbors(v).nth(p), Some((u, e)), "{label}: nth({p})");
            let r = g.rev_arc(a);
            assert_eq!(
                g.rev_arc(r),
                a,
                "{label}: rev_arc not an involution at arc {a}"
            );
            assert_eq!(
                g.arc(r),
                (v, e),
                "{label}: rev_arc({a}) is not edge {e}'s arc at node {u}"
            );
            assert!(
                g.arc_range(u).contains(&r),
                "{label}: rev_arc({a}) not owned by node {u}"
            );
        }
    }
    for (e, u, v) in g.edges() {
        let (pu, pv) = g.edge_ports(e);
        assert_eq!(g.neighbor(u, pu), (v, e), "{label}: edge-port of {e} at u");
        assert_eq!(g.neighbor(v, pv), (u, e), "{label}: edge-port of {e} at v");
        assert_eq!(
            g.rev_port(g.csr_offset(u) + pu),
            pv,
            "{label}: edge {e} at u"
        );
        assert_eq!(
            g.rev_port(g.csr_offset(v) + pv),
            pu,
            "{label}: edge {e} at v"
        );
    }
}

/// Deterministic stream of random G(n, p) cases with n < `max_n`.
fn cases(count: usize, max_n: usize, salt: u64) -> Vec<(Graph, u64)> {
    let mut rng = Rng::seed_from(0xCA5E5 ^ salt);
    (0..count)
        .map(|_| {
            let n = 2 + (rng.next_u64() as usize) % (max_n - 2);
            let p = (rng.next_u64() % 1000) as f64 / 1000.0 * 0.3;
            let g = gen::gnp(n, p, &mut rng);
            (g, rng.next_u64() % 100)
        })
        .collect()
}

#[test]
fn every_node_and_edge_problem_is_valid_on_random_graphs() {
    // The registry-wide generalization of the old per-family properties:
    // every algorithm whose domain admits the instance must verify.
    for (g, seed) in cases(12, 64, 1) {
        for algo in registry().iter() {
            if algo.problem().min_degree() > g.min_degree()
                || (algo.requires_tree() && !localavg::graph::analysis::is_forest(&g))
            {
                continue;
            }
            let run = algo.execute(&g, &RunSpec::new(seed));
            run.verify(&g)
                .unwrap_or_else(|e| panic!("{} invalid on n={}: {e}", algo.name(), g.n()));
        }
    }
}

#[test]
fn orientation_valid_on_random_cubic_graphs() {
    // Sinkless orientation's domain (min degree 3) rarely appears in the
    // G(n,p) stream above; cover it with regular graphs explicitly.
    for seed in 0..6u64 {
        let mut rng = Rng::seed_from(seed + 400);
        let g = gen::random_regular(48, 3, &mut rng).expect("cubic graph");
        for algo in registry().iter() {
            if algo.problem() != Problem::SinklessOrientation {
                continue;
            }
            let run = algo.execute(&g, &RunSpec::new(seed));
            run.verify(&g)
                .unwrap_or_else(|e| panic!("{} invalid at seed {seed}: {e}", algo.name()));
        }
    }
}

#[test]
fn fractional_matching_always_feasible() {
    for (g, _) in cases(12, 64, 2) {
        let f = matching::fractional_matching(&g);
        assert!(matching::fractional_is_valid(&g, &f), "n={}", g.n());
    }
}

#[test]
fn metrics_inequalities() {
    let luby = registry().get("mis/luby").expect("registered");
    for (g, seed) in cases(12, 64, 3) {
        let rep = luby.execute(&g, &RunSpec::new(seed)).report(&g);
        assert!(rep.edge_averaged_one_endpoint <= rep.edge_averaged + 1e-9);
        assert!(rep.node_averaged <= rep.node_worst as f64 + 1e-9);
        assert!(rep.node_worst <= rep.rounds);
    }
}

#[test]
fn line_graph_size_formula() {
    for (g, _) in cases(10, 40, 4) {
        let l = transform::line_graph(&g);
        assert_eq!(l.n(), g.m());
        let expect: usize = g.degrees().map(|d| d * (d.saturating_sub(1)) / 2).sum();
        assert_eq!(l.m(), expect);
    }
}

#[test]
fn matching_is_mis_on_line_graph() {
    // §1.1: a maximal matching of G is an MIS of L(G).
    let luby = registry().get("matching/luby").expect("registered");
    for (g, seed) in cases(10, 40, 5) {
        let run = luby.execute(&g, &RunSpec::new(seed));
        let in_matching = run.solution.matching().expect("matching output");
        let l = transform::line_graph(&g);
        assert!(analysis::is_maximal_independent_set(&l, in_matching));
    }
}

#[test]
fn lifts_preserve_degree_sequences() {
    for (i, (g, seed)) in cases(10, 32, 6).into_iter().enumerate() {
        let q = 1 + i % 4;
        let mut rng = Rng::seed_from(seed);
        let lifted = lift::lift(&g, q, &mut rng);
        assert_eq!(lifted.graph.n(), g.n() * q);
        assert_eq!(lifted.graph.m(), g.m() * q);
        for x in lifted.graph.nodes() {
            assert_eq!(lifted.graph.degree(x), g.degree(lifted.project(x)));
        }
    }
}

#[test]
fn induced_subgraph_degrees_bounded() {
    for (g, mask_seed) in cases(10, 48, 7) {
        let mut rng = Rng::seed_from(mask_seed);
        let keep: Vec<bool> = g.nodes().map(|_| rng.chance(0.6)).collect();
        let (sub, new_to_old, _) = transform::induced_subgraph(&g, &keep);
        for v in sub.nodes() {
            assert!(sub.degree(v) <= g.degree(new_to_old[v]));
        }
    }
}

#[test]
fn csr_neighbors_equal_insertion_order_adjacency() {
    // Property: on arbitrary random edge sets, the frozen CSR rows must
    // equal the per-node adjacency a reference Vec<Vec<_>> accumulates in
    // insertion order — port numbering is a pure function of the edge
    // sequence, not of the CSR packing. Also cross-checks the flat
    // edge-port and reverse-port tables against the rows.
    let mut rng = Rng::seed_from(0xC5A0);
    for case in 0..25 {
        let n = 2 + (rng.next_u64() as usize) % 60;
        let mut b = GraphBuilder::new(n);
        let mut reference: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for _ in 0..(rng.next_u64() as usize) % (3 * n) {
            let u = rng.index(n);
            let v = rng.index(n);
            if u != v && b.try_add(u, v) {
                let e = b.m() - 1;
                reference[u].push((v, e));
                reference[v].push((u, e));
            }
        }
        let g = b.build();
        assert_eq!(g.n(), n);
        for v in g.nodes() {
            assert_eq!(
                g.neighbors(v).collect::<Vec<_>>(),
                reference[v],
                "case {case}: node {v} row diverges from insertion order"
            );
        }
        for v in g.nodes() {
            for (port, (u, e)) in g.neighbors(v).enumerate() {
                let rev = g.rev_port(g.csr_offset(v) + port);
                assert_eq!(
                    g.neighbor(u, rev),
                    (v, e),
                    "case {case}: reverse port round-trip"
                );
            }
        }
        assert_arc_views_agree(&g, &format!("case {case}"));
    }
}

#[test]
fn builder_try_add_matches_a_reference_edge_set() {
    // Property: a random interleaving of `add_edge` (on known-fresh
    // pairs), `try_add` (on arbitrary pairs, both orientations), and
    // `contains` behaves exactly like a reference HashSet of normalized
    // pairs — including duplicate and reversed submissions.
    use std::collections::HashSet;
    let mut rng = Rng::seed_from(0xB01D);
    for case in 0..20 {
        let n = 3 + (rng.next_u64() as usize) % 40;
        let mut b = GraphBuilder::new(n);
        let mut reference: HashSet<(usize, usize)> = HashSet::new();
        for _ in 0..(rng.next_u64() as usize) % (4 * n) {
            let u = rng.index(n);
            let v = rng.index(n);
            if u == v {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            match rng.index(3) {
                0 => {
                    // Fresh pairs go through the unchecked fast path.
                    if reference.insert(key) {
                        b.add_edge(u, v).expect("fresh edge");
                    } else {
                        assert!(!b.try_add(u, v), "case {case}: duplicate accepted");
                    }
                }
                1 => {
                    assert_eq!(b.try_add(u, v), reference.insert(key), "case {case}");
                }
                _ => {
                    // Reversed submission must dedup identically.
                    assert_eq!(b.try_add(v, u), reference.insert(key), "case {case}");
                }
            }
            assert!(b.contains(u, v) && b.contains(v, u), "case {case}");
        }
        assert_eq!(b.m(), reference.len(), "case {case}");
        let g = b.build();
        let built: HashSet<(usize, usize)> = g.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(built, reference, "case {case}: edge sets diverge");
    }
}

#[test]
fn sort_adjacency_preserves_edges_and_port_tables() {
    // Property: `sort_adjacency` reorders ports by (neighbor, edge id)
    // without touching the edge list, and the flat edge-port /
    // reverse-port tables stay consistent with the reordered rows.
    let mut rng = Rng::seed_from(0x50B7);
    for case in 0..15 {
        let n = 3 + (rng.next_u64() as usize) % 40;
        let mut plain = GraphBuilder::new(n);
        let mut sorted = GraphBuilder::new(n);
        for _ in 0..(rng.next_u64() as usize) % (3 * n) {
            let u = rng.index(n);
            let v = rng.index(n);
            if u != v && plain.try_add(u, v) {
                assert!(sorted.try_add(u, v));
            }
        }
        sorted.sort_adjacency();
        let (gp, gs) = (plain.build(), sorted.build());
        // Same edges, same ids.
        assert_eq!(
            gp.edges().collect::<Vec<_>>(),
            gs.edges().collect::<Vec<_>>(),
            "case {case}"
        );
        for v in gs.nodes() {
            let row: Vec<(usize, usize)> = gs.neighbors(v).collect();
            let mut resorted: Vec<(usize, usize)> = gp.neighbors(v).collect();
            resorted.sort_unstable();
            assert_eq!(
                row, resorted,
                "case {case}: node {v} row not (nbr, edge)-sorted"
            );
        }
        // Port tables must describe the *sorted* rows.
        for v in gs.nodes() {
            for (port, (u, e)) in gs.neighbors(v).enumerate() {
                let rev = gs.rev_port(gs.csr_offset(v) + port);
                assert_eq!(gs.neighbor(u, rev), (v, e), "case {case}");
            }
        }
        assert_arc_views_agree(&gs, &format!("sorted case {case}"));
    }
}

#[test]
fn counting_sort_build_survives_adversarial_insertion_orders() {
    // The two-pass counting sort in `build()` must produce coherent CSR
    // offsets for insertion orders designed to stress it: all of one
    // node's edges first, descending endpoints, and a striped order.
    let n = 24;
    let mut all_pairs: Vec<(usize, usize)> = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if (u + v) % 3 == 0 {
                all_pairs.push((u, v));
            }
        }
    }
    let orders: Vec<Vec<(usize, usize)>> = vec![
        all_pairs.clone(),
        all_pairs.iter().rev().map(|&(u, v)| (v, u)).collect(),
        {
            // Stripe: edges of the highest-degree hub node last.
            let (hub, rest): (Vec<_>, Vec<_>) =
                all_pairs.iter().partition(|&&(u, v)| u == 0 || v == 0);
            rest.into_iter().chain(hub).collect()
        },
    ];
    let mut reference: Option<Vec<(usize, usize)>> = None;
    for (i, order) in orders.iter().enumerate() {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in order {
            b.add_edge(u, v).expect("valid edge");
        }
        b.sort_adjacency();
        let g = b.build();
        assert_eq!(g.m(), all_pairs.len(), "order {i}");
        assert_eq!(g.degree_sum(), 2 * g.m(), "order {i}");
        // Offsets are monotone and rows match degrees.
        for v in g.nodes() {
            assert_eq!(g.arc_range(v).len(), g.degree(v), "order {i}");
        }
        // With canonical ports, every insertion order yields identical
        // adjacency rows (edge ids differ, neighbor order must not).
        let rows: Vec<Vec<usize>> = g.nodes().map(|v| g.neighbor_ids(v).collect()).collect();
        let flat: Vec<(usize, usize)> = rows
            .iter()
            .enumerate()
            .flat_map(|(v, r)| r.iter().map(move |&u| (v, u)))
            .collect();
        match &reference {
            None => reference = Some(flat),
            Some(expect) => assert_eq!(&flat, expect, "order {i}: adjacency diverges"),
        }
    }
}

#[test]
fn stream_edges_matches_the_buffered_builder() {
    // Property: feeding the identical duplicate-free random edge stream
    // to the two-pass `stream_edges` path and to the buffered builder
    // yields the same `Graph`, field for field (`Eq` covers all five
    // frozen CSR arrays, so edge ids, port order, and reverse ports all
    // have to agree — the low-memory path is not allowed to renumber
    // anything).
    let mut rng = Rng::seed_from(0x57E4);
    for case in 0..20 {
        let n = 2 + (rng.next_u64() as usize) % 60;
        let mut b = GraphBuilder::new(n);
        let mut list: Vec<(usize, usize)> = Vec::new();
        for _ in 0..(rng.next_u64() as usize) % (3 * n) {
            let u = rng.index(n);
            let v = rng.index(n);
            if u != v && b.try_add(u, v) {
                list.push((u, v));
            }
        }
        let buffered = b.build();
        let streamed = GraphBuilder::stream_edges(n, |sink| {
            for &(u, v) in &list {
                sink.edge(u, v);
            }
        })
        .expect("duplicate-free in-range stream");
        assert_eq!(streamed, buffered, "case {case}: n={n} m={}", list.len());
    }
}

#[test]
fn csr_v1_round_trips_every_registry_family() {
    // Property: every family in the composed generator registry — base
    // graph families, the new heavy-tailed generators, and the
    // lower-bound hard instances — survives a localavg-csr/v1 write →
    // read round trip bit-identically, the verified footer equals the
    // in-memory content hash, and re-serializing the read-back graph
    // reproduces the original bytes (the format has one canonical
    // encoding per graph). The resident graph is the file's layout: its
    // memory footprint is the file minus 40 bytes of magic, header and
    // footer.
    use localavg::graph::io;
    for family in localavg_bench::generators::registry().iter() {
        let n = 64;
        let seed = localavg_bench::cell::graph_seed(9, family.name(), n);
        let g = family
            .build(n, seed)
            .unwrap_or_else(|e| panic!("{} failed to build: {e:?}", family.name()));
        let mut bytes = Vec::new();
        let written = io::write_graph(&mut bytes, &g).expect("in-memory write");
        assert_eq!(written, bytes.len() as u64, "{}", family.name());
        assert_eq!(
            written,
            io::encoded_size_bytes(g.n(), g.m()),
            "{}: size formula",
            family.name()
        );
        assert_eq!(
            g.memory_bytes() as u64 + 40,
            written,
            "{}: in-memory layout differs from the file",
            family.name()
        );
        let (h, footer) = io::read_graph_with_hash(&bytes[..])
            .unwrap_or_else(|e| panic!("{} rejected on read: {e}", family.name()));
        assert_eq!(h, g, "{}: round trip changed the graph", family.name());
        assert_arc_views_agree(&g, family.name());
        assert_arc_views_agree(&h, &format!("{} (read back)", family.name()));
        assert_eq!(
            footer,
            io::content_hash(&g),
            "{}: footer vs content hash",
            family.name()
        );
        let mut again = Vec::new();
        io::write_graph(&mut again, &h).expect("re-serialize");
        assert_eq!(again, bytes, "{}: encoding not canonical", family.name());
    }
}

#[test]
#[ignore = "scale check: set LAVG_GRAPH_FILE to a localavg-csr/v1 file and run with --ignored"]
fn graph_file_round_trips_byte_identically() {
    // The EXPERIMENTS.md §H acceptance leg at full scale: an `exp gen`
    // artifact (10⁷ nodes in practice) must decode and re-encode to the
    // exact on-disk bytes. Ignored by default — the in-memory property
    // above covers every registry family at test scale; this one is for
    // the multi-gigabyte artifacts CI never builds.
    use localavg::graph::io;
    let path = std::env::var("LAVG_GRAPH_FILE").expect("set LAVG_GRAPH_FILE to a .csr path");
    let bytes = std::fs::read(&path).expect("readable graph file");
    let (g, _) = io::read_graph_with_hash(&bytes[..]).expect("valid localavg-csr/v1 file");
    let mut again = Vec::with_capacity(bytes.len());
    io::write_graph(&mut again, &g).expect("re-serialize");
    // assert! (not assert_eq!) — no gigabyte diff dumps on failure.
    assert!(again == bytes, "re-encoding differs from the on-disk bytes");
}

// ---------------------------------------------------------------------------
// Rake-and-compress decomposition properties (PR 9)
// ---------------------------------------------------------------------------

/// The registry's tree-flagged families — the sampling domain of the
/// `*/tree-rc` algorithms.
fn tree_families() -> Vec<&'static localavg::graph::gen::NamedGenerator> {
    let fams: Vec<_> = localavg_bench::generators::registry()
        .iter()
        .filter(|f| f.is_tree())
        .collect();
    assert_eq!(fams.len(), 7, "expected the seven tree-flagged families");
    fams
}

#[test]
fn decomposition_partitions_every_tree_family_with_logarithmic_depth() {
    use localavg::graph::decomp::RcDecomposition;
    // Property: on every tree family × size × seed, every node lands in
    // exactly one layer (1 ≤ layer(v) ≤ depth), the layer/label vectors
    // are a pure function of (graph, seed), and the depth stays within
    // c·log₂ n for a small explicit c (the rake-and-compress geometric
    // decay; c = 4 leaves slack over the ~1/(1-...) constant).
    for family in tree_families() {
        for n in [8usize, 65, 256] {
            for seed in [0u64, 9] {
                let g = family
                    .build(n, seed)
                    .unwrap_or_else(|e| panic!("{} failed: {e:?}", family.name()));
                let d = RcDecomposition::compute(&g, seed).unwrap_or_else(|e| {
                    panic!("{} n={n}: tree family rejected: {e}", family.name())
                });
                let depth = d.depth();
                assert!(depth >= 1, "{} n={n}: empty decomposition", family.name());
                for v in g.nodes() {
                    let layer = d.layer(v);
                    assert!(
                        (1..=depth).contains(&layer),
                        "{} n={n}: node {v} in layer {layer} outside 1..={depth}",
                        family.name()
                    );
                }
                let bound = 4.0 * (g.n().max(2) as f64).log2().ceil() + 2.0;
                assert!(
                    (depth as f64) <= bound,
                    "{} n={n}: depth {depth} exceeds {bound}",
                    family.name()
                );
                let again = RcDecomposition::compute(&g, seed).unwrap();
                for v in g.nodes() {
                    assert_eq!(d.layer(v), again.layer(v), "{} layer", family.name());
                    assert_eq!(d.label(v), again.label(v), "{} label", family.name());
                }
                let reseeded = RcDecomposition::compute(&g, seed ^ 0xDEAD).unwrap();
                let _ = reseeded.depth(); // different seed must still be valid
            }
        }
    }
}

#[test]
fn tree_rc_transcripts_are_byte_identical_across_thread_counts() {
    use localavg::core::algo::Exec;
    // The structural `*/tree-rc` transcripts never enter the round
    // engine, so executor and chunk geometry must be invisible — the
    // same invariance contract the engine-driven algorithms satisfy.
    for family in ["tree/bounded/3", "tree/spider"] {
        let g = gen::registry()
            .get(family)
            .expect("registered family")
            .build(300, 17)
            .expect("instance");
        for name in ["mis/tree-rc", "ruling/tree-rc", "coloring/tree-rc"] {
            let algo = registry().get(name).expect("registered");
            let seq = algo.execute(&g, &RunSpec::new(5));
            for threads in [1usize, 2, 8] {
                let par = algo.execute(&g, &RunSpec::new(5).with_exec(Exec::Parallel { threads }));
                assert_eq!(seq.solution, par.solution, "{name} on {family}");
                assert_eq!(
                    seq.transcript, par.transcript,
                    "{name} on {family} with {threads} thread(s)"
                );
            }
        }
    }
}

#[test]
fn tree_rc_is_valid_and_seed_deterministic_on_every_tree_family() {
    for family in tree_families() {
        let g = family.build(128, 3).expect("tree instance");
        for name in ["mis/tree-rc", "ruling/tree-rc", "coloring/tree-rc"] {
            let algo = registry().get(name).expect("registered");
            let a = algo.execute(&g, &RunSpec::new(11));
            a.verify(&g)
                .unwrap_or_else(|e| panic!("{name} invalid on {}: {e}", family.name()));
            let b = algo.execute(&g, &RunSpec::new(11));
            assert_eq!(a.solution, b.solution, "{name} on {}", family.name());
            assert_eq!(a.transcript, b.transcript, "{name} on {}", family.name());
        }
    }
}

#[test]
fn tree_rc_node_average_stays_flat_while_worst_case_grows() {
    use localavg::core::metrics::CompletionTimes;
    // The tentpole claim at test scale: on growing bounded-degree trees,
    // mis/ and ruling/tree-rc node-averaged completion stays O(1) (flat,
    // small) while the worst case grows with log n. coloring/tree-rc is
    // the negative control: its average tracks the worst case.
    let fam = gen::registry().get("tree/bounded/3").expect("registered");
    let mut worsts = Vec::new();
    for n in [256usize, 1024, 4096] {
        let g = fam.build(n, 5).expect("instance");
        for name in ["mis/tree-rc", "ruling/tree-rc"] {
            let run = registry()
                .get(name)
                .expect("registered")
                .execute(&g, &RunSpec::new(2));
            let avg = CompletionTimes::from_transcript(&g, &run.transcript).node_mean();
            assert!(
                avg < 12.0,
                "{name} n={n}: node average {avg} should stay O(1)"
            );
        }
        worsts.push(
            registry()
                .get("mis/tree-rc")
                .expect("registered")
                .execute(&g, &RunSpec::new(2))
                .transcript
                .rounds,
        );
    }
    // Depth is seed-dependent, so individual steps may wobble; the
    // endpoints must still show growth past the flat-average scale.
    assert!(
        worsts[2] > worsts[0] && worsts[2] > 12,
        "worst case should grow with n: {worsts:?}"
    );
}
