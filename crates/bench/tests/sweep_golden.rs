//! Golden-file and determinism tests for the sweep engine and emitters.
//!
//! The golden files under `tests/golden/` pin the exact bytes of the
//! JSON/CSV emitters for a fixed tiny spec. If an intentional change to
//! the engine, the seeding discipline, or the schema shifts the bytes,
//! regenerate them with:
//!
//! ```text
//! BLESS=1 cargo test -p localavg-bench --test sweep_golden
//! ```
//!
//! and review the diff like any other code change.

use localavg_bench::{cell, emit, sweep};
use localavg_core::algo::{registry, RunSpec, TranscriptPolicy, Workspace};
use localavg_graph::gen;

/// The pinned spec: small enough to run in milliseconds, wide enough to
/// exercise node problems, edge problems, deterministic seed collapsing,
/// and the min-degree domain filter (orientation on regular/3 only).
fn golden_spec() -> sweep::SweepSpec {
    sweep::SweepSpec {
        algorithms: vec![
            "mis/luby".into(),
            "mis/greedy".into(),
            "matching/luby".into(),
            "orientation/rand".into(),
        ],
        generators: vec!["regular/3".into(), "tree/random".into()],
        sizes: vec![24, 48],
        seeds: 2,
        master_seed: 2022,
        params: Vec::new(),
    }
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares emitted bytes against a golden file; `BLESS=1` rewrites it.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e}); run with BLESS=1 to create", name));
    assert_eq!(
        expected, actual,
        "{name} drifted from the golden bytes; if intentional, re-bless with BLESS=1"
    );
}

#[test]
fn json_emitter_matches_golden_bytes() {
    let report = sweep::run(&golden_spec(), 2).expect("sweep runs");
    check_golden("sweep.json", &emit::to_json(&report));
}

#[test]
fn csv_emitters_match_golden_bytes() {
    let report = sweep::run(&golden_spec(), 2).expect("sweep runs");
    check_golden("sweep-cells.csv", &emit::cells_csv(&report));
    check_golden("sweep-groups.csv", &emit::groups_csv(&report));
}

#[test]
fn emitted_bytes_are_independent_of_thread_count() {
    let spec = golden_spec();
    let sequential = sweep::run(&spec, 1).expect("sequential sweep");
    let parallel = sweep::run(&spec, 8).expect("parallel sweep");
    assert_eq!(
        emit::to_json(&sequential),
        emit::to_json(&parallel),
        "JSON bytes differ between --threads 1 and --threads 8"
    );
    assert_eq!(emit::cells_csv(&sequential), emit::cells_csv(&parallel));
    assert_eq!(emit::groups_csv(&sequential), emit::groups_csv(&parallel));
}

#[test]
fn lean_policies_reproduce_the_golden_metrics() {
    // The committed golden bytes pin the Full-policy sweep. Re-executing
    // every golden cell under CompletionsOnly/None (with a reused
    // workspace — the sweep's own configuration) must reproduce each
    // cell's metrics bit for bit: the policy drops bookkeeping, never
    // measurements.
    let spec = golden_spec();
    let report = sweep::run(&spec, 2).expect("sweep runs");
    // Golden guard: the report we compare against is the byte-pinned one.
    check_golden("sweep.json", &emit::to_json(&report));
    let mut ws = Workspace::new();
    // One instance per (generator, n), shared across cells and policies
    // — the sweep's own one-instance-per-group discipline.
    let mut graphs: std::collections::BTreeMap<(&str, usize), localavg_graph::Graph> =
        std::collections::BTreeMap::new();
    for policy in [TranscriptPolicy::CompletionsOnly, TranscriptPolicy::None] {
        for cell in &report.cells {
            let g = graphs
                .entry((cell.cell.generator, cell.cell.n))
                .or_insert_with(|| {
                    gen::registry()
                        .get(cell.cell.generator)
                        .expect("registered family")
                        .build(
                            cell.cell.n,
                            cell::graph_seed(spec.master_seed, cell.cell.generator, cell.cell.n),
                        )
                        .expect("instance")
                });
            let run = registry()
                .get(cell.cell.algorithm)
                .expect("registered")
                .execute_in(
                    g,
                    &RunSpec::new(sweep::algo_seed(spec.master_seed, &cell.cell))
                        .with_transcript(policy),
                    &mut ws,
                );
            let times = run.completion_times(g);
            let label = format!(
                "{}/{} n={} seed={} under {policy:?}",
                cell.cell.algorithm, cell.cell.generator, cell.cell.n, cell.cell.seed
            );
            assert_eq!(
                times.node_mean().to_bits(),
                cell.node_averaged.to_bits(),
                "{label}: node_averaged"
            );
            assert_eq!(
                times.edge_mean().to_bits(),
                cell.edge_averaged.to_bits(),
                "{label}: edge_averaged"
            );
            assert_eq!(
                times.edge_one_endpoint_mean().to_bits(),
                cell.edge_averaged_one_endpoint.to_bits(),
                "{label}: one-endpoint convention"
            );
            assert_eq!(times.node_max(), cell.node_worst, "{label}: node_worst");
            assert_eq!(run.worst_case(), cell.rounds, "{label}: rounds");
        }
    }
}

#[test]
fn golden_json_is_parseable_by_a_naive_scanner() {
    // The emitter is hand-rolled; sanity-check its bracket/quote balance
    // on the real document (string contents here never contain braces).
    let report = sweep::run(&golden_spec(), 2).expect("sweep runs");
    let json = emit::to_json(&report);
    let mut depth = 0i64;
    let mut in_str = false;
    let mut prev_escape = false;
    for c in json.chars() {
        if in_str {
            if prev_escape {
                prev_escape = false;
            } else if c == '\\' {
                prev_escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced JSON");
    }
    assert_eq!(depth, 0, "unbalanced JSON document");
    assert!(!in_str, "unterminated string");
}
