//! Self-tests of the benchmark harness: percentile refusal, metric
//! names, the catalogue against `BENCHMARK.json`, the seeded load
//! generator, and a tiny-size smoke run of every workload.

use localavg_bench::serve::Json;
use perfbench::report::{per_layer, END_TO_END};
use perfbench::stats::{is_metric_name, median, percentile, tail, Zipf};
use perfbench::workloads::serve::{universe, Stream, BATCH};
use perfbench::workloads::{self, Config, Size, Workload};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn samples(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentiles_refuse_fewer_than_ten_samples_beyond() {
    // p50 of 19 samples has 9 beyond it, of 20 samples 10.
    assert_eq!(percentile(&samples(19), 0.5), None);
    assert_eq!(percentile(&samples(20), 0.5), Some(10.0));
    // p90 needs 100 samples.
    assert_eq!(percentile(&samples(99), 0.9), None);
    assert_eq!(percentile(&samples(100), 0.9), Some(90.0));
    assert_eq!(percentile(&[], 0.5), None);
    // The median itself is always reported, nearest rank.
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    // The tail falls back to the highest percentile the sample resolves.
    assert_eq!(tail(&samples(100), 0.9), (90.0, 90));
    let (v, pct) = tail(&samples(30), 0.9);
    assert_eq!(pct, 66);
    assert_eq!(percentile(&samples(30), f64::from(pct) / 100.0), Some(v));
    assert_eq!(percentile(&samples(30), 0.67), None);
    assert_eq!(tail(&samples(5), 0.9), (3.0, 50));
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    let names = END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(per_layer().into_iter().map(|(n, _)| n));
    for name in names {
        assert!(is_metric_name(&name), "`{name}`");
        assert!(seen.insert(name.clone()), "`{name}` is used twice");
    }
    for bad in ["", "a b", "mis/luby", ".x", "-x", "é", &"x".repeat(65)] {
        assert!(!is_metric_name(bad), "`{bad}` must be refused");
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(v: &Json, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let v = benchmark_json();
    let own = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
        list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    let e2e = own(END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect());
    assert_eq!(names_and_units(&v, "end_to_end"), e2e);
    assert_eq!(names_and_units(&v, "per_layer"), own(per_layer()));
    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
            w.get("name").and_then(Json::as_str).expect("name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let bounds: Vec<(String, f64)> = v
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            (
                name.to_string(),
                m.get("bound").and_then(Json::as_f64).expect("bound"),
            )
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s")
        .1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: {bound}");
        assert!(*bound <= setup, "setup_s must have the largest bound");
    }
}

#[test]
fn zipf_stream_is_deterministic_per_seed() {
    let cells = universe(&[1024, 4096]).len();
    assert_eq!(cells, 256);
    let batches = |seed, conn| {
        let mut s = Stream::new(seed, conn, cells);
        (0..64)
            .map(|_| s.next_batch())
            .collect::<Vec<[usize; BATCH]>>()
    };
    assert_eq!(batches(7, 0), batches(7, 0));
    assert_ne!(batches(7, 0), batches(8, 0));
    assert_ne!(batches(7, 0), batches(7, 1));
    // Popularity falls with rank.
    let mut rng = localavg_graph::rng::Rng::seed_from(3);
    let zipf = Zipf::new(cells, 1.0);
    let mut counts = vec![0usize; cells];
    for _ in 0..100_000 {
        counts[zipf.sample(&mut rng)] += 1;
    }
    assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[200]);
    // The universe order is the same for every workload seed.
    assert_eq!(universe(&[64, 128]), universe(&[64, 128]));
}

fn smoke(workload: Workload, trace: bool) {
    let out_dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-smoke-{}-{trace}", workload.name()));
    // Start without references from earlier test runs.
    let _ = std::fs::remove_dir_all(&out_dir);
    let cfg = Config {
        workload,
        seed: 3,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
        out_dir,
        daemon_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    };
    let out = workloads::run(&cfg);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0);
    let line = out.result_line(trace);
    let v = Json::parse(&line).expect("the result line is JSON");
    assert_eq!(
        v.get("correct").and_then(Json::as_bool),
        Some(true),
        "{line}"
    );
    let metrics = v.get("metrics").expect("metrics");
    if trace {
        assert!(out.values.get("algo.execute_ms").is_some_and(|&x| x > 0.0));
        assert!(out
            .values
            .get("sim.live_node_rounds")
            .is_some_and(|&x| x > 0.0));
    } else {
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(value > 0.0, "{name} = {value}");
        }
    }
}

#[test]
fn mis_regular_smoke() {
    smoke(Workload::MisRegular, false);
    smoke(Workload::MisRegular, true);
}

#[test]
fn matching_powerlaw_smoke() {
    smoke(Workload::MatchingPowerlaw, false);
    smoke(Workload::MatchingPowerlaw, true);
}

#[test]
fn sweep_mixed_smoke() {
    smoke(Workload::SweepMixed, false);
    smoke(Workload::SweepMixed, true);
}

#[test]
fn serve_mixed_smoke() {
    smoke(Workload::ServeMixed, false);
    smoke(Workload::ServeMixed, true);
}
