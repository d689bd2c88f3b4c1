//! `sweep-mixed`: `sweep::run` + `emit::to_json` over every registry
//! algorithm on five families, two sweep workers.
//!
//! The sweep's per-cell calls happen inside `sweep::run`, out of the
//! benchmark's reach, so the traced run decomposes a sweep by replaying
//! its cells through the same public calls (`execute_in`, `verify`,
//! `completion_times`, `Distribution`, `topology_stats`) with the same
//! content-addressed seeds, and checks that the replay reproduces the
//! sweep's report.

use super::{
    check_reference, csr_round_trip, end_to_end, finish_trace, fnv, io_metrics, phases, set_up,
    sums, Config, SimCounts,
};
use crate::host;
use crate::report::{algo_metric, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use localavg_bench::sweep::{self, SweepReport, SweepSpec};
use localavg_bench::{cell, emit, generators};
use localavg_core::algo::{registry, RunSpec, Workspace};
use localavg_core::metrics::Distribution;
use localavg_graph::analysis::topology_stats;
use localavg_graph::Graph;
use std::collections::BTreeMap;
use std::time::Instant;

/// The families every algorithm is swept over.
pub const FAMILIES: [&str; 5] = [
    "regular/4",
    "gnp/deg8",
    "powerlaw/2.1",
    "tree/random",
    "lb/lift/1",
];

/// Sweep worker threads.
pub const WORKERS: usize = 2;

fn spec(cfg: &Config) -> SweepSpec {
    SweepSpec {
        algorithms: registry().names().map(str::to_string).collect(),
        generators: FAMILIES.iter().map(|f| f.to_string()).collect(),
        sizes: vec![cfg.pick(4096, 128)],
        seeds: 3,
        master_seed: cfg.seed,
        params: Vec::new(),
    }
}

pub(super) fn run(cfg: &Config, out: &mut Outcome) {
    let spec = spec(cfg);
    let n = spec.sizes[0];
    let probe = Tracer::new(cfg.trace);
    let set = set_up(|| {
        let cells = spec.cells().map_err(|e| format!("sweep grid: {e}"))?;
        let mut instances = BTreeMap::new();
        for family in FAMILIES {
            let gen = generators::registry()
                .get(family)
                .expect("the family is registered");
            let seed = cell::graph_seed(cfg.seed, family, n);
            let g = probe
                .span("graph.gen.build", None, || gen.build(n, seed))
                .map_err(|e| format!("{family} n={n}: {e:?}"))?;
            instances.insert(family, g);
        }
        Ok((cells, instances))
    });
    let ((cells, instances), setup_s) = match set {
        Ok(set) => set,
        Err(e) => return out.fail(e),
    };
    out.notes
        .push(format!("cells per sweep: {} at n = {n}", cells.len()));

    let mut first: Option<(String, SweepReport)> = None;
    let tracer = Tracer::new(cfg.trace);
    let (untraced, traced) = phases(cfg, out, &tracer, |tr, parent| {
        let report = tr
            .span("sweep.run", parent, || sweep::run(&spec, WORKERS))
            .map_err(|e| format!("sweep: {e}"))?;
        let json = tr.span("emit.to_json", parent, || emit::to_json(&report));
        if report.cells.len() != cells.len() {
            return Err(format!(
                "the sweep reported {} cells, the grid has {}",
                report.cells.len(),
                cells.len()
            ));
        }
        if let Some(g) = report.groups.iter().find(|g| !g.chain_holds) {
            return Err(format!(
                "Appendix A chain broken for {} on {} n={}",
                g.algorithm, g.generator, g.n
            ));
        }
        match &first {
            Some((reference, _)) if *reference != json => {
                Err("the sweep JSON differs from the first sweep of this run".to_string())
            }
            Some(_) => Ok(report.cells.len() as u64),
            None => {
                let cells = report.cells.len() as u64;
                first = Some((json, report));
                Ok(cells)
            }
        }
    });
    let graph_bytes: usize = instances.values().map(Graph::memory_bytes).sum();
    let Some((json, report)) = first else {
        return;
    };
    check_reference(
        cfg,
        out,
        &format!("sweep_json_fnv={:016x}", fnv(json.as_bytes())),
    );

    let Some(traced) = traced else {
        end_to_end(out, &setup_s, &untraced, host::self_peak_rss());
        return;
    };

    // Replay every cell in expansion order, on one workspace.
    let mut ws = Workspace::new();
    let mut per_algo: BTreeMap<&str, f64> = BTreeMap::new();
    let mut counts = SimCounts::default();
    let mut group = 0usize;
    let mut pooled: (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    for (i, c) in cells.iter().enumerate() {
        let g = &instances[c.generator];
        let algo = registry().get(c.algorithm).expect("validated by the grid");
        let rs = RunSpec::new(sweep::algo_seed(cfg.seed, c));
        let t = Instant::now();
        let run = probe.span("algo.execute", None, || algo.execute_in(g, &rs, &mut ws));
        *per_algo.entry(c.algorithm).or_insert(0.0) += t.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = probe.span("core.verify", None, || run.verify(g)) {
            out.fail(format!("replay of {}: invalid output: {e}", c.key()));
        }
        let times = probe.span("core.metrics", None, || run.completion_times(g));
        let row = &report.cells[i];
        if row.rounds != run.worst_case()
            || row.node_averaged.to_bits() != times.node_mean().to_bits()
        {
            out.fail(format!("replay of {} disagrees with the sweep", c.key()));
        }
        counts.add(g, &run, &times);
        pooled.0.extend(&times.node);
        pooled.1.extend(&times.edge);
        let group_ends = cells
            .get(i + 1)
            .is_none_or(|d| (d.algorithm, d.generator, d.n) != (c.algorithm, c.generator, c.n));
        if group_ends {
            let (node_time, edge_time) = probe.span("core.distribution", None, || {
                (
                    Distribution::from_rounds(&pooled.0),
                    Distribution::from_rounds(&pooled.1),
                )
            });
            probe.span("graph.analysis.topology", None, || topology_stats(g));
            let agrees = report.groups.get(group).is_some_and(|r| {
                r.distributions.node_time == node_time && r.distributions.edge_time == edge_time
            });
            if !agrees {
                out.fail(format!("replayed group {} of the sweep disagrees", c.key()));
            }
            group += 1;
            pooled.0.clear();
            pooled.1.clear();
        }
    }
    let mut file_bytes = 0;
    for (family, g) in &instances {
        let path = cfg.instance_file(family);
        match csr_round_trip(&probe, g, &path) {
            Ok((_, bytes)) => file_bytes += bytes,
            Err(e) => out.fail(e),
        }
    }

    let execute_ms = probe.total_ms("algo.execute");
    let verify_ms = probe.total_ms("core.verify");
    let metrics_ms = probe.total_ms("core.metrics");
    let distribution_ms = probe.total_ms("core.distribution");
    let topology_ms = probe.total_ms("graph.analysis.topology");
    let build_ms = median(&sums(
        &probe.durations_ms("graph.gen.build"),
        FAMILIES.len(),
    ));
    let run_ms = median(&tracer.durations_ms("sweep.run"));
    out.set("graph.gen.build_ms", build_ms);
    io_metrics(out, &probe, file_bytes, FAMILIES.len());
    out.set("graph.memory_bytes", graph_bytes as f64);
    out.set("graph.analysis.topology_ms", topology_ms);
    out.set("algo.execute_ms", execute_ms);
    for (algo, ms) in per_algo {
        out.set(algo_metric(algo), ms);
    }
    counts.set(out, execute_ms);
    out.set(
        "sim.workspace.reuse_frac",
        ws.reuse_count() as f64 / ws.run_count().max(1) as f64,
    );
    out.set("sim.pool.workers", ws.pool_workers() as f64);
    out.set("core.verify_ms", verify_ms);
    out.set("core.metrics_ms", metrics_ms + distribution_ms);
    out.set("sweep.run_ms", run_ms);
    out.set(
        "emit.to_json_ms",
        median(&tracer.durations_ms("emit.to_json")),
    );
    out.set("emit.bytes", json.len() as f64);
    // What one sweep's calls take of its wall time: instance builds and
    // per-group aggregation run on the calling thread, the per-cell calls
    // are shared by the workers. The rest of the `sweep.run` span is the
    // sweep's own time, worker imbalance included.
    let workers = WORKERS as f64;
    let inside = [
        ("graph", build_ms + topology_ms),
        ("algo", execute_ms / workers),
        ("core", (verify_ms + metrics_ms) / workers + distribution_ms),
    ];
    finish_trace(
        cfg,
        out,
        (&untraced, &traced),
        &tracer,
        &probe,
        Some(("sweep", &inside)),
    );
    let own = out.values.get("self_ms.sweep").copied().unwrap_or(0.0);
    out.set("sweep.self_ms", own);
}
