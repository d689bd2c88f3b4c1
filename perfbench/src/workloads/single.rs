//! `mis-regular` and `matching-powerlaw`: one algorithm on one large
//! instance, one op = `execute_in` + `verify` + `completion_times`.

use super::{
    check_reference, csr_round_trip, end_to_end, finish_trace, io_metrics, phases, set_up, Config,
    SimCounts, Workload,
};
use crate::host;
use crate::report::{algo_metric, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use localavg_bench::{cell, generators};
use localavg_core::algo::{registry, Exec, RunSpec, TranscriptPolicy, Workspace};
use localavg_core::mis::MisMsg;
use localavg_graph::analysis::topology_stats;
use localavg_sim::message::Envelope;

struct Single {
    family: &'static str,
    n: usize,
    algo: &'static str,
    exec: Exec,
    /// Whether set-up loads the instance from a `localavg-csr/v1` file.
    via_file: bool,
}

fn single(cfg: &Config) -> Single {
    match cfg.workload {
        Workload::MisRegular => Single {
            family: "regular/8",
            n: cfg.pick(1 << 18, 1 << 11),
            algo: "mis/luby",
            exec: Exec::Sequential,
            via_file: false,
        },
        // Sequential: with `Exec::Parallel { threads: 2 }` on the 2-vCPU
        // reference host, every pass waits for the other vCPU to wake,
        // and the op time swung ±30% between runs of the same code.
        _ => Single {
            family: "powerlaw/2.1",
            n: cfg.pick(1 << 16, 1 << 10),
            algo: "matching/luby",
            exec: Exec::Sequential,
            via_file: true,
        },
    }
}

pub(super) fn run(cfg: &Config, out: &mut Outcome) {
    let s = single(cfg);
    let probe = Tracer::new(cfg.trace);
    let gen = generators::registry()
        .get(s.family)
        .expect("the family is registered");
    let graph_seed = cell::graph_seed(cfg.seed, s.family, s.n);
    let file = cfg.instance_file(s.family);
    let set = set_up(|| {
        let built = probe
            .span("graph.gen.build", None, || gen.build(s.n, graph_seed))
            .map_err(|e| format!("{} n={}: {e:?}", s.family, s.n))?;
        if s.via_file {
            csr_round_trip(&probe, &built, &file)
        } else {
            Ok((built, 0))
        }
    });
    let ((g, mut file_bytes), setup_s) = match set {
        Ok(set) => set,
        Err(e) => return out.fail(e),
    };

    let algo = registry().get(s.algo).expect("the algorithm is registered");
    let spec = RunSpec::new(cell::algo_seed(cfg.seed, s.family, s.n, s.algo, 0))
        .with_exec(s.exec)
        .with_transcript(TranscriptPolicy::None);
    let mut ws = Workspace::new();
    let mut reference: Option<(usize, u64)> = None;
    let tracer = Tracer::new(cfg.trace);
    let (untraced, traced) = phases(cfg, out, &tracer, |tr, parent| {
        let run = tr.span("algo.execute", parent, || {
            algo.execute_in(&g, &spec, &mut ws)
        });
        tr.span("core.verify", parent, || run.verify(&g))
            .map_err(|e| format!("{}: invalid output: {e}", s.algo))?;
        let times = tr.span("core.metrics", parent, || run.completion_times(&g));
        let got = (
            run.transcript.rounds,
            times.node.iter().map(|&t| t as u64).sum::<u64>(),
        );
        match reference {
            Some(r) if r != got => Err(format!(
                "rounds/node-rounds {got:?} differ from the first op's {r:?}"
            )),
            _ => {
                reference = Some(got);
                Ok(1)
            }
        }
    });
    let Some((rounds, node_rounds)) = reference else {
        return;
    };
    check_reference(
        cfg,
        out,
        &format!("rounds={rounds} node_rounds={node_rounds}"),
    );

    let Some(traced) = traced else {
        end_to_end(out, &setup_s, &untraced, host::self_peak_rss());
        return;
    };
    // Untimed decomposition: the exact counts of one Full-policy run
    // (which must agree with the lean-policy ops), topology, and — when
    // set-up did not already do it — a CSR file round trip.
    let full = algo.execute_in(
        &g,
        &spec.clone().with_transcript(TranscriptPolicy::Full),
        &mut ws,
    );
    let full_times = full.completion_times(&g);
    let full_node_rounds: u64 = full_times.node.iter().map(|&t| t as u64).sum();
    if (full.transcript.rounds, full_node_rounds) != (rounds, node_rounds) {
        out.fail(format!(
            "the Full-policy run gives rounds/node-rounds ({}, {full_node_rounds}), \
             the ops ({rounds}, {node_rounds})",
            full.transcript.rounds
        ));
    }
    let mut counts = SimCounts::default();
    counts.add(&g, &full, &full_times);
    probe.span("graph.analysis.topology", None, || topology_stats(&g));
    if !s.via_file {
        match csr_round_trip(&probe, &g, &file) {
            Ok((_, bytes)) => file_bytes = bytes,
            Err(e) => out.fail(e),
        }
    }

    let med = |t: &Tracer, span: &str| median(&t.durations_ms(span));
    let execute_ms = med(&tracer, "algo.execute");
    out.set("graph.gen.build_ms", med(&probe, "graph.gen.build"));
    io_metrics(out, &probe, file_bytes, 1);
    out.set("graph.memory_bytes", g.memory_bytes() as f64);
    out.set(
        "graph.analysis.topology_ms",
        med(&probe, "graph.analysis.topology"),
    );
    out.set("algo.execute_ms", execute_ms);
    out.set(algo_metric(s.algo), execute_ms);
    counts.set(out, execute_ms);
    out.set(
        "sim.workspace.reuse_frac",
        ws.reuse_count() as f64 / ws.run_count().max(1) as f64,
    );
    out.set("sim.pool.workers", ws.pool_workers() as f64);
    out.set("core.verify_ms", med(&tracer, "core.verify"));
    out.set("core.metrics_ms", med(&tracer, "core.metrics"));
    finish_trace(cfg, out, (&untraced, &traced), &tracer, &probe, None);
}

/// `mis-regular`'s working set in bytes, computed from its instance: the
/// CSR arrays plus the engine's two per-arc arenas, one outbox slot and
/// one inbox envelope of `mis/luby`'s message type per directed arc.
/// Per-node columns are left out. Builds the instance.
///
/// # Errors
///
/// Returns the build error.
pub fn mis_regular_working_set(cfg: &Config) -> Result<u64, String> {
    let s = single(&Config {
        workload: Workload::MisRegular,
        ..cfg.clone()
    });
    let g = generators::registry()
        .get(s.family)
        .expect("the family is registered")
        .build(s.n, cell::graph_seed(cfg.seed, s.family, s.n))
        .map_err(|e| format!("{} n={}: {e:?}", s.family, s.n))?;
    let per_arc = size_of::<Option<MisMsg>>() + size_of::<Envelope<MisMsg>>();
    Ok((g.memory_bytes() + g.degree_sum() * per_arc) as u64)
}
