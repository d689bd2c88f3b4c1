//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`per_layer`] are the metric sets `BENCHMARK.json`
//! declares; a run prints exactly one of them as the last line of its
//! standard output (see [`Outcome::result_line`]).

use localavg_core::algo::registry;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_ms_p10", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics `(name, unit)` other than the per-algorithm
/// execute times (see [`per_layer`]). The first four are the throughput
/// and the op and request percentiles of the traced run's untraced half.
pub const LAYER_METRICS: [(&str, &str); 41] = [
    ("cells_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("rtt_ms_p50", "ms"),
    ("rtt_ms_p90", "ms"),
    ("graph.gen.build_ms", "ms"),
    ("graph.io.write_ms", "ms"),
    ("graph.io.read_ms", "ms"),
    ("graph.io.file_bytes", "bytes"),
    ("graph.memory_bytes", "bytes"),
    ("graph.analysis.topology_ms", "ms"),
    ("algo.execute_ms", "ms"),
    ("sim.rounds", "count"),
    ("sim.node_rounds", "count"),
    ("sim.live_node_rounds", "count"),
    ("sim.messages", "count"),
    ("sim.ns_per_live_node_round", "ns"),
    ("sim.workspace.reuse_frac", "frac"),
    ("sim.pool.workers", "count"),
    ("core.verify_ms", "ms"),
    ("core.metrics_ms", "ms"),
    ("sweep.run_ms", "ms"),
    ("sweep.self_ms", "ms"),
    ("emit.to_json_ms", "ms"),
    ("emit.bytes", "bytes"),
    ("serve.protocol.parse_us", "us"),
    ("serve.exec_ms", "ms"),
    ("serve.cache.hit_frac", "frac"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.executed", "count"),
    ("serve.errors", "count"),
    ("self_ms.graph", "ms"),
    ("self_ms.algo", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.sweep", "ms"),
    ("self_ms.emit", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.unattributed", "ms"),
    ("trace.ops", "count"),
    ("trace.cells_per_s_ratio", "ratio"),
];

/// The per-algorithm execute-time metric of a registry key:
/// `algo.execute_ms.<key>` with `/` replaced by `-`.
pub fn algo_metric(algo: &str) -> String {
    format!("algo.execute_ms.{}", algo.replace('/', "-"))
}

/// Every per-layer metric `(name, unit)`, printed by traced runs: the
/// fixed catalogue plus one execute time per registered algorithm.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(registry().names().map(|a| (algo_metric(a), "ms")));
    out
}

/// The metrics a run prints: per-layer when `trace`, else end-to-end.
pub fn catalogue(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed ops plus set-up checks that failed).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a failed check that is not a timed op (set-up, replay,
    /// cross-run reference): one more attempted and failed op.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.note_failure(message.into());
    }

    /// Keeps a failure message (the first few are printed).
    pub fn note_failure(&mut self, message: String) {
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The result line: `correct`, `attempted`, `failed`, and the
    /// end-to-end (`trace == false`) or per-layer metrics. A per-layer
    /// metric of a layer the workload does not reach reads 0; a missing
    /// end-to-end metric or a non-finite value makes the run incorrect.
    pub fn result_line(&self, trace: bool) -> String {
        let catalogue = catalogue(trace);
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in &catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    correct = false;
                    0.0
                }
                None => {
                    correct &= trace;
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            metrics.join(", ")
        )
    }
}
