//! The four workloads and the timing loop they share.
//!
//! Every workload follows the same shape: set up several times (see
//! [`set_up`]; the median is `setup_s`), then run verified ops in a closed loop for
//! the requested seconds. A traced run splits those seconds into an
//! untraced half and a traced half — the ratio of their throughputs is
//! the tracing overhead — and afterwards makes the extra, untimed calls
//! that decompose an op into its layers.

pub mod serve;
pub mod single;
pub mod sweep;

use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, SpanId, Tracer};
use localavg_core::algo::AlgoRun;
use localavg_core::metrics::CompletionTimes;
use localavg_graph::{io, Graph};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest set-ups per run; `setup_s` is the median of all of them.
pub const MIN_SETUPS: usize = 5;
/// Cheap set-ups repeat until this many seconds are spent…
pub const SETUP_BUDGET_S: f64 = 0.5;
/// …or this many set-ups were made.
pub const MAX_SETUPS: usize = 25;

/// A named workload (`BENCHMARK.json` records why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `mis/luby` on `regular/8`, sequential, one reused workspace.
    MisRegular,
    /// `matching/luby` on `powerlaw/2.1` loaded from a CSR file, sequential.
    MatchingPowerlaw,
    /// `sweep::run` + `emit::to_json` over every registry algorithm.
    SweepMixed,
    /// A child serve daemon under a closed-loop two-connection client.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MisRegular,
        Workload::MatchingPowerlaw,
        Workload::SweepMixed,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MisRegular => "mis-regular",
            Workload::MatchingPowerlaw => "matching-powerlaw",
            Workload::SweepMixed => "sweep-mixed",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instance sizes: the benchmark's own, or a tiny smoke-test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// Small instances for the harness self-tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Seconds of timed ops.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Instance sizes.
    pub size: Size,
    /// Where instance files, references and span files go.
    pub out_dir: PathBuf,
    /// The executable started with `--daemon` for `serve-mixed`.
    pub daemon_exe: PathBuf,
}

impl Config {
    /// Picks the full or tiny value.
    pub fn pick<T>(&self, full: T, tiny: T) -> T {
        match self.size {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }

    fn file(&self, stem: &str, ext: &str) -> PathBuf {
        let size = self.pick("full", "tiny");
        self.out_dir.join(format!(
            "{stem}-{}-{size}-seed{}.{ext}",
            self.workload.name(),
            self.seed
        ))
    }

    /// A `localavg-csr/v1` file that lives only during this process.
    fn instance_file(&self, tag: &str) -> PathBuf {
        let tag = tag.replace('/', "-");
        self.file(&format!("instance-{tag}-pid{}", std::process::id()), "csr")
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        out.fail(format!("cannot create {}: {e}", cfg.out_dir.display()));
        return out;
    }
    match cfg.workload {
        Workload::MisRegular | Workload::MatchingPowerlaw => single::run(cfg, &mut out),
        Workload::SweepMixed => sweep::run(cfg, &mut out),
        Workload::ServeMixed => serve::run(cfg, &mut out),
    }
    out
}

/// Runs `f` [`MIN_SETUPS`] times, and more while it has taken less than
/// [`SETUP_BUDGET_S`] in total (at most [`MAX_SETUPS`]), dropping each
/// result before the next set-up. Returns the last result and the
/// seconds of every set-up.
///
/// # Errors
///
/// Returns the first set-up error.
pub fn set_up<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let start = Instant::now();
    let mut seconds = Vec::new();
    let mut last = None;
    while seconds.len() < MIN_SETUPS
        || (start.elapsed().as_secs_f64() < SETUP_BUDGET_S && seconds.len() < MAX_SETUPS)
    {
        drop(last.take());
        let t = Instant::now();
        let value = f()?;
        seconds.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), seconds))
}

/// The samples of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of each op, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Request round trips, in milliseconds (the op itself when the
    /// workload has no request layer).
    pub rtt_ms: Vec<f64>,
    /// Verified cells completed.
    pub cells: u64,
    /// Wall time of the whole phase, in seconds.
    pub wall_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose check failed.
    pub failed: u64,
}

impl Phase {
    /// Verified cells per second of phase wall time.
    pub fn cells_per_s(&self) -> f64 {
        self.cells as f64 / self.wall_s.max(1e-9)
    }
}

/// Runs `op` in a closed loop for `seconds` (at least once), each call
/// inside a `bench.op` root span. `op` returns the verified cells it
/// completed or why its output check failed; a panic is a failure too.
pub fn timed(
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
    mut op: impl FnMut(&Tracer, Option<SpanId>) -> Result<u64, String>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let root = tracer.start("bench.op", None);
        let result = catch_unwind(AssertUnwindSafe(|| op(tracer, Some(root))))
            .unwrap_or_else(|_| Err("the op panicked".to_string()));
        tracer.end(root);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        phase.op_ms.push(ms);
        phase.rtt_ms.push(ms);
        phase.attempted += 1;
        match result {
            Ok(cells) => phase.cells += cells,
            Err(e) => {
                phase.failed += 1;
                out.note_failure(e);
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    phase
}

/// Sets the end-to-end metrics of an untraced run.
///
/// The op time is the 10th percentile of the run's ops. The shared
/// host's neighbours slow memory-bound ops by up to ~1.6× in bursts of
/// one to twenty seconds; the fastest ops of a run miss most bursts,
/// while the median or the mean of a run inside one does not. It is
/// not the fastest op, because a few `serve-mixed` batches escape the
/// TCP stall every other batch waits for.
pub fn end_to_end(out: &mut Outcome, setup_s: &[f64], phase: &Phase, peak_rss_bytes: u64) {
    out.set("setup_s", stats::median(setup_s));
    out.set("run_ms_p10", stats::p10(&phase.op_ms));
    out.set("peak_rss_mb", peak_rss_bytes as f64 / 1e6);
    out.set(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.notes.push(format!(
        "samples: {} ops; setup reps: {}",
        phase.op_ms.len(),
        setup_s.len()
    ));
}

/// Sets the throughput and the op and request percentiles of a phase:
/// per-layer metrics of the traced run, taken from its untraced half,
/// because a burst on the host moves them by more than a bound allows.
fn throughput_and_percentiles(out: &mut Outcome, phase: &Phase) {
    out.set("cells_per_s", phase.cells_per_s());
    out.set("run_ms_p50", stats::median(&phase.op_ms));
    out.set("rtt_ms_p50", stats::median(&phase.rtt_ms));
    let (p90, pct) = stats::tail(&phase.rtt_ms, 0.9);
    out.set("rtt_ms_p90", p90);
    out.notes.push(format!(
        "untraced half: {} ops, {} requests",
        phase.op_ms.len(),
        phase.rtt_ms.len()
    ));
    if pct != 90 {
        out.notes.push(format!(
            "rtt_ms_p90: {} requests resolve no percentile above p{pct} with {} samples \
             beyond it, so p{pct} is reported",
            phase.rtt_ms.len(),
            stats::MIN_BEYOND
        ));
    }
}

/// Sets the throughput, percentile, tracing-overhead and self-time
/// metrics of a traced run and writes its spans out. Self times are per op of the traced phase; the
/// root op span's own time is `self_ms.unattributed`.
///
/// `sweep::run` and a served batch make their layer calls out of the
/// benchmark's reach, so their spans have no children. `hidden` names
/// such a span's layer and the per-op milliseconds the untimed
/// decomposition puts inside it, by layer; that time moves from the
/// span's layer to those layers.
pub fn finish_trace(
    cfg: &Config,
    out: &mut Outcome,
    (untraced, traced): (&Phase, &Phase),
    tracer: &Tracer,
    probe: &Tracer,
    hidden: Option<(&'static str, &[(&'static str, f64)])>,
) {
    let path = cfg.file("spans", "jsonl");
    match trace::write_spans(
        &path,
        &[("ops", tracer), ("setup-and-decomposition", probe)],
    ) {
        Ok(()) => out.notes.push(format!("spans: {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("cannot write {}: {e}", path.display())),
    }
    let ops = traced.attempted.max(1) as f64;
    let mut self_ms = tracer.self_ms_by_layer();
    self_ms.values_mut().for_each(|ms| *ms /= ops);
    if let Some((outer, inside)) = hidden {
        for &(layer, ms) in inside {
            *self_ms.entry(outer).or_insert(0.0) -= ms;
            *self_ms.entry(layer).or_insert(0.0) += ms;
        }
    }
    for (layer, ms) in self_ms {
        let name = if layer == "bench" {
            "self_ms.unattributed".to_string()
        } else {
            format!("self_ms.{layer}")
        };
        out.set(name, ms);
    }
    throughput_and_percentiles(out, untraced);
    out.set("trace.ops", traced.attempted as f64);
    out.set(
        "trace.cells_per_s_ratio",
        traced.cells_per_s() / untraced.cells_per_s().max(1e-9),
    );
}

/// Runs the timed phases: one untraced phase, or an untraced and a
/// traced half. Returns `(untraced, traced)`.
pub fn phases(
    cfg: &Config,
    out: &mut Outcome,
    tracer: &Tracer,
    mut op: impl FnMut(&Tracer, Option<SpanId>) -> Result<u64, String>,
) -> (Phase, Option<Phase>) {
    if !cfg.trace {
        return (timed(cfg.seconds, tracer, out, &mut op), None);
    }
    let untraced = timed(cfg.seconds / 2.0, &Tracer::new(false), out, &mut op);
    let traced = timed(cfg.seconds / 2.0, tracer, out, &mut op);
    (untraced, Some(traced))
}

/// Checks `value` against the reference an earlier run with the same
/// workload, size and seed left in the output directory, or records it
/// when none exists yet. A mismatch is a failed op.
pub fn check_reference(cfg: &Config, out: &mut Outcome, value: &str) {
    let path = cfg.file("reference", "txt");
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() != value.trim() => out.fail(format!(
            "outputs differ from an earlier run with seed {}: `{}` now, `{}` before ({})",
            cfg.seed,
            value.trim(),
            earlier.trim(),
            path.display()
        )),
        Ok(_) => {}
        Err(_) => {
            // Written whole under a private name, then renamed into place,
            // so a concurrent run never reads half a reference.
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            if let Err(e) = std::fs::write(&tmp, value).and_then(|()| std::fs::rename(&tmp, &path))
            {
                out.notes
                    .push(format!("cannot record reference {}: {e}", path.display()));
            }
        }
    }
}

/// Writes `g` as `localavg-csr/v1`, reads it back with its content hash,
/// deletes the file and checks the round trip. Returns the instance read
/// back and the file size.
pub fn csr_round_trip(tracer: &Tracer, g: &Graph, path: &Path) -> Result<(Graph, u64), String> {
    let bytes = tracer
        .span("graph.io.write", None, || io::write_graph_to_path(path, g))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let read = tracer.span("graph.io.read", None, || {
        io::read_graph_from_path_with_hash(path)
    });
    let _ = std::fs::remove_file(path);
    let (back, hash) = read.map_err(|e| format!("read {}: {e}", path.display()))?;
    if back != *g || hash != io::content_hash(g) {
        return Err(format!(
            "{} did not read back as the instance written",
            path.display()
        ));
    }
    Ok((back, bytes))
}

/// Sets the `graph.io.*` metrics from the round trips `tracer` recorded
/// (`sum` adds several files per round; otherwise the median is used).
pub fn io_metrics(out: &mut Outcome, tracer: &Tracer, file_bytes: u64, per_round: usize) {
    for (span, metric) in [
        ("graph.io.write", "graph.io.write_ms"),
        ("graph.io.read", "graph.io.read_ms"),
    ] {
        let d = tracer.durations_ms(span);
        if !d.is_empty() {
            out.set(metric, stats::median(&sums(&d, per_round)));
        }
    }
    out.set("graph.io.file_bytes", file_bytes as f64);
}

/// The exact `sim.*` counts, summed over runs.
#[derive(Debug, Default)]
pub struct SimCounts {
    rounds: u64,
    node_rounds: u64,
    live_node_rounds: u64,
    messages: u64,
}

impl SimCounts {
    /// Adds one run on `g`. `sim.live_node_rounds` counts the nodes live
    /// at the start of every executed round: all of them in round 0,
    /// then the live ledger, which needs a `Full` or `CompletionsOnly`
    /// transcript.
    pub fn add(&mut self, g: &Graph, run: &AlgoRun, times: &CompletionTimes) {
        let t = &run.transcript;
        self.rounds += t.rounds as u64;
        self.node_rounds += times.node.iter().map(|&r| r as u64).sum::<u64>();
        self.live_node_rounds +=
            g.n() as u64 + t.live_after_round.iter().map(|&l| l as u64).sum::<u64>();
        self.messages += t.messages_sent as u64;
    }

    /// Sets the `sim.*` counts and `sim.ns_per_live_node_round` for
    /// `execute_ms` of execute time over the same runs.
    pub fn set(&self, out: &mut Outcome, execute_ms: f64) {
        out.set("sim.rounds", self.rounds as f64);
        out.set("sim.node_rounds", self.node_rounds as f64);
        out.set("sim.live_node_rounds", self.live_node_rounds as f64);
        out.set("sim.messages", self.messages as f64);
        out.set(
            "sim.ns_per_live_node_round",
            execute_ms * 1e6 / self.live_node_rounds.max(1) as f64,
        );
    }
}

/// FNV-1a of some output bytes: the value a cross-run reference keeps.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Sums consecutive chunks of `per` values.
pub fn sums(values: &[f64], per: usize) -> Vec<f64> {
    values.chunks(per.max(1)).map(|c| c.iter().sum()).collect()
}
