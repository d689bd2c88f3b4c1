//! `serve-mixed`: a child serve daemon (2 workers, a 64-cell cache over
//! a 256-cell universe) under one client with two closed-loop
//! connections submitting 8-cell batches drawn from a seeded Zipf(1.0).
//!
//! The daemon is this executable started with `--daemon`, which runs
//! `localavg_bench::serve::run` — the daemon behind `exp serve`. It sees
//! only the generated request lines. Every answer line is checked
//! byte for byte against `execute_cell` on the same key after the timed
//! phase.

use super::{
    check_reference, csr_round_trip, end_to_end, finish_trace, fnv, io_metrics, set_up, Config,
    Phase, SimCounts,
};
use crate::host;
use crate::report::{algo_metric, Outcome};
use crate::stats::{median, Zipf};
use crate::trace::Tracer;
use localavg_bench::cell::CellKey;
use localavg_bench::serve::protocol::submit_request_json;
use localavg_bench::serve::{execute_cell, parse_request, Client, GraphStore, ServeStats};
use localavg_core::algo::{registry, RunSpec, Workspace};
use localavg_graph::analysis::topology_stats;
use localavg_graph::rng::Rng;
use localavg_graph::Graph;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Algorithms of the cell universe.
pub const ALGOS: [&str; 4] = [
    "mis/luby",
    "ruling/two-two",
    "matching/luby",
    "coloring/trial",
];
/// Families of the cell universe.
pub const FAMILIES: [&str; 4] = ["regular/4", "gnp/deg8", "powerlaw/2.1", "tree/random"];
/// Seed indices of the cell universe.
pub const SEEDS: u64 = 8;
/// Cells per submitted batch.
pub const BATCH: usize = 8;
/// Client connections, each a closed loop.
pub const CONNECTIONS: usize = 2;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Daemon cache capacity, in cells (a quarter of the universe).
pub const CACHE: usize = 64;
/// Zipf exponent of cell popularity.
pub const ZIPF_S: f64 = 1.0;
/// Seeds the popularity order, which is the same for every workload
/// seed so that every seed loads the daemon alike.
const POPULARITY_SEED: u64 = 0x5e_27e0;

/// The cell universe in popularity order (rank 0 first): every
/// algorithm × family × size × seed index, in a fixed shuffled order so
/// that the hot cells mix algorithms, families and sizes.
pub fn universe(sizes: &[usize]) -> Vec<CellKey> {
    let mut cells = Vec::new();
    for algo in ALGOS {
        for family in FAMILIES {
            for &n in sizes {
                for seed in 0..SEEDS {
                    cells.push(CellKey::new(family, n, seed, algo));
                }
            }
        }
    }
    Rng::seed_from(POPULARITY_SEED).shuffle(&mut cells);
    cells
}

/// The batches one connection submits, in order: [`BATCH`] Zipf draws
/// each, from the connection's substream of the workload seed.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    zipf: Zipf,
}

impl Stream {
    /// Connection `conn`'s stream over a universe of `cells` cells.
    pub fn new(seed: u64, conn: usize, cells: usize) -> Stream {
        Stream {
            rng: Rng::seed_from(seed).fork(conn as u64 + 1),
            zipf: Zipf::new(cells, ZIPF_S),
        }
    }

    /// The next batch, as universe ranks.
    pub fn next_batch(&mut self) -> [usize; BATCH] {
        std::array::from_fn(|_| self.zipf.sample(&mut self.rng))
    }
}

/// A running child daemon; dropping it kills and reaps the child.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn start(exe: &Path, master_seed: u64) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .args(["--daemon", "--master-seed", &master_seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let ready = BufReader::new(stdout).read_line(&mut line);
        let addr = ready
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening ")?.parse().ok());
        // Dropping the daemon on the error path kills and reaps the child.
        let daemon = Daemon {
            child,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
        };
        match addr {
            Some(_) => Ok(daemon),
            None => Err(format!(
                "the daemon did not report its address: `{}`",
                line.trim()
            )),
        }
    }

    fn peak_rss(&self) -> u64 {
        host::status_bytes(&self.child.id().to_string(), "VmHWM:").unwrap_or(0)
    }

    fn stats(&self) -> Result<ServeStats, String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats: {e}"))
    }

    /// Asks the daemon to stop and waits for it.
    fn stop(mut self) -> Result<(), String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Answers seen per universe rank, and every batch submitted.
#[derive(Debug, Default)]
struct Ledger {
    answers: HashMap<usize, String>,
    batches: Vec<([usize; BATCH], bool)>,
    requests: Vec<String>,
}

impl Ledger {
    /// Checks one batch's answers: one line per cell, no errors, and the
    /// same line every time a cell is answered.
    fn check(
        &mut self,
        batch: [usize; BATCH],
        lines: std::io::Result<(Vec<String>, usize)>,
    ) -> Result<(), String> {
        let verdict = lines
            .map_err(|e| format!("submit: {e}"))
            .and_then(|(lines, errors)| {
                if lines.len() != BATCH || errors != 0 {
                    return Err(format!(
                        "{} lines and {errors} errors for {BATCH} cells",
                        lines.len()
                    ));
                }
                for (line, &rank) in lines.iter().zip(&batch) {
                    let known = self.answers.entry(rank).or_insert_with(|| line.clone());
                    if known != line {
                        return Err(format!("two different answers for universe cell {rank}"));
                    }
                }
                Ok(())
            });
        self.batches.push((batch, verdict.is_ok()));
        verdict
    }
}

/// Submits one batch over `client` and checks it, inside a root span.
fn submit(
    client: &mut Client,
    keys: &[CellKey],
    batch: [usize; BATCH],
    tracer: &Tracer,
    ledger: &Mutex<Ledger>,
) -> (f64, f64, Result<(), String>) {
    let t = Instant::now();
    let root = tracer.start("bench.op", None);
    let cells: Vec<CellKey> = batch.iter().map(|&r| keys[r].clone()).collect();
    let request = tracer.enabled().then(|| submit_request_json(&cells));
    let sent = Instant::now();
    let reply = tracer.span("serve.submit", Some(root), || client.submit(&cells));
    let rtt = sent.elapsed().as_secs_f64() * 1e3;
    let mut ledger = ledger.lock().expect("ledger poisoned");
    if let Some(r) = request {
        ledger.requests.push(r);
    }
    let verdict = ledger.check(batch, reply.map(|o| (o.lines, o.errors)));
    drop(ledger);
    tracer.end(root);
    (t.elapsed().as_secs_f64() * 1e3, rtt, verdict)
}

/// Both connections in a closed loop for `seconds`.
fn closed_loop(
    addr: SocketAddr,
    keys: &[CellKey],
    streams: &mut [Stream],
    seconds: f64,
    tracer: &Tracer,
    ledger: &Mutex<Ledger>,
    out: &mut Outcome,
) -> Phase {
    let start = Instant::now();
    let per_conn: Vec<(Phase, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                s.spawn(move || {
                    let mut phase = Phase::default();
                    let mut failures = Vec::new();
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            phase.attempted = 1;
                            phase.failed = 1;
                            return (phase, vec![format!("connect: {e}")]);
                        }
                    };
                    while start.elapsed().as_secs_f64() < seconds {
                        let batch = stream.next_batch();
                        let (op, rtt, verdict) = submit(&mut client, keys, batch, tracer, ledger);
                        phase.op_ms.push(op);
                        phase.rtt_ms.push(rtt);
                        phase.attempted += 1;
                        match verdict {
                            Ok(()) => phase.cells += BATCH as u64,
                            Err(e) => {
                                phase.failed += 1;
                                failures.push(e);
                                // A broken connection fails every later batch.
                                break;
                            }
                        }
                    }
                    (phase, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        wall_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for (p, failures) in per_conn {
        phase.op_ms.extend(p.op_ms);
        phase.rtt_ms.extend(p.rtt_ms);
        phase.cells += p.cells;
        phase.attempted += p.attempted;
        phase.failed += p.failed;
        failures.into_iter().for_each(|f| out.note_failure(f));
    }
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    phase
}

pub(super) fn run(cfg: &Config, out: &mut Outcome) {
    let sizes = cfg.pick([1024, 4096], [64, 128]);
    let keys = universe(&sizes);
    let probe = Tracer::new(cfg.trace);
    let ledger = Mutex::new(Ledger::default());
    let warm: Vec<CellKey> = keys[..CACHE].to_vec();
    let mut first_warm: Option<Vec<String>> = None;
    let set = set_up(|| {
        let d = Daemon::start(&cfg.daemon_exe, cfg.seed)?;
        // Warm the cache with the CACHE most popular cells.
        let lines = Client::connect(d.addr)
            .and_then(|mut c| {
                let mut lines = Vec::new();
                for chunk in warm.chunks(BATCH) {
                    let o = c.submit(chunk)?;
                    if o.errors != 0 {
                        return Err(std::io::Error::other(format!("{} error lines", o.errors)));
                    }
                    lines.extend(o.lines);
                }
                Ok(lines)
            })
            .map_err(|e| format!("warm-up: {e}"))?;
        match &first_warm {
            Some(first) if *first != lines => {
                return Err("a restarted daemon answered the warm-up differently".to_string())
            }
            Some(_) => {}
            None => first_warm = Some(lines.clone()),
        }
        Ok((d, lines))
    });
    let ((daemon, warm_lines), setup_s) = match set {
        Ok(set) => set,
        Err(e) => return out.fail(e),
    };
    {
        let mut l = ledger.lock().expect("ledger poisoned");
        for (rank, line) in warm_lines.iter().enumerate() {
            l.answers.insert(rank, line.clone());
        }
    }
    let warm_fnv = fnv(warm_lines.concat().as_bytes());
    check_reference(cfg, out, &format!("warm_up_fnv={warm_fnv:016x}"));

    let before = match daemon.stats() {
        Ok(s) => s,
        Err(e) => return out.fail(e),
    };
    let mut streams: Vec<Stream> = (0..CONNECTIONS)
        .map(|c| Stream::new(cfg.seed, c, keys.len()))
        .collect();
    let tracer = Tracer::new(cfg.trace);
    let off = Tracer::new(false);
    let mut phase = |seconds, tracer: &Tracer, out: &mut Outcome| {
        closed_loop(
            daemon.addr,
            &keys,
            &mut streams,
            seconds,
            tracer,
            &ledger,
            out,
        )
    };
    let (untraced, traced) = if cfg.trace {
        let half = cfg.seconds / 2.0;
        (phase(half, &off, out), Some(phase(half, &tracer, out)))
    } else {
        (phase(cfg.seconds, &off, out), None)
    };
    let after = daemon.stats();
    let peak_rss = daemon.peak_rss();
    if let Err(e) = daemon.stop() {
        out.fail(e);
    }
    let after = match after {
        Ok(s) => s,
        Err(e) => return out.fail(e),
    };

    // Every answered cell, byte for byte against execute_cell.
    let ledger = ledger.into_inner().expect("ledger poisoned");
    let graphs = GraphStore::new();
    let mut ws = Workspace::new();
    let ranks: BTreeSet<usize> = ledger.answers.keys().copied().collect();
    let mut instances: BTreeMap<(&str, usize), Arc<Graph>> = BTreeMap::new();
    for &rank in &ranks {
        let key = &keys[rank];
        if let Entry::Vacant(slot) = instances.entry((key.family.as_str(), key.n)) {
            match probe.span("graph.gen.build", None, || graphs.get(key, cfg.seed)) {
                Ok(g) => {
                    slot.insert(g);
                }
                Err(e) => out.fail(e),
            }
        }
    }
    let mut bad = BTreeSet::new();
    for &rank in &ranks {
        let expected = probe.span("serve.exec", None, || {
            execute_cell(&keys[rank], cfg.seed, &graphs, &mut ws)
        });
        if expected.as_ref() != Ok(&ledger.answers[&rank]) {
            bad.insert(rank);
            out.note_failure(format!(
                "the daemon's answer for {} differs from execute_cell",
                keys[rank]
            ));
        }
    }
    if !bad.is_empty() {
        let newly_failed = ledger
            .batches
            .iter()
            .filter(|(b, ok)| *ok && b.iter().any(|r| bad.contains(r)))
            .count() as u64;
        out.failed += newly_failed;
        if (0..warm_lines.len()).any(|r| bad.contains(&r)) {
            out.fail("a warm-up answer differs from execute_cell");
        }
    }
    out.notes.push(format!(
        "distinct cells answered: {}; cache hits/misses in the timed window: {}/{}",
        ranks.len(),
        after.hits - before.hits,
        after.misses - before.misses
    ));
    let graph_bytes: usize = instances.values().map(|g| g.memory_bytes()).sum();

    let Some(traced) = traced else {
        end_to_end(out, &setup_s, &untraced, peak_rss);
        return;
    };

    // Untimed decomposition of the answered cells into layer calls.
    for line in &ledger.requests {
        if probe
            .span("serve.protocol.parse", None, || parse_request(line))
            .is_err()
        {
            out.fail("a recorded request line does not parse");
        }
    }
    let mut replay = Workspace::new();
    let mut per_algo: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut counts = SimCounts::default();
    for &rank in &ranks {
        let key = &keys[rank];
        let Some(g) = instances.get(&(key.family.as_str(), key.n)) else {
            continue;
        };
        let algo = registry()
            .get(&key.algo)
            .expect("universe algorithms are registered");
        let spec = RunSpec::new(key.algo_seed(cfg.seed)).with_transcript(key.policy);
        let t = Instant::now();
        let run = probe.span("algo.execute", None, || {
            algo.execute_in(g, &spec, &mut replay)
        });
        per_algo
            .entry(key.algo.as_str())
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e3);
        if probe.span("core.verify", None, || run.verify(g)).is_err() {
            out.fail(format!("replay of {key}: invalid output"));
        }
        let times = probe.span("core.metrics", None, || run.completion_times(g));
        counts.add(g, &run, &times);
    }
    let mut file_bytes = 0;
    for (&(family, n), g) in &instances {
        probe.span("graph.analysis.topology", None, || topology_stats(g));
        let path = cfg.instance_file(&format!("{family}-{n}"));
        match csr_round_trip(&probe, g, &path) {
            Ok((_, bytes)) => file_bytes += bytes,
            Err(e) => out.fail(e),
        }
    }

    let med = |span: &str| median(&probe.durations_ms(span));
    out.set("graph.gen.build_ms", probe.total_ms("graph.gen.build"));
    io_metrics(out, &probe, file_bytes, instances.len());
    out.set("graph.memory_bytes", graph_bytes as f64);
    out.set(
        "graph.analysis.topology_ms",
        probe.total_ms("graph.analysis.topology"),
    );
    out.set("algo.execute_ms", med("algo.execute"));
    let replayed = per_algo.values().map(Vec::len).sum::<usize>().max(1) as f64;
    for (algo, ms) in per_algo {
        out.set(algo_metric(algo), median(&ms));
    }
    counts.set(out, probe.total_ms("algo.execute"));
    out.set(
        "sim.workspace.reuse_frac",
        (after.workspace_reuses - before.workspace_reuses) as f64
            / (after.workspace_runs - before.workspace_runs).max(1) as f64,
    );
    out.set("sim.pool.workers", replay.pool_workers() as f64);
    out.set("core.verify_ms", med("core.verify"));
    out.set("core.metrics_ms", med("core.metrics"));
    out.set("serve.protocol.parse_us", med("serve.protocol.parse") * 1e3);
    out.set("serve.exec_ms", med("serve.exec"));
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.set(
        "serve.cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("serve.cache.hits", hits as f64);
    out.set("serve.cache.misses", misses as f64);
    out.set(
        "serve.cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    out.set("serve.executed", (after.executed - before.executed) as f64);
    out.set("serve.errors", (after.errors - before.errors) as f64);
    // A served batch makes its layer calls inside the daemon: per op, the
    // cells the daemon executed, each costing what the replay of an
    // answered cell costs on average. The two connections' ops overlap,
    // so like the op times themselves this is thread time.
    let executed_per_op = (after.executed - before.executed) as f64
        / (untraced.attempted + traced.attempted).max(1) as f64;
    let per_cell = |spans: &[&str]| spans.iter().map(|s| probe.total_ms(s)).sum::<f64>() / replayed;
    let inside = [
        ("algo", executed_per_op * per_cell(&["algo.execute"])),
        (
            "core",
            executed_per_op * per_cell(&["core.verify", "core.metrics"]),
        ),
    ];
    finish_trace(
        cfg,
        out,
        (&untraced, &traced),
        &tracer,
        &probe,
        Some(("serve", &inside)),
    );
}
