//! The serve worker pool: jobs, shared state, and the cell executor.
//!
//! A [`Pool`] owns everything the daemon's worker threads share — the
//! bounded [`JobQueue`], the content-addressed [`CellCache`], a
//! single-flight [`GraphStore`] of built instances, the master seed,
//! and the service counters. Connection handlers enqueue one [`Job`]
//! per submitted cell; each worker thread runs [`Pool::worker_loop`]
//! with a private reusable [`Workspace`] until the queue closes.
//!
//! A cell runs through the sweep engine's per-cell path ([`crate::cell`])
//! with the same content-addressed seeds and renders through
//! [`crate::emit::cell_json`], so a served line is byte-identical to
//! the same cell's line in an `exp sweep` report (the serve goldens
//! pin this).
//!
//! Liveness: workers never push onto the bounded queue and reply over
//! unbounded mpsc channels, so the only blocking edges are connection
//! threads → queue (relieved by workers popping) and waiter-workers →
//! in-flight cache leaders (always another worker actively executing).
//! The wait-for graph is acyclic and every sink makes progress.
//!
//! A cell that panics does not take its worker down: `Pool::answer`
//! catches the panic and replies with a per-cell error line, and the
//! leader's cache reservation is abandoned by a drop guard, so
//! duplicates waiting on it wake up and retry instead of blocking
//! forever. A generator that panics mid-build releases its
//! [`GraphStore`] slot the same way. The worker keeps its
//! [`Workspace`]: the engine's reset path is built to recover from a
//! run aborted mid-round.

use super::cache::{Acquire, CellCache};
use super::protocol::ServeStats;
use super::queue::JobQueue;
use crate::cell::{self, CellKey};
use crate::emit::cell_json;
use crate::sweep::SweepError;
use localavg_core::algo::RunSpec;
use localavg_graph::Graph;
use localavg_sim::workspace::Workspace;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

/// One unit of work: answer `key` and send the outcome back tagged
/// with the submission `index`.
#[derive(Debug)]
pub struct Job {
    /// The cell to answer.
    pub key: CellKey,
    /// Position of the cell in its batch (results are streamed back in
    /// submission order).
    pub index: usize,
    /// Reply channel of the submitting connection (unbounded, so
    /// workers never block sending).
    pub reply: Sender<JobReply>,
}

/// A worker's answer to one [`Job`].
#[derive(Debug)]
pub struct JobReply {
    /// The job's batch position.
    pub index: usize,
    /// The finished `localavg-sweep/v1` cell line, or a human-readable
    /// error.
    pub line: Result<String, String>,
}

#[derive(Debug)]
enum GraphSlot {
    Building,
    Ready(Arc<Graph>),
}

/// Single-flight store of built `(family, n)` instances.
///
/// The graph seed ignores algorithm and seed index, so every cell of a
/// `(family, n)` pair shares one instance — exactly the sweep engine's
/// "one fixed graph per group" rule. The first worker to need an
/// instance builds it; concurrent requests for the same pair wait on a
/// condvar instead of duplicating the build. Build errors are not
/// cached (they are deterministic, so retries fail identically, but
/// keeping failures out of the store keeps its invariant trivial).
#[derive(Debug, Default)]
pub struct GraphStore {
    slots: Mutex<HashMap<(String, usize), GraphSlot>>,
    built: Condvar,
}

impl GraphStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        GraphStore::default()
    }

    /// Returns the instance for `(key.family, key.n)`, building it on
    /// first use from the cell's content-addressed graph seed.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown families (with a
    /// closest-match suggestion) or generator failures.
    pub fn get(&self, key: &CellKey, master_seed: u64) -> Result<Arc<Graph>, String> {
        self.fetch(key, master_seed).map_err(|e| e.to_string())
    }

    /// [`GraphStore::get`] with the typed error.
    fn fetch(&self, key: &CellKey, master_seed: u64) -> Result<Arc<Graph>, SweepError> {
        let store_key = (key.family.clone(), key.n);
        let mut slots = self.slots.lock().expect("graph store poisoned");
        loop {
            match slots.get(&store_key) {
                Some(GraphSlot::Ready(g)) => return Ok(Arc::clone(g)),
                Some(GraphSlot::Building) => {
                    slots = self.built.wait(slots).expect("graph store poisoned");
                }
                None => {
                    slots.insert(store_key.clone(), GraphSlot::Building);
                    break;
                }
            }
        }
        drop(slots);
        // Settles the `Building` slot on every path out of here.
        let mut build = Builder {
            store: self,
            key: store_key,
            graph: None,
        };
        #[cfg(test)]
        if key.family == PANIC_FAMILY {
            panic!("test-only panicking build");
        }
        let built = cell::build_instance(&key.family, key.n, master_seed).map(Arc::new);
        build.graph = built.as_ref().ok().map(Arc::clone);
        built
    }

    /// Number of instances currently resident.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("graph store poisoned").len()
    }

    /// Whether no instance has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`GraphStore`] builder's `Building` slot, settled when dropped:
/// `Ready` with `graph` if the builder set it, otherwise (a build error,
/// or a panic unwinding through the generator) removed. Either way the
/// waiters wake up: they take the graph or retry the build.
struct Builder<'a> {
    store: &'a GraphStore,
    key: (String, usize),
    graph: Option<Arc<Graph>>,
}

impl Drop for Builder<'_> {
    fn drop(&mut self) {
        let mut slots = self.store.slots.lock().expect("graph store poisoned");
        match self.graph.take() {
            Some(g) => {
                slots.insert(self.key.clone(), GraphSlot::Ready(g));
            }
            None => {
                slots.remove(&self.key);
            }
        }
        drop(slots);
        self.store.built.notify_all();
    }
}

/// Everything the daemon's threads share (see the module docs).
#[derive(Debug)]
pub struct Pool {
    /// Bounded job queue connection handlers feed.
    pub queue: JobQueue<Job>,
    /// Content-addressed result cache.
    pub cache: CellCache,
    /// Shared built instances.
    pub graphs: GraphStore,
    /// The master seed every cell seed is derived from (fixed at
    /// startup, so the cache key is exactly the cell tuple).
    pub master_seed: u64,
    threads: usize,
    executed: AtomicU64,
    served: AtomicU64,
    errors: AtomicU64,
    ws_runs: AtomicU64,
    ws_reuses: AtomicU64,
}

impl Pool {
    /// Creates the shared state for a pool of `threads` workers with the
    /// given cache/queue bounds (each clamped to ≥ 1 by its owner).
    pub fn new(
        threads: usize,
        cache_capacity: usize,
        queue_capacity: usize,
        master_seed: u64,
    ) -> Pool {
        Pool {
            queue: JobQueue::new(queue_capacity),
            cache: CellCache::new(cache_capacity),
            graphs: GraphStore::new(),
            master_seed,
            threads: threads.max(1),
            executed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            ws_runs: AtomicU64::new(0),
            ws_reuses: AtomicU64::new(0),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Drains jobs until the queue closes. Run by each worker thread;
    /// owns one reusable [`Workspace`] across all its cells.
    pub fn worker_loop(&self) {
        let mut ws = Workspace::new();
        while let Some(job) = self.queue.pop() {
            let line = self.answer(&job.key, &mut ws);
            self.served.fetch_add(1, Ordering::Relaxed);
            if line.is_err() {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
            // A send error means the submitting connection hung up;
            // the work is cached either way, so drop the reply.
            let _ = job.reply.send(JobReply {
                index: job.index,
                line,
            });
        }
    }

    /// Answers one cell: cache hit, or lead the execution and publish.
    /// A panicking cell becomes an error reply (see the module docs).
    fn answer(&self, key: &CellKey, ws: &mut Workspace) -> Result<String, String> {
        match self.cache.acquire(key) {
            Acquire::Hit(line) => Ok(line),
            Acquire::Lead => {
                // Settles the reservation on every path out of here.
                let mut lead = Leader {
                    cache: &self.cache,
                    key,
                    line: None,
                };
                let before = ws.stats();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    execute_cell(key, self.master_seed, &self.graphs, ws)
                }))
                .unwrap_or_else(|payload| Err(format!("cell panicked: {}", panic_text(&*payload))));
                let after = ws.stats();
                self.ws_runs
                    .fetch_add((after.runs - before.runs) as u64, Ordering::Relaxed);
                self.ws_reuses
                    .fetch_add((after.reuses - before.reuses) as u64, Ordering::Relaxed);
                let line = outcome?;
                self.executed.fetch_add(1, Ordering::Relaxed);
                lead.line = Some(line.clone());
                Ok(line)
            }
        }
    }

    /// Point-in-time service counters (the `stats` response).
    pub fn stats(&self) -> ServeStats {
        let c = self.cache.stats();
        ServeStats {
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
            entries: c.entries,
            capacity: c.capacity,
            executed: self.executed.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            workspace_runs: self.ws_runs.load(Ordering::Relaxed),
            workspace_reuses: self.ws_reuses.load(Ordering::Relaxed),
            threads: self.threads,
            master_seed: self.master_seed,
        }
    }
}

/// A cache leader's reservation, settled when dropped: completed with
/// `line` if the leader set it, otherwise (an error, or a panic
/// unwinding through the leader) abandoned, so waiters retry.
struct Leader<'a> {
    cache: &'a CellCache,
    key: &'a CellKey,
    line: Option<String>,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        match self.line.take() {
            Some(line) => self.cache.complete(self.key, line),
            None => self.cache.abandon(self.key),
        }
    }
}

/// The message of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Seed index of a cell that panics in test builds only: the seam the
/// panic-recovery tests drive the worker path through.
#[cfg(test)]
const PANIC_SEED: u64 = u64::MAX;

/// A family whose build panics in test builds only: the seam the
/// [`GraphStore`] recovery test drives the builder path through.
#[cfg(test)]
const PANIC_FAMILY: &str = "test/panicking-build";

/// Runs one cell end to end — registry resolution, the domain predicate
/// on the family's declared guarantee (before anything is built), the
/// shared instance, [`cell::execute`] under the content-addressed run
/// seed — and renders the `localavg-sweep/v1` line.
///
/// # Errors
///
/// Returns the rendered [`SweepError`] for unknown registry keys (with
/// closest-match suggestions), rejected params, domain violations,
/// generator failures, and outputs that fail verification.
pub fn execute_cell(
    key: &CellKey,
    master_seed: u64,
    graphs: &GraphStore,
    ws: &mut Workspace,
) -> Result<String, String> {
    serve_cell(key, master_seed, graphs, ws).map_err(|e| e.to_string())
}

fn serve_cell(
    key: &CellKey,
    master_seed: u64,
    graphs: &GraphStore,
    ws: &mut Workspace,
) -> Result<String, SweepError> {
    #[cfg(test)]
    if key.seed == PANIC_SEED {
        panic!("test-only panicking cell");
    }
    let kvs: Vec<(&str, &str)> = key
        .params
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let algo = cell::resolve_algorithm(&key.algo, &kvs)?;
    let family = cell::family(&key.family)?;
    cell::check_domain(&algo, &key.family, key.n, family.min_degree(key.n), || {
        family.is_tree()
    })?;
    let g = graphs.fetch(key, master_seed)?;
    let spec = RunSpec::new(key.algo_seed(master_seed)).with_transcript(key.policy);
    let m = cell::execute(&algo, &key.family, &g, &spec, ws)?.metrics;
    Ok(cell_json(&key.algo, &key.family, key.n, key.seed, &m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run as sweep_run, SweepSpec};
    use std::sync::mpsc::channel;

    fn pool() -> Pool {
        Pool::new(2, 64, 8, 7)
    }

    #[test]
    fn execute_cell_matches_the_sweep_engine_bytes() {
        let spec = SweepSpec {
            algorithms: vec!["mis/luby".into()],
            generators: vec!["regular/4".into()],
            sizes: vec![32],
            seeds: 2,
            master_seed: 7,
            params: Vec::new(),
        };
        let report = sweep_run(&spec, 1).unwrap();
        let graphs = GraphStore::new();
        let mut ws = Workspace::new();
        for result in &report.cells {
            let line = execute_cell(&result.cell.key(), 7, &graphs, &mut ws).unwrap();
            let c = &result.cell;
            let expected = cell_json(c.algorithm, c.generator, c.n, c.seed, &result.metrics);
            assert_eq!(line, expected, "cell {}", c.key());
        }
        assert_eq!(graphs.len(), 1, "one shared (family, n) instance");
    }

    #[test]
    fn execute_cell_reports_unknown_keys_with_suggestions() {
        let graphs = GraphStore::new();
        let mut ws = Workspace::new();
        let bad_algo = CellKey::new("regular/4", 32, 0, "mis/lubby");
        let err = execute_cell(&bad_algo, 0, &graphs, &mut ws).unwrap_err();
        assert!(err.contains("mis/luby"), "got: {err}");
        let bad_gen = CellKey::new("regullar/4", 32, 0, "mis/luby");
        let err = execute_cell(&bad_gen, 0, &graphs, &mut ws).unwrap_err();
        assert!(err.contains("regular/4"), "got: {err}");
    }

    #[test]
    fn execute_cell_enforces_the_domain_filter() {
        let graphs = GraphStore::new();
        let mut ws = Workspace::new();
        // Sinkless orientation needs min degree 3; trees have leaves.
        let key = CellKey::new("tree/random", 32, 0, "orientation/rand");
        let err = execute_cell(&key, 0, &graphs, &mut ws).unwrap_err();
        assert!(err.contains("minimum degree"), "got: {err}");
        // Rake-and-compress runs on forests only; a 4-regular graph has
        // cycles.
        let key = CellKey::new("regular/4", 32, 0, "mis/tree-rc");
        let err = execute_cell(&key, 0, &graphs, &mut ws).unwrap_err();
        assert!(err.contains("forests"), "got: {err}");
    }

    #[test]
    fn worker_loop_serves_jobs_and_counts_hits() {
        let p = pool();
        let (tx, rx) = channel();
        let key = CellKey::new("regular/4", 32, 0, "mis/luby");
        for index in 0..3 {
            p.queue
                .push(Job {
                    key: key.clone(),
                    index,
                    reply: tx.clone(),
                })
                .unwrap();
        }
        p.queue.close();
        std::thread::scope(|s| {
            s.spawn(|| p.worker_loop());
            s.spawn(|| p.worker_loop());
        });
        drop(tx);
        let replies: Vec<JobReply> = rx.iter().collect();
        assert_eq!(replies.len(), 3);
        let lines: Vec<&String> = replies.iter().map(|r| r.line.as_ref().unwrap()).collect();
        assert!(lines.windows(2).all(|w| w[0] == w[1]));
        let s = p.stats();
        assert_eq!(s.executed, 1, "duplicates must coalesce or hit");
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.served, 3);
        assert_eq!(s.errors, 0);
        assert!(s.workspace_runs >= 1);
    }

    #[test]
    fn a_panicking_cell_is_an_error_reply_and_releases_its_duplicates() {
        use std::sync::mpsc::RecvTimeoutError;
        use std::time::Duration;
        let p = Arc::new(pool());
        let (tx, rx) = channel();
        let bad = CellKey::new("regular/4", 32, PANIC_SEED, "mis/luby");
        let good = CellKey::new("regular/4", 32, 0, "mis/luby");
        // Two workers and a duplicate of the panicking cell: whether the
        // duplicate arrives while the leader runs (it waits on the
        // reservation) or after (it finds the slot), it must be answered.
        // Then a healthy cell.
        for (index, key) in [bad.clone(), bad, good].into_iter().enumerate() {
            p.queue
                .push(Job {
                    key,
                    index,
                    reply: tx.clone(),
                })
                .unwrap();
        }
        drop(tx);
        let workers = Arc::clone(&p);
        // A waiter stuck on an unsettled slot never returns, so the
        // workers run off the test thread and the replies time out.
        let crew = std::thread::spawn(move || {
            std::thread::scope(|s| {
                s.spawn(|| workers.worker_loop());
                s.spawn(|| workers.worker_loop());
            });
        });
        let mut replies: Vec<JobReply> = (0..3)
            .map(|_| match rx.recv_timeout(Duration::from_secs(20)) {
                Ok(reply) => reply,
                Err(RecvTimeoutError::Timeout) => panic!("a duplicate of a panicked cell hangs"),
                Err(e) => panic!("a worker died: {e}"),
            })
            .collect();
        p.queue.close();
        crew.join()
            .expect("both workers survive the panicking cell");
        replies.sort_by_key(|r| r.index);
        for r in &replies[..2] {
            let err = r.line.as_ref().unwrap_err();
            assert!(
                err.contains("cell panicked: test-only panicking cell"),
                "got: {err}"
            );
        }
        assert!(replies[2].line.is_ok(), "the worker survives its panic");
        let s = p.stats();
        assert_eq!((s.served, s.errors, s.executed), (3, 2, 1));
        assert_eq!(s.entries, 1, "the panicked cell is not cached");
    }

    #[test]
    fn a_panicking_build_releases_its_waiters() {
        use std::sync::mpsc::RecvTimeoutError;
        use std::time::Duration;
        let store = Arc::new(GraphStore::new());
        let (tx, rx) = channel();
        let bad = CellKey::new(PANIC_FAMILY, 32, 0, "mis/luby");
        // Two requests for the same pair. Whether the second arrives
        // while the first builds (it waits on the slot) or after (it
        // finds the slot), an unsettled `Building` slot hangs it, so
        // neither order needs forcing.
        let requests: Vec<_> = (0..2)
            .map(|_| {
                let (store, tx, key) = (Arc::clone(&store), tx.clone(), bad.clone());
                std::thread::spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| store.get(&key, 7)));
                    tx.send(outcome.is_err()).expect("the test thread listens");
                })
            })
            .collect();
        for _ in 0..2 {
            match rx.recv_timeout(Duration::from_secs(20)) {
                Ok(panicked) => assert!(panicked, "the panicking build panics"),
                Err(RecvTimeoutError::Timeout) => panic!("a waiter on a panicked build hangs"),
                Err(e) => panic!("a request thread died: {e}"),
            }
        }
        for r in requests {
            r.join().expect("the request thread caught its panic");
        }
        assert!(store.is_empty(), "a panicked build leaves no slot behind");
        let good = CellKey::new("regular/4", 32, 0, "mis/luby");
        assert!(store.get(&good, 7).is_ok());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn worker_loop_streams_errors_without_caching_them() {
        let p = pool();
        let (tx, rx) = channel();
        let key = CellKey::new("tree/random", 32, 0, "orientation/rand");
        p.queue
            .push(Job {
                key: key.clone(),
                index: 0,
                reply: tx.clone(),
            })
            .unwrap();
        p.queue
            .push(Job {
                key,
                index: 1,
                reply: tx,
            })
            .unwrap();
        p.queue.close();
        std::thread::scope(|s| {
            s.spawn(|| p.worker_loop());
        });
        let replies: Vec<JobReply> = rx.iter().collect();
        assert_eq!(replies.len(), 2);
        assert!(replies.iter().all(|r| r.line.is_err()));
        let s = p.stats();
        assert_eq!(s.errors, 2);
        assert_eq!(s.executed, 0);
        assert_eq!(s.entries, 0, "failures must not be cached");
    }
}
