//! Reusable engine arenas, keyed to a graph's CSR shape.
//!
//! Creating a fresh set of run arenas for an n = 10⁵ instance means tens
//! of megabytes of allocation *per run* — two outbox slots per directed
//! arc (the double buffer), per-node process/RNG/spill columns. Drivers that run
//! the same algorithm on the same instance thousands of times (the sweep
//! engine's cells, `exp bench-engine`'s repetitions) pay that bill every
//! time for no benefit.
//!
//! A [`Workspace`] owns those arenas across runs. The engine's per-run
//! state is typed by the algorithm's `Process` implementation (message
//! and output types differ per algorithm), so the workspace stores one
//! type-erased slot per process type and the engine downcasts on entry
//! (`engine::run_spec_in`). Arenas are only valid for one CSR shape —
//! `(n, m, Σdeg)` — and the workspace flushes itself whenever a run
//! arrives for a differently-shaped graph.
//!
//! Reuse is observably free: every run resets the arenas to exactly the
//! state a fresh allocation would have, so transcripts are bit-identical
//! with and without a workspace (the sweep golden files pin this — the
//! sweep engine always runs through per-worker workspaces).

use crate::pool::WorkerPool;
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Reusable per-run engine arenas (see the module docs).
///
/// Construction is free (no allocation until the first run), so the
/// ergonomic default for one-off runs is a fresh `Workspace::new()`; keep
/// one alive across runs only when the run count makes reuse pay.
///
/// Besides the arenas, a workspace owns the engine's persistent
/// [`WorkerPool`]: the first parallel run spawns the worker threads and
/// later parallel runs reuse them, so a long-lived workspace (the `exp
/// serve` pool workers, `exp bench-engine` repetitions) pays thread-spawn
/// cost once rather than once per run. The pool is independent of the
/// CSR shape and survives both shape changes and [`Workspace::clear`].
#[derive(Debug, Default)]
pub struct Workspace {
    /// CSR shape `(n, m, degree_sum)` the stored arenas are sized for.
    pub(crate) shape: Option<(usize, usize, usize)>,
    /// One type-erased `RunState<P>` per process type seen on this shape.
    pub(crate) states: HashMap<TypeId, Box<dyn Any + Send>>,
    /// Resident worker threads for parallel runs (spawned lazily by the
    /// first parallel run, grown when a run asks for more threads).
    pub(crate) pool: Option<WorkerPool>,
    /// Runs that found a matching arena to reuse.
    pub(crate) reuses: usize,
    /// Total runs served.
    pub(crate) runs: usize,
}

impl Workspace {
    /// Creates an empty workspace (allocates nothing until the first run).
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Drops every stored arena (e.g. before moving to a much smaller
    /// instance, to release the high-water memory). The worker pool is
    /// kept: its threads hold no per-shape memory and respawning them is
    /// exactly the cost the pool exists to avoid.
    pub fn clear(&mut self) {
        self.states.clear();
        self.shape = None;
    }

    /// Number of resident pool worker threads (0 until the first parallel
    /// run engages the pool; the driving thread is not counted).
    pub fn pool_workers(&self) -> usize {
        self.pool.as_ref().map_or(0, WorkerPool::workers)
    }

    /// Number of runs served by this workspace.
    pub fn run_count(&self) -> usize {
        self.runs
    }

    /// Number of runs that reused an already-allocated arena (the rest
    /// allocated fresh — first contact with a process type or a shape
    /// change).
    pub fn reuse_count(&self) -> usize {
        self.reuses
    }

    /// Number of distinct process types currently holding arenas.
    pub fn arena_count(&self) -> usize {
        self.states.len()
    }

    /// Point-in-time counter snapshot. Long-running drivers that own one
    /// workspace per worker (the `exp serve` pool) take deltas of this
    /// around each run to aggregate reuse accounting across the fleet.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            runs: self.runs,
            reuses: self.reuses,
            arenas: self.states.len(),
        }
    }
}

/// A snapshot of a [`Workspace`]'s counters (see [`Workspace::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// Runs served so far.
    pub runs: usize,
    /// Runs that reused an already-allocated arena.
    pub reuses: usize,
    /// Distinct process types currently holding arenas.
    pub arenas: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_workspace_is_empty() {
        let ws = Workspace::new();
        assert_eq!(ws.run_count(), 0);
        assert_eq!(ws.reuse_count(), 0);
        assert_eq!(ws.arena_count(), 0);
        assert_eq!(ws.shape, None);
        assert_eq!(ws.pool_workers(), 0);
        assert_eq!(ws.stats(), WorkspaceStats::default());
    }

    #[test]
    fn stats_snapshot_tracks_counters() {
        let mut ws = Workspace::new();
        ws.runs = 5;
        ws.reuses = 3;
        ws.states.insert(TypeId::of::<u32>(), Box::new(1u32));
        let s = ws.stats();
        assert_eq!(s.runs, 5);
        assert_eq!(s.reuses, 3);
        assert_eq!(s.arenas, 1);
    }

    #[test]
    fn clear_drops_arenas() {
        let mut ws = Workspace::new();
        ws.states.insert(TypeId::of::<u32>(), Box::new(1u32));
        ws.shape = Some((1, 0, 0));
        ws.clear();
        assert_eq!(ws.arena_count(), 0);
        assert_eq!(ws.shape, None);
    }
}
