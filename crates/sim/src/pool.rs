//! A persistent, epoch-synchronized worker pool for the round engine.
//!
//! The old parallel executor respawned `std::thread::scope` threads every
//! round; at n = 10⁵ and thousands of (mostly tiny, frontier-shrunken)
//! rounds, spawn/join cost dominated and `parallel/2` *lost* to the
//! sequential loop. A [`WorkerPool`] spawns its threads **once** — per
//! `execute`, or once per [`Workspace`](crate::workspace::Workspace) when
//! runs are batched (the `exp serve` result daemon's workers keep one
//! workspace, and therefore one pool, alive across every cell they
//! answer) — and hands out per-round work by bumping an epoch counter
//! under a mutex.
//!
//! # Epoch protocol and liveness
//!
//! One *epoch* = one chunked pass over the node array (the engine runs
//! one per round). [`WorkerPool::run`] publishes a
//! job (a borrowed closure plus a task count), bumps the epoch, and wakes
//! every worker; workers race on a shared atomic cursor for chunk
//! indices, run the closure on each, then report back. The barrier is
//! the `active` count: `run` blocks until every worker — including ones
//! past the thread `limit`, which only acknowledge — has decremented it.
//!
//! Liveness argument: (1) the epoch counter only ever increments, and a
//! worker waits only while `epoch == last_seen`, so a wake-up lost to a
//! spurious or missed notification is recovered at the next
//! `notify_all` — the predicate is level-triggered, not edge-triggered;
//! (2) the cursor only increases within an epoch, so every chunk is
//! claimed exactly once and a worker's grab loop terminates as soon as
//! `cursor >= tasks`; (3) a panicking worker still decrements `active`
//! (the panic is caught, stored, and re-raised on the driver), and it
//! forces the cursor to the end so healthy workers drain instantly —
//! therefore `run` can never wait on a worker that made no progress.
//! The pool stays usable after a panic: no lock is held across user
//! code, and poisoned mutexes are explicitly bypassed.
//!
//! # Safety
//!
//! The published job pointer is a lifetime-erased borrow of the caller's
//! closure. This is sound because `run` does not return until `active`
//! reaches 0, i.e. until no worker can still dereference the pointer,
//! and the pointer is cleared before `run` returns. The module is the
//! only place in the crate that needs `unsafe` for thread plumbing; the
//! engine's chunk passes carry their own safety argument.

#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One published pass: a lifetime-erased closure, how many tasks (chunk
/// indices) it spans, and how many workers may grab tasks this epoch.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    tasks: usize,
    limit: usize,
}

// SAFETY: the pointer crosses threads, but it is only dereferenced
// between the epoch bump and the worker's `active` decrement, and
// `WorkerPool::run` keeps the pointee alive (blocked on the barrier)
// for exactly that window.
unsafe impl Send for Job {}

struct Ctrl {
    /// Monotone epoch counter; a bump + non-`None` job means "new pass".
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current epoch.
    active: usize,
    shutdown: bool,
    /// First worker panic of the epoch (re-raised on the driver).
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared {
    ctrl: Mutex<Ctrl>,
    /// Signaled on epoch bump and shutdown.
    work: Condvar,
    /// Signaled when `active` reaches 0.
    done: Condvar,
    /// Task cursor for the current epoch; workers `fetch_add` to claim.
    cursor: AtomicUsize,
}

/// Locks the control block, surviving poisoning: a worker panic is
/// already captured and re-raised deliberately, so a poisoned mutex
/// carries no extra information and must not wedge the pool.
fn lock(m: &Mutex<Ctrl>) -> MutexGuard<'_, Ctrl> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A persistent pool of worker threads executing chunked passes (see the
/// [module docs](self)).
///
/// The driver thread participates in every pass, so a pool of `w`
/// workers gives `w + 1`-way parallelism; `WorkerPool::new(0)` is a
/// valid degenerate pool that runs every pass inline.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerPool(workers={})", self.handles.len())
    }
}

impl WorkerPool {
    /// Spawns `workers` threads, parked until the first [`WorkerPool::run`].
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            ctrl: Mutex::new(Ctrl {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
                panic: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("localavg-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of resident worker threads (the driver is not counted).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f(0), f(1), …, f(tasks - 1)`, each exactly once, distributed
    /// over the driver plus at most `limit` workers; blocks until every
    /// task is done and every worker has quiesced.
    ///
    /// Must not be called reentrantly (the engine's driver loop is the
    /// only caller and runs passes strictly one after another).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic that occurred inside `f`, after the
    /// barrier — the pool itself stays usable.
    pub fn run(&self, tasks: usize, limit: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if self.handles.is_empty() || limit == 0 {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        // SAFETY: pure lifetime erasure; see the `Job` safety comment —
        // this function keeps `f` alive past every dereference.
        let erased: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        {
            let mut c = lock(&self.shared.ctrl);
            debug_assert_eq!(c.active, 0, "WorkerPool::run is not reentrant");
            // The cursor store is ordered before the epoch bump by the
            // mutex release; workers read it only after locking.
            self.shared.cursor.store(0, Ordering::Relaxed);
            c.job = Some(Job {
                f: erased,
                tasks,
                limit,
            });
            c.active = self.handles.len();
            c.epoch = c.epoch.wrapping_add(1);
            self.shared.work.notify_all();
        }
        // The driver grabs chunks too — `threads` includes it.
        let mine = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            f(i);
        }));
        if mine.is_err() {
            // Let workers drain the remaining chunks instantly.
            self.shared.cursor.store(tasks, Ordering::Relaxed);
        }
        let theirs = {
            let mut c = lock(&self.shared.ctrl);
            while c.active > 0 {
                c = self
                    .shared
                    .done
                    .wait(c)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            c.job = None;
            c.panic.take()
        };
        if let Err(p) = mine {
            resume_unwind(p);
        }
        if let Some(p) = theirs {
            resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut c = lock(&self.shared.ctrl);
            c.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            // A worker that panicked outside `run` (impossible today) is
            // not worth crashing a Drop for.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut c = lock(&shared.ctrl);
            loop {
                if c.shutdown {
                    return;
                }
                if c.epoch != seen {
                    if let Some(job) = c.job {
                        seen = c.epoch;
                        break job;
                    }
                }
                c = shared.work.wait(c).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let result = if index < job.limit {
            // SAFETY: the driver is parked on the `done` barrier until
            // this worker decrements `active` below, so the closure
            // behind the pointer is still alive.
            let f = unsafe { &*job.f };
            catch_unwind(AssertUnwindSafe(|| loop {
                let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
                if i >= job.tasks {
                    break;
                }
                f(i);
            }))
        } else {
            // Over-provisioned pool (a smaller `threads` request than a
            // previous run): acknowledge the epoch without grabbing work
            // so the barrier still closes.
            Ok(())
        };
        let mut c = lock(&shared.ctrl);
        if let Err(p) = result {
            // Park the cursor at the end so other grab loops terminate,
            // then surface the first panic to the driver.
            shared.cursor.store(job.tasks, Ordering::Relaxed);
            if c.panic.is_none() {
                c.panic = Some(p);
            }
        }
        c.active -= 1;
        if c.active == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..50 {
            pool.run(hits.len(), usize::MAX, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 50));
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let sum = AtomicU64::new(0);
        pool.run(10, usize::MAX, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn limit_zero_runs_inline_on_the_driver() {
        let pool = WorkerPool::new(2);
        let sum = AtomicU64::new(0);
        pool.run(10, 0, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn empty_task_set_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(0, usize::MAX, &|_| unreachable!("no tasks"));
    }

    #[test]
    fn worker_panic_is_reraised_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, usize::MAX, &|i| {
                assert!(i != 13, "task 13 exploded");
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the driver");
        // The pool is still fully functional after the panic.
        let hits: Vec<AtomicU64> = (0..31).map(|_| AtomicU64::new(0)).collect();
        pool.run(hits.len(), usize::MAX, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn repeated_panics_do_not_wedge_the_pool() {
        let pool = WorkerPool::new(1);
        for round in 0..5 {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run(8, usize::MAX, &|i| {
                    assert!(i % 3 != round % 3, "scheduled failure");
                });
            }));
            assert!(caught.is_err());
        }
        let sum = AtomicU64::new(0);
        pool.run(8, usize::MAX, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 28);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(4);
        pool.run(16, usize::MAX, &|_| {});
        drop(pool); // must not hang
    }
}
