//! A persistent, possibly over-subscribed worker pool.
//!
//! The pool executes *parallel regions*: every worker invokes the same
//! closure exactly once, with its worker id — the OpenMP `parallel`
//! construct. All higher-level loops (`parallel_for`, `cilk_for`, TBB
//! partitioners) are built from this plus shared atomics.
//!
//! The closure is passed by reference with its lifetime erased; `run`
//! blocks until every worker has finished, so the borrow can never be
//! observed after it expires. Panics in workers are caught and re-thrown
//! from `run` on the calling thread (first panic wins).
//!
//! Region dispatch is **lock-free on the hot path**: the submitter
//! publishes the job pointer, resets the `remaining` counter, advances
//! the `epoch` atomic with a `Release` store, and pings an
//! [`EventCount`](crate::sync::EventCount) — no mutex is held while
//! workers are woken, and idle workers spin 64 iterations before
//! parking. The only mutex left guards the *cold* error path (the
//! first panic of a region), which is touched at most once per panicking
//! worker, never per region. See DESIGN.md "Lock-free structures" for
//! the publication argument.

use crate::sync::EventCount;
use parking_lot::Mutex;
use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Context handed to a worker inside a parallel region.
#[derive(Clone, Copy, Debug)]
pub struct WorkerCtx {
    /// Worker id in `0..num_threads`, unique within the region.
    pub id: usize,
    /// Number of workers participating in the region.
    pub num_threads: usize,
}

/// Wrap a chunk body so each invocation is counted and timed when metrics
/// are enabled. `runtime` ("omp", "cilk", "tbb") and `sched` (the
/// scheduling discipline that produced the chunk: "static", "dynamic",
/// "guided", "simple", "auto", "affinity") label the chunk counter and
/// the per-schedule chunk-latency histogram.
pub(crate) fn timed_chunk<F>(
    runtime: &'static str,
    sched: &'static str,
    body: F,
) -> impl Fn(Range<usize>, WorkerCtx)
where
    F: Fn(Range<usize>, WorkerCtx),
{
    move |r, ctx| {
        if !mic_metrics::enabled() {
            body(r, ctx);
            return;
        }
        let t0 = Instant::now();
        body(r, ctx);
        let secs = t0.elapsed().as_secs_f64();
        let labels = [("runtime", runtime), ("sched", sched)];
        mic_metrics::counter(
            "mic_runtime_chunks_total",
            "Chunks executed by the native runtime shims",
            &labels,
        )
        .inc();
        mic_metrics::histogram(
            "mic_runtime_chunk_seconds",
            "Native chunk execution latency per runtime and schedule",
            &labels,
            // 0.1 µs … ≈ 1.7 s.
            &mic_metrics::exp_buckets(1e-7, 4.0, 13),
        )
        .observe(secs);
    }
}

/// Why a `try_run` call was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// A worker tried to start a region on the pool whose region it is
    /// already inside — that would deadlock on the pool's run lock.
    Reentry {
        /// Id of the pool being re-entered.
        pool: usize,
        /// Worker id (within that pool) that attempted the nested `run`.
        worker: usize,
        /// Epoch of the region the worker is currently executing.
        epoch: u64,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Reentry {
                pool,
                worker,
                epoch,
            } => write!(
                f,
                "worker {worker} of pool #{pool} re-entered its own pool from \
                 region epoch {epoch}; nested `run` on the same pool would \
                 deadlock (use a distinct pool for inner parallelism)"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

type Job = *const (dyn Fn(WorkerCtx) + Sync);

/// Raw job pointer made sendable; validity is guaranteed by `run` blocking
/// until all workers are done with it.
#[derive(Clone, Copy)]
struct SendJob(Job);
unsafe impl Send for SendJob {}

struct Shared {
    /// Region sequence number. Advanced with a `Release` store *after*
    /// `job` and `remaining` are written; workers `Acquire`-load it, so
    /// observing a new epoch licenses reading the job slot.
    epoch: AtomicU64,
    /// The current region's closure. Written only by the submitter while
    /// no region is live (`remaining == 0` observed with `Acquire`).
    job: UnsafeCell<Option<SendJob>>,
    /// Workers that have not finished the current region.
    remaining: AtomicUsize,
    shutdown: AtomicBool,
    /// Workers park here between regions.
    work: EventCount,
    /// The submitter parks here while a region drains.
    done: EventCount,
    /// Cold path: the first panic payload of the current region, touched
    /// only when a worker's job panics, never on the per-region hot path.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `job` is the only non-atomic field. It is written by the
// submitter strictly before the epoch `Release` store and read by workers
// strictly after their epoch `Acquire` load; it is rewritten only after
// every worker's `Release` decrement of `remaining` has been observed
// with `Acquire` — so no write ever races a read (full argument in
// DESIGN.md "Lock-free structures").
unsafe impl Sync for Shared {}

thread_local! {
    /// `(pool id, worker id)` of the region this OS thread is currently
    /// inside (if any). Re-entering the *same* pool would deadlock on
    /// `run_lock`, so that is rejected with a descriptive [`PoolError`];
    /// entering a *different* pool (hierarchical composition, e.g. a
    /// sweep job driving its own worker pool) is safe and allowed.
    static IN_REGION: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Monotonic pool ids for the same-pool re-entrancy check.
static POOL_IDS: AtomicUsize = AtomicUsize::new(0);

/// Fixed-size worker pool. See the module docs.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes concurrent `run` calls from different threads. Not part
    /// of the dispatch hot path: a single driver thread takes it
    /// uncontended (one CAS), and it is never held while workers are
    /// woken or joined mid-region.
    run_lock: Mutex<()>,
    num_threads: usize,
    id: usize,
}

impl ThreadPool {
    /// Create a pool with `num_threads` workers (`>= 1`). More workers than
    /// hardware threads is allowed and common here: the paper's thread
    /// counts go to 121 on a 31-core chip.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads >= 1, "pool needs at least one worker");
        let pool_id = POOL_IDS.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            remaining: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            work: EventCount::named("pool-work"),
            done: EventCount::named("pool-done"),
            panic: Mutex::new(None),
        });
        let handles = (0..num_threads)
            .map(|id| spawn_worker(id, num_threads, pool_id, &shared))
            .collect();
        ThreadPool {
            shared,
            handles,
            run_lock: Mutex::new(()),
            num_threads,
            id: pool_id,
        }
    }

    /// Number of workers.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Execute a parallel region: every worker calls `f` once. Blocks until
    /// all workers return. Panics raised inside workers are re-raised here.
    ///
    /// # Panics
    /// Panics (with the [`PoolError::Reentry`] message) if called from
    /// inside a region of the *same* pool. Regions of different pools may
    /// nest. Use [`try_run`](Self::try_run) to get the error as a value.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(WorkerCtx) + Sync,
    {
        if let Err(e) = self.try_run(f) {
            panic!("{e}");
        }
    }

    /// Like [`run`](Self::run), but same-pool re-entry comes back as a
    /// [`PoolError::Reentry`] naming the pool, worker and region epoch
    /// instead of a panic — diagnosable from sweep logs. Worker panics are
    /// still re-raised on the calling thread.
    pub fn try_run<F>(&self, f: F) -> Result<(), PoolError>
    where
        F: Fn(WorkerCtx) + Sync,
    {
        if let Some((pool, worker)) = IN_REGION.with(|flag| flag.get()) {
            if pool == self.id {
                let epoch = self.shared.epoch.load(Ordering::Relaxed);
                return Err(PoolError::Reentry {
                    pool,
                    worker,
                    epoch,
                });
            }
        }
        let _serialize = self.run_lock.lock();
        if mic_metrics::enabled() {
            mic_metrics::counter(
                "mic_pool_regions_total",
                "Parallel regions executed by thread pools",
                &[],
            )
            .inc();
        }
        // Workers record into the submitter's metrics registry, so a
        // session counts the regions it starts.
        let metrics = mic_metrics::current();
        let epoch = self.shared.epoch.load(Ordering::Relaxed);
        let f = |ctx: WorkerCtx| mic_metrics::with_handle(&metrics, || f(ctx));
        let f_ref: &(dyn Fn(WorkerCtx) + Sync) = &f;
        // SAFETY: we erase the lifetime of `f_ref`, but `try_run` does not
        // return until `remaining == 0`, i.e. until no worker can touch the
        // job pointer again, so the borrow is live for every dereference.
        let job: Job = unsafe {
            std::mem::transmute::<*const (dyn Fn(WorkerCtx) + Sync), Job>(f_ref as *const _)
        };
        // Publish the region: job slot and remaining first, then the epoch
        // with Release, then wake. No lock is held at any point.
        //
        // SAFETY: no region is live (`run_lock` serialized the previous
        // one, which ended with `remaining == 0` observed via Acquire), so
        // no worker reads `job` until the epoch store below.
        unsafe { *self.shared.job.get() = Some(SendJob(job)) };
        self.shared
            .remaining
            .store(self.num_threads, Ordering::Relaxed);
        self.shared.epoch.store(epoch + 1, Ordering::Release);
        self.shared.work.notify();
        // Wait for the region to drain (spin, then park on `done`).
        self.shared
            .done
            .park_until(|| self.shared.remaining.load(Ordering::Acquire) == 0);
        // SAFETY: every worker decremented `remaining` with a Release op
        // after its last use of the job pointer; the Acquire observation
        // of 0 above orders those uses before this write.
        unsafe { *self.shared.job.get() = None };
        let panic = self.shared.panic.lock().take();
        if let Some(p) = panic {
            panic::resume_unwind(p);
        }
        Ok(())
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work.notify();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn spawn_worker(
    id: usize,
    num_threads: usize,
    pool_id: usize,
    shared: &Arc<Shared>,
) -> JoinHandle<()> {
    if mic_metrics::enabled() {
        mic_metrics::counter(
            "mic_pool_workers_spawned_total",
            "Pool worker threads started",
            &[],
        )
        .inc();
    }
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("mic-worker-{id}"))
        .spawn(move || worker_loop(id, num_threads, pool_id, shared))
        .expect("failed to spawn pool worker")
}

/// Decrement `remaining` as the worker's last act for this region, waking
/// the submitter when this was the final worker.
fn finish_region(shared: &Shared) {
    if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        shared.done.notify();
    }
}

fn worker_loop(id: usize, num_threads: usize, pool_id: usize, shared: Arc<Shared>) {
    let mut seen_epoch = 0;
    loop {
        // Wait for a new region (or shutdown): spin, then park. The
        // Acquire epoch load pairs with the submitter's Release store and
        // licenses the job read below.
        shared.work.park_until(|| {
            shared.shutdown.load(Ordering::Acquire)
                || shared.epoch.load(Ordering::Acquire) > seen_epoch
        });
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        seen_epoch = shared.epoch.load(Ordering::Acquire);
        // SAFETY: the epoch Acquire load above observed the submitter's
        // Release store, which happens-after the job write; the slot is
        // not rewritten until this worker decrements `remaining`.
        let job = unsafe { *shared.job.get() }.expect("job published with region epoch");
        // SAFETY: `run` keeps the closure alive until `remaining` drops
        // to zero, which happens strictly after this call returns.
        let f = unsafe { &*job.0 };
        let outer = IN_REGION.with(|flag| flag.replace(Some((pool_id, id))));
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(WorkerCtx { id, num_threads })));
        IN_REGION.with(|flag| flag.set(outer));
        if let Err(p) = result {
            let mut first = shared.panic.lock();
            if first.is_none() {
                *first = Some(p);
            }
        }
        finish_region(&shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_worker_runs_once() {
        let pool = ThreadPool::new(8);
        let hits = AtomicUsize::new(0);
        let mask = AtomicUsize::new(0);
        pool.run(|ctx| {
            hits.fetch_add(1, Ordering::Relaxed);
            mask.fetch_or(1 << ctx.id, Ordering::Relaxed);
            assert_eq!(ctx.num_threads, 8);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        assert_eq!(mask.load(Ordering::Relaxed), 0xFF);
    }

    #[test]
    fn regions_are_sequential_and_reusable() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn borrows_local_data() {
        let pool = ThreadPool::new(3);
        let data = [1u64, 2, 3];
        let sum = AtomicUsize::new(0);
        pool.run(|ctx| {
            sum.fetch_add(data[ctx.id] as usize, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(4);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|ctx| {
                if ctx.id == 2 {
                    panic!("boom from worker");
                }
            });
        }));
        assert!(r.is_err());
        // Pool still usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.run(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn same_pool_reentry_rejected() {
        let pool = ThreadPool::new(2);
        let pool_ref = &pool;
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            pool_ref.run(|ctx| {
                if ctx.id == 0 {
                    pool_ref.run(|_| {});
                }
            });
        }));
        assert!(r.is_err(), "same-pool re-entry must panic");
    }

    #[test]
    fn reentry_error_names_pool_and_worker() {
        let pool = ThreadPool::new(3);
        let pool_ref = &pool;
        let msg = parking_lot::Mutex::new(String::new());
        pool_ref.run(|ctx| {
            if ctx.id == 1 {
                let err = pool_ref
                    .try_run(|_| {})
                    .expect_err("same-pool try_run must be rejected");
                match err {
                    PoolError::Reentry { worker, .. } => assert_eq!(worker, 1),
                }
                *msg.lock() = err.to_string();
            }
        });
        let msg = msg.into_inner();
        assert!(msg.contains("worker 1"), "got: {msg}");
        assert!(msg.contains("epoch"), "got: {msg}");
        // And the pool is still healthy: rejection happened before any
        // region state changed.
        let hits = AtomicUsize::new(0);
        pool.run(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn cross_pool_nesting_allowed() {
        let outer = ThreadPool::new(2);
        let inner = ThreadPool::new(3);
        let hits = AtomicUsize::new(0);
        outer.run(|ctx| {
            if ctx.id == 0 {
                inner.run(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn single_worker_pool() {
        let pool = ThreadPool::new(1);
        let v = AtomicUsize::new(0);
        pool.run(|ctx| {
            assert_eq!(ctx.id, 0);
            v.store(7, Ordering::Relaxed);
        });
        assert_eq!(v.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn oversubscribed_pool() {
        // Far more workers than cores on this box; must still complete.
        let pool = ThreadPool::new(64);
        let hits = AtomicUsize::new(0);
        pool.run(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn park_spin_zero_still_dispatches() {
        // Workers exhaust their spin budget and park while the submitter
        // sleeps between regions, and the submitter parks while each
        // region's workers sleep; regions must still complete, and the
        // session must count the submitter's parks.
        let (count, snap) = mic_metrics::with_session(|| {
            let pool = ThreadPool::new(4);
            let counter = AtomicUsize::new(0);
            for _ in 0..10 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                pool.run(|_| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            counter.into_inner()
        });
        assert_eq!(count, 40);
        let parks = snap
            .value("mic_runtime_parks_total", &[("site", "pool-done")])
            .unwrap_or(0.0);
        assert!(parks >= 1.0, "no park counted: {parks}");
    }
}
