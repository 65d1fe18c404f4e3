//! Cilk Plus-style loops: recursive range splitting executed by work
//! stealing (§II-B of the paper).
//!
//! `cilk for` in Cilk Plus recursively spawns halves of the iteration space
//! until a grain size is reached; idle workers steal the *shallowest*
//! (largest) pending subranges. We reproduce that discipline with a
//! per-worker Chase–Lev deque ([`crate::deque::WsDeque`]): the owner works
//! the deep LIFO end (cache-warm subranges), thieves take the shallow FIFO
//! end (the oldest, largest pieces). A shared lock-free
//! [`Injector`](crate::injector::Injector) seeds the root range and absorbs
//! deque overflow, so no path through the loop takes a lock. This preserves
//! Cilk's key properties — geometric task sizes, grain-bounded leaves,
//! steals take big pieces — while the hand-off itself is CAS-only.

use crate::deque::WsDeque;
use crate::injector::{Injector, Steal};
use crate::pool::{ThreadPool, WorkerCtx};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Per-worker deque capacity for the splitting engines. Splitting one range
/// down to the grain pushes at most ⌈log₂(n/grain)⌉ back-halves (~64 for
/// any realistic loop); overflow beyond this spills to the shared injector
/// rather than blocking.
pub(crate) const ENGINE_DEQUE_CAP: usize = 256;

/// Publish the contention telemetry a loop accumulated (lost steal CASes on
/// the worker deques and the injector) to the metrics registry.
pub(crate) fn record_cas_retries<T>(deques: &[WsDeque<T>], injector_retries: u64) {
    if !mic_metrics::enabled() {
        return;
    }
    let total: u64 = deques.iter().map(|d| d.retries()).sum::<u64>() + injector_retries;
    if total > 0 {
        mic_metrics::counter(
            "mic_runtime_cas_retries_total",
            "Lost steal CASes on work-stealing deques and injectors",
            &[],
        )
        .add(total as f64);
    }
}

/// `cilk_for` over `range` with the given `grain`. `body` receives leaf
/// subranges of length `<= grain`.
pub fn cilk_for<F>(pool: &ThreadPool, range: Range<usize>, grain: usize, body: F)
where
    F: Fn(Range<usize>, WorkerCtx) + Sync,
{
    cilk_for_labeled(pool, range, grain, "cilk", body);
}

/// The splitting engine behind [`cilk_for`], labeled for tracing. TBB's
/// simple partitioner shares the engine but reports as "tbb". Injected
/// ranges carry the id of the worker that published them (`usize::MAX` for
/// the root range) so a pop by a different worker is recorded as a steal.
pub(crate) fn cilk_for_labeled<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    grain: usize,
    runtime: &'static str,
    body: F,
) where
    F: Fn(Range<usize>, WorkerCtx) + Sync,
{
    if range.is_empty() {
        return;
    }
    let body = crate::trace::timed_chunk(runtime, "simple", body);
    let grain = grain.max(1);
    let total = range.len();
    let threads = pool.num_threads();
    // Per-worker Chase–Lev deques, indexed by pool worker id; the shared
    // injector carries the root range and any deque overflow.
    let deques: Vec<WsDeque<Range<usize>>> = (0..threads)
        .map(|_| WsDeque::new(ENGINE_DEQUE_CAP))
        .collect();
    let injector: Injector<(Range<usize>, usize)> = Injector::new();
    injector.push((range, usize::MAX));
    let remaining = AtomicUsize::new(total);
    // A panicking leaf would strand `remaining` above zero and leave the
    // other workers spinning forever; the abort flag releases them, and
    // the panic itself is re-raised through the pool to the caller.
    let aborted = AtomicBool::new(false);

    pool.run(|ctx| {
        let mine = &deques[ctx.id];
        'outer: while remaining.load(Ordering::Acquire) > 0 {
            if aborted.load(Ordering::Acquire) {
                break;
            }
            // Take the deepest range from our own deque, else steal: first
            // from the injector (root/overflow), then from siblings' FIFO
            // ends — the oldest, largest subranges, Cilk's discipline.
            //
            // SAFETY (pop/push): worker `ctx.id` is the sole owner of
            // `deques[ctx.id]` — ids are unique within the region.
            let task = match unsafe { mine.pop() } {
                Some(r) => r,
                None => loop {
                    match injector.steal() {
                        Steal::Success((r, owner)) => {
                            if owner != ctx.id && owner != usize::MAX {
                                crate::trace::emit_steal(runtime, ctx.id, owner);
                            }
                            break r;
                        }
                        Steal::Retry => {
                            std::thread::yield_now();
                            continue;
                        }
                        Steal::Empty => {}
                    }
                    let mut found = None;
                    for k in 1..threads {
                        let victim = (ctx.id + k) % threads;
                        match deques[victim].steal() {
                            Steal::Success(r) => {
                                crate::trace::emit_steal(runtime, ctx.id, victim);
                                found = Some(r);
                                break;
                            }
                            // A lost CAS means the victim is active; move
                            // on to the next one rather than re-hammering.
                            Steal::Retry | Steal::Empty => {}
                        }
                    }
                    if let Some(r) = found {
                        break r;
                    }
                    if remaining.load(Ordering::Acquire) == 0 || aborted.load(Ordering::Acquire) {
                        break 'outer;
                    }
                    std::hint::spin_loop();
                    std::thread::yield_now();
                },
            };
            // Split down to the grain, keeping the front half and pushing
            // the back half on our own deque, where thieves can take it
            // from the FIFO end. A full deque spills to the injector.
            let mut r = task;
            while r.len() > grain {
                let mid = r.start + r.len() / 2;
                let back = mid..r.end;
                if let Err(back) = unsafe { mine.push(back) } {
                    injector.push((back, ctx.id));
                }
                r = r.start..mid;
            }
            let len = r.len();
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(r, ctx))) {
                aborted.store(true, Ordering::Release);
                resume_unwind(p);
            }
            remaining.fetch_sub(len, Ordering::AcqRel);
        }
    });
    record_cas_retries(&deques, injector.retries());
}

/// Fork–join on two independent closures, Cilk's `spawn`/`sync` pair.
/// Runs on plain scoped threads (it is used standalone, not inside pool
/// regions — the paper's kernels only need `cilk_for`); `b` records into
/// the caller's metrics registry.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let metrics = mic_metrics::current();
        let hb = s.spawn(move || mic_metrics::with_handle(&metrics, b));
        let ra = a();
        let rb = hb.join().expect("joined closure panicked");
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_once() {
        let pool = ThreadPool::new(6);
        for grain in [1, 3, 64, 10_000] {
            let n = 2777;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            cilk_for(&pool, 0..n, grain, |r, _| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "grain {grain} missed/duplicated"
            );
        }
    }

    #[test]
    fn leaves_respect_grain() {
        let pool = ThreadPool::new(4);
        let max_leaf = AtomicUsize::new(0);
        cilk_for(&pool, 0..10_000, 100, |r, _| {
            max_leaf.fetch_max(r.len(), Ordering::Relaxed);
        });
        assert!(max_leaf.load(Ordering::Relaxed) <= 100);
    }

    #[test]
    fn sum_matches_sequential() {
        let pool = ThreadPool::new(8);
        let sum = AtomicU64::new(0);
        cilk_for(&pool, 10..5000, 77, |r, _| {
            let s: u64 = r.map(|i| i as u64).sum();
            sum.fetch_add(s, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (10..5000u64).sum::<u64>());
    }

    #[test]
    fn empty_and_tiny_ranges() {
        let pool = ThreadPool::new(3);
        let hits = AtomicUsize::new(0);
        cilk_for(&pool, 0..0, 10, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        cilk_for(&pool, 0..1, 10, |r, _| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = join(|| 2 + 2, || "ok".len());
        assert_eq!((a, b), (4, 2));
    }
}
