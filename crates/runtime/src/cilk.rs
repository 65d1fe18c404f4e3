//! Cilk Plus-style loops: recursive range splitting executed by work
//! stealing (§II-B of the paper), and the one stealing engine that
//! `cilk_for` and TBB's simple and auto partitioners (§II-C) share.
//!
//! `cilk for` in Cilk Plus recursively spawns halves of the iteration space
//! until a grain size is reached; idle workers steal the *shallowest*
//! (largest) pending subranges. We reproduce that discipline with a
//! per-worker Chase–Lev deque ([`crate::deque::WsDeque`]): the owner works
//! the deep LIFO end (cache-warm subranges), thieves take the shallow FIFO
//! end (the oldest, largest pieces). TBB's auto partitioner differs in one
//! rule only — it deals ~4 ranges per worker up front and halves a range
//! once when it is stolen — so both run through `work_steal`, told
//! apart by a `Split`. Like the runtimes they model, the engine has no
//! shared queue: each worker seeds its own deque at the start of the
//! region, only a deque's owner pushes, every steal names the sibling it
//! robbed, and no path through the loop takes a lock.

use crate::deque::{Steal, WsDeque};
use crate::pool::{ThreadPool, WorkerCtx};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How [`work_steal`] divides the ranges it takes, and how it seeds the
/// worker deques.
#[derive(Clone, Copy)]
pub(crate) enum Split {
    /// Halve down to the grain, pushing every back half (Cilk, TBB's
    /// `simple_partitioner`). Worker 0 is seeded with the whole range.
    ToGrain(usize),
    /// Deal ~4 ranges per worker, each onto the deque of the worker it is
    /// dealt to, and halve a range once when it is stolen (TBB's
    /// `auto_partitioner`).
    OnSteal,
}

/// Per-worker deque capacity. A worker takes a range from its own deque,
/// or by a steal only when that deque is empty, and only the owner pushes.
/// Under [`Split::ToGrain`] the back halves waiting on one deque are then
/// nested — each lies in the front half kept when the one below it was
/// pushed — so each split range is at most half the one before, and a
/// `usize` range of two or more iterations halves fewer than
/// `usize::BITS` times: ⌈log₂(n/grain)⌉ pending ranges at most. Under
/// [`Split::OnSteal`] a deque holds its ≤ 4 dealt ranges, or the one back
/// half of the range its owner stole.
const DEQUE_CAP: usize = usize::BITS as usize;

/// Publish the lost steal CASes a loop accumulated on its worker deques to
/// the metrics registry.
fn record_cas_retries<T>(deques: &[WsDeque<T>]) {
    if !mic_metrics::enabled() {
        return;
    }
    let total: u64 = deques.iter().map(|d| d.retries()).sum();
    if total > 0 {
        mic_metrics::counter(
            "mic_runtime_cas_retries_total",
            "Lost steal CASes on the work-stealing deques",
            &[],
        )
        .add(total as f64);
    }
}

/// Count that `thief` took a range from the deque of worker `victim`,
/// labeled by victim. Every steal of the engine reports here.
fn record_steal(runtime: &'static str, thief: usize, victim: usize) {
    debug_assert_ne!(thief, victim, "a steal never names its thief as victim");
    if mic_metrics::enabled() {
        mic_metrics::counter(
            "mic_runtime_steals_total",
            "Work-stealing events observed by the native runtimes, by victim worker",
            &[("runtime", runtime), ("victim", &victim.to_string())],
        )
        .inc();
    }
}

/// `cilk_for` over `range` with the given `grain`. `body` receives leaf
/// subranges of length `<= grain`.
pub fn cilk_for<F>(pool: &ThreadPool, range: Range<usize>, grain: usize, body: F)
where
    F: Fn(Range<usize>, WorkerCtx) + Sync,
{
    work_steal(pool, range, Split::ToGrain(grain), "cilk", body);
}

/// The work-stealing engine behind [`cilk_for`] and TBB's simple and auto
/// partitioners. `runtime` labels its chunk and steal metrics. A range a
/// worker takes from a sibling's deque is a steal, with that sibling as
/// the victim: only owners push, so a range's publisher is the owner of
/// the deque it sat on.
pub(crate) fn work_steal<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    split: Split,
    runtime: &'static str,
    body: F,
) where
    F: Fn(Range<usize>, WorkerCtx) + Sync,
{
    if range.is_empty() {
        return;
    }
    let sched = match split {
        Split::ToGrain(_) => "simple",
        Split::OnSteal => "auto",
    };
    let body = crate::pool::timed_chunk(runtime, sched, body);
    let threads = pool.num_threads();
    let n = range.len();
    let deques: Vec<WsDeque<Range<usize>>> =
        (0..threads).map(|_| WsDeque::new(DEQUE_CAP)).collect();
    let remaining = AtomicUsize::new(n);
    // A panicking leaf would strand `remaining` above zero and leave the
    // other workers spinning forever; the abort flag releases them, and
    // the panic itself is re-raised through the pool to the caller.
    let aborted = AtomicBool::new(false);

    pool.run(|ctx| {
        let mine = &deques[ctx.id];
        // SAFETY (pop/push): worker `ctx.id` is the sole owner of
        // `deques[ctx.id]` — ids are unique within the region.
        let push = |r: Range<usize>| {
            unsafe { mine.push(r) }
                .expect("deque full: more pending ranges than the DEQUE_CAP bound")
        };
        // Keep the front half and expose the back half at our deque's
        // FIFO end, where thieves take it.
        let split_off_back = |r: Range<usize>| {
            let mid = r.start + r.len() / 2;
            push(mid..r.end);
            r.start..mid
        };
        // The deepest range on our own deque, else the oldest (largest)
        // range on a sibling's — Cilk's steal-the-shallowest discipline;
        // `None` once the loop is done or aborted.
        let take = || {
            if aborted.load(Ordering::Acquire) {
                return None;
            }
            if let Some(r) = unsafe { mine.pop() } {
                return Some((r, false));
            }
            loop {
                for victim in (1..threads).map(|k| (ctx.id + k) % threads) {
                    // A lost CAS means the victim is active; move on to
                    // the next one rather than re-hammering.
                    if let Steal::Success(r) = deques[victim].steal() {
                        record_steal(runtime, ctx.id, victim);
                        return Some((r, true));
                    }
                }
                if remaining.load(Ordering::Acquire) == 0 || aborted.load(Ordering::Acquire) {
                    return None;
                }
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        };
        let work = || {
            match split {
                Split::ToGrain(_) if ctx.id == 0 => push(range.clone()),
                Split::ToGrain(_) => {}
                // ~4 ranges per worker, range `i` dealt to worker
                // `i % threads`; pushed last first, so the owner pops its
                // share in index order.
                Split::OnSteal => {
                    let chunk = n.div_ceil((4 * threads).min(n));
                    for i in (ctx.id..n.div_ceil(chunk)).step_by(threads).rev() {
                        let lo = range.start + i * chunk;
                        push(lo..lo + chunk.min(range.end - lo));
                    }
                }
            }
            while let Some((mut r, stolen)) = take() {
                match split {
                    Split::ToGrain(grain) => {
                        while r.len() > grain.max(1) {
                            r = split_off_back(r);
                        }
                    }
                    Split::OnSteal => {
                        if stolen && r.len() > 1 {
                            r = split_off_back(r);
                        }
                    }
                }
                let len = r.len();
                body(r, ctx);
                remaining.fetch_sub(len, Ordering::AcqRel);
            }
        };
        if let Err(p) = catch_unwind(AssertUnwindSafe(work)) {
            aborted.store(true, Ordering::Release);
            resume_unwind(p);
        }
    });
    record_cas_retries(&deques);
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
    use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

    /// Run `cilk_for` over `0..n` on `pool` and assert every index ran once.
    fn assert_covers_once(pool: &ThreadPool, n: usize, grain: usize) {
        let hits: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        cilk_for(pool, 0..n, grain, |r, _| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "grain {grain} over 0..{n} missed/duplicated"
        );
    }

    #[test]
    fn covers_every_index_once() {
        let pool = ThreadPool::new(6);
        for grain in [1, 3, 64, 10_000] {
            assert_covers_once(&pool, 2777, grain);
        }
        // The deque bound at its extreme: grain 1 over 2^20 iterations on
        // one worker leaves 20 back halves on its deque at the deepest
        // point.
        assert_covers_once(&ThreadPool::new(1), 1 << 20, 1);
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
