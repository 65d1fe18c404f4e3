//! OpenMP-style `parallel for` with the three scheduling policies of
//! §II-A of the paper.

use crate::pool::{ThreadPool, WorkerCtx};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// OpenMP loop scheduling policy.
///
/// The paper's coloring results (Figure 1a) compare all three; `dynamic`
/// with chunk 100 wins at scale because its per-chunk cost is a single
/// fetch-and-add while its load balance tracks the irregular per-vertex
/// work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Iterations pre-partitioned; with `chunk = None` each thread gets one
    /// contiguous interval, otherwise chunks are dealt round-robin.
    Static { chunk: Option<usize> },
    /// Chunks handed out first-come-first-served from a shared counter.
    Dynamic { chunk: usize },
    /// Chunk size starts at `remaining / (2 t)` and decays geometrically,
    /// never below `min_chunk`.
    Guided { min_chunk: usize },
}

impl Schedule {
    /// The paper's best-performing configuration for the coloring kernel.
    pub fn dynamic100() -> Self {
        Schedule::Dynamic { chunk: 100 }
    }
}

/// `#pragma omp parallel for schedule(...)` over `range`, invoking `body`
/// per iteration index.
///
/// ```
/// use mic_runtime::{parallel_for, Schedule, ThreadPool};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let pool = ThreadPool::new(4);
/// let sum = AtomicU64::new(0);
/// parallel_for(&pool, 0..1000, Schedule::Dynamic { chunk: 64 }, |i, _ctx| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 499_500);
/// ```
pub fn parallel_for<F>(pool: &ThreadPool, range: Range<usize>, schedule: Schedule, body: F)
where
    F: Fn(usize, WorkerCtx) + Sync,
{
    parallel_for_chunks(pool, range, schedule, |chunk, ctx| {
        for i in chunk {
            body(i, ctx);
        }
    });
}

/// Chunk-granular variant: `body` receives whole index ranges. This is what
/// the kernels use — it mirrors how the real runtimes hand out chunks and
/// is the granularity at which the simulator models scheduling.
pub fn parallel_for_chunks<F>(pool: &ThreadPool, range: Range<usize>, schedule: Schedule, body: F)
where
    F: Fn(Range<usize>, WorkerCtx) + Sync,
{
    if range.is_empty() {
        return;
    }
    let sched_label = match schedule {
        Schedule::Static { .. } => "static",
        Schedule::Dynamic { .. } => "dynamic",
        Schedule::Guided { .. } => "guided",
    };
    let body = crate::pool::timed_chunk("omp", sched_label, body);
    let t = pool.num_threads();
    let (start, end) = (range.start, range.end);
    let n = end - start;
    match schedule {
        Schedule::Static { chunk: None } => {
            // One contiguous interval per thread, remainder spread over the
            // first threads (the usual OpenMP static split).
            pool.run(|ctx| {
                let base = n / t;
                let extra = n % t;
                let lo = start + ctx.id * base + ctx.id.min(extra);
                let len = base + usize::from(ctx.id < extra);
                if len > 0 {
                    body(lo..lo + len, ctx);
                }
            });
        }
        Schedule::Static { chunk: Some(chunk) } => {
            let chunk = chunk.max(1);
            pool.run(|ctx| {
                let mut c = ctx.id;
                loop {
                    let lo = start + c * chunk;
                    if lo >= end {
                        break;
                    }
                    body(lo..(lo + chunk).min(end), ctx);
                    c += t;
                }
            });
        }
        Schedule::Dynamic { chunk } => {
            let chunk = chunk.max(1);
            let counter = AtomicUsize::new(start);
            pool.run(|ctx| loop {
                let lo = counter.fetch_add(chunk, Ordering::Relaxed);
                if lo >= end {
                    break;
                }
                body(lo..(lo + chunk).min(end), ctx);
            });
        }
        Schedule::Guided { min_chunk } => {
            let min_chunk = min_chunk.max(1);
            let counter = AtomicUsize::new(start);
            pool.run(|ctx| loop {
                let mut lo = counter.load(Ordering::Relaxed);
                let hi = loop {
                    if lo >= end {
                        return;
                    }
                    let remaining = end - lo;
                    let chunk = (remaining / (2 * t)).max(min_chunk).min(remaining);
                    match counter.compare_exchange_weak(
                        lo,
                        lo + chunk,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break lo + chunk,
                        Err(cur) => lo = cur,
                    }
                };
                body(lo..hi, ctx);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    fn schedules() -> Vec<Schedule> {
        vec![
            Schedule::Static { chunk: None },
            Schedule::Static { chunk: Some(1) },
            Schedule::Static { chunk: Some(7) },
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 13 },
            Schedule::Guided { min_chunk: 1 },
            Schedule::Guided { min_chunk: 5 },
        ]
    }

    #[test]
    fn every_index_exactly_once_all_schedules() {
        let pool = ThreadPool::new(5);
        for sched in schedules() {
            let n = 1003;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(&pool, 0..n, sched, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{sched:?} missed or duplicated indices"
            );
        }
    }

    #[test]
    fn sum_matches_sequential() {
        let pool = ThreadPool::new(4);
        let expected: u64 = (0..10_000u64).map(|i| i * 3).sum();
        for sched in schedules() {
            let sum = AtomicU64::new(0);
            parallel_for(&pool, 0..10_000, sched, |i, _| {
                sum.fetch_add(i as u64 * 3, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), expected, "{sched:?}");
        }
    }

    #[test]
    fn nonzero_range_start() {
        let pool = ThreadPool::new(3);
        for sched in schedules() {
            let sum = AtomicU64::new(0);
            parallel_for(&pool, 100..200, sched, |i, _| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(
                sum.load(Ordering::Relaxed),
                (100..200u64).sum::<u64>(),
                "{sched:?}"
            );
        }
    }

    #[test]
    fn empty_range_is_noop() {
        let pool = ThreadPool::new(2);
        for sched in schedules() {
            let hits = AtomicUsize::new(0);
            parallel_for(&pool, 5..5, sched, |_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn range_smaller_than_thread_count() {
        let pool = ThreadPool::new(8);
        for sched in schedules() {
            let hits = AtomicUsize::new(0);
            parallel_for(&pool, 0..3, sched, |_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 3, "{sched:?}");
        }
    }

    #[test]
    fn chunks_are_disjoint_and_cover() {
        let pool = ThreadPool::new(4);
        for sched in schedules() {
            let n = 517;
            let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for_chunks(&pool, 0..n, sched, |chunk, _| {
                assert!(!chunk.is_empty(), "empty chunk handed out by {sched:?}");
                for i in chunk {
                    seen[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                seen.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{sched:?}"
            );
        }
    }

    #[test]
    fn static_no_chunk_is_contiguous_per_thread() {
        let pool = ThreadPool::new(4);
        // Record (worker, chunk) pairs; each worker must appear at most once.
        let firsts: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(usize::MAX)).collect();
        parallel_for_chunks(
            &pool,
            0..100,
            Schedule::Static { chunk: None },
            |chunk, ctx| {
                let prev = firsts[ctx.id].swap(chunk.start, Ordering::Relaxed);
                assert_eq!(prev, usize::MAX, "worker {0} saw two chunks", ctx.id);
                assert_eq!(chunk.len(), 25);
            },
        );
    }
}
