//! TBB-style `parallel_for` over a blocked range with the three partitioners
//! of §II-C of the paper.

use crate::cilk::{work_steal, Split};
use crate::pool::{ThreadPool, WorkerCtx};
use std::ops::Range;

/// TBB range partitioner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioner {
    /// `simple_partitioner`: recursively divide until `grain` is reached —
    /// "similar to the dynamic scheduling policy of OpenMP" (§II-C). The
    /// paper's coloring results use this with grain 40.
    Simple { grain: usize },
    /// `auto_partitioner`: create ~`4 t` subranges up front and split a
    /// range further only when it is stolen.
    Auto,
    /// `affinity_partitioner`: deal chunks to workers in a fixed cyclic
    /// pattern so repeated loops see the same iterations on the same
    /// worker. The mapping is deterministic, so affinity across loop
    /// executions holds by construction.
    Affinity,
}

/// `tbb::parallel_for(blocked_range(...), body, partitioner)`.
pub fn tbb_parallel_for<F>(pool: &ThreadPool, range: Range<usize>, part: Partitioner, body: F)
where
    F: Fn(Range<usize>, WorkerCtx) + Sync,
{
    if range.is_empty() {
        return;
    }
    match part {
        // The work-stealing engine behind cilk_for, reporting as "tbb".
        Partitioner::Simple { grain } => {
            work_steal(pool, range, Split::ToGrain(grain), "tbb", body)
        }
        Partitioner::Auto => work_steal(pool, range, Split::OnSteal, "tbb", body),
        Partitioner::Affinity => {
            let t = pool.num_threads();
            let n = range.len();
            // TBB's affinity partitioner aims for a few chunks per thread.
            let chunks = (t * 4).min(n.max(1));
            let chunk = n.div_ceil(chunks);
            let start = range.start;
            let end = range.end;
            let body = crate::pool::timed_chunk("tbb", "affinity", body);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    fn partitioners() -> Vec<Partitioner> {
        vec![
            Partitioner::Simple { grain: 1 },
            Partitioner::Simple { grain: 40 },
            Partitioner::Auto,
            Partitioner::Affinity,
        ]
    }

    /// Run `part` over `0..n` on `pool` and assert every index ran once.
    fn assert_covers_once(pool: &ThreadPool, n: usize, part: Partitioner) {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        tbb_parallel_for(pool, 0..n, part, |r, _| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "{part:?} over 0..{n} on {} workers",
            pool.num_threads()
        );
    }

    #[test]
    fn covers_every_index_once() {
        let pool = ThreadPool::new(5);
        for part in partitioners() {
            assert_covers_once(&pool, 1534, part);
        }
        // The deque bounds at their extremes: auto deals three
        // one-iteration ranges to workers 0..3, so workers 3..8 start
        // empty and can only steal; grain 1 on an over-subscribed pool.
        assert_covers_once(&ThreadPool::new(8), 3, Partitioner::Auto);
        assert_covers_once(&ThreadPool::new(16), 5000, Partitioner::Simple { grain: 1 });
    }

    #[test]
    fn sum_matches_sequential() {
        let pool = ThreadPool::new(7);
        let expected: u64 = (3..4000u64).sum();
        for part in partitioners() {
            let sum = AtomicU64::new(0);
            tbb_parallel_for(&pool, 3..4000, part, |r, _| {
                sum.fetch_add(r.map(|i| i as u64).sum::<u64>(), Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), expected, "{part:?}");
        }
    }

    #[test]
    fn simple_respects_grain() {
        let pool = ThreadPool::new(4);
        let max_leaf = AtomicUsize::new(0);
        tbb_parallel_for(&pool, 0..5000, Partitioner::Simple { grain: 64 }, |r, _| {
            max_leaf.fetch_max(r.len(), Ordering::Relaxed);
        });
        assert!(max_leaf.load(Ordering::Relaxed) <= 64);
    }

    #[test]
    fn affinity_mapping_is_deterministic() {
        let pool = ThreadPool::new(4);
        let n = 1000;
        let run = || {
            let owner: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
            tbb_parallel_for(&pool, 0..n, Partitioner::Affinity, |r, ctx| {
                for i in r {
                    owner[i].store(ctx.id, Ordering::Relaxed);
                }
            });
            owner
                .iter()
                .map(|o| o.load(Ordering::Relaxed))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(),
            run(),
            "affinity must map iterations identically across loops"
        );
    }

    #[test]
    fn empty_range() {
        let pool = ThreadPool::new(2);
        for part in partitioners() {
            let hits = AtomicUsize::new(0);
            tbb_parallel_for(&pool, 9..9, part, |_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 0);
        }
    }
}
