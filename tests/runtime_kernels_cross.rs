//! Cross-cutting stress tests of the runtime under the real kernels:
//! determinism where promised, agreement across thread counts, and the
//! block queue under the exact BFS access pattern.

use mic_eval::bfs::{bfs, parallel_bfs, BfsVariant};
use mic_eval::coloring::{check_proper, iterative_coloring};
use mic_eval::graph::generators::{erdos_renyi_gnm, rmat, RmatProbs};
use mic_eval::runtime::{
    exclusive_scan, parallel_for, BlockQueue, Partitioner, RuntimeModel, Schedule, ThreadPool,
};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn bfs_levels_identical_across_thread_counts() {
    let g = rmat(12, 8, RmatProbs::graph500(), 5);
    let want = bfs(&g, 0).levels;
    for threads in [1usize, 2, 3, 5, 8, 13] {
        let pool = ThreadPool::new(threads);
        for variant in BfsVariant::paper_set() {
            let got = parallel_bfs(&pool, &g, 0, variant);
            assert_eq!(got.levels, want, "{} at {threads} threads", variant.name());
        }
    }
}

#[test]
fn coloring_proper_across_thread_counts() {
    let g = erdos_renyi_gnm(3000, 20_000, 7);
    for threads in [1usize, 2, 5, 9] {
        let pool = ThreadPool::new(threads);
        for model in RuntimeModel::paper_best() {
            let r = iterative_coloring(&pool, &g, model);
            check_proper(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{model:?} at {threads} threads: {e}"));
        }
    }
}

#[test]
fn block_queue_under_bfs_like_churn() {
    // Hammer the queue with the BFS pattern: rounds of parallel pushes,
    // then drain, then reset, reusing the same queue.
    let pool = ThreadPool::new(8);
    let mut q: BlockQueue<u32> = BlockQueue::with_writers(40_000, 32, 8, u32::MAX);
    for round in 0..10u32 {
        let items = 10_000 + (round as usize * 997) % 5000;
        {
            let qref = &q;
            let pushed = AtomicUsize::new(0);
            pool.run(|ctx| {
                let mut w = qref.writer();
                let mut i = ctx.id;
                while i < items {
                    w.push(round * 100_000 + i as u32);
                    pushed.fetch_add(1, Ordering::Relaxed);
                    i += ctx.num_threads;
                }
            });
            assert_eq!(pushed.load(Ordering::Relaxed), items);
        }
        let mut got = q.items();
        got.sort_unstable();
        let want: Vec<u32> = (0..items as u32).map(|i| round * 100_000 + i).collect();
        assert_eq!(got, want, "round {round}");
        q.reset();
    }
}

#[test]
fn scan_merges_queue_lengths_like_snap() {
    let pool = ThreadPool::new(4);
    let mut lens: Vec<u64> = (0..1000).map(|i| (i * 31) % 17).collect();
    let want_total: u64 = lens.iter().sum();
    let copy = lens.clone();
    let total = exclusive_scan(&pool, &mut lens);
    assert_eq!(total, want_total);
    // Offsets are non-decreasing and consistent with the original lengths.
    for i in 1..lens.len() {
        assert_eq!(lens[i], lens[i - 1] + copy[i - 1]);
    }
}

#[test]
fn schedulers_agree_on_expensive_reduction() {
    // A reduction whose result is order-independent: all schedules and
    // partitioners must agree exactly.
    let n = 100_000usize;
    let expected: u64 = (0..n as u64)
        .map(|i| i.wrapping_mul(2654435761))
        .fold(0, u64::wrapping_add);
    for threads in [1usize, 4, 7] {
        let pool = ThreadPool::new(threads);
        for sched in [
            Schedule::Static { chunk: None },
            Schedule::Dynamic { chunk: 1024 },
            Schedule::Guided { min_chunk: 64 },
        ] {
            let acc = std::sync::atomic::AtomicU64::new(0);
            parallel_for(&pool, 0..n, sched, |i, _| {
                acc.fetch_add((i as u64).wrapping_mul(2654435761), Ordering::Relaxed);
            });
            assert_eq!(
                acc.load(Ordering::Relaxed),
                expected,
                "{sched:?} t={threads}"
            );
        }
        for part in [
            Partitioner::Simple { grain: 512 },
            Partitioner::Auto,
            Partitioner::Affinity,
        ] {
            let acc = std::sync::atomic::AtomicU64::new(0);
            mic_eval::runtime::tbb_parallel_for(&pool, 0..n, part, |r, _| {
                for i in r {
                    acc.fetch_add((i as u64).wrapping_mul(2654435761), Ordering::Relaxed);
                }
            });
            assert_eq!(
                acc.load(Ordering::Relaxed),
                expected,
                "{part:?} t={threads}"
            );
        }
    }
}
