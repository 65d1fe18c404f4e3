//! Failure injection: a panicking body anywhere in any construct must (a)
//! propagate to the caller as a panic, (b) never deadlock sibling workers,
//! and (c) leave the pool reusable.

use mic_runtime::{cilk_for, parallel_for, tbb_parallel_for, Partitioner, Schedule, ThreadPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

fn assert_pool_still_works(pool: &ThreadPool) {
    let hits = AtomicUsize::new(0);
    parallel_for(pool, 0..100, Schedule::Dynamic { chunk: 7 }, |_, _| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(
        hits.load(Ordering::Relaxed),
        100,
        "pool must be reusable after a panic"
    );
}

#[test]
fn panic_in_openmp_body_propagates() {
    let pool = ThreadPool::new(4);
    for sched in [
        Schedule::Static { chunk: None },
        Schedule::Static { chunk: Some(8) },
        Schedule::Dynamic { chunk: 16 },
        Schedule::Guided { min_chunk: 4 },
    ] {
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(&pool, 0..1000, sched, |i, _| {
                if i == 457 {
                    panic!("injected");
                }
            });
        }));
        assert!(r.is_err(), "{sched:?} must propagate the panic");
        assert_pool_still_works(&pool);
    }
}

#[test]
fn panic_in_cilk_body_does_not_deadlock() {
    let pool = ThreadPool::new(6);
    for _ in 0..3 {
        let r = catch_unwind(AssertUnwindSafe(|| {
            cilk_for(&pool, 0..10_000, 16, |chunk, _| {
                if chunk.contains(&5000) {
                    panic!("injected");
                }
            });
        }));
        assert!(r.is_err());
        assert_pool_still_works(&pool);
    }
}

#[test]
fn panic_in_tbb_bodies_does_not_deadlock() {
    let pool = ThreadPool::new(6);
    for part in [
        Partitioner::Simple { grain: 8 },
        Partitioner::Auto,
        Partitioner::Affinity,
    ] {
        let r = catch_unwind(AssertUnwindSafe(|| {
            tbb_parallel_for(&pool, 0..5000, part, |chunk, _| {
                if chunk.contains(&2500) {
                    panic!("injected");
                }
            });
        }));
        assert!(r.is_err(), "{part:?}");
        assert_pool_still_works(&pool);
    }
}

#[test]
fn repeated_panics_do_not_poison_anything() {
    // Hammer the pool with alternating panicking and clean regions.
    let pool = ThreadPool::new(4);
    for round in 0..10 {
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(&pool, 0..200, Schedule::Dynamic { chunk: 3 }, |i, _| {
                if i == round * 13 {
                    panic!("round {round}");
                }
            });
        }));
        assert!(r.is_err());
    }
    assert_pool_still_works(&pool);
}
