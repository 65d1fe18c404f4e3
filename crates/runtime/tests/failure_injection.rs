//! Failure injection: a panicking body anywhere in any construct must (a)
//! propagate to the caller as a panic, (b) never deadlock sibling workers,
//! and (c) leave the pool reusable.

use mic_runtime::{
    cilk_for, fault, parallel_for, run_pipeline, tbb_parallel_for, FaultAction, FaultSite,
    Partitioner, Schedule, Stage, ThreadPool,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The fault hook is process-global: while one test holds it, it fires
/// inside whichever other test's pool is running. Every test here takes
/// this lock first, so they run one at a time.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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
fn panic_in_pipeline_stage_propagates() {
    let _serial = serial();
    let pool = ThreadPool::new(4);
    let mut produced = 0u64;
    let r = catch_unwind(AssertUnwindSafe(|| {
        run_pipeline(
            &pool,
            move || {
                produced += 1;
                if produced <= 50 {
                    Some(produced)
                } else {
                    None
                }
            },
            vec![Stage::parallel(|v: u64| {
                if v == 25 {
                    panic!("injected");
                }
                v
            })],
            |_| {},
            8,
        );
    }));
    assert!(r.is_err(), "pipeline must propagate a stage panic");
    assert_pool_still_works(&pool);
}

#[test]
fn injected_chunk_panic_propagates_and_pool_survives() {
    let _serial = serial();
    let pool = ThreadPool::new(4);
    fault::with_hook(
        Arc::new(|site: &FaultSite| {
            (site.runtime == "omp" && site.index == 64)
                .then(|| FaultAction::Panic("injected chunk fault".into()))
        }),
        || {
            let r = catch_unwind(AssertUnwindSafe(|| {
                parallel_for(&pool, 0..1000, Schedule::Dynamic { chunk: 64 }, |_, _| {});
            }));
            assert!(r.is_err(), "chunk fault must propagate as a panic");
        },
    );
    assert_pool_still_works(&pool);
}

#[test]
fn injected_chunk_stall_changes_nothing_but_timing() {
    let _serial = serial();
    let pool = ThreadPool::new(4);
    let hits = AtomicUsize::new(0);
    fault::with_hook(
        Arc::new(|site: &FaultSite| (site.runtime == "omp").then_some(FaultAction::StallMs(1))),
        || {
            parallel_for(&pool, 0..100, Schedule::Dynamic { chunk: 25 }, |_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        },
    );
    assert_eq!(hits.load(Ordering::Relaxed), 100);
}

#[test]
fn dead_worker_is_reported_then_respawned() {
    let _serial = serial();
    let pool = ThreadPool::new(4);
    let killed = Arc::new(AtomicUsize::new(0));
    // First region under the hook: worker 2 dies exactly once. `run` must
    // report the loss as a panic rather than completing silently.
    fault::with_hook(
        Arc::new({
            let killed = Arc::clone(&killed);
            move |site: &FaultSite| {
                if site.runtime == "pool"
                    && site.worker == 2
                    && killed
                        .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    Some(FaultAction::Die)
                } else {
                    None
                }
            }
        }),
        || {
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.run(|_| {});
            }));
            let msg = *r
                .expect_err("worker death must surface as a panic")
                .downcast::<String>()
                .expect("death payload is a message");
            assert!(msg.contains("worker 2"), "got: {msg}");
            // Next region: the pool respawns the dead worker and runs at
            // full strength again instead of deadlocking.
            let hits = AtomicUsize::new(0);
            let mask = AtomicUsize::new(0);
            pool.run(|ctx| {
                hits.fetch_add(1, Ordering::Relaxed);
                mask.fetch_or(1 << ctx.id, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 4);
            assert_eq!(mask.load(Ordering::Relaxed), 0xF, "all ids participate");
        },
    );
    assert_eq!(killed.load(Ordering::Relaxed), 1);
    assert_pool_still_works(&pool);
}

#[test]
fn repeated_panics_do_not_poison_anything() {
    let _serial = serial();
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
