//! Metrics emitted by the native runtime layer: pool lifecycle counters,
//! per-schedule chunk latency histograms, steal counters with victim
//! labels. Every test records into its own `mic_metrics::with_session`
//! registry, so the tests run side by side under the parallel harness.

use mic_runtime::{
    cilk_for, parallel_for_chunks, tbb_parallel_for, Partitioner, Schedule, ThreadPool, WorkerCtx,
};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[test]
fn pool_lifecycle_and_region_counters() {
    let ((), snap) = mic_metrics::with_session(|| {
        let pool = ThreadPool::new(4);
        for _ in 0..3 {
            pool.run(|_| {});
        }
    });
    assert_eq!(snap.value("mic_pool_workers_spawned_total", &[]), Some(4.0));
    assert_eq!(snap.value("mic_pool_regions_total", &[]), Some(3.0));
}

#[test]
fn chunk_histograms_are_labeled_per_schedule_and_count_chunks() {
    let n = 1000;
    let schedules = [
        (Schedule::Static { chunk: Some(64) }, "static"),
        (Schedule::Dynamic { chunk: 64 }, "dynamic"),
        (Schedule::Guided { min_chunk: 16 }, "guided"),
    ];
    let (chunk_counts, snap) = mic_metrics::with_session(|| {
        let pool = ThreadPool::new(4);
        schedules.map(|(sched, _)| {
            let chunks = AtomicUsize::new(0);
            parallel_for_chunks(&pool, 0..n, sched, |_, _| {
                chunks.fetch_add(1, Ordering::Relaxed);
            });
            chunks.into_inner() as f64
        })
    });
    for ((_, label), expect) in schedules.iter().zip(chunk_counts) {
        let labels = [("runtime", "omp"), ("sched", *label)];
        assert_eq!(
            snap.value("mic_runtime_chunks_total", &labels),
            Some(expect),
            "omp/{label}"
        );
        let h = snap
            .hist("mic_runtime_chunk_seconds", &labels)
            .unwrap_or_else(|| panic!("missing histogram for omp/{label}"));
        assert_eq!(
            h.count as f64, expect,
            "histogram count must equal the chunk counter for omp/{label}"
        );
        assert!(h.sum >= 0.0);
    }
    assert!(snap.self_check().is_empty(), "{:?}", snap.self_check());
}

#[test]
fn work_stealing_runtimes_record_labeled_chunks_and_valid_steals() {
    let ((), snap) = mic_metrics::with_session(|| {
        let pool = ThreadPool::new(4);
        cilk_for(&pool, 0..2000, 32, |_, _| {
            std::hint::black_box(0);
        });
        tbb_parallel_for(&pool, 0..2000, Partitioner::Auto, |_, _| {
            std::hint::black_box(0);
        });
        tbb_parallel_for(&pool, 0..2000, Partitioner::Affinity, |_, _| {});
    });
    for (runtime, sched) in [("cilk", "simple"), ("tbb", "auto"), ("tbb", "affinity")] {
        let labels = [("runtime", runtime), ("sched", sched)];
        let chunks = snap.value("mic_runtime_chunks_total", &labels).unwrap();
        assert!(chunks > 0.0, "{runtime}/{sched} recorded no chunks");
        let h = snap.hist("mic_runtime_chunk_seconds", &labels).unwrap();
        assert_eq!(h.count as f64, chunks, "{runtime}/{sched}");
    }
    // Steals are timing-dependent here; any that were recorded must name
    // a worker of the pool as the victim.
    for (victim, count) in snap.by_label("mic_runtime_steals_total", "victim") {
        assert!(count >= 1.0);
        assert!(
            victim.parse::<usize>().is_ok_and(|v| v < 4),
            "bad victim label {victim:?}"
        );
    }
    assert!(snap.self_check().is_empty(), "{:?}", snap.self_check());
}

/// Run a loop over `0..N` on a 2-worker pool in a metrics session. The
/// worker that runs index 0 holds its leaf until every other index has
/// run, so the other worker can finish only by stealing what the blocked
/// worker split off; assert that `runtime`'s steal counter names it.
fn blocked_worker_is_robbed(
    runtime: &str,
    run: impl FnOnce(&ThreadPool, &(dyn Fn(Range<usize>, WorkerCtx) + Sync)),
) {
    const N: usize = 4096;
    let blocked = AtomicUsize::new(usize::MAX);
    let others = AtomicUsize::new(0);
    let ((), snap) = mic_metrics::with_session(|| {
        let pool = ThreadPool::new(2);
        run(&pool, &|r, ctx| {
            if r.start != 0 {
                others.fetch_add(r.len(), Ordering::Release);
                return;
            }
            blocked.store(ctx.id, Ordering::Relaxed);
            let deadline = Instant::now() + Duration::from_secs(10);
            while others.load(Ordering::Acquire) < N - r.len() {
                assert!(
                    Instant::now() < deadline,
                    "{runtime}: the rest of the range did not run within 10 s"
                );
                std::thread::yield_now();
            }
        });
    });
    let victim = blocked.into_inner().to_string();
    let steals = snap
        .value(
            "mic_runtime_steals_total",
            &[("runtime", runtime), ("victim", &victim)],
        )
        .unwrap_or(0.0);
    assert!(
        steals >= 1.0,
        "{runtime}: no steal from blocked worker {victim}: {:?}",
        snap.by_label("mic_runtime_steals_total", "victim")
    );
}

#[test]
fn cilk_steals_from_a_blocked_worker() {
    blocked_worker_is_robbed("cilk", |pool, body| cilk_for(pool, 0..4096, 1, body));
}

#[test]
fn tbb_auto_steals_from_a_blocked_worker() {
    blocked_worker_is_robbed("tbb", |pool, body| {
        tbb_parallel_for(pool, 0..4096, Partitioner::Auto, body)
    });
}

#[test]
fn metrics_do_not_perturb_results() {
    let n = 10_000;
    let run = || {
        let pool = ThreadPool::new(4);
        let sum = std::sync::atomic::AtomicU64::new(0);
        parallel_for_chunks(&pool, 0..n, Schedule::Dynamic { chunk: 100 }, |r, _| {
            sum.fetch_add(r.map(|i| i as u64).sum::<u64>(), Ordering::Relaxed);
        });
        sum.into_inner()
    };
    let off = run();
    let (on, _snap) = mic_metrics::with_session(run);
    assert_eq!(off, on);
}
