//! Metrics emitted by the native runtime layer: pool lifecycle counters,
//! per-schedule chunk latency histograms, steal counters with victim
//! labels. Every test serializes through `mic_metrics::with_session`
//! because metrics enablement is process-global.

use mic_runtime::{
    cilk_for, parallel_for_chunks, tbb_parallel_for, Partitioner, Schedule, ThreadPool,
};
use std::sync::atomic::{AtomicUsize, Ordering};

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
    // Steals are timing-dependent; any that were recorded must carry a
    // parseable victim label (worker id or "unknown").
    for (victim, count) in snap.by_label("mic_runtime_steals_total", "victim") {
        assert!(count >= 1.0);
        assert!(
            victim == "unknown" || victim.parse::<usize>().is_ok(),
            "bad victim label {victim:?}"
        );
    }
    assert!(snap.self_check().is_empty(), "{:?}", snap.self_check());
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
