//! Runtime-construct microbenchmarks: per-chunk dispatch cost of each
//! scheduling discipline (the quantity the simulator's `SchedCosts`
//! abstracts), plus the TLS/reduction helpers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mic_eval::runtime::{
    cilk_for, parallel_for_chunks, tbb_parallel_for, Partitioner, PerWorker, ReducerMax, Schedule,
    ThreadPool,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

const N: usize = 200_000;

fn bench_constructs(c: &mut Criterion) {
    let pool = ThreadPool::new(4);
    let mut group = c.benchmark_group("runtime_constructs");
    group.throughput(Throughput::Elements(N as u64));
    group.sample_size(20);

    let work = |r: std::ops::Range<usize>| -> u64 {
        let mut s = 0u64;
        for i in r {
            s = s.wrapping_add((i as u64).wrapping_mul(2654435761));
        }
        s
    };

    for (name, sched) in [
        ("static", Schedule::Static { chunk: None }),
        ("static_40", Schedule::Static { chunk: Some(40) }),
        ("dynamic_100", Schedule::Dynamic { chunk: 100 }),
        ("guided_100", Schedule::Guided { min_chunk: 100 }),
    ] {
        group.bench_with_input(BenchmarkId::new("openmp", name), &sched, |b, &sched| {
            b.iter(|| {
                let acc = AtomicU64::new(0);
                parallel_for_chunks(&pool, 0..N, sched, |r, _| {
                    acc.fetch_add(work(r), Ordering::Relaxed);
                });
                black_box(acc.into_inner())
            })
        });
    }

    group.bench_function("cilk_grain_100", |b| {
        b.iter(|| {
            let acc = AtomicU64::new(0);
            cilk_for(&pool, 0..N, 100, |r, _| {
                acc.fetch_add(work(r), Ordering::Relaxed);
            });
            black_box(acc.into_inner())
        })
    });

    for (name, part) in [
        ("simple_40", Partitioner::Simple { grain: 40 }),
        ("auto", Partitioner::Auto),
        ("affinity", Partitioner::Affinity),
    ] {
        group.bench_with_input(BenchmarkId::new("tbb", name), &part, |b, &part| {
            b.iter(|| {
                let acc = AtomicU64::new(0);
                tbb_parallel_for(&pool, 0..N, part, |r, _| {
                    acc.fetch_add(work(r), Ordering::Relaxed);
                });
                black_box(acc.into_inner())
            })
        });
    }

    group.bench_function("per_worker_reduction", |b| {
        b.iter(|| {
            let mut red = ReducerMax::new(4, 0u64);
            let mut tls: PerWorker<u64> = PerWorker::new(4, |_| 0);
            parallel_for_chunks(&pool, 0..N, Schedule::Dynamic { chunk: 128 }, |r, ctx| {
                let w = work(r);
                tls.with(ctx, |t| *t = t.wrapping_add(w));
                red.update(ctx, w);
            });
            black_box((red.get(), tls.take_values().len()))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_constructs);
criterion_main!(benches);
