//! Simulator throughput: how fast the fluid discrete-event engine chews
//! through a figure-sized sweep (this bounds how long `--bin all` takes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mic_eval::coloring::instrument::instrument;
use mic_eval::graph::stats::LocalityWindows;
use mic_eval::graph::suite::{build, PaperGraph, Scale};
use mic_eval::irregular::instrument::{instrument_pagerank, PagerankWorkload};
use mic_eval::sim::{simulate, simulate_with_scratch, Machine, Policy, Region, SimScratch};
use mic_eval::sweep;
use mic_eval::workload_cache::{PAGERANK_DAMPING, PAGERANK_MAX_ITERS, PAGERANK_TOL};
use std::hint::black_box;

fn bench_sim(c: &mut Criterion) {
    let g = build(PaperGraph::Hood, Scale::Fraction(8));
    let w = instrument(&g, LocalityWindows::default());
    let machine = Machine::knf();
    let mut group = c.benchmark_group("sim_engine");
    group.sample_size(20);

    for t in [1usize, 31, 121] {
        // The regions are reused across iterations, as the figure drivers
        // reuse them across a thread grid: the Work prefix sums are
        // computed on the first call and cached in the Region thereafter.
        let regions = w.regions(Policy::OmpDynamic { chunk: 100 });
        group.bench_with_input(BenchmarkId::new("coloring_region", t), &t, |b, &t| {
            b.iter(|| black_box(simulate(&machine, t, &regions).cycles))
        });
    }

    // Allocation-free engine loop: same simulation, caller-owned scratch.
    let regions = w.regions(Policy::OmpDynamic { chunk: 100 });
    let mut scratch = SimScratch::default();
    group.bench_function("coloring_region_scratch/121", |b| {
        b.iter(|| black_box(simulate_with_scratch(&machine, 121, &regions, &mut scratch).cycles))
    });

    // PageRank-shaped: 20 identical power-iteration regions over one work
    // array (the count is pinned so the row does not move with the
    // convergence test). The engine runs the first region and the other 19
    // take its cycles.
    let pagerank = PagerankWorkload {
        iters: 20,
        ..instrument_pagerank(
            &g,
            LocalityWindows::default(),
            PAGERANK_DAMPING,
            PAGERANK_TOL,
            PAGERANK_MAX_ITERS,
        )
    };
    let regions = pagerank.regions(Policy::OmpDynamic { chunk: 100 });
    group.bench_function("pagerank_20_regions_scratch/121", |b| {
        b.iter(|| black_box(simulate_with_scratch(&machine, 121, &regions, &mut scratch).cycles))
    });
    group.finish();
}

/// A figure-shaped cross-product — every coloring variant on every suite
/// graph over the whole thread grid — run through the serial reference
/// loop and through the parallel sweep harness. This is the unit of work
/// `--bin all` repeats per exhibit.
fn bench_full_sweep(c: &mut Criterion) {
    let machine = Machine::knf();
    let grid = machine.thread_grid();
    let policies = [
        Policy::OmpDynamic { chunk: 100 },
        Policy::OmpStatic { chunk: Some(40) },
        Policy::OmpGuided { min_chunk: 100 },
    ];
    let region_sets: Vec<Vec<Region>> = PaperGraph::all()
        .iter()
        .flat_map(|&pg| {
            let w = instrument(&build(pg, Scale::Fraction(64)), LocalityWindows::default());
            policies
                .iter()
                .map(move |&p| w.regions(p))
                .collect::<Vec<_>>()
        })
        .collect();
    let run = |_i: usize, regions: &Vec<Region>| -> f64 {
        let mut scratch = SimScratch::default();
        grid.iter()
            .map(|&t| simulate_with_scratch(&machine, t, regions, &mut scratch).cycles)
            .sum()
    };

    let mut group = c.benchmark_group("full_sweep");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| black_box(sweep::map_serial(&region_sets, run)))
    });
    let threads = sweep::default_threads().max(2);
    group.bench_function(BenchmarkId::new("parallel", threads), |b| {
        b.iter(|| black_box(sweep::map_with(threads, &region_sets, run)))
    });
    group.finish();
}

criterion_group!(benches, bench_sim, bench_full_sweep);
criterion_main!(benches);
