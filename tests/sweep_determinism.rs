//! The parallel sweep harness must be invisible in the output: any worker
//! count produces bit-for-bit the same figures as the serial reference
//! loop. These tests pin that contract at both levels — raw `map_with`
//! over real simulation jobs, and whole figure drivers run repeatedly.

use mic_eval::experiments::{fig1, fig2, fig3};
use mic_eval::graph::stats::LocalityWindows;
use mic_eval::graph::suite::{PaperGraph, Scale};
use mic_eval::series::Figure;
use mic_eval::sim::{simulate_with_scratch, Machine, Policy, SimScratch};
use mic_eval::sweep;
use mic_eval::workload_cache::{self, OrderTag};

/// Exact (bit-level) figure equality; `assert_eq!` on f64 would accept
/// -0.0 == 0.0 and reject NaN == NaN, neither of which we want here.
fn assert_figures_identical(a: &Figure, b: &Figure) {
    assert_eq!(a.title, b.title);
    assert_eq!(a.x, b.x);
    assert_eq!(a.series.len(), b.series.len());
    for (sa, sb) in a.series.iter().zip(&b.series) {
        assert_eq!(sa.label, sb.label);
        assert_eq!(sa.y.len(), sb.y.len());
        for (ya, yb) in sa.y.iter().zip(&sb.y) {
            assert_eq!(
                ya.to_bits(),
                yb.to_bits(),
                "series {}: {ya} vs {yb}",
                sa.label
            );
        }
    }
}

#[test]
fn parallel_sweep_equals_serial_reference_on_simulation_jobs() {
    let machine = Machine::knf();
    let w = workload_cache::coloring(
        PaperGraph::Hood,
        Scale::Vertices(2_000),
        OrderTag::Natural,
        LocalityWindows::default(),
    );
    let grid = machine.thread_grid();
    let jobs: Vec<(Policy, usize)> = [
        Policy::OmpDynamic { chunk: 100 },
        Policy::OmpStatic { chunk: Some(40) },
        Policy::Cilk { grain: 100 },
        Policy::TbbSimple { grain: 40 },
    ]
    .into_iter()
    .flat_map(|p| grid.iter().map(move |&t| (p, t)))
    .collect();
    let run = |_i: usize, &(policy, t): &(Policy, usize)| -> u64 {
        let regions = w.regions(policy);
        let mut scratch = SimScratch::default();
        simulate_with_scratch(&machine, t, &regions, &mut scratch)
            .cycles
            .to_bits()
    };
    let serial = sweep::map_serial(&jobs, run);
    for threads in [2, 3, 8, 32] {
        assert_eq!(
            sweep::map_with(threads, &jobs, run),
            serial,
            "threads={threads}"
        );
    }
}

#[test]
fn figure_drivers_are_deterministic_across_repeated_parallel_runs() {
    // The drivers fan out over `sweep::map` internally; run each twice
    // (second run additionally hits the workload cache) and demand
    // bit-identical output.
    let scale = Scale::Fraction(256);
    assert_figures_identical(
        &fig1::fig1(fig1::Panel::OpenMp, scale),
        &fig1::fig1(fig1::Panel::OpenMp, scale),
    );
    assert_figures_identical(&fig2::fig2(scale), &fig2::fig2(scale));
    assert_figures_identical(
        &fig3::fig3(fig3::Panel::Tbb, scale),
        &fig3::fig3(fig3::Panel::Tbb, scale),
    );
}

#[test]
fn sweep_worker_count_does_not_leak_into_results() {
    // Same jobs, pathological worker counts (more workers than jobs,
    // exactly one worker, prime counts): all identical.
    let items: Vec<usize> = (0..37).collect();
    let f = |i: usize, &x: &usize| -> f64 { (x as f64).sqrt() + i as f64 };
    let reference: Vec<u64> = sweep::map_serial(&items, f)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for threads in [1, 2, 5, 13, 37, 64, 101] {
        let got: Vec<u64> = sweep::map_with(threads, &items, f)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, reference, "threads={threads}");
    }
}
