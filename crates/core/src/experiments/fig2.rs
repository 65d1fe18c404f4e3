//! Figure 2: coloring speedup on the *randomly ordered* graphs — the
//! memory-latency-bound regime where SMT shines and the paper reports
//! speedups beyond the thread count (153 / 121 / 98 on 121 threads for
//! OpenMP / TBB / Cilk Plus).

use crate::experiments::fig1::coloring_speedups;
use crate::series::Figure;
use crate::workload_cache::{self, OrderTag};
use mic_coloring::instrument::ColoringWorkload;
use mic_graph::stats::LocalityWindows;
use mic_graph::suite::{PaperGraph, Scale};
use mic_sim::{Machine, Policy, Work};
use std::sync::Arc;

/// Figure 2 at `scale`: each model's best variant on the shuffled suite.
pub fn fig2(scale: Scale) -> Figure {
    let machine = Machine::knf();
    let windows = LocalityWindows::default();
    let workloads: Vec<Arc<ColoringWorkload>> = crate::sweep::map(&PaperGraph::all(), |_, &pg| {
        let order = OrderTag::Random {
            seed: 0xF16 ^ pg.name().len() as u64,
        };
        workload_cache::coloring(pg, scale, order, windows)
    });
    let variants: Vec<(&'static str, Policy, Work)> = vec![
        ("OpenMP", Policy::OmpDynamic { chunk: 100 }, Work::default()),
        ("TBB", Policy::TbbSimple { grain: 40 }, Work::default()),
        ("CilkPlus", Policy::Cilk { grain: 100 }, Work::default()),
    ];
    let mut fig = coloring_speedups(&workloads, &variants, &machine);
    fig.title = "Figure 2: coloring on randomly ordered graphs".into();
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_speedups_are_near_linear_and_ordered() {
        // Half scale keeps most graphs well above the L2 window, so the
        // shuffle really is DRAM-latency-bound, as at paper size (where
        // this figure reaches 145/129/110 — see EXPERIMENTS.md).
        let fig = fig2(Scale::Fraction(2));
        let omp = fig.get("OpenMP").unwrap();
        let tbb = fig.get("TBB").unwrap();
        let cilk = fig.get("CilkPlus").unwrap();
        let last = fig.x.len() - 1;
        assert_eq!(fig.x[last], 121);
        // Paper: 153 / 121 / 98. Shapes: all high; OpenMP >= TBB >= Cilk.
        assert!(
            omp.y[last] > 60.0,
            "OpenMP shuffled speedup {}",
            omp.y[last]
        );
        assert!(omp.y[last] >= tbb.y[last]);
        assert!(tbb.y[last] >= cilk.y[last] * 0.95);
        // Monotonically increasing for OpenMP (the paper's curve is).
        for w in omp.y.windows(2) {
            assert!(
                w[1] >= w[0] * 0.98,
                "OpenMP curve should keep rising: {:?}",
                omp.y
            );
        }
    }
}
