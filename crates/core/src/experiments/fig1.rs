//! Figure 1: speedup of the coloring implementations on all (naturally
//! ordered) graphs — one panel per programming model.

use crate::series::{Figure, Series};
use crate::stats::paper_speedups;
use crate::workload_cache::{self, OrderTag};
use mic_coloring::instrument::ColoringWorkload;
use mic_graph::stats::LocalityWindows;
use mic_graph::suite::Scale;
use mic_sim::{simulate_with_scratch, Costs, Machine, Policy, Region, SimScratch, Work};
use std::sync::Arc;

/// Which panel of Figure 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Panel {
    /// (a) OpenMP: dynamic / static / guided, best chunk sizes (100/40/100).
    OpenMp,
    /// (b) Cilk Plus: worker-id vs holder local storage, grain 100.
    CilkPlus,
    /// (c) TBB: simple / auto / affinity partitioners, grain 40.
    Tbb,
}

impl Panel {
    /// The variants shown in this panel: (legend label, scheduling policy,
    /// extra per-iteration cost). The "holder" variant pays a couple of
    /// issue slots per vertex for the view lookup — the paper found the
    /// two Cilk variants "very close".
    fn variants(&self) -> Vec<(&'static str, Policy, Work)> {
        let none = Work::default();
        match self {
            Panel::OpenMp => vec![
                ("OpenMP-dynamic", Policy::OmpDynamic { chunk: 100 }, none),
                ("OpenMP-static", Policy::OmpStatic { chunk: Some(40) }, none),
                ("OpenMP-guided", Policy::OmpGuided { min_chunk: 100 }, none),
            ],
            Panel::CilkPlus => vec![
                ("CilkPlus", Policy::Cilk { grain: 100 }, none),
                (
                    "CilkPlus-holder",
                    Policy::Cilk { grain: 100 },
                    Work {
                        issue: 2.0,
                        ..Default::default()
                    },
                ),
            ],
            Panel::Tbb => vec![
                ("TBB-simple", Policy::TbbSimple { grain: 40 }, none),
                ("TBB-auto", Policy::TbbAuto, none),
                ("TBB-affinity", Policy::TbbAffinity, none),
            ],
        }
    }
}

fn regions_with_extra(w: &ColoringWorkload, policy: Policy, extra: Work) -> Vec<Region> {
    if extra == Work::default() {
        return w.regions(policy);
    }
    let bump = |src: &Costs| Region::shared(src.plus(extra), policy);
    vec![
        bump(&w.tentative),
        bump(&w.detect),
        bump(&w.conflict_tentative),
        bump(&w.conflict_detect),
    ]
}

/// Simulated speedups of a set of coloring variants over the KNF thread
/// grid, with the paper's baseline rule, geomean over the suite.
///
/// One sweep job per (variant, graph) pair; each job walks the full thread
/// grid with a reused [`SimScratch`], so the region prefix sums and the
/// event-loop buffers are built once per pair.
pub(crate) fn coloring_speedups(
    workloads: &[Arc<ColoringWorkload>],
    variants: &[(&'static str, Policy, Work)],
    machine: &Machine,
) -> Figure {
    let grid = machine.thread_grid();
    let jobs: Vec<(usize, usize)> = (0..variants.len())
        .flat_map(|v| (0..workloads.len()).map(move |g| (v, g)))
        .collect();
    let per_job: Vec<Vec<f64>> = crate::sweep::map(&jobs, |_, &(v, g)| {
        let (_, policy, extra) = variants[v];
        let regions = regions_with_extra(&workloads[g], policy, extra);
        let mut scratch = SimScratch::default();
        grid.iter()
            .map(|&t| simulate_with_scratch(machine, t, &regions, &mut scratch).cycles)
            .collect()
    });
    let cycles: Vec<Vec<Vec<f64>>> = per_job
        .chunks(workloads.len().max(1))
        .map(|c| c.to_vec())
        .collect();
    let speedups = paper_speedups(&cycles);
    let mut fig = Figure::new("coloring speedup", grid);
    for ((label, _, _), y) in variants.iter().zip(speedups) {
        fig.push(Series::new(*label, y));
    }
    fig
}

/// Figure 1, panel `panel`, at `scale` on the KNF machine model.
pub fn fig1(panel: Panel, scale: Scale) -> Figure {
    let machine = Machine::knf();
    let windows = LocalityWindows::default();
    let workloads: Vec<Arc<ColoringWorkload>> =
        crate::sweep::map(&mic_graph::suite::PaperGraph::all(), |_, &pg| {
            workload_cache::coloring(pg, scale, OrderTag::Natural, windows)
        });
    let ch = match panel {
        Panel::OpenMp => 'a',
        Panel::CilkPlus => 'b',
        Panel::Tbb => 'c',
    };
    let mut fig = coloring_speedups(&workloads, &panel.variants(), &machine);
    fig.title = format!("Figure 1{ch}: coloring on naturally ordered graphs ({panel:?})");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The holder regions' costs and prefixes equal each iteration's
    /// `Work` plus `extra`, added by an explicit loop, bit for bit, in
    /// natural, random and Cuthill–McKee order.
    #[test]
    fn holder_regions_match_the_copy_loop_bit_for_bit() {
        use mic_graph::generators::{grid2d, Stencil2};
        use mic_graph::ordering::{apply, Ordering};
        let bits = |ws: &[Work]| -> Vec<[u64; 6]> {
            ws.iter()
                .map(|w| [w.issue, w.l1, w.l2, w.dram, w.flops, w.atomics].map(f64::to_bits))
                .collect()
        };
        let (_, policy, extra) = Panel::CilkPlus.variants()[1];
        assert_ne!(extra, Work::default());
        let g = grid2d(120, 90, Stencil2::NinePoint);
        for order in [
            Ordering::Natural,
            Ordering::Random { seed: 3 },
            Ordering::CuthillMcKee { source: 0 },
        ] {
            let (h, _) = apply(&g, order);
            let w = mic_coloring::instrument::instrument(&h, LocalityWindows::default());
            let handles = [
                &w.tentative,
                &w.detect,
                &w.conflict_tentative,
                &w.conflict_detect,
            ];
            let regions = regions_with_extra(&w, policy, extra);
            for (i, (got, src)) in regions.iter().zip(handles).enumerate() {
                let want: Vec<Work> = src.to_vec().iter().map(|x| x.add(&extra)).collect();
                assert_eq!(bits(&got.iter_work.to_vec()), bits(&want), "{order:?} {i}");
                let want = Region::new(want, policy);
                assert_eq!(
                    bits(got.prefix_sums()),
                    bits(want.prefix_sums()),
                    "{order:?} prefix {i}"
                );
            }
        }
    }

    #[test]
    fn openmp_panel_shapes() {
        let fig = fig1(Panel::OpenMp, Scale::Fraction(16));
        assert_eq!(fig.series.len(), 3);
        let dynamic = fig.get("OpenMP-dynamic").unwrap();
        // Speedup at 1 thread is 1 (it is the fastest 1-thread config or
        // ties with it); rises substantially by 121 threads.
        assert!(dynamic.y[0] > 0.9 && dynamic.y[0] <= 1.01);
        assert!(dynamic.y.last().unwrap() > &10.0);
        // Dynamic clearly beats static in the midrange, where solo-thread
        // stragglers hurt the static split (41..71 threads). At 121 every
        // core is full and our model has them tie — the paper's remaining
        // static deficit there comes from OS noise we do not model.
        let st = fig.get("OpenMP-static").unwrap();
        let mid = fig.x.iter().position(|&t| t == 51).unwrap();
        assert!(
            dynamic.y[mid] > 1.1 * st.y[mid],
            "dynamic {} should beat static {} at 51 threads",
            dynamic.y[mid],
            st.y[mid]
        );
        // (At miniature scale dynamic/100 has barely one chunk per thread
        // at t=121, so allow it to trail static's finer 40-chunks there.)
        assert!(*dynamic.y.last().unwrap() >= st.y.last().unwrap() * 0.8);
    }

    #[test]
    fn cilk_variants_are_close() {
        let fig = fig1(Panel::CilkPlus, Scale::Fraction(64));
        let a = fig.get("CilkPlus").unwrap();
        let b = fig.get("CilkPlus-holder").unwrap();
        for (ya, yb) in a.y.iter().zip(&b.y) {
            assert!(
                (ya - yb).abs() / ya < 0.15,
                "variants should be close: {ya} vs {yb}"
            );
        }
    }
}
