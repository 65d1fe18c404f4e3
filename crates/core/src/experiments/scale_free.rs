//! Scale-free exhibits beyond the paper: PageRank, label-propagation
//! connected components, and direction-optimizing hybrid BFS on the RMAT
//! companions of the suite (plus `hood` as the mesh contrast where the
//! comparison is meaningful).
//!
//! These are the kernels the MIC-characterization literature names as
//! stressing Xeon Phi differently from mesh BFS: power-law degree
//! distributions concentrate work on a few hub rows (load imbalance the
//! dynamic schedules must absorb) and collapse the BFS level structure to
//! a handful of very wide frontiers (where the Beamer bottom-up switch
//! pays off — on the paper's FE meshes it never fires).

use crate::series::{Figure, Series};
use crate::workload_cache::{self, OrderTag};
use mic_graph::stats::LocalityWindows;
use mic_graph::suite::{PaperGraph, Scale};
use mic_sim::{simulate_with_scratch, Machine, Policy, Region, SimScratch};

/// Cycles of `regions` at every point of `grid`. Thread grids start at one
/// thread, so `cycles[0]` is the one-thread baseline: the engine is a pure
/// function and needs no separate run for it.
fn grid_cycles(
    machine: &Machine,
    grid: &[usize],
    regions: &[Region],
    scratch: &mut SimScratch,
) -> Vec<f64> {
    assert_eq!(grid.first(), Some(&1), "thread grids start at one thread");
    grid.iter()
        .map(|&t| simulate_with_scratch(machine, t, regions, scratch).cycles)
        .collect()
}

fn speedups(base: f64, cycles: &[f64]) -> Vec<f64> {
    cycles.iter().map(|c| base / c).collect()
}

/// The graphs the pagerank/components exhibits sweep: both RMAT
/// companions, then the paper's `hood` mesh for contrast.
fn exhibit_graphs() -> Vec<PaperGraph> {
    let mut v: Vec<PaperGraph> = PaperGraph::scale_free().to_vec();
    v.push(PaperGraph::Hood);
    v
}

/// PageRank scalability: one self-relative speedup curve per graph, on
/// the converged native iteration count.
pub fn pagerank_fig(scale: Scale) -> Figure {
    let machine = Machine::knf();
    let grid = machine.thread_grid();
    let windows = LocalityWindows::default();
    let policy = Policy::OmpDynamic { chunk: 100 };
    let graphs = exhibit_graphs();
    let mut fig = Figure::new(
        "PageRank on scale-free graphs (OpenMP dynamic)",
        grid.clone(),
    );
    let runs: Vec<Vec<f64>> = crate::sweep::map(&graphs, |_, &pg| {
        let w = workload_cache::pagerank(pg, scale, OrderTag::Natural, windows);
        let regions = w.regions(policy);
        let cycles = grid_cycles(&machine, &grid, &regions, &mut SimScratch::new());
        speedups(cycles[0], &cycles)
    });
    for (pg, y) in graphs.iter().zip(runs) {
        fig.push(Series::new(pg.name(), y));
    }
    fig
}

/// Connected-components scalability: synchronous label propagation, one
/// self-relative speedup curve per graph.
pub fn components_fig(scale: Scale) -> Figure {
    let machine = Machine::knf();
    let grid = machine.thread_grid();
    let windows = LocalityWindows::default();
    let policy = Policy::OmpDynamic { chunk: 100 };
    let graphs = exhibit_graphs();
    let mut fig = Figure::new(
        "Connected components (label propagation) on scale-free graphs",
        grid.clone(),
    );
    let runs: Vec<Vec<f64>> = crate::sweep::map(&graphs, |_, &pg| {
        let w = workload_cache::components(pg, scale, OrderTag::Natural, windows);
        let regions = w.regions(policy);
        let cycles = grid_cycles(&machine, &grid, &regions, &mut SimScratch::new());
        speedups(cycles[0], &cycles)
    });
    for (pg, y) in graphs.iter().zip(runs) {
        fig.push(Series::new(pg.name(), y));
    }
    fig
}

/// Hybrid vs layered BFS on the RMAT companions. Both curves of a graph
/// are normalized to the *layered* one-thread time, so the hybrid curve's
/// elevation above the layered one is the direction-optimization win
/// itself (its switch evidence is the `mic_bfs_direction_switches_total`
/// counter the workload build bumps).
pub fn hybrid_bfs_fig(scale: Scale) -> Figure {
    let machine = Machine::knf();
    let grid = machine.thread_grid();
    let windows = LocalityWindows::default();
    let policy = Policy::OmpDynamic { chunk: 64 };
    let graphs: Vec<PaperGraph> = PaperGraph::scale_free().to_vec();
    let mut fig = Figure::new(
        "Hybrid (direction-optimizing) vs layered BFS on RMAT",
        grid.clone(),
    );
    let runs: Vec<(Vec<f64>, Vec<f64>)> = crate::sweep::map(&graphs, |_, &pg| {
        let layered = workload_cache::bfs(
            pg,
            scale,
            OrderTag::Natural,
            windows,
            mic_bfs::instrument::SimVariant::Block {
                block: 32,
                relaxed: true,
            },
        )
        .regions(policy);
        let hybrid =
            workload_cache::hybrid_bfs(pg, scale, OrderTag::Natural, windows).regions(policy);
        let mut scratch = SimScratch::new();
        let layered = grid_cycles(&machine, &grid, &layered, &mut scratch);
        let hybrid = grid_cycles(&machine, &grid, &hybrid, &mut scratch);
        (
            speedups(layered[0], &layered),
            speedups(layered[0], &hybrid),
        )
    });
    for (pg, (layered, hybrid)) in graphs.iter().zip(runs) {
        fig.push(Series::new(format!("{} layered", pg.name()), layered));
        fig.push(Series::new(format!("{} hybrid", pg.name()), hybrid));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_fig_scales_on_every_graph() {
        let fig = pagerank_fig(Scale::Fraction(64));
        assert_eq!(fig.series.len(), 3);
        let last = fig.x.len() - 1;
        for s in &fig.series {
            assert!(
                s.y[last] > 2.0 && s.y[last] < 121.0,
                "{}: speedup {}",
                s.label,
                s.y[last]
            );
        }
    }

    #[test]
    fn components_fig_scales_on_rmat() {
        let fig = components_fig(Scale::Fraction(64));
        let last = fig.x.len() - 1;
        let s = fig.get("rmat-ef16").unwrap();
        assert!(s.y[last] > 2.0, "rmat-ef16 speedup {}", s.y[last]);
    }

    #[test]
    fn hybrid_beats_layered_on_rmat() {
        let fig = hybrid_bfs_fig(Scale::Fraction(64));
        let last = fig.x.len() - 1;
        for g in ["rmat-ef8", "rmat-ef16"] {
            let layered = fig.get(&format!("{g} layered")).unwrap().y[last];
            let hybrid = fig.get(&format!("{g} hybrid")).unwrap().y[last];
            assert!(
                hybrid > layered,
                "{g}: hybrid {hybrid} should beat layered {layered}"
            );
        }
    }
}
