//! Ablations of the design choices the paper calls out: the block size of
//! the block-accessed queue, the scheduler chunk size, locked vs relaxed
//! queues, and vertex ordering.

use crate::series::{Figure, Series};
use crate::sweep;
use crate::workload_cache::{self, OrderTag};
use mic_bfs::instrument::SimVariant;
use mic_graph::stats::LocalityWindows;
use mic_graph::suite::{PaperGraph, Scale};
use mic_sim::{
    simulate_region_with_scratch, simulate_with_scratch, Machine, Placement, Policy, SimScratch,
};

/// Sweep the block-accessed queue's block size (the paper: "by keeping the
/// block size small (but not so small so that we do not use atomics too
/// often), the overhead is minimized" — 32 was its best).
pub fn block_size_sweep(scale: Scale) -> Figure {
    let machine = Machine::knf();
    let windows = LocalityWindows::default();
    let blocks = [1usize, 4, 8, 16, 32, 64, 128, 512];
    let threads = [31usize, 61, 121];
    let mut fig = Figure::new(
        "Ablation: BFS block size (hood, OpenMP-Block-relaxed)",
        blocks.to_vec(),
    );
    fig.xlabel = "block size".into();
    // One job per block size; each instruments once (via the cache) and
    // yields the speedup at every thread count.
    let per_block: Vec<Vec<f64>> = sweep::map(&blocks, |_, &b| {
        let w = workload_cache::bfs(
            PaperGraph::Hood,
            scale,
            OrderTag::Natural,
            windows,
            SimVariant::Block {
                block: b,
                relaxed: true,
            },
        );
        let regions = w.regions(Policy::OmpDynamic { chunk: b });
        let mut scratch = SimScratch::default();
        let base = simulate_with_scratch(&machine, 1, &regions, &mut scratch).cycles;
        threads
            .iter()
            .map(|&t| base / simulate_with_scratch(&machine, t, &regions, &mut scratch).cycles)
            .collect()
    });
    for (ti, &t) in threads.iter().enumerate() {
        let y: Vec<f64> = per_block.iter().map(|s| s[ti]).collect();
        fig.push(Series::new(format!("{t} threads"), y));
    }
    fig
}

/// Sweep the OpenMP dynamic chunk size for coloring (the paper tried 40 to
/// 150 and settled on 100).
pub fn chunk_size_sweep(scale: Scale) -> Figure {
    let machine = Machine::knf();
    let w = workload_cache::coloring(
        PaperGraph::Hood,
        scale,
        OrderTag::Natural,
        LocalityWindows::default(),
    );
    let chunks = [10usize, 40, 100, 400, 1000, 4000];
    let threads = [31usize, 121];
    let mut fig = Figure::new(
        "Ablation: coloring dynamic chunk size (hood)",
        chunks.to_vec(),
    );
    fig.xlabel = "chunk size".into();
    let per_chunk: Vec<Vec<f64>> = sweep::map(&chunks, |_, &c| {
        let regions = w.regions(Policy::OmpDynamic { chunk: c });
        let mut scratch = SimScratch::default();
        let base = simulate_with_scratch(&machine, 1, &regions, &mut scratch).cycles;
        threads
            .iter()
            .map(|&t| base / simulate_with_scratch(&machine, t, &regions, &mut scratch).cycles)
            .collect()
    });
    for (ti, &t) in threads.iter().enumerate() {
        let y: Vec<f64> = per_chunk.iter().map(|s| s[ti]).collect();
        fig.push(Series::new(format!("{t} threads"), y));
    }
    fig
}

/// Locked vs relaxed block queues across the thread grid (Figure 4a/b's
/// sub-comparison, isolated).
pub fn locked_vs_relaxed(scale: Scale) -> Figure {
    let machine = Machine::knf();
    let windows = LocalityWindows::default();
    let grid = machine.thread_grid();
    let mut fig = Figure::new(
        "Ablation: locked vs relaxed block queue (hood)",
        grid.clone(),
    );
    // Common baseline (the fastest 1-thread variant), the paper's rule.
    let arms = [("relaxed", true), ("locked", false)];
    let runs: Vec<(&str, Vec<f64>)> = sweep::map(&arms, |_, &(label, relaxed)| {
        let w = workload_cache::bfs(
            PaperGraph::Hood,
            scale,
            OrderTag::Natural,
            windows,
            SimVariant::Block { block: 32, relaxed },
        );
        let regions = w.regions(Policy::OmpDynamic { chunk: 32 });
        let mut scratch = SimScratch::default();
        let cycles = grid
            .iter()
            .map(|&t| simulate_with_scratch(&machine, t, &regions, &mut scratch).cycles)
            .collect();
        (label, cycles)
    });
    let base = runs.iter().map(|(_, c)| c[0]).fold(f64::INFINITY, f64::min);
    for (label, cycles) in runs {
        fig.push(Series::new(
            label,
            cycles.iter().map(|c| base / c).collect(),
        ));
    }
    fig
}

/// Vertex-ordering ablation for coloring: natural vs Cuthill–McKee vs
/// random shuffle (extends Figure 2 with the bandwidth-reducing order).
pub fn ordering_ablation(scale: Scale) -> Figure {
    let machine = Machine::knf();
    let grid = machine.thread_grid();
    assert_eq!(grid[0], 1, "the baseline is the grid's first point");
    let mut fig = Figure::new(
        "Ablation: coloring vertex ordering (hood, OpenMP-dynamic)",
        grid.clone(),
    );
    let orders: [(&str, OrderTag); 3] = [
        ("natural", OrderTag::Natural),
        ("cuthill-mckee", OrderTag::CuthillMcKee { source: 0 }),
        ("shuffled", OrderTag::Random { seed: 77 }),
    ];
    let runs: Vec<Vec<f64>> = sweep::map(&orders, |_, &(_, order)| {
        let w =
            workload_cache::coloring(PaperGraph::Hood, scale, order, LocalityWindows::default());
        let regions = w.regions(Policy::OmpDynamic { chunk: 100 });
        let mut scratch = SimScratch::default();
        let cycles: Vec<f64> = grid
            .iter()
            .map(|&t| simulate_with_scratch(&machine, t, &regions, &mut scratch).cycles)
            .collect();
        cycles.iter().map(|c| cycles[0] / c).collect()
    });
    for ((label, _), y) in orders.into_iter().zip(runs) {
        fig.push(Series::new(label, y));
    }
    fig
}

/// Thread-placement ablation (scatter vs compact) on the irregular kernel:
/// scatter uses one thread per core as long as possible; compact saturates
/// SMT slots first, paying issue/FPU sharing from the start. The paper ran
/// scatter; this shows why that was the right call below ~62 threads.
pub fn placement_ablation(scale: Scale) -> Figure {
    let w = workload_cache::irregular(
        PaperGraph::Hood,
        scale,
        OrderTag::Natural,
        LocalityWindows::default(),
        1,
    );
    let r = w.region(Policy::OmpDynamic { chunk: 100 });
    let scatter = Machine::knf();
    let mut compact = Machine::knf();
    compact.placement = Placement::Compact;
    let grid = scatter.thread_grid();
    assert_eq!(grid[0], 1, "the baseline is the grid's first point");
    let mut fig = Figure::new(
        "Ablation: thread placement (hood, irregular iter=1)",
        grid.clone(),
    );
    let arms = [("scatter", &scatter), ("compact", &compact)];
    let runs: Vec<Vec<f64>> = sweep::map(&arms, |_, &(_, m)| {
        let mut scratch = SimScratch::default();
        let cycles: Vec<f64> = grid
            .iter()
            .map(|&t| simulate_region_with_scratch(m, t, &r, &mut scratch))
            .collect();
        cycles.iter().map(|c| cycles[0] / c).collect()
    });
    for ((label, _), y) in arms.into_iter().zip(runs) {
        fig.push(Series::new(label, y));
    }
    fig
}

/// Fork/join-per-level vs persistent-team BFS: the paper's codes fork a
/// parallel region per level; a persistent team pays only a barrier. The
/// gap grows with depth — `pwtk`'s 267 levels are the showcase.
pub(crate) fn fork_vs_persistent(scale: Scale) -> Figure {
    let machine = Machine::knf();
    let w = workload_cache::bfs(
        PaperGraph::Pwtk,
        scale,
        OrderTag::Natural,
        LocalityWindows::default(),
        SimVariant::Block {
            block: 32,
            relaxed: true,
        },
    );
    let grid = machine.thread_grid();
    assert_eq!(grid[0], 1, "the baseline is the grid's first point");
    let forked = w.regions(Policy::OmpDynamic { chunk: 32 });
    let persistent = w.regions_persistent(Policy::OmpDynamic { chunk: 32 });
    let arms = [("fork-join", &forked), ("persistent-team", &persistent)];
    let runs: Vec<Vec<f64>> = sweep::map(&arms, |_, &(_, regions)| {
        let mut scratch = SimScratch::default();
        grid.iter()
            .map(|&t| simulate_with_scratch(&machine, t, regions, &mut scratch).cycles)
            .collect()
    });
    let base = runs.iter().map(|c| c[0]).fold(f64::INFINITY, f64::min);
    let mut fig = Figure::new(
        "Ablation: fork/join per level vs persistent team (pwtk)",
        grid.clone(),
    );
    for ((label, _), cycles) in arms.into_iter().zip(runs) {
        fig.push(Series::new(
            label,
            cycles.iter().map(|c| base / c).collect::<Vec<f64>>(),
        ));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_scatter_wins_below_full_occupancy() {
        let fig = placement_ablation(Scale::Fraction(16));
        let s = fig.get("scatter").unwrap();
        let c = fig.get("compact").unwrap();
        let mid = fig.x.iter().position(|&t| t == 31).unwrap();
        assert!(
            s.y[mid] > 1.5 * c.y[mid],
            "scatter {} vs compact {} at 31 threads",
            s.y[mid],
            c.y[mid]
        );
        // At full occupancy they converge.
        let last = fig.x.len() - 1;
        assert!((s.y[last] - c.y[last]).abs() / s.y[last] < 0.25);
    }

    #[test]
    fn persistent_team_beats_fork_join_on_deep_graphs() {
        let fig = fork_vs_persistent(Scale::Fraction(16));
        let f = fig.get("fork-join").unwrap();
        let p = fig.get("persistent-team").unwrap();
        // The advantage is clearest before the (linear-in-threads) barrier
        // term dwarfs the fork cost; it must never hurt.
        let mid = fig.x.iter().position(|&t| t == 31).unwrap();
        assert!(
            p.y[mid] > f.y[mid] * 1.01,
            "persistent {} should beat fork-join {} at 31 threads",
            p.y[mid],
            f.y[mid]
        );
        for (pp, ff) in p.y.iter().zip(&f.y) {
            assert!(
                pp * 1.001 >= *ff,
                "persistent must never lose: {pp} vs {ff}"
            );
        }
    }

    #[test]
    fn block_sweep_penalizes_extremes() {
        // Needs a graph whose levels hold many blocks; 1/8 scale keeps
        // hood's level widths in the hundreds.
        let fig = block_size_sweep(Scale::Fraction(8));
        let s = fig.get("121 threads").unwrap();
        // Block 1 pays an atomic per push; block 512 starves/wastes.
        let b1 = s.y[0];
        let b32 = s.y[fig.x.iter().position(|&b| b == 32).unwrap()];
        let b512 = s.y[fig.x.len() - 1];
        assert!(b32 > b1, "block 32 ({b32}) should beat block 1 ({b1})");
        assert!(
            b32 > b512,
            "block 32 ({b32}) should beat block 512 ({b512})"
        );
    }

    #[test]
    fn relaxed_at_least_matches_locked() {
        let fig = locked_vs_relaxed(Scale::Fraction(16));
        let r = fig.get("relaxed").unwrap();
        let l = fig.get("locked").unwrap();
        let last = fig.x.len() - 1;
        assert!(
            r.y[last] > l.y[last],
            "relaxed {} should beat locked {} against the common baseline",
            r.y[last],
            l.y[last]
        );
    }

    #[test]
    fn shuffled_ordering_scales_best_cm_and_natural_similar() {
        let fig = ordering_ablation(Scale::Fraction(64));
        let last = fig.x.len() - 1;
        let nat = fig.get("natural").unwrap().y[last];
        let shf = fig.get("shuffled").unwrap().y[last];
        assert!(
            shf > nat,
            "shuffled speedup {shf} should exceed natural {nat}"
        );
    }

    #[test]
    fn chunk_sweep_has_an_interior_optimum_or_plateau() {
        let fig = chunk_size_sweep(Scale::Fraction(64));
        let s = fig.get("121 threads").unwrap();
        let max = s.y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Tiny chunks pay dispatch; the best chunk is none of the extremes
        // or at least not the smallest.
        assert!(max > s.y[0], "chunk 10 should not be optimal: {:?}", s.y);
    }
}
