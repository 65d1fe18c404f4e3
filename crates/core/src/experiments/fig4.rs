//! Figure 4: layered parallel BFS — implementations against the paper's
//! analytic model, on single graphs (a, b), the whole suite on KNF (c) and
//! the whole suite on the Xeon host (d).

use crate::series::{Figure, Series};
use crate::stats::{geomean, paper_speedups};
use crate::workload_cache::{self, OrderTag};
use mic_bfs::instrument::{BfsWorkload, SimVariant};
use mic_graph::stats::LocalityWindows;
use mic_graph::suite::{PaperGraph, Scale};
use mic_sim::{bfs_model_speedup, simulate_with_scratch, Machine, Policy, SimScratch};
use std::sync::Arc;

/// Which panel of Figure 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Panel {
    /// (a) pwtk on KNF: model vs OpenMP-Block(-relaxed).
    Pwtk,
    /// (b) inline_1 on KNF: same series.
    Inline1,
    /// (c) all graphs on KNF: model, OpenMP/TBB block-relaxed, Cilk bag.
    AllKnf,
    /// (d) all graphs on the host CPU: + OpenMP-TLS.
    AllCpu,
}

/// The paper's block size.
const BLOCK: usize = 32;

/// (label, frontier variant, driving policy) — the implementation series
/// of each panel.
fn impl_variants(panel: Panel) -> Vec<(&'static str, SimVariant, Policy)> {
    let block_relaxed = SimVariant::Block {
        block: BLOCK,
        relaxed: true,
    };
    let block_locked = SimVariant::Block {
        block: BLOCK,
        relaxed: false,
    };
    let bag = SimVariant::Bag { grain: 64 };
    let omp = Policy::OmpDynamic { chunk: BLOCK };
    let tbb = Policy::TbbSimple { grain: BLOCK };
    let cilk = Policy::Cilk { grain: 64 };
    match panel {
        Panel::Pwtk | Panel::Inline1 => vec![
            ("OpenMP-Block-relaxed", block_relaxed, omp),
            ("OpenMP-Block", block_locked, omp),
        ],
        Panel::AllKnf => vec![
            ("OpenMP-Block-relaxed", block_relaxed, omp),
            ("TBB-Block-relaxed", block_relaxed, tbb),
            ("CilkPlus-Bag-relaxed", bag, cilk),
        ],
        Panel::AllCpu => vec![
            ("OpenMP-Block-relaxed", block_relaxed, omp),
            ("TBB-Block-relaxed", block_relaxed, tbb),
            ("OpenMP-TLS", SimVariant::Tls, omp),
            ("CilkPlus-Bag-relaxed", bag, cilk),
        ],
    }
}

fn graphs_for(panel: Panel) -> Vec<PaperGraph> {
    match panel {
        Panel::Pwtk => vec![PaperGraph::Pwtk],
        Panel::Inline1 => vec![PaperGraph::Inline1],
        Panel::AllKnf | Panel::AllCpu => PaperGraph::all().to_vec(),
    }
}

/// Figure 4, panel `panel`, at `scale`.
///
/// One sweep job per (variant, graph): each pulls its BFS workload from
/// the cache (instrumented once per variant — the underlying graph and
/// its BFS run once in total) and walks the grid with reused scratch.
pub fn fig4(panel: Panel, scale: Scale) -> Figure {
    let machine = match panel {
        Panel::AllCpu => Machine::xeon_host(),
        _ => Machine::knf(),
    };
    let grid = machine.thread_grid();
    let graphs = graphs_for(panel);
    let windows = LocalityWindows::default();
    let variants = impl_variants(panel);

    let jobs: Vec<(usize, PaperGraph)> = (0..variants.len())
        .flat_map(|v| graphs.iter().map(move |&pg| (v, pg)))
        .collect();
    let runs: Vec<(Arc<BfsWorkload>, Vec<f64>)> = crate::sweep::map(&jobs, |_, &(v, pg)| {
        let (_, sv, policy) = variants[v];
        let w = workload_cache::bfs(pg, scale, OrderTag::Natural, windows, sv);
        let regions = w.regions(policy);
        let mut scratch = SimScratch::default();
        let cycles = grid
            .iter()
            .map(|&t| simulate_with_scratch(&machine, t, &regions, &mut scratch).cycles)
            .collect();
        (w, cycles)
    });

    // The analytic model on the level profiles (variant-independent: take
    // the first variant's workloads).
    let model_y: Vec<f64> = grid
        .iter()
        .map(|&t| {
            let per_graph: Vec<f64> = runs[..graphs.len()]
                .iter()
                .map(|(w, _)| bfs_model_speedup(&w.widths, t))
                .collect();
            geomean(&per_graph)
        })
        .collect();

    // Simulated implementations with the paper's baseline rule.
    let cycles: Vec<Vec<Vec<f64>>> = runs
        .chunks(graphs.len())
        .map(|per_graph| per_graph.iter().map(|(_, c)| c.clone()).collect())
        .collect();
    let speedups = paper_speedups(&cycles);

    let mut fig = Figure::new(format!("Figure 4 ({panel:?}) on {}", machine.name), grid);
    fig.push(Series::new("Model", model_y));
    for ((label, _, _), y) in variants.iter().zip(speedups) {
        fig.push(Series::new(*label, y));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knf_panels_have_expected_series() {
        let fig = fig4(Panel::AllKnf, Scale::Fraction(64));
        assert_eq!(fig.series.len(), 4);
        assert!(fig.get("Model").is_some());
        assert!(fig.get("CilkPlus-Bag-relaxed").is_some());
    }

    #[test]
    fn bag_is_worst_and_block_tracks_model_early() {
        let fig = fig4(Panel::AllKnf, Scale::Fraction(16));
        let model = fig.get("Model").unwrap();
        let block = fig.get("OpenMP-Block-relaxed").unwrap();
        let bag = fig.get("CilkPlus-Bag-relaxed").unwrap();
        let last = fig.x.len() - 1;
        assert!(bag.y[last] < block.y[last], "bag must trail block");
        // Model is an upper bound at scale (it ignores all overheads).
        assert!(model.y[last] >= block.y[last] * 0.8);
        // Block speedup is sublinear but real.
        assert!(block.y[last] > 2.0 && block.y[last] < fig.x[last] as f64);
    }

    #[test]
    fn relaxed_beats_locked_on_single_graph_panels() {
        let fig = fig4(Panel::Pwtk, Scale::Fraction(16));
        let relaxed = fig.get("OpenMP-Block-relaxed").unwrap();
        let locked = fig.get("OpenMP-Block").unwrap();
        let last = fig.x.len() - 1;
        assert!(
            relaxed.y[last] >= locked.y[last],
            "relaxed {} vs locked {}",
            relaxed.y[last],
            locked.y[last]
        );
    }

    #[test]
    fn inline1_outscales_pwtk() {
        // The paper: "the peak speedup on the inline_1 graph is about
        // twice the speedup achieved on pwtk" (wider levels).
        let a = fig4(Panel::Pwtk, Scale::Fraction(16));
        let b = fig4(Panel::Inline1, Scale::Fraction(16));
        let peak = |f: &Figure| f.get("OpenMP-Block-relaxed").unwrap().peak().1;
        assert!(
            peak(&b) > 1.2 * peak(&a),
            "inline_1 {} vs pwtk {}",
            peak(&b),
            peak(&a)
        );
    }

    #[test]
    fn cpu_panel_uses_host_grid() {
        let fig = fig4(Panel::AllCpu, Scale::Fraction(64));
        assert_eq!(*fig.x.last().unwrap(), 24);
        assert!(fig.get("OpenMP-TLS").is_some());
    }
}
