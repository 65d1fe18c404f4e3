//! Graph 500-flavored BFS run: RMAT graphs (the benchmark the paper cites
//! as *the* reference for parallel BFS), traversed natively by every
//! frontier variant with validation, plus projected KNF scalability.
//!
//! Usage: `graph500 [scale] [edge_factor]` (defaults 16, 16).

use mic_bench::cli::Cli;
use mic_eval::bfs::instrument::{instrument, SimVariant};
use mic_eval::bfs::{check_levels, parallel_bfs, BfsVariant};
use mic_eval::graph::generators::{rmat, RmatProbs};
use mic_eval::graph::stats::LocalityWindows;
use mic_eval::runtime::ThreadPool;
use mic_eval::sim::{bfs_model_speedup, simulate, Machine, Policy};
use std::time::Instant;

fn main() {
    let mut cli = Cli::parse("graph500", "graph500 [scale] [edge_factor]");
    let pos = cli.positionals(2);
    let arg = |i: usize, name: &str| -> u32 {
        pos.get(i).map_or(16, |s| {
            s.parse()
                .unwrap_or_else(|_| cli.die(&format!("{name} needs an integer, got {s:?}")))
        })
    };
    let scale = arg(0, "scale");
    let edge_factor = arg(1, "edge_factor") as usize;

    eprintln!("generating RMAT scale {scale}, edge factor {edge_factor}...");
    let t0 = Instant::now();
    let g = rmat(scale, edge_factor, RmatProbs::graph500(), 42);
    eprintln!(
        "  {} vertices, {} edges in {:.2?}",
        g.num_vertices(),
        g.num_edges(),
        t0.elapsed()
    );

    // Native traversals with Graph500-style validation, 4 sources.
    let pool = ThreadPool::new(4);
    let sources = [0u32, 1, 2, 3].map(|k| (g.num_vertices() as u32 / 4) * k + 5);
    println!(
        "{:<24} {:>12} {:>14}",
        "variant", "median ms", "MTEPS (native)"
    );
    for variant in BfsVariant::paper_set() {
        let mut times = Vec::new();
        let mut edges_touched = 0usize;
        for &s in &sources {
            let s = s.min(g.num_vertices() as u32 - 1);
            let t = Instant::now();
            let r = parallel_bfs(&pool, &g, s, variant);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            check_levels(&g, s, &r.levels).expect("validation failed");
            edges_touched = r
                .levels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l != mic_eval::bfs::UNREACHED)
                .map(|(v, _)| g.degree(v as u32))
                .sum();
        }
        times.sort_by(f64::total_cmp);
        let med = times[times.len() / 2];
        println!(
            "{:<24} {:>12.2} {:>14.1}",
            variant.name(),
            med,
            edges_touched as f64 / med / 1e3
        );
    }

    // Simulated KNF scalability of the block-relaxed variant on this RMAT
    // graph (scale-free level structure: short and very wide).
    let src = 5u32.min(g.num_vertices() as u32 - 1);
    let w = instrument(
        &g,
        src,
        LocalityWindows::default(),
        SimVariant::Block {
            block: 32,
            relaxed: true,
        },
    );
    let regions = w.regions(Policy::OmpDynamic { chunk: 32 });
    let m = Machine::knf();
    let base = simulate(&m, 1, &regions).cycles;
    println!(
        "\nsimulated KNF speedups (levels: {:?}...):",
        &w.widths[..w.widths.len().min(8)]
    );
    println!("{:>8} {:>10} {:>10}", "threads", "simulated", "model");
    for t in [31usize, 61, 121] {
        println!(
            "{t:>8} {:>10.1} {:>10.1}",
            base / simulate(&m, t, &regions).cycles,
            bfs_model_speedup(&w.widths, t)
        );
    }
}
