//! Run the full kernel battery on a user-provided Matrix Market file —
//! e.g. the *real* UF Sparse Matrix Collection graphs the paper used.
//!
//! Usage: `custom <path.mtx> [--threads N]`.

use mic_bench::cli::Cli;
use mic_eval::bfs::instrument::SimVariant;
use mic_eval::bfs::{bfs, parallel_bfs, seq::table1_source, BfsVariant};
use mic_eval::coloring::{check_proper, iterative_coloring, seq::greedy_color};
use mic_eval::graph::io::read_matrix_market_path;
use mic_eval::graph::stats::{stats, LocalityWindows};
use mic_eval::runtime::{RuntimeModel, Schedule, ThreadPool};
use mic_eval::sim::{bfs_model_speedup, simulate, Machine, Policy};

fn main() {
    let mut cli = Cli::parse("custom", "custom <path.mtx> [--threads N]");
    let threads = cli.threads(4);
    let pos = cli.positionals(1);
    let Some(path) = pos.first() else {
        cli.die("missing <path.mtx>");
    };

    eprintln!("reading {path}...");
    let g = read_matrix_market_path(path).unwrap_or_else(|e| {
        eprintln!("failed to read {path}: {e}");
        std::process::exit(1);
    });
    let st = stats(&g);
    println!(
        "graph: |V| = {}, |E| = {}, Δ = {}, components = {}, locality = {:?}",
        st.num_vertices, st.num_edges, st.max_degree, st.components, st.locality
    );

    let pool = ThreadPool::new(threads);

    // Table-I style properties.
    let colors = greedy_color(&g);
    let src = table1_source(&g);
    let levels = bfs(&g, src);
    println!(
        "#Color (seq greedy) = {}, #Level (BFS from |V|/2) = {}",
        colors.num_colors, levels.num_levels
    );

    // Parallel coloring.
    let r = iterative_coloring(&pool, &g, RuntimeModel::OpenMp(Schedule::dynamic100()));
    check_proper(&g, &r.colors).expect("parallel coloring invalid");
    println!(
        "parallel coloring: {} colors in {} rounds",
        r.num_colors, r.rounds
    );

    // Parallel BFS (block-relaxed), validated.
    let pr = parallel_bfs(
        &pool,
        &g,
        src,
        BfsVariant::OmpBlock {
            sched: Schedule::Dynamic { chunk: 32 },
            block: 32,
            relaxed: true,
        },
    );
    assert_eq!(
        pr.levels, levels.levels,
        "parallel BFS must match sequential"
    );
    println!("parallel BFS matches sequential ({} levels)", pr.num_levels);

    // Simulated KNF scalability.
    let w = mic_eval::bfs::instrument::instrument(
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
    println!("\nsimulated KNF BFS speedups:");
    println!("{:>8} {:>10} {:>10}", "threads", "simulated", "model");
    for t in [31usize, 61, 121] {
        println!(
            "{t:>8} {:>10.1} {:>10.1}",
            base / simulate(&m, t, &regions).cycles,
            bfs_model_speedup(&w.widths, t)
        );
    }
}
