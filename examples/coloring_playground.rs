//! Coloring playground: sequential vs parallel speculative coloring and
//! the effect of visit order on quality.
//!
//! Run with: `cargo run --release --example coloring_playground`

use mic_eval::coloring::seq::{greedy_color, greedy_color_in_order};
use mic_eval::coloring::{check_proper, iterative_coloring};
use mic_eval::graph::ordering::{permutation, Ordering};
use mic_eval::graph::suite::{build, PaperGraph, Scale};
use mic_eval::runtime::{RuntimeModel, Schedule, ThreadPool};

fn main() {
    let g = build(PaperGraph::Bmw32, Scale::Fraction(16));
    println!(
        "bmw3_2 stand-in at 1/16 scale: {} vertices, {} edges, max degree {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );

    // Visit order matters for greedy quality (First Fit is optimal for
    // *some* order; largest-first often helps on skewed graphs).
    println!("\nsequential greedy color counts by visit order:");
    for (name, ord) in [
        ("natural", Ordering::Natural),
        ("largest-first", Ordering::DegreeDescending),
        ("smallest-first", Ordering::DegreeAscending),
        ("random", Ordering::Random { seed: 1 }),
    ] {
        let perm = permutation(&g, ord);
        // `perm` maps old -> new id; visiting in new-id order means sorting
        // vertices by their perm value.
        let mut order: Vec<u32> = (0..g.num_vertices() as u32).collect();
        order.sort_by_key(|&v| perm[v as usize]);
        let c = greedy_color_in_order(&g, &order);
        check_proper(&g, &c.colors).unwrap();
        println!("  {name:<15} {:>3} colors", c.num_colors);
    }

    // Parallel speculation barely changes quality (the paper verified the
    // difference never exceeded 5%).
    let seq_colors = greedy_color(&g).num_colors;
    let pool = ThreadPool::new(8);
    let par = iterative_coloring(&pool, &g, RuntimeModel::OpenMp(Schedule::dynamic100()));
    check_proper(&g, &par.colors).unwrap();
    println!(
        "\nparallel speculative: {} colors vs {} sequential ({} rounds, conflicts {:?})",
        par.num_colors, seq_colors, par.rounds, par.conflicts_per_round
    );
}
