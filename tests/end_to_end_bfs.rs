//! Cross-crate integration: every BFS variant against the sequential
//! reference on the calibrated suite, plus Table I's level counts.

use mic_eval::bfs::{
    bfs, check_levels, direction::hybrid_bfs, direction::Hybrid, parallel_bfs, seq::table1_source,
    BfsVariant,
};
use mic_eval::graph::suite::{build, PaperGraph, Scale};
use mic_eval::runtime::{Partitioner, Schedule, ThreadPool};

const SCALE: Scale = Scale::Fraction(64);

fn all_variants() -> Vec<BfsVariant> {
    let mut v = BfsVariant::paper_set().to_vec();
    v.push(BfsVariant::OmpBlock {
        sched: Schedule::Dynamic { chunk: 32 },
        block: 32,
        relaxed: false,
    });
    v.push(BfsVariant::TbbBlock {
        part: Partitioner::Auto,
        block: 8,
        relaxed: false,
    });
    v
}

#[test]
fn whole_suite_levels_match_sequential() {
    let pool = ThreadPool::new(8);
    for pg in PaperGraph::all() {
        let g = build(pg, SCALE);
        let src = table1_source(&g);
        let want = bfs(&g, src);
        for variant in all_variants() {
            let got = parallel_bfs(&pool, &g, src, variant);
            assert_eq!(
                got.levels,
                want.levels,
                "{} under {}",
                pg.name(),
                variant.name()
            );
            check_levels(&g, src, &got.levels).unwrap();
        }
    }
}

#[test]
fn direction_optimizing_matches_on_suite() {
    for pg in [PaperGraph::Auto, PaperGraph::Inline1] {
        let g = build(pg, SCALE);
        let src = table1_source(&g);
        let want = bfs(&g, src);
        let got = hybrid_bfs(&g, src, Hybrid::default());
        assert_eq!(got.levels, want.levels, "{}", pg.name());
    }
}

#[test]
fn level_counts_scale_with_cube_root() {
    // The suite preserves geometry across scales: a 1/64-scale instance
    // should have about 1/4 of the full-scale level target.
    let g = build(PaperGraph::Pwtk, SCALE);
    let levels = bfs(&g, table1_source(&g)).num_levels;
    let expected = 267.0 / 4.0; // 267 * (1/64)^(1/3)
    assert!(
        (levels as f64) > expected * 0.6 && (levels as f64) < expected * 1.6,
        "pwtk/64 level count {levels} vs geometric expectation {expected:.0}"
    );
}

#[test]
fn many_threads_on_tiny_graph() {
    // More threads than frontier vertices: variants must still agree.
    let pool = ThreadPool::new(16);
    let g = build(PaperGraph::Auto, Scale::Vertices(300));
    let want = bfs(&g, 0);
    for variant in all_variants() {
        let got = parallel_bfs(&pool, &g, 0, variant);
        assert_eq!(got.levels, want.levels, "{}", variant.name());
    }
}
