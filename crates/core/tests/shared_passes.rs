//! Natural-order workloads are priced from two passes cached with each
//! suite graph: the Table-1 BFS levels and every vertex's gap counts (Table
//! I's greedy color count is cached beside them). These
//! tests pin every such workload an exhibit reads, bit for bit, against the
//! reference: instrumenting the cached graph directly, which runs its own
//! BFS and its own count loop.

use mic_eval::bfs::components::instrument_components;
use mic_eval::bfs::instrument::{instrument as bfs_instrument, SimVariant};
use mic_eval::bfs::seq::{bfs, table1_source};
use mic_eval::coloring::instrument::instrument as coloring_instrument;
use mic_eval::coloring::seq::greedy_color;
use mic_eval::experiments::table1::table1;
use mic_eval::graph::stats::LocalityWindows;
use mic_eval::graph::suite::{PaperGraph, Scale};
use mic_eval::irregular::instrument::{instrument as irregular_instrument, instrument_pagerank};
use mic_eval::sim::{Costs, Work};
use mic_eval::workload_cache::{
    self, OrderTag, PAGERANK_DAMPING, PAGERANK_MAX_ITERS, PAGERANK_TOL,
};

const NATURAL: OrderTag = OrderTag::Natural;

fn bits(w: &Work) -> [u64; 6] {
    [w.issue, w.l1, w.l2, w.dram, w.flops, w.atomics].map(f64::to_bits)
}

/// Both handles' materialised costs are equal, bit for bit.
fn assert_bit_equal(got: &Costs, want: &Costs, what: &str) {
    let (got, want) = (got.to_vec(), want.to_vec());
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| bits(&got[i]) != bits(&want[i])) {
        panic!("{what}: item {i} is {:?}, want {:?}", got[i], want[i]);
    }
}

/// Every BFS variant an exhibit prices: the block-size ablation's relaxed
/// blocks, Figure 4's locked block, bag and TLS queues.
fn exhibit_variants() -> Vec<SimVariant> {
    let relaxed = [1, 4, 8, 16, 32, 64, 128, 512].map(|block| SimVariant::Block {
        block,
        relaxed: true,
    });
    let others = [
        SimVariant::Block {
            block: 32,
            relaxed: false,
        },
        SimVariant::Bag { grain: 64 },
        SimVariant::Tls,
    ];
    relaxed.into_iter().chain(others).collect()
}

/// The cached BFS workloads of `pg` under `variants` and its irregular
/// workloads at Figure 3's `iter` values equal the direct instrumentation.
fn assert_bfs_and_irregular_match(pg: PaperGraph, scale: Scale, variants: &[SimVariant]) {
    let windows = LocalityWindows::default();
    let g = workload_cache::graph(pg, scale);
    let what = |w: String| format!("{w} of {} at {scale:?}", pg.name());
    for &variant in variants {
        let got = workload_cache::bfs(pg, scale, NATURAL, windows, variant);
        let want = bfs_instrument(&g, table1_source(&g), windows, variant);
        assert_eq!(got.widths, want.widths, "{}", what(format!("{variant:?}")));
        assert_eq!(got.level_work.len(), want.level_work.len());
        for (l, (got, want)) in got.level_work.iter().zip(&want.level_work).enumerate() {
            assert_bit_equal(got, want, &what(format!("{variant:?} level {l}")));
        }
    }
    for iter in [1, 3, 5, 10] {
        let got = workload_cache::irregular(pg, scale, NATURAL, windows, iter);
        let want = irregular_instrument(&g, windows, iter);
        assert_eq!(got.iter, want.iter);
        assert_bit_equal(
            &got.iter_work,
            &want.iter_work,
            &what(format!("irregular {iter}")),
        );
    }
}

#[test]
fn cached_passes_price_every_natural_workload_at_1_64() {
    let scale = Scale::Fraction(64);
    let windows = LocalityWindows::default();
    for pg in PaperGraph::every() {
        assert_bfs_and_irregular_match(pg, scale, &exhibit_variants());
        let g = workload_cache::graph(pg, scale);
        let what = |w: &str| format!("{w} of {} at {scale:?}", pg.name());

        let got = workload_cache::coloring(pg, scale, NATURAL, windows);
        let want = coloring_instrument(&g, windows);
        for (array, got, want) in [
            ("tentative", &got.tentative, &want.tentative),
            ("detect", &got.detect, &want.detect),
            (
                "conflict_tentative",
                &got.conflict_tentative,
                &want.conflict_tentative,
            ),
            (
                "conflict_detect",
                &got.conflict_detect,
                &want.conflict_detect,
            ),
        ] {
            assert_bit_equal(got, want, &what(array));
        }

        let got = workload_cache::pagerank(pg, scale, NATURAL, windows);
        let (damping, tol, cap) = (PAGERANK_DAMPING, PAGERANK_TOL, PAGERANK_MAX_ITERS);
        let want = instrument_pagerank(&g, windows, damping, tol, cap);
        assert_eq!(got.iters, want.iters, "{}", what("pagerank iterations"));
        assert_bit_equal(&got.vertex_work, &want.vertex_work, &what("pagerank"));

        let got = workload_cache::components(pg, scale, NATURAL, windows);
        let want = instrument_components(&g, windows);
        assert_eq!(got.rounds, want.rounds, "{}", what("components rounds"));
        assert_bit_equal(&got.round_work, &want.round_work, &what("components"));
    }
}

#[test]
fn table1_levels_come_from_a_fresh_bfs() {
    let scale = Scale::Fraction(64);
    for (row, pg) in table1(scale).iter().zip(PaperGraph::all()) {
        let g = workload_cache::graph(pg, scale);
        assert_eq!(
            row.levels,
            bfs(&g, table1_source(&g)).num_levels,
            "{}",
            row.name
        );
    }
}

#[test]
fn table1_colors_come_from_a_fresh_greedy_coloring() {
    let scale = Scale::Fraction(64);
    for (row, pg) in table1(scale).iter().zip(PaperGraph::all()) {
        let g = workload_cache::graph(pg, scale);
        assert_eq!(row.colors, greedy_color(&g).num_colors, "{}", row.name);
    }
}

#[test]
#[ignore = "paper scale: about 10 s in release"]
fn mesh_bfs_and_irregular_workloads_match_at_paper_scale() {
    let fig4 = [
        SimVariant::Block {
            block: 32,
            relaxed: true,
        },
        SimVariant::Block {
            block: 32,
            relaxed: false,
        },
        SimVariant::Bag { grain: 64 },
        SimVariant::Tls,
    ];
    for pg in PaperGraph::all() {
        assert_bfs_and_irregular_match(pg, Scale::Full, &fig4);
        // One graph's workloads at a time, not the whole suite's.
        workload_cache::clear_memory();
    }
}
