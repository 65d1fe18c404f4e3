//! Workloads under a vertex ordering are built from the natural CSR and the
//! ordering's permutation; the relabelled graph is never cached. These
//! tests pin them bit for bit against the reference: instrumenting the
//! relabelled CSR that `ordering::apply` builds.

use mic_eval::bfs::components::instrument_components;
use mic_eval::bfs::direction::{instrument_hybrid, Hybrid};
use mic_eval::bfs::instrument::{instrument as bfs_instrument, SimVariant};
use mic_eval::bfs::seq::table1_source;
use mic_eval::coloring::instrument::instrument as coloring_instrument;
use mic_eval::exhibit::{kernel_regions, KernelId};
use mic_eval::graph::ordering::{apply, Ordering};
use mic_eval::graph::stats::LocalityWindows;
use mic_eval::graph::suite::{PaperGraph, Scale};
use mic_eval::graph::Csr;
use mic_eval::irregular::instrument::{instrument as irregular_instrument, instrument_pagerank};
use mic_eval::sim::{Costs, Policy, Region, Work};
use mic_eval::workload_cache::{
    self, OrderTag, PAGERANK_DAMPING, PAGERANK_MAX_ITERS, PAGERANK_TOL,
};

fn ordering(order: OrderTag) -> Ordering {
    match order {
        OrderTag::Natural => Ordering::Natural,
        OrderTag::Random { seed } => Ordering::Random { seed },
        OrderTag::CuthillMcKee { source } => Ordering::CuthillMcKee { source },
    }
}

/// Figure 2's seven shuffles (its seed rule).
fn fig2_pairs() -> Vec<(PaperGraph, OrderTag)> {
    let seed = |pg: PaperGraph| 0xF16 ^ pg.name().len() as u64;
    PaperGraph::all()
        .map(|pg| (pg, OrderTag::Random { seed: seed(pg) }))
        .to_vec()
}

/// Every (graph, ordering) an exhibit or a `why` hook reads: Figure 2's
/// seven, `ablation-ordering`'s two, and hood under `Random { seed: 5 }`
/// (Figure 2's `why` hook).
fn exhibit_pairs() -> Vec<(PaperGraph, OrderTag)> {
    let mut pairs = fig2_pairs();
    pairs.extend([
        (PaperGraph::Hood, OrderTag::CuthillMcKee { source: 0 }),
        (PaperGraph::Hood, OrderTag::Random { seed: 77 }),
        (PaperGraph::Hood, OrderTag::Random { seed: 5 }),
    ]);
    pairs
}

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

/// The cached coloring workload (all four arrays) and the irregular one
/// at `iter` 1 and 10 equal the relabelled graph's, bit for bit.
fn assert_counts_workloads_match(pg: PaperGraph, scale: Scale, order: OrderTag) {
    let windows = LocalityWindows::default();
    let (relabelled, _) = apply(&workload_cache::graph(pg, scale), ordering(order));
    let what = |array: &str| format!("{array} of {} at {scale:?} under {order:?}", pg.name());
    let got = workload_cache::coloring(pg, scale, order, windows);
    let want = coloring_instrument(&relabelled, windows);
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
    for iter in [1, 10] {
        let got = workload_cache::irregular(pg, scale, order, windows, iter);
        let want = irregular_instrument(&relabelled, windows, iter);
        assert_eq!(got.iter, want.iter);
        assert_bit_equal(
            &got.iter_work,
            &want.iter_work,
            &what(&format!("irregular {iter}")),
        );
    }
}

#[test]
fn ordered_workloads_match_the_relabelled_graph_at_1_64() {
    for (pg, order) in exhibit_pairs() {
        assert_counts_workloads_match(pg, Scale::Fraction(64), order);
    }
}

#[test]
#[ignore = "paper scale: about 10 s in release"]
fn fig2_workloads_match_the_relabelled_graph_at_paper_scale() {
    for (pg, order) in fig2_pairs() {
        assert_counts_workloads_match(pg, Scale::Full, order);
        // One graph's workloads at a time, not the whole suite's.
        workload_cache::clear_memory();
    }
}

/// The regions of the relabelled graph `h`, built without the cache.
fn reference_regions(kernel: KernelId, h: &Csr, policy: Policy) -> Vec<Region> {
    let windows = LocalityWindows::default();
    match kernel {
        KernelId::Bfs => {
            let block = SimVariant::Block {
                block: 32,
                relaxed: true,
            };
            bfs_instrument(h, table1_source(h), windows, block).regions(policy)
        }
        KernelId::PageRank => {
            let (damping, tol, cap) = (PAGERANK_DAMPING, PAGERANK_TOL, PAGERANK_MAX_ITERS);
            instrument_pagerank(h, windows, damping, tol, cap).regions(policy)
        }
        KernelId::Components => instrument_components(h, windows).regions(policy),
        KernelId::HybridBfs => {
            instrument_hybrid(h, table1_source(h), windows, Hybrid::default()).regions(policy)
        }
        other => unreachable!("{other:?} is priced from gap counts"),
    }
}

/// Only serve asks for these kernels under an ordering. BFS moves the
/// natural graph's levels from the relabelled source to the new ids; hybrid
/// BFS, PageRank and components depend on the order inside an adjacency
/// list or on the ids, so their native runs use a relabelled CSR built for
/// the one workload.
#[test]
fn serve_only_ordered_kernels_match_the_relabelled_graph() {
    let (scale, order) = (Scale::Fraction(256), OrderTag::Random { seed: 5 });
    let windows = LocalityWindows::default();
    let policy = Policy::OmpDynamic { chunk: 64 };
    for pg in PaperGraph::every() {
        let (h, _) = apply(&workload_cache::graph(pg, scale), ordering(order));
        for kernel in [
            KernelId::Bfs,
            KernelId::PageRank,
            KernelId::Components,
            KernelId::HybridBfs,
        ] {
            let got = kernel_regions(kernel, pg, scale, order, windows, 1, policy);
            let want = reference_regions(kernel, &h, policy);
            let what = format!("{kernel:?} on {}", pg.name());
            assert_eq!(got.len(), want.len(), "{what}: region count");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let region = format!("{what}, region {i}");
                assert_bit_equal(&g.iter_work, &w.iter_work, &region);
                assert_eq!(bits(&g.serial_pre), bits(&w.serial_pre), "{region}");
                assert_eq!((g.policy, g.fork), (w.policy, w.fork), "{region}");
            }
        }
    }
}
