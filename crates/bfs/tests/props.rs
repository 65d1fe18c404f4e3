//! Property-based tests: every BFS variant equals sequential BFS on
//! arbitrary graphs, any source, any thread count; the bag is a faithful
//! multiset; connected components agree with the sequential kernel and
//! with round-by-round label propagation.

mod support {
    pub mod jacobi;
}

use mic_bfs::components::{components_parallel, components_seq};
use mic_bfs::queue::Bag;
use mic_bfs::{bfs, check_levels, parallel_bfs, BfsVariant};
use mic_graph::{Csr, GraphBuilder, VertexId};
use mic_runtime::{Partitioner, RuntimeModel, Schedule, ThreadPool};
use proptest::prelude::*;

fn arb_graph_and_source() -> impl Strategy<Value = (Csr, VertexId)> {
    (2usize..80).prop_flat_map(|n| {
        let g = proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..250).prop_map(
            move |es| {
                let mut b = GraphBuilder::new(n);
                b.extend(es);
                b.build()
            },
        );
        (g, 0..n as VertexId)
    })
}

fn arb_variant() -> impl Strategy<Value = BfsVariant> {
    prop_oneof![
        ((1usize..64), (1usize..64), any::<bool>()).prop_map(|(c, b, relaxed)| {
            BfsVariant::OmpBlock {
                sched: Schedule::Dynamic { chunk: c },
                block: b,
                relaxed,
            }
        }),
        ((1usize..64), (1usize..64), any::<bool>()).prop_map(|(g, b, relaxed)| {
            BfsVariant::TbbBlock {
                part: Partitioner::Simple { grain: g },
                block: b,
                relaxed,
            }
        }),
        (1usize..64).prop_map(|g| BfsVariant::CilkBag { grain: g }),
        (1usize..64).prop_map(|c| BfsVariant::OmpTls {
            sched: Schedule::Dynamic { chunk: c }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_bfs_equals_sequential(
        (g, src) in arb_graph_and_source(),
        variant in arb_variant(),
        t in 1usize..8,
    ) {
        let pool = ThreadPool::new(t);
        let want = bfs(&g, src);
        let got = parallel_bfs(&pool, &g, src, variant);
        prop_assert_eq!(&got.levels, &want.levels);
        prop_assert_eq!(got.num_levels, want.num_levels);
        prop_assert!(check_levels(&g, src, &got.levels).is_ok());
    }

    #[test]
    fn bag_union_is_multiset_union(
        a in proptest::collection::vec(any::<u32>(), 0..500),
        b in proptest::collection::vec(any::<u32>(), 0..500),
        grain in 1usize..40,
    ) {
        let mut x = Bag::new(grain);
        let mut y = Bag::new(grain);
        for &v in &a { x.insert(v); }
        for &v in &b { y.insert(v); }
        x.union(y);
        prop_assert_eq!(x.len(), a.len() + b.len());
        let mut got = x.to_vec();
        got.sort_unstable();
        let mut want = [a, b].concat();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bag_nodes_partition_contents(
        items in proptest::collection::vec(any::<u32>(), 0..800),
        grain in 1usize..50,
    ) {
        let mut bag = Bag::new(grain);
        for &v in &items { bag.insert(v); }
        let total: usize = bag.nodes().iter().map(|n| n.len()).sum();
        prop_assert_eq!(total, items.len());
        prop_assert!(bag.nodes().iter().all(|n| n.len() <= grain));
    }
}

fn arb_graph() -> impl Strategy<Value = Csr> {
    (2usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..180).prop_map(
            move |es| {
                let mut b = GraphBuilder::new(n);
                b.extend(es);
                b.build()
            },
        )
    })
}

fn arb_model() -> impl Strategy<Value = RuntimeModel> {
    prop_oneof![
        (1usize..50).prop_map(|c| RuntimeModel::OpenMp(Schedule::Dynamic { chunk: c })),
        (1usize..50).prop_map(|g| RuntimeModel::CilkHolder { grain: g }),
        (1usize..50).prop_map(|g| RuntimeModel::Tbb(Partitioner::Simple { grain: g })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn components_parallel_equals_seq(g in arb_graph(), model in arb_model(), t in 1usize..6) {
        let pool = ThreadPool::new(t);
        let want = components_seq(&g);
        let got = components_parallel(&pool, &g, model);
        prop_assert_eq!(got.labels, want.labels);
        prop_assert_eq!(got.count, want.count);
        let (labels, count, rounds) = support::jacobi::jacobi_components(&g);
        prop_assert_eq!(&want.labels, &labels);
        prop_assert_eq!(want.count, count);
        prop_assert_eq!(want.rounds, rounds);
    }

    #[test]
    fn component_labels_are_fixed_points(g in arb_graph(), t in 1usize..5) {
        // Every label equals the min over the closed neighborhood.
        let pool = ThreadPool::new(t);
        let r = components_parallel(&pool, &g, RuntimeModel::OpenMp(Schedule::dynamic100()));
        for v in g.vertices() {
            let min_nbr = g
                .neighbors(v)
                .iter()
                .map(|&w| r.labels[w as usize])
                .chain(std::iter::once(r.labels[v as usize]))
                .min()
                .unwrap();
            prop_assert_eq!(r.labels[v as usize], min_nbr);
            prop_assert!(r.labels[v as usize] <= v);
        }
    }
}
