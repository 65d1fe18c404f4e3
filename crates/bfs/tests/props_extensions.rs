//! Property-based tests for the BFS crate's connected-components kernel.

use mic_bfs::components::{components_parallel, components_seq};
use mic_graph::{Csr, GraphBuilder, VertexId};
use mic_runtime::{Partitioner, RuntimeModel, Schedule, ThreadPool};
use proptest::prelude::*;

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
