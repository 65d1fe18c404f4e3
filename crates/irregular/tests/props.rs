//! Property-based tests for the irregular crate: kernel determinism,
//! convex-hull bounds.

use mic_graph::{Csr, GraphBuilder, VertexId};
use mic_irregular::kernel::{irregular_inplace, irregular_jacobi, jacobi_seq};
use mic_runtime::{Partitioner, RuntimeModel, Schedule, ThreadPool};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Csr> {
    (2usize..50).prop_flat_map(|n| {
        proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..150).prop_map(
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
        (1usize..40).prop_map(|c| RuntimeModel::OpenMp(Schedule::Dynamic { chunk: c })),
        (1usize..40).prop_map(|g| RuntimeModel::CilkHolder { grain: g }),
        Just(RuntimeModel::Tbb(Partitioner::Auto)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn jacobi_deterministic(g in arb_graph(), model in arb_model(), t in 1usize..6, iter in 1usize..5) {
        let n = g.num_vertices();
        let state: Vec<f64> = (0..n).map(|i| ((i * 13) % 29) as f64 - 14.0).collect();
        let mut want = vec![0.0; n];
        jacobi_seq(&g, &state, &mut want, iter);
        let pool = ThreadPool::new(t);
        let mut got = vec![0.0; n];
        irregular_jacobi(&pool, &g, &state, &mut got, iter, model);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn inplace_stays_in_convex_hull(g in arb_graph(), model in arb_model(), t in 1usize..6) {
        let n = g.num_vertices();
        let mut state: Vec<f64> = (0..n).map(|i| ((i * 7) % 19) as f64).collect();
        let (lo, hi) = (0.0, 18.0);
        let pool = ThreadPool::new(t);
        irregular_inplace(&pool, &g, &mut state, 2, model);
        prop_assert!(state.iter().all(|&s| s >= lo - 1e-9 && s <= hi + 1e-9));
    }

}
