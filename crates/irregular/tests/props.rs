//! Property-based tests for the irregular crate: kernel determinism,
//! convex-hull bounds, SpMV linearity.

use mic_graph::weights::EdgeWeights;
use mic_graph::{Csr, GraphBuilder, VertexId};
use mic_irregular::kernel::{irregular_inplace, irregular_jacobi, jacobi_seq};
use mic_irregular::spmv::{spmv, spmv_seq};
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

    #[test]
    fn spmv_is_linear(g in arb_graph(), seed in any::<u64>(), t in 1usize..5) {
        // A(x + 2y) = Ax + 2Ay, computed through the parallel path.
        let n = g.num_vertices();
        let w = EdgeWeights::random_symmetric(&g, 0.5, 2.0, seed);
        let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 3.0).collect();
        let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + 2.0 * b).collect();
        let pool = ThreadPool::new(t);
        let m = RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 8 });
        let mut ax = vec![0.0; n];
        let mut ay = vec![0.0; n];
        let mut axy = vec![0.0; n];
        spmv(&pool, &g, &w, &[], &x, &mut ax, m);
        spmv(&pool, &g, &w, &[], &y, &mut ay, m);
        spmv(&pool, &g, &w, &[], &xy, &mut axy, m);
        for i in 0..n {
            prop_assert!((axy[i] - (ax[i] + 2.0 * ay[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn spmv_parallel_equals_seq(g in arb_graph(), seed in any::<u64>(), model in arb_model()) {
        let n = g.num_vertices();
        let w = EdgeWeights::random_symmetric(&g, 0.1, 1.0, seed);
        let diag: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let x: Vec<f64> = (0..n).map(|i| ((i * 11) % 13) as f64 - 6.0).collect();
        let mut want = vec![0.0; n];
        spmv_seq(&g, &w, &diag, &x, &mut want);
        let pool = ThreadPool::new(4);
        let mut got = vec![0.0; n];
        spmv(&pool, &g, &w, &diag, &x, &mut got, model);
        prop_assert_eq!(got, want);
    }
}
