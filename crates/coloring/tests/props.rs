//! Property-based tests: the parallel speculative coloring must be proper
//! on arbitrary graphs under arbitrary models and thread counts.

use mic_coloring::seq::greedy_color_in_order;
use mic_coloring::verify::check_proper;
use mic_coloring::{iterative_coloring, RuntimeModel};
use mic_graph::ordering::{permutation, Ordering};
use mic_graph::{Csr, GraphBuilder, VertexId};
use mic_runtime::{Partitioner, Schedule, ThreadPool};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Csr> {
    (2usize..80).prop_flat_map(|n| {
        proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..300).prop_map(
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
        (1usize..200).prop_map(|c| RuntimeModel::OpenMp(Schedule::Dynamic { chunk: c })),
        Just(RuntimeModel::OpenMp(Schedule::Static { chunk: None })),
        (1usize..100).prop_map(|c| RuntimeModel::OpenMp(Schedule::Guided { min_chunk: c })),
        (1usize..100).prop_map(|g| RuntimeModel::CilkHolder { grain: g }),
        (1usize..100).prop_map(|g| RuntimeModel::Tbb(Partitioner::Simple { grain: g })),
        Just(RuntimeModel::Tbb(Partitioner::Auto)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn parallel_coloring_always_proper(
        g in arb_graph(),
        model in arb_model(),
        t in 1usize..8,
    ) {
        let pool = ThreadPool::new(t);
        let r = iterative_coloring(&pool, &g, model);
        prop_assert!(check_proper(&g, &r.colors).is_ok());
        prop_assert!((r.num_colors as usize) <= g.max_degree() + 1);
        prop_assert_eq!(r.conflicts_per_round.last().copied().unwrap_or(0), 0);
    }

    #[test]
    fn greedy_proper_for_any_visit_order(g in arb_graph(), seed in any::<u64>()) {
        let order = permutation(&g, Ordering::Random { seed });
        let c = greedy_color_in_order(&g, &order);
        prop_assert!(check_proper(&g, &c.colors).is_ok());
        prop_assert!((c.num_colors as usize) <= g.max_degree() + 1);
    }

}
