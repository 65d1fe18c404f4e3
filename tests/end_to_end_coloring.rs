//! Cross-crate integration: coloring the calibrated paper suite end to end
//! with every runtime model, at miniature scale.

use mic_eval::coloring::mis::{check_mis, luby_mis};
use mic_eval::coloring::{check_proper, iterative_coloring, seq::greedy_color};
use mic_eval::graph::ordering::{apply, Ordering};
use mic_eval::graph::suite::{build, PaperGraph, Scale};
use mic_eval::runtime::{Partitioner, RuntimeModel, Schedule, ThreadPool};

const SCALE: Scale = Scale::Fraction(64);

fn all_models() -> Vec<RuntimeModel> {
    vec![
        RuntimeModel::OpenMp(Schedule::Static { chunk: None }),
        RuntimeModel::OpenMp(Schedule::Static { chunk: Some(40) }),
        RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 100 }),
        RuntimeModel::OpenMp(Schedule::Guided { min_chunk: 100 }),
        RuntimeModel::CilkHolder { grain: 100 },
        RuntimeModel::CilkWorkerId { grain: 100 },
        RuntimeModel::Tbb(Partitioner::Simple { grain: 40 }),
        RuntimeModel::Tbb(Partitioner::Auto),
        RuntimeModel::Tbb(Partitioner::Affinity),
    ]
}

#[test]
fn whole_suite_colors_properly_under_every_model() {
    let pool = ThreadPool::new(8);
    for pg in PaperGraph::all() {
        let g = build(pg, SCALE);
        for model in all_models() {
            let r = iterative_coloring(&pool, &g, model);
            check_proper(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{} under {model:?}: {e}", pg.name()));
            assert!(
                r.num_colors as usize <= g.max_degree() + 1,
                "{} used too many colors",
                pg.name()
            );
        }
    }
}

#[test]
fn parallel_quality_close_to_sequential_on_suite() {
    // The paper: "the number of colors never differ by more than 5% when
    // the algorithm is executed in parallel." Allow slack at tiny scale.
    let pool = ThreadPool::new(8);
    for pg in [PaperGraph::Hood, PaperGraph::Ldoor, PaperGraph::Pwtk] {
        let g = build(pg, SCALE);
        let seq = greedy_color(&g).num_colors as f64;
        let par = iterative_coloring(&pool, &g, RuntimeModel::OpenMp(Schedule::dynamic100()))
            .num_colors as f64;
        assert!(par <= seq * 1.2 + 2.0, "{}: {par} vs {seq}", pg.name());
    }
}

#[test]
fn shuffled_graphs_color_identically_well() {
    // Figure 2's workload: shuffling ids must not break correctness or
    // blow up color counts (greedy quality is order-dependent but bounded).
    let pool = ThreadPool::new(4);
    let g = build(PaperGraph::Auto, SCALE);
    let (shuffled, _) = apply(&g, Ordering::Random { seed: 99 });
    let r = iterative_coloring(
        &pool,
        &shuffled,
        RuntimeModel::OpenMp(Schedule::dynamic100()),
    );
    check_proper(&shuffled, &r.colors).unwrap();
    assert!(r.num_colors as usize <= shuffled.max_degree() + 1);
}

#[test]
fn luby_mis_is_maximal_on_suite() {
    let pool = ThreadPool::new(6);
    let model = RuntimeModel::OpenMp(Schedule::dynamic100());
    for pg in [PaperGraph::Auto, PaperGraph::Bmw32] {
        let g = build(pg, SCALE);
        let mis = luby_mis(&pool, &g, model, 11);
        assert!(check_mis(&g, &mis.in_set), "{} MIS", pg.name());
    }
}

#[test]
fn conflicts_resolve_within_a_few_rounds() {
    let pool = ThreadPool::new(8);
    let g = build(PaperGraph::Msdoor, SCALE);
    let r = iterative_coloring(
        &pool,
        &g,
        RuntimeModel::Tbb(Partitioner::Simple { grain: 10 }),
    );
    assert!(
        r.rounds <= 8,
        "speculation should converge fast, took {} rounds",
        r.rounds
    );
    assert_eq!(*r.conflicts_per_round.last().unwrap(), 0);
}
