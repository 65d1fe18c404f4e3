//! Cross-crate integration for the scale-free kernel exhibits: PageRank,
//! label-propagation connected components, and direction-optimizing
//! hybrid BFS, native and through the sim-replay pipeline.
//!
//! Two contracts are pinned here:
//!
//! 1. **Native bit-identity** — the parallel kernels produce bit-for-bit
//!    the sequential reference's output at every thread count and runtime
//!    model (the basis of the "simulate instead of rerun" substitution).
//! 2. **Replay determinism** — instrumenting the same graph twice and
//!    replaying the chunk stream through the machine model yields
//!    bit-identical cycle counts, so the figures are reproducible.

use mic_eval::bfs::components::{components_parallel, components_seq, components_sync};
use mic_eval::bfs::direction::{hybrid_bfs_stats, instrument_hybrid, parallel_hybrid_bfs, Hybrid};
use mic_eval::bfs::seq::{bfs, table1_source};
use mic_eval::experiments::scale_free;
use mic_eval::graph::stats::LocalityWindows;
use mic_eval::graph::suite::{build, PaperGraph, Scale};
use mic_eval::irregular::apps::{pagerank, pagerank_seq};
use mic_eval::runtime::{RuntimeModel, Schedule, ThreadPool};
use mic_eval::sim::{simulate, Machine, Policy};

const SCALE: Scale = Scale::Fraction(64);

#[test]
fn pagerank_is_bit_identical_across_threads_and_models() {
    for pg in [PaperGraph::RmatEf8, PaperGraph::RmatEf16] {
        let g = build(pg, SCALE);
        let (want_ranks, want_iters) = pagerank_seq(&g, 0.85, 1e-8, 100);
        for threads in [1usize, 4, 7] {
            let pool = ThreadPool::new(threads);
            for model in [
                RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 100 }),
                RuntimeModel::CilkHolder { grain: 100 },
            ] {
                let (ranks, iters) = pagerank(&pool, &g, 0.85, 1e-8, 100, model);
                assert_eq!(iters, want_iters, "{} t={threads} {model:?}", pg.name());
                let same = ranks
                    .iter()
                    .zip(&want_ranks)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{} t={threads} {model:?}: ranks differ", pg.name());
            }
        }
    }
}

#[test]
fn components_variants_agree_on_rmat() {
    let g = build(PaperGraph::RmatEf16, SCALE);
    let want = components_seq(&g);
    let sync = components_sync(&g);
    assert_eq!(sync.labels, want.labels);
    assert_eq!(sync.count, want.count);
    for threads in [1usize, 3, 8] {
        let pool = ThreadPool::new(threads);
        let got = components_parallel(
            &pool,
            &g,
            RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 64 }),
        );
        assert_eq!(got.labels, want.labels, "t={threads}");
        assert_eq!(got.count, want.count, "t={threads}");
    }
}

#[test]
fn hybrid_bfs_matches_sequential_and_switches_on_rmat() {
    for pg in [PaperGraph::RmatEf8, PaperGraph::RmatEf16] {
        let g = build(pg, SCALE);
        let src = table1_source(&g);
        let want = bfs(&g, src);
        let got = hybrid_bfs_stats(&g, src, Hybrid::default());
        assert_eq!(got.bfs.levels, want.levels, "{}", pg.name());
        assert!(
            got.switches > 0,
            "{}: the Beamer switch must fire on a scale-free graph",
            pg.name()
        );
        for threads in [2usize, 6] {
            let pool = ThreadPool::new(threads);
            let par = parallel_hybrid_bfs(&pool, &g, src, Hybrid::default());
            assert_eq!(par.levels, want.levels, "{} t={threads}", pg.name());
        }
    }
}

#[test]
fn chunk_replay_is_bit_deterministic() {
    // Instrument twice from scratch (bypassing the in-memory cache) and
    // demand bit-identical simulated cycles at several thread counts.
    let g = build(PaperGraph::RmatEf8, SCALE);
    let win = LocalityWindows::default();
    let m = Machine::knf();
    let pol = Policy::OmpDynamic { chunk: 64 };
    let src = table1_source(&g);
    let a = instrument_hybrid(&g, src, win, Hybrid::default());
    let b = instrument_hybrid(&g, src, win, Hybrid::default());
    assert_eq!(a.switches, b.switches);
    assert_eq!(a.directions, b.directions);
    for t in [1usize, 16, 61, 121] {
        let ca = simulate(&m, t, &a.regions(pol)).cycles;
        let cb = simulate(&m, t, &b.regions(pol)).cycles;
        assert_eq!(ca.to_bits(), cb.to_bits(), "t={t}");
    }
}

#[test]
fn figure_drivers_are_bit_deterministic_across_runs() {
    let pairs = [
        (
            scale_free::pagerank_fig(SCALE),
            scale_free::pagerank_fig(SCALE),
        ),
        (
            scale_free::components_fig(SCALE),
            scale_free::components_fig(SCALE),
        ),
        (
            scale_free::hybrid_bfs_fig(SCALE),
            scale_free::hybrid_bfs_fig(SCALE),
        ),
    ];
    for (a, b) in &pairs {
        assert_eq!(a.series.len(), b.series.len());
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.label, sb.label);
            for (ya, yb) in sa.y.iter().zip(&sb.y) {
                assert_eq!(ya.to_bits(), yb.to_bits(), "series {}", sa.label);
            }
        }
    }
}
