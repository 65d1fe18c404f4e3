//! Parallel iterative speculative coloring (Algorithms 2–4 of the paper)
//! under all three programming models.

use crate::{verify, UNCOLORED};
use mic_graph::{Csr, VertexId};
use mic_runtime::{ConcurrentPushVec, PerWorker, ReducerMax, ThreadPool};
use std::sync::atomic::{AtomicU32, Ordering};

pub use mic_runtime::RuntimeModel;

/// Outcome of the iterative parallel coloring.
#[derive(Clone, Debug)]
pub struct ParallelColoring {
    /// Final proper coloring (0-based).
    pub colors: Vec<u32>,
    /// Number of colors used.
    pub num_colors: u32,
    /// Rounds executed (1 = no conflicts at all).
    pub rounds: usize,
    /// Conflict count after each round (last entry is 0).
    pub conflicts_per_round: Vec<usize>,
}

/// Rounds after which we give up on speculation and finish sequentially.
/// Expected rounds are 2–3; this is a termination guarantee, not a tuning
/// knob.
const MAX_ROUNDS: usize = 64;

/// Algorithms 2–4: speculative tentative coloring + conflict detection,
/// iterated until conflict-free.
///
/// ```
/// use mic_coloring::{check_proper, iterative_coloring, RuntimeModel};
/// use mic_graph::generators::{grid2d, Stencil2};
/// use mic_runtime::{Schedule, ThreadPool};
/// let g = grid2d(20, 20, Stencil2::NinePoint);
/// let pool = ThreadPool::new(4);
/// let r = iterative_coloring(&pool, &g, RuntimeModel::OpenMp(Schedule::dynamic100()));
/// check_proper(&g, &r.colors).unwrap();
/// assert!(r.num_colors <= 9); // Δ + 1 for the 9-point stencil
/// ```
pub fn iterative_coloring(pool: &ThreadPool, g: &Csr, model: RuntimeModel) -> ParallelColoring {
    iterative_coloring_traced(pool, g, model).0
}

/// Like [`iterative_coloring`], but also returns the visit set of every
/// round (round 1 = all vertices, then the conflict sets). The trace feeds
/// the simulator's replay-fidelity instrumentation
/// (`crate::instrument::instrument_rounds`).
pub(crate) fn iterative_coloring_traced(
    pool: &ThreadPool,
    g: &Csr,
    model: RuntimeModel,
) -> (ParallelColoring, Vec<Vec<VertexId>>) {
    let n = g.num_vertices();
    let t = pool.num_threads();
    let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let fc_len = g.max_degree() + 2;
    let mut local_fc: PerWorker<Vec<VertexId>> =
        PerWorker::new(t, move |_| vec![VertexId::MAX; fc_len]);
    if model.eager_tls() {
        local_fc.init_all();
    }

    let mut visit: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rounds = 0usize;
    let mut conflicts_per_round = Vec::new();
    let mut max_color = ReducerMax::new(t, 0u32);

    let mut round_visits: Vec<Vec<VertexId>> = Vec::new();
    while !visit.is_empty() && rounds < MAX_ROUNDS {
        rounds += 1;
        round_visits.push(visit.clone());
        // --- Algorithm 3: ParTentativeColoring ------------------------
        {
            let visit_ref = &visit;
            let colors_ref = &colors;
            let fc_ref = &local_fc;
            let mc_ref = &max_color;
            model.drive(pool, visit_ref.len(), |chunk, ctx| {
                fc_ref.with(ctx, |fc| {
                    let mut local_mc = 0u32;
                    for idx in chunk {
                        let v = visit_ref[idx];
                        for &w in g.neighbors(v) {
                            let c = colors_ref[w as usize].load(Ordering::Relaxed);
                            if c != UNCOLORED {
                                fc[c as usize] = v;
                            }
                        }
                        let mut c = 0u32;
                        while fc[c as usize] == v {
                            c += 1;
                        }
                        colors_ref[v as usize].store(c, Ordering::Relaxed);
                        local_mc = local_mc.max(c + 1);
                    }
                    mc_ref.update(ctx, local_mc);
                });
            });
        }
        // --- Algorithm 4: ParDetectConflict ---------------------------
        let conflicts = ConcurrentPushVec::new(visit.len());
        {
            let visit_ref = &visit;
            let colors_ref = &colors;
            let conflicts_ref = &conflicts;
            model.drive(pool, visit_ref.len(), |chunk, _ctx| {
                for idx in chunk {
                    let v = visit_ref[idx];
                    let cv = colors_ref[v as usize].load(Ordering::Relaxed);
                    for &w in g.neighbors(v) {
                        if cv == colors_ref[w as usize].load(Ordering::Relaxed) && v < w {
                            conflicts_ref.push(v);
                            break;
                        }
                    }
                }
            });
        }
        let mut conflicts = conflicts;
        visit = conflicts.drain();
        conflicts_per_round.push(visit.len());
    }

    let mut colors: Vec<u32> = colors.into_iter().map(|c| c.into_inner()).collect();

    // Termination fallback: finish any stragglers sequentially (practically
    // unreachable; see MAX_ROUNDS).
    if !visit.is_empty() {
        let mut forbidden = vec![VertexId::MAX; fc_len];
        for &v in &visit {
            for &w in g.neighbors(v) {
                let c = colors[w as usize];
                if c != UNCOLORED && w != v {
                    forbidden[c as usize] = v;
                }
            }
            let mut c = 0u32;
            while forbidden[c as usize] == v {
                c += 1;
            }
            colors[v as usize] = c;
        }
        conflicts_per_round.push(0);
    }

    let num_colors = verify::num_colors_used(&colors).max(max_color.get());
    (
        ParallelColoring {
            colors,
            num_colors,
            rounds,
            conflicts_per_round,
        },
        round_visits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::greedy_color;
    use crate::verify::check_proper;
    use mic_graph::generators::{
        complete, erdos_renyi_gnm, grid2d, path, rgg3d_with_avg_degree, Box3, Stencil2,
    };
    use mic_runtime::{Partitioner, Schedule};

    fn models() -> Vec<RuntimeModel> {
        vec![
            RuntimeModel::OpenMp(Schedule::Static { chunk: None }),
            RuntimeModel::OpenMp(Schedule::Static { chunk: Some(40) }),
            RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 100 }),
            RuntimeModel::OpenMp(Schedule::Guided { min_chunk: 10 }),
            RuntimeModel::CilkHolder { grain: 64 },
            RuntimeModel::CilkWorkerId { grain: 64 },
            RuntimeModel::Tbb(Partitioner::Simple { grain: 40 }),
            RuntimeModel::Tbb(Partitioner::Auto),
            RuntimeModel::Tbb(Partitioner::Affinity),
        ]
    }

    #[test]
    fn all_models_produce_proper_colorings() {
        let pool = ThreadPool::new(4);
        let g = erdos_renyi_gnm(2000, 10_000, 3);
        for model in models() {
            let r = iterative_coloring(&pool, &g, model);
            check_proper(&g, &r.colors).unwrap_or_else(|e| panic!("{model:?}: {e}"));
            assert!(r.num_colors as usize <= g.max_degree() + 1, "{model:?}");
            assert_eq!(*r.conflicts_per_round.last().unwrap(), 0, "{model:?}");
        }
    }

    #[test]
    fn mesh_graph_color_quality_close_to_sequential() {
        // The paper verified parallel color counts never exceeded the
        // sequential count by more than 5%; give a little slack on a small
        // mesh.
        let pool = ThreadPool::new(8);
        let g = rgg3d_with_avg_degree(4000, Box3::new(4.0, 1.0, 1.0), 20.0, 11);
        let seq = greedy_color(&g).num_colors;
        for model in RuntimeModel::paper_best() {
            let par = iterative_coloring(&pool, &g, model).num_colors;
            assert!(
                (par as f64) <= (seq as f64) * 1.25 + 2.0,
                "{model:?}: parallel used {par} colors vs sequential {seq}"
            );
        }
    }

    #[test]
    fn single_thread_matches_round_one_everywhere() {
        // With one thread there can be no conflicts: one round.
        let pool = ThreadPool::new(1);
        let g = grid2d(40, 40, Stencil2::NinePoint);
        let r = iterative_coloring(
            &pool,
            &g,
            RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 16 }),
        );
        assert_eq!(r.rounds, 1);
        assert_eq!(r.conflicts_per_round, vec![0]);
        check_proper(&g, &r.colors).unwrap();
    }

    #[test]
    fn complete_graph_all_distinct() {
        let pool = ThreadPool::new(4);
        let g = complete(12);
        let r = iterative_coloring(&pool, &g, RuntimeModel::CilkHolder { grain: 1 });
        check_proper(&g, &r.colors).unwrap();
        assert_eq!(r.num_colors, 12);
    }

    #[test]
    fn path_two_colors() {
        let pool = ThreadPool::new(4);
        let g = path(500);
        let r = iterative_coloring(
            &pool,
            &g,
            RuntimeModel::Tbb(Partitioner::Simple { grain: 8 }),
        );
        check_proper(&g, &r.colors).unwrap();
        assert!(
            r.num_colors <= 3,
            "path should need at most 2-3 colors, got {}",
            r.num_colors
        );
    }

    #[test]
    fn empty_graph() {
        let pool = ThreadPool::new(2);
        let g = Csr::empty(0);
        let r = iterative_coloring(&pool, &g, RuntimeModel::OpenMp(Schedule::dynamic100()));
        assert_eq!(r.num_colors, 0);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn reports_round_counts() {
        let pool = ThreadPool::new(8);
        let g = erdos_renyi_gnm(3000, 30_000, 9);
        let r = iterative_coloring(
            &pool,
            &g,
            RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 4 }),
        );
        assert!(r.rounds >= 1 && r.rounds < MAX_ROUNDS);
        assert_eq!(r.conflicts_per_round.len(), r.rounds);
        check_proper(&g, &r.colors).unwrap();
    }
}
