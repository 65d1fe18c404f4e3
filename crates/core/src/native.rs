//! Native wall-clock runners.
//!
//! These execute the *real* kernels on real threads and time them. On the
//! paper's hardware this is the measurement path; in this repository it is
//! the correctness/benchmark path (the `native` bin builds on it), while
//! the scalability figures come from the machine simulator — matching the
//! paper's own caveat that absolute numbers on a prototype are not
//! meaningful.

use mic_bfs::{parallel_bfs, BfsVariant};
use mic_coloring::{iterative_coloring, RuntimeModel};
use mic_graph::{Csr, VertexId};
use mic_irregular::kernel::irregular_inplace;
use mic_runtime::ThreadPool;
use std::time::{Duration, Instant};

/// Outcome of a timed native run.
#[derive(Clone, Debug)]
pub struct Timed<T> {
    pub elapsed: Duration,
    pub output: T,
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let output = f();
    Timed {
        elapsed: start.elapsed(),
        output,
    }
}

/// Run and time the parallel iterative coloring; returns the color count
/// and round count.
pub fn run_coloring(pool: &ThreadPool, g: &Csr, model: RuntimeModel) -> Timed<(u32, usize)> {
    timed(|| {
        let r = iterative_coloring(pool, g, model);
        (r.num_colors, r.rounds)
    })
}

/// Run and time a parallel BFS; returns the level count.
pub fn run_bfs(pool: &ThreadPool, g: &Csr, source: VertexId, variant: BfsVariant) -> Timed<u32> {
    timed(|| parallel_bfs(pool, g, source, variant).num_levels)
}

/// Run and time one irregular-computation sweep (in place, Algorithm 5);
/// returns the state checksum.
pub fn run_irregular(pool: &ThreadPool, g: &Csr, iter: usize, model: RuntimeModel) -> Timed<f64> {
    timed(|| {
        let mut state: Vec<f64> = (0..g.num_vertices()).map(|i| (i % 1013) as f64).collect();
        irregular_inplace(pool, g, &mut state, iter, model);
        state.iter().sum()
    })
}

/// Native scaling sweep: run a timed kernel at each thread count (median
/// of `repeats` runs) and report wall-clock speedup relative to one
/// thread. On a multicore host this measures the real thing; on a 1-core
/// CI box it degenerates to ~1 everywhere (the simulator carries the
/// scalability claims there).
pub fn native_scaling<F>(threads: &[usize], repeats: usize, mut run: F) -> crate::series::Figure
where
    F: FnMut(&ThreadPool) -> Duration,
{
    assert!(!threads.is_empty() && repeats >= 1);
    let mut medians = Vec::with_capacity(threads.len());
    for &t in threads {
        let pool = ThreadPool::new(t);
        let mut times: Vec<f64> = (0..repeats).map(|_| run(&pool).as_secs_f64()).collect();
        times.sort_by(f64::total_cmp);
        medians.push(times[times.len() / 2]);
    }
    let base = medians[0];
    let mut fig = crate::series::Figure::new("native scaling", threads.to_vec());
    fig.push(crate::series::Series::new(
        "speedup",
        medians.iter().map(|m| base / m).collect(),
    ));
    fig.push(crate::series::Series::new(
        "ms",
        medians.iter().map(|m| m * 1e3).collect(),
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_graph::generators::erdos_renyi_gnm;
    use mic_runtime::Schedule;

    #[test]
    fn native_scaling_produces_figure() {
        let g = erdos_renyi_gnm(400, 1600, 1);
        let fig = native_scaling(&[1, 2], 3, |pool| {
            run_coloring(pool, &g, RuntimeModel::OpenMp(Schedule::dynamic100())).elapsed
        });
        assert_eq!(fig.x, vec![1, 2]);
        assert!(fig.get("speedup").unwrap().y[0] > 0.99);
        assert!(fig.get("ms").unwrap().y.iter().all(|&m| m > 0.0));
    }

    #[test]
    fn native_runs_complete_and_report() {
        let pool = ThreadPool::new(4);
        let g = erdos_renyi_gnm(800, 4000, 5);
        let c = run_coloring(&pool, &g, RuntimeModel::OpenMp(Schedule::dynamic100()));
        assert!(c.output.0 >= 2);
        let b = run_bfs(
            &pool,
            &g,
            0,
            BfsVariant::OmpBlock {
                sched: Schedule::Dynamic { chunk: 32 },
                block: 32,
                relaxed: true,
            },
        );
        assert!(b.output >= 2);
        let i = run_irregular(&pool, &g, 2, RuntimeModel::CilkHolder { grain: 32 });
        assert!(i.output.is_finite());
    }
}
