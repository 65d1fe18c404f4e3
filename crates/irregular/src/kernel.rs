//! Algorithm 5: the neighbor-averaging kernel.

use mic_graph::Csr;
use mic_runtime::{RuntimeModel, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sequential reference, in natural order, updating in place (the
/// Gauss–Seidel-flavored semantics of Algorithm 5 run on one thread); the
/// reference the parallel in-place kernel is tested against.
#[cfg(test)]
pub(crate) fn irregular_seq(g: &Csr, state: &mut [f64], iter: usize) {
    assert_eq!(state.len(), g.num_vertices());
    assert!(iter >= 1, "iter must be at least 1");
    for v in g.vertices() {
        let mut sum = 0.0;
        for _ in 0..iter {
            sum = state[v as usize];
            for &w in g.neighbors(v) {
                sum += state[w as usize];
            }
        }
        state[v as usize] = sum / (g.degree(v) as f64 + 1.0);
    }
}

/// Algorithm 5 verbatim: parallel, in place. Neighbor reads race with
/// concurrent updates exactly as in the paper's kernel; the races are
/// benign for the benchmark's purpose (every intermediate value is a
/// convex combination of initial states, so the result stays within the
/// initial min/max — asserted by tests). States are stored as atomic bits
/// to make the racy accesses well-defined in Rust.
pub fn irregular_inplace(
    pool: &ThreadPool,
    g: &Csr,
    state: &mut [f64],
    iter: usize,
    model: RuntimeModel,
) {
    assert_eq!(state.len(), g.num_vertices());
    assert!(iter >= 1);
    let atomic: Vec<AtomicU64> = state.iter().map(|&x| AtomicU64::new(x.to_bits())).collect();
    {
        let a = &atomic;
        model.drive(pool, g.num_vertices(), |chunk, _ctx| {
            for vi in chunk {
                let v = vi as u32;
                let mut sum = 0.0;
                for _ in 0..iter {
                    sum = f64::from_bits(a[vi].load(Ordering::Relaxed));
                    for &w in g.neighbors(v) {
                        sum += f64::from_bits(a[w as usize].load(Ordering::Relaxed));
                    }
                }
                let avg = sum / (g.degree(v) as f64 + 1.0);
                a[vi].store(avg.to_bits(), Ordering::Relaxed);
            }
        });
    }
    for (s, a) in state.iter_mut().zip(atomic) {
        *s = f64::from_bits(a.into_inner());
    }
}

/// Deterministic Jacobi form: reads `state`, writes `out`. Equal to the
/// sequential Jacobi sweep for every runtime model and thread count —
/// the form the mini-apps build on.
pub fn irregular_jacobi(
    pool: &ThreadPool,
    g: &Csr,
    state: &[f64],
    out: &mut [f64],
    iter: usize,
    model: RuntimeModel,
) {
    assert_eq!(state.len(), g.num_vertices());
    assert_eq!(out.len(), g.num_vertices());
    assert!(iter >= 1);
    // Disjoint per-vertex writes: hand out raw slots via a shared pointer.
    struct OutPtr(*mut f64);
    unsafe impl Sync for OutPtr {}
    let out_ptr = OutPtr(out.as_mut_ptr());
    model.drive(pool, g.num_vertices(), |chunk, _ctx| {
        let _ = &out_ptr;
        for vi in chunk {
            let v = vi as u32;
            let mut sum = 0.0;
            for _ in 0..iter {
                sum = state[vi];
                for &w in g.neighbors(v) {
                    sum += state[w as usize];
                }
            }
            // SAFETY: every scheduler hands out each index exactly once,
            // so writes are disjoint; `out` outlives the region.
            unsafe { *out_ptr.0.add(vi) = sum / (g.degree(v) as f64 + 1.0) };
        }
    });
}

/// Sequential Jacobi reference for [`irregular_jacobi`].
pub fn jacobi_seq(g: &Csr, state: &[f64], out: &mut [f64], iter: usize) {
    for v in g.vertices() {
        let vi = v as usize;
        let mut sum = 0.0;
        for _ in 0..iter {
            sum = state[vi];
            for &w in g.neighbors(v) {
                sum += state[w as usize];
            }
        }
        out[vi] = sum / (g.degree(v) as f64 + 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_graph::generators::{erdos_renyi_gnm, grid2d, path, Stencil2};
    use mic_runtime::{Partitioner, Schedule};

    fn models() -> Vec<RuntimeModel> {
        vec![
            RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 32 }),
            RuntimeModel::OpenMp(Schedule::Static { chunk: None }),
            RuntimeModel::CilkHolder { grain: 50 },
            RuntimeModel::Tbb(Partitioner::Simple { grain: 25 }),
            RuntimeModel::Tbb(Partitioner::Auto),
        ]
    }

    fn initial_state(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i % 17) as f64 - 5.0).collect()
    }

    #[test]
    fn jacobi_parallel_equals_sequential_all_models() {
        let pool = ThreadPool::new(6);
        let g = erdos_renyi_gnm(1200, 6000, 3);
        let state = initial_state(1200);
        for iter in [1, 3, 10] {
            let mut want = vec![0.0; 1200];
            jacobi_seq(&g, &state, &mut want, iter);
            for model in models() {
                let mut got = vec![0.0; 1200];
                irregular_jacobi(&pool, &g, &state, &mut got, iter, model);
                assert_eq!(got, want, "{model:?} iter {iter}");
            }
        }
    }

    #[test]
    fn inplace_stays_within_convex_hull() {
        let pool = ThreadPool::new(8);
        let g = grid2d(30, 30, Stencil2::NinePoint);
        let mut state = initial_state(900);
        let lo = state.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = state.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for model in models() {
            irregular_inplace(&pool, &g, &mut state, 3, model);
            for &s in &state {
                assert!(
                    s >= lo - 1e-9 && s <= hi + 1e-9,
                    "state {s} escaped [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn inplace_single_thread_matches_sequential() {
        let pool = ThreadPool::new(1);
        let g = path(100);
        let mut a = initial_state(100);
        let mut b = a.clone();
        irregular_seq(&g, &mut a, 2);
        irregular_inplace(
            &pool,
            &g,
            &mut b,
            2,
            RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 1000 }),
        );
        // One thread + one chunk = natural order = sequential semantics.
        assert_eq!(a, b);
    }

    #[test]
    fn averaging_smooths_toward_neighborhood_mean() {
        let g = path(3);
        let mut state = vec![0.0, 9.0, 0.0];
        irregular_seq(&g, &mut state, 1);
        // v0 = (0+9)/2 = 4.5; v1 = (9 + 4.5 + 0)/3 = 4.5; v2 = (0+4.5)/2
        assert!((state[0] - 4.5).abs() < 1e-12);
        assert!((state[1] - 4.5).abs() < 1e-12);
        assert!((state[2] - 2.25).abs() < 1e-12);
    }

    #[test]
    fn iter_changes_flops_not_result_for_jacobi() {
        // With double buffering, iter only redoes the same summation.
        let pool = ThreadPool::new(4);
        let g = erdos_renyi_gnm(300, 900, 8);
        let state = initial_state(300);
        let mut a = vec![0.0; 300];
        let mut b = vec![0.0; 300];
        let m = RuntimeModel::OpenMp(Schedule::dynamic100());
        irregular_jacobi(&pool, &g, &state, &mut a, 1, m);
        irregular_jacobi(&pool, &g, &state, &mut b, 10, m);
        assert_eq!(a, b);
    }

    #[test]
    fn isolated_vertices_keep_their_state() {
        let pool = ThreadPool::new(2);
        let g = Csr::empty(5);
        let state = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut out = vec![0.0; 5];
        irregular_jacobi(
            &pool,
            &g,
            &state,
            &mut out,
            4,
            RuntimeModel::CilkHolder { grain: 2 },
        );
        assert_eq!(out, state);
    }
}
