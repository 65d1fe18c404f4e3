//! Mini-apps on the irregular access pattern: PageRank and heat diffusion —
//! the two algorithms the paper names as what Algorithm 5 abstracts.

use mic_graph::Csr;
use mic_runtime::{RuntimeModel, ThreadPool};

/// Prepare one PageRank power iteration: fill `contrib[w] = rank[w] /
/// deg(w)` (0 where the degree is 0; no neighbor ever reads that entry)
/// and return the iteration's `base = (1-d)/n + d * dangling/n`, where the
/// dangling (degree-0) mass is redistributed uniformly.
fn contributions(g: &Csr, rank: &[f64], contrib: &mut [f64], damping: f64) -> f64 {
    let mut dangling = 0.0;
    for v in g.vertices() {
        let (r, deg) = (rank[v as usize], g.degree(v));
        contrib[v as usize] = if deg == 0 {
            dangling += r;
            0.0
        } else {
            r / deg as f64
        };
    }
    let n = g.num_vertices() as f64;
    (1.0 - damping) / n + damping * dangling / n
}

/// One PageRank power-iteration: `next[v] = base + d * Σ rank[w]/deg(w)`
/// over in-neighbors (the graph is undirected, so neighbors). Each division
/// is done once per vertex by [`contributions`], and the sum adds the same
/// quotients in the same order as dividing per edge would.
fn pagerank_step(
    pool: &ThreadPool,
    g: &Csr,
    rank: &[f64],
    contrib: &mut [f64],
    next: &mut [f64],
    damping: f64,
    model: RuntimeModel,
) {
    let base = contributions(g, rank, contrib, damping);
    let contrib = &*contrib;
    struct OutPtr(*mut f64);
    unsafe impl Sync for OutPtr {}
    let out = OutPtr(next.as_mut_ptr());
    model.drive(pool, g.num_vertices(), |chunk, _| {
        let _ = &out;
        for vi in chunk {
            let mut sum = 0.0;
            for &w in g.neighbors(vi as u32) {
                sum += contrib[w as usize];
            }
            // SAFETY: schedulers hand out disjoint indices.
            unsafe { *out.0.add(vi) = base + damping * sum };
        }
    });
}

/// Sequential PageRank, bit-identical to [`pagerank`] under any model and
/// thread count: the parallel step only splits the vertex range, and each
/// vertex's update reads the previous vector alone, so the arithmetic
/// (and its order) is the same.
pub fn pagerank_seq(g: &Csr, damping: f64, tol: f64, max_iters: usize) -> (Vec<f64>, usize) {
    let n = g.num_vertices();
    assert!(n > 0, "pagerank needs at least one vertex");
    assert!((0.0..1.0).contains(&damping));
    let mut rank = vec![1.0 / n as f64; n];
    let mut contrib = vec![0.0; n];
    let mut next = vec![0.0; n];
    for it in 1..=max_iters {
        let base = contributions(g, &rank, &mut contrib, damping);
        for v in g.vertices() {
            let mut sum = 0.0;
            for &w in g.neighbors(v) {
                sum += contrib[w as usize];
            }
            next[v as usize] = base + damping * sum;
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < tol {
            return (rank, it);
        }
    }
    (rank, max_iters)
}

/// PageRank by power iteration until the L1 change drops below `tol` (or
/// `max_iters`). Returns the ranks and the number of iterations run.
pub fn pagerank(
    pool: &ThreadPool,
    g: &Csr,
    damping: f64,
    tol: f64,
    max_iters: usize,
    model: RuntimeModel,
) -> (Vec<f64>, usize) {
    let n = g.num_vertices();
    assert!(n > 0, "pagerank needs at least one vertex");
    assert!((0.0..1.0).contains(&damping));
    let mut rank = vec![1.0 / n as f64; n];
    let mut contrib = vec![0.0; n];
    let mut next = vec![0.0; n];
    for it in 1..=max_iters {
        pagerank_step(pool, g, &rank, &mut contrib, &mut next, damping, model);
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < tol {
            return (rank, it);
        }
    }
    (rank, max_iters)
}

/// Explicit-Euler heat diffusion on the graph: each step moves a vertex's
/// temperature toward its neighborhood average by factor `alpha in (0,1]`.
/// With `alpha = 1` a step *is* the paper's Algorithm 5 (Jacobi form).
pub(crate) fn heat_step(
    pool: &ThreadPool,
    g: &Csr,
    temp: &[f64],
    next: &mut [f64],
    alpha: f64,
    model: RuntimeModel,
) {
    assert!(alpha > 0.0 && alpha <= 1.0);
    struct OutPtr(*mut f64);
    unsafe impl Sync for OutPtr {}
    let out = OutPtr(next.as_mut_ptr());
    model.drive(pool, g.num_vertices(), |chunk, _| {
        let _ = &out;
        for vi in chunk {
            let v = vi as u32;
            let deg = g.degree(v) as f64;
            let mut sum = temp[vi];
            for &w in g.neighbors(v) {
                sum += temp[w as usize];
            }
            let avg = sum / (deg + 1.0);
            // SAFETY: disjoint indices per scheduler contract.
            unsafe { *out.0.add(vi) = temp[vi] + alpha * (avg - temp[vi]) };
        }
    });
}

/// Run heat diffusion for `steps` steps; returns the final temperatures.
pub fn heat_diffusion(
    pool: &ThreadPool,
    g: &Csr,
    initial: &[f64],
    alpha: f64,
    steps: usize,
    model: RuntimeModel,
) -> Vec<f64> {
    let mut temp = initial.to_vec();
    let mut next = vec![0.0; initial.len()];
    for _ in 0..steps {
        heat_step(pool, g, &temp, &mut next, alpha, model);
        std::mem::swap(&mut temp, &mut next);
    }
    temp
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_graph::generators::{complete, cycle, erdos_renyi_gnm, path, star};
    use mic_runtime::{Partitioner, Schedule};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    const OMP: RuntimeModel = RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 32 });

    #[test]
    fn pagerank_sums_to_one() {
        let g = erdos_renyi_gnm(500, 2500, 6);
        let (r, iters) = pagerank(&pool(), &g, 0.85, 1e-10, 500, OMP);
        assert!(iters < 500, "should converge");
        let total: f64 = r.iter().sum();
        assert!((total - 1.0).abs() < 1e-8, "mass {total}");
        assert!(r.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn pagerank_symmetric_graph_is_uniform() {
        // On a vertex-transitive graph every vertex has the same rank.
        let g = cycle(20);
        let (r, _) = pagerank(&pool(), &g, 0.85, 1e-12, 1000, OMP);
        for &x in &r {
            assert!((x - 1.0 / 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_hub_dominates() {
        let g = star(50);
        let (r, _) = pagerank(&pool(), &g, 0.85, 1e-12, 1000, OMP);
        assert!(r[0] > 5.0 * r[1], "hub rank {} vs leaf {}", r[0], r[1]);
    }

    #[test]
    fn pagerank_handles_isolated_vertices() {
        let mut b = mic_graph::GraphBuilder::new(5);
        b.add_edge(0, 1);
        let g = b.build();
        let (r, _) = pagerank(&pool(), &g, 0.85, 1e-10, 200, OMP);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn pagerank_seq_is_bit_identical_to_parallel() {
        let g = erdos_renyi_gnm(400, 1600, 9);
        let (want, want_it) = pagerank_seq(&g, 0.85, 1e-10, 300);
        for t in [1, 3, 7] {
            let pool = ThreadPool::new(t);
            let (got, it) = pagerank(&pool, &g, 0.85, 1e-10, 300, OMP);
            assert_eq!(got, want, "t = {t}");
            assert_eq!(it, want_it);
        }
    }

    /// The power iteration with one division per edge, as it was written
    /// before [`contributions`] hoisted the divisions to once per vertex.
    fn pagerank_per_edge_division(
        g: &Csr,
        damping: f64,
        tol: f64,
        max_iters: usize,
    ) -> (Vec<f64>, usize) {
        let n = g.num_vertices();
        let mut rank = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        for it in 1..=max_iters {
            let nf = n as f64;
            let dangling: f64 = g
                .vertices()
                .filter(|&v| g.degree(v) == 0)
                .map(|v| rank[v as usize])
                .sum();
            let base = (1.0 - damping) / nf + damping * dangling / nf;
            for v in g.vertices() {
                let mut sum = 0.0;
                for &w in g.neighbors(v) {
                    sum += rank[w as usize] / g.degree(w) as f64;
                }
                next[v as usize] = base + damping * sum;
            }
            let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut rank, &mut next);
            if delta < tol {
                return (rank, it);
            }
        }
        (rank, max_iters)
    }

    fn assert_matches_per_edge_division(g: &Csr, what: &str) {
        let (want, want_it) = pagerank_per_edge_division(g, 0.85, 1e-8, 100);
        let (got, it) = pagerank_seq(g, 0.85, 1e-8, 100);
        assert_eq!(it, want_it, "{what}: iterations");
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{what}: ranks");
        let (par, par_it) = pagerank(&ThreadPool::new(3), g, 0.85, 1e-8, 100, OMP);
        assert_eq!(par_it, want_it, "{what}: parallel iterations");
        assert_eq!(bits(&par), bits(&want), "{what}: parallel ranks");
    }

    #[test]
    fn pagerank_matches_per_edge_division_on_the_suite() {
        use mic_graph::suite::{build, PaperGraph, Scale};
        for pg in [PaperGraph::RmatEf8, PaperGraph::RmatEf16, PaperGraph::Hood] {
            assert_matches_per_edge_division(&build(pg, Scale::Fraction(64)), pg.name());
        }
    }

    #[test]
    fn pagerank_matches_per_edge_division_with_isolated_vertices() {
        let mut b = mic_graph::GraphBuilder::new(40);
        b.extend((0..20).map(|v| (v, (v * 7 + 3) % 20)));
        let g = b.build();
        assert!(g.vertices().any(|v| g.degree(v) == 0));
        assert_matches_per_edge_division(&g, "isolated");
    }

    #[test]
    fn pagerank_same_across_models() {
        let g = erdos_renyi_gnm(300, 1200, 2);
        let models = [
            OMP,
            RuntimeModel::CilkHolder { grain: 16 },
            RuntimeModel::Tbb(Partitioner::Simple { grain: 16 }),
        ];
        let results: Vec<Vec<f64>> = models
            .iter()
            .map(|&m| pagerank(&pool(), &g, 0.85, 1e-10, 300, m).0)
            .collect();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn heat_conserves_nothing_but_converges_to_consensus() {
        // Averaging dynamics converge to a consensus value within the
        // initial range on a connected graph.
        let g = path(30);
        let initial: Vec<f64> = (0..30).map(|i| if i == 0 { 100.0 } else { 0.0 }).collect();
        let t = heat_diffusion(&pool(), &g, &initial, 0.8, 4000, OMP);
        let spread = t.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - t.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread < 1.0,
            "temperatures should equalize, spread {spread}"
        );
        assert!(t.iter().all(|&x| (0.0..=100.0).contains(&x)));
    }

    #[test]
    fn heat_on_complete_graph_is_one_step_consensus() {
        let g = complete(10);
        let initial: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let t = heat_diffusion(&pool(), &g, &initial, 1.0, 1, OMP);
        let mean = 4.5;
        for &x in &t {
            assert!((x - mean).abs() < 1e-12);
        }
    }
}
