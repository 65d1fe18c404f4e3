//! Recursive-matrix (RMAT) scale-free graphs, as in the Graph 500 benchmark
//! the paper cites for BFS.

use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RMAT quadrant probabilities. Must be positive and sum to ~1.
#[derive(Clone, Copy, Debug)]
pub struct RmatProbs {
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
}

impl RmatProbs {
    /// Graph 500 defaults (a, b, c, d) = (0.57, 0.19, 0.19, 0.05).
    pub fn graph500() -> Self {
        RmatProbs {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }

    fn validate(&self) {
        let s = self.a + self.b + self.c + self.d;
        assert!(
            self.a > 0.0 && self.b > 0.0 && self.c > 0.0 && self.d > 0.0,
            "RMAT probabilities must be positive"
        );
        assert!(
            (s - 1.0).abs() < 1e-6,
            "RMAT probabilities must sum to 1, got {s}"
        );
    }
}

/// RMAT graph with `2^scale` vertices and `edge_factor * 2^scale` inserted
/// edge samples (self loops and duplicates are removed, so the final edge
/// count is somewhat smaller — exactly as in Graph 500 practice).
pub fn rmat(scale: u32, edge_factor: usize, probs: RmatProbs, seed: u64) -> Csr {
    probs.validate();
    assert!(scale < 31, "scale too large for u32 vertex ids");
    let n = 1usize << scale;
    let m = edge_factor * n;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, m);
    // Quadrant bounds. The sums run left to right (`a + b + c`): that float
    // order fixes every generated graph's bits.
    let (a, ab, abc) = (probs.a, probs.a + probs.b, probs.a + probs.b + probs.c);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            // [0, a) → (0, 0), [a, ab) → (0, 1), [ab, abc) → (1, 0),
            // [abc, 1) → (1, 1), without branches.
            let r: f64 = rng.gen();
            let du = (r >= ab) as usize;
            let dv = (((a <= r) & (r < ab)) | (r >= abc)) as usize;
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u != v {
            builder.add_edge(u as VertexId, v as VertexId);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_determinism() {
        let g = rmat(10, 8, RmatProbs::graph500(), 11);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 0 && g.num_edges() <= 8 * 1024);
        assert_eq!(g, rmat(10, 8, RmatProbs::graph500(), 11));
        assert!(g.check_invariants());
    }

    #[test]
    fn skewed_probs_make_hubs() {
        let g = rmat(12, 8, RmatProbs::graph500(), 3);
        // Scale-free-ish: the max degree should dwarf the average.
        assert!(g.max_degree() as f64 > 5.0 * g.avg_degree());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probs() {
        let _ = rmat(
            4,
            2,
            RmatProbs {
                a: 0.5,
                b: 0.5,
                c: 0.5,
                d: 0.5,
            },
            0,
        );
    }
}
