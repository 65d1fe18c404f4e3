//! Degree "hubs": lifting the maximum degree of a mesh-like graph.
//!
//! FE matrices such as `inline_1` (Δ = 842) and `bmw3_2` (Δ = 335) contain a
//! handful of very-high-degree rows — multi-point constraints / rigid body
//! elements that tie many mesh nodes to one master node. Random geometric
//! graphs have no such rows, so the calibrated suite grafts them on: `k`
//! master vertices are each connected to `spokes` vertices drawn from a
//! window of nearby ids (keeping the extra edges local, as the real
//! constraints are).

use crate::builder::GraphBuilder;
use crate::csr::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Add to `b` the edges that connect `k` evenly spaced vertices to `spokes`
/// random vertices each, drawn within `window` ids of the hub. The built
/// graph depends only on the edge set, so grafting before the one build
/// gives the same graph as rebuilding a finished one with the hubs added.
pub(crate) fn graft_hubs(b: &mut GraphBuilder, k: usize, spokes: usize, window: usize, seed: u64) {
    let n = b.num_vertices();
    if n < 2 || k == 0 || spokes == 0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let window = window.max(2).min(n);
    for i in 0..k {
        let hub = ((i * n) / k + n / (2 * k)).min(n - 1) as VertexId;
        let lo = (hub as usize).saturating_sub(window / 2);
        let hi = (lo + window).min(n);
        let lo = hi - window.min(hi);
        for _ in 0..spokes {
            let v = rng.gen_range(lo as u64..hi as u64) as VertexId;
            if v != hub {
                b.add_edge(hub, v);
            }
        }
    }
}

/// The two-pass form: the finished `g`'s edges and the hubs `(k, spokes,
/// window, seed)` into a second builder. The one-build suite must match it.
#[cfg(test)]
pub(crate) fn rebuilt_with_hubs(g: &crate::Csr, hubs: (usize, usize, usize, u64)) -> crate::Csr {
    let mut b = GraphBuilder::new(g.num_vertices());
    b.extend(g.edges());
    graft_hubs(&mut b, hubs.0, hubs.1, hubs.2, hubs.3);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid2d, Stencil2};

    #[test]
    fn hubs_raise_max_degree() {
        let g = grid2d(40, 40, Stencil2::FivePoint);
        let h = rebuilt_with_hubs(&g, (2, 100, 400, 13));
        assert!(
            h.max_degree() >= 80,
            "max degree {} too small",
            h.max_degree()
        );
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert!(h.num_edges() > g.num_edges());
        assert!(h.check_invariants());
    }

    #[test]
    fn zero_hubs_is_identity() {
        let g = grid2d(5, 5, Stencil2::FivePoint);
        assert_eq!(rebuilt_with_hubs(&g, (0, 10, 10, 1)), g);
    }

    #[test]
    fn deterministic() {
        let g = grid2d(10, 10, Stencil2::FivePoint);
        assert_eq!(
            rebuilt_with_hubs(&g, (3, 20, 50, 77)),
            rebuilt_with_hubs(&g, (3, 20, 50, 77))
        );
    }
}
