//! Degree "hubs": lifting the maximum degree of a mesh-like graph.
//!
//! FE matrices such as `inline_1` (Δ = 842) and `bmw3_2` (Δ = 335) contain a
//! handful of very-high-degree rows — multi-point constraints / rigid body
//! elements that tie many mesh nodes to one master node. Random geometric
//! graphs have no such rows, so the calibrated suite grafts them on: `k`
//! master vertices are each connected to `spokes` vertices drawn from a
//! window of nearby ids (keeping the extra edges local, as the real
//! constraints are).

use crate::csr::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The edges that connect `k` evenly spaced vertices of an `n`-vertex graph
/// to `spokes` random vertices each, drawn within `window` ids of the hub.
/// No edge is a self loop; a spoke may repeat, or repeat a mesh edge.
pub(crate) fn hub_edges(
    n: usize,
    k: usize,
    spokes: usize,
    window: usize,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let mut edges = Vec::new();
    if n < 2 || k == 0 || spokes == 0 {
        return edges;
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
                edges.push((hub, v));
            }
        }
    }
    edges
}

/// The two-pass form: the finished `g`'s edges and the hubs `(k, spokes,
/// window, seed)` into a [`crate::GraphBuilder`]. The one-pass suite must
/// match it.
#[cfg(test)]
pub(crate) fn rebuilt_with_hubs(g: &crate::Csr, hubs: (usize, usize, usize, u64)) -> crate::Csr {
    let n = g.num_vertices();
    let mut b = crate::GraphBuilder::new(n);
    b.extend(g.edges());
    b.extend(hub_edges(n, hubs.0, hubs.1, hubs.2, hubs.3));
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
