//! Vertex orderings / relabelings.
//!
//! The paper evaluates its kernels on the *natural* ordering of the FE
//! matrices (which is banded, hence cache friendly) and, for Figure 2, on a
//! *random shuffle* of the vertex ids, which "breaks all the locality that
//! naturally appears in the graphs" and stresses the memory subsystem.

use crate::csr::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;

/// An ordering strategy. [`permutation`] turns it into `perm[old] = new`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ordering {
    /// Keep ids as they are.
    Natural,
    /// Uniformly random relabeling with the given seed (Figure 2).
    Random { seed: u64 },
    /// Cuthill–McKee: BFS from `source` with neighbors visited in ascending
    /// degree order; a classic bandwidth-reducing ordering.
    CuthillMcKee { source: VertexId },
    /// Ascending degree.
    DegreeAscending,
    /// Descending degree (the "largest first" coloring order).
    DegreeDescending,
}

/// Compute `perm` with `perm[old] = new` for the given strategy.
pub fn permutation(g: &Csr, ordering: Ordering) -> Vec<VertexId> {
    let n = g.num_vertices();
    match ordering {
        Ordering::Natural => (0..n as VertexId).collect(),
        Ordering::Random { seed } => {
            let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
            perm.shuffle(&mut StdRng::seed_from_u64(seed));
            perm
        }
        Ordering::CuthillMcKee { source } => cuthill_mckee(g, source),
        Ordering::DegreeAscending => by_degree(g, false),
        Ordering::DegreeDescending => by_degree(g, true),
    }
}

/// Apply an ordering to a graph, returning the relabeled graph and the
/// permutation used (`perm[old] = new`).
pub fn apply(g: &Csr, ordering: Ordering) -> (Csr, Vec<VertexId>) {
    let perm = permutation(g, ordering);
    (g.permute(&perm), perm)
}

/// The inverse of a permutation: `inv[perm[old]] = old`.
pub(crate) fn inverse(perm: &[VertexId]) -> Vec<VertexId> {
    let mut inv = vec![0 as VertexId; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old as VertexId;
    }
    inv
}

fn by_degree(g: &Csr, descending: bool) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    // Stable sort keeps the natural order among equal degrees, which keeps
    // some locality — matching the usual practice.
    if descending {
        order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    } else {
        order.sort_by_key(|&v| g.degree(v));
    }
    inverse(&order)
}

fn cuthill_mckee(g: &Csr, source: VertexId) -> Vec<VertexId> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    assert!((source as usize) < n, "source out of range");
    let mut perm = vec![VertexId::MAX; n];
    let mut next = 0 as VertexId;
    let mut queue = VecDeque::new();
    let mut nbrs: Vec<VertexId> = Vec::new();
    let mut seed = source;
    // Every id below `restart` is numbered: the restart scan resumes there
    // instead of at 0, so a graph of many components (an RMAT graph's
    // isolated vertices) costs one pass, not one pass per component.
    let mut restart = 0;
    loop {
        // Start (or restart, for disconnected graphs) from the smallest
        // unvisited id on later components.
        perm[seed as usize] = next;
        next += 1;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            nbrs.clear();
            nbrs.extend(
                g.neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| perm[w as usize] == VertexId::MAX),
            );
            nbrs.sort_by_key(|&w| g.degree(w));
            for &w in &nbrs {
                if perm[w as usize] == VertexId::MAX {
                    perm[w as usize] = next;
                    next += 1;
                    queue.push_back(w);
                }
            }
        }
        match perm[restart..].iter().position(|&p| p == VertexId::MAX) {
            Some(offset) => {
                restart += offset;
                seed = restart as VertexId;
            }
            None => break,
        }
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi_gnm, grid2d, path, Stencil2};

    fn is_permutation(perm: &[VertexId]) -> bool {
        let mut seen = vec![false; perm.len()];
        perm.iter().all(|&p| {
            let i = p as usize;
            i < seen.len() && !std::mem::replace(&mut seen[i], true)
        })
    }

    #[test]
    fn all_strategies_produce_permutations() {
        let g = erdos_renyi_gnm(200, 600, 4);
        for o in [
            Ordering::Natural,
            Ordering::Random { seed: 1 },
            Ordering::CuthillMcKee { source: 0 },
            Ordering::DegreeAscending,
            Ordering::DegreeDescending,
        ] {
            let p = permutation(&g, o);
            assert!(is_permutation(&p), "{o:?} not a permutation");
        }
    }

    #[test]
    fn natural_is_identity() {
        let g = path(10);
        let (h, p) = apply(&g, Ordering::Natural);
        assert_eq!(h, g);
        assert_eq!(p, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn random_shuffle_destroys_bandwidth() {
        let g = grid2d(50, 50, Stencil2::FivePoint);
        let natural_bw: usize = g.edges().map(|(u, v)| (v - u) as usize).sum();
        let (h, _) = apply(&g, Ordering::Random { seed: 9 });
        let shuffled_bw: usize = h.edges().map(|(u, v)| (v - u) as usize).sum();
        assert!(
            shuffled_bw > 10 * natural_bw,
            "shuffle should blow up id gaps"
        );
    }

    #[test]
    fn cuthill_mckee_reduces_bandwidth_of_shuffled_grid() {
        let g = grid2d(30, 30, Stencil2::FivePoint);
        let (shuffled, _) = apply(&g, Ordering::Random { seed: 3 });
        let (rcm, _) = apply(&shuffled, Ordering::CuthillMcKee { source: 0 });
        let bw = |g: &crate::Csr| -> usize {
            g.edges().map(|(u, v)| (v - u) as usize).max().unwrap_or(0)
        };
        assert!(bw(&rcm) < bw(&shuffled) / 4, "CM should shrink bandwidth");
    }

    #[test]
    fn cuthill_mckee_handles_disconnected() {
        // Two components: path 0-1-2 and isolated 3, 4.
        let mut b = crate::GraphBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let p = permutation(&g, Ordering::CuthillMcKee { source: 2 });
        assert!(is_permutation(&p));
    }

    /// The restart loop before the monotone cursor, kept as the reference.
    fn cuthill_mckee_reference(g: &Csr, source: VertexId) -> Vec<VertexId> {
        let n = g.num_vertices();
        let mut perm = vec![VertexId::MAX; n];
        let mut next = 0 as VertexId;
        let mut queue = VecDeque::new();
        let mut seed = source;
        loop {
            perm[seed as usize] = next;
            next += 1;
            queue.push_back(seed);
            while let Some(v) = queue.pop_front() {
                let mut nbrs: Vec<VertexId> = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| perm[w as usize] == VertexId::MAX)
                    .collect();
                nbrs.sort_by_key(|&w| g.degree(w));
                for w in nbrs {
                    if perm[w as usize] == VertexId::MAX {
                        perm[w as usize] = next;
                        next += 1;
                        queue.push_back(w);
                    }
                }
            }
            match perm.iter().position(|&p| p == VertexId::MAX) {
                Some(v) => seed = v as VertexId,
                None => break,
            }
        }
        perm
    }

    #[test]
    fn cuthill_mckee_on_thousands_of_components_matches_the_reference() {
        // Isolated vertices interleaved with a few paths and grids, the
        // shape of an RMAT graph's many components.
        let n = 6000;
        let mut b = crate::GraphBuilder::new(n);
        for start in [100, 2500, 5000] {
            for v in start..start + 40 {
                b.add_edge(v, v + 1);
            }
        }
        for corner in [800, 3300] {
            for r in 0..10 {
                for c in 0..10 {
                    let v = corner + 20 * r + c;
                    if c + 1 < 10 {
                        b.add_edge(v, v + 1);
                    }
                    if r + 1 < 10 {
                        b.add_edge(v, v + 20);
                    }
                }
            }
        }
        let g = b.build();
        for source in [0, 120, 3300, 5999] {
            let p = permutation(&g, Ordering::CuthillMcKee { source });
            assert!(is_permutation(&p));
            assert_eq!(p, cuthill_mckee_reference(&g, source), "source {source}");
        }
    }

    #[test]
    fn degree_orders_sort_correctly() {
        let g = crate::generators::star(6);
        let p = permutation(&g, Ordering::DegreeDescending);
        assert_eq!(p[0], 0, "hub should come first under DegreeDescending");
        let p = permutation(&g, Ordering::DegreeAscending);
        assert_eq!(p[0], 5, "hub should come last under DegreeAscending");
    }
}
