//! Graph statistics, including the locality profile that drives the machine
//! simulator's memory model.

use crate::csr::{Csr, VertexId};
use std::collections::VecDeque;

/// Where a neighbor-state access is expected to hit, judged by the id gap
/// between the two endpoints: consecutive ids share cache lines, nearby ids
/// share the working set, far ids miss to DRAM. This is the standard
/// banded-matrix locality argument; shuffling ids (Figure 2 of the paper)
/// pushes almost every access into the DRAM class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalityProfile {
    /// Fraction of neighbor accesses expected to hit L1.
    pub l1: f64,
    /// Fraction expected to hit L2.
    pub l2: f64,
    /// Fraction expected to go to memory.
    pub dram: f64,
}

impl LocalityProfile {
    /// All-DRAM profile (worst case).
    pub fn worst() -> Self {
        LocalityProfile {
            l1: 0.0,
            l2: 0.0,
            dram: 1.0,
        }
    }

    /// All-L1 profile (best case).
    pub fn best() -> Self {
        LocalityProfile {
            l1: 1.0,
            l2: 0.0,
            dram: 0.0,
        }
    }

    /// Check the fractions form a distribution.
    pub fn is_valid(&self) -> bool {
        let s = self.l1 + self.l2 + self.dram;
        self.l1 >= 0.0 && self.l2 >= 0.0 && self.dram >= 0.0 && (s - 1.0).abs() < 1e-9
    }
}

/// Id-gap thresholds, in vertices, separating the L1 / L2 / DRAM classes.
/// The L2 window approximates a per-core 512 KiB L2 slice holding 8-byte
/// vertex state (64 Ki vertices). The L1 window is deliberately tight
/// (256 vertices): the adjacency stream continuously flows through the
/// 32 KiB L1, so only the most recently touched state lines survive there
/// and the bulk of banded-matrix locality lands in L2 — which is exactly
/// why the paper's *naturally ordered* runs still stress the memory
/// subsystem enough for SMT to matter.
#[derive(Clone, Copy, Debug)]
pub struct LocalityWindows {
    pub l1_gap: usize,
    pub l2_gap: usize,
}

impl Default for LocalityWindows {
    fn default() -> Self {
        LocalityWindows {
            l1_gap: 256,
            l2_gap: 64 * 1024,
        }
    }
}

/// Expected hit class of one neighbor-state access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemClass {
    L1,
    L2,
    Dram,
}

/// Classify the access `state[v]` made while processing `u`, by id gap.
#[inline]
pub fn gap_class(u: VertexId, v: VertexId, w: LocalityWindows) -> MemClass {
    let gap = (v as i64 - u as i64).unsigned_abs() as usize;
    if gap <= w.l1_gap {
        MemClass::L1
    } else if gap <= w.l2_gap {
        MemClass::L2
    } else {
        MemClass::Dram
    }
}

/// A vertex's degree and the L1 / L2 / DRAM split of its neighbour-state
/// accesses under [`gap_class`]: the integers every vertex-sweep workload
/// is priced from. They are exact and do not depend on the order of the
/// adjacency list, so they convert to the `f64` sums of 1.0 in any order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GapCounts {
    pub deg: u32,
    pub l1: u32,
    pub l2: u32,
    pub dram: u32,
}

impl GapCounts {
    /// The counts of vertex `u` over its neighbours `nbrs`, each mapped into
    /// `u`'s id space by `id` (the identity in natural order). The classes
    /// are counted as "within the L1 window" and "within either window",
    /// without a branch per neighbour.
    #[inline]
    pub fn of(
        u: VertexId,
        nbrs: &[VertexId],
        id: impl Fn(VertexId) -> VertexId,
        w: LocalityWindows,
    ) -> Self {
        let outer = w.l2_gap.max(w.l1_gap);
        let (mut near, mut mid) = (0u32, 0u32);
        for &v in nbrs {
            let gap = (id(v) as i64 - u as i64).unsigned_abs() as usize;
            near += (gap <= w.l1_gap) as u32;
            mid += (gap <= outer) as u32;
        }
        let deg = nbrs.len() as u32;
        GapCounts {
            deg,
            l1: near,
            l2: mid - near,
            dram: deg - mid,
        }
    }
}

/// The [`GapCounts`] of every vertex of `g`, indexed by id: the one pass
/// over the adjacency lists that every vertex-sweep workload is priced
/// from. With `perm` (`perm[old] = new`) these are the counts of
/// `g.permute(perm)`, read from `g` itself in storage order: old vertex `u`
/// is new id `perm[u]`, and each of its neighbours `v` counts
/// `gap_class(perm[u], perm[v])`. `None` is natural order, which needs no
/// identity array.
pub fn gap_counts(g: &Csr, perm: Option<&[VertexId]>, w: LocalityWindows) -> Vec<GapCounts> {
    match perm {
        None => g
            .vertices()
            .map(|u| GapCounts::of(u, g.neighbors(u), |v| v, w))
            .collect(),
        Some(perm) => {
            assert_eq!(perm.len(), g.num_vertices());
            let mut out = vec![GapCounts::default(); perm.len()];
            for (u, &i) in g.vertices().zip(perm) {
                out[i as usize] = GapCounts::of(i, g.neighbors(u), |v| perm[v as usize], w);
            }
            out
        }
    }
}

/// Summary statistics of a graph.
#[derive(Clone, Debug)]
pub struct GraphStats {
    pub num_vertices: usize,
    pub num_edges: usize,
    pub max_degree: usize,
    pub avg_degree: f64,
    /// Mean absolute id gap over directed edges.
    pub mean_gap: f64,
    /// Largest id gap (matrix bandwidth).
    pub bandwidth: usize,
    pub locality: LocalityProfile,
    pub components: usize,
}

/// Compute [`GraphStats`] with the given locality windows.
pub(crate) fn stats_with_windows(g: &Csr, w: LocalityWindows) -> GraphStats {
    assert!(w.l1_gap <= w.l2_gap, "l1 window must not exceed l2 window");
    let mut gap_sum = 0u64;
    let mut bandwidth = 0usize;
    let (mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64);
    let mut total = 0u64;
    for u in g.vertices() {
        for &v in g.neighbors(u) {
            let gap = (v as i64 - u as i64).unsigned_abs() as usize;
            gap_sum += gap as u64;
            bandwidth = bandwidth.max(gap);
            total += 1;
            if gap <= w.l1_gap {
                c1 += 1;
            } else if gap <= w.l2_gap {
                c2 += 1;
            } else {
                c3 += 1;
            }
        }
    }
    let locality = if total == 0 {
        LocalityProfile::best()
    } else {
        LocalityProfile {
            l1: c1 as f64 / total as f64,
            l2: c2 as f64 / total as f64,
            dram: c3 as f64 / total as f64,
        }
    };
    GraphStats {
        num_vertices: g.num_vertices(),
        num_edges: g.num_edges(),
        max_degree: g.max_degree(),
        avg_degree: g.avg_degree(),
        mean_gap: if total == 0 {
            0.0
        } else {
            gap_sum as f64 / total as f64
        },
        bandwidth,
        locality,
        components: connected_components(g),
    }
}

/// Compute [`GraphStats`] with [`LocalityWindows::default`].
pub fn stats(g: &Csr) -> GraphStats {
    stats_with_windows(g, LocalityWindows::default())
}

/// Number of connected components (iterative BFS, no recursion).
pub fn connected_components(g: &Csr) -> usize {
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    let mut count = 0;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if seen[s] {
            continue;
        }
        count += 1;
        seen[s] = true;
        queue.push_back(s as VertexId);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid2d, path, star, Stencil2};
    use crate::ordering::{apply, Ordering};

    #[test]
    fn path_stats() {
        let s = stats(&path(100));
        assert_eq!(s.num_vertices, 100);
        assert_eq!(s.num_edges, 99);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.bandwidth, 1);
        assert_eq!(s.components, 1);
        assert!((s.mean_gap - 1.0).abs() < 1e-12);
        assert!(s.locality.l1 > 0.999);
    }

    #[test]
    fn shuffle_moves_locality_to_dram() {
        let g = grid2d(600, 600, Stencil2::FivePoint); // 360k vertices
        let nat = stats(&g);
        let (h, _) = apply(&g, Ordering::Random { seed: 5 });
        let shuf = stats(&h);
        // With the tight L1 window, the row-major grid's horizontal
        // neighbors stay L1 but vertical ones (gap 600) land in L2; none
        // should reach DRAM.
        assert!(
            nat.locality.dram < 0.01,
            "natural grid should avoid DRAM, got {:?}",
            nat.locality
        );
        assert!(
            nat.locality.l1 > 0.4,
            "horizontal neighbors should be L1, got {:?}",
            nat.locality
        );
        assert!(
            shuf.locality.dram > 0.5,
            "shuffled grid should be DRAM-bound, got {:?}",
            shuf.locality
        );
        assert!(shuf.mean_gap > 50.0 * nat.mean_gap);
    }

    #[test]
    fn locality_profiles_are_distributions() {
        for g in [path(10), star(50), grid2d(20, 20, Stencil2::NinePoint)] {
            assert!(stats(&g).locality.is_valid());
        }
    }

    #[test]
    fn components_counted() {
        let mut b = crate::GraphBuilder::new(6);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        assert_eq!(connected_components(&g), 4); // {0,1},{2,3},{4},{5}
    }

    #[test]
    fn empty_graph_stats() {
        let s = stats(&crate::Csr::empty(0));
        assert_eq!(s.components, 0);
        assert!(s.locality.is_valid());
    }
}
