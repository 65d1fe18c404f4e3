//! Compressed sparse row representation of undirected simple graphs.

/// Vertex identifier. The paper's largest graph (`ldoor`) has fewer than a
/// million vertices, so 32 bits are ample and halve the memory traffic of the
/// adjacency array — which matters, since every kernel in the paper is
/// memory-bound.
pub type VertexId = u32;

/// An undirected simple graph in compressed sparse row (CSR) form.
///
/// Both directions of every edge are stored, so `adj.len() == 2 * |E|`.
/// Adjacency lists are sorted ascending and contain no duplicates or self
/// loops. Construction goes through [`crate::builder::GraphBuilder`] (or the
/// unchecked [`Csr::from_parts`] for generators that can guarantee the
/// invariants directly).
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    xadj: Vec<usize>,
    adj: Vec<VertexId>,
}

impl Csr {
    /// Build from raw CSR arrays. `xadj` must have length `n + 1`, start at
    /// zero, be non-decreasing and end at `adj.len()`; each adjacency segment
    /// must be sorted, duplicate-free, self-loop-free, and symmetric (if `u`
    /// lists `v`, then `v` lists `u`).
    ///
    /// # Panics
    /// Panics (cheap structural checks always; full symmetry check only in
    /// debug builds) if the invariants do not hold.
    pub fn from_parts(xadj: Vec<usize>, adj: Vec<VertexId>) -> Self {
        assert!(!xadj.is_empty(), "xadj must have length n + 1 >= 1");
        assert_eq!(xadj[0], 0, "xadj must start at 0");
        assert_eq!(
            *xadj.last().unwrap(),
            adj.len(),
            "xadj must end at adj.len()"
        );
        assert!(
            xadj.windows(2).all(|w| w[0] <= w[1]),
            "xadj must be non-decreasing"
        );
        let n = xadj.len() - 1;
        assert!(n <= VertexId::MAX as usize, "too many vertices for u32 ids");
        let g = Csr { xadj, adj };
        debug_assert!(g.check_invariants(), "CSR invariants violated");
        g
    }

    /// Full invariant check: sortedness, no duplicates, no self loops, ids in
    /// range, symmetry. O(|E| log Δ). Used by `debug_assert!` and tests.
    pub fn check_invariants(&self) -> bool {
        let n = self.num_vertices();
        for v in 0..n as VertexId {
            let nbrs = self.neighbors(v);
            for w in nbrs.windows(2) {
                if w[0] >= w[1] {
                    return false; // unsorted or duplicate
                }
            }
            for &w in nbrs {
                if w == v || w as usize >= n {
                    return false; // self loop or out of range
                }
                if self.neighbors(w).binary_search(&v).is_err() {
                    return false; // asymmetric
                }
            }
        }
        true
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Largest degree Δ (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree 2|E| / |V| (0.0 for the empty graph).
    pub(crate) fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.adj.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Whether the edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The raw offset array (length `n + 1`).
    #[inline]
    pub(crate) fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// The raw adjacency array (length `2 |E|`).
    #[inline]
    pub(crate) fn adj(&self) -> &[VertexId] {
        &self.adj
    }

    /// Relabel vertices: `perm[old] = new`. `perm` must be a permutation of
    /// `0..n`. Adjacency lists of the result are re-sorted.
    ///
    /// # Panics
    /// Panics if `perm` has the wrong length or is not a permutation.
    pub fn permute(&self, perm: &[VertexId]) -> Csr {
        let n = self.num_vertices();
        assert_eq!(perm.len(), n, "permutation length must equal |V|");
        // Validate it is a permutation.
        let mut seen = vec![false; n];
        for &p in perm {
            assert!((p as usize) < n && !seen[p as usize], "not a permutation");
            seen[p as usize] = true;
        }
        let inv = crate::ordering::inverse(perm);
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0usize);
        for new in 0..n {
            let old = inv[new] as usize;
            xadj.push(xadj[new] + (self.xadj[old + 1] - self.xadj[old]));
        }
        let mut adj = vec![0 as VertexId; self.adj.len()];
        for new in 0..n {
            let old = inv[new];
            let dst = &mut adj[xadj[new]..xadj[new + 1]];
            for (slot, &w) in dst.iter_mut().zip(self.neighbors(old)) {
                *slot = perm[w as usize];
            }
            dst.sort_unstable();
        }
        Csr { xadj, adj }
    }

    /// Graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Csr {
        Csr {
            xadj: vec![0; n + 1],
            adj: Vec::new(),
        }
    }
}

impl std::fmt::Debug for Csr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Csr {{ |V| = {}, |E| = {} }}",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle_plus_pendant() -> Csr {
        // 0-1, 1-2, 0-2 triangle; 2-3 pendant.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn has_edge_and_edges_iter() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.check_invariants());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Csr::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn permute_identity() {
        let g = triangle_plus_pendant();
        let perm: Vec<VertexId> = (0..4).collect();
        assert_eq!(g.permute(&perm), g);
    }

    #[test]
    fn permute_reverse_preserves_structure() {
        let g = triangle_plus_pendant();
        let perm: Vec<VertexId> = vec![3, 2, 1, 0];
        let h = g.permute(&perm);
        assert!(h.check_invariants());
        assert_eq!(h.num_edges(), g.num_edges());
        // old 2 (degree 3) is now vertex 1
        assert_eq!(h.degree(1), 3);
        assert!(h.has_edge(3, 2)); // old (0,1)
        assert!(h.has_edge(1, 0)); // old (2,3)
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_duplicates() {
        let g = triangle_plus_pendant();
        g.permute(&[0, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "xadj must start at 0")]
    fn from_parts_rejects_bad_offset() {
        let _ = Csr::from_parts(vec![1, 2], vec![0]);
    }

    #[test]
    fn invariant_check_catches_asymmetry() {
        // 0 lists 1 but 1 does not list 0.
        let g = Csr {
            xadj: vec![0, 1, 1],
            adj: vec![1],
        };
        assert!(!g.check_invariants());
    }

    #[test]
    fn invariant_check_catches_self_loop() {
        let g = Csr {
            xadj: vec![0, 1],
            adj: vec![0],
        };
        assert!(!g.check_invariants());
    }
}
