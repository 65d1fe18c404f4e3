//! Edge-accumulating graph builder.
//!
//! RMAT, Erdős–Rényi, the stencil grids, the special families, the Matrix
//! Market and edge-list readers and the tests build through it. The suite's
//! meshes do not: [`crate::generators::rgg3d_with_avg_degree`] emits each
//! pair once from its lower id and fills the CSR directly.

use crate::csr::{Csr, VertexId};

/// Accumulates undirected edges and produces a clean [`Csr`].
///
/// Self loops are dropped, duplicate edges (in either orientation) are
/// merged, and the result is symmetric with sorted adjacency lists. The
/// build is two counting passes plus a per-vertex sort/dedup — O(|E| log Δ).
///
/// ```
/// use mic_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.extend([(0, 1), (1, 2), (2, 1), (3, 3)]); // dup + self loop dropped
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= VertexId::MAX as usize, "too many vertices for u32 ids");
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocate space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of vertices the builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Add an undirected edge `{u, v}`. Self loops are silently ignored;
    /// duplicates are merged at build time.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "vertex id out of range"
        );
        if u != v {
            self.edges.push((u, v));
        }
    }

    /// Add every edge from an iterator of pairs.
    pub fn extend<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
    }

    /// Build the CSR graph, consuming the builder.
    pub fn build(self) -> Csr {
        let n = self.n;
        // Degree count (both directions).
        let mut xadj = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            xadj[u as usize + 1] += 1;
            xadj[v as usize + 1] += 1;
        }
        for i in 0..n {
            xadj[i + 1] += xadj[i];
        }
        // Fill.
        let mut cursor = xadj.clone();
        let mut adj = vec![0 as VertexId; self.edges.len() * 2];
        for &(u, v) in &self.edges {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        drop(self.edges);
        // Sort and dedup each segment, compacting in place.
        let mut write = 0usize;
        let mut new_xadj = vec![0usize; n + 1];
        for v in 0..n {
            let (start, end) = (xadj[v], xadj[v + 1]);
            adj[start..end].sort_unstable();
            let mut prev: Option<VertexId> = None;
            for i in start..end {
                let w = adj[i];
                if prev != Some(w) {
                    adj[write] = w;
                    write += 1;
                    prev = Some(w);
                }
            }
            new_xadj[v + 1] = write;
        }
        adj.truncate(write);
        adj.shrink_to_fit();
        Csr::from_parts(new_xadj, adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_symmetrize() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // duplicate, reversed
        b.add_edge(0, 1); // duplicate, same
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.check_invariants());
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        b.add_edge(1, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn no_edges() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn extend_from_iter() {
        let mut b = GraphBuilder::new(4);
        b.extend([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
    }
}
