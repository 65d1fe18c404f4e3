//! Sequential FIFO breadth-first search (Algorithm 6 of the paper).

use crate::UNREACHED;
use mic_graph::{Csr, VertexId};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Result of a BFS: per-vertex levels (source = 0, unreached =
/// [`UNREACHED`]) and the number of levels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsResult {
    pub levels: Vec<u32>,
    /// Number of distinct levels reached (Table I's `#Level`); equals
    /// `max level + 1` of the source's component.
    pub num_levels: u32,
}

/// Algorithm 6: FIFO BFS from `source`.
pub fn bfs(g: &Csr, source: VertexId) -> BfsResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut levels = vec![UNREACHED; n];
    let mut fifo = VecDeque::new();
    levels[source as usize] = 0;
    fifo.push_back(source);
    let mut max_level = 0u32;
    while let Some(v) = fifo.pop_front() {
        let next = levels[v as usize] + 1;
        for &w in g.neighbors(v) {
            if levels[w as usize] == UNREACHED {
                levels[w as usize] = next;
                max_level = max_level.max(next);
                fifo.push_back(w);
            }
        }
    }
    BfsResult {
        levels,
        num_levels: max_level + 1,
    }
}

/// Level widths `x_l` (the input of the paper's performance model): the
/// number of vertices at each level, ignoring unreached vertices.
pub fn level_widths(levels: &[u32]) -> Vec<usize> {
    let max = levels.iter().copied().filter(|&l| l != UNREACHED).max();
    let Some(max) = max else { return Vec::new() };
    let mut widths = vec![0usize; max as usize + 1];
    for &l in levels {
        if l != UNREACHED {
            widths[l as usize] += 1;
        }
    }
    widths
}

/// Vertices of the source's component grouped by level, in level order —
/// the visit order used by the simulator instrumentation.
fn vertices_by_level(levels: &[u32]) -> Vec<Vec<VertexId>> {
    let widths = level_widths(levels);
    let mut by_level: Vec<Vec<VertexId>> = widths.iter().map(|&w| Vec::with_capacity(w)).collect();
    for (v, &l) in levels.iter().enumerate() {
        if l != UNREACHED {
            by_level[l as usize].push(v as VertexId);
        }
    }
    by_level
}

/// [`vertices_by_level`] as one flat array, shared by every workload priced
/// over it, and the level widths `x_l` that cut it into levels.
#[derive(Clone, Debug)]
pub struct LevelOrder {
    pub order: Arc<[VertexId]>,
    pub widths: Vec<usize>,
}

impl LevelOrder {
    /// The order of a BFS that reached each vertex at `levels[v]`
    /// ([`UNREACHED`] if never).
    pub fn of(levels: &[u32]) -> LevelOrder {
        let by_level = vertices_by_level(levels);
        let widths = by_level.iter().map(Vec::len).collect();
        LevelOrder {
            order: by_level.concat().into(),
            widths,
        }
    }

    /// The index range of each level in `order`, in level order.
    pub fn levels(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.widths.iter().scan(0, |start, &w| {
            let r = *start..*start + w;
            *start += w;
            Some(r)
        })
    }
}

/// The paper's Table I convention: BFS from vertex `|V| / 2`.
pub fn table1_source(g: &Csr) -> VertexId {
    (g.num_vertices() / 2) as VertexId
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_graph::generators::{balanced_binary_tree, cycle, grid2d, path, star, Stencil2};
    use mic_graph::GraphBuilder;

    #[test]
    fn path_levels() {
        let g = path(5);
        let r = bfs(&g, 0);
        assert_eq!(r.levels, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.num_levels, 5);
        assert_eq!(level_widths(&r.levels), vec![1; 5]);
    }

    #[test]
    fn path_from_middle() {
        let g = path(5);
        let r = bfs(&g, 2);
        assert_eq!(r.levels, vec![2, 1, 0, 1, 2]);
        assert_eq!(level_widths(&r.levels), vec![1, 2, 2]);
    }

    #[test]
    fn star_two_levels() {
        let r = bfs(&star(10), 0);
        assert_eq!(r.num_levels, 2);
        assert_eq!(level_widths(&r.levels), vec![1, 9]);
    }

    #[test]
    fn cycle_levels() {
        let r = bfs(&cycle(6), 0);
        assert_eq!(r.num_levels, 4); // 0 | 1,5 | 2,4 | 3
        assert_eq!(level_widths(&r.levels), vec![1, 2, 2, 1]);
    }

    #[test]
    fn tree_levels_are_depths() {
        let g = balanced_binary_tree(15);
        let r = bfs(&g, 0);
        assert_eq!(level_widths(&r.levels), vec![1, 2, 4, 8]);
    }

    #[test]
    fn disconnected_unreached() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        let g = b.build();
        let r = bfs(&g, 0);
        assert_eq!(r.levels, vec![0, 1, UNREACHED, UNREACHED]);
        assert_eq!(r.num_levels, 2);
        assert_eq!(level_widths(&r.levels), vec![1, 1]);
    }

    #[test]
    fn grid_diameter() {
        let g = grid2d(10, 10, Stencil2::FivePoint);
        let r = bfs(&g, 0);
        assert_eq!(r.num_levels, 19); // Manhattan diameter + 1
    }

    #[test]
    fn vertices_by_level_partitions() {
        let g = grid2d(8, 8, Stencil2::FivePoint);
        let r = bfs(&g, 0);
        let by = LevelOrder::of(&r.levels);
        assert_eq!(by.order.len(), 64);
        assert_eq!(by.widths.len() as u32, r.num_levels);
        for (l, range) in by.levels().enumerate() {
            let vs = &by.order[range];
            assert!(vs.iter().all(|&v| r.levels[v as usize] == l as u32));
            assert!(vs.windows(2).all(|p| p[0] < p[1]), "level {l} ascends");
        }
    }
}
