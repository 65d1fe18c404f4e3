//! Synchronous label propagation run round by round: the definition that
//! `components_sync`'s flood fill must reproduce. Shared by the unit tests
//! in `src/components.rs` and by `props.rs`.

use mic_graph::{Csr, VertexId};

/// `(labels, count, rounds)` of Jacobi min-label sweeps run to the fixed
/// point, counting the round that detects it.
pub fn jacobi_components(g: &Csr) -> (Vec<VertexId>, usize, usize) {
    let n = g.num_vertices();
    let mut labels: Vec<VertexId> = (0..n as VertexId).collect();
    let mut next = labels.clone();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut changed = false;
        for v in 0..n {
            let mut m = labels[v];
            for &w in g.neighbors(v as VertexId) {
                m = m.min(labels[w as usize]);
            }
            if m != labels[v] {
                changed = true;
            }
            next[v] = m;
        }
        std::mem::swap(&mut labels, &mut next);
        if !changed {
            break;
        }
    }
    let count = labels
        .iter()
        .enumerate()
        .filter(|&(v, &l)| l == v as VertexId)
        .count();
    (labels, count, rounds)
}
