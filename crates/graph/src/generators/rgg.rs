//! Random geometric graphs in anisotropic 3D boxes.
//!
//! RGGs are the closest purely synthetic analogue of assembled
//! finite-element matrices: bounded degree, strong geometric locality (so a
//! coordinate-sorted numbering is "natural" in the banded-matrix sense) and a
//! BFS level structure governed by the domain's aspect ratio. The paper's
//! test graphs are FE meshes of car bodies, doors and a wind tunnel — long or
//! flat domains — which is exactly what the anisotropic box reproduces.

use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Axis-aligned box `[0, x] × [0, y] × [0, z]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Box3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Box3 {
    /// A box with the given side lengths.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        assert!(x > 0.0 && y > 0.0 && z > 0.0, "box sides must be positive");
        Box3 { x, y, z }
    }

    /// Volume.
    pub(crate) fn volume(&self) -> f64 {
        self.x * self.y * self.z
    }
}

/// Random geometric graph: `n` uniform points in `bounds`, an edge whenever
/// two points are within Euclidean distance `radius`. The edges are
/// returned in a builder, so callers can add their own before the one
/// [`GraphBuilder::build`].
///
/// Vertices are numbered by sorting points lexicographically on
/// (x-slab, y-slab, z-slab, x), which produces a banded, locality-rich
/// "natural" ordering like an FE mesh numbering; shuffling this ordering (as
/// the paper does for Figure 2) destroys the locality.
fn rgg3d_edges(n: usize, bounds: Box3, radius: f64, seed: u64) -> GraphBuilder {
    assert!(radius > 0.0, "radius must be positive");
    let mut rng = StdRng::seed_from_u64(seed);

    // Cell grid with cell side = radius.
    let nx = (bounds.x / radius).ceil().max(1.0) as usize;
    let ny = (bounds.y / radius).ceil().max(1.0) as usize;
    let nz = (bounds.z / radius).ceil().max(1.0) as usize;
    let cell_of = |p: &[f64; 3]| -> (usize, usize, usize) {
        (
            ((p[0] / radius) as usize).min(nx - 1),
            ((p[1] / radius) as usize).min(ny - 1),
            ((p[2] / radius) as usize).min(nz - 1),
        )
    };
    // Flattened cell index; it orders cells as (cell_x, cell_y, cell_z) do.
    let flat = |(x, y, z): (usize, usize, usize)| (x * ny + y) * nz + z;

    // Natural numbering: sort by (cell_x, cell_y, cell_z, x), keyed on each
    // point's precomputed flat cell index.
    let mut keyed: Vec<(usize, [f64; 3])> = (0..n)
        .map(|_| {
            let p = [
                rng.gen::<f64>() * bounds.x,
                rng.gen::<f64>() * bounds.y,
                rng.gen::<f64>() * bounds.z,
            ];
            (flat(cell_of(&p)), p)
        })
        .collect();
    keyed.sort_unstable_by(|(ca, a), (cb, b)| {
        ca.cmp(cb)
            .then(a[0].partial_cmp(&b[0]).unwrap_or(std::cmp::Ordering::Equal))
    });

    // Every cell is now a contiguous run of `pts`, in flat-index order.
    let ncells = nx * ny * nz;
    let mut cell_start = vec![0usize; ncells + 1];
    for &(c, _) in &keyed {
        cell_start[c + 1] += 1;
    }
    for i in 0..ncells {
        cell_start[i + 1] += cell_start[i];
    }
    let pts: Vec<[f64; 3]> = keyed.into_iter().map(|(_, p)| p).collect();

    // Of point i's 27 neighbor cells, only the forward ones hold j > i: the
    // rest of its own cell plus its +z cell, and the three z-cells of each
    // forward (dx, dy) column. Each of those is one contiguous run.
    let r2 = radius * radius;
    let mut b = GraphBuilder::with_capacity(n, n * 8);
    for i in 0..n {
        let p = pts[i];
        let (cx, cy, cz) = cell_of(&p);
        let (z0, z1) = (cz.saturating_sub(1), (cz + 1).min(nz - 1));
        let mut scan = |lo: usize, hi: usize| {
            for (j, q) in (lo..hi).zip(&pts[lo..hi]) {
                let d2 = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2);
                if d2 <= r2 {
                    b.add_edge(i as VertexId, j as VertexId);
                }
            }
        };
        scan(i + 1, cell_start[flat((cx, cy, z1)) + 1]);
        for (dx, dy) in [(0, 1), (1, -1), (1, 0), (1, 1)] {
            let (x, y) = (cx + dx, cy.wrapping_add_signed(dy));
            if x < nx && y < ny {
                scan(
                    cell_start[flat((x, y, z0))],
                    cell_start[flat((x, y, z1)) + 1],
                );
            }
        }
    }
    b
}

/// Choose the radius so the *expected* average degree is `target_deg`
/// (ignoring boundary effects, which lower it slightly), then generate.
pub fn rgg3d_with_avg_degree(n: usize, bounds: Box3, target_deg: f64, seed: u64) -> Csr {
    rgg3d_builder(n, bounds, target_deg, seed).build()
}

/// [`rgg3d_with_avg_degree`]'s edges in a builder that has not built yet.
pub(crate) fn rgg3d_builder(n: usize, bounds: Box3, target_deg: f64, seed: u64) -> GraphBuilder {
    assert!(target_deg > 0.0);
    // E[deg] = (n - 1) * (4/3 π r³) / V  =>  r = cbrt(3 V d / (4 π (n-1)))
    let v = bounds.volume();
    let r = (3.0 * v * target_deg / (4.0 * std::f64::consts::PI * (n as f64 - 1.0))).cbrt();
    rgg3d_edges(n, bounds, r, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CUBE: Box3 = Box3 {
        x: 1.0,
        y: 1.0,
        z: 1.0,
    };

    fn rgg3d(n: usize, bounds: Box3, radius: f64, seed: u64) -> Csr {
        rgg3d_edges(n, bounds, radius, seed).build()
    }

    #[test]
    fn deterministic_for_seed() {
        let a = rgg3d(500, CUBE, 0.12, 42);
        let b = rgg3d(500, CUBE, 0.12, 42);
        assert_eq!(a, b);
        let c = rgg3d(500, CUBE, 0.12, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn avg_degree_close_to_target() {
        let g = rgg3d_with_avg_degree(4000, CUBE, 20.0, 7);
        let d = g.avg_degree();
        // Boundary effects shave some degree off; accept a generous band.
        assert!(d > 12.0 && d < 24.0, "avg degree {d} out of band");
        assert!(g.check_invariants());
    }

    #[test]
    fn elongated_box_has_long_bfs_structure() {
        // In a 16:1:1 box the coordinate-sorted numbering should put
        // neighbors close in id: mean id gap much smaller than n.
        let g = rgg3d_with_avg_degree(3000, Box3::new(16.0, 1.0, 1.0), 15.0, 9);
        let n = g.num_vertices() as f64;
        let mut gap_sum = 0.0;
        let mut cnt = 0.0;
        for (u, v) in g.edges() {
            gap_sum += (v as f64 - u as f64).abs();
            cnt += 1.0;
        }
        assert!(cnt > 0.0);
        assert!(gap_sum / cnt < n / 8.0, "ordering lacks locality");
    }

    #[test]
    fn tiny_inputs() {
        let g = rgg3d(0, CUBE, 0.5, 1);
        assert_eq!(g.num_vertices(), 0);
        let g = rgg3d(1, CUBE, 0.5, 1);
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
        // Radius larger than the box: complete graph.
        let g = rgg3d(20, CUBE, 2.0, 1);
        assert_eq!(g.num_edges(), 20 * 19 / 2);
    }
}
