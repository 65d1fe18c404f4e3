//! Random geometric graphs in anisotropic 3D boxes.
//!
//! RGGs are the closest purely synthetic analogue of assembled
//! finite-element matrices: bounded degree, strong geometric locality (so a
//! coordinate-sorted numbering is "natural" in the banded-matrix sense) and a
//! BFS level structure governed by the domain's aspect ratio. The paper's
//! test graphs are FE meshes of car bodies, doors and a wind tunnel — long or
//! flat domains — which is exactly what the anisotropic box reproduces.
//!
//! A mesh is built by source, straight into its CSR: no edge list and no
//! [`crate::GraphBuilder`] (which RMAT, Matrix Market, the other generators
//! and the tests keep using).

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

/// `n` uniform points in a box, numbered in natural order, on a cell grid
/// of side `radius`: cell `(x, y, z)` is the id run
/// `start[flat(x, y, z)]..start[flat(x, y, z) + 1]`.
struct Points {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    start: Vec<usize>,
    dims: [usize; 3],
}

impl Points {
    /// Vertices are numbered by sorting points lexicographically on
    /// (x-slab, y-slab, z-slab, x), which produces a banded, locality-rich
    /// "natural" ordering like an FE mesh numbering; shuffling this ordering
    /// (as the paper does for Figure 2) destroys the locality.
    fn draw(n: usize, bounds: Box3, radius: f64, seed: u64) -> Self {
        assert!(radius > 0.0, "radius must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let side = |len: f64| (len / radius).ceil().max(1.0) as usize;
        let dims = [side(bounds.x), side(bounds.y), side(bounds.z)];
        let flat = |p: &[f64; 3]| {
            let c = |k: usize| ((p[k] / radius) as usize).min(dims[k] - 1);
            (c(0) * dims[1] + c(1)) * dims[2] + c(2)
        };
        let mut keyed: Vec<(usize, [f64; 3])> = (0..n)
            .map(|_| {
                let p = [
                    rng.gen::<f64>() * bounds.x,
                    rng.gen::<f64>() * bounds.y,
                    rng.gen::<f64>() * bounds.z,
                ];
                (flat(&p), p)
            })
            .collect();
        keyed.sort_unstable_by(|(ca, a), (cb, b)| {
            ca.cmp(cb)
                .then(a[0].partial_cmp(&b[0]).unwrap_or(std::cmp::Ordering::Equal))
        });
        let mut start = vec![0usize; dims.iter().product::<usize>() + 1];
        for &(c, _) in &keyed {
            start[c + 1] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let coord = |k: usize| keyed.iter().map(|(_, p)| p[k]).collect();
        Points {
            xs: coord(0),
            ys: coord(1),
            zs: coord(2),
            start,
            dims,
        }
    }

    fn flat(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.dims[1] + y) * self.dims[2] + z
    }

    /// The ids of cells `(x, y, z0..=z1)`, one run since `z` is innermost.
    fn column(&self, x: usize, y: usize, z0: usize, z1: usize) -> std::ops::Range<usize> {
        self.start[self.flat(x, y, z0)]..self.start[self.flat(x, y, z1) + 1]
    }
}

/// Random geometric graph: `n` uniform points in `bounds`, an edge whenever
/// two points are within Euclidean distance `radius`, plus the undirected
/// `extra` edges (hub spokes; self loops are not allowed, repeats are).
///
/// Each pair is found once, from its lower id: of point `i`'s 27 neighbour
/// cells only the forward ones hold `j > i` — the rest of its own cell plus
/// its +z cell, then the four forward `(dx, dy)` columns — and they are
/// scanned in increasing flat-cell order, so `i`'s forward list comes out
/// ascending. The CSR row of `v` is its backward half, scattered in source
/// order (so ascending, and all below `v`), followed by its forward half:
/// sorted, with no per-list sort. Only a list that gains an extra edge is
/// sorted again.
fn rgg3d(n: usize, bounds: Box3, radius: f64, seed: u64, extra: Vec<(VertexId, VertexId)>) -> Csr {
    let (off, fwd) = forward_lists(n, bounds, radius, seed, extra);
    let mut xadj = vec![0usize; n + 1];
    for &w in &fwd {
        xadj[w as usize + 1] += 1;
    }
    for v in 0..n {
        xadj[v + 1] += xadj[v] + (off[v + 1] - off[v]);
    }
    let mut adj = vec![0 as VertexId; 2 * fwd.len()];
    let mut next = xadj[..n].to_vec();
    for v in 0..n {
        let f = &fwd[off[v]..off[v + 1]];
        adj[xadj[v + 1] - f.len()..xadj[v + 1]].copy_from_slice(f);
        for &w in f {
            adj[next[w as usize]] = v as VertexId;
            next[w as usize] += 1;
        }
    }
    Csr::from_parts(xadj, adj)
}

/// Every point's forward neighbours, ascending: `fwd[off[i]..off[i + 1]]`.
fn forward_lists(
    n: usize,
    bounds: Box3,
    radius: f64,
    seed: u64,
    mut extra: Vec<(VertexId, VertexId)>,
) -> (Vec<usize>, Vec<VertexId>) {
    let pts = Points::draw(n, bounds, radius, seed);
    let Points { xs, ys, zs, .. } = &pts;
    let [nx, ny, nz] = pts.dims;
    // Each extra edge joins its lower end's list once, unless the mesh has it.
    for e in &mut extra {
        *e = (e.0.min(e.1), e.0.max(e.1));
    }
    extra.sort_unstable();
    extra.dedup();
    let mut extra = extra.as_slice();

    let r2 = radius * radius;
    let mut off = Vec::with_capacity(n + 1);
    off.push(0);
    let mut fwd = Vec::new();
    let mut buf: Vec<VertexId> = Vec::new();
    for c in 0..pts.start.len() - 1 {
        let (cx, cy, cz) = (c / (ny * nz), c / nz % ny, c % nz);
        let (z0, z1) = (cz.saturating_sub(1), (cz + 1).min(nz - 1));
        let own_end = pts.column(cx, cy, cz, z1).end;
        let cols = [(0, 1), (1, -1), (1, 0), (1, 1)].map(|(dx, dy)| {
            let (x, y) = (cx + dx, cy.wrapping_add_signed(dy));
            if x < nx && y < ny {
                pts.column(x, y, z0, z1)
            } else {
                0..0
            }
        });
        let most = own_end - pts.start[c] + cols.iter().map(|r| r.len()).sum::<usize>();
        if buf.len() < most {
            buf.resize(most, 0);
        }
        for i in pts.start[c]..pts.start[c + 1] {
            let (px, py, pz) = (xs[i], ys[i], zs[i]);
            // Write every candidate, keep the ones in range: no branch.
            let mut len = 0;
            for run in std::iter::once(i + 1..own_end).chain(cols.iter().cloned()) {
                let q = xs[run.clone()]
                    .iter()
                    .zip(&ys[run.clone()])
                    .zip(&zs[run.clone()]);
                for (j, ((qx, qy), qz)) in run.zip(q) {
                    let d2 = (px - qx).powi(2) + (py - qy).powi(2) + (pz - qz).powi(2);
                    buf[len] = j as VertexId;
                    len += (d2 <= r2) as usize;
                }
            }
            let list = &buf[..len];
            let first = fwd.len();
            fwd.extend_from_slice(list);
            while let Some(&(_, b)) = extra.first().filter(|e| e.0 as usize == i) {
                if list.binary_search(&b).is_err() {
                    fwd.push(b);
                }
                extra = &extra[1..];
            }
            if fwd.len() > first + len {
                fwd[first..].sort_unstable();
            }
            off.push(fwd.len());
        }
    }
    (off, fwd)
}

/// A random geometric graph whose radius is chosen so the *expected* average
/// degree is `target_deg` (ignoring boundary effects, which lower it
/// slightly). Fewer than two points have no edges.
pub fn rgg3d_with_avg_degree(n: usize, bounds: Box3, target_deg: f64, seed: u64) -> Csr {
    rgg3d_with_extra(n, bounds, target_deg, seed, Vec::new())
}

/// [`rgg3d_with_avg_degree`] with the undirected `extra` edges merged in.
pub(crate) fn rgg3d_with_extra(
    n: usize,
    bounds: Box3,
    target_deg: f64,
    seed: u64,
    extra: Vec<(VertexId, VertexId)>,
) -> Csr {
    assert!(target_deg > 0.0);
    if n < 2 {
        return Csr::empty(n);
    }
    rgg3d(n, bounds, radius_for(n, bounds, target_deg), seed, extra)
}

/// The radius at which `n ≥ 2` points in `bounds` have expected degree `d`.
fn radius_for(n: usize, bounds: Box3, d: f64) -> f64 {
    // E[deg] = (n - 1) * (4/3 π r³) / V  =>  r = cbrt(3 V d / (4 π (n-1)))
    (3.0 * bounds.volume() * d / (4.0 * std::f64::consts::PI * (n as f64 - 1.0))).cbrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::hub_edges;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    const CUBE: Box3 = Box3 {
        x: 1.0,
        y: 1.0,
        z: 1.0,
    };

    fn rgg(n: usize, bounds: Box3, radius: f64, seed: u64) -> Csr {
        rgg3d(n, bounds, radius, seed, Vec::new())
    }

    /// The edge-list build over the same points: every forward pair and
    /// every extra edge into a [`GraphBuilder`], which sorts and dedups.
    fn edge_list_reference(
        n: usize,
        bounds: Box3,
        radius: f64,
        seed: u64,
        extra: &[(VertexId, VertexId)],
    ) -> Csr {
        let pts = Points::draw(n, bounds, radius, seed);
        let [nx, ny, nz] = pts.dims;
        let r2 = radius * radius;
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            let p = [pts.xs[i], pts.ys[i], pts.zs[i]];
            let cell = |k: usize| ((p[k] / radius) as usize).min(pts.dims[k] - 1);
            let (cx, cy, cz) = (cell(0), cell(1), cell(2));
            let (z0, z1) = (cz.saturating_sub(1), (cz + 1).min(nz - 1));
            let mut scan = |lo: usize, hi: usize| {
                for j in lo..hi {
                    let q = [pts.xs[j], pts.ys[j], pts.zs[j]];
                    let d2 = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2);
                    if d2 <= r2 {
                        b.add_edge(i as VertexId, j as VertexId);
                    }
                }
            };
            scan(i + 1, pts.start[pts.flat(cx, cy, z1) + 1]);
            for (dx, dy) in [(0, 1), (1, -1), (1, 0), (1, 1)] {
                let (x, y) = (cx + dx, cy.wrapping_add_signed(dy));
                if x < nx && y < ny {
                    scan(
                        pts.start[pts.flat(x, y, z0)],
                        pts.start[pts.flat(x, y, z1) + 1],
                    );
                }
            }
        }
        b.extend(extra.iter().copied());
        b.build()
    }

    proptest! {
        #[test]
        fn by_source_matches_the_edge_list_reference(
            n in 0usize..2000,
            sides in (0.2f64..8.0, 0.2f64..3.0, 0.2f64..3.0),
            deg in 0.5f64..40.0,
            seed in any::<u64>(),
            hubs in (0usize..4, 1usize..80, 0usize..400, any::<u64>()),
        ) {
            let bounds = Box3::new(sides.0, sides.1, sides.2);
            let extra = hub_edges(n, hubs.0, hubs.1, hubs.2, hubs.3);
            let got = rgg3d_with_extra(n, bounds, deg, seed, extra.clone());
            let want = match n {
                0 | 1 => Csr::empty(n),
                _ => edge_list_reference(n, bounds, radius_for(n, bounds, deg), seed, &extra),
            };
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = rgg(500, CUBE, 0.12, 42);
        let b = rgg(500, CUBE, 0.12, 42);
        assert_eq!(a, b);
        let c = rgg(500, CUBE, 0.12, 43);
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
        let g = rgg(0, CUBE, 0.5, 1);
        assert_eq!(g.num_vertices(), 0);
        let g = rgg(1, CUBE, 0.5, 1);
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
        // Radius larger than the box: complete graph.
        let g = rgg(20, CUBE, 2.0, 1);
        assert_eq!(g.num_edges(), 20 * 19 / 2);
    }

    #[test]
    fn fewer_than_two_points_by_degree_are_edgeless() {
        for n in [0, 1] {
            let g = rgg3d_with_avg_degree(n, CUBE, 20.0, 3);
            assert_eq!((g.num_vertices(), g.num_edges()), (n, 0));
        }
    }
}
