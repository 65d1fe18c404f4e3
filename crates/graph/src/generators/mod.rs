//! Synthetic graph generators.
//!
//! The paper's evaluation uses seven finite-element / structural-engineering
//! matrices from the UF Sparse Matrix Collection and the Parasol project.
//! Those exact matrices are not redistributable here, so [`crate::suite`]
//! builds calibrated stand-ins from the mesh-like generators in this module
//! (random geometric graphs in anisotropic boxes plus degree "hubs").
//! The remaining families (stencil grids, Erdős–Rényi, RMAT, paths, stars,
//! trees) serve tests, benchmarks and the pathological cases the paper
//! discusses (e.g. the long chain on which layered BFS has no parallelism).

mod er;
mod grid;
mod hubs;
mod rgg;
mod rmat;
mod special;

pub use er::erdos_renyi_gnm;
pub use grid::{grid2d, grid3d, Stencil2, Stencil3};
pub(crate) use hubs::graft_hubs;
#[cfg(test)]
pub(crate) use hubs::rebuilt_with_hubs;
pub use rgg::{rgg3d, rgg3d_builder, rgg3d_with_avg_degree, Box3};
pub use rmat::{rmat, RmatProbs};
pub use special::{balanced_binary_tree, complete, cycle, path, star};
