//! The paper's irregular-computation microbenchmark (Algorithm 5) and two
//! mini-apps built on the same access pattern.
//!
//! Each vertex holds a double-precision state; a sweep replaces it by the
//! average of its own and its neighbors' states. The `iter` parameter
//! repeats the summation per vertex, scaling the computation while the
//! communication (the neighbor reads) stays cached after the first pass —
//! the paper's knob for the compute-to-communication ratio (Figure 3).
//! The paper notes the kernel "is a reasonable abstraction of a single
//! iteration of algorithms such as PageRank or Heat Equation solvers";
//! [`apps`] supplies exactly those two as runnable mini-apps.
//!
//! - [`kernel`]: Algorithm 5, sequential and parallel under all three
//!   runtime models, in the paper's in-place form (benign races included)
//!   and a deterministic Jacobi (double-buffered) form;
//! - [`apps`]: PageRank and heat diffusion;
//! - [`instrument`]: per-vertex [`mic_sim::Work`] descriptors for Figure 3.

pub mod apps;
pub mod instrument;
pub mod kernel;

pub use kernel::{irregular_inplace, irregular_jacobi};
