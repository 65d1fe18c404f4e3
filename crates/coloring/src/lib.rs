//! Graph coloring: sequential greedy (Algorithm 1 of the paper) and the
//! parallel iterative speculative algorithm (Algorithms 2–4), under all
//! three programming models.
//!
//! The parallel algorithm is Gebremedhin–Manne speculation made iterative
//! (Bozdağ et al., then Çatalyürek et al., whose OpenMP implementation the
//! paper ports to MIC): color all vertices optimistically in parallel, then
//! detect conflicts (adjacent same-colored pairs) in a second parallel
//! sweep, and re-color the conflicting vertices in the next round.
//! "The graph is traversed at least twice — once for coloring and once for
//! detecting eventual conflicts."
//!
//! - [`seq`]: Algorithm 1 (`SeqGreedyColoring`) with pluggable vertex
//!   orderings — First Fit on the natural order gives the paper's Table I
//!   color counts;
//! - [`parallel`]: Algorithms 2–4 with the runtime model (OpenMP schedule,
//!   Cilk grain with holder or worker-id TLS, TBB partitioner) as a
//!   parameter — the axis of Figure 1;
//! - [`verify`]: proper-coloring checks used by every test;
//! - [`instrument`]: per-vertex [`mic_sim::Work`] descriptors of the same
//!   algorithm, which `mic-sim` schedules to regenerate Figures 1 and 2.
//!
//! Extensions beyond the paper's experiments: [`mis`] (Luby's maximal
//! independent set) and [`distance2`] (greedy + speculative-parallel
//! distance-2, the Jacobian-compression variant the paper motivates).

pub mod distance2;
pub mod instrument;
pub mod mis;
pub mod parallel;
pub mod seq;
pub mod verify;

/// Marker for "not yet colored".
pub const UNCOLORED: u32 = u32::MAX;

pub use parallel::{iterative_coloring, ParallelColoring, RuntimeModel};
pub use seq::{greedy_color, Coloring};
pub use verify::{check_proper, num_colors_used};
