//! Breadth-first search: the sequential reference (Algorithm 6 of the
//! paper), the layered parallel algorithm (Algorithm 7) over three
//! next-frontier data structures, the paper's analytic model glue, and the
//! simulator instrumentation behind Figure 4.
//!
//! The three frontier structures are the heart of the paper's BFS study:
//!
//! - [`queue::block`] — the paper's novel **block-accessed shared queue**
//!   (§IV-C): one contiguous array, per-thread blocks reserved with a
//!   single fetch-and-add, sentinel padding instead of compaction
//!   (implemented in `mic_runtime::BlockQueue`; this module provides the
//!   BFS-side logic, in locked and *relaxed* flavors);
//! - [`queue::bag`] — the Leiserson–Schardl **bag** of pennants with a
//!   grain size, as in their Cilk work-efficient BFS;
//! - [`queue::tls`] — SNAP-style **thread-local queues** with a per-vertex
//!   lock (plus the paper's small improvement: test before locking),
//!   merged into a global queue at the end of each level.
//!
//! "Relaxed" means the Leiserson–Schardl observation the paper adopts:
//! the race on the level array is benign (whoever wins writes the same
//! value) and duplicate queue entries only cause bounded redundant work,
//! so the atomics can be dropped. Every variant here still produces
//! *exactly* the sequential BFS levels — property tests enforce it.
//!
//! Extensions beyond the paper's experiments: [`direction`]
//! (direction-optimizing BFS, sequential and parallel) and [`components`]
//! (label-propagation connected components), each behind a scale-free
//! exhibit.

pub mod components;
pub mod direction;
pub mod instrument;
pub mod parallel;
pub mod queue;
pub mod seq;
pub mod verify;

/// Level marker for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

pub use parallel::{parallel_bfs, BfsVariant};
pub use seq::{bfs, level_widths, BfsResult};
pub use verify::check_levels;
