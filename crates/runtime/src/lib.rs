//! Re-implementations of the three programming models the paper evaluates —
//! OpenMP, Cilk Plus and Intel TBB — on top of a small persistent thread
//! pool, plus the concurrent building blocks the kernels share.
//!
//! The paper's comparison dimension is the *scheduling discipline* of each
//! model, not the vendor runtime binaries:
//!
//! - [`openmp`]: `parallel for` with `static` / `dynamic` / `guided`
//!   scheduling and a chunk size (§II-A of the paper);
//! - [`cilk`]: recursive-splitting `cilk_for` executed by work stealing
//!   (§II-B);
//! - [`tbb`]: blocked ranges with the `simple` / `auto` / `affinity`
//!   partitioners (§II-C).
//!
//! The three models' thread-local storage (thread-id arrays, Cilk holders
//! and reducers, TBB `combinable`) is one mechanism in [`tls`]:
//! [`PerWorker`] and [`ReducerMax`].
//!
//! All of them run on [`pool::ThreadPool`], which may be over-subscribed
//! (more workers than hardware threads) — the paper itself runs up to 121
//! threads on a 31-core card, and this crate is used natively only for
//! *correctness*; scalability numbers come from the `mic-sim` machine model.
//!
//! [`concurrent`] provides the shared lock-free pieces: a push-only
//! concurrent vector (used for the coloring conflict list) and the paper's
//! *block-accessed queue* (§IV-C), the novel data structure behind its best
//! BFS implementation. [`deque`] is the lock-free scheduling substrate:
//! the Chase–Lev work-stealing deque, one per worker, that the single
//! Cilk/TBB stealing engine in [`cilk`] runs on; each worker seeds its
//! own deque, so no loop has a shared queue. [`sync`] adds the
//! [`sync::EventCount`] park/unpark primitive behind the pool's lock-free
//! dispatch, and [`scan`] the parallel prefix sum behind SNAP-style queue
//! merges.

pub mod cilk;
pub mod concurrent;
pub mod deque;
pub mod model;
pub mod openmp;
pub mod pool;
pub mod scan;
pub mod sync;
pub mod tbb;
pub mod tls;

pub use cilk::cilk_for;
pub use concurrent::{BlockCursor, BlockQueue, ConcurrentPushVec};
pub use deque::{Steal, WsDeque};
pub use model::RuntimeModel;
pub use openmp::{parallel_for, parallel_for_chunks, Schedule};
pub use pool::{ThreadPool, WorkerCtx};
pub use scan::exclusive_scan;
pub use sync::EventCount;
pub use tbb::{tbb_parallel_for, Partitioner};
pub use tls::{PerWorker, ReducerMax};
