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
//! BFS implementation. [`deque`] and [`injector`] are the lock-free
//! scheduling substrate: a Chase–Lev work-stealing deque per worker and an
//! MPMC injector (unbounded segmented + bounded ring variants) that the
//! Cilk/TBB engines are built on. [`sync`] adds the [`sync::EventCount`]
//! park/unpark primitive behind the pool's lock-free dispatch, and [`scan`]
//! the parallel prefix sum behind SNAP-style queue merges.

pub mod cilk;
pub mod concurrent;
pub mod deque;
pub mod injector;
pub mod model;
pub mod openmp;
pub mod pool;
pub mod scan;
pub mod sync;
pub mod tbb;
pub mod tls;
pub mod trace;

pub use cilk::cilk_for;
pub use concurrent::{BlockCursor, BlockQueue, BlockWriter, ConcurrentPushVec};
pub use deque::WsDeque;
pub use injector::{BoundedQueue, Injector, Steal};
pub use model::RuntimeModel;
pub use openmp::{parallel_for, parallel_for_chunks, parallel_reduce, Schedule};
pub use pool::{PoolError, ThreadPool, WorkerCtx};
pub use scan::{exclusive_scan, exclusive_scan_seq};
pub use sync::{park_spin, set_park_spin, EventCount};
pub use tbb::{tbb_parallel_for, Partitioner};
pub use tls::{PerWorker, ReducerMax};
pub use trace::{capture as capture_native_trace, NativeEvent, NativeEventKind};
