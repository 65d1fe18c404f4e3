//! A fluid discrete-event simulator of a Knights-Ferry-like many-core
//! processor, used to reproduce the paper's scalability curves.
//!
//! The paper's platform — a prototype Intel MIC card with 31 usable
//! in-order cores, 4-way SMT, per-core FPUs, coherent caches and a
//! bidirectional ring — is not available (it never shipped; even its
//! absolute numbers were under NDA). Every scalability phenomenon the paper
//! reports, however, is a first-order consequence of a handful of machine
//! features, which this crate models explicitly:
//!
//! - **SMT latency hiding**: an in-order core stalls on every cache miss,
//!   but misses from different hardware threads overlap, so memory-bound
//!   kernels keep speeding up well past one thread per core (the paper's
//!   coloring curves, Figures 1–2);
//! - **the single-thread issue penalty**: a KNF core cannot issue from the
//!   same thread in consecutive cycles, so a lone thread runs at half issue
//!   rate — which is why 1-thread baselines are slow and speedups can
//!   exceed the thread count (Figure 2's speedup of 153 on 121 threads);
//! - **a shared per-core FPU**: floating-point work from co-resident SMT
//!   threads serializes, so raising the compute-to-communication ratio
//!   erodes the SMT benefit (Figure 3);
//! - **serialized shared cache lines**: scheduler counters, work-stealing
//!   deques and queue cursors are single cache lines bouncing on the ring;
//!   their service rate caps how fast chunks can be handed out (why the
//!   heavier Cilk/TBB runtimes plateau below OpenMP's dynamic schedule);
//! - **barriers**: layered BFS pays one per level, hundreds of times per
//!   traversal (Figure 4's decline past ~37 threads).
//!
//! Kernels run *natively* (for correctness) in their own crates and emit
//! per-iteration [`work::Work`] descriptors; [`engine::simulate`] then
//! schedules those descriptors onto simulated hardware threads under any of
//! the paper's scheduling policies and returns cycle counts.
//!
//! The `analytic` module ([`BfsModel`]) implements the paper's
//! closed-form BFS performance model (§III-C) for comparison against the
//! simulated implementations.

pub(crate) mod analytic;
pub mod engine;
pub mod machine;
pub mod sched;
pub mod trace;
pub mod work;

pub use analytic::{bfs_model_speedup, BfsModel};
pub use engine::{
    simulate, simulate_region, simulate_region_telemetry, simulate_region_traced,
    simulate_region_with_scratch, simulate_traced, simulate_with_scratch, Bottleneck, SimReport,
    SimScratch,
};
pub use machine::{Machine, Placement};
pub use sched::Policy;
pub use trace::{ChunkEvent, RecordingSink, StallCause, TraceSink};
pub use work::{Costs, Pick, Region, Work};
