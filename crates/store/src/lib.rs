//! mic-store: crash-safe paged on-disk store for results and workloads.
//!
//! The sweeps in this workspace regenerate hours of instrumented
//! workload and simulated-result data; the in-RAM caches (wl2 workload
//! cache, mic-serve's result LRU) vanish on restart. `mic-store` is the
//! durable tier underneath both: a single file of fixed-size pages with
//!
//! - a **buffer pool** (clock / second-chance eviction) so hot pages
//!   cost a map lookup, not IO ([`pool`](crate) internals);
//! - a **free list** with copy-on-write discipline — committed pages
//!   are never overwritten in place, so the last durable state survives
//!   any crash ([`free_list`](crate) internals);
//! - **per-page and per-value xxh64 checksums** — torn or bit-flipped
//!   bytes read as a miss, never as data ([`xxh64`]);
//! - a **double-header atomic flip** — `persist` writes new pages,
//!   fsyncs, then flips a checksummed header into the slot the previous
//!   commit did not use; recovery picks the newest header that
//!   checks out and falls back (counted) past torn ones;
//! - **deterministic IO fault injection** at every open/write/fsync
//!   boundary via a per-store injector ([`fault`]), driven by the
//!   harness's seeded `MIC_FAULT` `io-*` rules.
//!
//! The store never panics on corrupt input and never returns wrong
//! bytes: `get` yields exactly what `put` stored, or `None`.

pub mod fault;
mod free_list;
mod page;
mod pool;
mod store;

pub use page::{xxh64, NO_PAGE};
pub use store::{Store, StoreOpts};
