//! mic-store: a crash-safe, append-only log of immutable values.
//!
//! The sweeps in this workspace regenerate suite graphs and simulated
//! results; the in-RAM caches (mic-eval's workload cache, mic-serve's
//! result LRU) vanish on restart. `mic-store` is the durable tier
//! underneath both. Every value it holds is a deterministic
//! function of its key and is written once, so the store is one file of
//! records with
//!
//! - **appends only** — `put` adds a record at the end under one writer
//!   lock, `remove` adds a tombstone, and `persist` is one fsync;
//! - **an index rebuilt at open** from record headers and keys alone,
//!   the last record of a key winning; a torn tail is cut off there;
//! - **xxh64 checksums** on every record header and on every key ‖ value,
//!   checked again at each `get` — torn or bit-flipped bytes read as a
//!   miss, never as data ([`xxh64`]);
//! - **deterministic IO fault injection** at every open/write/fsync
//!   boundary via a per-store injector ([`fault`]), driven by the
//!   harness's seeded `MIC_FAULT` `io-*` rules.
//!
//! The store never panics on corrupt input and never returns wrong
//! bytes: `get` yields exactly what `put` stored, or `None`.

pub mod fault;
mod store;
mod xxh64;

pub use store::{Store, StoreOpts};
pub use xxh64::xxh64;
