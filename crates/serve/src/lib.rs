//! mic-serve: a sharded, coalescing, backpressured
//! simulation-as-a-service layer.
//!
//! Long-running job server over plain TCP that accepts simulation
//! requests against the paper's instrumented kernels. The wire is a
//! length-prefixed, schema-versioned binary frame protocol
//! ([`frame`]); the original newline-JSON encoding survives as a
//! negotiated debug/compat mode (the server sniffs the first byte of a
//! connection). A front-end [`router`] shards `simulate` jobs across N
//! independent worker shards by job-key hash — each shard owns its own
//! admission bound, compute slots, coalescing table and result LRU, and a
//! job runs on the thread of the request that admitted it — and
//! applies per-client quotas with tiered admission so one heavy client
//! sheds (`status:"shed"`) before starving others. See DESIGN.md
//! "Serving layer".
//!
//! - [`frame`] — the binary wire codec (magic + version + length + op
//!   tag), plus the capped line reader the JSON compat mode uses;
//! - [`protocol`] — request validation, the JSON compat encoding, and
//!   the canonical [`protocol::JobSpec`] job identity;
//! - [`router`] — client attribution, quota tiers, and shard selection;
//! - [`server`] — the per-shard dispatcher (admission, coalescing,
//!   compute slots), the bounded connection registry, and the TCP front
//!   end;
//! - [`client`] — the load-generator client (both wire modes);
//! - [`lru`] — the bounded result cache, sharded N ways;
//! - [`cell`] — the one-shot result cell coalesced waiters block on.
//!
//! The request hot path is lock-free end to end: admission and compute
//! slots are CAS-claimed tickets, results are published to coalesced
//! requests through `cell::ResultCell`s, and a request waiting for a
//! slot parks on an event-count. The only locks left are the per-shard
//! coalescing table (a short map probe) and the per-shard LRU mutexes.

pub mod cell;
pub mod client;
pub mod frame;
pub mod lru;
pub mod protocol;
pub mod router;
pub mod server;
