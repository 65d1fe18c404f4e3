//! IO fault-injection points for the store layer.
//!
//! `mic-store` sits below the experiment harness, so it cannot see
//! `MIC_FAULT` parsing or the seeded schedule — instead a store is opened
//! with an optional [`IoFaults`] injector ([`crate::StoreOpts::faults`]),
//! consulted at every file-IO boundary (open, record write, fsync), that
//! may order the operation to fail, stop short, or silently tear the
//! record.
//! The `mic-eval` fault plan implements it from its deterministic `io-*`
//! rules; a store opened without one pays a `None` check per boundary.
//!
//! Sites are identified structurally — which operation, and for writes
//! the file offset of each 4 KiB block of a record (the first block's is
//! the record's own offset; the log length being made durable, for
//! fsyncs; a file-name hash, for opens) — so a seeded injector makes the
//! *same* decision for the same site whenever the same records are
//! written in the same order.

/// Which file operation is asking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoOp {
    /// Opening (or creating) the store file.
    Open,
    /// Appending one 4 KiB block of a record (or tombstone).
    Write,
    /// Flushing written bytes to stable storage.
    Fsync,
}

/// Where an IO fault decision is being made.
#[derive(Clone, Copy, Debug)]
pub struct IoSite {
    pub op: IoOp,
    /// Stable position index: the block's file offset for writes, the
    /// log length for fsyncs, a hash of the file name for opens.
    pub site: u64,
}

/// What an injected IO fault makes the operation do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// The operation fails with an injected `std::io::Error`.
    Fail,
    /// A write stops after half its bytes and then fails — the torn
    /// prefix stays on disk, exactly what a mid-write crash leaves.
    ShortWrite,
    /// A record write silently lands with corrupted bytes but reports
    /// success — the lie only a checksum can catch later. (The name is
    /// the `io-torn-page` class's; the store has records, not pages.)
    TornPage,
}

/// The decision function a store consults at each IO boundary.
pub trait IoFaults: Send + Sync + std::fmt::Debug {
    /// What to do at `site`: `None` = proceed normally.
    fn io_fault(&self, site: &IoSite) -> Option<IoFault>;
}

/// The injected error every `Fail`/`ShortWrite` surfaces as, so callers
/// (and test assertions) can tell an injected fault from a real one.
pub(crate) fn injected_error(what: &str, site: &IoSite) -> std::io::Error {
    std::io::Error::other(format!("mic-fault: injected {what} at {site:?}"))
}
