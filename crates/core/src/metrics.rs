//! Harness-wide metrics policy: a thin layer over the [`mic_metrics`]
//! registry (re-exported here in full) that decides *when* metrics are on.
//!
//! The registry itself is environment-free; this module owns the
//! `MIC_METRICS` knob:
//!
//! - unset / empty / `0` — metrics stay **off**: every instrumented hot
//!   path costs exactly one relaxed atomic load and the numeric outputs
//!   are bit-identical to an uninstrumented build (pinned by
//!   `tests/metrics_bit_identity.rs` and the sim crate's capture tests);
//! - `1` / `true` — metrics **on**; `all` self-checks its snapshot at
//!   the end;
//! - any other value — metrics on, **and** the value is a file path the
//!   bench binaries write the Prometheus text snapshot to
//!   ([`snapshot_path`]).
//!
//! [`init_from_env`] is called by `sweep::try_run`, at every cache-I/O
//! entry point (mirroring [`crate::fault::init_from_env`]) and by the
//! `all` and `serve` bins, so any driver that touches the harness picks
//! the knob up without per-binary wiring.

pub use mic_metrics::*;

use crate::config::MetricsMode;
use std::path::PathBuf;

/// Whether the installed [`crate::config`] requests metrics at all
/// (regardless of whether the registry is currently enabled — test
/// sessions toggle that).
pub fn env_requested() -> bool {
    crate::config::current().metrics.is_on()
}

/// The Prometheus snapshot file requested via `MIC_METRICS=<path>` (or
/// the config builder), if any.
pub fn snapshot_path() -> Option<PathBuf> {
    match &crate::config::current().metrics {
        MetricsMode::OnWithPath(p) => Some(p.clone()),
        _ => None,
    }
}

/// Enable the registry if the installed config asks for it. Idempotent
/// and cheap; never *disables* (an explicit [`set_enabled`] or test
/// session owns that).
pub fn init_from_env() {
    if env_requested() {
        mic_metrics::set_enabled(true);
    }
}
