//! Harness-wide metrics policy: a thin layer over the [`mic_metrics`]
//! registry (re-exported here in full) that decides *when* metrics are on.
//!
//! The registry itself is environment-free; this module owns the
//! `MIC_METRICS` knob:
//!
//! - unset / empty / `0` — metrics stay **off**: every instrumented hot
//!   path costs a thread-local read and one relaxed atomic load, and the
//!   numeric outputs are bit-identical to an uninstrumented build (pinned by
//!   `tests/metrics_bit_identity.rs` and the sim crate's capture tests);
//! - `1` / `true` — metrics **on**; `all` self-checks its snapshot at
//!   the end;
//! - any other value — metrics on, **and** the value is a file path the
//!   bench binaries write the Prometheus text snapshot to
//!   ([`snapshot_path`]).
//!
//! [`init_from_env`] turns the process-default registry on; only the
//! `all` and `serve` bins call it, from `main`. Library entry points never
//! touch process state on their own. A session ([`with_session`]) is
//! independent of the knob: it records into a registry of its own, which
//! pool regions and servers started inside it inherit.

pub use mic_metrics::*;

use crate::config::MetricsMode;
use std::path::PathBuf;

/// The Prometheus snapshot file requested via `MIC_METRICS=<path>` (or
/// the config builder), if any.
pub fn snapshot_path() -> Option<PathBuf> {
    match &crate::config::current().metrics {
        MetricsMode::OnWithPath(p) => Some(p.clone()),
        _ => None,
    }
}

/// Enable the process-default registry if the installed config asks for
/// it. Idempotent and cheap; never *disables* (an explicit
/// [`set_enabled`] owns that).
pub fn init_from_env() {
    if crate::config::current().metrics.is_on() {
        mic_metrics::set_enabled(true);
    }
}
