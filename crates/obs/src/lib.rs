//! mic-obs: end-to-end request observability for the serving stack.
//!
//! Three pieces, all built on the same identifiers:
//!
//! - **Trace context** ([`TraceCtx`]): a 16-byte trace id plus a parent
//!   span id, carried on the wire (an optional trailing field of the MICB
//!   frame, a `trace_id` key in the JSON compat wire), minted by the
//!   client or generated at admission. Every stage of a request's life
//!   records a [`span::Span`] under that trace id, producing a
//!   per-request span tree (queue-wait, coalesce-join, execute,
//!   store-probe/write-back, serialize).
//! - **Span store** ([`span`]): a bounded in-memory ring of recent spans,
//!   queryable by trace id — what the `serve trace` op summarizes and the
//!   Chrome trace exporter renders.
//! - **Flight recorder** ([`flight`]): per-thread fixed-size rings of
//!   structured events (admission, shed, reroute, fault, store recovery)
//!   recorded with no allocation on the hot path, dumped to a JSON
//!   artifact on panic, fault injection, shard death, or when a request
//!   exceeds the slow threshold.
//!
//! The whole module is gated on one relaxed [`enabled`] flag: with
//! `MIC_OBS` unset nothing records, nothing allocates, and every output
//! of the suite stays bit-identical (pinned by `sweep_determinism` /
//! `metrics_bit_identity`). Configuration flows in through
//! [`install`] — this crate never reads the environment itself (the
//! `MIC_OBS_*` knobs live in `mic_eval::config::SuiteConfig`, like every
//! other `MIC_*` knob).

pub mod flight;
pub mod span;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Identifiers.

/// 16-byte trace id. Zero is reserved for "absent".
pub type TraceId = u128;

/// 8-byte span id. Zero is reserved for "no parent".
pub type SpanId = u64;

/// splitmix64 — the same tiny stateless mixer the fault injector uses.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Process-unique id stream: a per-process random seed (wall clock, pid,
/// and an address, mixed) plus an atomic counter through splitmix64. Ids
/// are unique within a process and collide across processes only by
/// 64-bit accident.
fn next_raw() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let seed = *SEED.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let pid = std::process::id() as u64;
        let addr = &COUNTER as *const _ as u64;
        splitmix64(t ^ pid.rotate_left(32) ^ addr.rotate_left(17))
    });
    splitmix64(seed ^ COUNTER.fetch_add(1, Ordering::Relaxed))
}

/// Mint a fresh nonzero trace id.
pub fn mint_trace_id() -> TraceId {
    loop {
        let id = ((next_raw() as u128) << 64) | next_raw() as u128;
        if id != 0 {
            return id;
        }
    }
}

/// Mint a fresh nonzero span id.
pub fn mint_span_id() -> SpanId {
    loop {
        let id = next_raw();
        if id != 0 {
            return id;
        }
    }
}

/// Render a trace id as 32 lower-case hex chars.
pub fn trace_hex(id: TraceId) -> String {
    format!("{id:032x}")
}

/// Render a span id as 16 lower-case hex chars.
pub fn span_hex(id: SpanId) -> String {
    format!("{id:016x}")
}

/// Parse a 32-hex-char trace id. Rejects the all-zero id ("absent").
pub fn parse_trace_hex(s: &str) -> Option<TraceId> {
    if s.len() != 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok().filter(|&id| id != 0)
}

/// Parse a 16-hex-char span id (zero allowed: "no parent").
pub fn parse_span_hex(s: &str) -> Option<SpanId> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The trace context a request travels with: which trace it belongs to
/// and which span (if any) is its parent in the caller's tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The 16-byte trace id (never zero).
    pub trace: TraceId,
    /// Parent span id in the caller's tree; zero = the request is a root.
    pub parent: SpanId,
}

impl TraceCtx {
    /// A fresh root context (client-minted or generated at admission).
    pub fn mint() -> TraceCtx {
        TraceCtx {
            trace: mint_trace_id(),
            parent: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Process-global switch and configuration.

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Slow-request threshold in microseconds; 0 = no tail sampling.
static SLOW_US: AtomicU64 = AtomicU64::new(0);

/// Where dumps go and which requests count as slow.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Directory flight-recorder dumps are written to.
    pub dir: PathBuf,
    /// Requests slower than this dump the recorder (`MIC_OBS_SLOW_MS`).
    pub slow_ms: Option<u64>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            dir: PathBuf::from("mic-obs"),
            slow_ms: None,
        }
    }
}

fn config_slot() -> &'static std::sync::Mutex<ObsConfig> {
    static SLOT: OnceLock<std::sync::Mutex<ObsConfig>> = OnceLock::new();
    SLOT.get_or_init(|| std::sync::Mutex::new(ObsConfig::default()))
}

/// Whether observability is on. One relaxed load — the only cost every
/// instrumentation site pays when `MIC_OBS` is unset.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The slow-request threshold in microseconds (0 when unset or off).
#[inline]
pub fn slow_us() -> u64 {
    SLOW_US.load(Ordering::Relaxed)
}

/// The configured dump directory.
pub fn dump_dir() -> PathBuf {
    config_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .dir
        .clone()
}

/// Install `cfg` and switch observability on. Also installs (once) a
/// panic hook that dumps the flight recorder before the previous hook
/// runs, so a crashing process ships its own post-mortem.
pub fn install(cfg: ObsConfig) {
    SLOW_US.store(
        cfg.slow_ms.map(|ms| ms * 1000).unwrap_or(0),
        Ordering::Relaxed,
    );
    *config_slot().lock().unwrap_or_else(|e| e.into_inner()) = cfg;
    install_panic_hook();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Switch observability off (tests). Recorded spans/events stay until
/// cleared.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    SLOW_US.store(0, Ordering::Relaxed);
}

fn install_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if enabled() {
                let _ = flight::dump("panic");
            }
            previous(info);
        }));
    });
}

// ---------------------------------------------------------------------------
// Time.

/// Microseconds since the first call in this process — one monotonic
/// clock shared by every span and flight event, so timestamps from
/// different threads order correctly.
pub fn now_us() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Serializes tests that flip the process-global enabled flag or touch
/// the global span/flight stores.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<std::sync::Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        let s = mint_span_id();
        assert_ne!(s, 0);
        assert_ne!(s, mint_span_id());
    }

    #[test]
    fn hex_roundtrip() {
        let t = mint_trace_id();
        assert_eq!(parse_trace_hex(&trace_hex(t)), Some(t));
        let s = mint_span_id();
        assert_eq!(parse_span_hex(&span_hex(s)), Some(s));
        assert_eq!(trace_hex(t).len(), 32);
        assert_eq!(span_hex(s).len(), 16);
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert_eq!(parse_trace_hex(""), None);
        assert_eq!(parse_trace_hex("xyz"), None);
        assert_eq!(
            parse_trace_hex(&"0".repeat(32)),
            None,
            "zero id is 'absent'"
        );
        assert_eq!(parse_trace_hex(&"a".repeat(31)), None);
        assert_eq!(parse_trace_hex(&"a".repeat(33)), None);
        assert_eq!(
            parse_span_hex(&"0".repeat(16)),
            Some(0),
            "zero parent is legal"
        );
        assert_eq!(parse_span_hex("short"), None);
    }

    #[test]
    fn minted_ctx_is_root() {
        let c = TraceCtx::mint();
        assert_ne!(c.trace, 0);
        assert_eq!(c.parent, 0);
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
