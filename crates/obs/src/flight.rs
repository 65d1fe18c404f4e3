//! The flight recorder: per-thread fixed-size rings of structured events.
//!
//! Shape follows the lock-free discipline of `mic-runtime`: the hot path
//! ([`record`]) is one relaxed enabled-check, a TLS lookup, and a handful
//! of atomic stores into a preallocated slot — **no allocation, no lock**.
//! A thread's ring is allocated once (first event on that thread) and
//! registered in a global list the dumper walks.
//!
//! Each slot is guarded by a sequence word: the owning thread writes
//! `seq = 0` (Release), the payload (Relaxed), then the real sequence
//! number (Release); a reader accepts a slot only if the sequence word is
//! nonzero and unchanged across its payload read. Torn reads are thereby
//! detected and skipped, never misreported. Sequence numbers come from
//! one global counter, so a merged dump orders events across threads.
//!
//! Dumps ([`dump`]) serialize every ring to a small JSON artifact in the
//! configured directory — fired on panic (hook in [`crate::install`]),
//! fault injection, and slow requests. A global budget caps
//! dumps per process so a chaos storm cannot fill the disk.

use crate::TraceId;
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What happened. Stable names (see [`EventKind::name`]) appear in dumps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Request admitted to a shard queue (`a` = shard, `b` = depth after).
    Admit = 1,
    /// Request shed on a full queue (`a` = shard, `b` = queue length).
    Shed = 2,
    /// Request shed by the per-client quota (`a` = inflight count).
    QuotaShed = 3,
    /// Connection refused by the connection cap (`a` = active conns).
    ConnShed = 4,
    /// Request coalesced onto an in-flight leader (`a` = shard).
    Coalesce = 7,
    /// Served from the in-memory LRU (`a` = shard).
    CacheHit = 8,
    /// Served from the durable store (`a` = shard).
    StoreHit = 9,
    /// Store recovery/quarantine action (`a` = code).
    StoreRecovery = 10,
    /// An injected fault fired (`a` = class index, `b` = site).
    Fault = 11,
    /// A request exceeded the slow threshold (`a` = latency µs).
    SlowRequest = 14,
    /// A request finished (`a` = latency µs, `b` = 1 if ok).
    RequestDone = 15,
    /// A sweep job panicked and its point was lost (`a` = point).
    SweepFailure = 16,
}

impl EventKind {
    const ALL: [EventKind; 12] = [
        EventKind::Admit,
        EventKind::Shed,
        EventKind::QuotaShed,
        EventKind::ConnShed,
        EventKind::Coalesce,
        EventKind::CacheHit,
        EventKind::StoreHit,
        EventKind::StoreRecovery,
        EventKind::Fault,
        EventKind::SlowRequest,
        EventKind::RequestDone,
        EventKind::SweepFailure,
    ];

    /// Stable machine-readable name (dump JSON).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Shed => "shed",
            EventKind::QuotaShed => "quota_shed",
            EventKind::ConnShed => "conn_shed",
            EventKind::Coalesce => "coalesce",
            EventKind::CacheHit => "cache_hit",
            EventKind::StoreHit => "store_hit",
            EventKind::StoreRecovery => "store_recovery",
            EventKind::Fault => "fault",
            EventKind::SlowRequest => "slow_request",
            EventKind::RequestDone => "request_done",
            EventKind::SweepFailure => "sweep_failure",
        }
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        Self::ALL.iter().copied().find(|k| *k as u8 == v)
    }
}

/// One decoded event, as read back out of the rings.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Timestamp, µs on the [`crate::now_us`] clock.
    pub us: f64,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
    /// Associated trace id; 0 = none.
    pub trace: TraceId,
    /// Name of the recording thread.
    pub thread: String,
}

/// One ring slot: a sequence guard word plus the fixed-size payload.
/// All-atomic so the single writer never races readers into UB; the
/// guard protocol (see module docs) makes torn payloads detectable.
struct Slot {
    seq: AtomicU64,
    us_bits: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    trace_lo: AtomicU64,
    trace_hi: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            us_bits: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            trace_lo: AtomicU64::new(0),
            trace_hi: AtomicU64::new(0),
        }
    }
}

struct Ring {
    slots: Box<[Slot]>,
    /// Next write index (owned by the ring's thread; atomic only so the
    /// struct stays Sync for readers).
    head: AtomicUsize,
    thread: String,
}

impl Ring {
    fn new(capacity: usize, thread: String) -> Ring {
        Ring {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicUsize::new(0),
            thread,
        }
    }

    /// Single-writer append (only the owning thread calls this).
    fn push(&self, seq: u64, us: f64, kind: EventKind, a: u64, b: u64, trace: TraceId) {
        let i = self.head.load(Ordering::Relaxed) % self.slots.len();
        let slot = &self.slots[i];
        // Invalidate, write payload, publish — readers seeing a torn
        // payload observe a changed/zero guard and skip the slot.
        slot.seq.store(0, Ordering::Release);
        slot.us_bits.store(us.to_bits(), Ordering::Relaxed);
        slot.kind.store(kind as u8 as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.trace_lo.store(trace as u64, Ordering::Relaxed);
        slot.trace_hi.store((trace >> 64) as u64, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
        self.head.store(
            self.head.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
    }

    /// Read every consistent slot.
    fn read(&self, out: &mut Vec<EventRecord>) {
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            let us = f64::from_bits(slot.us_bits.load(Ordering::Relaxed));
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let lo = slot.trace_lo.load(Ordering::Relaxed);
            let hi = slot.trace_hi.load(Ordering::Relaxed);
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 != s2 {
                continue; // torn by a concurrent overwrite — drop it
            }
            let Some(kind) = EventKind::from_u8(kind as u8) else {
                continue;
            };
            out.push(EventRecord {
                seq: s1,
                us,
                kind,
                a,
                b,
                trace: ((hi as u128) << 64) | lo as u128,
                thread: self.thread.clone(),
            });
        }
    }
}

/// Events each thread's ring keeps.
const RING_CAP: usize = 1024;

static SEQ: AtomicU64 = AtomicU64::new(1);

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REG: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static OWN: RefCell<Option<Arc<Ring>>> = const { RefCell::new(None) };
}

/// Record one event on the calling thread's ring. No-op with
/// observability off; allocation-free after the thread's first event.
#[inline]
pub fn record(kind: EventKind, a: u64, b: u64, trace: TraceId) {
    if !crate::enabled() {
        return;
    }
    record_always(kind, a, b, trace);
}

fn record_always(kind: EventKind, a: u64, b: u64, trace: TraceId) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let us = crate::now_us();
    OWN.with(|own| {
        let mut own = own.borrow_mut();
        let ring = own.get_or_insert_with(|| {
            let name = std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string();
            let ring = Arc::new(Ring::new(RING_CAP, name));
            registry()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            ring
        });
        ring.push(seq, us, kind, a, b, trace);
    });
}

/// Every retained event across all threads, in global sequence order.
pub fn snapshot() -> Vec<EventRecord> {
    let rings: Vec<Arc<Ring>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut out = Vec::new();
    for ring in rings {
        ring.read(&mut out);
    }
    out.sort_by_key(|e| e.seq);
    out
}

/// Invalidate every retained event (tests / session isolation). Rings
/// stay registered; their slots are marked empty.
pub fn clear() {
    let rings: Vec<Arc<Ring>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    for ring in rings {
        for slot in ring.slots.iter() {
            slot.seq.store(0, Ordering::Release);
        }
    }
}

/// Dumps remaining in the per-process budget (refundable by tests).
static DUMP_BUDGET: AtomicI64 = AtomicI64::new(32);
static DUMP_COUNT: AtomicU64 = AtomicU64::new(0);

/// Reset the dump budget (tests).
pub fn set_dump_budget(n: i64) {
    DUMP_BUDGET.store(n, Ordering::Relaxed);
}

/// Serialize the recorder to `<dir>/flight-<reason>-<n>.json`. Returns
/// the path, or `None` when observability is off, the budget is spent,
/// or the write failed (a dump must never take the process down).
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !crate::enabled() {
        return None;
    }
    if DUMP_BUDGET.fetch_sub(1, Ordering::Relaxed) <= 0 {
        return None;
    }
    let n = DUMP_COUNT.fetch_add(1, Ordering::Relaxed);
    let dir = crate::dump_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return None;
    }
    let safe: String = reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let path = dir.join(format!("flight-{safe}-{n}.json"));
    let body = render_dump(reason, &snapshot());
    match std::fs::write(&path, body) {
        Ok(()) => Some(path),
        Err(_) => None,
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The dump format (documented in DESIGN.md "Observability"):
/// `{schema, reason, dumped_at_us, events: [{seq, us, thread, kind, a, b,
/// trace_id}]}` — events in global sequence order, `trace_id` empty when
/// the event was not request-bound.
fn render_dump(reason: &str, events: &[EventRecord]) -> String {
    let mut body = String::from("{\n");
    body.push_str("  \"schema\": 1,\n");
    body.push_str(&format!("  \"reason\": \"{}\",\n", json_escape(reason)));
    body.push_str(&format!("  \"dumped_at_us\": {:.1},\n", crate::now_us()));
    body.push_str("  \"events\": [\n");
    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 < events.len() { "," } else { "" };
        let trace = if e.trace == 0 {
            String::new()
        } else {
            crate::trace_hex(e.trace)
        };
        body.push_str(&format!(
            "    {{\"seq\": {}, \"us\": {:.1}, \"thread\": \"{}\", \"kind\": \"{}\", \
             \"a\": {}, \"b\": {}, \"trace_id\": \"{}\"}}{}\n",
            e.seq,
            e.us,
            json_escape(&e.thread),
            e.kind.name(),
            e.a,
            e.b,
            trace,
            comma
        ));
    }
    body.push_str("  ]\n}\n");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _g = crate::test_guard();
        crate::disable();
        clear();
        record(EventKind::Admit, 1, 2, 0);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn records_in_sequence_order_across_threads() {
        let _g = crate::test_guard();
        crate::install(crate::ObsConfig::default());
        clear();
        record(EventKind::Admit, 1, 0, 0);
        record(EventKind::Shed, 2, 0, 0);
        let h = std::thread::spawn(|| {
            record(EventKind::Coalesce, 3, 4, 0);
        });
        h.join().unwrap();
        let events = snapshot();
        assert!(events.len() >= 3);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Admit));
        assert!(kinds.contains(&EventKind::Coalesce));
        crate::disable();
        clear();
    }

    #[test]
    fn ring_overwrites_oldest() {
        let ring = Ring::new(8, "t".into());
        for i in 0..20u64 {
            ring.push(i + 1, 0.0, EventKind::RequestDone, i, 0, 0);
        }
        let mut mine = Vec::new();
        ring.read(&mut mine);
        mine.sort_by_key(|e| e.seq);
        assert_eq!(mine.len(), 8, "ring keeps only the newest 8");
        assert_eq!(mine.last().unwrap().a, 19, "newest event survives");
    }

    #[test]
    fn dump_writes_valid_shape_and_respects_budget() {
        let _g = crate::test_guard();
        let dir = std::env::temp_dir().join(format!("mic-obs-test-{}", std::process::id()));
        crate::install(crate::ObsConfig {
            dir: dir.clone(),
            slow_ms: None,
        });
        clear();
        set_dump_budget(2);
        let t = crate::mint_trace_id();
        record(EventKind::SlowRequest, 1234, 0, t);
        let path = dump("slow request").expect("dump within budget");
        assert!(
            path.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("flight-slow-request-"),
            "file name is sanitized: {path:?}"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"reason\": \"slow request\""));
        assert!(body.contains("\"kind\": \"slow_request\""));
        assert!(body.contains(&crate::trace_hex(t)));
        assert!(dump("again").is_some());
        assert!(dump("over-budget").is_none(), "budget exhausted");
        set_dump_budget(32);
        crate::disable();
        clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
            assert!(!k.name().is_empty());
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(200), None);
    }

    /// A slot stores its kind as a number: a retired kind leaves its
    /// number unassigned rather than shifting the ones after it.
    #[test]
    fn discriminants_are_pinned() {
        let pinned = [
            (EventKind::Admit, 1),
            (EventKind::Shed, 2),
            (EventKind::QuotaShed, 3),
            (EventKind::ConnShed, 4),
            (EventKind::Coalesce, 7),
            (EventKind::CacheHit, 8),
            (EventKind::StoreHit, 9),
            (EventKind::StoreRecovery, 10),
            (EventKind::Fault, 11),
            (EventKind::SlowRequest, 14),
            (EventKind::RequestDone, 15),
            (EventKind::SweepFailure, 16),
        ];
        assert_eq!(pinned.len(), EventKind::ALL.len());
        for (kind, v) in pinned {
            assert_eq!(kind as u8, v, "{}", kind.name());
        }
        for retired in [5, 6, 12, 13] {
            assert_eq!(EventKind::from_u8(retired), None);
        }
    }
}
