//! mic-metrics: a suite-wide, label-aware metrics registry.
//!
//! Where mic-trace answers "what happened inside *one* run" with event
//! timelines, this crate answers "what is the suite doing *across* runs":
//! monotone counters (jobs retried, cache hits, faults fired), gauges
//! (last observed values), and fixed-bucket histograms (chunk latency,
//! engine wall time) with p50/p95/p99 summaries.
//!
//! Design contract, in the same discipline as `mic-runtime::trace` and the
//! simulator's `NullSink`:
//!
//! * **Off by default, invisibly so.** Every instrumentation site guards on
//!   [`enabled`] — a thread-local read and a relaxed atomic load — before
//!   touching the registry. With metrics disabled the instrumented hot
//!   paths allocate nothing and compute nothing, so figure output stays
//!   bit-identical (pinned by regression tests in the consuming crates).
//! * **Scoped registries.** A thread records into its current [`Handle`]:
//!   the process default unless [`with_session`] (or [`with_handle`]) made
//!   another one current. `mic-runtime` pool regions and `mic-serve`
//!   servers carry their starter's handle to the threads they run on, so
//!   a session counts its own work and nothing else.
//! * **Lock-free recording.** Every counter and histogram bucket is striped
//!   across cache-line-padded atomic cells; a recording thread CAS-loops on
//!   its own stripe only. Stripes merge at scrape time, never on the hot
//!   path. The registry's `RwLock` is taken only to *resolve* a metric
//!   handle (cold) — increments themselves never block.
//! * **Deterministic export.** [`snapshot`] sorts by name then labels, so
//!   the Prometheus export is stable across runs and threads.
//!
//! One export format: [`Snapshot::to_prometheus`] (text exposition format,
//! scrapeable). [`Snapshot::self_check`] verifies internal
//! consistency — bucket counts sum to the histogram count, quantiles are
//! monotone, all values finite — and is what `--bin metrics --check` runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Number of per-thread stripes each counter/histogram is sharded across.
/// Threads hash onto stripes round-robin at first use; 16 covers the pool
/// sizes the suite runs (sweep workers ≤ host cores) with little aliasing.
const STRIPES: usize = 16;

/// One atomic cell on its own cache line so two threads bumping adjacent
/// stripes never false-share.
#[repr(align(64))]
struct Stripe(AtomicU64);

impl Stripe {
    fn zero() -> Self {
        Stripe(AtomicU64::new(0))
    }
}

fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// Add `v` to an f64 stored as bits in an atomic cell (CAS loop on one
/// stripe; uncontended in practice because stripes are per-thread).
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

// ---------------------------------------------------------------------------
// Metric instruments
// ---------------------------------------------------------------------------

/// Monotone counter (f64 so fractional costs can be accumulated, e.g.
/// stall cycles). Negative increments are a programming error.
pub struct Counter {
    cells: [Stripe; STRIPES],
}

impl Counter {
    fn new() -> Self {
        Counter {
            cells: std::array::from_fn(|_| Stripe::zero()),
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Add `v` (must be finite and non-negative; non-finite adds are
    /// dropped so one NaN cannot poison a whole counter).
    #[inline]
    pub fn add(&self, v: f64) {
        debug_assert!(v >= 0.0, "counter increments must be non-negative");
        if !v.is_finite() || v < 0.0 {
            return;
        }
        atomic_f64_add(&self.cells[stripe_index()].0, v);
    }

    /// Current value: the merge of every stripe.
    pub fn value(&self) -> f64 {
        self.cells
            .iter()
            .map(|s| f64::from_bits(s.0.load(Ordering::Relaxed)))
            .sum()
    }
}

/// Last-value gauge. A single cell: gauges are set, not accumulated, so
/// striping would have no meaning.
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Per-bucket exemplar: the trace id of the worst (largest) observation
/// routed through [`Histogram::observe_with_exemplar`]. A four-word
/// seqlock — a writer whose value beats the stored one spins while another
/// writer holds the slot, then re-checks, so the maximum is never lost; a
/// torn read is detected and dropped, so readers never block.
struct ExemplarSlot {
    /// Even = stable, odd = a write is in progress.
    seq: AtomicU64,
    /// f64 bits of the exemplar value; `NEG_INFINITY` bits = empty.
    value: AtomicU64,
    trace_lo: AtomicU64,
    trace_hi: AtomicU64,
}

impl ExemplarSlot {
    fn new() -> Self {
        ExemplarSlot {
            seq: AtomicU64::new(0),
            value: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            trace_lo: AtomicU64::new(0),
            trace_hi: AtomicU64::new(0),
        }
    }

    fn offer(&self, v: f64, trace: u128) {
        while v > f64::from_bits(self.value.load(Ordering::Relaxed)) {
            let s = self.seq.load(Ordering::Relaxed);
            if s & 1 == 1
                || self
                    .seq
                    .compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
            {
                // Another writer holds the slot; what it stores may still
                // be smaller than `v`, so wait and re-check.
                std::hint::spin_loop();
                continue;
            }
            if v > f64::from_bits(self.value.load(Ordering::Relaxed)) {
                self.value.store(v.to_bits(), Ordering::Relaxed);
                self.trace_lo.store(trace as u64, Ordering::Relaxed);
                self.trace_hi.store((trace >> 64) as u64, Ordering::Relaxed);
            }
            self.seq.store(s + 2, Ordering::Release);
            return;
        }
    }

    fn read(&self) -> Option<(f64, u128)> {
        for _ in 0..8 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let vb = self.value.load(Ordering::Relaxed);
            let lo = self.trace_lo.load(Ordering::Relaxed);
            let hi = self.trace_hi.load(Ordering::Relaxed);
            if self.seq.load(Ordering::Acquire) != s1 {
                continue;
            }
            let v = f64::from_bits(vb);
            return (v != f64::NEG_INFINITY).then_some((v, ((hi as u128) << 64) | lo as u128));
        }
        None
    }
}

/// Fixed-bucket histogram. `bounds` are strictly increasing upper bucket
/// edges; an implicit `+Inf` overflow bucket catches the rest. Bucket
/// occupancy counts are striped `u64`s; the running sum is a striped f64.
/// Non-finite observations are dropped (counted nowhere) so the
/// `count == Σ bucket` invariant checked by `self_check` always holds.
pub struct Histogram {
    bounds: Box<[f64]>,
    /// Stripe-major: `counts[stripe * (bounds.len() + 1) + bucket]`.
    counts: Box<[Stripe]>,
    sum: Counter,
    /// One exemplar slot per bucket (incl. overflow), populated only via
    /// [`observe_with_exemplar`](Self::observe_with_exemplar).
    exemplars: Box<[ExemplarSlot]>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        let nb = bounds.len() + 1;
        Histogram {
            bounds: bounds.into(),
            counts: (0..STRIPES * nb).map(|_| Stripe::zero()).collect(),
            sum: Counter::new(),
            exemplars: (0..nb).map(|_| ExemplarSlot::new()).collect(),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let bucket = self.bounds.partition_point(|&b| b < v);
        let nb = self.bounds.len() + 1;
        self.counts[stripe_index() * nb + bucket]
            .0
            .fetch_add(1, Ordering::Relaxed);
        // Histogram sums may legitimately be negative-valued series one
        // day, but every current use is a duration; route through the
        // counter's guarded add (clamps below zero) to keep one code path.
        self.sum.add(v.max(0.0));
    }

    /// [`observe`](Self::observe), additionally offering `trace` as the
    /// bucket's exemplar: each bucket remembers the trace id of its worst
    /// observation so a p99 spike links straight to a dumped trace. A zero
    /// trace id records nothing; the plain `observe` path is untouched.
    #[inline]
    pub fn observe_with_exemplar(&self, v: f64, trace: u128) {
        self.observe(v);
        if trace != 0 && v.is_finite() {
            let bucket = self.bounds.partition_point(|&b| b < v);
            self.exemplars[bucket].offer(v, trace);
        }
    }

    /// Exemplar of one bucket, if any observation carried a trace id.
    pub fn exemplar(&self, bucket: usize) -> Option<(f64, u128)> {
        self.exemplars.get(bucket).and_then(ExemplarSlot::read)
    }

    /// Per-bucket counts merged across stripes (`bounds.len() + 1` long,
    /// last entry is the overflow bucket).
    pub(crate) fn merged_counts(&self) -> Vec<u64> {
        let nb = self.bounds.len() + 1;
        let mut out = vec![0u64; nb];
        for (i, s) in self.counts.iter().enumerate() {
            out[i % nb] += s.0.load(Ordering::Relaxed);
        }
        out
    }

    pub fn count(&self) -> u64 {
        self.merged_counts().iter().sum()
    }

    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    fn snapshot_data(&self) -> HistogramSnapshot {
        let counts = self.merged_counts();
        let count: u64 = counts.iter().sum();
        let q = |p: f64| quantile_from_buckets(&self.bounds, &counts, count, p);
        let (p50, p95, p99) = (q(0.50), q(0.95), q(0.99));
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            exemplars: (0..counts.len()).map(|i| self.exemplar(i)).collect(),
            counts,
            sum: self.sum(),
            count,
            p50,
            p95,
            p99,
        }
    }
}

/// Quantile by linear interpolation inside the first bucket whose
/// cumulative count reaches `q * count` (Prometheus `histogram_quantile`
/// semantics: the lowest bucket interpolates from 0, the overflow bucket
/// clamps to the last finite bound). Monotone in `q` by construction:
/// the cumulative is non-decreasing, so the chosen bucket index and the
/// in-bucket fraction both rise with `q`.
fn quantile_from_buckets(bounds: &[f64], counts: &[u64], count: u64, q: f64) -> f64 {
    if count == 0 {
        return f64::NAN;
    }
    let target = q * count as f64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        let prev = cum as f64;
        cum += c;
        if (cum as f64) >= target {
            if i == bounds.len() {
                return *bounds.last().unwrap();
            }
            let lo = if i == 0 {
                0.0f64.min(bounds[0])
            } else {
                bounds[i - 1]
            };
            let hi = bounds[i];
            let frac = if c == 0 {
                1.0
            } else {
                ((target - prev) / c as f64).clamp(0.0, 1.0)
            };
            return lo + (hi - lo) * frac;
        }
    }
    *bounds.last().unwrap()
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// What a metric family is (fixed at first registration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct FamilyDef {
    kind: Kind,
    help: &'static str,
    /// Bucket bounds for histogram families (fixed at first registration
    /// so every label set shares comparable buckets).
    bounds: Vec<f64>,
}

/// Canonical label identity: sorted by key. BTreeMap keys sort maps too,
/// which keeps snapshot ordering deterministic for free.
type LabelKey = Vec<(String, String)>;

fn canon_labels(labels: &[(&str, &str)]) -> LabelKey {
    let mut v: LabelKey = labels
        .iter()
        .map(|&(k, val)| (k.to_string(), val.to_string()))
        .collect();
    v.sort();
    v
}

struct RegistryInner {
    families: BTreeMap<String, FamilyDef>,
    metrics: BTreeMap<(String, LabelKey), Instrument>,
}

/// One registry: an enabled flag plus every family and instrument
/// registered into it.
struct Registry {
    enabled: AtomicBool,
    inner: RwLock<RegistryInner>,
}

impl Registry {
    const fn new(enabled: bool) -> Registry {
        Registry {
            enabled: AtomicBool::new(enabled),
            inner: RwLock::new(RegistryInner {
                families: BTreeMap::new(),
                metrics: BTreeMap::new(),
            }),
        }
    }
}

/// The process default: off until [`set_enabled`] turns it on, and what
/// every thread outside a scoped handle records into.
static DEFAULT: Registry = Registry::new(false);

thread_local! {
    /// The registry this thread records into; `Handle(None)` = [`DEFAULT`].
    static CURRENT: RefCell<Handle> = const { RefCell::new(Handle(None)) };
}

/// A registry to record into: the process default, or a session's own.
/// Cloning shares the registry. Carry it to another thread with
/// [`current`] and [`with_handle`].
#[derive(Clone, Default)]
pub struct Handle(Option<Arc<Registry>>);

/// The handle the calling thread records into.
pub fn current() -> Handle {
    CURRENT.with_borrow(Handle::clone)
}

/// Run `f` with `handle` as the calling thread's registry, then restore
/// the previous one (on unwind too).
pub fn with_handle<R>(handle: &Handle, f: impl FnOnce() -> R) -> R {
    struct Restore(Handle);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.set(std::mem::take(&mut self.0));
        }
    }
    let _restore = Restore(CURRENT.replace(handle.clone()));
    f()
}

#[inline]
fn registry<R>(f: impl FnOnce(&Registry) -> R) -> R {
    CURRENT.with_borrow(|h| f(h.0.as_deref().unwrap_or(&DEFAULT)))
}

/// Whether the calling thread's registry is on. Instrumentation sites
/// check this before resolving any handle; it is a thread-local read and
/// a relaxed load, so the disabled hot path costs one predictable branch
/// and nothing else.
#[inline]
pub fn enabled() -> bool {
    registry(|r| r.enabled.load(Ordering::Relaxed))
}

/// Turn the calling thread's registry on or off: the process default
/// outside a session.
pub fn set_enabled(on: bool) {
    registry(|r| r.enabled.store(on, Ordering::SeqCst));
}

/// The instrument `name{labels}` in the calling thread's registry.
fn resolve(
    name: &str,
    help: &'static str,
    kind: Kind,
    labels: &[(&str, &str)],
    bounds: &[f64],
) -> Instrument {
    let key = (name.to_string(), canon_labels(labels));
    registry(|reg| {
        if let Some(m) = reg
            .inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .metrics
            .get(&key)
        {
            return m.clone();
        }
        let mut inner = reg.inner.write().unwrap_or_else(|e| e.into_inner());
        let fam = inner.families.entry(name.to_string()).or_insert(FamilyDef {
            kind,
            help,
            bounds: bounds.to_vec(),
        });
        assert_eq!(
            fam.kind, kind,
            "metric {name:?} registered twice with different kinds"
        );
        let fam_bounds = fam.bounds.clone();
        let entry = inner.metrics.entry(key).or_insert_with(|| match kind {
            Kind::Counter => Instrument::Counter(Arc::new(Counter::new())),
            Kind::Gauge => Instrument::Gauge(Arc::new(Gauge::new())),
            Kind::Histogram => Instrument::Histogram(Arc::new(Histogram::new(&fam_bounds))),
        });
        entry.clone()
    })
}

/// Resolve (registering on first use) the counter `name{labels}`.
pub fn counter(name: &str, help: &'static str, labels: &[(&str, &str)]) -> Arc<Counter> {
    match resolve(name, help, Kind::Counter, labels, &[]) {
        Instrument::Counter(c) => c,
        _ => unreachable!("kind checked in resolve"),
    }
}

/// Resolve (registering on first use) the gauge `name{labels}`.
pub fn gauge(name: &str, help: &'static str, labels: &[(&str, &str)]) -> Arc<Gauge> {
    match resolve(name, help, Kind::Gauge, labels, &[]) {
        Instrument::Gauge(g) => g,
        _ => unreachable!("kind checked in resolve"),
    }
}

/// Resolve (registering on first use) the histogram `name{labels}`. The
/// `bounds` of the first registration win for the whole family.
pub fn histogram(
    name: &str,
    help: &'static str,
    labels: &[(&str, &str)],
    bounds: &[f64],
) -> Arc<Histogram> {
    match resolve(name, help, Kind::Histogram, labels, bounds) {
        Instrument::Histogram(h) => h,
        _ => unreachable!("kind checked in resolve"),
    }
}

/// Exponential bucket edges: `start, start*factor, …` (`count` edges).
pub fn exp_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && count > 0);
    (0..count).map(|i| start * factor.powi(i as i32)).collect()
}

/// Default duration buckets in seconds: 1 µs … ≈ 17 s, factor 4.
pub fn seconds_buckets() -> Vec<f64> {
    exp_buckets(1e-6, 4.0, 13)
}

/// Drop every metric registered in the calling thread's registry
/// (handles held by callers keep recording into orphaned instruments
/// which will simply never be scraped again). The `metrics` bin uses it
/// to isolate phases.
pub fn reset() {
    registry(|reg| {
        let mut inner = reg.inner.write().unwrap_or_else(|e| e.into_inner());
        inner.families.clear();
        inner.metrics.clear();
    });
}

/// Run `f` against a fresh, enabled registry scoped to the calling
/// thread, and return its result plus the snapshot of everything it
/// recorded. Pool regions and servers started inside `f` inherit the
/// registry; other threads, and the process default, never see it, so
/// concurrent sessions and un-sessioned work cannot bleed counts into
/// each other.
pub fn with_session<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let session = Handle(Some(Arc::new(Registry::new(true))));
    with_handle(&session, || {
        let result = f();
        (result, snapshot())
    })
}

// ---------------------------------------------------------------------------
// Snapshot + export
// ---------------------------------------------------------------------------

/// Scraped state of one histogram family member.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts; `bounds.len() + 1` entries, the
    /// last being the `+Inf` overflow bucket.
    pub counts: Vec<u64>,
    /// Per-bucket `(worst value, trace id)` exemplars, parallel to
    /// `counts`; `None` where no observation carried a trace id.
    pub exemplars: Vec<Option<(f64, u128)>>,
    pub sum: f64,
    pub count: u64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

#[derive(Clone, Debug)]
pub enum Data {
    Value(f64),
    Histogram(HistogramSnapshot),
}

/// One scraped metric (a single label set of a family).
#[derive(Clone, Debug)]
pub struct Entry {
    pub name: String,
    pub help: String,
    pub kind: Kind,
    pub labels: Vec<(String, String)>,
    pub data: Data,
}

/// A deterministic point-in-time scrape of the whole registry, sorted by
/// metric name then labels.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub entries: Vec<Entry>,
}

/// Merge every stripe of every metric in the calling thread's registry
/// into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    registry(|reg| {
        let inner = reg.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut entries = Vec::with_capacity(inner.metrics.len());
        for ((name, labels), m) in &inner.metrics {
            let fam = &inner.families[name];
            let data = match m {
                Instrument::Counter(c) => Data::Value(c.value()),
                Instrument::Gauge(g) => Data::Value(g.value()),
                Instrument::Histogram(h) => Data::Histogram(h.snapshot_data()),
            };
            entries.push(Entry {
                name: name.clone(),
                help: fam.help.to_string(),
                kind: fam.kind,
                labels: labels.clone(),
                data,
            });
        }
        // BTreeMap iteration is already (name, labels)-sorted; keep the
        // explicit sort as the documented contract anyway.
        entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { entries }
    })
}

impl Snapshot {
    /// Value of the counter/gauge with exactly these labels.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = canon_labels(labels);
        self.entries
            .iter()
            .find(|e| e.name == name && e.labels == key)
            .and_then(|e| match &e.data {
                Data::Value(v) => Some(*v),
                Data::Histogram(_) => None,
            })
    }

    /// Sum of a counter family across all its label sets.
    pub fn family_total(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match &e.data {
                Data::Value(v) => *v,
                Data::Histogram(h) => h.sum,
            })
            .sum()
    }

    /// The histogram member with exactly these labels.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let key = canon_labels(labels);
        self.entries
            .iter()
            .find(|e| e.name == name && e.labels == key)
            .and_then(|e| match &e.data {
                Data::Histogram(h) => Some(h),
                Data::Value(_) => None,
            })
    }

    /// `(label_value, metric_value)` pairs of a family, keyed by one label.
    pub fn by_label(&self, name: &str, label: &str) -> Vec<(String, f64)> {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| {
                let lv = e.labels.iter().find(|(k, _)| k == label)?.1.clone();
                match &e.data {
                    Data::Value(v) => Some((lv, *v)),
                    Data::Histogram(_) => None,
                }
            })
            .collect()
    }

    /// Internal-consistency audit; returns one line per violated
    /// invariant (empty = healthy). Checked invariants:
    /// * every counter/gauge value is finite, counters non-negative;
    /// * histogram `count` equals the sum of its bucket counts;
    /// * histogram `sum` is finite and quantiles are monotone
    ///   (p50 ≤ p95 ≤ p99) whenever the histogram is non-empty;
    /// * bucket bounds are finite and strictly increasing.
    pub fn self_check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for e in &self.entries {
            let id = format!("{}{}", e.name, fmt_labels(&e.labels));
            match &e.data {
                Data::Value(v) => {
                    if !v.is_finite() {
                        problems.push(format!("{id}: non-finite value {v}"));
                    } else if e.kind == Kind::Counter && *v < 0.0 {
                        problems.push(format!("{id}: negative counter {v}"));
                    }
                }
                Data::Histogram(h) => {
                    let bucket_total: u64 = h.counts.iter().sum();
                    if bucket_total != h.count {
                        problems.push(format!(
                            "{id}: bucket counts sum to {bucket_total} but count is {}",
                            h.count
                        ));
                    }
                    if h.counts.len() != h.bounds.len() + 1 {
                        problems.push(format!(
                            "{id}: {} buckets for {} bounds",
                            h.counts.len(),
                            h.bounds.len()
                        ));
                    }
                    if !h.sum.is_finite() || h.sum < 0.0 {
                        problems.push(format!("{id}: bad histogram sum {}", h.sum));
                    }
                    if !h.bounds.windows(2).all(|w| w[0] < w[1])
                        || h.bounds.iter().any(|b| !b.is_finite())
                    {
                        problems.push(format!("{id}: bounds not strictly increasing/finite"));
                    }
                    for ex in h.exemplars.iter().flatten() {
                        if !ex.0.is_finite() {
                            problems.push(format!("{id}: non-finite exemplar {}", ex.0));
                        }
                    }
                    if h.count > 0 && !(h.p50 <= h.p95 && h.p95 <= h.p99) {
                        problems.push(format!(
                            "{id}: quantiles not monotone (p50={} p95={} p99={})",
                            h.p50, h.p95, h.p99
                        ));
                    }
                }
            }
        }
        problems
    }

    /// Prometheus text exposition format (one `# HELP`/`# TYPE` pair per
    /// family, `_bucket`/`_sum`/`_count` expansion for histograms).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Option<&str> = None;
        for e in &self.entries {
            if seen != Some(e.name.as_str()) {
                out.push_str("# HELP ");
                out.push_str(&e.name);
                out.push(' ');
                out.push_str(&prom_escape_help(&e.help));
                out.push('\n');
                out.push_str("# TYPE ");
                out.push_str(&e.name);
                out.push(' ');
                out.push_str(e.kind.name());
                out.push('\n');
                seen = Some(e.name.as_str());
            }
            match &e.data {
                Data::Value(v) => {
                    out.push_str(&e.name);
                    out.push_str(&prom_labels(&e.labels, None));
                    out.push(' ');
                    out.push_str(&prom_num(*v));
                    out.push('\n');
                }
                Data::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, c) in h.counts.iter().enumerate() {
                        cum += c;
                        let le = if i < h.bounds.len() {
                            prom_num(h.bounds[i])
                        } else {
                            "+Inf".to_string()
                        };
                        out.push_str(&e.name);
                        out.push_str("_bucket");
                        out.push_str(&prom_labels(&e.labels, Some(&le)));
                        out.push(' ');
                        out.push_str(&cum.to_string());
                        if let Some(Some((v, trace))) = h.exemplars.get(i) {
                            // OpenMetrics exemplar: links the bucket to the
                            // trace id of its worst observation.
                            out.push_str(&format!(" # {{trace_id=\"{trace:032x}\"}} "));
                            out.push_str(&prom_num(*v));
                        }
                        out.push('\n');
                    }
                    out.push_str(&e.name);
                    out.push_str("_sum");
                    out.push_str(&prom_labels(&e.labels, None));
                    out.push(' ');
                    out.push_str(&prom_num(h.sum));
                    out.push('\n');
                    out.push_str(&e.name);
                    out.push_str("_count");
                    out.push_str(&prom_labels(&e.labels, None));
                    out.push(' ');
                    out.push_str(&h.count.to_string());
                    out.push('\n');
                }
            }
        }
        out
    }
}

fn fmt_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn prom_escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn prom_escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape_label(v)))
        .collect();
    if let Some(le) = le {
        body.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", body.join(","))
}

/// Prometheus number rendering (`+Inf`/`-Inf`/`NaN` spellings).
fn prom_num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_across_threads() {
        let ((), snap) = with_session(|| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    let session = current();
                    std::thread::spawn(move || {
                        with_handle(&session, || {
                            let c = counter("test_events_total", "test", &[("kind", "a")]);
                            for _ in 0..1000 {
                                c.inc();
                            }
                        })
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
        });
        assert_eq!(
            snap.value("test_events_total", &[("kind", "a")]),
            Some(8000.0)
        );
    }

    #[test]
    fn label_order_is_canonical() {
        let ((), snap) = with_session(|| {
            counter("c_total", "t", &[("b", "2"), ("a", "1")]).add(3.0);
            counter("c_total", "t", &[("a", "1"), ("b", "2")]).add(4.0);
        });
        assert_eq!(snap.value("c_total", &[("b", "2"), ("a", "1")]), Some(7.0));
        assert_eq!(snap.entries.len(), 1);
    }

    #[test]
    fn gauge_holds_last_value() {
        let ((), snap) = with_session(|| {
            let g = gauge("test_gauge", "t", &[]);
            g.set(4.5);
            g.set(-2.25);
        });
        assert_eq!(snap.value("test_gauge", &[]), Some(-2.25));
    }

    #[test]
    fn histogram_counts_sum_and_quantiles() {
        let ((), snap) = with_session(|| {
            let h = histogram("lat_seconds", "t", &[], &[1.0, 2.0, 4.0]);
            for v in [0.5, 1.5, 1.5, 3.0, 10.0] {
                h.observe(v);
            }
            h.observe(f64::NAN); // dropped
        });
        let h = snap.hist("lat_seconds", &[]).unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.counts, vec![1, 2, 1, 1]);
        assert!((h.sum - 16.5).abs() < 1e-12);
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99);
        assert_eq!(h.p99, 4.0, "overflow bucket clamps to last bound");
        assert!(snap.self_check().is_empty(), "{:?}", snap.self_check());
    }

    #[test]
    fn empty_histogram_quantiles_are_nan_and_pass_self_check() {
        let ((), snap) = with_session(|| {
            histogram("empty_seconds", "t", &[], &[1.0]);
        });
        let h = snap.hist("empty_seconds", &[]).unwrap();
        assert_eq!(h.count, 0);
        assert!(h.p50.is_nan() && h.p99.is_nan());
        assert!(snap.self_check().is_empty());
    }

    #[test]
    fn prometheus_export_shape() {
        let ((), snap) = with_session(|| {
            counter("req_total", "requests", &[("code", "200")]).add(3.0);
            histogram("dur_seconds", "dur", &[], &[0.1, 1.0]).observe(0.5);
        });
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{code=\"200\"} 3"));
        assert!(text.contains("# TYPE dur_seconds histogram"));
        assert!(text.contains("dur_seconds_bucket{le=\"0.1\"} 0"));
        assert!(text.contains("dur_seconds_bucket{le=\"1\"} 1"));
        assert!(text.contains("dur_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("dur_seconds_sum 0.5"));
        assert!(text.contains("dur_seconds_count 1"));
    }

    #[test]
    fn self_check_flags_non_monotone_bounds() {
        // Construct a corrupt snapshot by hand: self_check must notice.
        let snap = Snapshot {
            entries: vec![Entry {
                name: "bad_seconds".into(),
                help: "t".into(),
                kind: Kind::Histogram,
                labels: vec![],
                data: Data::Histogram(HistogramSnapshot {
                    bounds: vec![2.0, 1.0],
                    counts: vec![1, 0, 0],
                    exemplars: vec![None, None, None],
                    sum: 1.0,
                    count: 2, // mismatch vs bucket total 1
                    p50: 2.0,
                    p95: 1.0, // non-monotone
                    p99: 3.0,
                }),
            }],
        };
        let problems = snap.self_check();
        assert!(problems.iter().any(|p| p.contains("bucket counts")));
        assert!(problems
            .iter()
            .any(|p| p.contains("not strictly increasing")));
        assert!(problems.iter().any(|p| p.contains("not monotone")));
    }

    #[test]
    fn exemplars_track_worst_per_bucket() {
        let ((), snap) = with_session(|| {
            let h = histogram("ex_seconds", "t", &[], &[1.0, 2.0]);
            h.observe(0.5); // plain observe: no exemplar
            h.observe_with_exemplar(0.25, 0xaa);
            h.observe_with_exemplar(0.75, 0xbb); // worse: replaces 0xaa
            h.observe_with_exemplar(1.5, 0xcc);
            h.observe_with_exemplar(9.0, 0); // zero trace id: ignored
        });
        let h = snap.hist("ex_seconds", &[]).unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.exemplars[0], Some((0.75, 0xbb)));
        assert_eq!(h.exemplars[1], Some((1.5, 0xcc)));
        assert_eq!(h.exemplars[2], None, "overflow saw only a zero trace id");
        assert!(snap.self_check().is_empty(), "{:?}", snap.self_check());
        let text = snap.to_prometheus();
        assert!(
            text.contains(&format!("# {{trace_id=\"{:032x}\"}} 0.75", 0xbbu128)),
            "{text}"
        );
    }

    #[test]
    fn exemplar_slot_survives_concurrent_offers() {
        let h = std::sync::Arc::new(Histogram::new(&[1.0]));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        let v = f64::from(t * 1000 + i) * 1e-5;
                        h.observe_with_exemplar(v, u128::from(t * 1000 + i) + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The winner must be the global maximum below the first bound,
        // carrying exactly its own trace id.
        let (v, trace) = h.exemplar(0).expect("exemplar present");
        assert!((v - 0.07999).abs() < 1e-12, "{v}");
        assert_eq!(trace, 8000);
    }

    #[test]
    fn disabled_flag_roundtrip() {
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn exp_buckets_are_strictly_increasing() {
        let b = seconds_buckets();
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(b[0], 1e-6);
    }
}
