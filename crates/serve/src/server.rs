//! The mic-serve server: per-shard admission control, coalescing, and
//! bounded compute behind a bounded TCP front end.
//!
//! Life of a request:
//!
//! 1. the accept loop admits the connection against a bounded registry
//!    (over the cap → an explicit `shed` response, never an unbounded
//!    thread spawn) and the handler sniffs the wire mode from the first
//!    byte — binary frames ([`crate::frame`]) or newline-JSON compat
//!    ([`crate::protocol`]); both reads are capped at
//!    [`ServeOpts::max_request`] bytes. Requests are served one at a
//!    time in arrival order, so responses leave in request order;
//! 2. the [`crate::router::Router`] attributes the request to its client
//!    (peer IP), applies the quota tiers, and routes `simulate` jobs to a
//!    shard by the hash of the decoded [`JobSpec`];
//! 3. the shard's [`Dispatcher::submit`] consults its result LRU, keyed
//!    by the spec (hit → immediate answer, with no key text built), then
//!    the durable store, keyed by the spec's text [`JobSpec::key`], built
//!    only here, then its in-flight table, keyed by the spec
//!    (identical job already admitted → **coalesce**: wait for the
//!    leader's result), then claims a depth ticket with a bounded CAS loop
//!    against the admission cap (full → **shed**);
//! 4. the admitted leader claims one of the shard's
//!    [`ServeOpts::slots`] compute slots with the same bounded CAS loop,
//!    parking until one frees; the slot releases the depth ticket. It then
//!    runs the job once, on its own connection thread, as an isolated
//!    sweep job ([`mic_eval::sweep::try_run`]) whose `job-panic` site is
//!    the shard's execution index — a panicking job answers
//!    `status:"error"` while everything else survives;
//! 5. the leader feeds the shard's LRU and the store, publishes the
//!    outcome through a one-shot `ResultCell`
//!    to every coalesced request, and frees its slot. The handler encodes
//!    the response into a payload buffer it reuses for every response
//!    and appends the frame to the connection's write buffer, which is flushed
//!    no later than its next read that reaches the socket: one write per
//!    batch of pipelined requests, and for a client that waits for each
//!    answer, one per response.
//!
//! No mutex sits on the request hot path: the depth and slot bounds are
//! CAS-claimed atomic tickets (never transiently over the cap, so
//! concurrent submitters can't shed each other spuriously), result
//! hand-off is a guard-word cell, and a leader waiting for a slot parks on
//! the shard's [`EventCount`]. A miss costs no thread hand-off, and an
//! idle server runs one thread: its accept loop. Shutdown is complete: the
//! accept loop and every live connection handler (their sockets are shut
//! down to unblock reads) are joined before [`Server::shutdown`] returns —
//! no handler can write after it.

use crate::cell::ResultCell;
use crate::frame::{self, LineRead};
use crate::lru::{KeyMap, ShardedLru};
use crate::protocol::{JobSpec, Response, SimMeta};
use crate::router::{ClientState, Router};
use mic_eval::config::SuiteConfig;
use mic_eval::fault::FaultPlan;
use mic_eval::obs::{self, flight, span};
use mic_eval::runtime::EventCount;
use mic_eval::sweep;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Serving knobs. All bounded; the defaults suit tests and single-host
/// benchmarking, and [`ServeOpts::from_config`] overlays the installed
/// [`SuiteConfig`]'s `MIC_SERVE_*` (and `MIC_STORE*`) knobs.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Per-shard admission bound: requests beyond this many jobs waiting
    /// for a compute slot on a shard are shed.
    pub queue_cap: usize,
    /// Per-shard result-LRU capacity (0 disables result caching).
    pub lru_cap: usize,
    /// Jobs a shard computes at once; further admitted jobs wait.
    pub slots: usize,
    /// Worker shards (each with its own admission bound, compute slots,
    /// coalescing table and LRU).
    pub shards: usize,
    /// Per-client in-flight simulate quota (soft tier; hard tier at 2×).
    pub quota: usize,
    /// Concurrent connection cap; connects past it get a `shed` response.
    pub conn_cap: usize,
    /// Largest accepted request in bytes (JSON line or binary payload).
    pub max_request: usize,
    /// Durable result-spill file shared by every shard (`MIC_STORE`);
    /// `None` serves from the in-memory LRUs alone. With a store, results
    /// survive restarts: a warm server answers repeat jobs without
    /// recomputing them.
    pub store_path: Option<std::path::PathBuf>,
    /// Auto-persist the store after this many results (`MIC_STORE_SYNC`);
    /// 0 persists only at shutdown.
    pub store_sync: usize,
    /// Fault plan (`MIC_FAULT`): its `job-panic` rules fire at each
    /// shard's execution index, its `io-*` rules at the store's file
    /// boundaries. `None` injects nothing.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for ServeOpts {
    fn default() -> ServeOpts {
        ServeOpts {
            queue_cap: 64,
            lru_cap: 256,
            slots: 4,
            shards: 4,
            quota: 256,
            conn_cap: 256,
            max_request: 64 * 1024,
            store_path: None,
            store_sync: 0,
            fault: None,
        }
    }
}

impl ServeOpts {
    /// Defaults overlaid with the serve knobs of a [`SuiteConfig`].
    pub fn from_config(cfg: &SuiteConfig) -> ServeOpts {
        ServeOpts {
            shards: cfg.serve_shards.max(1),
            quota: cfg.serve_quota.max(1),
            conn_cap: cfg.serve_conn_cap.max(1),
            max_request: cfg.serve_max_request,
            store_path: cfg.store_path.clone(),
            store_sync: cfg.store_sync,
            fault: cfg.fault.clone().map(Arc::new),
            ..ServeOpts::default()
        }
    }
}

/// Monotonic serving counters, independent of the metrics registry (the
/// `stats` op reports these even when metrics are off). Shared by the
/// router and every shard dispatcher.
#[derive(Default)]
pub struct ServeStats {
    pub received: AtomicU64,
    pub ok: AtomicU64,
    pub errors: AtomicU64,
    pub shed: AtomicU64,
    pub coalesced: AtomicU64,
    pub cache_hits: AtomicU64,
    /// Simulate requests answered from the durable result store (a warm
    /// restart shows these before any LRU hit is possible).
    pub store_hits: AtomicU64,
    /// Job executions. Every job runs alone, so this equals `executed`;
    /// the field stays for the readers that divide one by the other.
    pub batches: AtomicU64,
    /// Jobs computed (cache and store hits and coalesced requests are not).
    pub executed: AtomicU64,
    /// Requests shed by the per-client quota tiers.
    pub quota_shed: AtomicU64,
    /// Connections refused by the bounded connection registry.
    pub conn_shed: AtomicU64,
    /// Wire-level failures (oversize/bad-magic/truncated) that dropped a
    /// connection.
    pub frame_errors: AtomicU64,
}

impl ServeStats {
    pub(crate) fn fields(&self, queue_len: usize, inflight: usize) -> Vec<(String, f64)> {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        vec![
            ("received".into(), g(&self.received)),
            ("ok".into(), g(&self.ok)),
            ("errors".into(), g(&self.errors)),
            ("shed".into(), g(&self.shed)),
            ("coalesced".into(), g(&self.coalesced)),
            ("cache_hits".into(), g(&self.cache_hits)),
            // Results answered from the durable store tier (the record-level
            // store_* rows come from the store itself via the stats op).
            ("store_result_hits".into(), g(&self.store_hits)),
            ("batches".into(), g(&self.batches)),
            ("executed".into(), g(&self.executed)),
            ("quota_shed".into(), g(&self.quota_shed)),
            ("conn_shed".into(), g(&self.conn_shed)),
            ("frame_errors".into(), g(&self.frame_errors)),
            ("queue_len".into(), queue_len as f64),
            ("inflight".into(), inflight as f64),
        ]
    }
}

/// One job's outcome, published once by the leader that computed it to
/// every request coalesced onto it: the cycles, or why the job failed.
type Outcome = ResultCell<Result<f64, String>>;

/// How `submit` resolved.
pub enum Submission {
    /// The job produced a result (computed, coalesced, or cached).
    Done { cycles: f64, meta: SimMeta },
    /// Admission control refused the job; the client should back off.
    /// `queue_len` is clamped to the admission cap — it reports the
    /// bounded queue, not a transient ticket value.
    Shed { queue_len: usize },
    /// The job panicked (a bug, or an injected `job-panic`); it ran once,
    /// and its leader and every request coalesced onto it carry the panic
    /// message.
    Failed(String),
}

/// Increment `counter` only while it is strictly below `cap`: a bounded
/// CAS loop, so the counter is never transiently over the cap and
/// concurrent claimants cannot refuse each other with overshoot tickets.
/// `Err` carries the value that refused the claim.
fn claim_below(counter: &AtomicUsize, cap: usize) -> Result<(), usize> {
    let mut seen = counter.load(Ordering::Relaxed);
    loop {
        if seen >= cap {
            return Err(seen);
        }
        match counter.compare_exchange_weak(seen, seen + 1, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Ok(()),
            Err(cur) => seen = cur,
        }
    }
}

/// One worker shard: admission bound, compute slots, coalescing table and
/// result LRU. A job is computed on the thread of the request that
/// admitted it; the shard owns no thread. Shards never touch each other's
/// state.
pub struct Dispatcher {
    shard: usize,
    shard_label: String,
    opts: ServeOpts,
    /// Admitted leaders waiting for a compute slot, claimed with
    /// [`claim_below`] against `queue_cap`.
    depth: AtomicUsize,
    /// Compute slots in use, claimed with [`claim_below`] against `slots`.
    running: AtomicUsize,
    /// Jobs this shard has started: the next one's execution index, which
    /// is its `job-panic` injection site.
    started: AtomicUsize,
    /// Coalescing table: job → the in-flight job's outcome. The one
    /// remaining lock on the submit path (atomic test-and-insert of the
    /// job).
    inflight: Mutex<KeyMap<JobSpec, Arc<Outcome>>>,
    /// Parks leaders waiting for a slot; notified when a slot frees.
    wake: EventCount,
    lru: ShardedLru<JobSpec>,
    /// Optional durable spill tier below the LRU, shared across shards
    /// (one handle per file, so the single-writer store stays single-
    /// writer). Probed on LRU miss; fed after every computed result.
    store: Option<Arc<mic_store::Store>>,
    stats: Arc<ServeStats>,
}

fn scounter(name: &'static str, help: &'static str) -> Arc<mic_metrics::Counter> {
    mic_metrics::counter(name, help, &[])
}

impl Dispatcher {
    pub fn new(
        shard: usize,
        opts: ServeOpts,
        stats: Arc<ServeStats>,
        store: Option<Arc<mic_store::Store>>,
    ) -> Dispatcher {
        Dispatcher {
            shard,
            shard_label: shard.to_string(),
            depth: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            started: AtomicUsize::new(0),
            inflight: Mutex::new(KeyMap::default()),
            wake: EventCount::named("serve-slot"),
            lru: ShardedLru::new(opts.lru_cap),
            store,
            stats,
            opts,
        }
    }

    pub fn opts(&self) -> &ServeOpts {
        &self.opts
    }

    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Admitted jobs waiting for a compute slot on this shard.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// In-flight (admitted or executing) distinct jobs on this shard.
    pub fn inflight_len(&self) -> usize {
        self.inflight.lock().len()
    }

    /// Admit one job and block until it resolves (or is shed).
    pub fn submit(&self, spec: &JobSpec) -> Submission {
        self.submit_traced(spec, None)
    }

    /// [`submit`](Self::submit) with the admitting request's trace
    /// identity (trace id + pre-minted root span id), so every stage the
    /// job passes through records a span under that root.
    pub(crate) fn submit_traced(
        &self,
        spec: &JobSpec,
        req_trace: Option<(obs::TraceId, obs::SpanId)>,
    ) -> Submission {
        let t0 = Instant::now();
        if let Some(cycles) = self.lru.get(spec) {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            if mic_metrics::enabled() {
                scounter(
                    "mic_serve_cache_hits_total",
                    "Simulate requests answered from the bounded result LRU.",
                )
                .inc();
            }
            if let Some((trace, _)) = req_trace {
                flight::record(flight::EventKind::CacheHit, self.shard as u64, 0, trace);
            }
            return Submission::Done {
                cycles,
                meta: SimMeta::untraced(0, false, true, t0.elapsed().as_secs_f64() * 1e3),
            };
        }
        let probe_start = req_trace
            .filter(|_| self.store.is_some())
            .map(|_| obs::now_us());
        // The store is keyed by text, so files written by earlier builds
        // keep answering: the one place a request builds its key string.
        let key = self.store.as_ref().map(|_| spec.key());
        let store_cycles = key.as_deref().and_then(|key| self.store_get(key));
        if let (Some((trace, root)), Some(start_us)) = (req_trace, probe_start) {
            span::record_new(
                trace,
                root,
                span::SpanKind::StoreProbe,
                Some(self.shard),
                start_us,
                obs::now_us(),
            );
        }
        if let Some(cycles) = store_cycles {
            // Warm the LRU so the next repeat skips even the store read.
            self.lru.put(spec, cycles);
            self.stats.store_hits.fetch_add(1, Ordering::Relaxed);
            if mic_metrics::enabled() {
                scounter(
                    "mic_serve_store_hits_total",
                    "Simulate requests answered from the durable result store.",
                )
                .inc();
            }
            if let Some((trace, _)) = req_trace {
                flight::record(flight::EventKind::StoreHit, self.shard as u64, 0, trace);
            }
            return Submission::Done {
                cycles,
                meta: SimMeta::untraced(0, false, true, t0.elapsed().as_secs_f64() * 1e3),
            };
        }
        let follow = {
            let mut inflight = self.inflight.lock();
            if let Some(cell) = inflight.get(spec) {
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                if mic_metrics::enabled() {
                    scounter(
                        "mic_serve_coalesce_hits_total",
                        "Simulate requests coalesced onto an identical in-flight job.",
                    )
                    .inc();
                }
                if let Some((trace, root)) = req_trace {
                    // The follower's tree records the join under its OWN
                    // root; the execute/store stages live in the leader's.
                    let now = obs::now_us();
                    span::record_new(
                        trace,
                        root,
                        span::SpanKind::CoalesceJoin,
                        Some(self.shard),
                        now,
                        now,
                    );
                    flight::record(flight::EventKind::Coalesce, self.shard as u64, 0, trace);
                }
                Some(Arc::clone(cell))
            } else {
                if let Err(seen) = claim_below(&self.depth, self.opts.queue_cap) {
                    drop(inflight);
                    self.stats.shed.fetch_add(1, Ordering::Relaxed);
                    if mic_metrics::enabled() {
                        scounter(
                            "mic_serve_sheds_total",
                            "Simulate requests refused by admission control (queue full).",
                        )
                        .inc();
                    }
                    if obs::enabled() {
                        flight::record(
                            flight::EventKind::Shed,
                            self.shard as u64,
                            seen.min(self.opts.queue_cap) as u64,
                            req_trace.map_or(0, |(t, _)| t),
                        );
                    }
                    return Submission::Shed {
                        // Clamped: reports the bounded queue, never a raw
                        // over-cap ticket.
                        queue_len: seen.min(self.opts.queue_cap),
                    };
                }
                inflight.insert(*spec, Arc::new(ResultCell::new()));
                None
            }
        };
        let Some(cell) = follow else {
            return self.lead(spec, key.as_deref(), req_trace, t0);
        };
        match cell.wait() {
            Ok(cycles) => Submission::Done {
                cycles: *cycles,
                meta: SimMeta::untraced(1, true, false, t0.elapsed().as_secs_f64() * 1e3),
            },
            Err(msg) => Submission::Failed(msg.clone()),
        }
    }

    /// The leader's half of a miss, on the admitting request's own thread:
    /// wait for a compute slot (the depth ticket it holds meanwhile is its
    /// place in the shard's queue), run the job once, feed the LRU and the
    /// store (under `key`, the spec's text, present iff there is a store),
    /// publish the outcome to every coalesced request, and free the slot.
    fn lead(
        &self,
        spec: &JobSpec,
        key: Option<&str>,
        req_trace: Option<(obs::TraceId, obs::SpanId)>,
        t0: Instant,
    ) -> Submission {
        self.set_queue_gauge();
        let admitted_us = req_trace.map(|(trace, _)| {
            flight::record(
                flight::EventKind::Admit,
                self.shard as u64,
                self.depth() as u64,
                trace,
            );
            obs::now_us()
        });
        self.wake
            .park_until(|| claim_below(&self.running, self.opts.slots.max(1)).is_ok());
        self.depth.fetch_sub(1, Ordering::AcqRel);
        self.set_queue_gauge();
        // Stage spans land under the leader's root; a stage is stamped
        // only while the request is traced and observability is on.
        let traced = req_trace.filter(|_| obs::enabled());
        let stamp = || traced.map(|_| obs::now_us());
        let record = |kind, start: Option<f64>| {
            if let (Some((trace, root)), Some(start_us)) = (traced, start) {
                span::record_new(trace, root, kind, Some(self.shard), start_us, obs::now_us());
            }
        };
        record(span::SpanKind::QueueWait, admitted_us);
        let site = self.started.fetch_add(1, Ordering::Relaxed);
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.executed.fetch_add(1, Ordering::Relaxed);
        if mic_metrics::enabled() {
            scounter(
                "mic_serve_batches_total",
                "Jobs computed by the shards (each runs alone).",
            )
            .inc();
        }
        let outcome = sweep::try_run(self.opts.fault.as_deref(), site, || {
            let start = stamp();
            let cycles = spec.compute();
            record(span::SpanKind::Execute, start);
            cycles
        })
        .map_err(|failure| failure.to_string());
        if let Ok(cycles) = outcome {
            self.lru.put(spec, cycles);
            if let (Some(store), Some(key)) = (&self.store, key) {
                let start = stamp();
                // Best-effort: a write failure costs a future warm hit,
                // never the in-flight response.
                let _ = store.put(key.as_bytes(), &cycles.to_le_bytes());
                record(span::SpanKind::StoreWrite, start);
            }
        }
        self.publish(spec, outcome.clone());
        self.running.fetch_sub(1, Ordering::AcqRel);
        self.wake.notify();
        match outcome {
            Ok(cycles) => Submission::Done {
                cycles,
                meta: SimMeta::untraced(1, false, false, t0.elapsed().as_secs_f64() * 1e3),
            },
            Err(msg) => Submission::Failed(msg),
        }
    }

    /// Retire a leader's in-flight entry and wake every request coalesced
    /// onto it. A job is led once, so the one-shot `set` cannot lose.
    fn publish(&self, spec: &JobSpec, outcome: Result<f64, String>) {
        if let Some(cell) = self.inflight.lock().remove(spec) {
            let _ = cell.set(outcome);
        }
    }

    /// Probe the durable store for a finished result. The store verifies
    /// its bytes page-by-page; this only re-checks the value's shape (one
    /// little-endian f64) and finiteness before trusting it.
    fn store_get(&self, key: &str) -> Option<f64> {
        let bytes = self.store.as_ref()?.get(key.as_bytes())?;
        let cycles = f64::from_le_bytes(bytes.try_into().ok()?);
        cycles.is_finite().then_some(cycles)
    }

    /// Export this shard's queue depth from its `AtomicUsize` — called
    /// when a leader is admitted and when it leaves the queue, never while
    /// holding any lock.
    fn set_queue_gauge(&self) {
        if mic_metrics::enabled() {
            mic_metrics::gauge(
                "mic_serve_queue_depth",
                "Jobs admitted and waiting for a shard's compute slot.",
                &[("shard", &self.shard_label)],
            )
            .set(self.depth.load(Ordering::Relaxed) as f64);
        }
    }
}

/// Tracks live connections: a bounded slot count (the fix for the
/// unbounded thread-per-connection spawn) plus the stream and join handle
/// of every handler, so shutdown can unblock their reads and join them.
struct ConnRegistry {
    cap: usize,
    active: AtomicUsize,
    next_id: AtomicU64,
    conns: Mutex<HashMap<u64, ConnSlot>>,
}

struct ConnSlot {
    stream: TcpStream,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ConnRegistry {
    fn new(cap: usize) -> ConnRegistry {
        ConnRegistry {
            cap: cap.max(1),
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
        }
    }

    /// Claim a connection slot (same discipline as the admission ticket:
    /// no transient overshoot).
    fn try_admit(&self) -> bool {
        claim_below(&self.active, self.cap).is_ok()
    }

    /// Register an admitted connection; the handle is attached once the
    /// handler thread is spawned.
    fn register(&self, stream: TcpStream) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.conns.lock().insert(
            id,
            ConnSlot {
                stream,
                handle: None,
            },
        );
        id
    }

    fn attach(&self, id: u64, handle: std::thread::JoinHandle<()>) {
        let stale = {
            let mut conns = self.conns.lock();
            match conns.get_mut(&id) {
                Some(slot) => {
                    slot.handle = Some(handle);
                    None
                }
                // The handler already released its slot (very short
                // connection): join it outside the lock — it is at (or
                // moments from) its end.
                None => Some(handle),
            }
        };
        if let Some(h) = stale {
            let _ = h.join();
        }
    }

    /// Release a slot from its own handler thread as its final act.
    fn release(&self, id: u64) {
        if self.conns.lock().remove(&id).is_some() {
            self.active.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Shut down every live connection's socket (unblocking handler
    /// reads/writes) and join the handlers. Called with no lock held
    /// while joining, so racing `release` calls cannot deadlock.
    fn shutdown_all(&self) {
        let slots: Vec<ConnSlot> = {
            let mut conns = self.conns.lock();
            conns.drain().map(|(_, slot)| slot).collect()
        };
        for slot in &slots {
            let _ = slot.stream.shutdown(Shutdown::Both);
        }
        for slot in slots {
            if let Some(h) = slot.handle {
                let _ = h.join();
            }
        }
    }
}

/// A running server bound to `addr`. Dropping (or calling
/// [`shutdown`](Server::shutdown)) stops the accept loop, joins every
/// live connection handler — the only threads that compute jobs — and
/// persists the store.
pub struct Server {
    pub addr: SocketAddr,
    router: Arc<Router>,
    registry: Arc<ConnRegistry>,
    stopping: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving.
    /// The accept loop and every connection handler record metrics into
    /// the caller's registry ([`mic_metrics::current`]).
    pub fn start(addr: &str, opts: ServeOpts) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let conn_cap = opts.conn_cap;
        let router = Arc::new(Router::new(opts));
        let registry = Arc::new(ConnRegistry::new(conn_cap));
        let stopping = Arc::new(AtomicBool::new(false));
        let metrics = mic_metrics::current();
        let accept = {
            let router = Arc::clone(&router);
            let registry = Arc::clone(&registry);
            let stopping = Arc::clone(&stopping);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || {
                    mic_metrics::with_handle(&metrics, || {
                        for stream in listener.incoming() {
                            if stopping.load(Ordering::SeqCst) {
                                break;
                            }
                            let Ok(stream) = stream else { continue };
                            if !registry.try_admit() {
                                refuse_connection(stream, &router);
                                continue;
                            }
                            let Ok(watch) = stream.try_clone() else {
                                registry.release_unattached();
                                continue;
                            };
                            let id = registry.register(watch);
                            let r = Arc::clone(&router);
                            let reg = Arc::clone(&registry);
                            let m = metrics.clone();
                            match std::thread::Builder::new().name("serve-conn".into()).spawn(
                                move || {
                                    mic_metrics::with_handle(&m, || handle_connection(stream, &r));
                                    reg.release(id);
                                },
                            ) {
                                Ok(handle) => registry.attach(id, handle),
                                Err(_) => registry.release(id),
                            }
                        }
                    })
                })?
        };
        Ok(Server {
            addr: local,
            router,
            registry,
            stopping,
            accept: Some(accept),
        })
    }

    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The shared serving counters (the `stats` op reports the same).
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.router.stats
    }

    /// Stop accepting, join live connection handlers (each finishes the
    /// job it is computing), and persist the store.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // A handler computing a job finishes it; its socket is shut down,
        // so its next read (or response write) fails and the thread exits.
        self.registry.shutdown_all();
        // The handlers (the store writers) are gone: fsync the store so
        // every spilled result is durable for the next (warm) server.
        self.router.persist_store();
    }
}

impl ConnRegistry {
    /// Undo `try_admit` when no slot was ever registered.
    fn release_unattached(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

/// Refuse an over-cap connection with one explicit `shed` response and
/// close it. Mode negotiation has not happened yet, so the refusal always
/// speaks JSON (the compat mode); the binary client falls back to parsing
/// a JSON line when the first response byte is not the frame magic.
fn refuse_connection(stream: TcpStream, router: &Router) {
    router.stats.conn_shed.fetch_add(1, Ordering::Relaxed);
    if obs::enabled() {
        flight::record(
            flight::EventKind::ConnShed,
            router.opts().conn_cap as u64,
            0,
            0,
        );
    }
    if mic_metrics::enabled() {
        mic_metrics::counter(
            "mic_serve_conn_sheds_total",
            "Connections refused by the bounded connection registry.",
            &[],
        )
        .inc();
    }
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_millis(250)));
    let resp = Response::Shed {
        id: String::new(),
        detail: format!(
            "connection limit reached ({} live connections); retry with backoff",
            router.opts().conn_cap
        ),
    };
    let mut stream = stream;
    let _ = writeln!(stream, "{}", resp.render());
}

/// Where a traced response starts its serialize span: just before
/// encoding, but only for a traced `Ok` (everything else is untraced).
fn serialize_span_start(resp: &Response) -> Option<(obs::TraceId, obs::SpanId, f64)> {
    match resp {
        Response::Ok { meta, .. } if meta.trace != 0 && obs::enabled() => {
            Some((meta.trace, meta.root_span, obs::now_us()))
        }
        _ => None,
    }
}

/// Close the serialize span opened by [`serialize_span_start`] once the
/// response is encoded and appended to the connection's write buffer. The
/// socket write that delivers it is shared with the rest of the read
/// batch, so it belongs to no single request's span tree.
fn record_serialize_span(start: Option<(obs::TraceId, obs::SpanId, f64)>) {
    if let Some((trace, root, start_us)) = start {
        span::record_new(
            trace,
            root,
            span::SpanKind::Serialize,
            None,
            start_us,
            obs::now_us(),
        );
    }
}

/// Response bytes a connection buffers before writing without waiting for
/// its next read: bounds a pipelining client's memory on the server.
const WRITE_BUF: usize = 16 * 1024;

/// The two halves of a connection behind one [`Read`]: a read that
/// reaches the transport first flushes every buffered response. The
/// handler therefore pays one write per read batch rather than one per
/// response, and never blocks in a read while a response it owes is
/// still buffered — a depth-1 client sees each answer as promptly as
/// from an unbuffered writer.
struct FlushThenRead<R, W: Write> {
    read: R,
    write: BufWriter<W>,
    /// The last `read` failed in its flush, not in the transport read.
    flush_failed: bool,
}

impl<R: Read, W: Write> Read for FlushThenRead<R, W> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Err(e) = self.write.flush() {
            self.flush_failed = true;
            return Err(e);
        }
        self.read.read(buf)
    }
}

/// Serve one accepted socket; the request loop itself is
/// [`serve_stream`], which knows nothing about TCP.
fn handle_connection(stream: TcpStream, router: &Router) {
    // One short request per response round trip: Nagle + delayed ACK
    // would add ~40 ms to every exchange.
    let _ = stream.set_nodelay(true);
    let client_ip = stream
        .peer_addr()
        .map(|a| a.ip())
        .unwrap_or(IpAddr::V4(Ipv4Addr::LOCALHOST));
    let client = router.client(client_ip);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    serve_stream(read_half, stream, router, &client);
}

/// Serve one request stream until EOF, a wire error, a failed write, or
/// shutdown. The first byte selects the wire mode: the frame magic means
/// binary framing for the rest of the stream, anything else is
/// newline-JSON compat. Responses leave in request order, each no later
/// than the next read that reaches `read` (see [`FlushThenRead`]), and
/// all of them before this returns.
fn serve_stream<R: Read, W: Write>(read: R, write: W, router: &Router, client: &ClientState) {
    let mut reader = BufReader::new(FlushThenRead {
        read,
        write: BufWriter::with_capacity(WRITE_BUF, write),
        flush_failed: false,
    });
    let binary = match reader.fill_buf() {
        Ok([]) | Err(_) => return, // EOF or failure before the first byte
        Ok(buf) => buf[0] == frame::MAGIC[0],
    };
    let max = router.opts().max_request.max(256);
    // A wire-level failure poisons the stream framing (and an endless
    // line must not be buffered forever): count it, answer one final
    // error, and drop the connection.
    let wire_error = |kind: &'static str, what: String| {
        router.count_wire_error(kind);
        Response::Error {
            id: String::new(),
            detail: format!("{what}; closing connection"),
        }
    };
    // One payload buffer per direction, reused for every frame.
    let (mut payload, mut out) = (Vec::new(), Vec::new());
    loop {
        let (resp, last) = if binary {
            match frame::read_frame_into(&mut reader, max, &mut payload) {
                Ok(None) => break, // clean EOF between frames
                Ok(Some(tag)) => (router.handle_frame(tag, &payload, client), false),
                // The responses could not be delivered: the connection
                // ends as on a failed write, not as a client wire error.
                Err(frame::FrameError::Io(_)) if reader.get_ref().flush_failed => break,
                Err(e) => (wire_error(e.kind(), e.to_string()), true),
            }
        } else {
            match frame::read_line_capped(&mut reader, max) {
                Ok(LineRead::Eof) | Err(_) => break,
                Ok(LineRead::Line(line)) if line.trim().is_empty() => continue,
                Ok(LineRead::Line(line)) => (router.handle_line(&line, client), false),
                Ok(LineRead::Overflow) => (
                    wire_error(
                        "line_overflow",
                        format!("request exceeds the {max}-byte limit"),
                    ),
                    true,
                ),
            }
        };
        let ser_start = serialize_span_start(&resp);
        let writer = &mut reader.get_mut().write;
        let written = if binary {
            let rtag = frame::encode_response_into(&resp, &mut out);
            frame::write_frame(writer, rtag, &out)
        } else {
            writeln!(writer, "{}", resp.render())
        };
        record_serialize_span(ser_start);
        if written.is_err() || last {
            break;
        }
    }
    let _ = reader.get_mut().write.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// The transport's write side: the bytes that reached it, one count
    /// per `write` call (a syscall on a socket), and a switch that makes
    /// every write fail.
    #[derive(Default)]
    struct Wire {
        bytes: Vec<u8>,
        writes: usize,
        broken: bool,
    }

    #[derive(Clone, Default)]
    struct Sink(Rc<RefCell<Wire>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut wire = self.0.borrow_mut();
            if wire.broken {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            wire.writes += 1;
            wire.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The transport's read side: one scripted chunk per `read`, then
    /// EOF. A read is where a real handler blocks, so before each one it
    /// asserts that the response to every request delivered in full so
    /// far has reached the wire, and nothing else has.
    struct Script {
        chunks: VecDeque<Vec<u8>>,
        delivered: usize,
        /// Per request: where it ends in the request stream, and where
        /// its response ends in the response stream.
        ends: Vec<(usize, usize)>,
        responses: Vec<u8>,
        sink: Sink,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let wire = self.sink.0.borrow();
            if !wire.broken {
                let owed = self
                    .ends
                    .iter()
                    .take_while(|(request_end, _)| *request_end <= self.delivered)
                    .last()
                    .map_or(0, |(_, response_end)| *response_end);
                assert!(
                    wire.bytes == self.responses[..owed],
                    "blocking in a read after {} request bytes with {} of {owed} owed \
                     response bytes on the wire",
                    self.delivered,
                    wire.bytes.len()
                );
            }
            let Some(chunk) = self.chunks.front_mut() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.chunks.pop_front();
            }
            self.delivered += n;
            Ok(n)
        }
    }

    fn new_router(max_request: usize) -> Router {
        Router::new(ServeOpts {
            shards: 1,
            max_request,
            ..ServeOpts::default()
        })
    }

    fn client(router: &Router) -> Arc<ClientState> {
        router.client(IpAddr::V4(Ipv4Addr::LOCALHOST))
    }

    fn binary_bytes(resp: &Response) -> Vec<u8> {
        let (tag, payload) = frame::encode_response(resp);
        let mut bytes = Vec::new();
        frame::write_frame(&mut bytes, tag, &payload).unwrap();
        bytes
    }

    fn json_bytes(resp: &Response) -> Vec<u8> {
        format!("{}\n", resp.render()).into_bytes()
    }

    /// Requests on one wire, and the bytes HEAD's one-write-per-response
    /// handler answered each with: the response the router builds for it
    /// alone, in the codec's encoding.
    struct Case {
        requests: Vec<Vec<u8>>,
        responses: Vec<Vec<u8>>,
    }

    impl Case {
        /// Pings whose ids are `ids`; every seventh request is one the
        /// router refuses, and the JSON wire gets a blank line (which is
        /// owed no response) after every fifth.
        fn pings(binary: bool, ids: &[String]) -> Case {
            let router = new_router(64 * 1024);
            let client = client(&router);
            let mut case = Case {
                requests: Vec::new(),
                responses: Vec::new(),
            };
            for (i, id) in ids.iter().enumerate() {
                let refused = i % 7 == 6;
                if binary {
                    let (tag, payload) = frame::encode_request(&Request::Ping { id: id.clone() });
                    let tag = if refused { 0x7f } else { tag };
                    let mut bytes = Vec::new();
                    frame::write_frame(&mut bytes, tag, &payload).unwrap();
                    case.requests.push(bytes);
                    case.responses
                        .push(binary_bytes(&router.handle_frame(tag, &payload, &client)));
                } else {
                    let op = if refused { "nope" } else { "ping" };
                    let line = format!(r#"{{"id":"{id}","op":"{op}"}}"#);
                    case.responses
                        .push(json_bytes(&router.handle_line(&line, &client)));
                    case.requests.push(format!("{line}\n").into_bytes());
                    if i % 5 == 4 {
                        case.requests.push(b"  \n".to_vec());
                        case.responses.push(Vec::new());
                    }
                }
            }
            case
        }

        fn numbered(binary: bool, n: usize) -> Case {
            Case::pings(binary, &(0..n).map(|i| format!("p{i}")).collect::<Vec<_>>())
        }

        /// Serve the request stream cut into `chunks` (one per read),
        /// answering into `sink`.
        fn serve(&self, router: &Router, chunks: Vec<Vec<u8>>, sink: &Sink) {
            let mut ends = Vec::new();
            let (mut request_end, mut response_end) = (0, 0);
            for (request, response) in self.requests.iter().zip(&self.responses) {
                request_end += request.len();
                response_end += response.len();
                ends.push((request_end, response_end));
            }
            let script = Script {
                chunks: chunks.into(),
                delivered: 0,
                ends,
                responses: self.responses.concat(),
                sink: sink.clone(),
            };
            serve_stream(script, sink.clone(), router, &client(router));
        }

        /// [`serve`](Self::serve) on a fresh router and a working wire;
        /// the whole response stream must have arrived.
        fn served(&self, chunks: Vec<Vec<u8>>) -> Wire {
            let sink = Sink::default();
            self.serve(&new_router(64 * 1024), chunks, &sink);
            let wire = sink.0.take();
            assert!(
                wire.bytes == self.responses.concat(),
                "response stream differs"
            );
            wire
        }
    }

    #[test]
    fn a_pipelined_batch_is_answered_in_order_in_at_most_two_writes() {
        for binary in [true, false] {
            let case = Case::numbered(binary, 200);
            // One request per read, as a depth-1 client sends them: one
            // write per response, each before the next read.
            let one_per_read = case.served(case.requests.clone());
            let answered = case.responses.iter().filter(|r| !r.is_empty()).count();
            assert_eq!(one_per_read.writes, answered, "binary {binary}");
            // All 200 in one read: the same bytes in the same order.
            let batched = case.served(vec![case.requests.concat()]);
            assert!(
                batched.writes <= 2,
                "binary {binary}: {} writes",
                batched.writes
            );
        }
    }

    #[test]
    fn every_owed_response_is_written_before_the_next_read() {
        for binary in [true, false] {
            let case = Case::numbered(binary, 2);
            let (a, b) = (&case.requests[0], &case.requests[1]);
            // The second request cut at every byte boundary, its head
            // arriving alone or glued to the first request (1½ frames):
            // `Script` asserts the first response is out before the
            // handler blocks for the tail.
            for cut in 1..b.len() {
                case.served(vec![a.clone(), b[..cut].to_vec(), b[cut..].to_vec()]);
                case.served(vec![[a, &b[..cut]].concat(), b[cut..].to_vec()]);
            }
            // And the first one cut everywhere, the sniffed byte included.
            for cut in 1..a.len() {
                case.served(vec![a[..cut].to_vec(), [&a[cut..], b].concat()]);
            }
        }
    }

    #[test]
    fn a_response_larger_than_the_write_buffer_passes_intact() {
        for binary in [true, false] {
            let ids = ["a".to_string(), "x".repeat(3 * WRITE_BUF), "b".to_string()];
            let case = Case::pings(binary, &ids);
            assert!(case.responses[1].len() > WRITE_BUF);
            case.served(vec![case.requests.concat()]);
            case.served(case.requests.clone());
        }
    }

    #[test]
    fn a_failed_flush_ends_the_connection_without_a_wire_error() {
        for binary in [true, false] {
            let case = Case::numbered(binary, 3);
            let sink = Sink::default();
            sink.0.borrow_mut().broken = true;
            let router = new_router(64 * 1024);
            case.serve(&router, case.requests.clone(), &sink);
            // The first response could not be flushed before the second
            // read: the handler stopped there, as on a failed write.
            assert_eq!(router.stats.received.load(Ordering::Relaxed), 1);
            assert_eq!(router.stats.frame_errors.load(Ordering::Relaxed), 0);
            assert_eq!(router.stats.errors.load(Ordering::Relaxed), 0);
            assert!(sink.0.borrow().bytes.is_empty());
        }
    }

    #[test]
    fn a_wire_error_delivers_every_earlier_response_then_one_error() {
        let max = 1024;
        let closing = |what: String| Response::Error {
            id: String::new(),
            detail: format!("{what}; closing connection"),
        };
        let mut oversize = Vec::from(frame::MAGIC);
        oversize.push(frame::WIRE_VERSION);
        oversize.extend_from_slice(&1_000_000u32.to_le_bytes());
        oversize.push(frame::TAG_PING);
        let truncated = Case::numbered(true, 1).requests.remove(0);
        let endings = [
            (
                true,
                oversize,
                "oversize",
                binary_bytes(&closing(
                    frame::FrameError::TooLarge {
                        len: 1_000_000,
                        max,
                    }
                    .to_string(),
                )),
            ),
            (
                true,
                truncated,
                "truncated",
                binary_bytes(&closing(frame::FrameError::Truncated.to_string())),
            ),
            (
                false,
                vec![b'x'; 4 * max],
                "line_overflow",
                json_bytes(&closing(format!("request exceeds the {max}-byte limit"))),
            ),
        ];
        for (binary, ending, kind, error) in endings {
            let mut case = Case::numbered(binary, 5);
            case.requests.push(ending);
            case.responses.push(error);
            let mut stream = case.requests.concat();
            if kind == "truncated" {
                // The stream ends one byte short of the last frame.
                stream.pop();
            } else {
                // Bytes after the poisoned framing are never answered.
                stream.extend_from_slice(&case.requests[0]);
            }
            let (router, sink) = (new_router(max), Sink::default());
            case.serve(&router, vec![stream], &sink);
            assert!(
                sink.0.borrow().bytes == case.responses.concat(),
                "{kind}: five responses, then the error, then nothing"
            );
            assert_eq!(
                router.stats.frame_errors.load(Ordering::Relaxed),
                1,
                "{kind}"
            );
            assert_eq!(router.stats.received.load(Ordering::Relaxed), 5, "{kind}");
        }
    }

    #[test]
    fn submit_derives_the_key_itself() {
        let Ok(Request::Simulate { spec, .. }) =
            parse_request(r#"{"id":"k","kernel":"coloring","threads":7,"scale":512}"#)
        else {
            panic!("expected simulate");
        };
        let d = Dispatcher::new(
            0,
            ServeOpts::default(),
            Arc::new(ServeStats::default()),
            None,
        );
        d.lru.put(&spec, 42.0);
        match d.submit(&spec) {
            Submission::Done { cycles, meta } => assert!(cycles == 42.0 && meta.cached),
            _ => panic!("a resident key must answer from the LRU"),
        }
    }
}
