//! The mic-serve server: per-shard admission control, coalescing, and
//! batching behind a bounded TCP front end.
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
//!    shard by job-key hash;
//! 3. the shard's [`Dispatcher::submit`] consults its result LRU (hit →
//!    immediate answer), then its in-flight table (identical job already
//!    admitted → **coalesce**), then claims a depth ticket with a bounded
//!    CAS loop against the admission cap (full → **shed**) and pushes
//!    onto a lock-free bounded ring;
//! 4. the shard's executor thread drains up to `batch_max` queued jobs
//!    and runs them as ONE isolated sweep invocation
//!    ([`mic_eval::sweep::try_map_on`]) on the shard's long-lived pool —
//!    a panicking job becomes a per-job failure, so a poisoned job
//!    answers `status:"error"` while everything else survives;
//! 5. completion publishes each outcome through a one-shot
//!    [`ResultCell`](crate::cell::ResultCell), waking the admitting
//!    request plus all coalesced ones, and feeds the shard's LRU. The
//!    handler encodes the response into the connection's write buffer,
//!    which is flushed no later than its next read that reaches the
//!    socket: one write per batch of pipelined requests, and for a
//!    client that waits for each answer, one per response.
//!
//! No mutex sits on the request hot path: the queue is a
//! [`BoundedQueue`] ring, the depth bound is a CAS-claimed atomic ticket
//! (never transiently over the cap, so concurrent submitters can't shed
//! each other spuriously), result hand-off is a guard-word cell, and each
//! executor parks on an [`EventCount`]. Shutdown is complete: the accept
//! loop, every live connection handler (their sockets are shut down to
//! unblock reads) and every shard executor are joined before
//! [`Server::shutdown`] returns — no handler can write after it.

use crate::cell::ResultCell;
use crate::frame::{self, LineRead};
use crate::lru::ShardedLru;
use crate::protocol::{JobSpec, Response, SimMeta};
use crate::router::{ClientState, Router};
use mic_eval::config::SuiteConfig;
use mic_eval::obs::{self, flight, span};
use mic_eval::runtime::trace as rt_trace;
use mic_eval::runtime::{BoundedQueue, EventCount, ThreadPool};
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
    /// Per-shard admission bound: requests beyond this many *queued* jobs
    /// on a shard are shed.
    pub queue_cap: usize,
    /// Most jobs folded into one sweep invocation.
    pub batch_max: usize,
    /// Per-shard result-LRU capacity (0 disables result caching).
    pub lru_cap: usize,
    /// Executor pool workers per shard.
    pub pool_threads: usize,
    /// Worker shards (each with its own queue, executor, pool and LRU).
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
}

impl Default for ServeOpts {
    fn default() -> ServeOpts {
        ServeOpts {
            queue_cap: 64,
            batch_max: 8,
            lru_cap: 256,
            pool_threads: 4,
            shards: 4,
            quota: 256,
            conn_cap: 256,
            max_request: 64 * 1024,
            store_path: None,
            store_sync: 0,
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
    pub batches: AtomicU64,
    pub executed: AtomicU64,
    /// Jobs re-routed off a dead shard (none lost).
    pub rerouted: AtomicU64,
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
            // Results answered from the durable store tier (the page-level
            // store_* rows come from the store itself via the stats op).
            ("store_result_hits".into(), g(&self.store_hits)),
            ("batches".into(), g(&self.batches)),
            ("executed".into(), g(&self.executed)),
            ("rerouted".into(), g(&self.rerouted)),
            ("quota_shed".into(), g(&self.quota_shed)),
            ("conn_shed".into(), g(&self.conn_shed)),
            ("frame_errors".into(), g(&self.frame_errors)),
            ("queue_len".into(), queue_len as f64),
            ("inflight".into(), inflight as f64),
        ]
    }
}

/// Trace identity an admitted (leader) job carries into the executor so
/// queue-wait / execute / store-write spans land under the admitting
/// request's root. Coalesced followers do not get one — their stages ARE
/// the leader's.
#[derive(Clone, Copy)]
struct JobTrace {
    trace: obs::TraceId,
    root: obs::SpanId,
    /// When the job was pushed onto the admission ring ([`obs::now_us`]).
    enqueued_us: f64,
}

/// One admitted job; waiters block on the one-shot `done` cell until it
/// holds the outcome (`cycles` + the size of the batch that computed it).
struct Job {
    spec: JobSpec,
    key: String,
    done: ResultCell<Result<(f64, usize), String>>,
    /// Leader's trace identity; `None` when the request was untraced.
    trace: Option<JobTrace>,
}

/// How `submit` resolved.
pub enum Submission {
    /// The job produced a result (computed, coalesced, or cached).
    Done { cycles: f64, meta: SimMeta },
    /// Admission control refused the job; the client should back off.
    /// `queue_len` is clamped to the admission cap — it reports the
    /// bounded queue, not a transient ticket value.
    Shed { queue_len: usize },
    /// The job panicked (a bug, or an injected `job-panic`); it ran once.
    Failed(String),
}

/// Internal marker a dying shard hands back so the router re-routes the
/// job instead of failing the client. Never escapes to a response.
pub(crate) const SHARD_DEAD: &str = "worker shard died; job re-routed";

/// One worker shard: admission ring, coalescing table, batch executor,
/// pool and result LRU. Shards never touch each other's state.
pub struct Dispatcher {
    shard: usize,
    shard_label: String,
    opts: ServeOpts,
    /// Lock-free admission ring. Capacity (next power of two ≥ `queue_cap`)
    /// can never be exceeded because `depth` tickets bound occupancy at
    /// `queue_cap`, so `push` cannot fail.
    queue: BoundedQueue<Arc<Job>>,
    /// Queued-job count, maintained at enqueue/dequeue. Admission claims
    /// it with a bounded CAS loop, so it never exceeds `queue_cap` even
    /// transiently — concurrent submitters cannot shed each other with
    /// overshoot tickets.
    depth: AtomicUsize,
    /// Coalescing table: key → in-flight job. The one remaining lock on
    /// the submit path (atomic test-and-insert of the key).
    inflight: Mutex<HashMap<String, Arc<Job>>>,
    wake: EventCount,
    lru: ShardedLru,
    /// Optional durable spill tier below the LRU, shared across shards
    /// (one handle per file, so the single-writer store stays single-
    /// writer). Probed on LRU miss; fed after every computed result.
    store: Option<Arc<mic_store::Store>>,
    stats: Arc<ServeStats>,
    stop: AtomicBool,
    /// Chaos: a killed shard fails queued jobs with [`SHARD_DEAD`] so the
    /// router re-routes them.
    dead: AtomicBool,
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
            queue: BoundedQueue::new(opts.queue_cap.max(1)),
            depth: AtomicUsize::new(0),
            inflight: Mutex::new(HashMap::new()),
            wake: EventCount::named("serve-exec"),
            lru: ShardedLru::new(opts.lru_cap),
            store,
            stats,
            stop: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            opts,
        }
    }

    pub fn opts(&self) -> &ServeOpts {
        &self.opts
    }

    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Queued (admitted, not yet executing) jobs on this shard.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// In-flight (admitted or executing) distinct jobs on this shard.
    pub fn inflight_len(&self) -> usize {
        self.inflight.lock().len()
    }

    /// Ask the executor to stop once the queue is drained.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.notify();
    }

    /// Chaos: mark the shard dead. Queued jobs are failed with the
    /// re-route marker (by the executor, or by any submitter that races
    /// past the executor's exit) — they are re-routed, not lost.
    pub fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
        self.wake.notify();
        // The executor may already be gone (or mid-batch): drain here too
        // so no queued job waits on a dead shard.
        self.drain_dead();
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Fail every queued job with the re-route marker. Safe to call from
    /// any thread, concurrently with the executor: the ring is MPMC and
    /// the result cells are one-shot.
    fn drain_dead(&self) {
        while let Some(job) = self.queue.pop() {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            self.inflight.lock().remove(&job.key);
            let _ = job.done.set(Err(SHARD_DEAD.to_string()));
        }
        self.set_queue_gauge();
    }

    /// Admit one job and block until it resolves (or is shed).
    pub fn submit(&self, spec: &JobSpec) -> Submission {
        self.submit_traced(spec, &spec.key(), None)
    }

    /// [`submit`](Self::submit) for a caller that already holds the
    /// spec's [`key`](JobSpec::key) (the router derives it once per
    /// request, to pick the shard), with the admitting request's trace
    /// identity (trace id + pre-minted root span id), so every stage the
    /// job passes through records a span under that root.
    pub fn submit_traced(
        &self,
        spec: &JobSpec,
        key: &str,
        req_trace: Option<(obs::TraceId, obs::SpanId)>,
    ) -> Submission {
        debug_assert_eq!(key, spec.key());
        if self.is_dead() {
            return Submission::Failed(SHARD_DEAD.to_string());
        }
        let t0 = Instant::now();
        if let Some(cycles) = self.lru.get(key) {
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
        let store_cycles = self.store_get(key);
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
            self.lru.put(key, cycles);
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
        let (job, coalesced) = {
            let mut inflight = self.inflight.lock();
            if let Some(job) = inflight.get(key) {
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
                (Arc::clone(job), true)
            } else {
                // Claim an admission ticket with a bounded CAS loop: the
                // counter is only ever incremented while strictly under
                // the cap, so it cannot overshoot and a burst of
                // concurrent submitters cannot observe phantom depth.
                let mut seen = self.depth.load(Ordering::Relaxed);
                let admitted = loop {
                    if seen >= self.opts.queue_cap {
                        break false;
                    }
                    match self.depth.compare_exchange_weak(
                        seen,
                        seen + 1,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => break true,
                        Err(cur) => seen = cur,
                    }
                };
                if !admitted {
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
                let job = Arc::new(Job {
                    spec: spec.clone(),
                    key: key.to_string(),
                    done: ResultCell::new(),
                    trace: req_trace.map(|(trace, root)| JobTrace {
                        trace,
                        root,
                        enqueued_us: obs::now_us(),
                    }),
                });
                inflight.insert(key.to_string(), Arc::clone(&job));
                drop(inflight);
                if self.queue.push(Arc::clone(&job)).is_err() {
                    unreachable!("admission ring sized above queue_cap tickets");
                }
                self.set_queue_gauge();
                self.wake.notify();
                if let Some((trace, _)) = req_trace {
                    flight::record(
                        flight::EventKind::Admit,
                        self.shard as u64,
                        self.depth.load(Ordering::Relaxed) as u64,
                        trace,
                    );
                }
                if self.is_dead() {
                    // Raced a kill: the executor may have drained and
                    // exited before our push landed. Drain ourselves so
                    // this job (and any neighbour) fails over promptly.
                    self.drain_dead();
                }
                (job, false)
            }
        };
        match job.done.wait() {
            Ok((cycles, batch)) => Submission::Done {
                cycles: *cycles,
                meta: SimMeta::untraced(*batch, coalesced, false, t0.elapsed().as_secs_f64() * 1e3),
            },
            Err(msg) => Submission::Failed(msg.clone()),
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

    /// Feed a computed result to the durable store, best-effort: a write
    /// failure costs a future warm hit, never the in-flight response.
    fn store_put(&self, key: &str, cycles: f64) {
        if let Some(store) = &self.store {
            let _ = store.put(key.as_bytes(), &cycles.to_le_bytes());
        }
    }

    /// Export this shard's queue depth from its `AtomicUsize` — called at
    /// enqueue and dequeue, never while holding any lock.
    fn set_queue_gauge(&self) {
        if mic_metrics::enabled() {
            mic_metrics::gauge(
                "mic_serve_queue_depth",
                "Jobs admitted and waiting for a shard's batch executor.",
                &[("shard", &self.shard_label)],
            )
            .set(self.depth.load(Ordering::Relaxed) as f64);
        }
    }

    /// The shard's batch executor: runs until [`request_stop`] with an
    /// empty queue, or until [`kill`] (which fails queued jobs over to
    /// other shards). One long-lived pool serves every batch.
    ///
    /// [`request_stop`]: Self::request_stop
    /// [`kill`]: Self::kill
    pub fn executor_loop(&self) {
        // Tag this executor (and, via lane inheritance, every pool worker
        // it spawns) with the shard's trace lane, so the Chrome exporter
        // renders each shard on its own `shard-N/worker-M` timeline rows.
        rt_trace::set_lane(self.shard + 1);
        let pool = ThreadPool::new(self.opts.pool_threads.max(1));
        loop {
            self.wake.park_until(|| {
                self.stop.load(Ordering::SeqCst)
                    || self.dead.load(Ordering::SeqCst)
                    || !self.queue.is_empty()
            });
            if self.is_dead() {
                self.drain_dead();
                return;
            }
            let mut batch: Vec<Arc<Job>> = Vec::new();
            while batch.len() < self.opts.batch_max.max(1) {
                match self.queue.pop() {
                    Some(job) => {
                        self.depth.fetch_sub(1, Ordering::AcqRel);
                        batch.push(job);
                    }
                    None => break,
                }
            }
            if batch.is_empty() {
                if self.stop.load(Ordering::SeqCst) {
                    return; // stopped and drained
                }
                continue; // raced another wakeup; park again
            }
            self.set_queue_gauge();
            self.stats.batches.fetch_add(1, Ordering::Relaxed);
            self.stats
                .executed
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            if mic_metrics::enabled() {
                scounter(
                    "mic_serve_batches_total",
                    "Sweep invocations issued by the batch executors.",
                )
                .inc();
                mic_metrics::histogram(
                    "mic_serve_batch_jobs",
                    "Jobs folded into one sweep invocation.",
                    &[],
                    &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                )
                .observe(batch.len() as f64);
            }
            // The batch was popped: close each traced job's queue-wait
            // span (push → pop) before the sweep starts.
            if obs::enabled() {
                let popped_us = obs::now_us();
                for job in &batch {
                    if let Some(jt) = &job.trace {
                        span::record_new(
                            jt.trace,
                            jt.root,
                            span::SpanKind::QueueWait,
                            Some(self.shard),
                            jt.enqueued_us,
                            popped_us,
                        );
                    }
                }
            }
            let specs: Vec<JobSpec> = batch.iter().map(|j| j.spec.clone()).collect();
            let traces: Vec<Option<(obs::TraceId, obs::SpanId)>> = batch
                .iter()
                .map(|j| j.trace.as_ref().map(|jt| (jt.trace, jt.root)))
                .collect();
            let shard = self.shard;
            let report = sweep::try_map_on(&pool, &specs, |i, s| {
                match traces.get(i).copied().flatten() {
                    Some((trace, root)) if obs::enabled() => {
                        let start_us = obs::now_us();
                        let cycles = s.compute();
                        span::record_new(
                            trace,
                            root,
                            span::SpanKind::Execute,
                            Some(shard),
                            start_us,
                            obs::now_us(),
                        );
                        cycles
                    }
                    _ => s.compute(),
                }
            });
            let mut fail_by_point: HashMap<usize, String> = report
                .failures
                .iter()
                .map(|f| (f.point, f.to_string()))
                .collect();
            for (i, job) in batch.iter().enumerate() {
                let outcome = match report.results.get(i).and_then(|r| r.as_ref()) {
                    Some(cycles) => {
                        self.lru.put(&job.key, *cycles);
                        let write_start = job
                            .trace
                            .as_ref()
                            .filter(|_| self.store.is_some() && obs::enabled())
                            .map(|_| obs::now_us());
                        self.store_put(&job.key, *cycles);
                        if let (Some(jt), Some(start_us)) = (&job.trace, write_start) {
                            span::record_new(
                                jt.trace,
                                jt.root,
                                span::SpanKind::StoreWrite,
                                Some(self.shard),
                                start_us,
                                obs::now_us(),
                            );
                        }
                        Ok((*cycles, batch.len()))
                    }
                    None => Err(fail_by_point
                        .remove(&i)
                        .unwrap_or_else(|| "job failed".to_string())),
                };
                self.inflight.lock().remove(&job.key);
                // One-shot publish wakes the admitting waiter and every
                // coalesced one; a job runs once, so `set` cannot lose.
                let _ = job.done.set(outcome);
            }
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

    /// Claim a connection slot with a bounded CAS loop (same discipline
    /// as the admission ticket: no transient overshoot).
    fn try_admit(&self) -> bool {
        let mut seen = self.active.load(Ordering::Relaxed);
        loop {
            if seen >= self.cap {
                return false;
            }
            match self.active.compare_exchange_weak(
                seen,
                seen + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(cur) => seen = cur,
            }
        }
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
/// live connection handler, and drains and joins every shard executor.
pub struct Server {
    pub addr: SocketAddr,
    router: Arc<Router>,
    registry: Arc<ConnRegistry>,
    stopping: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    executors: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving.
    pub fn start(addr: &str, opts: ServeOpts) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let conn_cap = opts.conn_cap;
        let router = Arc::new(Router::new(opts));
        let registry = Arc::new(ConnRegistry::new(conn_cap));
        let stopping = Arc::new(AtomicBool::new(false));
        let executors = router.spawn_executors()?;
        let accept = {
            let router = Arc::clone(&router);
            let registry = Arc::clone(&registry);
            let stopping = Arc::clone(&stopping);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || {
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
                        match std::thread::Builder::new().name("serve-conn".into()).spawn(
                            move || {
                                handle_connection(stream, &r);
                                reg.release(id);
                            },
                        ) {
                            Ok(handle) => registry.attach(id, handle),
                            Err(_) => registry.release(id),
                        }
                    }
                })?
        };
        Ok(Server {
            addr: local,
            router,
            registry,
            stopping,
            accept: Some(accept),
            executors,
        })
    }

    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The shared serving counters (the `stats` op reports the same).
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.router.stats
    }

    /// Stop accepting, join live connection handlers, drain the shard
    /// queues, and join the executors.
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
        // Join handlers BEFORE stopping executors: a handler blocked on a
        // submitted job needs the executor alive to resolve its cell; its
        // socket is shut down, so its next read (or response write)
        // fails and the thread exits.
        self.registry.shutdown_all();
        self.router.shutdown();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
        // Executors (the store writers) are gone: flip the header so every
        // spilled result is durable for the next (warm) server.
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
    let mut payload = Vec::new();
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
            let (rtag, rpayload) = frame::encode_response(&resp);
            frame::write_frame(writer, rtag, &rpayload)
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
        d.lru.put(&spec.key(), 42.0);
        match d.submit(&spec) {
            Submission::Done { cycles, meta } => assert!(cycles == 42.0 && meta.cached),
            _ => panic!("a resident key must answer from the LRU"),
        }
    }
}
