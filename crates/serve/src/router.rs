//! The front-end router: shards `simulate` jobs across N independent
//! dispatchers and enforces per-client quotas with tiered admission.
//!
//! ## Sharding
//!
//! Each shard is a complete [`Dispatcher`] — admission bound, compute
//! slots, coalescing table, result LRU — with no shared mutable state
//! between shards (the discipline the paper's multi-core results
//! motivate: per-worker state stays private, coordination happens at the
//! edges). A job routes by the low half of its decoded
//! [`JobSpec`]'s `lru::hash_key` (the shard's LRU
//! picks a sub-shard from the high half), so identical requests land on
//! the same shard and keep coalescing and LRU locality exactly as in the
//! single-dispatcher design, while distinct jobs spread across shards and
//! stop queueing behind each other. No key text is built to route: the
//! text form [`JobSpec::key`] exists only at the durable store.
//!
//! ## Quotas and tiered admission
//!
//! Every connection is attributed to a client (its peer IP). A client's
//! in-flight `simulate` count is checked against `quota` in two tiers:
//!
//! - **hard** (`> 2×quota`): always shed — a runaway client cannot own
//!   the queue even when the server is idle;
//! - **soft** (`> quota`, only while the target shard is under pressure,
//!   i.e. its queue is at least half full): the heavy client sheds first,
//!   before admission control starts refusing everyone.
//!
//! Under-quota clients are never quota-shed; they only see ordinary
//! queue-full shedding.

use crate::protocol::{self, JobSpec, Request, Response};
use crate::server::{Dispatcher, ServeOpts, ServeStats, Submission};
use crate::{frame, lru};
use mic_eval::obs::{self, flight, span, TraceCtx};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-client (per peer IP) accounting: the in-flight `simulate` count
/// the quota tiers consult. One instance is shared by every connection
/// from the same address.
pub struct ClientState {
    inflight: AtomicUsize,
}

impl ClientState {
    /// Current in-flight simulate requests attributed to this client.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }
}

/// Decrements the client's in-flight count when the request resolves,
/// whatever path it takes out of `handle_request`.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

pub struct Router {
    opts: ServeOpts,
    shards: Vec<Arc<Dispatcher>>,
    pub stats: Arc<ServeStats>,
    clients: Mutex<HashMap<IpAddr, Arc<ClientState>>>,
    /// The durable result store every shard spills to (one shared handle
    /// — the store is single-writer per file). `None` when `store_path`
    /// is unset or the file could not be opened.
    store: Option<Arc<mic_store::Store>>,
}

impl Router {
    pub fn new(opts: ServeOpts) -> Router {
        let stats = Arc::new(ServeStats::default());
        // Open the durable result store once; a failure degrades to
        // LRU-only serving rather than refusing to start (the store is a
        // cache tier, not the source of truth).
        let store = opts.store_path.as_ref().and_then(|path| {
            let sopts = mic_store::StoreOpts {
                sync_every: opts.store_sync,
                faults: opts.fault.clone().map(|plan| plan as _),
            };
            match mic_store::Store::open_shared(path, sopts) {
                Ok(store) => Some(store),
                Err(e) => {
                    eprintln!(
                        "mic-serve: result store {} could not be opened ({e}); \
                         serving without the durable tier",
                        path.display()
                    );
                    None
                }
            }
        });
        let shards: Vec<Arc<Dispatcher>> = (0..opts.shards.max(1))
            .map(|i| {
                Arc::new(Dispatcher::new(
                    i,
                    opts.clone(),
                    Arc::clone(&stats),
                    store.clone(),
                ))
            })
            .collect();
        Router {
            opts,
            shards,
            stats,
            clients: Mutex::new(HashMap::new()),
            store,
        }
    }

    pub fn opts(&self) -> &ServeOpts {
        &self.opts
    }

    pub fn shards(&self) -> &[Arc<Dispatcher>] {
        &self.shards
    }

    /// Fsync the durable store so every spilled result survives the
    /// restart. Call once no request is computing (the requests are
    /// the writers); best-effort — a failed persist costs warm hits only.
    pub fn persist_store(&self) {
        if let Some(store) = &self.store {
            if let Err(e) = store.persist() {
                eprintln!("mic-serve: result store persist failed: {e}");
            }
        }
    }

    /// The client slot for a peer address, created on first sight.
    pub fn client(&self, ip: IpAddr) -> Arc<ClientState> {
        Arc::clone(self.clients.lock().entry(ip).or_insert_with(|| {
            Arc::new(ClientState {
                inflight: AtomicUsize::new(0),
            })
        }))
    }

    /// Which shard a job routes to: the low half of its hash.
    pub(crate) fn shard_for(&self, spec: &JobSpec) -> usize {
        (lru::hash_key(spec) as u32 as usize) % self.shards.len()
    }

    fn quota_shed(&self, id: String, tier: &'static str, concurrent: usize) -> Response {
        self.stats.quota_shed.fetch_add(1, Ordering::Relaxed);
        if mic_metrics::enabled() {
            mic_metrics::counter(
                "mic_serve_quota_sheds_total",
                "Simulate requests shed by per-client quota tiers.",
                &[("tier", tier)],
            )
            .inc();
        }
        Response::Shed {
            id,
            detail: format!(
                "client quota exceeded ({concurrent} in flight, quota {}, {tier} tier); \
                 retry with backoff",
                self.opts.quota
            ),
        }
    }

    /// Handle one newline-JSON request line (the compat wire mode).
    pub fn handle_line(&self, line: &str, client: &ClientState) -> Response {
        self.respond(protocol::parse_request(line), client)
    }

    /// Handle one decoded binary frame (tag + payload).
    pub fn handle_frame(&self, tag: u8, payload: &[u8], client: &ClientState) -> Response {
        self.respond(frame::decode_request(tag, payload), client)
    }

    /// The shared request path both wire modes feed: count, quota-check,
    /// route, time, and render — every outcome is exactly one response,
    /// which is the requests==responses invariant `serve_metrics.rs`
    /// pins.
    fn respond(&self, parsed: Result<Request, (String, String)>, client: &ClientState) -> Response {
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let op: &'static str = match &parsed {
            Ok(req) => req.op(),
            Err(_) => "invalid",
        };
        let resp = match parsed {
            Err((id, detail)) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error { id, detail }
            }
            Ok(Request::Ping { id }) => Response::Pong { id },
            Ok(Request::Stats { id }) => {
                let queue_len: usize = self.shards.iter().map(|s| s.depth()).sum();
                let inflight: usize = self.shards.iter().map(|s| s.inflight_len()).sum();
                let mut fields = self.stats.fields(queue_len, inflight);
                fields.push(("shards".into(), self.shards.len() as f64));
                if let Some(store) = &self.store {
                    for (name, value) in store.stats().fields() {
                        fields.push((name.into(), value as f64));
                    }
                }
                Response::Stats {
                    id,
                    fields,
                    build: mic_eval::buildinfo::stamp(),
                }
            }
            Ok(Request::Trace { id, trace }) => Response::Trace {
                id,
                fields: span::summarize(trace),
            },
            Ok(Request::Simulate { id, spec, ctx }) => self.simulate(id, &spec, ctx, client),
        };
        if mic_metrics::enabled() {
            let labels = [("op", op)];
            mic_metrics::counter(
                "mic_serve_requests_total",
                "Requests received, by operation.",
                &labels,
            )
            .inc();
            mic_metrics::counter(
                "mic_serve_responses_total",
                "Responses sent, by status.",
                &[("status", resp.status())],
            )
            .inc();
            // Traced Ok responses offer their trace id as the bucket's
            // exemplar (trace 0 = plain observe, bit-identical).
            let exemplar_trace = match &resp {
                Response::Ok { meta, .. } => meta.trace,
                _ => 0,
            };
            mic_metrics::histogram(
                "mic_serve_request_seconds",
                "Request latency from first byte parsed to response rendered, by operation.",
                &labels,
                &mic_metrics::seconds_buckets(),
            )
            .observe_with_exemplar(t0.elapsed().as_secs_f64(), exemplar_trace);
        }
        resp
    }

    fn simulate(
        &self,
        id: String,
        spec: &JobSpec,
        ctx: Option<TraceCtx>,
        client: &ClientState,
    ) -> Response {
        // Client context wins; with none, a traced server mints a fresh
        // root at admission (never an empty id). With observability off
        // and no client context, the request stays untraced and the
        // response is byte-identical to pre-tracing builds.
        let ctx = ctx.or_else(|| obs::enabled().then(TraceCtx::mint));
        // The request's root span id is pre-minted so every child stage
        // can parent under it before the root itself is recorded.
        let req_trace = ctx.map(|c| (c.trace, mic_eval::obs::mint_span_id()));
        let start_us = req_trace.map(|_| obs::now_us());
        let concurrent = client.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        let _guard = InflightGuard(&client.inflight);
        let quota = self.opts.quota.max(1);
        let shard = &self.shards[self.shard_for(spec)];
        let quota_tier = if concurrent > quota.saturating_mul(2) {
            Some("hard")
        } else if concurrent > quota && shard.depth() * 2 >= self.opts.queue_cap.max(1) {
            // Soft tier: only while the target shard's queue is half full.
            Some("soft")
        } else {
            None
        };
        if let Some(tier) = quota_tier {
            if let Some((trace, _)) = req_trace {
                flight::record(flight::EventKind::QuotaShed, concurrent as u64, 0, trace);
            }
            return self.quota_shed(id, tier, concurrent);
        }
        let resp = match shard.submit_traced(spec, req_trace) {
            Submission::Done { cycles, mut meta } => {
                self.stats.ok.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = ctx {
                    meta.trace = c.trace;
                    meta.root_span = req_trace.map_or(0, |(_, root)| root);
                }
                Response::Ok { id, cycles, meta }
            }
            Submission::Shed { queue_len } => Response::Shed {
                id,
                detail: format!(
                    "queue full ({queue_len}/{} jobs); retry with backoff",
                    self.opts.queue_cap
                ),
            },
            Submission::Failed(detail) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error { id, detail }
            }
        };
        if let (Some(c), Some((_, root)), Some(start_us)) = (ctx, req_trace, start_us) {
            let end_us = obs::now_us();
            // The root span: admission to response built (serialize time
            // is recorded separately by the connection handler).
            span::record(span::Span {
                trace: c.trace,
                id: root,
                parent: c.parent,
                kind: span::SpanKind::Request,
                shard: None,
                start_us,
                end_us,
            });
            let latency_us = (end_us - start_us).max(0.0) as u64;
            let ok = matches!(resp, Response::Ok { .. });
            flight::record(
                flight::EventKind::RequestDone,
                latency_us,
                ok as u64,
                c.trace,
            );
            // Tail sampling: a request past the slow threshold ships the
            // whole recorder as a post-mortem artifact.
            let slow = obs::slow_us();
            if slow > 0 && latency_us >= slow {
                flight::record(flight::EventKind::SlowRequest, latency_us, 0, c.trace);
                let _ = flight::dump("slow-request");
            }
        }
        resp
    }

    /// Count a wire-level failure that never became a request (bad magic,
    /// oversize frame, capped line, truncated payload).
    pub(crate) fn count_wire_error(&self, kind: &'static str) {
        self.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
        if mic_metrics::enabled() {
            mic_metrics::counter(
                "mic_serve_frame_errors_total",
                "Wire-level decode failures that dropped a connection.",
                &[("kind", kind)],
            )
            .inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Kernel};
    use mic_eval::graph::suite::{PaperGraph, Scale};
    use mic_eval::sim::Policy;
    use mic_eval::workload_cache::OrderTag;

    fn spec(threads: usize) -> JobSpec {
        let line = format!(r#"{{"id":"t","kernel":"coloring","threads":{threads},"scale":512}}"#);
        match parse_request(&line).unwrap() {
            Request::Simulate { spec, .. } => spec,
            _ => unreachable!(),
        }
    }

    /// Specs the way the `serve-compute` stream builds them: the 27
    /// (kernel, graph) pairs × the 5 sized policies × a grid of thread
    /// counts and sizes, in the natural, random and Cuthill–McKee orders,
    /// with `delay_ms` 0 and 1. All distinct.
    fn stream_specs() -> Vec<JobSpec> {
        let mesh = [Kernel::Coloring, Kernel::Irregular, Kernel::Bfs]
            .into_iter()
            .flat_map(|k| PaperGraph::all().map(|g| (k, g)));
        let scale_free = [Kernel::PageRank, Kernel::Components, Kernel::HybridBfs]
            .into_iter()
            .flat_map(|k| PaperGraph::scale_free().map(|g| (k, g)));
        let pairs: Vec<_> = mesh.chain(scale_free).collect();
        assert_eq!(pairs.len(), 27);
        let sized = |n: usize| {
            [
                Policy::OmpStatic { chunk: Some(n) },
                Policy::OmpDynamic { chunk: n },
                Policy::OmpGuided { min_chunk: n },
                Policy::Cilk { grain: n },
                Policy::TbbSimple { grain: n },
            ]
        };
        let orders = [
            OrderTag::Natural,
            OrderTag::Random { seed: 5 },
            OrderTag::CuthillMcKee { source: 0 },
        ];
        let mut out = Vec::new();
        for &(kernel, graph) in &pairs {
            for size in [64, 1087] {
                for policy in sized(size) {
                    for threads in [1, 61, 121] {
                        for order in orders {
                            for delay_ms in [0, 1] {
                                out.push(JobSpec {
                                    kernel,
                                    graph,
                                    order,
                                    policy,
                                    threads,
                                    scale: Scale::Fraction(16),
                                    iter: 1,
                                    delay_ms,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The spec is the job's identity: equal specs ⇔ equal key text (the
    /// store's key), and equal specs hash equal.
    #[test]
    fn spec_identity_matches_key_text_identity() {
        let specs = stream_specs();
        let keys: Vec<String> = specs.iter().map(JobSpec::key).collect();
        for (a, ka) in specs.iter().zip(&keys) {
            for (b, kb) in specs.iter().zip(&keys) {
                assert_eq!(a == b, ka == kb, "{ka} vs {kb}");
            }
        }
        // Built a second time, field by field: equal values, equal hashes.
        for (a, b) in specs.iter().zip(stream_specs()) {
            assert_eq!(*a, b);
            assert_eq!(lru::hash_key(a), lru::hash_key(&b));
            assert_eq!(a.key(), b.key());
        }
    }

    /// 4 096 distinct specs reach every dispatcher × LRU sub-shard, each
    /// within half and one and a half times its fair share.
    #[test]
    fn spec_hashes_spread_over_dispatchers_and_sub_shards() {
        let router = Router::new(ServeOpts {
            shards: 4,
            ..ServeOpts::default()
        });
        let mut cells = [[0usize; 8]; 4];
        for spec in &stream_specs()[..4096] {
            cells[router.shard_for(spec)][lru::sub_shard(lru::hash_key(spec))] += 1;
        }
        let fair = 4096 / (4 * 8);
        for (shard, subs) in cells.iter().enumerate() {
            for (sub, &n) in subs.iter().enumerate() {
                assert!(
                    2 * n >= fair && 2 * n <= 3 * fair,
                    "dispatcher {shard} sub-shard {sub}: {n} specs, fair share {fair}"
                );
            }
        }
    }

    #[test]
    fn keys_route_deterministically_and_spread() {
        let router = Router::new(ServeOpts {
            shards: 4,
            ..ServeOpts::default()
        });
        let mut seen = std::collections::HashSet::new();
        for t in 1..64 {
            let spec = spec(t);
            let a = router.shard_for(&spec);
            let b = router.shard_for(&spec);
            assert_eq!(a, b, "routing must be deterministic");
            seen.insert(a);
        }
        assert!(
            seen.len() > 1,
            "63 distinct keys must hit more than one shard"
        );
    }

    /// Regression (router shard and LRU sub-shard took the same
    /// `hash % n`): keys that all route to one dispatcher must still reach
    /// all of its LRU's sub-shards, or most of `lru_cap` is dead capacity.
    #[test]
    fn one_shards_keys_fill_its_result_lru() {
        let opts = ServeOpts::default();
        let router = Router::new(opts.clone());
        let lru = lru::ShardedLru::new(opts.lru_cap);
        (1usize..)
            .map(|chunk| JobSpec {
                policy: Policy::OmpDynamic { chunk },
                ..spec(1)
            })
            .filter(|spec| router.shard_for(spec) == 0)
            .take(opts.lru_cap)
            .for_each(|spec| lru.put(&spec, 1.0));
        assert!(
            lru.len() * 4 >= opts.lru_cap * 3,
            "{} of {} slots reachable from one router shard",
            lru.len(),
            opts.lru_cap
        );
    }
}
