//! The mic-serve wire protocol: newline-delimited JSON over plain TCP.
//!
//! One request per line, one response line per request, in order. The
//! reader/writer is [`mic_eval::json`], so numbers round-trip bit-exactly:
//! a `cycles` value computed by the server parses back to the identical
//! `f64` on the client — the basis of the "served results are bit-identical
//! to direct simulation" guarantee.
//!
//! ## Requests
//!
//! ```json
//! {"id":"r1","op":"simulate","kernel":"coloring","graph":"hood",
//!  "order":"natural","runtime":"omp","sched":"dynamic","chunk":100,
//!  "threads":121,"scale":64,"iter":1}
//! {"id":"r2","op":"ping"}
//! {"id":"r3","op":"stats"}
//! ```
//!
//! Field defaults: `op` = `simulate`, `graph` = `hood`, `order` =
//! `natural` (`random` takes `seed`, default 5), `runtime` = `omp`,
//! `sched` = `dynamic` (omp) / `simple` (tbb), `chunk`/`grain` = 100 (40
//! for tbb), `threads` = 121, `scale` = 64, `iter` = 1. `delay_ms` makes
//! the job sleep before simulating — a debug knob the tests use to hold
//! a shard's compute slot busy deterministically.
//!
//! ## Responses
//!
//! Every response carries `id`, `status` and `schema_version`. Statuses:
//! `ok` (with `cycles`, `batch`, `coalesced`, `cached`, `queue_ms`),
//! `pong`, `stats`, `shed` (queue full — back off and retry), `error`
//! (bad request or a fault-injected job failure; the connection stays
//! usable). A `schema_version` this build does not understand is
//! rejected by [`parse_response`].

use mic_eval::exhibit::{self, KernelId};
use mic_eval::graph::stats::LocalityWindows;
use mic_eval::graph::suite::{PaperGraph, Scale};
use mic_eval::json::Value;
use mic_eval::obs::TraceCtx;
use mic_eval::sim::{simulate, Machine, Policy};
use mic_eval::workload_cache::OrderTag;

/// Version stamp on every JSON response line.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// Which instrumented kernel a job simulates: the simulable subset of the
/// exhibit registry's [`KernelId`] set (everything but `Table`, which has
/// no region sequence to serve). Names on the wire are the registry's
/// stable kernel codes, so a serve job key and a registry exhibit agree
/// on vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    Coloring,
    Irregular,
    Bfs,
    PageRank,
    Components,
    HybridBfs,
}

impl Kernel {
    /// The registry-side id this kernel dispatches through.
    pub fn id(self) -> KernelId {
        match self {
            Kernel::Coloring => KernelId::Coloring,
            Kernel::Irregular => KernelId::Irregular,
            Kernel::Bfs => KernelId::Bfs,
            Kernel::PageRank => KernelId::PageRank,
            Kernel::Components => KernelId::Components,
            Kernel::HybridBfs => KernelId::HybridBfs,
        }
    }

    pub fn name(self) -> &'static str {
        self.id().code()
    }

    pub fn parse(s: &str) -> Option<Kernel> {
        match KernelId::parse(s)? {
            KernelId::Table => None,
            KernelId::Coloring => Some(Kernel::Coloring),
            KernelId::Irregular => Some(Kernel::Irregular),
            KernelId::Bfs => Some(Kernel::Bfs),
            KernelId::PageRank => Some(Kernel::PageRank),
            KernelId::Components => Some(Kernel::Components),
            KernelId::HybridBfs => Some(Kernel::HybridBfs),
        }
    }
}

/// A fully-validated simulation job. Two requests with equal specs are
/// the *same* job: the spec itself is the routing, coalescing and cache
/// key (it has no float field, so `Eq` is total), and [`JobSpec::key`]
/// is its text form for the durable store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobSpec {
    pub kernel: Kernel,
    pub graph: PaperGraph,
    pub order: OrderTag,
    pub policy: Policy,
    pub threads: usize,
    pub scale: Scale,
    pub iter: usize,
    pub delay_ms: u64,
}

impl JobSpec {
    /// Canonical identity string: equal specs ⇔ equal keys.
    pub fn key(&self) -> String {
        let scale = match self.scale {
            Scale::Full => "full".to_string(),
            Scale::Fraction(k) => format!("1/{k}"),
            other => format!("{other:?}"),
        };
        format!(
            "{}/{}/{:?}/{scale}/{:?}/t{}/i{}/d{}",
            self.kernel.name(),
            self.graph.name(),
            self.order,
            self.policy,
            self.threads,
            self.iter,
            self.delay_ms,
        )
    }

    /// Run the simulation and return the cycle count. Deterministic for a
    /// given spec; workloads come from the shared process-wide cache, so
    /// repeated jobs only pay the engine, not instrumentation. May panic
    /// under injected faults — callers run it on a resilient sweep path.
    pub fn compute(&self) -> f64 {
        if self.delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
        }
        let regions = exhibit::kernel_regions(
            self.kernel.id(),
            self.graph,
            self.scale,
            self.order,
            LocalityWindows::default(),
            self.iter,
            self.policy,
        );
        simulate(&Machine::knf(), self.threads, &regions).cycles
    }
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    Simulate {
        id: String,
        spec: JobSpec,
        /// Client-carried trace context (`trace_id` / `parent_span` on the
        /// JSON wire, the optional trailing block on the binary one).
        /// `None` = the client did not trace; the server mints a fresh
        /// root when observability is on, so a traced server never
        /// records under an empty id.
        ctx: Option<TraceCtx>,
    },
    Ping {
        id: String,
    },
    Stats {
        id: String,
    },
    /// Ask the server to summarize the spans it retained for one trace.
    Trace {
        id: String,
        trace: mic_eval::obs::TraceId,
    },
}

impl Request {
    /// The `op` value, for the per-op request counter.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Simulate { .. } => "simulate",
            Request::Ping { .. } => "ping",
            Request::Stats { .. } => "stats",
            Request::Trace { .. } => "trace",
        }
    }
}

fn field_u64(obj: &Value, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

/// A wire `threads` value as a count the engine accepts (0 reads as 1).
/// `simulate` asserts on more than the simulated machine has, so that is
/// refused here, on both wires: an `error` response, not a panicked job.
pub(crate) fn checked_threads(raw: u64) -> Result<usize, String> {
    let limit = Machine::knf().hw_threads();
    if raw > limit as u64 {
        return Err(format!(
            "field \"threads\" must be at most {limit}, got {raw}"
        ));
    }
    Ok((raw as usize).max(1))
}

fn field_str<'a>(obj: &'a Value, key: &str, default: &'a str) -> Result<&'a str, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v
            .as_str()
            .ok_or_else(|| format!("field {key:?} must be a string")),
    }
}

fn parse_policy(obj: &Value) -> Result<Policy, String> {
    let runtime = field_str(obj, "runtime", "omp")?;
    Ok(match runtime {
        "omp" => {
            let chunk = field_u64(obj, "chunk", 100)? as usize;
            match field_str(obj, "sched", "dynamic")? {
                "static" => Policy::OmpStatic {
                    chunk: (chunk > 0).then_some(chunk),
                },
                "dynamic" => Policy::OmpDynamic {
                    chunk: chunk.max(1),
                },
                "guided" => Policy::OmpGuided {
                    min_chunk: chunk.max(1),
                },
                other => return Err(format!("unknown omp sched {other:?}")),
            }
        }
        "cilk" => Policy::Cilk {
            grain: (field_u64(obj, "grain", 100)? as usize).max(1),
        },
        "tbb" => match field_str(obj, "sched", "simple")? {
            "simple" => Policy::TbbSimple {
                grain: (field_u64(obj, "grain", 40)? as usize).max(1),
            },
            "auto" => Policy::TbbAuto,
            "affinity" => Policy::TbbAffinity,
            other => return Err(format!("unknown tbb sched {other:?}")),
        },
        "serial" => Policy::Serial,
        other => return Err(format!("unknown runtime {other:?}")),
    })
}

/// Parse one request line. On error, returns the request `id` when one
/// could be extracted (so the error response still correlates) plus a
/// message naming the offending field.
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let doc = mic_eval::json::parse(line).map_err(|e| (String::new(), format!("bad JSON: {e}")))?;
    let id = doc
        .get("id")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let fail = |msg: String| (id.clone(), msg);
    match doc.get("op").and_then(Value::as_str).unwrap_or("simulate") {
        "ping" => return Ok(Request::Ping { id }),
        "stats" => return Ok(Request::Stats { id }),
        "trace" => {
            let hex = field_str(&doc, "trace_id", "").map_err(&fail)?;
            let trace = mic_eval::obs::parse_trace_hex(hex).ok_or_else(|| {
                fail(format!(
                    "field \"trace_id\" must be 32 hex chars (nonzero), got {hex:?}"
                ))
            })?;
            return Ok(Request::Trace { id, trace });
        }
        "simulate" => {}
        other => return Err(fail(format!("unknown op {other:?}"))),
    }
    // Optional client-minted trace context. A malformed id is a request
    // error (silently dropping it would orphan the client's trace).
    let ctx = match field_str(&doc, "trace_id", "").map_err(&fail)? {
        "" => None,
        hex => {
            let trace = mic_eval::obs::parse_trace_hex(hex).ok_or_else(|| {
                fail(format!(
                    "field \"trace_id\" must be 32 hex chars (nonzero), got {hex:?}"
                ))
            })?;
            let parent = match field_str(&doc, "parent_span", "").map_err(&fail)? {
                "" => 0,
                p => mic_eval::obs::parse_span_hex(p).ok_or_else(|| {
                    fail(format!(
                        "field \"parent_span\" must be 16 hex chars, got {p:?}"
                    ))
                })?,
            };
            Some(TraceCtx { trace, parent })
        }
    };
    let kernel_name = field_str(&doc, "kernel", "").map_err(&fail)?;
    let kernel = Kernel::parse(kernel_name).ok_or_else(|| {
        fail(format!(
            "field \"kernel\" must be one of \
             coloring|irregular|bfs|pagerank|components|hybrid-bfs, got {kernel_name:?}"
        ))
    })?;
    let graph_name = field_str(&doc, "graph", "hood").map_err(&fail)?;
    let graph = PaperGraph::every()
        .into_iter()
        .find(|g| g.name() == graph_name)
        .ok_or_else(|| fail(format!("unknown graph {graph_name:?}")))?;
    let order = match field_str(&doc, "order", "natural").map_err(&fail)? {
        "natural" => OrderTag::Natural,
        "random" => OrderTag::Random {
            seed: field_u64(&doc, "seed", 5).map_err(&fail)?,
        },
        other => return Err(fail(format!("unknown order {other:?}"))),
    };
    let policy = parse_policy(&doc).map_err(&fail)?;
    let threads =
        checked_threads(field_u64(&doc, "threads", 121).map_err(&fail)?).map_err(&fail)?;
    let scale = match field_u64(&doc, "scale", 64).map_err(&fail)? {
        k if k <= 1 => Scale::Full,
        k => Scale::Fraction(k.min(u32::MAX as u64) as u32),
    };
    let iter = (field_u64(&doc, "iter", 1).map_err(&fail)? as usize).clamp(1, 100);
    let delay_ms = field_u64(&doc, "delay_ms", 0).map_err(&fail)?.min(60_000);
    Ok(Request::Simulate {
        id,
        spec: JobSpec {
            kernel,
            graph,
            order,
            policy,
            threads,
            scale,
            iter,
            delay_ms,
        },
        ctx,
    })
}

/// How a completed simulation was satisfied, echoed back to the client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimMeta {
    /// 1 when a job was computed for this result (by this request or the
    /// one it coalesced onto), 0 when it was served from a cache.
    pub batch: usize,
    /// This request attached to an identical in-flight job.
    pub coalesced: bool,
    /// Served straight from the bounded result LRU.
    pub cached: bool,
    /// Wall time from admission to completion.
    pub queue_ms: f64,
    /// Trace id this request was recorded under; 0 = untraced (trace
    /// fields are then omitted from the wire, keeping untraced responses
    /// byte-identical to pre-tracing builds).
    pub trace: mic_eval::obs::TraceId,
    /// Root span id of the request's span tree; 0 = untraced.
    pub root_span: mic_eval::obs::SpanId,
}

impl SimMeta {
    /// Untraced meta with every counter zeroed — the base the dispatcher
    /// builds on.
    pub fn untraced(batch: usize, coalesced: bool, cached: bool, queue_ms: f64) -> SimMeta {
        SimMeta {
            batch,
            coalesced,
            cached,
            queue_ms,
            trace: 0,
            root_span: 0,
        }
    }
}

/// A response line.
#[derive(Clone, Debug)]
pub enum Response {
    Ok {
        id: String,
        cycles: f64,
        meta: SimMeta,
    },
    Pong {
        id: String,
    },
    Stats {
        id: String,
        fields: Vec<(String, f64)>,
        /// Build stamp (`<version>+<sha>`) of the serving binary, so a
        /// stats snapshot is attributable to the commit that produced it.
        build: String,
    },
    /// Span summary for one trace (`spans`, `total_us`, per-kind `_us` /
    /// `_count` pairs — empty when the trace is unknown or aged out).
    Trace {
        id: String,
        fields: Vec<(String, f64)>,
    },
    Shed {
        id: String,
        detail: String,
    },
    Error {
        id: String,
        detail: String,
    },
}

impl Response {
    /// The `status` value, for the per-status response counter.
    pub fn status(&self) -> &'static str {
        match self {
            Response::Ok { .. } => "ok",
            Response::Pong { .. } => "pong",
            Response::Stats { .. } => "stats",
            Response::Trace { .. } => "trace",
            Response::Shed { .. } => "shed",
            Response::Error { .. } => "error",
        }
    }

    /// Render as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut fields: Vec<(String, Value)> = vec![
            (
                "id".into(),
                Value::str(match self {
                    Response::Ok { id, .. }
                    | Response::Pong { id }
                    | Response::Stats { id, .. }
                    | Response::Trace { id, .. }
                    | Response::Shed { id, .. }
                    | Response::Error { id, .. } => id.clone(),
                }),
            ),
            ("status".into(), Value::str(self.status())),
            ("schema_version".into(), Value::Num(SCHEMA_VERSION as f64)),
        ];
        match self {
            Response::Ok { cycles, meta, .. } => {
                fields.push(("cycles".into(), Value::Num(*cycles)));
                fields.push(("batch".into(), Value::Num(meta.batch as f64)));
                fields.push(("coalesced".into(), Value::Bool(meta.coalesced)));
                fields.push(("cached".into(), Value::Bool(meta.cached)));
                fields.push(("queue_ms".into(), Value::Num(meta.queue_ms)));
                if meta.trace != 0 {
                    fields.push((
                        "trace_id".into(),
                        Value::str(mic_eval::obs::trace_hex(meta.trace)),
                    ));
                    fields.push((
                        "root_span".into(),
                        Value::str(mic_eval::obs::span_hex(meta.root_span)),
                    ));
                }
            }
            Response::Stats {
                fields: st, build, ..
            } => {
                for (k, v) in st {
                    fields.push((k.clone(), Value::Num(*v)));
                }
                fields.push(("build".into(), Value::str(build.clone())));
            }
            Response::Trace { fields: st, .. } => {
                for (k, v) in st {
                    fields.push((k.clone(), Value::Num(*v)));
                }
            }
            Response::Shed { detail, .. } | Response::Error { detail, .. } => {
                fields.push(("error".into(), Value::str(detail.clone())));
            }
            Response::Pong { .. } => {}
        }
        Value::Obj(fields).render()
    }
}

/// Parse a response line (the client side). Rejects lines stamped with a
/// `schema_version` this build does not understand.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let doc = mic_eval::json::parse(line).map_err(|e| format!("bad response JSON: {e}"))?;
    if let Some(v) = doc.get("schema_version") {
        match v.as_u64() {
            Some(SCHEMA_VERSION) => {}
            Some(n) => {
                return Err(format!(
                    "unsupported schema_version {n}: this build understands \
                     version {SCHEMA_VERSION}"
                ))
            }
            None => return Err("schema_version must be a non-negative integer".into()),
        }
    }
    let id = doc
        .get("id")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let num = |key: &str| doc.get(key).and_then(Value::as_f64);
    match doc.get("status").and_then(Value::as_str) {
        Some("ok") => Ok(Response::Ok {
            id,
            cycles: num("cycles").ok_or("ok response without cycles")?,
            meta: SimMeta {
                batch: num("batch").unwrap_or(0.0) as usize,
                coalesced: doc
                    .get("coalesced")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                cached: doc.get("cached").and_then(Value::as_bool).unwrap_or(false),
                queue_ms: num("queue_ms").unwrap_or(0.0),
                trace: doc
                    .get("trace_id")
                    .and_then(Value::as_str)
                    .and_then(mic_eval::obs::parse_trace_hex)
                    .unwrap_or(0),
                root_span: doc
                    .get("root_span")
                    .and_then(Value::as_str)
                    .and_then(mic_eval::obs::parse_span_hex)
                    .unwrap_or(0),
            },
        }),
        Some("pong") => Ok(Response::Pong { id }),
        Some("stats") => {
            let fields = match &doc {
                Value::Obj(fs) => fs
                    .iter()
                    .filter(|(k, _)| {
                        !matches!(k.as_str(), "id" | "status" | "schema_version" | "build")
                    })
                    .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                    .collect(),
                _ => Vec::new(),
            };
            let build = doc
                .get("build")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            Ok(Response::Stats { id, fields, build })
        }
        Some("trace") => {
            let fields = match &doc {
                Value::Obj(fs) => fs
                    .iter()
                    .filter(|(k, _)| !matches!(k.as_str(), "id" | "status" | "schema_version"))
                    .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                    .collect(),
                _ => Vec::new(),
            };
            Ok(Response::Trace { id, fields })
        }
        Some("shed") => Ok(Response::Shed {
            id,
            detail: doc
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
        }),
        Some("error") => Ok(Response::Error {
            id,
            detail: doc
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
        }),
        other => Err(format!("unknown response status {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_request_round_trips() {
        let req = r#"{"id":"r1","kernel":"coloring","graph":"hood","order":"random","seed":7,
                      "runtime":"omp","sched":"dynamic","chunk":100,"threads":61,"scale":128}"#
            .replace('\n', " ");
        let Request::Simulate { id, spec, ctx } = parse_request(&req).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(id, "r1");
        assert_eq!(spec.kernel, Kernel::Coloring);
        assert_eq!(spec.order, OrderTag::Random { seed: 7 });
        assert_eq!(spec.policy, Policy::OmpDynamic { chunk: 100 });
        assert_eq!(spec.threads, 61);
        assert_eq!(spec.scale, Scale::Fraction(128));
        assert_eq!(spec.iter, 1);
        assert_eq!(ctx, None);
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let Request::Simulate { spec, .. } = parse_request(r#"{"id":"x","kernel":"bfs"}"#).unwrap()
        else {
            panic!("expected simulate");
        };
        assert_eq!(spec.graph, PaperGraph::Hood);
        assert_eq!(spec.order, OrderTag::Natural);
        assert_eq!(spec.policy, Policy::OmpDynamic { chunk: 100 });
        assert_eq!(spec.threads, 121);
        assert_eq!(spec.scale, Scale::Fraction(64));
    }

    #[test]
    fn scale_free_kernels_parse_with_rmat_graphs() {
        for (kernel, want) in [
            ("pagerank", Kernel::PageRank),
            ("components", Kernel::Components),
            ("hybrid-bfs", Kernel::HybridBfs),
        ] {
            let line = format!(r#"{{"id":"k","kernel":"{kernel}","graph":"rmat-ef16"}}"#);
            let Request::Simulate { spec, .. } = parse_request(&line).unwrap() else {
                panic!("expected simulate");
            };
            assert_eq!(spec.kernel, want);
            assert_eq!(spec.graph, PaperGraph::RmatEf16);
            // The registry's kernel code is the wire name.
            assert_eq!(spec.kernel.name(), kernel);
            assert!(spec.key().starts_with(&format!("{kernel}/rmat-ef16/")));
        }
        // "table" is a registry kernel but has nothing to simulate.
        assert!(Kernel::parse("table").is_none());
    }

    /// A JSON-wire client may escape a non-BMP character as a surrogate
    /// pair; the id it gets back must be the one character it sent.
    #[test]
    fn escaped_non_bmp_id_comes_back_intact() {
        let line = r#"{"id":"r\ud83d\ude00","op":"ping"}"#;
        let Request::Ping { id } = parse_request(line).unwrap() else {
            panic!("expected ping");
        };
        assert_eq!(id, "r\u{1f600}");
        let back = parse_response(&Response::Pong { id }.render()).unwrap();
        assert!(matches!(back, Response::Pong { id } if id == "r\u{1f600}"));
    }

    #[test]
    fn bad_fields_name_the_problem() {
        let err = parse_request(r#"{"id":"q","kernel":"sorting"}"#).unwrap_err();
        assert_eq!(err.0, "q");
        assert!(err.1.contains("kernel"), "{}", err.1);
        let err = parse_request(r#"{"id":"q","kernel":"bfs","runtime":"mpi"}"#).unwrap_err();
        assert!(err.1.contains("runtime"), "{}", err.1);
        let err = parse_request("not json").unwrap_err();
        assert!(err.1.contains("bad JSON"), "{}", err.1);
    }

    #[test]
    fn identical_specs_share_a_key_distinct_ones_do_not() {
        let parse = |line: &str| match parse_request(line).unwrap() {
            Request::Simulate { spec, .. } => spec,
            _ => panic!("expected simulate"),
        };
        let a = parse(r#"{"id":"a","kernel":"coloring","threads":61}"#);
        let b = parse(r#"{"id":"b","kernel":"coloring","threads":61}"#);
        let c = parse(r#"{"id":"c","kernel":"coloring","threads":121}"#);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }

    /// Key text is what persisted result stores and the benchmark's
    /// stream goldens are indexed by: one literal per scale form.
    #[test]
    fn key_text_is_pinned() {
        let spec = |scale, order, policy| JobSpec {
            kernel: Kernel::Coloring,
            graph: PaperGraph::Hood,
            order,
            policy,
            threads: 61,
            scale,
            iter: 2,
            delay_ms: 5,
        };
        let keys = [
            spec(Scale::Full, OrderTag::Natural, Policy::TbbAuto).key(),
            spec(
                Scale::Fraction(64),
                OrderTag::Random { seed: 7 },
                Policy::OmpDynamic { chunk: 100 },
            )
            .key(),
            spec(
                Scale::Vertices(4096),
                OrderTag::CuthillMcKee { source: 3 },
                Policy::OmpStatic { chunk: None },
            )
            .key(),
        ];
        assert_eq!(
            keys,
            [
                "coloring/hood/Natural/full/TbbAuto/t61/i2/d5",
                "coloring/hood/Random { seed: 7 }/1/64/OmpDynamic { chunk: 100 }/t61/i2/d5",
                "coloring/hood/CuthillMcKee { source: 3 }/Vertices(4096)/OmpStatic { chunk: None }\
                 /t61/i2/d5",
            ]
        );
    }

    #[test]
    fn response_cycles_round_trip_bit_exactly() {
        for bits in [
            0x3ff0000000000001u64,
            0x4197d78400000001,
            0x7fe1234567abcdef,
        ] {
            let cycles = f64::from_bits(bits);
            let line = Response::Ok {
                id: "r".into(),
                cycles,
                meta: SimMeta::untraced(3, true, false, 1.25),
            }
            .render();
            let Response::Ok {
                cycles: back, meta, ..
            } = parse_response(&line).unwrap()
            else {
                panic!("expected ok");
            };
            assert_eq!(back.to_bits(), cycles.to_bits());
            assert_eq!(meta.batch, 3);
            assert!(meta.coalesced && !meta.cached);
        }
    }

    #[test]
    fn trace_context_parses_and_echoes() {
        // A request without trace_id carries no context.
        let Request::Simulate { ctx, .. } = parse_request(r#"{"id":"a","kernel":"bfs"}"#).unwrap()
        else {
            panic!("expected simulate");
        };
        assert_eq!(ctx, None);
        // With trace_id (and optional parent_span) the context rides along.
        let t = mic_eval::obs::mint_trace_id();
        let line = format!(
            r#"{{"id":"b","kernel":"bfs","trace_id":"{}","parent_span":"{}"}}"#,
            mic_eval::obs::trace_hex(t),
            mic_eval::obs::span_hex(42),
        );
        let Request::Simulate { ctx, .. } = parse_request(&line).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(
            ctx,
            Some(TraceCtx {
                trace: t,
                parent: 42
            })
        );
        // A malformed id is an error, not a silent drop.
        let err = parse_request(r#"{"id":"c","kernel":"bfs","trace_id":"xyz"}"#).unwrap_err();
        assert!(err.1.contains("trace_id"), "{}", err.1);
        // The Ok echo round-trips through the JSON wire.
        let mut meta = SimMeta::untraced(1, false, false, 0.5);
        meta.trace = t;
        meta.root_span = 7;
        let rendered = Response::Ok {
            id: "b".into(),
            cycles: 2.0,
            meta,
        }
        .render();
        assert!(
            rendered.contains(&mic_eval::obs::trace_hex(t)),
            "{rendered}"
        );
        let Response::Ok { meta: back, .. } = parse_response(&rendered).unwrap() else {
            panic!("expected ok");
        };
        assert_eq!(back.trace, t);
        assert_eq!(back.root_span, 7);
        // An untraced Ok renders no trace fields at all.
        let plain = Response::Ok {
            id: "p".into(),
            cycles: 1.0,
            meta: SimMeta::untraced(1, false, false, 0.5),
        }
        .render();
        assert!(!plain.contains("trace_id"), "{plain}");
    }

    #[test]
    fn trace_op_round_trips() {
        let t = mic_eval::obs::mint_trace_id();
        let line = format!(
            r#"{{"id":"q","op":"trace","trace_id":"{}"}}"#,
            mic_eval::obs::trace_hex(t)
        );
        let Request::Trace { id, trace } = parse_request(&line).unwrap() else {
            panic!("expected trace op");
        };
        assert_eq!(id, "q");
        assert_eq!(trace, t);
        // Missing/bad trace_id is an error.
        assert!(parse_request(r#"{"id":"q","op":"trace"}"#).is_err());
        // The response renders its summary fields as numbers.
        let resp = Response::Trace {
            id: "q".into(),
            fields: vec![("spans".into(), 4.0), ("execute_us".into(), 120.5)],
        };
        let Response::Trace { fields, .. } = parse_response(&resp.render()).unwrap() else {
            panic!("expected trace response");
        };
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0], ("spans".to_string(), 4.0));
    }

    #[test]
    fn stats_response_carries_build_stamp() {
        let resp = Response::Stats {
            id: "s".into(),
            fields: vec![("received".into(), 3.0)],
            build: "0.1.0+abcdef123456".into(),
        };
        let line = resp.render();
        assert!(line.contains("\"build\":"), "{line}");
        let Response::Stats { fields, build, .. } = parse_response(&line).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(build, "0.1.0+abcdef123456");
        // The build string must not leak into the numeric fields.
        assert!(fields.iter().all(|(k, _)| k != "build"));
        assert_eq!(fields[0], ("received".to_string(), 3.0));
    }

    #[test]
    fn unknown_response_schema_version_is_rejected() {
        let line = r#"{"id":"r","status":"ok","schema_version":2,"cycles":1.0}"#;
        let err = parse_response(line).unwrap_err();
        assert!(err.contains("unsupported schema_version 2"), "{err}");
    }
}
