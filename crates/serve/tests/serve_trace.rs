//! End-to-end request tracing over both wires, the flight recorder's
//! slow-request tail sampling, and the queue-depth ticket-pairing
//! regression.
//!
//! Tests here flip the process-global observability switch, so every
//! test that installs/disables it serializes on [`obs_lock`]. They run
//! in their own test process — the other serve test binaries never see
//! observability enabled, which is what keeps their bit-identity
//! assertions meaningful.

use mic_eval::config::{ObsMode, SuiteConfig};
use mic_eval::obs::{self, flight, span, TraceCtx};
use mic_serve::frame;
use mic_serve::protocol::{self, Request, Response};
use mic_serve::server::{ServeOpts, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Install observability with a test-unique dump directory and a clean
/// span store / flight recorder. Goes through [`SuiteConfig::install`]
/// (not `obs::install` directly) so the process config slot agrees —
/// a lazily initialized config with `MIC_OBS` unset would otherwise
/// switch observability back off mid-test.
fn install_obs(tag: &str, slow_ms: Option<u64>) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mic-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SuiteConfig::default()
        .obs(ObsMode::OnWithDir(dir.clone()))
        .obs_slow_ms(slow_ms)
        .install();
    span::clear();
    flight::clear();
    dir
}

fn teardown_obs(dir: &PathBuf) {
    SuiteConfig::default().install(); // ObsMode::Off → observability off
    span::clear();
    flight::clear();
    let _ = std::fs::remove_dir_all(dir);
}

/// One request line, one response line, over a fresh connection.
fn rpc(addr: SocketAddr, line: &str) -> Response {
    protocol::parse_response(rpc_raw(addr, line).trim_end()).expect("parse response")
}

/// Like [`rpc`] but returning the raw response line, for assertions
/// about which keys are (not) on the wire.
fn rpc_raw(addr: SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "{line}").expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("recv");
    resp
}

fn field(fields: &[(String, f64)], key: &str) -> f64 {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or(0.0)
}

#[test]
fn trace_context_rides_the_binary_wire_end_to_end() {
    let _g = obs_lock();
    let dir = install_obs("binwire", None);
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let stream = TcpStream::connect(server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let ctx = TraceCtx::mint();
    let line = r#"{"id":"b0","kernel":"coloring","threads":7,"scale":256}"#;
    let Ok(Request::Simulate { id, spec, .. }) = protocol::parse_request(line) else {
        panic!("test line must parse");
    };
    let req = Request::Simulate {
        id,
        spec,
        ctx: Some(ctx),
    };
    let (tag, payload) = frame::encode_request(&req);
    frame::write_frame(&mut writer, tag, &payload).unwrap();
    let (tag, payload) = frame::read_frame(&mut reader, 1 << 20)
        .expect("read frame")
        .expect("response frame");
    let Ok(Response::Ok { meta, .. }) = frame::decode_response(tag, &payload) else {
        panic!("expected ok response");
    };
    assert_eq!(meta.trace, ctx.trace, "binary wire echoes the trace id");
    assert_ne!(meta.root_span, 0, "response names the request's root span");

    // The server-side span tree: a request root (the echoed span id) with
    // the execute stage parented under it.
    let spans = span::for_trace(ctx.trace);
    let root = spans
        .iter()
        .find(|s| s.kind == span::SpanKind::Request)
        .expect("root request span recorded");
    assert_eq!(root.id, meta.root_span);
    assert_eq!(root.parent, 0, "client minted a root context");
    assert!(
        spans
            .iter()
            .any(|s| s.kind == span::SpanKind::Execute && s.parent == root.id),
        "execute span parented under the request root: {spans:?}"
    );
    server.shutdown();
    teardown_obs(&dir);
}

#[test]
fn json_wire_echoes_trace_and_the_trace_op_summarizes_it() {
    let _g = obs_lock();
    let dir = install_obs("jsonwire", None);
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let addr = server.addr;

    let ctx = TraceCtx::mint();
    let hex = obs::trace_hex(ctx.trace);
    let Response::Ok { meta, .. } = rpc(
        addr,
        &format!(r#"{{"id":"j0","kernel":"coloring","threads":9,"scale":256,"trace_id":"{hex}"}}"#),
    ) else {
        panic!("expected ok");
    };
    assert_eq!(meta.trace, ctx.trace, "JSON wire echoes the trace id");
    assert_ne!(meta.root_span, 0);

    let Response::Trace { fields, .. } = rpc(
        addr,
        &format!(r#"{{"id":"j1","op":"trace","trace_id":"{hex}"}}"#),
    ) else {
        panic!("expected trace summary");
    };
    assert!(field(&fields, "spans") >= 2.0, "{fields:?}");
    assert_eq!(field(&fields, "request_count"), 1.0, "{fields:?}");
    assert_eq!(field(&fields, "execute_count"), 1.0, "{fields:?}");
    assert!(field(&fields, "total_us") > 0.0, "{fields:?}");
    server.shutdown();
    teardown_obs(&dir);
}

#[test]
fn absent_context_is_minted_at_admission_and_never_empty() {
    let _g = obs_lock();
    let dir = install_obs("mint", None);
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let addr = server.addr;
    let line = r#"{"id":"m0","kernel":"coloring","threads":5,"scale":256}"#;

    // Traced server, untraced client: the server mints at admission.
    let Response::Ok { meta, .. } = rpc(addr, line) else {
        panic!("expected ok");
    };
    assert_ne!(meta.trace, 0, "admission mints a nonzero trace id");
    assert_ne!(meta.root_span, 0);

    // Observability off, untraced client: no trace fields on the wire at
    // all — the response is byte-identical to a pre-tracing build's.
    obs::disable();
    let raw = rpc_raw(
        addr,
        r#"{"id":"m1","kernel":"coloring","threads":6,"scale":256}"#,
    );
    assert!(
        !raw.contains("trace_id"),
        "untraced response must not carry trace fields: {raw}"
    );
    let Response::Ok { meta, .. } = protocol::parse_response(raw.trim_end()).unwrap() else {
        panic!("expected ok");
    };
    assert_eq!(meta.trace, 0);
    server.shutdown();
    teardown_obs(&dir);
}

#[test]
fn coalesced_followers_keep_their_own_root_spans() {
    let _g = obs_lock();
    let dir = install_obs("coalesce", None);
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            queue_cap: 8,
            slots: 1,
            lru_cap: 0, // no result cache: duplicates must coalesce
            shards: 1,
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let addr = server.addr;

    // Occupy the one slot so the identical pair piles up behind it.
    let plug = std::thread::spawn(move || {
        rpc(
            addr,
            r#"{"id":"plug","kernel":"coloring","threads":3,"scale":512,"delay_ms":400}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(120));

    let ctxs = [TraceCtx::mint(), TraceCtx::mint()];
    let workers: Vec<_> = ctxs
        .iter()
        .enumerate()
        .map(|(i, ctx)| {
            let hex = obs::trace_hex(ctx.trace);
            std::thread::spawn(move || {
                rpc(
                    addr,
                    &format!(
                        r#"{{"id":"c{i}","kernel":"coloring","threads":7,"scale":512,"delay_ms":100,"trace_id":"{hex}"}}"#
                    ),
                )
            })
        })
        .collect();
    let responses: Vec<Response> = workers.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(matches!(plug.join().unwrap(), Response::Ok { .. }));

    let metas: Vec<_> = responses
        .iter()
        .map(|r| match r {
            Response::Ok { meta, .. } => *meta,
            other => panic!("expected ok, got {other:?}"),
        })
        .collect();
    // Each response echoes its OWN trace and a distinct root span — a
    // follower shares the leader's execution, not its identity.
    assert_eq!(metas[0].trace, ctxs[0].trace);
    assert_eq!(metas[1].trace, ctxs[1].trace);
    assert_ne!(metas[0].root_span, metas[1].root_span);
    assert_eq!(
        metas.iter().filter(|m| m.coalesced).count(),
        1,
        "one of the identical pair coalesces onto the other"
    );

    let leader = metas.iter().position(|m| !m.coalesced).unwrap();
    let follower = 1 - leader;
    let leader_spans = span::for_trace(metas[leader].trace);
    let follower_spans = span::for_trace(metas[follower].trace);
    assert!(
        leader_spans
            .iter()
            .any(|s| s.kind == span::SpanKind::Execute),
        "the leader's tree owns the execute span: {leader_spans:?}"
    );
    assert!(
        follower_spans.iter().any(
            |s| s.kind == span::SpanKind::CoalesceJoin && s.parent == metas[follower].root_span
        ),
        "the follower records its join under its own root: {follower_spans:?}"
    );
    assert!(
        !follower_spans
            .iter()
            .any(|s| s.kind == span::SpanKind::Execute),
        "the follower did not execute: {follower_spans:?}"
    );
    server.shutdown();
    teardown_obs(&dir);
}

/// A shard computes up to `slots` jobs at once, each on its own request's
/// thread: two slow jobs on a two-slot shard run side by side, and a
/// third waits for a slot — visibly, in its `queue_wait` span.
#[test]
fn a_shard_computes_one_job_per_slot_and_a_third_waits() {
    let _g = obs_lock();
    let dir = install_obs("slots", None);
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            slots: 2,
            lru_cap: 0,
            shards: 1,
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let addr = server.addr;
    let ctxs = [TraceCtx::mint(), TraceCtx::mint(), TraceCtx::mint()];
    let send = |i: usize| {
        let hex = obs::trace_hex(ctxs[i].trace);
        std::thread::spawn(move || {
            rpc(
                addr,
                &format!(
                    r#"{{"id":"s{i}","kernel":"coloring","threads":{},"scale":512,"delay_ms":300,"trace_id":"{hex}"}}"#,
                    i + 2
                ),
            )
        })
    };
    let first_sent = Instant::now();
    let pair = [send(0), send(1)];
    std::thread::sleep(Duration::from_millis(50));
    let third = send(2);
    for h in pair {
        let resp = h.join().unwrap();
        assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
        let done_ms = first_sent.elapsed().as_millis();
        assert!(
            done_ms < 450,
            "two slots run two 300 ms jobs side by side; one finished after {done_ms} ms"
        );
    }
    let resp = third.join().unwrap();
    let Response::Ok { meta, .. } = resp else {
        panic!("expected ok, got {resp:?}");
    };
    assert!(meta.queue_ms >= 200.0, "{meta:?}");
    let summary = span::summarize(ctxs[2].trace);
    assert!(field(&summary, "queue_wait_us") > 0.0, "{summary:?}");
    assert_eq!(field(&summary, "execute_count"), 1.0, "{summary:?}");
    server.shutdown();
    teardown_obs(&dir);
}

/// The acceptance path: one slow, client-traced request produces (a) a
/// span tree whose request span covers the injected delay, (b) a flight
/// dump named for the slow-request trigger containing that trace id, and
/// (c) a latency-histogram exemplar linking the request's bucket back to
/// the same trace.
#[test]
fn slow_request_yields_spans_flight_dump_and_matching_exemplar() {
    let _g = obs_lock();
    let dir = install_obs("slow", Some(50));
    flight::set_dump_budget(32);
    // The server records into this session: the exemplar is this test's.
    mic_eval::metrics::with_session(|| {
        let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");

        let ctx = TraceCtx::mint();
        let hex = obs::trace_hex(ctx.trace);
        let Response::Ok { meta, .. } = rpc(
            server.addr,
            &format!(
                r#"{{"id":"s0","kernel":"coloring","threads":7,"scale":256,"delay_ms":150,"trace_id":"{hex}"}}"#
            ),
        ) else {
            panic!("expected ok");
        };
        assert_eq!(meta.trace, ctx.trace);

        // (a) The span tree covers the injected 150 ms delay.
        let summary = span::summarize(ctx.trace);
        let request_us = field(&summary, "request_us");
        assert!(
            request_us >= 100_000.0,
            "request span must cover the injected delay: {summary:?}"
        );
        assert!(field(&summary, "execute_count") >= 1.0, "{summary:?}");

        // (b) A slow-request flight dump containing this trace's events.
        let dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("dump dir exists")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("flight-slow-request-"))
            })
            .collect();
        assert!(!dumps.is_empty(), "slow request must dump the recorder");
        let body = std::fs::read_to_string(&dumps[0]).unwrap();
        assert!(body.contains("\"kind\": \"slow_request\""), "{body}");
        assert!(body.contains(&hex), "dump events carry the trace id");

        // (c) The latency histogram's exemplar for this request's bucket is
        // this trace, and its value reconciles with the span tree.
        let snap = mic_eval::metrics::snapshot();
        let hist = snap
            .hist("mic_serve_request_seconds", &[("op", "simulate")])
            .expect("simulate latency histogram");
        let (bucket, (value, _)) = hist
            .exemplars
            .iter()
            .enumerate()
            .filter_map(|(i, ex)| ex.map(|ex| (i, ex)))
            .find(|(_, (_, trace))| *trace == ctx.trace)
            .expect("an exemplar links a bucket to the slow trace");
        assert!(
            value >= 0.1,
            "exemplar records the slow observation: {value}"
        );
        // The exemplar's value actually belongs to the bucket it annotates.
        if bucket < hist.bounds.len() {
            assert!(value <= hist.bounds[bucket]);
        }
        if bucket > 0 {
            assert!(value > hist.bounds[bucket - 1]);
        }
        // And it agrees with the trace's own request span (serialize happens
        // after the observation; allow scheduling slack).
        assert!(
            (value * 1e6 - request_us).abs() < 50_000.0,
            "exemplar ({value}s) and request span ({request_us}us) must describe the same request"
        );
        server.shutdown();
    });
    teardown_obs(&dir);
}

/// Queue-depth ticket pairing: after a mixed burst of accepted, shed,
/// and errored requests fully resolves, every shard's depth is exactly
/// zero and nothing is left in flight — each admission ticket claimed
/// under the cap was released exactly once.
#[test]
fn queue_depth_returns_to_zero_after_mixed_load() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            queue_cap: 2, // tiny: the burst must shed some requests
            slots: 1,
            lru_cap: 0,
            shards: 1,
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let addr = server.addr;

    let workers: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                // Distinct specs (no coalescing) with enough delay that
                // the burst overruns the 2-deep queue.
                rpc(
                    addr,
                    &format!(
                        r#"{{"id":"q{i}","kernel":"coloring","threads":{},"scale":512,"delay_ms":60}}"#,
                        i + 3
                    ),
                )
            })
        })
        .collect();
    let errored: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                rpc(addr, &format!(r#"{{"id":"bad{i}","kernel":"sorting"}}"#))
            })
        })
        .collect();

    let mut ok = 0;
    let mut shed = 0;
    for h in workers {
        match h.join().unwrap() {
            Response::Ok { .. } => ok += 1,
            Response::Shed { .. } => shed += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    for h in errored {
        assert!(matches!(h.join().unwrap(), Response::Error { .. }));
    }
    assert!(ok > 0, "some of the burst is served");
    assert!(shed > 0, "a 2-deep queue must shed part of an 8-wide burst");

    // Everything resolved: depth must be exactly zero on every shard (a
    // leaked ticket would leave it positive forever and eventually wedge
    // admission), and the stats op agrees.
    for shard in server.router().shards() {
        assert_eq!(shard.depth(), 0, "shard {} leaked a ticket", shard.shard());
        assert_eq!(shard.inflight_len(), 0);
    }
    let Response::Stats { fields, .. } = rpc(addr, r#"{"id":"s","op":"stats"}"#) else {
        panic!("expected stats");
    };
    assert_eq!(field(&fields, "queue_len"), 0.0);
    assert_eq!(field(&fields, "inflight"), 0.0);
    assert_eq!(
        field(&fields, "ok") + field(&fields, "shed") + field(&fields, "errors"),
        field(&fields, "received") - 1.0, // the stats request itself
        "every request resolved to exactly one outcome: {fields:?}"
    );

    // The same server still serves after the burst.
    assert!(matches!(
        rpc(
            addr,
            r#"{"id":"post","kernel":"coloring","threads":40,"scale":512}"#
        ),
        Response::Ok { .. }
    ));
    server.shutdown();
}
