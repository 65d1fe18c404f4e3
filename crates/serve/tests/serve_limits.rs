//! Regression tests for the serve front end's resource-exhaustion fixes:
//! capped request reads, the bounded + joined connection registry,
//! CAS-claimed admission tickets that neither overshoot nor misreport, and
//! thread counts past the simulated machine and Cuthill–McKee sources
//! outside the graph refused at decode.

use mic_eval::graph::suite::{num_vertices, PaperGraph, Scale};
use mic_eval::workload_cache::OrderTag;
use mic_serve::frame;
use mic_serve::protocol::{self, Request, Response};
use mic_serve::server::{Dispatcher, ServeOpts, ServeStats, Server, Submission};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Regression (unbounded `BufReader::lines()`): a request line longer
/// than the cap gets an explicit error response and a dropped connection
/// — without waiting for a newline that may never come.
#[test]
fn oversized_json_line_is_refused_and_connection_dropped() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            max_request: 1024,
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let stream = TcpStream::connect(server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // 4 KiB of an endless "line" with NO terminating newline: the old
    // reader would buffer forever; the capped one answers as soon as the
    // cap is crossed.
    let flood = vec![b'{'; 4096];
    writer.write_all(&flood).unwrap();
    writer.flush().unwrap();
    let mut resp_line = String::new();
    reader.read_line(&mut resp_line).unwrap();
    match protocol::parse_response(resp_line.trim_end()).unwrap() {
        Response::Error { detail, .. } => {
            assert!(detail.contains("limit"), "{detail}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    // Dropped: EOF follows the error response.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert_eq!(server.stats().frame_errors.load(Ordering::Relaxed), 1);
    // The server still serves new, well-behaved connections.
    let stream = TcpStream::connect(server.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, r#"{{"id":"p","op":"ping"}}"#).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        protocol::parse_response(line.trim_end()).unwrap(),
        Response::Pong { .. }
    ));
    server.shutdown();
}

/// Regression (unbounded thread-per-connection + never-joined handlers):
/// connects past the cap are refused with a `shed` response instead of a
/// new thread, and `shutdown` returns even with idle connections still
/// open — their handlers are unblocked and joined.
#[test]
fn connection_cap_sheds_and_shutdown_joins_live_handlers() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            conn_cap: 2,
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    // Two idle connections occupy the registry (their handlers sit in the
    // first-byte sniff).
    let idle1 = TcpStream::connect(server.addr).unwrap();
    let idle2 = TcpStream::connect(server.addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // The third connect is refused with an explicit shed line.
    let refused = TcpStream::connect(server.addr).unwrap();
    let mut reader = BufReader::new(refused);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match protocol::parse_response(line.trim_end()).unwrap() {
        Response::Shed { detail, .. } => {
            assert!(detail.contains("connection limit"), "{detail}");
        }
        other => panic!("expected shed, got {other:?}"),
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "refused connection is closed");
    assert_eq!(server.stats().conn_shed.load(Ordering::Relaxed), 1);

    // A released slot is reusable: drop one idle connection and the next
    // connect is admitted and served.
    drop(idle1);
    let mut admitted = None;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        let stream = TcpStream::connect(server.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writeln!(writer, r#"{{"id":"p","op":"ping"}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match protocol::parse_response(line.trim_end()).unwrap() {
            Response::Pong { .. } => {
                admitted = Some(());
                break;
            }
            Response::Shed { .. } => continue, // slot not yet released
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(admitted.is_some(), "freed slot admits a new connection");

    // The join fix: shutdown returns with `idle2` (and the ping
    // connection) still open — the old server would leave those handler
    // threads running forever.
    server.shutdown();
    drop(idle2);
}

/// Regression (blind `fetch_add` tickets): concurrent over-capacity
/// submitters must each see a `queue_len` clamped to the cap (never a raw
/// over-cap ticket), and the transient overshoot that could shed a
/// request even though a slot was free must be gone — exactly `queue_cap`
/// jobs are admitted.
#[test]
fn shed_reports_clamped_depth_and_tickets_never_overshoot() {
    let opts = ServeOpts {
        queue_cap: 4,
        slots: 1,
        lru_cap: 0,
        shards: 1,
        ..ServeOpts::default()
    };
    let stats = Arc::new(ServeStats::default());
    let dispatcher = Arc::new(Dispatcher::new(0, opts, Arc::clone(&stats), None));
    let submit = |line: String| {
        let d = Arc::clone(&dispatcher);
        std::thread::spawn(move || {
            let protocol::Request::Simulate { spec, .. } = protocol::parse_request(&line).unwrap()
            else {
                panic!()
            };
            d.submit(&spec)
        })
    };
    // A slow job holds the one compute slot, so admitted jobs stay queued
    // and the queue saturates deterministically.
    let plug = submit(
        r#"{"id":"plug","kernel":"coloring","threads":99,"scale":512,"delay_ms":1000}"#.into(),
    );
    // Admitted (in flight) and out of the queue: the plug holds the slot.
    while dispatcher.inflight_len() < 1 || dispatcher.depth() > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let submitters: Vec<_> = (0..16)
        .map(|i| {
            submit(format!(
                r#"{{"id":"t{i}","kernel":"coloring","threads":{},"scale":512}}"#,
                i + 1
            ))
        })
        .collect();
    // Every submitter resolves (shed) or blocks (admitted) while the plug
    // holds the slot; once it finishes, the queued jobs run one by one.
    let mut shed = 0;
    let mut done = 0;
    for h in submitters {
        match h.join().unwrap() {
            Submission::Shed { queue_len } => {
                shed += 1;
                assert!(
                    queue_len <= 4,
                    "shed must report the bounded queue, got {queue_len}"
                );
            }
            Submission::Done { .. } => done += 1,
            Submission::Failed(msg) => panic!("no job here panics: {msg}"),
        }
    }
    assert_eq!(done, 4, "exactly queue_cap submitters are admitted");
    assert_eq!(shed, 12, "the rest shed — no spurious extra sheds");
    assert_eq!(dispatcher.depth(), 0, "the queue drained");
    assert!(matches!(plug.join().unwrap(), Submission::Done { .. }));
    assert_eq!(stats.executed.load(Ordering::Relaxed), 5);
}

/// Regression (wire clamp 1024 vs the engine's 124-thread assert): a
/// well-formed request for more threads than the simulated machine has is
/// answered with an `error` naming the limit, on both wires, and never
/// reaches a job (where `simulate` would panic); the limit itself is served.
#[test]
fn threads_past_the_machine_limit_are_refused_at_decode_on_both_wires() {
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let connect = || {
        let stream = TcpStream::connect(server.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    };
    let line = |threads: usize| {
        format!(r#"{{"id":"t","kernel":"coloring","threads":{threads},"scale":512}}"#)
    };
    let assert_refused = |resp: Response| match resp {
        Response::Error { detail, .. } => assert!(detail.contains("at most 124"), "{detail}"),
        other => panic!("expected error, got {other:?}"),
    };

    let (mut reader, mut writer) = connect();
    writeln!(writer, "{}", line(125)).unwrap();
    let mut resp_line = String::new();
    reader.read_line(&mut resp_line).unwrap();
    assert_refused(protocol::parse_response(resp_line.trim_end()).unwrap());

    // The binary encoder does not validate, so it can send what a foreign
    // client could: the 124-thread request with the count bumped.
    let (mut reader, mut writer) = connect();
    let mut rpc = |threads: usize| {
        let mut req = protocol::parse_request(&line(124)).unwrap();
        if let Request::Simulate { spec, .. } = &mut req {
            spec.threads = threads;
        }
        let (tag, payload) = frame::encode_request(&req);
        frame::write_frame(&mut writer, tag, &payload).unwrap();
        let (tag, payload) = frame::read_frame(&mut reader, 1 << 20).unwrap().unwrap();
        frame::decode_response(tag, &payload).unwrap()
    };
    assert_refused(rpc(125));
    assert_eq!(server.stats().executed.load(Ordering::Relaxed), 0);
    let resp = rpc(124);
    assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    assert_eq!(server.stats().executed.load(Ordering::Relaxed), 1);
    server.shutdown();
}

/// Regression (a Cuthill–McKee `source` read as `u64`, cast `as u32`, and
/// asserted on in `ordering::cuthill_mckee`): a binary request whose
/// source does not fit `u32` — which used to alias the key of its low
/// half — or is not a vertex of the graph at its scale — which used to
/// panic the job — is answered with an `error` at decode and never reaches
/// a job; the last vertex itself is served.
#[test]
fn cuthill_mckee_sources_outside_the_graph_are_refused_at_decode() {
    let n = num_vertices(PaperGraph::Hood, Scale::Fraction(512)) as u64;
    // The encoder writes the source as a `u64`, so a foreign client's value
    // is this request's bytes with those eight patched.
    let frame_for = |source: u64| {
        let line = r#"{"id":"t","kernel":"coloring","graph":"hood","threads":4,"scale":512}"#;
        let mut req = protocol::parse_request(line).unwrap();
        if let Request::Simulate { spec, .. } = &mut req {
            spec.order = OrderTag::CuthillMcKee { source: 0 };
        }
        let (tag, mut payload) = frame::encode_request(&req);
        // id "t", kernel tag, graph "hood" (strings are u32-prefixed),
        // order tag; then the source.
        let at = (4 + 1) + 1 + (4 + 4) + 1;
        assert_eq!(payload[at - 1], 2, "the Cuthill–McKee order tag");
        payload[at..at + 8].copy_from_slice(&source.to_le_bytes());
        (tag, payload)
    };
    let decode = |source: u64| {
        let (tag, payload) = frame_for(source);
        frame::decode_request(tag, &payload)
    };
    let refusal = |source: u64| match decode(source) {
        Err((id, detail)) => {
            assert_eq!(id, "t");
            detail
        }
        Ok(req) => panic!("source {source} decoded: {req:?}"),
    };
    assert!(refusal((1 << 32) + 3).contains("at most 4294967295"));
    for source in [n, n + 1, u32::MAX as u64] {
        assert!(refusal(source).contains(&format!("below {n} (|V|)")));
    }
    for source in [3, n - 1] {
        let Ok(Request::Simulate { spec, .. }) = decode(source) else {
            panic!("source {source} refused");
        };
        let source = source as u32;
        assert_eq!(spec.order, OrderTag::CuthillMcKee { source });
    }

    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let stream = TcpStream::connect(server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let (mut reader, mut writer) = (BufReader::new(stream.try_clone().unwrap()), stream);
    let mut rpc = |source: u64| {
        let (tag, payload) = frame_for(source);
        frame::write_frame(&mut writer, tag, &payload).unwrap();
        let (tag, payload) = frame::read_frame(&mut reader, 1 << 20).unwrap().unwrap();
        frame::decode_response(tag, &payload).unwrap()
    };
    for source in [(1 << 32) + 3, n] {
        let resp = rpc(source);
        assert!(matches!(resp, Response::Error { .. }), "{source}: {resp:?}");
    }
    assert_eq!(server.stats().executed.load(Ordering::Relaxed), 0);
    let resp = rpc(n - 1);
    assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    assert_eq!(server.stats().executed.load(Ordering::Relaxed), 1);
    server.shutdown();
}
