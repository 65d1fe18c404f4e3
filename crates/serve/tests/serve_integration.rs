//! End-to-end tests of the serving layer over real TCP on ephemeral
//! ports: coalescing, explicit shedding, bit-identical results, and
//! concurrent distinct load across several shards.

use mic_serve::frame;
use mic_serve::protocol::{self, Request, Response};
use mic_serve::server::{ServeOpts, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// One request line, one response line, over a fresh connection.
fn rpc(addr: SocketAddr, line: &str) -> Response {
    rpc_on(addr, line, false)
}

/// One request and its response over a fresh connection, sent as a
/// binary frame or as a JSON line.
fn rpc_on(addr: SocketAddr, line: &str, binary: bool) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    if binary {
        let req = protocol::parse_request(line).expect("valid request");
        let (tag, payload) = frame::encode_request(&req);
        frame::write_frame(&mut writer, tag, &payload).expect("send frame");
        let (tag, payload) = frame::read_frame(&mut reader, 1 << 20)
            .expect("read frame")
            .expect("response present");
        return frame::decode_response(tag, &payload).expect("decode response");
    }
    writeln!(writer, "{line}").expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("recv");
    protocol::parse_response(resp.trim_end()).expect("parse response")
}

fn stat(fields: &[(String, f64)], key: &str) -> f64 {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("stats missing {key}: {fields:?}"))
}

#[test]
fn identical_concurrent_requests_coalesce_into_one_executed_job() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            queue_cap: 8,
            slots: 1,
            lru_cap: 0, // no result cache: every request must queue or coalesce
            shards: 1,  // single queue: the coalescing counts are exact
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let addr = server.addr;

    // Occupy the one slot so the identical requests pile up behind it.
    let plug = std::thread::spawn(move || {
        rpc(
            addr,
            r#"{"id":"plug","kernel":"coloring","threads":3,"scale":512,"delay_ms":400}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(120));

    let workers: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                rpc(
                    addr,
                    &format!(
                        r#"{{"id":"k{i}","kernel":"coloring","threads":7,"scale":512,"delay_ms":100}}"#
                    ),
                )
            })
        })
        .collect();
    let responses: Vec<Response> = workers.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(matches!(plug.join().unwrap(), Response::Ok { .. }));

    let mut bits = Vec::new();
    let mut coalesced = 0;
    for r in &responses {
        match r {
            Response::Ok { cycles, meta, .. } => {
                bits.push(cycles.to_bits());
                coalesced += meta.coalesced as usize;
                assert!(!meta.cached, "LRU is disabled in this test");
            }
            other => panic!("expected ok, got {other:?}"),
        }
    }
    assert!(
        bits.windows(2).all(|w| w[0] == w[1]),
        "coalesced requests must share one bit-identical result: {bits:?}"
    );
    assert_eq!(coalesced, 3, "3 of 4 identical requests coalesce");

    let Response::Stats { fields, .. } = rpc(addr, r#"{"id":"s","op":"stats"}"#) else {
        panic!("expected stats");
    };
    assert_eq!(stat(&fields, "executed"), 2.0, "plug + ONE coalesced job");
    assert_eq!(stat(&fields, "coalesced"), 3.0);
    assert_eq!(stat(&fields, "shed"), 0.0);
    server.shutdown();
}

#[test]
fn queue_overflow_sheds_explicitly_and_recovers() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            queue_cap: 1,
            slots: 1,
            lru_cap: 0,
            shards: 1, // one admission queue so "full" is deterministic
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let addr = server.addr;

    // One job executing (holding the one slot), one waiting in the queue:
    // admission is now full.
    let executing = std::thread::spawn(move || {
        rpc(
            addr,
            r#"{"id":"e","kernel":"coloring","threads":11,"scale":512,"delay_ms":500}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(150));
    let queued = std::thread::spawn(move || {
        rpc(
            addr,
            r#"{"id":"q","kernel":"coloring","threads":12,"scale":512,"delay_ms":200}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(100));

    let shed = rpc(
        addr,
        r#"{"id":"x","kernel":"coloring","threads":13,"scale":512}"#,
    );
    match &shed {
        Response::Shed { id, detail } => {
            assert_eq!(id, "x");
            assert!(detail.contains("queue full"), "{detail}");
        }
        other => panic!("expected shed, got {other:?}"),
    }

    assert!(matches!(executing.join().unwrap(), Response::Ok { .. }));
    assert!(matches!(queued.join().unwrap(), Response::Ok { .. }));

    // Backpressure is advisory, not fatal: the same request succeeds once
    // the queue drains.
    let retry = rpc(
        addr,
        r#"{"id":"x2","kernel":"coloring","threads":13,"scale":512}"#,
    );
    assert!(matches!(retry, Response::Ok { .. }), "{retry:?}");

    let Response::Stats { fields, .. } = rpc(addr, r#"{"id":"s","op":"stats"}"#) else {
        panic!("expected stats");
    };
    assert_eq!(stat(&fields, "shed"), 1.0);
    server.shutdown();
}

/// Distinct slow jobs from many connections at once, on both wires, spread
/// over four shards by key hash: every one is answered `ok` and computed
/// once, every shard's queue drains, and the server keeps serving.
#[test]
fn distinct_concurrent_jobs_across_shards_all_answer_ok() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            shards: 4,
            slots: 2,
            lru_cap: 0,
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let addr = server.addr;
    let workers: Vec<_> = (0..32)
        .map(|i| {
            std::thread::spawn(move || {
                let line = format!(
                    r#"{{"id":"c{i}","kernel":"coloring","threads":{},"scale":512,"delay_ms":100}}"#,
                    i + 1
                );
                rpc_on(addr, &line, i % 2 == 0)
            })
        })
        .collect();
    for h in workers {
        let resp = h.join().unwrap();
        assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    }
    assert_eq!(server.stats().executed.load(Ordering::Relaxed), 32);
    let Response::Stats { fields, .. } = rpc_on(addr, r#"{"id":"s","op":"stats"}"#, true) else {
        panic!("expected stats");
    };
    assert_eq!(stat(&fields, "shards"), 4.0);
    assert_eq!(stat(&fields, "executed"), 32.0);
    for shard in server.router().shards() {
        assert_eq!(shard.depth(), 0, "shard {} drained", shard.shard());
    }
    let after = rpc(
        addr,
        r#"{"id":"after","kernel":"coloring","threads":77,"scale":512}"#,
    );
    assert!(matches!(after, Response::Ok { .. }), "{after:?}");
    server.shutdown();
}

#[test]
fn served_results_are_bit_identical_to_direct_simulation() {
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let addr = server.addr;
    let lines = [
        r#"{"id":"a","kernel":"coloring","graph":"hood","order":"natural","runtime":"omp","sched":"dynamic","chunk":100,"threads":61,"scale":512}"#,
        r#"{"id":"b","kernel":"irregular","graph":"hood","order":"random","seed":5,"runtime":"tbb","sched":"simple","grain":40,"threads":121,"scale":512,"iter":3}"#,
        r#"{"id":"c","kernel":"bfs","graph":"hood","runtime":"cilk","grain":100,"threads":31,"scale":512}"#,
    ];
    for line in lines {
        let Ok(Request::Simulate { spec, .. }) = protocol::parse_request(line) else {
            panic!("test line must parse");
        };
        let direct = spec.compute();
        let Response::Ok { cycles, meta, .. } = rpc(addr, line) else {
            panic!("expected ok for {line}");
        };
        assert_eq!(
            cycles.to_bits(),
            direct.to_bits(),
            "served result differs from direct simulation for {line}"
        );
        // A repeat is served from the result LRU, still bit-identical.
        let Response::Ok {
            cycles: again,
            meta: meta2,
            ..
        } = rpc(addr, line)
        else {
            panic!("expected ok on repeat");
        };
        assert!(!meta.cached || meta.batch == 0);
        assert!(meta2.cached, "second identical request hits the LRU");
        assert_eq!(again.to_bits(), direct.to_bits());
    }
    server.shutdown();
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let stream = TcpStream::connect(server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut ask = |line: &str| -> Response {
        writeln!(writer, "{line}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        protocol::parse_response(resp.trim_end()).unwrap()
    };

    assert!(matches!(ask("this is not json"), Response::Error { .. }));
    let bad_kernel = ask(r#"{"id":"k","kernel":"sorting"}"#);
    match &bad_kernel {
        Response::Error { id, detail } => {
            assert_eq!(id, "k");
            assert!(detail.contains("kernel"), "{detail}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    assert!(matches!(
        ask(r#"{"id":"p","op":"ping"}"#),
        Response::Pong { .. }
    ));
    // The same connection still serves real work after the errors.
    assert!(matches!(
        ask(r#"{"id":"ok","kernel":"coloring","threads":5,"scale":512}"#),
        Response::Ok { .. }
    ));
    server.shutdown();
}
