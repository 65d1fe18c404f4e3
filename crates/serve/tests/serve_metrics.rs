//! The serve metric invariants, on isolated registry sessions. Every test
//! here starts its server inside `with_session`, and the server's threads
//! record into that session, so the exact-count assertions see one
//! server and nothing else.

use mic_eval::metrics::Snapshot;
use mic_serve::frame;
use mic_serve::protocol::{self, Response};
use mic_serve::server::{ServeOpts, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};

/// One client connection speaking one wire: binary frames or JSON lines.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
}

impl Conn {
    fn open(addr: SocketAddr, binary: bool) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
            binary,
        }
    }

    /// Send one request (given in its JSON form) and read its response.
    fn rpc(&mut self, line: &str) -> Response {
        if self.binary {
            let req = protocol::parse_request(line).expect("valid request");
            let (tag, payload) = frame::encode_request(&req);
            frame::write_frame(&mut self.writer, tag, &payload).expect("send frame");
            let (tag, payload) = frame::read_frame(&mut self.reader, 1 << 20)
                .expect("read frame")
                .expect("response present");
            return frame::decode_response(tag, &payload).expect("decode response");
        }
        writeln!(self.writer, "{line}").expect("send");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("recv");
        protocol::parse_response(resp.trim_end()).expect("parse response")
    }
}

fn rpc(addr: SocketAddr, line: &str) -> Response {
    Conn::open(addr, false).rpc(line)
}

fn count(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// The invariants every serve session must keep: per op, the latency
/// histogram count equals the request counter; every request got exactly
/// one response; the registry agrees with the router's `received`; and
/// the snapshot's own self-check is clean. Returns `(ops, requests)`.
fn assert_invariants(snap: &Snapshot, received: u64) -> (usize, f64) {
    let mut ops_checked = 0;
    let mut requests_total = 0.0;
    for e in &snap.entries {
        if e.name != "mic_serve_requests_total" {
            continue;
        }
        let labels: Vec<(&str, &str)> = e
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let counter = snap.value("mic_serve_requests_total", &labels).unwrap();
        requests_total += counter;
        let hist = snap
            .hist("mic_serve_request_seconds", &labels)
            .map(|h| h.count as f64);
        assert_eq!(
            hist,
            Some(counter),
            "histogram count != request counter for {:?}",
            e.labels
        );
        ops_checked += 1;
    }
    assert_eq!(
        snap.family_total("mic_serve_responses_total"),
        requests_total
    );
    assert_eq!(requests_total, received as f64);
    let problems = snap.self_check();
    assert!(problems.is_empty(), "snapshot self-check: {problems:?}");
    (ops_checked, requests_total)
}

#[test]
fn request_latency_histogram_counts_equal_request_counters() {
    let ((received, batches, executed), snap) = mic_eval::metrics::with_session(|| {
        let server = Server::start(
            "127.0.0.1:0",
            ServeOpts {
                queue_cap: 8,
                lru_cap: 16,
                shards: 1, // exact-count assertions need one shard
                ..ServeOpts::default()
            },
        )
        .expect("start server");
        let addr = server.addr;
        let sim = r#"{"id":"m","kernel":"coloring","threads":9,"scale":512}"#;
        for _ in 0..3 {
            assert!(matches!(rpc(addr, sim), Response::Ok { .. }));
        }
        assert!(matches!(
            rpc(addr, r#"{"id":"p","op":"ping"}"#),
            Response::Pong { .. }
        ));
        assert!(matches!(
            rpc(addr, r#"{"id":"s","op":"stats"}"#),
            Response::Stats { .. }
        ));
        assert!(matches!(rpc(addr, "garbage"), Response::Error { .. }));
        let stats = server.stats();
        let counts = (
            count(&stats.received),
            count(&stats.batches),
            count(&stats.executed),
        );
        server.shutdown();
        counts
    });

    let (ops_checked, _) = assert_invariants(&snap, received);
    assert!(ops_checked >= 3, "simulate/ping/stats/invalid ops expected");
    assert_eq!(
        snap.value("mic_serve_requests_total", &[("op", "simulate")]),
        Some(3.0)
    );
    assert_eq!(
        snap.value("mic_serve_requests_total", &[("op", "invalid")]),
        Some(1.0)
    );

    // The repeats hit the result LRU and were counted as such.
    assert_eq!(snap.value("mic_serve_cache_hits_total", &[]), Some(2.0));
    // One job computed, alone: one execution in every count.
    assert_eq!(snap.value("mic_serve_batches_total", &[]), Some(1.0));
    assert_eq!((batches, executed), (1, 1));
}

/// Concurrent load across shards and both wires: four shards, eight
/// clients each holding one connection (even clients binary frames, odd
/// clients JSON lines), every client alternating one key all of them
/// share with keys no other request uses.
#[test]
fn concurrent_mixed_wire_load_keeps_the_invariants() {
    const CLIENTS: usize = 8;
    const STEPS: usize = 12;
    let (received, snap) = mic_eval::metrics::with_session(|| {
        let server = Server::start(
            "127.0.0.1:0",
            ServeOpts {
                shards: 4,
                ..ServeOpts::default()
            },
        )
        .expect("start server");
        let addr = server.addr;
        let clients: Vec<_> = (0..CLIENTS)
            .map(|ci| {
                std::thread::spawn(move || {
                    let mut conn = Conn::open(addr, ci % 2 == 0);
                    for step in 0..STEPS {
                        let threads = if step % 2 == 0 {
                            9
                        } else {
                            10 + ci * STEPS + step
                        };
                        let line = format!(
                            r#"{{"id":"c{ci}-{step}","kernel":"coloring","threads":{threads},"scale":512}}"#
                        );
                        let resp = conn.rpc(&line);
                        assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }
        let received = count(&server.stats().received);
        server.shutdown();
        received
    });

    let (_, requests_total) = assert_invariants(&snap, received);
    let sent = (CLIENTS * STEPS) as f64;
    assert_eq!(requests_total, sent);
    assert_eq!(
        snap.value("mic_serve_requests_total", &[("op", "simulate")]),
        Some(sent)
    );
}
