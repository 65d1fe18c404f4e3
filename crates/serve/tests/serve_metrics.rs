//! The serve metric invariants, on an isolated registry session. This
//! file stays a single-test binary: the registry is process-global, and
//! another in-process server recording concurrently would break the
//! exact-count assertions.

use mic_serve::protocol::{self, Response};
use mic_serve::server::{ServeOpts, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn rpc(addr: SocketAddr, line: &str) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "{line}").expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("recv");
    protocol::parse_response(resp.trim_end()).expect("parse response")
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
        let count = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        let stats = server.stats();
        let counts = (
            count(&stats.received),
            count(&stats.batches),
            count(&stats.executed),
        );
        server.shutdown();
        counts
    });

    // Per-op: the latency histogram count equals the request counter.
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
    assert!(ops_checked >= 3, "simulate/ping/stats/invalid ops expected");
    assert_eq!(
        snap.value("mic_serve_requests_total", &[("op", "simulate")]),
        Some(3.0)
    );
    assert_eq!(
        snap.value("mic_serve_requests_total", &[("op", "invalid")]),
        Some(1.0)
    );

    // Every request got exactly one response, and the registry agrees
    // with the dispatcher's own accounting.
    assert_eq!(
        snap.family_total("mic_serve_responses_total"),
        requests_total
    );
    assert_eq!(requests_total, received as f64);

    // The repeats hit the result LRU and were counted as such.
    assert_eq!(snap.value("mic_serve_cache_hits_total", &[]), Some(2.0));
    // One job computed, alone: one execution in every count.
    assert_eq!(snap.value("mic_serve_batches_total", &[]), Some(1.0));
    assert_eq!((batches, executed), (1, 1));

    let problems = snap.self_check();
    assert!(problems.is_empty(), "snapshot self-check: {problems:?}");
}
