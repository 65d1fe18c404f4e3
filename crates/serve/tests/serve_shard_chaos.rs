//! Kill-a-shard chaos: with a shard murdered mid-load, the router fails
//! the jobs waiting for its compute slots over to live shards — every accepted request is
//! answered `ok`, none are lost, and the server keeps serving.

use mic_serve::frame;
use mic_serve::protocol::{self, Response};
use mic_serve::server::{ServeOpts, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// One request/response over a fresh connection, alternating wire modes
/// so the chaos run covers both encodings.
fn rpc(addr: SocketAddr, line: &str, binary: bool) -> Response {
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
        frame::decode_response(tag, &payload).expect("decode response")
    } else {
        writeln!(writer, "{line}").expect("send line");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        protocol::parse_response(resp.trim_end()).expect("parse response")
    }
}

#[test]
fn killing_a_shard_loses_no_accepted_request() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            shards: 4,
            queue_cap: 64,
            slots: 2,
            lru_cap: 0,
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let addr = server.addr;

    // 32 distinct slow jobs spread across the 4 shards by key hash; with
    // two slots per shard most wait for a slot when the shard dies.
    let workers: Vec<_> = (0..32)
        .map(|i| {
            std::thread::spawn(move || {
                let line = format!(
                    r#"{{"id":"c{i}","kernel":"coloring","threads":{},"scale":512,"delay_ms":250}}"#,
                    i + 1
                );
                rpc(addr, &line, i % 2 == 0)
            })
        })
        .collect();
    // Let the requests land, then murder a shard mid-flight.
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(server.router().shards_alive(), 4);
    server.router().kill_shard(1);
    assert_eq!(server.router().shards_alive(), 3);

    let mut ok = 0;
    for h in workers {
        match h.join().unwrap() {
            Response::Ok { .. } => ok += 1,
            other => panic!("accepted request lost or failed: {other:?}"),
        }
    }
    assert_eq!(ok, 32, "every accepted request is answered ok");
    let rerouted = server.stats().rerouted.load(Ordering::Relaxed);
    assert!(
        rerouted > 0,
        "the jobs waiting on the dead shard must have failed over"
    );

    // The router keeps serving new work on the survivors, and the stats
    // op reports the dead shard.
    let Response::Stats { fields, .. } = rpc(addr, r#"{"id":"s","op":"stats"}"#, true) else {
        panic!("expected stats");
    };
    let field = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("stats missing {key}: {fields:?}"))
    };
    assert_eq!(field("shards"), 4.0);
    assert_eq!(field("shards_alive"), 3.0);
    assert_eq!(field("rerouted"), rerouted as f64);
    assert!(matches!(
        rpc(
            addr,
            r#"{"id":"after","kernel":"coloring","threads":77,"scale":512}"#,
            false
        ),
        Response::Ok { .. }
    ));
    server.shutdown();
}

/// A request parked for a compute slot on a shard that dies is handed
/// back and answered by a live shard, while the job that held the slot
/// finishes where it was.
#[test]
fn a_request_parked_for_a_slot_on_a_killed_shard_is_rerouted() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            shards: 2,
            slots: 1,
            lru_cap: 0,
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let addr = server.addr;
    let line = |id: &str, threads: usize, delay_ms: u64| {
        format!(
            r#"{{"id":"{id}","kernel":"coloring","threads":{threads},"scale":512,"delay_ms":{delay_ms}}}"#
        )
    };
    let shard_of = |line: &str| match protocol::parse_request(line).unwrap() {
        protocol::Request::Simulate { spec, .. } => server.router().shard_for(&spec.key()),
        _ => unreachable!(),
    };
    let home = shard_of(&line("plug", 1, 600));
    let threads = (2..124)
        .find(|&t| shard_of(&line("parked", t, 0)) == home)
        .expect("a second key on the plug's shard");
    let shard = &server.router().shards()[home];

    let plug_line = line("plug", 1, 600);
    let plug = std::thread::spawn(move || rpc(addr, &plug_line, true));
    // Admitted and out of the queue: the plug holds the shard's one slot.
    while shard.inflight_len() < 1 || shard.depth() > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let parked_line = line("parked", threads, 0);
    let parked = std::thread::spawn(move || rpc(addr, &parked_line, false));
    while shard.depth() < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.router().kill_shard(home));

    let resp = parked.join().unwrap();
    assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    assert!(server.stats().rerouted.load(Ordering::Relaxed) >= 1);
    let resp = plug.join().unwrap();
    assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    assert_eq!(shard.depth(), 0);
    assert_eq!(server.stats().executed.load(Ordering::Relaxed), 2);
    server.shutdown();
}

#[test]
fn killing_every_shard_fails_closed_not_hung() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            shards: 2,
            lru_cap: 0,
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    server.router().kill_shard(0);
    server.router().kill_shard(1);
    assert_eq!(server.router().shards_alive(), 0);
    // With no live shard the request is answered with an explicit error,
    // not silently dropped or blocked forever.
    let resp = rpc(
        server.addr,
        r#"{"id":"d","kernel":"coloring","threads":3,"scale":512}"#,
        true,
    );
    match resp {
        Response::Error { detail, .. } => {
            assert!(detail.contains("no live worker shards"), "{detail}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    server.shutdown();
}
