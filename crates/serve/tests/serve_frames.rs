//! Torture tests for the binary wire over real TCP: split writes,
//! oversize headers, truncated payloads, unknown wire versions, and
//! cross-mode (JSON vs binary) bit-identity of served `cycles`.

use mic_serve::frame::{self, HEADER_LEN, MAGIC, WIRE_VERSION};
use mic_serve::protocol::{self, Request, Response};
use mic_serve::server::{ServeOpts, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

fn binary_rpc_bytes(req: &Request) -> Vec<u8> {
    let (tag, payload) = frame::encode_request(req);
    let mut buf = Vec::new();
    frame::write_frame(&mut buf, tag, &payload).unwrap();
    buf
}

fn read_binary_response(reader: &mut BufReader<TcpStream>) -> Response {
    let (tag, payload) = frame::read_frame(reader, 1 << 20)
        .expect("read response frame")
        .expect("response frame present");
    frame::decode_response(tag, &payload).expect("decode response")
}

#[test]
fn frames_split_across_many_tcp_writes_still_parse() {
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let (mut reader, mut writer) = connect(server.addr);
    let req =
        protocol::parse_request(r#"{"id":"split","kernel":"coloring","threads":5,"scale":512}"#)
            .unwrap();
    let bytes = binary_rpc_bytes(&req);
    // One byte per write: the reader must reassemble the frame across
    // arbitrarily small TCP reads.
    for b in &bytes {
        writer.write_all(std::slice::from_ref(b)).unwrap();
        writer.flush().unwrap();
    }
    let resp = read_binary_response(&mut reader);
    assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    server.shutdown();
}

#[test]
fn oversize_frame_header_gets_error_and_drop() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            max_request: 1024,
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let (mut reader, mut writer) = connect(server.addr);
    // A syntactically valid header claiming a payload far over the cap.
    let mut header = Vec::from(MAGIC);
    header.push(WIRE_VERSION);
    header.extend_from_slice(&(1_000_000u32).to_le_bytes());
    header.push(frame::TAG_SIMULATE);
    assert_eq!(header.len(), HEADER_LEN);
    writer.write_all(&header).unwrap();
    let resp = read_binary_response(&mut reader);
    match &resp {
        Response::Error { detail, .. } => {
            assert!(detail.contains("exceeds"), "{detail}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    // The connection is dropped: the next read sees EOF, and no bytes of
    // the oversize payload were ever buffered server-side.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no bytes after the final error frame");
    assert_eq!(
        server
            .stats()
            .frame_errors
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    server.shutdown();
}

#[test]
fn truncated_payload_gets_error_and_drop() {
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let (mut reader, mut writer) = connect(server.addr);
    let req = protocol::parse_request(r#"{"id":"t","kernel":"coloring","scale":512}"#).unwrap();
    let bytes = binary_rpc_bytes(&req);
    // Send the header plus half the payload, then close the write half:
    // the server sees EOF mid-frame.
    writer.write_all(&bytes[..HEADER_LEN + 4]).unwrap();
    writer.shutdown(Shutdown::Write).unwrap();
    let resp = read_binary_response(&mut reader);
    match &resp {
        Response::Error { detail, .. } => {
            assert!(detail.contains("mid-frame"), "{detail}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unknown_wire_version_is_rejected() {
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let (mut reader, mut writer) = connect(server.addr);
    let mut header = Vec::from(MAGIC);
    header.push(WIRE_VERSION + 8); // a future version this build rejects
    header.extend_from_slice(&4u32.to_le_bytes());
    header.push(frame::TAG_PING);
    writer.write_all(&header).unwrap();
    writer.write_all(&[0, 0, 0, 0]).unwrap();
    let resp = read_binary_response(&mut reader);
    match &resp {
        Response::Error { detail, .. } => {
            assert!(detail.contains("version"), "{detail}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn json_and_binary_modes_serve_bit_identical_cycles() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            lru_cap: 0, // both modes compute, neither is a cache echo
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let line = r#"{"id":"x","kernel":"coloring","graph":"hood","runtime":"omp","sched":"dynamic","chunk":100,"threads":61,"scale":512}"#;

    // JSON compat mode.
    let (mut jreader, mut jwriter) = connect(server.addr);
    writeln!(jwriter, "{line}").unwrap();
    let mut resp_line = String::new();
    jreader.read_line(&mut resp_line).unwrap();
    let Response::Ok {
        cycles: json_cycles,
        ..
    } = protocol::parse_response(resp_line.trim_end()).unwrap()
    else {
        panic!("expected ok over JSON");
    };

    // Binary mode, same spec, fresh connection.
    let (mut breader, mut bwriter) = connect(server.addr);
    let req = protocol::parse_request(line).unwrap();
    bwriter.write_all(&binary_rpc_bytes(&req)).unwrap();
    let Response::Ok {
        cycles: bin_cycles, ..
    } = read_binary_response(&mut breader)
    else {
        panic!("expected ok over binary");
    };

    assert_eq!(
        json_cycles.to_bits(),
        bin_cycles.to_bits(),
        "the two wire encodings must transport the identical f64"
    );
    // And both match a direct in-process simulation.
    let Request::Simulate { spec, .. } = req else {
        panic!()
    };
    assert_eq!(spec.compute().to_bits(), bin_cycles.to_bits());
    server.shutdown();
}

#[test]
fn binary_connection_serves_many_requests_including_ping_and_stats() {
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let (mut reader, mut writer) = connect(server.addr);
    for step in 0..3 {
        let req = protocol::parse_request(&format!(
            r#"{{"id":"b{step}","kernel":"coloring","threads":{},"scale":512}}"#,
            step + 2
        ))
        .unwrap();
        writer.write_all(&binary_rpc_bytes(&req)).unwrap();
        assert!(matches!(
            read_binary_response(&mut reader),
            Response::Ok { .. }
        ));
    }
    writer
        .write_all(&binary_rpc_bytes(&Request::Ping { id: "p".into() }))
        .unwrap();
    assert!(matches!(
        read_binary_response(&mut reader),
        Response::Pong { .. }
    ));
    writer
        .write_all(&binary_rpc_bytes(&Request::Stats { id: "s".into() }))
        .unwrap();
    let Response::Stats { fields, .. } = read_binary_response(&mut reader) else {
        panic!("expected stats");
    };
    let ok = fields.iter().find(|(k, _)| k == "ok").unwrap().1;
    assert_eq!(ok, 3.0);
    let shards = fields.iter().find(|(k, _)| k == "shards").unwrap().1;
    assert_eq!(shards, ServeOpts::default().shards as f64);
    server.shutdown();
}

#[test]
fn pipelined_frames_answer_in_order_with_depth_one_bits() {
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    let request = |i: usize| {
        // Fifteen of every sixteen frames cycle specs the depth-1 pass
        // below leaves resident; the sixteenth has a spec of its own, so
        // misses sit in the pipeline among the hits.
        let line = if i % 16 == 7 {
            format!(
                r#"{{"id":"q{i}","kernel":"coloring","order":"random","seed":{i},"threads":3,"scale":512}}"#
            )
        } else {
            format!(
                r#"{{"id":"q{i}","kernel":"coloring","threads":{},"scale":512}}"#,
                2 + i % 16
            )
        };
        protocol::parse_request(&line).unwrap()
    };
    let cycles_of = |resp: Response, i: usize| match resp {
        Response::Ok { id, cycles, .. } => {
            assert_eq!(id, format!("q{i}"), "responses arrive in request order");
            cycles.to_bits()
        }
        other => panic!("frame {i}: expected ok, got {other:?}"),
    };
    let (mut reader, mut writer) = connect(server.addr);
    let depth_one: Vec<u64> = (0..16)
        .map(|i| {
            writer.write_all(&binary_rpc_bytes(&request(i))).unwrap();
            cycles_of(read_binary_response(&mut reader), i)
        })
        .collect();

    let (mut reader, mut writer) = connect(server.addr);
    let batch: Vec<u8> = (0..256)
        .flat_map(|i| binary_rpc_bytes(&request(i)))
        .collect();
    writer.write_all(&batch).unwrap();
    for i in 0..256 {
        let bits = cycles_of(read_binary_response(&mut reader), i);
        let want = if i % 16 == 7 {
            let Request::Simulate { spec, .. } = request(i) else {
                panic!()
            };
            spec.compute().to_bits()
        } else {
            depth_one[i % 16]
        };
        assert_eq!(bits, want, "frame {i}");
    }
    // Nothing is stuck in a buffer: the connection still answers a lone
    // request.
    writer.write_all(&binary_rpc_bytes(&request(0))).unwrap();
    assert_eq!(
        cycles_of(read_binary_response(&mut reader), 0),
        depth_one[0]
    );
    server.shutdown();
}

#[test]
fn good_frames_before_an_oversize_header_are_all_answered() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            max_request: 1024,
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let (mut reader, mut writer) = connect(server.addr);
    let mut bytes: Vec<u8> = (0..40)
        .flat_map(|i| {
            binary_rpc_bytes(&Request::Ping {
                id: format!("p{i}"),
            })
        })
        .collect();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(WIRE_VERSION);
    bytes.extend_from_slice(&(1_000_000u32).to_le_bytes());
    bytes.push(frame::TAG_SIMULATE);
    writer.write_all(&bytes).unwrap();
    for i in 0..40 {
        match read_binary_response(&mut reader) {
            Response::Pong { id } => assert_eq!(id, format!("p{i}")),
            other => panic!("expected pong {i}, got {other:?}"),
        }
    }
    match read_binary_response(&mut reader) {
        Response::Error { detail, .. } => assert!(detail.contains("exceeds"), "{detail}"),
        other => panic!("expected the final error frame, got {other:?}"),
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "EOF after the final error frame");
    server.shutdown();
}
