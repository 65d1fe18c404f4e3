//! Chaos variant: the server under a deterministic fault plan. Own test
//! binary because the installed plan is process-global.
//!
//! `job-panic#1` targets the shard's execution 1: a plug job is
//! execution 0, so exactly one of the four jobs queued behind it — the
//! first to get the shard's one compute slot — panics. That request gets
//! a structured error response while the other three succeed, and the
//! server survives. The poisoned job is attempted once: the jobs queued
//! behind it are not held behind retries and backoff.

use mic_eval::fault::{self, FaultPlan};
use mic_serve::protocol::{self, Response};
use mic_serve::server::{ServeOpts, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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
fn injected_job_faults_become_error_responses_not_process_death() {
    let plan = FaultPlan::parse("42:job-panic#1").expect("plan parses");
    let ((), snap) = mic_eval::metrics::with_session(|| fault::with_plan(plan, run_under_faults));
    // Every attempt at a poisoned site counts one injection: one means the
    // three jobs behind it did not wait out re-runs of a job that cannot
    // succeed.
    assert_eq!(
        snap.value("mic_fault_injections_total", &[("class", "job-panic")]),
        Some(1.0),
        "the poisoned job must be attempted exactly once"
    );
}

fn run_under_faults() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            queue_cap: 16,
            slots: 1,
            lru_cap: 0,
            shards: 1, // one shard so the execution indices are exact
            ..ServeOpts::default()
        },
    )
    .expect("start server");
    let addr = server.addr;

    // Plug the one slot so the next four distinct jobs queue behind it.
    // The plug is execution 0, so the #1 rule misses it.
    let plug = std::thread::spawn(move || {
        rpc(
            addr,
            r#"{"id":"plug","kernel":"coloring","threads":99,"scale":512,"delay_ms":400}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(120));
    let workers: Vec<_> = (1..=4)
        .map(|t| {
            std::thread::spawn(move || {
                rpc(
                    addr,
                    &format!(r#"{{"id":"j{t}","kernel":"coloring","threads":{t},"scale":512}}"#),
                )
            })
        })
        .collect();
    let responses: Vec<Response> = workers.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(matches!(plug.join().unwrap(), Response::Ok { .. }));

    let mut ok = 0;
    let mut errors = Vec::new();
    for r in responses {
        match r {
            Response::Ok { .. } => ok += 1,
            Response::Error { detail, .. } => errors.push(detail),
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok, 3, "three of the four queued jobs succeed");
    assert_eq!(errors.len(), 1, "exactly execution 1 is poisoned");
    assert!(errors[0].contains("panic"), "{}", errors[0]);

    // The server keeps serving after the fault: a follow-up job is
    // execution 5, which the plan does not target.
    assert!(matches!(
        rpc(addr, r#"{"id":"p","op":"ping"}"#),
        Response::Pong { .. }
    ));
    assert!(matches!(
        rpc(
            addr,
            r#"{"id":"after","kernel":"coloring","threads":50,"scale":512}"#
        ),
        Response::Ok { .. }
    ));
    let Response::Stats { fields, .. } = rpc(addr, r#"{"id":"s","op":"stats"}"#) else {
        panic!("expected stats");
    };
    let stat = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap()
    };
    assert_eq!(stat("errors"), 1.0);
    assert_eq!(stat("executed"), 6.0, "plug + 4 queued + 1 follow-up");
    server.shutdown();
}
