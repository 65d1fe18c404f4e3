//! Chaos variant: the server under a deterministic fault plan, passed to
//! each server in its `ServeOpts`.
//!
//! `mic-serve` is the one place that isolates a panicking job
//! ([`mic_eval::sweep::try_run`]): the request gets a structured error
//! response, every other request is untouched, and the server survives.
//! The `job-panic` site is the shard's execution index.
//!
//! `job-panic#1` targets the shard's execution 1: a plug job is
//! execution 0, so exactly one of the four jobs queued behind it — the
//! first to get the shard's one compute slot — panics. The poisoned job
//! is attempted once: the jobs queued behind it are not held behind
//! retries and backoff. The seeded matrix then checks, request by request,
//! that exactly the fired sites fail. CI runs this binary under
//! `MIC_FAULT=<seed>:job-panic@0.2` too: that plan joins the matrix.

use mic_eval::fault::{FaultClass, FaultPlan};
use mic_serve::protocol::{self, Response};
use mic_serve::server::{ServeOpts, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
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
    let ((), snap) = mic_eval::metrics::with_session(|| run_under_faults(plan));
    // Every attempt at a poisoned site counts one injection: one means the
    // three jobs behind it did not wait out re-runs of a job that cannot
    // succeed.
    assert_eq!(
        snap.value("mic_fault_injections_total", &[("class", "job-panic")]),
        Some(1.0),
        "the poisoned job must be attempted exactly once"
    );
}

fn run_under_faults(plan: FaultPlan) {
    let server = Server::start(
        "127.0.0.1:0",
        ServeOpts {
            queue_cap: 16,
            slots: 1,
            lru_cap: 0,
            shards: 1, // one shard so the execution indices are exact
            fault: Some(Arc::new(plan)),
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

/// Serve `JOBS` distinct coloring jobs one after another on a fresh
/// one-shard, one-slot server with no result cache and no store, so
/// request *k* is execution *k*. Returns each response in request order
/// and the session's `job-panic` injection count.
fn serve_in_order(plan: FaultPlan) -> (Vec<Response>, f64) {
    let (responses, snap) = mic_eval::metrics::with_session(|| {
        let server = Server::start(
            "127.0.0.1:0",
            ServeOpts {
                slots: 1,
                lru_cap: 0,
                shards: 1,
                fault: Some(Arc::new(plan)),
                ..ServeOpts::default()
            },
        )
        .expect("start server");
        let responses = (0..JOBS)
            .map(|k| {
                let threads = k + 1;
                rpc(
                    server.addr,
                    &format!(
                        r#"{{"id":"m{k}","kernel":"coloring","threads":{threads},"scale":512}}"#
                    ),
                )
            })
            .collect();
        server.shutdown();
        responses
    });
    let injected = snap
        .value("mic_fault_injections_total", &[("class", "job-panic")])
        .unwrap_or(0.0);
    (responses, injected)
}

const JOBS: usize = 24;

/// The chaos matrix at the site that keeps isolation: under each plan,
/// every request whose execution index the plan fires on answers `error`,
/// and every other one answers `ok` with cycles bit-equal to the
/// fault-free run.
#[test]
fn fired_sites_answer_error_and_the_rest_match_the_fault_free_run() {
    // A zero-rate plan never fires.
    let (reference, injected) = serve_in_order(FaultPlan::parse("1:job-panic@0.0").unwrap());
    assert_eq!(injected, 0.0);
    let reference: Vec<u64> = reference
        .iter()
        .map(|r| match r {
            Response::Ok { cycles, .. } => cycles.to_bits(),
            other => panic!("fault-free run answered {other:?}"),
        })
        .collect();

    // The committed seeds' schedules over the 24 sites (pinned in
    // `fault::tests` too), so the matrix provably covers fired sites.
    let pinned: [(u64, &[usize]); 3] = [
        (1, &[0, 12, 21]),
        (7, &[0, 5, 10, 12, 17, 23]),
        (42, &[3, 7, 8, 20]),
    ];
    let mut plans: Vec<(String, FaultPlan)> = pinned
        .iter()
        .map(|(seed, _)| {
            let spec = format!("{seed}:job-panic@0.2");
            let plan = FaultPlan::parse(&spec).unwrap();
            (spec, plan)
        })
        .collect();
    if let Some(env) = mic_eval::config::current().fault.clone() {
        plans.push(("MIC_FAULT".to_string(), env));
    }
    for (i, (spec, plan)) in plans.into_iter().enumerate() {
        let fired: Vec<usize> = (0..JOBS)
            .filter(|&k| plan.fires(FaultClass::JobPanic, k as u64))
            .collect();
        if let Some((_, schedule)) = pinned.get(i) {
            assert_eq!(fired, *schedule, "{spec}: schedule moved");
        }
        let (responses, injected) = serve_in_order(plan);
        assert_eq!(injected, fired.len() as f64, "{spec}: injection count");
        for (k, r) in responses.iter().enumerate() {
            match r {
                Response::Error { detail, .. } if fired.contains(&k) => {
                    assert!(detail.contains("panic"), "{spec}: request {k}: {detail}")
                }
                Response::Ok { cycles, .. } if !fired.contains(&k) => assert_eq!(
                    cycles.to_bits(),
                    reference[k],
                    "{spec}: request {k} drifted under faults"
                ),
                other => panic!("{spec}: request {k} (fired: {fired:?}) answered {other:?}"),
            }
        }
    }
}
