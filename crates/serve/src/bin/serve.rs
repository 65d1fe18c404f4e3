//! The mic-serve binary: server, load client, and stats/trace queries in
//! one.
//!
//! Usage: `serve <serve|client|stats|trace> [flags]`
//!
//! - `serve serve [--addr A] [--queue-cap N] [--slots N] [--lru N]
//!   [--shards N] [--quota N] [--conn-cap N]
//!   [--max-request BYTES] [--store PATH] [--store-sync N]
//!   [--duration S]` — run the TCP server (default `127.0.0.1:7171`;
//!   `--duration` exits after S seconds, otherwise it runs until
//!   killed). `--store` spills results to a crash-safe paged store so a
//!   restarted server answers repeat jobs warm; `--store-sync N`
//!   persists every N results (default: at shutdown only — pass 1 to
//!   survive `kill -9`). `MIC_METRICS=<path>` writes a Prometheus
//!   snapshot on clean shutdown. Defaults come from the `MIC_SERVE_*`
//!   and `MIC_STORE*` SuiteConfig knobs; flags win.
//! - `serve client --addr A [--clients N] [--rps R] [--duration S]
//!   [--json]` — drive one bounded load point against a running server
//!   and print the throughput/latency row. The wire is binary frames
//!   unless `--json` (or `MIC_SERVE_WIRE=json`) selects the newline-JSON
//!   compat mode.
//! - `serve stats --addr A` — print a running server's `stats` fields
//!   (one `name value` line each, plus the server's `build` stamp), for
//!   scripts and CI assertions.
//! - `serve trace --addr A --trace-id HEX` — summarize one trace's span
//!   tree on a running, `MIC_OBS`-enabled server (`name value` lines:
//!   span count, total µs, per-stage µs/counts). `serve trace --check`
//!   instead runs a self-contained smoke: an in-process traced server,
//!   one client-minted traced request, then the trace op — nonzero exit
//!   unless the span tree came back with an execute span.
//!
//! `serve client --trace` mints a fresh trace context per request, so a
//! traced server builds a span tree for every one of them.

use mic_bench::cli::Cli;
use mic_eval::config::ServeWire;
use mic_serve::client::{self, LoadOpts, LoadSummary};
use mic_serve::protocol::Response;
use mic_serve::server::{ServeOpts, Server};
use std::path::PathBuf;

const USAGE: &str = "serve <serve|client|stats|trace> [--addr HOST:PORT] [--queue-cap N] \
                     [--slots N] [--lru N] [--shards N] [--quota N] \
                     [--conn-cap N] [--max-request BYTES] [--store PATH] [--store-sync N] \
                     [--clients N] [--rps R] [--duration S] [--json] [--trace] \
                     [--trace-id HEX] [--check]";

fn main() {
    let mut cli = Cli::parse("serve", USAGE);
    let cfg = cli.config();
    let addr = cli.opt("--addr");
    let mut opts = ServeOpts::from_config(&cfg);
    if let Some(n) = cli.opt_parse::<usize>("--queue-cap", "a positive integer") {
        opts.queue_cap = n.max(1);
    }
    if let Some(n) = cli.opt_parse::<usize>("--slots", "a positive integer") {
        opts.slots = n.max(1);
    }
    if let Some(n) = cli.opt_parse::<usize>("--lru", "a cache capacity") {
        opts.lru_cap = n;
    }
    if let Some(n) = cli.opt_parse::<usize>("--shards", "a positive integer") {
        opts.shards = n.clamp(1, 64);
    }
    if let Some(n) = cli.opt_parse::<usize>("--quota", "a positive integer") {
        opts.quota = n.max(1);
    }
    if let Some(n) = cli.opt_parse::<usize>("--conn-cap", "a positive integer") {
        opts.conn_cap = n.max(1);
    }
    if let Some(n) = cli.opt_parse::<usize>("--max-request", "a byte count") {
        opts.max_request = n.max(256);
    }
    if let Some(p) = cli.opt("--store") {
        opts.store_path = Some(PathBuf::from(p));
    }
    if let Some(n) = cli.opt_parse::<usize>("--store-sync", "a put count") {
        opts.store_sync = n;
    }
    let wire = if cli.flag("--json") {
        ServeWire::Json
    } else {
        cfg.serve_wire
    };
    let clients = cli
        .opt_parse::<usize>("--clients", "a positive integer")
        .unwrap_or(4)
        .max(1);
    let rps = cli
        .opt_parse::<f64>("--rps", "a request rate")
        .unwrap_or(100.0)
        .max(0.1);
    let duration = cli.opt_parse::<f64>("--duration", "seconds");
    let trace_requests = cli.flag("--trace");
    let trace_id = cli.opt("--trace-id");
    let check = cli.check();
    let pos = cli.positionals(1);
    let mode = pos.first().map(String::as_str).unwrap_or("serve");

    mic_eval::metrics::init_from_env();
    let code = match mode {
        "serve" => run_serve(addr.as_deref().unwrap_or("127.0.0.1:7171"), opts, duration),
        "client" => {
            let Some(addr) = addr.as_deref() else {
                eprintln!("serve: client mode needs --addr HOST:PORT");
                eprintln!("usage: {USAGE}");
                std::process::exit(2);
            };
            run_client(
                addr,
                clients,
                rps,
                duration.unwrap_or(2.0),
                wire,
                trace_requests,
            )
        }
        "stats" => {
            let Some(addr) = addr.as_deref() else {
                eprintln!("serve: stats mode needs --addr HOST:PORT");
                eprintln!("usage: {USAGE}");
                std::process::exit(2);
            };
            run_stats(addr)
        }
        "trace" => run_trace(addr.as_deref(), trace_id, opts, check),
        other => {
            eprintln!("serve: unknown mode {other:?}");
            eprintln!("usage: {USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn write_metrics_snapshot() {
    if mic_eval::metrics::enabled() {
        let snap = mic_eval::metrics::snapshot();
        if let Some(path) = mic_eval::metrics::snapshot_path() {
            match std::fs::write(&path, snap.to_prometheus()) {
                Ok(()) => eprintln!("(metrics snapshot written to {})", path.display()),
                Err(e) => eprintln!("(could not write {}: {e})", path.display()),
            }
        }
    }
}

/// Ask a running server for its `stats` fields and print them one per
/// line (`name value`), so shell scripts and CI can grep and compare.
fn run_stats(addr: &str) -> i32 {
    use std::io::{BufRead, BufReader, Write};
    let result = (|| -> std::io::Result<mic_serve::protocol::Response> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        writeln!(writer, r#"{{"id":"cli","op":"stats"}}"#)?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        mic_serve::protocol::parse_response(line.trim_end()).map_err(std::io::Error::other)
    })();
    match result {
        Ok(Response::Stats { fields, build, .. }) => {
            println!("build {build}");
            for (name, value) in fields {
                println!("{name} {value}");
            }
            0
        }
        Ok(other) => {
            eprintln!("serve: unexpected stats response: {}", other.render());
            1
        }
        Err(e) => {
            eprintln!("serve: stats query against {addr} failed: {e}");
            1
        }
    }
}

fn run_serve(addr: &str, opts: ServeOpts, duration: Option<f64>) -> i32 {
    let server = match Server::start(addr, opts.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            return 1;
        }
    };
    println!("mic-serve listening on {}", server.addr);
    println!(
        "  shards={} queue_cap={} slots={} lru={} quota={} conn_cap={} max_request={}",
        opts.shards,
        opts.queue_cap,
        opts.slots,
        opts.lru_cap,
        opts.quota,
        opts.conn_cap,
        opts.max_request
    );
    match duration {
        Some(s) => {
            std::thread::sleep(std::time::Duration::from_secs_f64(s.max(0.0)));
            let stats = server.stats();
            eprintln!(
                "shutting down after {s}s: received={} ok={} shed={} errors={}",
                stats.received.load(std::sync::atomic::Ordering::Relaxed),
                stats.ok.load(std::sync::atomic::Ordering::Relaxed),
                stats.shed.load(std::sync::atomic::Ordering::Relaxed),
                stats.errors.load(std::sync::atomic::Ordering::Relaxed),
            );
            server.shutdown();
            write_metrics_snapshot();
            0
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}

fn run_client(
    addr: &str,
    clients: usize,
    rps: f64,
    duration: f64,
    wire: ServeWire,
    trace: bool,
) -> i32 {
    let point = LoadOpts {
        clients,
        target_rps: rps,
        duration_s: duration,
        wire,
        trace,
    };
    match client::run_load(addr, point) {
        Ok(summary) => {
            println!("{}", LoadSummary::header());
            println!("{}", summary.row());
            0
        }
        Err(e) => {
            eprintln!("serve: load run against {addr} failed: {e}");
            1
        }
    }
}

/// One JSON request/response exchange on an already-open connection.
fn json_exchange(
    writer: &mut std::net::TcpStream,
    reader: &mut std::io::BufReader<std::net::TcpStream>,
    line: &str,
) -> std::io::Result<Response> {
    use std::io::{BufRead, Write};
    writeln!(writer, "{line}")?;
    let mut resp = String::new();
    if reader.read_line(&mut resp)? == 0 {
        return Err(std::io::Error::other("server closed the connection"));
    }
    mic_serve::protocol::parse_response(resp.trim_end()).map_err(std::io::Error::other)
}

/// `serve trace`: summarize one trace's span tree as `name value` lines.
fn run_trace(addr: Option<&str>, trace_id: Option<String>, opts: ServeOpts, check: bool) -> i32 {
    if check {
        return run_trace_check(opts);
    }
    let (Some(addr), Some(trace_id)) = (addr, trace_id) else {
        eprintln!("serve: trace mode needs --addr HOST:PORT and --trace-id HEX (or --check)");
        eprintln!("usage: {USAGE}");
        return 2;
    };
    if mic_eval::obs::parse_trace_hex(&trace_id).is_none() {
        eprintln!("serve: --trace-id must be 32 hex chars (and not all zero)");
        return 2;
    }
    let result = (|| -> std::io::Result<Response> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = std::io::BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        json_exchange(
            &mut writer,
            &mut reader,
            &format!(r#"{{"id":"cli","op":"trace","trace_id":"{trace_id}"}}"#),
        )
    })();
    match result {
        Ok(Response::Trace { fields, .. }) => {
            for (name, value) in fields {
                println!("{name} {value}");
            }
            0
        }
        Ok(other) => {
            eprintln!("serve: unexpected trace response: {}", other.render());
            1
        }
        Err(e) => {
            eprintln!("serve: trace query against {addr} failed: {e}");
            1
        }
    }
}

/// `serve trace --check`: a self-contained tracing smoke. Installs
/// observability, starts an in-process server, sends one client-minted
/// traced request, then asks for its span summary — failing unless the
/// request echoed the trace id and the tree contains an execute span.
fn run_trace_check(opts: ServeOpts) -> i32 {
    let dump_dir = std::env::temp_dir().join(format!("mic-obs-trace-check-{}", std::process::id()));
    // Overlay tracing on the current config (rather than calling
    // obs::install directly) so the config slot and the obs switch agree.
    (*mic_eval::config::current())
        .clone()
        .obs(mic_eval::config::ObsMode::OnWithDir(dump_dir.clone()))
        .install();
    let server = match Server::start("127.0.0.1:0", opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot start in-process server: {e}");
            return 1;
        }
    };
    let ctx = mic_eval::obs::TraceCtx::mint();
    let hex = mic_eval::obs::trace_hex(ctx.trace);
    let result = (|| -> std::io::Result<i32> {
        let stream = std::net::TcpStream::connect(server.addr)?;
        stream.set_nodelay(true)?;
        let mut reader = std::io::BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let sim = format!(
            "{{\"id\":\"t0\",\"op\":\"simulate\",\"kernel\":\"coloring\",\"graph\":\"hood\",\
             \"runtime\":\"omp\",\"sched\":\"dynamic\",\"chunk\":100,\"threads\":31,\
             \"scale\":256,\"trace_id\":\"{hex}\"}}"
        );
        let Response::Ok { meta, .. } = json_exchange(&mut writer, &mut reader, &sim)? else {
            eprintln!("trace check FAILED: traced simulate did not return ok");
            return Ok(1);
        };
        if meta.trace != ctx.trace {
            eprintln!(
                "trace check FAILED: response echoed trace {} != minted {hex}",
                mic_eval::obs::trace_hex(meta.trace)
            );
            return Ok(1);
        }
        let summary = json_exchange(
            &mut writer,
            &mut reader,
            &format!(r#"{{"id":"t1","op":"trace","trace_id":"{hex}"}}"#),
        )?;
        let Response::Trace { fields, .. } = summary else {
            eprintln!(
                "trace check FAILED: unexpected trace response: {}",
                summary.render()
            );
            return Ok(1);
        };
        let get = |key: &str| {
            fields
                .iter()
                .find(|(name, _)| name == key)
                .map_or(0.0, |(_, v)| *v)
        };
        for (name, value) in &fields {
            println!("{name} {value}");
        }
        if get("spans") < 1.0 || get("execute_count") < 1.0 {
            eprintln!("trace check FAILED: span tree is missing an execute span");
            return Ok(1);
        }
        println!("trace check: span tree intact for trace {hex}");
        Ok(0)
    })();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dump_dir);
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("serve: trace check failed: {e}");
            1
        }
    }
}
