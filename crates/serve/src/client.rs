//! Load-generator client: open-loop-ish request pacing over N
//! connections and latency quantiles, printed as one row per load point.
//!
//! Each client thread owns one connection and paces itself so the fleet
//! approaches the target request rate; responses are classified (`ok` /
//! `shed` / `error`) and latencies pooled for p50/p95/p99. A client that
//! falls behind (server saturated) does not queue unsent requests — the
//! achieved rate simply drops, which together with the shed count is the
//! backpressure signal the row reports.
//!
//! The client speaks both wires: binary frames ([`crate::frame`], the
//! default) or the newline-JSON compat mode ([`LoadOpts::wire`]). Either
//! way a response may arrive as a JSON line — the server refuses
//! over-cap connections before mode negotiation — so the reader sniffs
//! each response's first byte, mirroring the server's own sniff.

use crate::frame;
use crate::protocol::{self, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The wire a load point speaks. The server negotiates per connection
/// (the first byte selects framing), so only the initiating side picks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Wire {
    /// Length-prefixed binary frames (magic + version + len + op tag).
    #[default]
    Binary,
    /// Newline-delimited JSON — the debug/compat mode.
    Json,
}

impl Wire {
    pub fn name(self) -> &'static str {
        match self {
            Wire::Binary => "binary",
            Wire::Json => "json",
        }
    }
}

/// One load point's configuration.
#[derive(Clone, Copy, Debug)]
pub struct LoadOpts {
    pub clients: usize,
    pub target_rps: f64,
    pub duration_s: f64,
    /// Wire encoding this load point speaks.
    pub wire: Wire,
    /// Mint a client-side trace context for every request. The ids ride
    /// the wire (either encoding) and the server threads them through
    /// its span tree; off by default, so a plain load run measures the
    /// untraced hot path.
    pub trace: bool,
}

impl Default for LoadOpts {
    fn default() -> LoadOpts {
        LoadOpts {
            clients: 4,
            target_rps: 100.0,
            duration_s: 2.0,
            wire: Wire::Binary,
            trace: false,
        }
    }
}

/// One load point's outcome.
#[derive(Clone, Debug, Default)]
pub struct LoadSummary {
    pub target_rps: f64,
    /// `"binary"` or `"json"` — which wire produced this point.
    pub wire: String,
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    pub achieved_rps: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

/// Empirical quantile of a sorted latency list (nearest-rank).
fn quantile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

/// The request mix: a small rotation of realistic simulate requests, so
/// the server sees both coalescable duplicates and distinct work.
fn request_line(id: &str, step: usize) -> String {
    const THREADS: [usize; 3] = [31, 61, 121];
    let threads = THREADS[step % THREADS.len()];
    format!(
        "{{\"id\":\"{id}\",\"op\":\"simulate\",\"kernel\":\"coloring\",\"graph\":\"hood\",\
         \"runtime\":\"omp\",\"sched\":\"dynamic\",\"chunk\":100,\"threads\":{threads},\
         \"scale\":256}}"
    )
}

/// Graft a freshly minted trace context onto a request line. Both wires
/// share this: the binary path re-parses the line, and `trace_id` lands
/// in the frame's optional trailing block.
fn with_trace(line: &str, ctx: &mic_eval::obs::TraceCtx) -> String {
    let body = line.strip_suffix('}').unwrap_or(line);
    format!(
        "{body},\"trace_id\":\"{}\"}}",
        mic_eval::obs::trace_hex(ctx.trace)
    )
}

/// Read one response in either encoding, sniffing the first byte exactly
/// like the server does: a connection-refusal `shed` is always a JSON
/// line even when this client asked for binary frames.
fn read_response(
    reader: &mut BufReader<TcpStream>,
    max: usize,
) -> std::io::Result<Option<Response>> {
    let first = match reader.fill_buf() {
        Ok([]) => return Ok(None), // clean EOF
        Ok(buf) => buf[0],
        Err(e) => return Err(e),
    };
    if first == frame::MAGIC[0] {
        match frame::read_frame(reader, max) {
            Ok(None) => Ok(None),
            Ok(Some((tag, payload))) => Ok(frame::decode_response(tag, &payload).ok()),
            Err(frame::FrameError::Io(e)) => Err(e),
            Err(_) => Ok(Some(Response::Error {
                id: String::new(),
                detail: "undecodable response frame".into(),
            })),
        }
    } else {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        Ok(protocol::parse_response(line.trim_end()).ok())
    }
}

/// Drive one load point against a serving address.
pub fn run_load(addr: &str, opts: LoadOpts) -> std::io::Result<LoadSummary> {
    let clients = opts.clients.max(1);
    let per_client_interval = Duration::from_secs_f64(clients as f64 / opts.target_rps.max(0.001));
    let deadline = Duration::from_secs_f64(opts.duration_s.max(0.01));
    let started = Instant::now();
    let mut handles = Vec::new();
    for ci in 0..clients {
        let addr = addr.to_string();
        let wire = opts.wire;
        let trace = opts.trace;
        handles.push(std::thread::spawn(move || -> std::io::Result<Worker> {
            let stream = TcpStream::connect(&addr)?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            let mut w = Worker::default();
            let t0 = Instant::now();
            let mut next_at = Duration::ZERO;
            let mut step = 0usize;
            while t0.elapsed() < deadline {
                let mut line = request_line(&format!("c{ci}-{step}"), ci + step);
                if trace {
                    line = with_trace(&line, &mic_eval::obs::TraceCtx::mint());
                }
                step += 1;
                let sent_at = Instant::now();
                match wire {
                    Wire::Binary => {
                        // Same validated spec as the JSON path — the
                        // parse is the compat-mode one, the encoding is
                        // the frame codec.
                        let req = protocol::parse_request(&line)
                            .map_err(|(_, e)| std::io::Error::other(e))?;
                        let (tag, payload) = frame::encode_request(&req);
                        frame::write_frame(&mut writer, tag, &payload)?;
                    }
                    Wire::Json => writeln!(writer, "{line}")?,
                }
                w.sent += 1;
                let Some(resp) = read_response(&mut reader, 1 << 20)? else {
                    break; // server closed (shutdown or refusal already read)
                };
                let latency_ms = sent_at.elapsed().as_secs_f64() * 1e3;
                match resp {
                    Response::Ok { .. } => {
                        w.ok += 1;
                        w.latencies_ms.push(latency_ms);
                    }
                    Response::Shed { .. } => w.shed += 1,
                    _ => w.errors += 1,
                }
                next_at += per_client_interval;
                let elapsed = t0.elapsed();
                if next_at > elapsed {
                    std::thread::sleep(next_at - elapsed);
                }
            }
            Ok(w)
        }));
    }
    let mut agg = Worker::default();
    for h in handles {
        match h.join() {
            Ok(Ok(w)) => agg.merge(w),
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                return Err(std::io::Error::other("load client thread panicked"));
            }
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    agg.latencies_ms.sort_by(f64::total_cmp);
    Ok(LoadSummary {
        target_rps: opts.target_rps,
        wire: opts.wire.name().to_string(),
        sent: agg.sent,
        ok: agg.ok,
        shed: agg.shed,
        errors: agg.errors,
        achieved_rps: agg.ok as f64 / elapsed_s.max(1e-9),
        p50_ms: quantile(&agg.latencies_ms, 0.50),
        p95_ms: quantile(&agg.latencies_ms, 0.95),
        p99_ms: quantile(&agg.latencies_ms, 0.99),
        max_ms: agg.latencies_ms.last().copied().unwrap_or(0.0),
    })
}

#[derive(Default)]
struct Worker {
    sent: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    latencies_ms: Vec<f64>,
}

impl Worker {
    fn merge(&mut self, other: Worker) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.errors += other.errors;
        self.latencies_ms.extend(other.latencies_ms);
    }
}

impl LoadSummary {
    /// One human-readable table row.
    pub fn row(&self) -> String {
        format!(
            "{:>6} {:>8.0} {:>8.0} {:>7} {:>7} {:>6} {:>6} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            self.wire,
            self.target_rps,
            self.achieved_rps,
            self.ok,
            self.sent - self.ok,
            self.shed,
            self.errors,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms,
        )
    }

    /// Column header matching [`row`](Self::row).
    pub fn header() -> &'static str {
        "  wire   target   actual      ok   other   shed    err    p50 ms    p95 ms    p99 ms    max ms"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;

    #[test]
    fn quantiles_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn with_trace_injects_a_parseable_context() {
        let ctx = mic_eval::obs::TraceCtx::mint();
        let traced = with_trace(&request_line("t0", 0), &ctx);
        let Request::Simulate { ctx: parsed, .. } = protocol::parse_request(&traced).unwrap()
        else {
            panic!("expected simulate");
        };
        let parsed = parsed.expect("trace context should survive the line");
        assert_eq!(parsed.trace, ctx.trace);
        assert_eq!(parsed.parent, 0);
    }
}
