//! The `serve-*` children: an in-process `Server` on an ephemeral port,
//! driven over real TCP on the binary wire by closed-loop clients.
//!
//! Two client shapes. `Compute` keeps one request in flight per
//! connection and never repeats a key, so every request runs the engine
//! and its latency is one request's. `Pipelined` writes 128 pre-encoded
//! frames and then reads 128 responses over a small cycled key set, which
//! amortises the ~45 µs thread wake-up that at depth 1 hides whether a
//! request was an LRU hit or a store hit.

use crate::catalogue::SERVER_COUNTERS;
use crate::golden::{self, Goldens};
use crate::keys::{self, Stream, GOLDEN_BLOCK};
use crate::report::ChildReport;
use crate::spans::Tracer;
use crate::stats;
use mic_serve::frame;
use mic_serve::protocol::Response;
use mic_serve::server::{ServeOpts, ServeStats, Server};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Input scale of `serve-compute`: a request costs milliseconds.
pub const COMPUTE_SCALE: u32 = 16;
/// Input scale of the cached workloads: results are looked up, so the
/// scale only sets how long setup's one computation per key takes.
pub const CACHED_SCALE: u32 = 64;
pub const HOT_KEYS: usize = 48;
/// More than four times the server's result-LRU slots (4 shards × 256),
/// so a cycle over the keys never finds one still resident.
pub const STORE_KEYS: usize = 4096;
/// Frames per pipelined write. A batch of 128 takes the server about a
/// millisecond, so one scheduling hiccup (0.1–0.2 ms on the builder's VM)
/// moves a batch's round trip by a tenth. With 32-frame batches it moved
/// it by half, and the p99 jumped 25–30 % between quiet and noisy minutes
/// depending on whether more or fewer than 1 % of batches were hit.
pub const DEPTH: usize = 128;
/// Pipelined writes in flight per connection.
const IN_FLIGHT: usize = 2;
/// `spin_loop` hints between two polls of a spinning socket.
const SPIN_PAUSES: usize = 512;
/// Every 64th stream position is recomputed directly and compared.
const VERIFY_EVERY: usize = 64;
/// Fresh frames encoded per second of `serve-compute` window, several
/// times what the server manages (570 rps on the issue's reference box,
/// 1600 on the builder's); a window that runs out simply ends early.
const FRAMES_PER_SECOND: usize = 4096;
const MAX_RESPONSE: usize = 64 * 1024;

/// A socket whose reads and writes spin instead of sleeping (when
/// `spin`). The pipelined client must not sleep between responses: each
/// sleep is a wake-up the *server's* next write pays for, and how many a
/// batch incurs depends on how the two threads happen to interleave —
/// throughput swung 80 k–280 k rps between windows with a blocking
/// client. A spinning client keeps its core and the handler never wakes
/// it, so the window measures the server.
struct Socket {
    stream: TcpStream,
    spin: bool,
}

impl Socket {
    fn retry<T>(
        &mut self,
        mut op: impl FnMut(&mut TcpStream) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        loop {
            match op(&mut self.stream) {
                Err(e) if self.spin && e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Back off between polls: a tight loop contends with
                    // the peer's delivery for the socket lock.
                    (0..SPIN_PAUSES).for_each(|_| std::hint::spin_loop());
                }
                other => return other,
            }
        }
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.retry(|s| s.read(buf))
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.retry(|s| s.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub struct Conn {
    r: BufReader<Socket>,
    w: Socket,
}

impl Conn {
    /// A blocking connection: a depth-1 client waits milliseconds for
    /// each result and must leave the cores to the executors meanwhile.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        Conn::connect(addr, false)
    }

    fn connect(addr: SocketAddr, spin: bool) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Non-blocking is a property of the socket, shared by the clone.
        stream.set_nonblocking(spin)?;
        let read_half = stream.try_clone()?;
        Ok(Conn {
            r: BufReader::new(Socket {
                stream: read_half,
                spin,
            }),
            w: Socket { stream, spin },
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.w.write_all(bytes)
    }

    /// The next response's cycle bits; anything but a finite `ok` is an
    /// error naming what came back.
    pub fn recv(&mut self) -> Result<u64, String> {
        let (tag, payload) = frame::read_frame(&mut self.r, MAX_RESPONSE)
            .map_err(|e| e.to_string())?
            .ok_or("connection closed")?;
        match frame::decode_response(tag, &payload)? {
            Response::Ok { cycles, .. } if cycles.is_finite() => Ok(cycles.to_bits()),
            Response::Ok { cycles, .. } => Err(format!("non-finite cycles {cycles}")),
            Response::Shed { detail, .. } | Response::Error { detail, .. } => Err(detail),
            other => Err(format!("unexpected {} response", other.status())),
        }
    }

    pub fn exchange(&mut self, frame: &[u8]) -> Result<u64, String> {
        self.send(frame).map_err(|e| e.to_string())?;
        self.recv()
    }
}

fn counters(stats: &ServeStats) -> [u64; 9] {
    [
        &stats.received,
        &stats.ok,
        &stats.errors,
        &stats.shed,
        &stats.cache_hits,
        &stats.store_hits,
        &stats.executed,
        &stats.batches,
        &stats.coalesced,
    ]
    .map(|c| c.load(Ordering::Relaxed))
}

/// The setup phase is fixed-length, so its counter deltas are exact values
/// (all but `batches`: where one batch ends and the next begins depends
/// on timing).
fn record_setup_counts(stats: &ServeStats, before: [u64; 9], report: &mut ChildReport) {
    let after = counters(stats);
    for (i, name) in SERVER_COUNTERS.iter().enumerate() {
        if *name != "batches" {
            report.exact.insert(
                format!("setup.server.{name}"),
                (after[i] - before[i]).to_string(),
            );
        }
    }
}

/// Report the counter deltas since `since` as the timed phase's `server.*`
/// layer metrics; returns them by name, for checking the workload's claim.
fn report_timed_counts(
    stats: &ServeStats,
    since: [u64; 9],
    report: &mut ChildReport,
) -> impl Fn(&str) -> f64 {
    let now = counters(stats);
    let delta: Vec<f64> = (0..9).map(|i| (now[i] - since[i]) as f64).collect();
    for (i, name) in SERVER_COUNTERS.iter().enumerate() {
        report.layers.insert(format!("server.{name}"), delta[i]);
    }
    let get = move |name: &str| delta[SERVER_COUNTERS.iter().position(|n| *n == name).unwrap()];
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    report.layers.insert(
        "server.cache_hit_ratio".into(),
        ratio(get("cache_hits"), get("received")),
    );
    report.layers.insert(
        "server.jobs_per_batch".into(),
        ratio(get("executed"), get("batches")),
    );
    get
}

/// What one timed window measured.
struct Window {
    ok: usize,
    elapsed_s: f64,
    /// Round trips in ms: one request (depth 1) or one batch (pipelined).
    round_trips_ms: Vec<f64>,
}

impl Window {
    /// Record the window's end-to-end samples; returns its cost in seconds
    /// per request. `pass` is the request count `wall_s` is quoted for.
    fn sample(&self, report: &mut ChildReport, pass: usize) -> Result<f64, String> {
        if self.ok == 0 {
            return Err("no request completed in the window".into());
        }
        let rps = self.ok as f64 / self.elapsed_s;
        report.sample("throughput_rps", rps);
        report.sample("wall_s", pass as f64 / rps);
        let q = |q| stats::quantile(&self.round_trips_ms, q).expect("ok > 0");
        report.sample("latency_p50_ms", q(0.50));
        report.sample("latency_p99_ms", q(0.99));
        Ok(1.0 / rps)
    }
}

/// A client thread's view of its window.
struct Client {
    conn: Conn,
    start: Instant,
    round_trips_ms: Vec<f64>,
    tracer: Tracer,
}

impl Client {
    fn round_trip(&mut self, name: &str, t0: Instant) {
        let t1 = Instant::now();
        self.tracer.record(name, t0, t1);
        self.round_trips_ms.push((t1 - t0).as_secs_f64() * 1e3);
    }
}

/// Run `nconn` client threads against `addr`: each opens its connection,
/// all start together, each runs `body`. Returns what the bodies returned
/// and the window they spanned (first start to last stop; `ok` unset).
fn clients<T: Send>(
    addr: SocketAddr,
    nconn: usize,
    spin: bool,
    tracer: &mut Tracer,
    body: impl Fn(usize, &mut Client) -> Result<T, String> + Sync,
) -> Result<(Vec<T>, Window), String> {
    let barrier = Barrier::new(nconn);
    // The window is a span; each client's round trips are its children.
    tracer
        .span("window", |tracer| {
            let joined: Vec<Result<(T, Client, Instant), String>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..nconn)
                    .map(|c| {
                        let forked = tracer.fork();
                        let (barrier, body) = (&barrier, &body);
                        s.spawn(move || {
                            let conn = Conn::connect(addr, spin);
                            barrier.wait();
                            let mut client = Client {
                                conn: conn.map_err(|e| e.to_string())?,
                                start: Instant::now(),
                                round_trips_ms: Vec::new(),
                                tracer: forked,
                            };
                            let out = body(c, &mut client)?;
                            Ok((out, client, Instant::now()))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
                    .collect()
            });
            let window = tracer.current();
            let (mut outs, mut round_trips_ms) = (Vec::new(), Vec::new());
            let (mut first, mut last) = (None::<Instant>, None::<Instant>);
            for j in joined {
                let (out, client, stop) = j?;
                outs.push(out);
                round_trips_ms.extend(client.round_trips_ms);
                tracer.merge(client.tracer, window);
                first = Some(first.map_or(client.start, |t| t.min(client.start)));
                last = Some(last.map_or(stop, |t| t.max(stop)));
            }
            let elapsed_s = (last.expect("nconn >= 1") - first.expect("nconn >= 1")).as_secs_f64();
            Ok((
                outs,
                Window {
                    ok: 0,
                    elapsed_s,
                    round_trips_ms,
                },
            ))
        })
        .0
}

/// Split `total` into windows of about `each`; at least one.
fn split(total: Duration, each: Duration) -> (usize, Duration) {
    let n = (total.as_secs_f64() / each.as_secs_f64()).round().max(1.0) as usize;
    (n, total / n as u32)
}

/// Verify the sampled positions of a (position → bits) table against
/// direct `JobSpec::compute()`, and the first block against its golden.
fn verify(
    stream: Stream,
    workload: &str,
    results: &[Option<u64>],
    goldens: Option<&Goldens>,
    report: &mut ChildReport,
) {
    for (i, got) in results.iter().enumerate().step_by(VERIFY_EVERY) {
        let Some(got) = got else { continue };
        let spec = stream.spec(i as u64);
        let want = spec.compute().to_bits();
        report.ops += 1;
        if *got != want {
            report.fail(format!(
                "{}: served {got:#018x}, direct compute {want:#018x}",
                spec.key()
            ));
        }
    }
    let block = GOLDEN_BLOCK.min(results.len());
    let name = golden::responses_name(stream.seed, workload);
    match results[..block].iter().position(Option::is_none) {
        Some(i) => report.fail(format!("{name}: no result for stream position {i}")),
        None => {
            let keys: Vec<String> = (0..block).map(|i| stream.spec(i as u64).key()).collect();
            let digest = golden::pairs_digest(
                keys.iter()
                    .zip(&results[..block])
                    .map(|(k, bits)| (k.as_str(), bits.unwrap())),
            );
            report.ops += 1;
            if let Some(why) = goldens.and_then(|g| golden::mismatch(g, &name, &digest, false)) {
                report.fail(why);
            }
            report.exact.insert(format!("digest.{name}"), digest);
        }
    }
}

/// `serve-compute`: default server, `nconn` depth-1 connections, fresh
/// keys only.
pub struct Compute {
    server: Server,
    stream: Stream,
    frames: Vec<Vec<u8>>,
    results: Vec<Option<u64>>,
    next: usize,
    nconn: usize,
    /// The server's counters when the timed phase could start.
    at_ready: [u64; 9],
    pub ready: Instant,
}

/// Requests `wall_s` is quoted for on `serve-compute`.
const COMPUTE_PASS: usize = 1024;
/// … and on the pipelined workloads.
const PIPELINED_PASS: usize = 65_536;
/// Window lengths: long enough that a window's p99 has samples beyond it
/// (a depth-1 window holds ≥ 2000 requests, a pipelined one 500–900
/// batches). Each window is a fresh set of connections, and the reported
/// value is the median window, so a burst of machine noise costs one
/// window, not the run.
const COMPUTE_WINDOW: Duration = Duration::from_secs(2);
const PIPELINED_WINDOW: Duration = Duration::from_secs(1);
const PIPELINED_WARM_UP: Duration = Duration::from_millis(250);

impl Compute {
    /// Start the server, send one request per (kernel, graph) so the
    /// workload cache is full, and pre-encode the stream for `timed`
    /// seconds of requests.
    pub fn setup(
        seed: u64,
        nconn: usize,
        timed: Duration,
        report: &mut ChildReport,
    ) -> Result<Compute, String> {
        let server =
            Server::start("127.0.0.1:0", ServeOpts::default()).map_err(|e| e.to_string())?;
        let before = counters(server.stats());
        let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
        for line in keys::warmup_lines(COMPUTE_SCALE) {
            report.ops += 1;
            if let Err(e) = conn.exchange(&keys::frame_of(&line)) {
                report.fail(format!("warm-up {line}: {e}"));
            }
        }
        let stream = Stream {
            seed,
            scale: COMPUTE_SCALE,
        };
        let want = (timed.as_secs_f64() * FRAMES_PER_SECOND as f64) as usize;
        let n = want.clamp(2 * GOLDEN_BLOCK, keys::STRIDE as usize);
        let frames: Vec<Vec<u8>> = (0..n as u64)
            .map(|i| keys::frame_of(&stream.line(i)))
            .collect();
        record_setup_counts(server.stats(), before, report);
        Ok(Compute {
            at_ready: counters(server.stats()),
            server,
            stream,
            results: vec![None; frames.len()],
            frames,
            next: 0,
            nconn,
            ready: Instant::now(),
        })
    }

    /// `total` of timed windows; returns the median window's cost in
    /// seconds per request.
    pub fn timed(
        &mut self,
        total: Duration,
        tracer: &mut Tracer,
        report: &mut ChildReport,
    ) -> Result<f64, String> {
        let (n, each) = split(total, COMPUTE_WINDOW);
        let mut costs = Vec::new();
        for _ in 0..n {
            let w = self.run(Some(each), self.frames.len(), tracer, report)?;
            costs.push(w.sample(report, COMPUTE_PASS)?);
        }
        Ok(stats::median(&costs).expect("n >= 1"))
    }

    /// Depth-1 closed loop over stream positions `next..end`, each
    /// connection claiming the next unsent one, until `window` is up (or
    /// `end`): when the threads stop, every position below `next` is done.
    fn run(
        &mut self,
        window: Option<Duration>,
        end: usize,
        tracer: &mut Tracer,
        report: &mut ChildReport,
    ) -> Result<Window, String> {
        let frames = &self.frames;
        let cursor = AtomicUsize::new(self.next);
        let (outs, mut w) = clients(self.server.addr, self.nconn, false, tracer, |_, client| {
            let mut got = Vec::new();
            while window.is_none_or(|w| client.start.elapsed() < w) {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= end {
                    break;
                }
                let t0 = Instant::now();
                got.push((i, client.conn.exchange(&frames[i])));
                client.round_trip("request", t0);
            }
            Ok(got)
        })?;
        self.next = cursor.into_inner().min(end);
        for (i, r) in outs.into_iter().flatten() {
            report.ops += 1;
            match r {
                Ok(bits) => {
                    w.ok += 1;
                    self.results[i] = Some(bits);
                }
                Err(e) => report.fail(format!("{}: {e}", self.stream.spec(i as u64).key())),
            }
        }
        Ok(w)
    }

    /// Report the timed phase's counters, finish the golden block untimed
    /// if the windows did not reach its end, verify, and shut down.
    pub fn finish(
        mut self,
        goldens: Option<&Goldens>,
        report: &mut ChildReport,
    ) -> Result<(), String> {
        let timed = report_timed_counts(self.server.stats(), self.at_ready, report);
        // The claim: nothing was answered from a cache.
        if timed("cache_hits") + timed("store_hits") > 0.01 * timed("received") {
            report.fail(format!(
                "serve-compute answered {} of {} requests from a cache",
                timed("cache_hits") + timed("store_hits"),
                timed("received")
            ));
        }
        if self.next < GOLDEN_BLOCK {
            self.run(None, GOLDEN_BLOCK, &mut Tracer::new("", false), report)?;
        }
        verify(self.stream, "serve-compute", &self.results, goldens, report);
        self.server.shutdown();
        Ok(())
    }
}

/// `serve-hot` and `serve-store-warm`: a fixed key set, cycled in
/// pipelined batches; every response is compared with the key's result
/// from setup.
pub struct Pipelined {
    server: Server,
    workload: &'static str,
    stream: Stream,
    keys: KeySet,
    /// Where in the cycle the next window starts: a window resumes where
    /// the last one stopped, so the keys it asks for first are the ones
    /// longest out of the LRU.
    next_batch: usize,
    nconn: usize,
    /// The server's counters when the timed phase could start.
    at_ready: [u64; 9],
    store_file: Option<PathBuf>,
    pub ready: Instant,
}

/// The keys a pipelined workload cycles, as setup left them.
struct KeySet {
    /// What each key's one request in setup answered (`None`: it failed,
    /// and was counted).
    expected: Vec<Option<u64>>,
    /// `DEPTH` frames concatenated, and the bits each should answer;
    /// enough whole batches to return to key 0.
    batches: Vec<(Vec<u8>, Vec<u64>)>,
}

impl Pipelined {
    /// `serve-hot`: populate `HOT_KEYS` keys; all stay LRU-resident.
    pub fn setup_hot(
        seed: u64,
        nproc: usize,
        report: &mut ChildReport,
    ) -> Result<Pipelined, String> {
        let server =
            Server::start("127.0.0.1:0", ServeOpts::default()).map_err(|e| e.to_string())?;
        let before = counters(server.stats());
        let stream = Stream {
            seed,
            scale: CACHED_SCALE,
        };
        let keys = populate(&server, stream, HOT_KEYS, 1, report)?;
        record_setup_counts(server.stats(), before, report);
        Pipelined::warm_up(server, "serve-hot", stream, keys, nproc, None, report)
    }

    /// `serve-store-warm`: populate `STORE_KEYS` keys on a store-backed
    /// server, shut it down (persist), and reopen the file under a new
    /// server, whose LRUs are empty.
    pub fn setup_store_warm(
        seed: u64,
        nproc: usize,
        store_file: &Path,
        report: &mut ChildReport,
    ) -> Result<Pipelined, String> {
        let _ = std::fs::remove_file(store_file);
        let opts = ServeOpts {
            store_path: Some(store_file.to_path_buf()),
            ..ServeOpts::default()
        };
        let first = Server::start("127.0.0.1:0", opts.clone()).map_err(|e| e.to_string())?;
        let before = counters(first.stats());
        let stream = Stream {
            seed,
            scale: CACHED_SCALE,
        };
        let keys = populate(&first, stream, STORE_KEYS, nproc, report)?;
        record_setup_counts(first.stats(), before, report);
        first.shutdown();
        let server = Server::start("127.0.0.1:0", opts).map_err(|e| e.to_string())?;
        let file = Some(store_file.to_path_buf());
        Pipelined::warm_up(
            server,
            "serve-store-warm",
            stream,
            keys,
            nproc,
            file,
            report,
        )
    }

    /// Last step of setup: one short untimed window. The server's first
    /// second is slower (threads placed, allocator arenas grown, the LRU
    /// filling), and that is setup, not the steady state the windows
    /// measure.
    fn warm_up(
        server: Server,
        workload: &'static str,
        stream: Stream,
        keys: KeySet,
        nproc: usize,
        store_file: Option<PathBuf>,
        report: &mut ChildReport,
    ) -> Result<Pipelined, String> {
        let mut p = Pipelined {
            at_ready: counters(server.stats()),
            server,
            workload,
            stream,
            keys,
            next_batch: 0,
            // One client thread and one handler thread per connection.
            nconn: (nproc / 2).max(1),
            store_file,
            ready: Instant::now(),
        };
        let mut own = ChildReport::default();
        p.window(PIPELINED_WARM_UP, &mut Tracer::new("", false), &mut own)?;
        report.absorb_ops(own);
        p.at_ready = counters(p.server.stats());
        p.ready = Instant::now();
        Ok(p)
    }

    /// `total` of timed windows; returns the median window's cost in
    /// seconds per request.
    pub fn timed(
        &mut self,
        total: Duration,
        tracer: &mut Tracer,
        report: &mut ChildReport,
    ) -> Result<f64, String> {
        let (n, each) = split(total, PIPELINED_WINDOW);
        let mut costs = Vec::new();
        for _ in 0..n {
            costs.push(self.window(each, tracer, report)?);
        }
        Ok(stats::median(&costs).expect("n >= 1"))
    }

    fn window(
        &mut self,
        window: Duration,
        tracer: &mut Tracer,
        report: &mut ChildReport,
    ) -> Result<f64, String> {
        let (nconn, batches, first) = (self.nconn, &self.keys.batches, self.next_batch);
        let (outs, mut w) = clients(self.server.addr, nconn, true, tracer, |c, client| {
            let (mut ok, mut bad, mut written) = (0, Vec::new(), 0);
            // Connections run evenly spaced round the cycle.
            let mut b = (first + c * batches.len() / nconn) % batches.len();
            // Two writes in flight: the handler always has its next batch
            // waiting, so the window measures the server, not how often
            // it had to wait for the client.
            let mut sent = std::collections::VecDeque::new();
            loop {
                let open = client.start.elapsed() < window;
                if open {
                    client.conn.send(&batches[b].0).map_err(|e| e.to_string())?;
                    sent.push_back((b, Instant::now()));
                    b = (b + 1) % batches.len();
                    written += 1;
                    if sent.len() < IN_FLIGHT {
                        continue;
                    }
                }
                let Some((b, t0)) = sent.pop_front() else {
                    break;
                };
                for (j, want) in batches[b].1.iter().enumerate() {
                    match client.conn.recv() {
                        Ok(bits) if bits == *want => ok += 1,
                        Ok(bits) => bad.push(format!(
                            "batch {b} frame {j}: {bits:#018x}, setup saw {want:#018x}"
                        )),
                        Err(e) => bad.push(format!("batch {b} frame {j}: {e}")),
                    }
                }
                client.round_trip("batch", t0);
            }
            Ok((ok, bad, written))
        })?;
        for (ok, bad, written) in outs {
            report.ops += (ok + bad.len()) as u64;
            w.ok += ok;
            bad.into_iter().for_each(|why| report.fail(why));
            self.next_batch = self.next_batch.max(first + written);
        }
        self.next_batch %= self.keys.batches.len();
        w.sample(report, PIPELINED_PASS)
    }

    pub fn finish(self, goldens: Option<&Goldens>, report: &mut ChildReport) {
        let timed = report_timed_counts(self.server.stats(), self.at_ready, report);
        let claim_holds = match self.workload {
            // Every request an LRU hit.
            "serve-hot" => timed("cache_hits") >= 0.99 * timed("received"),
            // Every request an LRU miss answered by the store; none ran.
            _ => timed("store_hits") == timed("received") && timed("executed") == 0.0,
        };
        if !claim_holds {
            report.fail(format!(
                "{}: received {}, cache_hits {}, store_hits {}, executed {}",
                self.workload,
                timed("received"),
                timed("cache_hits"),
                timed("store_hits"),
                timed("executed")
            ));
        }
        verify(
            self.stream,
            self.workload,
            &self.keys.expected,
            goldens,
            report,
        );
        self.server.shutdown();
        if let Some(f) = self.store_file {
            let _ = std::fs::remove_file(f);
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Send the first `n` stream keys once each at depth 1 over `nconn`
/// connections, and batch their frames for the pipelined windows.
fn populate(
    server: &Server,
    stream: Stream,
    n: usize,
    nconn: usize,
    report: &mut ChildReport,
) -> Result<KeySet, String> {
    let frames: Vec<Vec<u8>> = (0..n as u64)
        .map(|i| keys::frame_of(&stream.line(i)))
        .collect();
    let (parts, _) = clients(
        server.addr,
        nconn,
        false,
        &mut Tracer::new("", false),
        |c, client| {
            Ok((c..n)
                .step_by(nconn)
                .map(|i| (i, client.conn.exchange(&frames[i])))
                .collect::<Vec<_>>())
        },
    )?;
    let mut expected = vec![None; n];
    for (i, r) in parts.into_iter().flatten() {
        report.ops += 1;
        match r {
            Ok(bits) => expected[i] = Some(bits),
            Err(e) => report.fail(format!("{}: {e}", stream.spec(i as u64).key())),
        }
    }
    // Whole batches that return to key 0: lcm(n, DEPTH) / DEPTH of them.
    let batches = (0..n / gcd(n, DEPTH))
        .map(|b| {
            let ks = (0..DEPTH).map(|j| (b * DEPTH + j) % n);
            let bytes = ks.clone().flat_map(|k| frames[k].iter().copied()).collect();
            // A key whose request failed is already a failed op; 0 keeps
            // the batch aligned.
            (bytes, ks.map(|k| expected[k].unwrap_or(0)).collect())
        })
        .collect();
    Ok(KeySet { expected, batches })
}
