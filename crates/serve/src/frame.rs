//! The binary wire format: length-prefixed, schema-versioned frames.
//!
//! Every frame is a fixed 10-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic   b"MICB"
//!      4     1  version WIRE_VERSION (a peer rejects versions it does
//!                       not understand, like the JSON schema_version)
//!      5     4  len     payload length, u32 little-endian, capped by the
//!                       receiver's configured max request size
//!      9     1  op tag  which request/response the payload encodes
//!     10   len  payload fixed field order, little-endian scalars,
//!                       u32-length-prefixed UTF-8 strings
//! ```
//!
//! The first byte a client sends selects the connection's wire mode: the
//! magic's `M` means binary framing for the rest of the connection,
//! anything else (in practice `{`) falls back to the newline-JSON compat
//! mode ([`crate::protocol`]) — so every pre-existing client and test
//! keeps working, and `serve client --json` keeps the debug mode
//! exercised. `cycles` travels as raw IEEE-754 bits ([`f64::to_bits`]),
//! so binary responses are bit-identical to JSON ones by construction
//! (the JSON path round-trips bits through the decimal renderer; the
//! torture tests pin both).
//!
//! Decoding is total: a malformed header or payload is a structured
//! [`FrameError`], never a panic or an unbounded read — the server
//! answers a final `error` frame and drops the connection, counting the
//! failure under `mic_serve_frame_errors_total{kind}`.

use crate::protocol::{checked_threads, JobSpec, Kernel, Request, Response, SimMeta};
use mic_eval::graph::suite::{num_vertices, PaperGraph, Scale};
use mic_eval::obs::TraceCtx;
use mic_eval::sim::Policy;
use mic_eval::workload_cache::OrderTag;
use std::io::{BufRead, IoSlice, Read, Write};

/// Frame magic; the first byte doubles as the wire-mode sniff.
pub const MAGIC: [u8; 4] = *b"MICB";
/// Binary schema version, bumped on any layout change.
pub const WIRE_VERSION: u8 = 1;
/// Header bytes before the payload: magic + version + len + op tag.
pub const HEADER_LEN: usize = 10;

// Op tags. Requests have the high bit clear, responses set.
pub const TAG_SIMULATE: u8 = 0x01;
pub const TAG_PING: u8 = 0x02;
pub(crate) const TAG_STATS: u8 = 0x03;
pub(crate) const TAG_TRACE: u8 = 0x04;
pub(crate) const TAG_OK: u8 = 0x81;
pub(crate) const TAG_PONG: u8 = 0x82;
pub(crate) const TAG_STATS_RESP: u8 = 0x83;
pub(crate) const TAG_SHED: u8 = 0x84;
pub(crate) const TAG_ERROR: u8 = 0x85;
pub(crate) const TAG_TRACE_RESP: u8 = 0x86;

/// Everything that can go wrong between the socket and a decoded frame.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure under the codec.
    Io(std::io::Error),
    /// The four magic bytes were something else (first byte shown).
    BadMagic(u8),
    /// The peer speaks a binary schema this build does not.
    UnsupportedVersion(u8),
    /// Declared payload length exceeds the configured request cap.
    TooLarge { len: usize, max: usize },
    /// The stream ended mid-header or mid-payload.
    Truncated,
}

impl FrameError {
    /// Label for `mic_serve_frame_errors_total{kind}`.
    pub fn kind(&self) -> &'static str {
        match self {
            FrameError::Io(_) => "io",
            FrameError::BadMagic(_) => "magic",
            FrameError::UnsupportedVersion(_) => "version",
            FrameError::TooLarge { .. } => "oversize",
            FrameError::Truncated => "truncated",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
            FrameError::BadMagic(b) => {
                write!(
                    f,
                    "bad frame magic (first byte {b:#04x}, want {:#04x})",
                    MAGIC[0]
                )
            }
            FrameError::UnsupportedVersion(v) => write!(
                f,
                "unsupported wire version {v}: this build understands version {WIRE_VERSION}"
            ),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte request cap")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
        }
    }
}

/// Write one frame, header and payload in one vectored write: a raw
/// `TCP_NODELAY` socket sends it as one segment (one syscall per frame,
/// not one per part), a buffered writer appends both parts to its buffer.
/// Nothing is allocated.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> std::io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = WIRE_VERSION;
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[9] = tag;
    let sent = match w.write_vectored(&[IoSlice::new(&header), IoSlice::new(payload)]) {
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
        other => other?,
    };
    // A short (or interrupted) write is finished part by part.
    w.write_all(&header[sent.min(HEADER_LEN)..])?;
    w.write_all(&payload[sent.saturating_sub(HEADER_LEN)..])
}

/// Read one frame. `Ok(None)` is a clean EOF (connection closed between
/// frames); an EOF anywhere inside a frame is [`FrameError::Truncated`].
/// The declared payload length is validated against `max` *before* any
/// allocation, so a hostile header cannot balloon memory.
pub fn read_frame(r: &mut impl BufRead, max: usize) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, max, &mut payload)?.map(|tag| (tag, payload)))
}

/// [`read_frame`] into a caller-owned payload buffer, returning the op
/// tag: a connection handler reuses one buffer for every frame it reads.
pub(crate) fn read_frame_into(
    r: &mut impl BufRead,
    max: usize,
    payload: &mut Vec<u8>,
) -> Result<Option<u8>, FrameError> {
    match r.fill_buf() {
        Ok([]) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    let mut header = [0u8; HEADER_LEN];
    read_exact_framed(r, &mut header)?;
    if header[..4] != MAGIC {
        return Err(FrameError::BadMagic(header[0]));
    }
    if header[4] != WIRE_VERSION {
        return Err(FrameError::UnsupportedVersion(header[4]));
    }
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    payload.clear();
    payload.resize(len, 0);
    read_exact_framed(r, payload)?;
    Ok(Some(header[9]))
}

fn read_exact_framed(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })
}

/// One line read with a hard byte cap — the fix for the unbounded
/// `BufReader::lines()` read: a client streaming an endless line without
/// `\n` now hits [`LineRead::Overflow`] at `max` bytes instead of growing
/// the buffer without bound.
pub(crate) enum LineRead {
    Line(String),
    Eof,
    /// The line passed `max` bytes before any `\n`; the caller answers an
    /// error and drops the connection (the rest of the line is garbage).
    Overflow,
}

pub(crate) fn read_line_capped(r: &mut impl BufRead, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        match chunk.iter().position(|b| *b == b'\n') {
            Some(nl) => {
                if buf.len() + nl > max {
                    return Ok(LineRead::Overflow);
                }
                buf.extend_from_slice(&chunk[..nl]);
                r.consume(nl + 1);
                return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            None => {
                let take = chunk.len();
                if buf.len() + take > max {
                    return Ok(LineRead::Overflow);
                }
                buf.extend_from_slice(chunk);
                r.consume(take);
            }
        }
    }
}

// ---- payload encoding -------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Bounds-checked payload reader; every getter fails soft with a message
/// naming the missing field, so a truncated payload is a protocol error,
/// not a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "payload truncated reading {what} (need {n} bytes at offset {}, have {})",
                self.pos,
                self.buf.len() - self.pos,
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &str) -> Result<String, String> {
        self.str_ref(what).map(str::to_owned)
    }

    /// A string field borrowed from the payload, for fields that are
    /// matched rather than kept.
    fn str_ref(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.u32(what)? as usize;
        let b = self.take(len, what)?;
        std::str::from_utf8(b).map_err(|_| format!("{what} is not valid UTF-8"))
    }

    fn u128(&mut self, what: &str) -> Result<u128, String> {
        let b = self.take(16, what)?;
        Ok(u128::from_le_bytes(b.try_into().unwrap()))
    }

    /// Bytes left after the fixed fields — how optional trailing blocks
    /// (the trace context) detect their presence.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn done(&self, what: &str) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after {what} payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

// Policy tags: tag byte + one u64 parameter (0 when the variant has none).
fn policy_parts(p: &Policy) -> (u8, u64) {
    match p {
        Policy::OmpStatic { chunk } => (0, chunk.unwrap_or(0) as u64),
        Policy::OmpDynamic { chunk } => (1, *chunk as u64),
        Policy::OmpGuided { min_chunk } => (2, *min_chunk as u64),
        Policy::Cilk { grain } => (3, *grain as u64),
        Policy::TbbSimple { grain } => (4, *grain as u64),
        Policy::TbbAuto => (5, 0),
        Policy::TbbAffinity => (6, 0),
        Policy::Serial => (7, 0),
    }
}

fn policy_from_parts(tag: u8, param: u64) -> Result<Policy, String> {
    let n = param as usize;
    Ok(match tag {
        0 => Policy::OmpStatic {
            chunk: (n > 0).then_some(n),
        },
        1 => Policy::OmpDynamic { chunk: n.max(1) },
        2 => Policy::OmpGuided {
            min_chunk: n.max(1),
        },
        3 => Policy::Cilk { grain: n.max(1) },
        4 => Policy::TbbSimple { grain: n.max(1) },
        5 => Policy::TbbAuto,
        6 => Policy::TbbAffinity,
        7 => Policy::Serial,
        other => return Err(format!("unknown policy tag {other}")),
    })
}

/// Encode a request as `(op tag, payload)`.
pub fn encode_request(req: &Request) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    match req {
        Request::Ping { id } => {
            put_str(&mut buf, id);
            (TAG_PING, buf)
        }
        Request::Stats { id } => {
            put_str(&mut buf, id);
            (TAG_STATS, buf)
        }
        Request::Trace { id, trace } => {
            put_str(&mut buf, id);
            put_u128(&mut buf, *trace);
            (TAG_TRACE, buf)
        }
        Request::Simulate { id, spec, ctx } => {
            put_str(&mut buf, id);
            buf.push(match spec.kernel {
                Kernel::Coloring => 0,
                Kernel::Irregular => 1,
                Kernel::Bfs => 2,
                Kernel::PageRank => 3,
                Kernel::Components => 4,
                Kernel::HybridBfs => 5,
            });
            put_str(&mut buf, spec.graph.name());
            match spec.order {
                OrderTag::Natural => buf.push(0),
                OrderTag::Random { seed } => {
                    buf.push(1);
                    put_u64(&mut buf, seed);
                }
                OrderTag::CuthillMcKee { source } => {
                    buf.push(2);
                    put_u64(&mut buf, source as u64);
                }
            }
            let (ptag, param) = policy_parts(&spec.policy);
            buf.push(ptag);
            put_u64(&mut buf, param);
            put_u64(&mut buf, spec.threads as u64);
            let (stag, sval) = match spec.scale {
                Scale::Full => (0u8, 0u64),
                Scale::Fraction(k) => (1, k as u64),
                Scale::Vertices(n) => (2, n as u64),
            };
            buf.push(stag);
            put_u64(&mut buf, sval);
            put_u64(&mut buf, spec.iter as u64);
            put_u64(&mut buf, spec.delay_ms);
            // Optional trailing trace block: 16-byte trace id + 8-byte
            // parent span. Absent for untraced requests, so the untraced
            // encoding is byte-identical to pre-tracing builds.
            if let Some(ctx) = ctx {
                put_u128(&mut buf, ctx.trace);
                put_u64(&mut buf, ctx.parent);
            }
            (TAG_SIMULATE, buf)
        }
    }
}

/// Decode a request payload. Errors carry the request id when it decoded
/// (so the error response still correlates), mirroring the JSON parser;
/// field validation (thread/iter clamps, graph lookup) is identical to
/// the JSON path, so the two modes admit the same job universe.
pub fn decode_request(tag: u8, payload: &[u8]) -> Result<Request, (String, String)> {
    let mut c = Cursor::new(payload);
    let id = c.str("id").map_err(|e| (String::new(), e))?;
    let fail = |msg: String| (id.clone(), msg);
    match tag {
        TAG_PING => {
            c.done("ping").map_err(&fail)?;
            return Ok(Request::Ping { id });
        }
        TAG_STATS => {
            c.done("stats").map_err(&fail)?;
            return Ok(Request::Stats { id });
        }
        TAG_TRACE => {
            let trace = c.u128("trace id").map_err(&fail)?;
            c.done("trace").map_err(&fail)?;
            if trace == 0 {
                return Err(fail("trace id must be nonzero".to_string()));
            }
            return Ok(Request::Trace { id, trace });
        }
        TAG_SIMULATE => {}
        other => return Err(fail(format!("unknown request op tag {other:#04x}"))),
    }
    let kernel = match c.u8("kernel").map_err(&fail)? {
        0 => Kernel::Coloring,
        1 => Kernel::Irregular,
        2 => Kernel::Bfs,
        3 => Kernel::PageRank,
        4 => Kernel::Components,
        5 => Kernel::HybridBfs,
        k => return Err(fail(format!("unknown kernel tag {k}"))),
    };
    let graph_name = c.str_ref("graph").map_err(&fail)?;
    let graph = PaperGraph::every()
        .into_iter()
        .find(|g| g.name() == graph_name)
        .ok_or_else(|| fail(format!("unknown graph {graph_name:?}")))?;
    let order = match c.u8("order").map_err(&fail)? {
        0 => OrderTag::Natural,
        1 => OrderTag::Random {
            seed: c.u64("seed").map_err(&fail)?,
        },
        2 => {
            let raw = c.u64("cm source").map_err(&fail)?;
            let source = u32::try_from(raw)
                .map_err(|_| fail(format!("cm source must be at most {}, got {raw}", u32::MAX)))?;
            OrderTag::CuthillMcKee { source }
        }
        o => return Err(fail(format!("unknown order tag {o}"))),
    };
    let ptag = c.u8("policy").map_err(&fail)?;
    let param = c.u64("policy param").map_err(&fail)?;
    let policy = policy_from_parts(ptag, param).map_err(&fail)?;
    let threads = checked_threads(c.u64("threads").map_err(&fail)?).map_err(&fail)?;
    let stag = c.u8("scale tag").map_err(&fail)?;
    let sval = c.u64("scale").map_err(&fail)?;
    let scale = match (stag, sval) {
        (0, _) => Scale::Full,
        (1, k) if k <= 1 => Scale::Full,
        (1, k) => Scale::Fraction(k.min(u32::MAX as u64) as u32),
        (2, n) => Scale::Vertices((n as usize).max(1)),
        (t, _) => return Err(fail(format!("unknown scale tag {t}"))),
    };
    // `cuthill_mckee` asserts on a source outside the graph: refused here,
    // like `threads`, so a client gets an `error`, not a panicked job.
    if let OrderTag::CuthillMcKee { source } = order {
        let n = num_vertices(graph, scale);
        if source as usize >= n {
            return Err(fail(format!(
                "cm source must be below {n} (|V|), got {source}"
            )));
        }
    }
    let iter = (c.u64("iter").map_err(&fail)? as usize).clamp(1, 100);
    let delay_ms = c.u64("delay_ms").map_err(&fail)?.min(60_000);
    // Optional trailing trace block, present iff bytes remain. A zero
    // trace id means "absent" (a traced peer never sends one — minting
    // rejects zero).
    let ctx = if c.remaining() > 0 {
        let trace = c.u128("trace id").map_err(&fail)?;
        let parent = c.u64("parent span").map_err(&fail)?;
        (trace != 0).then_some(TraceCtx { trace, parent })
    } else {
        None
    };
    c.done("simulate").map_err(&fail)?;
    Ok(Request::Simulate {
        id,
        spec: JobSpec {
            kernel,
            graph,
            order,
            policy,
            threads,
            scale,
            iter,
            delay_ms,
        },
        ctx,
    })
}

/// Encode a response as `(op tag, payload)`.
pub fn encode_response(resp: &Response) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    (encode_response_into(resp, &mut buf), buf)
}

/// Encode a response's payload into `buf`, replacing its contents, and
/// return the op tag: a connection reuses one buffer for every response.
/// `cycles` and `queue_ms` travel as raw bits, so the binary path is
/// bit-exact with no decimal round-trip at all.
pub fn encode_response_into(resp: &Response, buf: &mut Vec<u8>) -> u8 {
    buf.clear();
    match resp {
        Response::Ok { id, cycles, meta } => {
            put_str(buf, id);
            put_f64(buf, *cycles);
            put_u64(buf, meta.batch as u64);
            buf.push((meta.coalesced as u8) | ((meta.cached as u8) << 1));
            put_f64(buf, meta.queue_ms);
            // Optional trailing trace echo, mirroring the request block:
            // untraced responses stay byte-identical to older builds.
            if meta.trace != 0 {
                put_u128(buf, meta.trace);
                put_u64(buf, meta.root_span);
            }
            TAG_OK
        }
        Response::Pong { id } => {
            put_str(buf, id);
            TAG_PONG
        }
        Response::Stats { id, fields, build } => {
            put_str(buf, id);
            buf.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for (k, v) in fields {
                put_str(buf, k);
                put_f64(buf, *v);
            }
            put_str(buf, build);
            TAG_STATS_RESP
        }
        Response::Trace { id, fields } => {
            put_str(buf, id);
            buf.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for (k, v) in fields {
                put_str(buf, k);
                put_f64(buf, *v);
            }
            TAG_TRACE_RESP
        }
        Response::Shed { id, detail } => {
            put_str(buf, id);
            put_str(buf, detail);
            TAG_SHED
        }
        Response::Error { id, detail } => {
            put_str(buf, id);
            put_str(buf, detail);
            TAG_ERROR
        }
    }
}

/// Decode a response payload (the client side).
pub fn decode_response(tag: u8, payload: &[u8]) -> Result<Response, String> {
    let mut c = Cursor::new(payload);
    let id = c.str("id")?;
    match tag {
        TAG_OK => {
            let cycles = c.f64("cycles")?;
            let batch = c.u64("batch")? as usize;
            let flags = c.u8("flags")?;
            let queue_ms = c.f64("queue_ms")?;
            let (trace, root_span) = if c.remaining() > 0 {
                (c.u128("trace id")?, c.u64("root span")?)
            } else {
                (0, 0)
            };
            c.done("ok")?;
            Ok(Response::Ok {
                id,
                cycles,
                meta: SimMeta {
                    batch,
                    coalesced: flags & 1 != 0,
                    cached: flags & 2 != 0,
                    queue_ms,
                    trace,
                    root_span,
                },
            })
        }
        TAG_PONG => {
            c.done("pong")?;
            Ok(Response::Pong { id })
        }
        TAG_STATS_RESP => {
            let n = c.u32("field count")? as usize;
            if n > payload.len() {
                return Err(format!("stats field count {n} exceeds payload"));
            }
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let k = c.str("stats field name")?;
                let v = c.f64("stats field value")?;
                fields.push((k, v));
            }
            let build = if c.remaining() > 0 {
                c.str("build stamp")?
            } else {
                String::new()
            };
            c.done("stats")?;
            Ok(Response::Stats { id, fields, build })
        }
        TAG_TRACE_RESP => {
            let n = c.u32("field count")? as usize;
            if n > payload.len() {
                return Err(format!("trace field count {n} exceeds payload"));
            }
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let k = c.str("trace field name")?;
                let v = c.f64("trace field value")?;
                fields.push((k, v));
            }
            c.done("trace")?;
            Ok(Response::Trace { id, fields })
        }
        TAG_SHED => {
            let detail = c.str("detail")?;
            c.done("shed")?;
            Ok(Response::Shed { id, detail })
        }
        TAG_ERROR => {
            let detail = c.str("detail")?;
            c.done("error")?;
            Ok(Response::Error { id, detail })
        }
        other => Err(format!("unknown response op tag {other:#04x}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use std::io::BufReader;

    fn sim_request(line: &str) -> Request {
        parse_request(line).expect("test request parses")
    }

    #[test]
    fn request_round_trips_through_frames() {
        let lines = [
            r#"{"id":"a","kernel":"coloring","graph":"pwtk","order":"random","seed":9,"runtime":"tbb","sched":"simple","grain":40,"threads":61,"scale":128,"iter":2}"#,
            r#"{"id":"b","kernel":"bfs","runtime":"cilk","grain":100,"threads":31,"scale":1}"#,
            r#"{"id":"e","kernel":"pagerank","graph":"rmat-ef16","threads":61,"scale":64}"#,
            r#"{"id":"f","kernel":"components","graph":"rmat-ef8","threads":31,"scale":64}"#,
            r#"{"id":"g","kernel":"hybrid-bfs","graph":"rmat-ef16","threads":121,"scale":64}"#,
            r#"{"id":"c","op":"ping"}"#,
            r#"{"id":"d","op":"stats"}"#,
        ];
        for line in lines {
            let req = sim_request(line);
            let (tag, payload) = encode_request(&req);
            let back = decode_request(tag, &payload).expect("decodes");
            match (&req, &back) {
                (
                    Request::Simulate { id, spec, .. },
                    Request::Simulate {
                        id: id2,
                        spec: spec2,
                        ..
                    },
                ) => {
                    assert_eq!(id, id2);
                    assert_eq!(spec, spec2);
                    assert_eq!(spec.key(), spec2.key());
                }
                (Request::Ping { id }, Request::Ping { id: id2 })
                | (Request::Stats { id }, Request::Stats { id: id2 }) => assert_eq!(id, id2),
                other => panic!("variant changed in transit: {other:?}"),
            }
        }
    }

    #[test]
    fn response_round_trips_bit_exactly() {
        for bits in [
            0x3ff0000000000001u64,
            0x7fe1234567abcdef,
            0x0000000000000001,
        ] {
            let resp = Response::Ok {
                id: "r".into(),
                cycles: f64::from_bits(bits),
                meta: SimMeta::untraced(5, true, false, 0.125),
            };
            let (tag, payload) = encode_response(&resp);
            let Response::Ok { cycles, meta, .. } = decode_response(tag, &payload).unwrap() else {
                panic!("expected ok");
            };
            assert_eq!(cycles.to_bits(), bits);
            assert!(meta.coalesced && !meta.cached);
            assert_eq!(meta.batch, 5);
        }
    }

    #[test]
    fn trace_context_rides_the_binary_wire() {
        let t = mic_eval::obs::mint_trace_id();
        // Request: the trailing block survives the round trip.
        let mut req = sim_request(r#"{"id":"a","kernel":"bfs","threads":31}"#);
        let Request::Simulate { ctx, .. } = &mut req else {
            panic!("expected simulate");
        };
        *ctx = Some(TraceCtx {
            trace: t,
            parent: 99,
        });
        let (tag, payload) = encode_request(&req);
        let Request::Simulate { ctx, spec, .. } = decode_request(tag, &payload).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(
            ctx,
            Some(TraceCtx {
                trace: t,
                parent: 99
            })
        );
        assert_eq!(spec.threads, 31);
        // Without a context the payload is identical to the pre-tracing
        // layout (no trailing bytes at all).
        let bare = sim_request(r#"{"id":"a","kernel":"bfs","threads":31}"#);
        let (_, bare_payload) = encode_request(&bare);
        assert_eq!(payload.len(), bare_payload.len() + 24);
        let Request::Simulate { ctx, .. } = decode_request(tag, &bare_payload).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(ctx, None);
        // Response: the Ok echo round-trips too.
        let mut meta = SimMeta::untraced(2, false, true, 1.5);
        meta.trace = t;
        meta.root_span = 1234;
        let (rtag, rpayload) = encode_response(&Response::Ok {
            id: "a".into(),
            cycles: 7.0,
            meta,
        });
        let Response::Ok { meta: back, .. } = decode_response(rtag, &rpayload).unwrap() else {
            panic!("expected ok");
        };
        assert_eq!(back.trace, t);
        assert_eq!(back.root_span, 1234);
    }

    #[test]
    fn trace_op_round_trips_in_frames() {
        let t = mic_eval::obs::mint_trace_id();
        let (tag, payload) = encode_request(&Request::Trace {
            id: "q".into(),
            trace: t,
        });
        assert_eq!(tag, TAG_TRACE);
        let Request::Trace { id, trace } = decode_request(tag, &payload).unwrap() else {
            panic!("expected trace request");
        };
        assert_eq!(id, "q");
        assert_eq!(trace, t);
        let resp = Response::Trace {
            id: "q".into(),
            fields: vec![("spans".into(), 3.0), ("queue_wait_us".into(), 41.5)],
        };
        let (rtag, rpayload) = encode_response(&resp);
        assert_eq!(rtag, TAG_TRACE_RESP);
        let Response::Trace { fields, .. } = decode_response(rtag, &rpayload).unwrap() else {
            panic!("expected trace response");
        };
        assert_eq!(
            fields,
            vec![("spans".into(), 3.0), ("queue_wait_us".into(), 41.5)]
        );
    }

    #[test]
    fn stats_build_stamp_rides_the_binary_wire() {
        let resp = Response::Stats {
            id: "s".into(),
            fields: vec![("ok".into(), 9.0)],
            build: "0.1.0+cafecafecafe".into(),
        };
        let (tag, payload) = encode_response(&resp);
        let Response::Stats { fields, build, .. } = decode_response(tag, &payload).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(fields, vec![("ok".into(), 9.0)]);
        assert_eq!(build, "0.1.0+cafecafecafe");
    }

    #[test]
    fn frame_header_layout_is_pinned() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_PING, b"xyz").unwrap();
        assert_eq!(&wire[..4], b"MICB");
        assert_eq!(wire[4], WIRE_VERSION);
        assert_eq!(u32::from_le_bytes(wire[5..9].try_into().unwrap()), 3);
        assert_eq!(wire[9], TAG_PING);
        assert_eq!(&wire[10..], b"xyz");
    }

    #[test]
    fn oversize_header_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_PING, &[0u8; 100]).unwrap();
        let mut r = BufReader::new(&wire[..]);
        match read_frame(&mut r, 64) {
            Err(FrameError::TooLarge { len: 100, max: 64 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn unknown_wire_version_is_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_PING, b"").unwrap();
        wire[4] = WIRE_VERSION + 1;
        let mut r = BufReader::new(&wire[..]);
        match read_frame(&mut r, 1 << 16) {
            Err(FrameError::UnsupportedVersion(v)) => assert_eq!(v, WIRE_VERSION + 1),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn capped_line_reader_bounds_endless_lines() {
        // A line under the cap passes through intact.
        let mut r = BufReader::new(&b"hello world\nrest"[..]);
        match read_line_capped(&mut r, 64).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "hello world"),
            _ => panic!("expected a line"),
        }
        // A newline-free flood stops at the cap, not at OOM.
        let flood = vec![b'x'; 4096];
        let mut r = BufReader::new(&flood[..]);
        assert!(matches!(
            read_line_capped(&mut r, 256).unwrap(),
            LineRead::Overflow
        ));
        // EOF with no pending bytes is a clean end.
        let mut r = BufReader::new(&b""[..]);
        assert!(matches!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Eof
        ));
    }
}
