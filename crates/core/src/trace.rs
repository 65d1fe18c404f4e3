//! mic-trace export layer: Chrome `trace_event` JSON and stall-attribution
//! tables on top of the simulator's [`TraceSink`](mic_sim::TraceSink)
//! telemetry and the runtime's native event capture.
//!
//! Two consumers are served:
//!
//! - **Timelines** — [`chrome_trace_json`] renders recorded simulation
//!   traces (one process lane per traced run, one thread lane per simulated
//!   hardware thread, chunks colored by their attributed stall cause) plus
//!   any native scheduling events into the Chrome `trace_event` format, so
//!   a run can be opened in `chrome://tracing` or Perfetto. Set the
//!   `MIC_TRACE` environment variable to a file path to make the bench
//!   binaries write one (see [`trace_path`]).
//! - **Tables** — [`stall_sweep`] runs the engine's bottleneck telemetry
//!   for *every* point of a (config × thread-grid) sweep and returns a
//!   [`StallTable`], the per-point "why" breakdown behind each figure. The
//!   sweep fans out over [`crate::sweep`] and is deterministic: the table
//!   is bit-identical for any worker count.
//!
//! Simulated timestamps are in **cycles**, written directly into the
//! trace's microsecond fields (the viewer's time unit is nominal; relative
//! magnitudes are what matter). Native events are real microseconds on a
//! separate process lane, so the two clocks never mix in one lane.

use crate::sweep;
use mic_runtime::trace::{NativeEvent, NativeEventKind};
use mic_sim::trace::RegionTrace;
use mic_sim::{
    simulate_region_telemetry, simulate_traced, Bottleneck, Machine, RecordingSink, Region,
    SimReport, SimScratch, StallCause,
};
use std::path::{Path, PathBuf};

/// The trace output file requested via `MIC_TRACE` (through
/// [`crate::config`]), if any. Unset, empty and `0` all mean "tracing
/// off".
pub fn trace_path() -> Option<PathBuf> {
    crate::config::current().trace.clone()
}

/// One traced simulation run: a labeled sequence of region traces, shown
/// as its own process lane in the Chrome export.
#[derive(Clone, Debug)]
pub struct TracePart {
    /// Lane label, e.g. `"coloring hood omp-dynamic t=121"`.
    pub label: String,
    /// Simulated thread count (lane count in the viewer).
    pub threads: usize,
    /// Per-region traces, in simulation order.
    pub regions: Vec<RegionTrace>,
}

/// Simulate `regions` with recording enabled and return both the ordinary
/// report and the captured trace as a labeled part.
pub fn trace_simulation(
    label: &str,
    m: &Machine,
    threads: usize,
    regions: &[Region],
) -> (SimReport, TracePart) {
    let mut sink = RecordingSink::default();
    let mut scratch = SimScratch::new();
    let report = simulate_traced(m, threads, regions, &mut scratch, &mut sink);
    (
        report,
        TracePart {
            label: label.to_string(),
            threads,
            regions: sink.regions,
        },
    )
}

/// Total cycles and cycle-weighted bottleneck breakdown of a multi-region
/// workload at one thread count — the aggregation behind the `why` binary,
/// shared so tables and binaries agree by construction.
pub fn aggregate_breakdown(m: &Machine, threads: usize, regions: &[Region]) -> (f64, Bottleneck) {
    let mut total = 0.0;
    let mut acc = [0.0f64; 7];
    for r in regions {
        let (c, b) = simulate_region_telemetry(m, threads, r);
        total += c;
        for (slot, (_, v)) in acc.iter_mut().zip(b.components()) {
            *slot += v * c;
        }
    }
    if total > 0.0 {
        for v in &mut acc {
            *v /= total;
        }
    }
    let [latency, issue, fpu, l2_bandwidth, dram_bandwidth, atomics, background] = acc;
    (
        total,
        Bottleneck {
            latency,
            issue,
            fpu,
            l2_bandwidth,
            dram_bandwidth,
            atomics,
            background,
        },
    )
}

/// One sweep point with its attribution breakdown.
#[derive(Clone, Debug)]
pub struct StallPoint {
    pub label: String,
    pub threads: usize,
    pub cycles: f64,
    pub breakdown: Bottleneck,
}

/// The per-point stall-attribution table of a sweep.
#[derive(Clone, Debug, Default)]
pub struct StallTable {
    pub points: Vec<StallPoint>,
}

impl StallTable {
    /// Render as a fixed-width ASCII table, one row per sweep point.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>7} {:>14} {:<14} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}\n",
            "config",
            "threads",
            "cycles",
            "bound-by",
            "lat%",
            "iss%",
            "fpu%",
            "l2bw%",
            "dram%",
            "atom%",
            "bg%",
        ));
        for p in &self.points {
            let b = &p.breakdown;
            out.push_str(&format!(
                "{:<40} {:>7} {:>14.0} {:<14} {:>5.1} {:>5.1} {:>5.1} {:>5.1} {:>5.1} {:>5.1} {:>5.1}\n",
                p.label,
                p.threads,
                p.cycles,
                b.dominant(),
                b.latency * 100.0,
                b.issue * 100.0,
                b.fpu * 100.0,
                b.l2_bandwidth * 100.0,
                b.dram_bandwidth * 100.0,
                b.atomics * 100.0,
                b.background * 100.0,
            ));
        }
        out
    }
}

/// Stall-attribution breakdown for every (config × thread-grid) point,
/// computed in parallel over the sweep harness with deterministic output.
pub fn stall_sweep(m: &Machine, grid: &[usize], configs: &[(String, Vec<Region>)]) -> StallTable {
    stall_sweep_with(sweep::default_threads(), m, grid, configs)
}

/// [`stall_sweep`] with an explicit sweep worker count (the table is
/// identical for any count; tests pin that).
pub(crate) fn stall_sweep_with(
    workers: usize,
    m: &Machine,
    grid: &[usize],
    configs: &[(String, Vec<Region>)],
) -> StallTable {
    let jobs: Vec<(usize, usize)> = configs
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| grid.iter().map(move |&t| (ci, t)))
        .collect();
    let points = sweep::map_with(workers, &jobs, |_, &(ci, t)| {
        let (label, regions) = &configs[ci];
        let (cycles, breakdown) = aggregate_breakdown(m, t, regions);
        StallPoint {
            label: label.clone(),
            threads: t,
            cycles,
            breakdown,
        }
    });
    StallTable { points }
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// JSON number: finite floats render via Rust's shortest round-trip
/// `Display` (always valid JSON); non-finite values must not reach the
/// export (the engine asserts) but degrade to 0 rather than emit `NaN`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn meta_event(out: &mut Vec<String>, what: &str, pid: usize, tid: usize, name: &str) {
    out.push(format!(
        "{{\"name\":\"{what}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
        escape_json(name)
    ));
}

/// Render traced simulations and native runtime events as one Chrome
/// `trace_event` JSON document (load in `chrome://tracing` or Perfetto).
///
/// Each [`TracePart`] becomes a process lane (pid = part index + 1): one
/// thread lane per simulated hardware thread showing its chunks (named by
/// iteration range, with the attributed stall cause in `args`), a `region`
/// lane spanning each region under its policy name, and a counter track
/// with the per-cause cycle totals at each region boundary. Native events,
/// if any, go on one further process lane in real microseconds.
pub fn chrome_trace_json(parts: &[TracePart], native: &[NativeEvent]) -> String {
    chrome_trace_json_with_spans(parts, native, &[])
}

/// [`chrome_trace_json`] plus a "requests" process lane rendering per-
/// request spans from the [`mic_obs`] span store: one timeline row per
/// serving shard (row 0 for spans with no shard), each span an `X` event
/// named by its kind with the trace/span/parent ids in `args`.
pub(crate) fn chrome_trace_json_with_spans(
    parts: &[TracePart],
    native: &[NativeEvent],
    spans: &[mic_obs::span::Span],
) -> String {
    let mut ev: Vec<String> = Vec::new();
    for (pi, part) in parts.iter().enumerate() {
        let pid = pi + 1;
        meta_event(&mut ev, "process_name", pid, 0, &part.label);
        // Name each simulated thread lane by its placement, recovered from
        // the chunk events (threads that never ran a chunk keep defaults).
        let mut placement: Vec<Option<(usize, usize)>> = vec![None; part.threads];
        for reg in &part.regions {
            for c in &reg.chunks {
                if c.thread < placement.len() {
                    placement[c.thread] = Some((c.core, c.smt_slot));
                }
            }
        }
        for (tid, p) in placement.iter().enumerate() {
            if let Some((core, slot)) = p {
                meta_event(
                    &mut ev,
                    "thread_name",
                    pid,
                    tid,
                    &format!("core {core} smt {slot}"),
                );
            }
        }
        let region_lane = part.threads;
        meta_event(&mut ev, "thread_name", pid, region_lane, "region");
        let mut offset = 0.0f64;
        for (ri, reg) in part.regions.iter().enumerate() {
            let policy = reg.policy.map_or("?", |p| p.name());
            ev.push(format!(
                "{{\"name\":\"{policy}\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{region_lane},\"args\":{{\"region\":{ri},\"iters\":{},\"threads\":{}}}}}",
                num(offset),
                num(reg.region_cycles),
                reg.iters,
                reg.threads,
            ));
            // The event loop starts after the serial prefix + fork; place
            // chunk events so the barrier gap is visible at the lane tail.
            let loop_offset = offset + (reg.region_cycles - reg.loop_cycles);
            for c in &reg.chunks {
                ev.push(format!(
                    "{{\"name\":\"chunk {}..{}\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"cause\":\"{}\",\"region\":{ri}}}}}",
                    c.iter_start,
                    c.iter_end,
                    num(loop_offset + c.start),
                    num(c.end - c.start),
                    c.thread,
                    c.cause.name(),
                ));
            }
            let totals = reg.counter_totals();
            let args: Vec<String> = StallCause::ALL
                .iter()
                .map(|&cause| format!("\"{}\":{}", cause.name(), num(totals.get(cause))))
                .collect();
            ev.push(format!(
                "{{\"name\":\"stall cycles\",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\"tid\":0,\"args\":{{{}}}}}",
                num(offset + reg.region_cycles),
                args.join(","),
            ));
            offset += reg.region_cycles;
        }
    }
    if !native.is_empty() {
        let pid = parts.len() + 1;
        meta_event(&mut ev, "process_name", pid, 0, "native runtime");
        for e in native {
            match e.kind {
                NativeEventKind::Chunk { lo, hi } => ev.push(format!(
                    "{{\"name\":\"chunk {lo}..{hi}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{}}}",
                    e.runtime,
                    num(e.start_us),
                    num(e.end_us - e.start_us),
                    e.worker,
                )),
                NativeEventKind::Region { epoch } => ev.push(format!(
                    "{{\"name\":\"region\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"epoch\":{epoch}}}}}",
                    e.runtime,
                    num(e.start_us),
                    num(e.end_us - e.start_us),
                    e.worker,
                )),
                NativeEventKind::Steal { victim } => ev.push(format!(
                    "{{\"name\":\"steal\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"victim\":{victim}}}}}",
                    e.runtime,
                    num(e.start_us),
                    e.worker,
                )),
            }
        }
    }
    if !spans.is_empty() {
        let pid = parts.len() + 2;
        meta_event(&mut ev, "process_name", pid, 0, "requests");
        let mut shards: Vec<usize> = spans.iter().filter_map(|s| s.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        for sh in shards {
            meta_event(&mut ev, "thread_name", pid, sh + 1, &format!("shard-{sh}"));
        }
        for sp in spans {
            ev.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\"}}}}",
                sp.kind.name(),
                num(sp.start_us),
                num(sp.end_us - sp.start_us),
                sp.shard.map_or(0, |sh| sh + 1),
                mic_obs::trace_hex(sp.trace),
                mic_obs::span_hex(sp.id),
                mic_obs::span_hex(sp.parent),
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        ev.join(",\n")
    )
}

/// Write [`chrome_trace_json`] to `path`, creating parent directories.
pub fn write_chrome_trace(
    path: &Path,
    parts: &[TracePart],
    native: &[NativeEvent],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, chrome_trace_json(parts, native))
}

// ---------------------------------------------------------------------------
// Minimal JSON validator (no dependency, no value tree): used by tests and
// the `trace --check` smoke step to prove the emitted file parses.
// ---------------------------------------------------------------------------

/// Check that `s` is one syntactically complete JSON value. Returns the
/// byte offset of the first problem on failure.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while matches!(b.get(*i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*i) == Some(&c) {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *i))
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(b'-' | b'0'..=b'9') => number(b, i),
        _ => Err(format!("expected a value at byte {}", *i)),
    }
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.get(*i..*i + lit.len()) == Some(lit) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *i))
    }
}

fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, b'{')?;
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        string(b, i)?;
        skip_ws(b, i);
        expect(b, i, b':')?;
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *i)),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, b'[')?;
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *i)),
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, b'"')?;
    loop {
        match b.get(*i) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *i += 1;
                return Ok(());
            }
            Some(b'\\') => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        *i += 1;
                        for _ in 0..4 {
                            if !b.get(*i).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {}", *i));
                            }
                            *i += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *i)),
                }
            }
            Some(c) if *c < 0x20 => return Err(format!("raw control char at byte {}", *i)),
            Some(_) => *i += 1,
        }
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let mut digits = 0;
    while b.get(*i).is_some_and(u8::is_ascii_digit) {
        *i += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        let mut frac = 0;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        let mut exp = 0;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("bad number at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_sim::{Policy, Work};

    fn sample_regions() -> Vec<Region> {
        let work: Vec<Work> = (0..300)
            .map(|i| Work {
                issue: 2.0 + (i % 7) as f64,
                l1: (i % 3) as f64,
                l2: 0.4,
                dram: 0.2,
                flops: (i % 5) as f64,
                atomics: 0.05,
            })
            .collect();
        vec![
            Region::new(work.clone(), Policy::OmpDynamic { chunk: 16 }),
            Region::new(work, Policy::Cilk { grain: 25 }),
        ]
    }

    #[test]
    fn counter_totals_match_why_breakdown() {
        // The acceptance criterion: per-region counter totals from the
        // trace, normalized, equal the existing telemetry fractions.
        let m = Machine::knf();
        let regions = sample_regions();
        let (_, part) = trace_simulation("x", &m, 61, &regions);
        assert_eq!(part.regions.len(), regions.len());
        for (reg, r) in part.regions.iter().zip(&regions) {
            let (_, b) = simulate_region_telemetry(&m, 61, r);
            let totals = reg.counter_totals();
            let sum = totals.total();
            assert!(sum > 0.0);
            for (cause, (name, frac)) in StallCause::ALL.iter().zip(b.components()) {
                assert_eq!(cause.name(), name);
                let counter_frac = totals.get(*cause) / sum;
                assert!(
                    (counter_frac - frac).abs() < 1e-6,
                    "{name}: counter {counter_frac} vs telemetry {frac}"
                );
            }
        }
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_lanes() {
        let m = Machine::knf();
        let regions = sample_regions();
        let (report, part) = trace_simulation("demo run", &m, 31, &regions);
        let native = vec![
            NativeEvent {
                runtime: "omp",
                worker: 0,
                start_us: 1.0,
                end_us: 2.5,
                kind: NativeEventKind::Chunk { lo: 0, hi: 64 },
            },
            NativeEvent {
                runtime: "tbb",
                worker: 1,
                start_us: 3.0,
                end_us: 3.0,
                kind: NativeEventKind::Steal { victim: 0 },
            },
        ];
        let json = chrome_trace_json(&[part], &native);
        validate_json(&json).expect("export must parse");
        for needle in [
            "\"demo run\"",
            "omp-dynamic",
            "\"cilk\"",
            "stall cycles",
            "\"steal\"",
            "native runtime",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        // A native event's row is its bare worker id.
        assert!(json.contains("\"name\":\"chunk 0..64\",\"cat\":\"omp\",\"ph\":\"X\",\"ts\":1,\"dur\":1.5,\"pid\":2,\"tid\":0"));
        assert!(json.contains("\"pid\":2,\"tid\":1,\"args\":{\"victim\":0}"));
        assert!(report.cycles > 0.0);
    }

    #[test]
    fn span_lane_renders_requests_by_shard() {
        let spans = vec![
            mic_obs::span::Span {
                trace: 0xabcd,
                id: 7,
                parent: 0,
                kind: mic_obs::span::SpanKind::Request,
                shard: None,
                start_us: 0.0,
                end_us: 10.0,
            },
            mic_obs::span::Span {
                trace: 0xabcd,
                id: 8,
                parent: 7,
                kind: mic_obs::span::SpanKind::Execute,
                shard: Some(3),
                start_us: 2.0,
                end_us: 9.0,
            },
        ];
        let json = chrome_trace_json_with_spans(&[], &[], &spans);
        validate_json(&json).expect("span export must parse");
        for needle in [
            "\"requests\"",
            "\"shard-3\"",
            "\"name\":\"execute\"",
            "\"name\":\"request\"",
            &format!("\"trace\":\"{}\"", mic_obs::trace_hex(0xabcd)),
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn labels_are_escaped() {
        let part = TracePart {
            label: "weird \"quoted\"\\label\n".into(),
            threads: 2,
            regions: Vec::new(),
        };
        let json = chrome_trace_json(&[part], &[]);
        validate_json(&json).expect("escaped export must parse");
    }

    #[test]
    fn stall_sweep_is_deterministic_across_worker_counts() {
        let m = Machine::knf();
        let configs = vec![
            ("omp".to_string(), sample_regions()),
            (
                "serial".to_string(),
                vec![Region::new(
                    vec![
                        Work {
                            issue: 3.0,
                            ..Default::default()
                        };
                        50
                    ],
                    Policy::Serial,
                )],
            ),
        ];
        let grid = [1usize, 11, 31];
        let one = stall_sweep_with(1, &m, &grid, &configs);
        let four = stall_sweep_with(4, &m, &grid, &configs);
        assert_eq!(one.points.len(), configs.len() * grid.len());
        for (a, b) in one.points.iter().zip(&four.points) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.threads, b.threads);
            assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
            for ((_, x), (_, y)) in a
                .breakdown
                .components()
                .iter()
                .zip(b.breakdown.components())
            {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let ascii = one.to_ascii();
        assert!(ascii.contains("bound-by") && ascii.lines().count() == 1 + one.points.len());
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            " {\"a\": [1, -2.5e3, true, \"x\\u00e9\"]} ",
            "{\"nested\":{\"deep\":[[[]]]}}",
        ] {
            assert!(validate_json(ok).is_ok(), "{ok}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "[1 2]",
            "NaN",
            "{\"a\":1}x",
            "\"unterminated",
            "01e",
        ] {
            assert!(validate_json(bad).is_err(), "{bad} should fail");
        }
    }
}
