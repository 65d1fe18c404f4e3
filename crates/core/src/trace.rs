//! mic-trace export layer: Chrome `trace_event` JSON and stall-attribution
//! tables on top of the simulator's [`TraceSink`](mic_sim::TraceSink)
//! telemetry.
//!
//! Two consumers are served:
//!
//! - **Timelines** — [`write_chrome_trace`] renders recorded simulation
//!   traces (one process lane per traced run, one thread lane per simulated
//!   hardware thread, chunks colored by their attributed stall cause) into
//!   the Chrome `trace_event` format, so a run can be opened in
//!   `chrome://tracing` or Perfetto. Set the `MIC_TRACE` environment
//!   variable to a file path to make the `why` binary write one (see
//!   [`trace_path`]).
//! - **Tables** — [`stall_sweep`] runs the engine's bottleneck telemetry
//!   for *every* point of a (config × thread-grid) sweep and returns a
//!   [`StallTable`], the per-point "why" breakdown behind each figure. The
//!   sweep fans out over [`crate::sweep`] and is deterministic: the table
//!   is bit-identical for any worker count.
//!
//! Simulated timestamps are in **cycles**, written directly into the
//! trace's microsecond fields (the viewer's time unit is nominal; relative
//! magnitudes are what matter).

use crate::sweep;
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
        crate::json::escape(name)
    ));
}

/// Render traced simulations as one Chrome `trace_event` JSON document
/// (load in `chrome://tracing` or Perfetto).
///
/// Each [`TracePart`] becomes a process lane (pid = part index + 1): one
/// thread lane per simulated hardware thread showing its chunks (named by
/// iteration range, with the attributed stall cause in `args`), a `region`
/// lane spanning each region under its policy name, and a counter track
/// with the per-cause cycle totals at each region boundary.
fn chrome_trace_json(parts: &[TracePart]) -> String {
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
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        ev.join(",\n")
    )
}

/// Write the Chrome `trace_event` JSON of `parts` to `path`, creating
/// parent directories.
pub fn write_chrome_trace(path: &Path, parts: &[TracePart]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, chrome_trace_json(parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use mic_graph::suite::Scale;
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

    /// The sample regions at 61 threads, then every `why` hook of the
    /// registry at 1/64 scale traced at 121 threads, the thread count and
    /// configurations `why` exports under `MIC_TRACE`.
    fn traced_inputs() -> Vec<(usize, Vec<Region>, TracePart)> {
        let m = Machine::knf();
        let why = crate::exhibit::registry()
            .in_all()
            .filter_map(|e| e.why)
            .flat_map(|hook| hook(Scale::Fraction(64)))
            .map(|(label, regions)| (label, 121, regions));
        std::iter::once(("sample".to_string(), 61, sample_regions()))
            .chain(why)
            .map(|(label, t, regions)| {
                let part = trace_simulation(&format!("{label} t={t}"), &m, t, &regions).1;
                (t, regions, part)
            })
            .collect()
    }

    #[test]
    fn counter_totals_match_why_breakdown() {
        // The acceptance criterion: per-region counter totals from the
        // trace, normalized, equal the existing telemetry fractions.
        let m = Machine::knf();
        let inputs = traced_inputs();
        assert!(inputs.len() > 1, "the registry declares `why` hooks");
        for (t, regions, part) in &inputs {
            assert_eq!(part.regions.len(), regions.len());
            for (reg, r) in part.regions.iter().zip(regions) {
                let (_, b) = simulate_region_telemetry(&m, *t, r);
                let totals = reg.counter_totals();
                let sum = totals.total();
                assert!(sum > 0.0, "{}", part.label);
                for (cause, (name, frac)) in StallCause::ALL.iter().zip(b.components()) {
                    assert_eq!(cause.name(), name);
                    let counter_frac = totals.get(*cause) / sum;
                    assert!(
                        (counter_frac - frac).abs() < 1e-6,
                        "{} {name}: counter {counter_frac} vs telemetry {frac}",
                        part.label
                    );
                }
            }
        }
    }

    /// The `traceEvents` of a parsed export.
    fn events(doc: &Value) -> &[Value] {
        doc.get("traceEvents").and_then(Value::as_arr).unwrap()
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_lanes() {
        let parts: Vec<TracePart> = traced_inputs().into_iter().map(|(.., p)| p).collect();
        let text = chrome_trace_json(&parts);
        let doc = json::parse(&text).expect("export must parse");
        // One named process lane per part, in order.
        let lanes: Vec<&str> = events(&doc)
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        let labels: Vec<&str> = parts.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(lanes, labels);
        for needle in ["\"sample t=61\"", "omp-dynamic", "\"cilk\"", "stall cycles"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn labels_are_escaped() {
        let label = "weird \"quoted\"\\label\n";
        let part = TracePart {
            label: label.into(),
            threads: 2,
            regions: Vec::new(),
        };
        let doc = json::parse(&chrome_trace_json(&[part])).expect("escaped export must parse");
        let name = events(&doc)[0].get("args").and_then(|a| a.get("name"));
        assert_eq!(name.and_then(Value::as_str), Some(label));
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
}
