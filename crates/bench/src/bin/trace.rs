//! mic-trace driver: run the headline coloring configurations with full
//! tracing, print the per-point stall-attribution table for the whole
//! thread grid, and export a Chrome `trace_event` timeline.
//!
//! Usage: `trace [--scale K] [--out PATH] [--check]`
//!
//! - `--scale K` — suite scale divisor (default 8; `K <= 1` means full).
//! - `--out PATH` — write the Chrome trace JSON here. `MIC_TRACE=PATH`
//!   does the same (the flag wins); with neither, no file is written.
//! - `--check` — validate the run: the emitted JSON must parse, and every
//!   traced region's counter totals must match the engine's bottleneck
//!   telemetry. Exits nonzero on any failure (the CI smoke step).
//!
//! Open the output in `chrome://tracing` or <https://ui.perfetto.dev>.

use mic_bench::cli::Cli;
use mic_eval::graph::stats::LocalityWindows;
use mic_eval::graph::suite::{PaperGraph, Scale};
use mic_eval::native::run_coloring;
use mic_eval::runtime::{capture_native_trace, RuntimeModel, Schedule, ThreadPool};
use mic_eval::sim::{simulate_region_telemetry, Machine, Policy, Region, StallCause};
use mic_eval::trace::{
    chrome_trace_json, stall_sweep, trace_path, trace_simulation, validate_json, TracePart,
};
use mic_eval::workload_cache::{self, OrderTag};
use std::path::PathBuf;

fn main() {
    let mut cli = Cli::parse("trace", "trace [--scale K] [--out PATH] [--check]");
    let scale = cli.scale(Scale::Fraction(8));
    let out: Option<PathBuf> = cli.out().or_else(trace_path);
    let check = cli.check();
    cli.done();

    let m = Machine::knf();
    let win = LocalityWindows::default();
    let grid = m.thread_grid();
    let t_trace = *grid.last().unwrap();

    // The headline coloring configurations of Figures 1–2.
    let configs: Vec<(String, Vec<Region>)> = [
        (
            "hood natural omp-dyn/100",
            OrderTag::Natural,
            Policy::OmpDynamic { chunk: 100 },
        ),
        (
            "hood natural cilk/100",
            OrderTag::Natural,
            Policy::Cilk { grain: 100 },
        ),
        (
            "hood natural tbb-simple/40",
            OrderTag::Natural,
            Policy::TbbSimple { grain: 40 },
        ),
        (
            "hood shuffled omp-dyn/100",
            OrderTag::Random { seed: 5 },
            Policy::OmpDynamic { chunk: 100 },
        ),
    ]
    .into_iter()
    .map(|(label, order, policy)| {
        let w = workload_cache::coloring(PaperGraph::Hood, scale, order, win);
        (label.to_string(), w.regions(policy))
    })
    .collect();

    println!("stall attribution per sweep point (coloring, {scale:?} scale, KNF):\n");
    let table = stall_sweep(&m, &grid, &configs);
    print!("{}", table.to_ascii());

    // Full chunk-level traces at the top of the grid, one lane per config.
    let mut failures = 0usize;
    let mut failing_configs: Vec<String> = Vec::new();
    let mut parts: Vec<TracePart> = Vec::new();
    for (label, regions) in &configs {
        let (_, part) = trace_simulation(&format!("{label} t={t_trace}"), &m, t_trace, regions);
        if check {
            let mismatches = check_counters(&m, t_trace, label, regions, &part);
            if mismatches > 0 {
                failing_configs.push(label.clone());
            }
            failures += mismatches;
        }
        parts.push(part);
    }

    // One real run of the native coloring kernel on a small pool, so the
    // export also shows real chunk→worker assignment and steals.
    let g = workload_cache::graph(PaperGraph::Hood, scale);
    let pool = ThreadPool::new(4);
    let (timed, native) = capture_native_trace(|| {
        run_coloring(
            &pool,
            &g,
            RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 100 }),
        )
    });
    println!(
        "\nnative coloring (4 workers): {} colors in {:?}, {} native events captured",
        timed.output.0,
        timed.elapsed,
        native.len()
    );

    let json = chrome_trace_json(&parts, &native);
    if let Some(path) = &out {
        mic_eval::trace::write_chrome_trace(path, &parts, &native).expect("write trace file");
        println!("wrote {} ({} bytes)", path.display(), json.len());
    }
    if check {
        match validate_json(&json) {
            Ok(()) => println!("check: emitted JSON parses"),
            Err(e) => {
                eprintln!("check FAILED: emitted JSON invalid: {e}");
                failures += 1;
            }
        }
        if let Some(path) = &out {
            let on_disk = std::fs::read_to_string(path).expect("read back trace file");
            if let Err(e) = validate_json(&on_disk) {
                eprintln!("check FAILED: file {} invalid: {e}", path.display());
                failures += 1;
            }
        }
    }
    if check {
        if failures > 0 {
            if !failing_configs.is_empty() {
                eprintln!(
                    "check FAILED: counter mismatches in config(s): {}",
                    failing_configs.join(", ")
                );
            }
            eprintln!("check FAILED: {failures} problem(s)");
            std::process::exit(1);
        }
        println!("check: counter totals match telemetry for all regions");
    }
}

/// Every traced region's counter totals, normalized, must reproduce the
/// engine's bottleneck fractions. Returns the number of mismatches.
fn check_counters(
    m: &Machine,
    threads: usize,
    label: &str,
    regions: &[Region],
    part: &TracePart,
) -> usize {
    let mut failures = 0;
    for (ri, (reg, r)) in part.regions.iter().zip(regions).enumerate() {
        let (_, b) = simulate_region_telemetry(m, threads, r);
        let totals = reg.counter_totals();
        let sum = totals.total();
        for (cause, (name, frac)) in StallCause::ALL.iter().zip(b.components()) {
            let counter_frac = if sum > 0.0 {
                totals.get(*cause) / sum
            } else {
                0.0
            };
            if (counter_frac - frac).abs() > 1e-6 {
                eprintln!(
                    "check FAILED: {label} region {ri} {name}: \
                     counters say {counter_frac}, telemetry says {frac}"
                );
                failures += 1;
            }
        }
    }
    failures
}
