//! Explain the figures: for each headline configuration, print where the
//! simulated machine's time goes (the binding resource), using the
//! engine's bottleneck telemetry. This is the one-screen answer to "why
//! does this curve plateau where it does".
//!
//! The configurations are the `why` hooks of the
//! [`mic_eval::exhibit`] registry — an exhibit that wants a line here
//! declares it at its `register()` call site, and this bin stays
//! exhibit-agnostic.
//!
//! Two levels of detail: a one-line summary per configuration at the top
//! thread count, then the full per-point stall-attribution table over the
//! whole thread grid (every sweep point of every headline config). With
//! `MIC_TRACE=PATH` set, also exports chunk-level Chrome traces of the
//! top-thread-count runs (open in `chrome://tracing` or Perfetto).
//!
//! Usage: `why [--scale K]` (default 1/4 scale).

use mic_bench::cli::Cli;
use mic_eval::exhibit;
use mic_eval::graph::suite::Scale;
use mic_eval::sim::{Machine, Region};
use mic_eval::trace::{aggregate_breakdown, stall_sweep, trace_path, trace_simulation};

fn show(name: &str, m: &Machine, t: usize, regions: &[Region]) {
    let (_, agg) = aggregate_breakdown(m, t, regions);
    println!(
        "{name:<38} {:<14} lat {:>4.0}% iss {:>4.0}% fpu {:>4.0}% l2bw {:>4.0}% dram {:>4.0}% atom {:>4.0}% bg {:>4.0}%",
        agg.dominant(),
        agg.latency * 100.0,
        agg.issue * 100.0,
        agg.fpu * 100.0,
        agg.l2_bandwidth * 100.0,
        agg.dram_bandwidth * 100.0,
        agg.atomics * 100.0,
        agg.background * 100.0,
    );
}

fn main() {
    let mut cli = Cli::parse("why", "why [--scale K]");
    let scale = cli.scale(Scale::Fraction(4));
    cli.done();
    let m = Machine::knf();
    let t = 121;

    // All workloads come from the shared cache, so repeated runs (and the
    // other bench binaries in the same process tree) instrument once.
    let configs: Vec<(String, Vec<Region>)> = exhibit::registry()
        .in_all()
        .filter_map(|e| e.why)
        .flat_map(|hook| hook(scale))
        .collect();

    println!("binding resource at {t} threads on KNF (headline configs at {scale:?}):\n");
    for (name, regions) in &configs {
        show(name, &m, t, regions);
    }

    println!("\nper-point stall attribution over the thread grid:\n");
    let table = stall_sweep(&m, &m.thread_grid(), &configs);
    print!("{}", table.to_ascii());

    if let Some(path) = trace_path() {
        let parts: Vec<_> = configs
            .iter()
            .map(|(name, regions)| trace_simulation(&format!("{name} t={t}"), &m, t, regions).1)
            .collect();
        mic_eval::trace::write_chrome_trace(&path, &parts).expect("write MIC_TRACE file");
        println!("\nwrote chunk-level trace to {}", path.display());
    }
}
