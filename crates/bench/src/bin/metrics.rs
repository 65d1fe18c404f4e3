//! mic-metrics driver: run instrumented workloads with the metrics
//! registry on, print the Prometheus snapshot, and (with `--check`)
//! validate the registry's cross-layer invariants.
//!
//! Usage: `metrics [--scale K] [--check] [--out PATH]`
//!
//! - `--scale K` — suite scale divisor (default 64; `K <= 1` means full).
//! - `--out PATH` — write the Prometheus text snapshot here (default:
//!   stdout only).
//! - `--check` — validate and exit nonzero naming every failed check.
//!
//! Two phases, each on fresh registry sessions:
//!
//! 1. **Sim agreement** — for each headline coloring config, run the
//!    engine with bottleneck telemetry and verify the scraped
//!    `mic_sim_stall_cycles_total{cause}` fractions reproduce the
//!    engine's own attribution to 1e-9, that the per-cause stall cycles
//!    sum to the loop-cycle counter (fractions sum to 1), and that the
//!    engine-seconds histogram count equals the runs counter.
//! 2. **Harness consistency** — drive the runtime schedulers and a
//!    sweep, then verify every chunk histogram's count equals
//!    its chunk counter, the sweep counter ticks as expected, and the
//!    snapshot passes its own self-check. (The workload cache's store-tier
//!    counters are pinned by `crates/core/tests/cache_stress.rs`.)

use mic_bench::cli::Cli;
use mic_eval::graph::stats::LocalityWindows;
use mic_eval::graph::suite::{PaperGraph, Scale};
use mic_eval::metrics;
use mic_eval::runtime::{
    cilk_for, parallel_for_chunks, tbb_parallel_for, Partitioner, Schedule, ThreadPool,
};
use mic_eval::sim::{simulate_region_telemetry, Machine, Policy, Region, StallCause};
use mic_eval::sweep;
use mic_eval::workload_cache::{self, OrderTag};
use std::path::PathBuf;

/// One named validation outcome.
struct Checks {
    enabled: bool,
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    fn ok(&mut self, name: &str, pass: bool, detail: impl FnOnce() -> String) {
        if pass {
            self.passed += 1;
        } else {
            let d = detail();
            eprintln!("check FAILED: {name}: {d}");
            self.failures.push(name.to_string());
        }
    }
}

fn main() {
    let mut cli = Cli::parse("metrics", "metrics [--scale K] [--check] [--out PATH]");
    let scale = cli.scale(Scale::Fraction(64));
    let out: Option<PathBuf> = cli.out();
    let mut checks = Checks {
        enabled: cli.check(),
        failures: Vec::new(),
        passed: 0,
    };
    cli.done();

    let m = Machine::knf();
    let threads = *m.thread_grid().last().unwrap();
    let win = LocalityWindows::default();

    // Phase 1: sim metrics must agree with the engine's own telemetry.
    let configs: Vec<(&str, Policy)> = vec![
        ("omp-dyn/100", Policy::OmpDynamic { chunk: 100 }),
        ("cilk/100", Policy::Cilk { grain: 100 }),
        ("tbb-simple/40", Policy::TbbSimple { grain: 40 }),
    ];
    println!("phase 1: sim stall attribution vs metrics ({scale:?}, t={threads})");
    for (label, policy) in &configs {
        let w = workload_cache::coloring(PaperGraph::Hood, scale, OrderTag::Natural, win);
        let regions: Vec<Region> = w.regions(*policy);
        for (ri, region) in regions.iter().enumerate() {
            let ((_, b), snap) =
                metrics::with_session(|| simulate_region_telemetry(&m, threads, region));

            let total = snap.family_total("mic_sim_stall_cycles_total");
            let loop_cycles = snap
                .value("mic_sim_loop_cycles_total", &[])
                .unwrap_or(f64::NAN);
            let mut worst = 0.0f64;
            for (cause, (_, frac)) in StallCause::ALL.iter().zip(b.components()) {
                let v = snap
                    .value("mic_sim_stall_cycles_total", &[("cause", cause.name())])
                    .unwrap_or(0.0);
                let metric_frac = if total > 0.0 { v / total } else { 0.0 };
                worst = worst.max((metric_frac - frac).abs());
            }
            checks.ok(
                &format!("sim fractions {label} region {ri}"),
                worst <= 1e-9,
                || format!("worst |metric - telemetry| = {worst:e}"),
            );
            let frac_sum = if loop_cycles > 0.0 {
                total / loop_cycles
            } else {
                1.0
            };
            checks.ok(
                &format!("stall fractions sum to 1 ({label} region {ri})"),
                (frac_sum - 1.0).abs() <= 1e-9,
                || format!("sum(stall)/loop_cycles = {frac_sum}"),
            );
            let runs = snap.value("mic_sim_runs_total", &[]).unwrap_or(0.0);
            let engine_count = snap
                .hist("mic_sim_engine_seconds", &[])
                .map(|h| h.count as f64)
                .unwrap_or(-1.0);
            checks.ok(
                &format!("engine histogram count == runs ({label} region {ri})"),
                runs == engine_count && runs == 1.0,
                || format!("runs {runs}, histogram count {engine_count}"),
            );
            for problem in snap.self_check() {
                checks.ok("sim snapshot self-check", false, || problem.clone());
            }
        }
        println!("  {label}: ok");
    }

    // Phase 2: harness-wide counters on one fresh registry.
    println!("phase 2: runtime / sweep consistency");
    let sweep_items: Vec<u64> = (0..8).collect();
    let ((), snap) = metrics::with_session(|| {
        let pool = ThreadPool::new(4);
        for sched in [
            Schedule::Static { chunk: Some(64) },
            Schedule::Dynamic { chunk: 64 },
            Schedule::Guided { min_chunk: 16 },
        ] {
            parallel_for_chunks(&pool, 0..4000, sched, |r, _| {
                std::hint::black_box(r.len());
            });
        }
        cilk_for(&pool, 0..4000, 64, |r, _| {
            std::hint::black_box(r.len());
        });
        for part in [Partitioner::Auto, Partitioner::Affinity] {
            tbb_parallel_for(&pool, 0..4000, part, |r, _| {
                std::hint::black_box(r.len());
            });
        }

        sweep::map_with(2, &sweep_items, |_, &x| x * 2);

        // And one sim run so the snapshot spans all three layers.
        let w = workload_cache::coloring(PaperGraph::Hood, scale, OrderTag::Natural, win);
        let regions = w.regions(Policy::OmpDynamic { chunk: 100 });
        simulate_region_telemetry(&m, threads, &regions[0]);
    });

    // Every chunk-latency histogram must agree with its chunk counter.
    let mut hist_pairs = 0usize;
    for e in &snap.entries {
        if e.name != "mic_runtime_chunks_total" {
            continue;
        }
        let labels: Vec<(&str, &str)> = e
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let counter = snap.value("mic_runtime_chunks_total", &labels).unwrap();
        let hist_count = snap
            .hist("mic_runtime_chunk_seconds", &labels)
            .map(|h| h.count as f64);
        hist_pairs += 1;
        checks.ok(
            &format!("chunk histogram == chunk counter {:?}", e.labels),
            hist_count == Some(counter),
            || format!("counter {counter}, histogram {hist_count:?}"),
        );
    }
    checks.ok("chunk families cover omp+cilk+tbb", hist_pairs >= 6, || {
        format!("only {hist_pairs} (runtime, sched) label sets present")
    });
    checks.ok(
        "sweep jobs counter",
        snap.value("mic_sweep_jobs_total", &[]) == Some(sweep_items.len() as f64),
        || {
            format!(
                "expected {}, got {:?}",
                sweep_items.len(),
                snap.value("mic_sweep_jobs_total", &[])
            )
        },
    );
    checks.ok(
        "engine histogram count == runs (phase 2)",
        snap.value("mic_sim_runs_total", &[])
            == snap
                .hist("mic_sim_engine_seconds", &[])
                .map(|h| h.count as f64),
        || "runs counter and engine-seconds histogram disagree".to_string(),
    );
    for problem in snap.self_check() {
        checks.ok("snapshot self-check", false, || problem.clone());
    }

    let prom = snap.to_prometheus();
    if let Some(path) = &out {
        std::fs::write(path, &prom).expect("write snapshot");
        println!("wrote {} ({} bytes)", path.display(), prom.len());
    } else {
        println!("\n{prom}");
    }

    if checks.enabled {
        if checks.failures.is_empty() {
            println!("check: all {} validations passed", checks.passed);
        } else {
            eprintln!(
                "check FAILED: {} of {} validation(s): {}",
                checks.failures.len(),
                checks.passed + checks.failures.len(),
                checks.failures.join("; ")
            );
            std::process::exit(1);
        }
    }
}
