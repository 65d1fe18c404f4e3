//! One repetition of one workload, in its own process. The driver starts
//! a fresh child per repetition so the program's process-global state —
//! workload cache, result LRUs, peak RSS — never leaks between workloads
//! or between cold passes. The child prints one `ChildReport` line.

use crate::exhibits;
use crate::golden;
use crate::probes;
use crate::report::ChildReport;
use crate::serve::{Compute, Pipelined};
use crate::spans::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    /// Per timed window, whether the benchmark's spans are recorded.
    pub windows: Vec<bool>,
    /// When the driver spawned this process (ns since the Unix epoch).
    pub spawned_at_ns: u128,
    /// Report digests without checking them (`--write-golden`).
    pub unchecked: bool,
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn now_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn run(args: ChildArgs) -> Result<(), String> {
    let entered = Instant::now();
    let before_entry = now_ns().saturating_sub(args.spawned_at_ns) as f64 / 1e9;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let goldens = match args.unchecked {
        true => None,
        false => Some(golden::load()?),
    };
    let goldens = goldens.as_ref();
    let mut report = ChildReport::default();
    let mut tracer = Tracer::new(&args.workload, false);
    let nproc = nproc();

    // Each arm returns when its timed phase could start and each window's
    // cost (seconds per pass, or per request).
    let (ready, costs): (Instant, Vec<f64>) = match args.workload.as_str() {
        "exhibits-cold" => {
            // The first pass is the measurement, so setup is only what a
            // process pays before its first exhibit: start-up, the
            // registry, the installed configuration.
            let _ = (mic_eval::exhibit::registry(), mic_eval::config::current());
            tracer.set_on(args.windows[0]);
            let ready = Instant::now();
            (ready, exhibits::cold(&mut tracer, goldens, &mut report))
        }
        "exhibits-warm" => {
            exhibits::pass(&mut tracer, goldens, &mut report);
            let ready = Instant::now();
            let costs = exhibits::warm(
                &mut tracer,
                goldens,
                &mut report,
                &args.windows,
                args.window,
            );
            (ready, costs)
        }
        "serve-compute" => {
            let timed = args.window * args.windows.len() as u32;
            let mut c = Compute::setup(args.seed, nproc, timed, &mut report)?;
            let mut costs = Vec::new();
            for &traced in &args.windows {
                tracer.set_on(traced);
                costs.push(c.timed(args.window, &mut tracer, &mut report)?);
            }
            let ready = c.ready;
            c.finish(goldens, &mut report)?;
            (ready, costs)
        }
        "serve-hot" | "serve-store-warm" => {
            let mut p = match args.workload.as_str() {
                "serve-hot" => Pipelined::setup_hot(args.seed, nproc, &mut report)?,
                _ => {
                    let file = out.join(format!("serve-{}.store", std::process::id()));
                    Pipelined::setup_store_warm(args.seed, nproc, &file, &mut report)?
                }
            };
            let mut costs = Vec::new();
            for &traced in &args.windows {
                tracer.set_on(traced);
                costs.push(p.timed(args.window, &mut tracer, &mut report)?);
            }
            let ready = p.ready;
            p.finish(goldens, &mut report);
            (ready, costs)
        }
        "probes" => {
            tracer.set_on(true);
            probes::run(args.seed, nproc, &out, &mut tracer, &mut report)?;
            (Instant::now(), Vec::new())
        }
        other => return Err(format!("unknown workload {other:?}")),
    };

    report.setup_s = before_entry + (ready - entered).as_secs_f64();
    for (traced, cost) in args.windows.iter().zip(costs) {
        report.sample(
            if *traced {
                "cost_traced"
            } else {
                "cost_untraced"
            },
            cost,
        );
    }
    if !tracer.spans().is_empty() {
        tracer
            .write(&out.join(format!("trace-{}.json", args.workload)))
            .map_err(|e| e.to_string())?;
    }
    report.peak_rss_mb = peak_rss_mb()?;
    println!("{}", report.to_json());
    Ok(())
}
