//! The driver: runs each workload as a series of fresh child processes,
//! takes medians across their windows, and prints every metric by name.

use crate::catalogue::{self, MetricDef, SERVER_COUNTERS, WORKLOADS};
use crate::child::{self, now_ns};
use crate::golden;
use crate::report::{ChildReport, Metric, RunResult, WorkloadResult};
use crate::stats;
use mic_eval::json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub out: Option<PathBuf>,
    pub write_golden: bool,
}

/// Children per untraced run; each measures `seconds / REPS`.
const REPS: u64 = 3;
/// Seeds whose response digests are committed.
const GOLDEN_SEEDS: [u64; 2] = [1, 2];

/// Remove every `MIC_*` knob from this process's environment (children
/// inherit it): the benchmark measures the program's defaults, with
/// telemetry off.
pub fn scrub_env() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("MIC_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
}

/// Run one child to completion and parse the report on its last line.
fn spawn(
    workload: &str,
    seed: u64,
    window_ms: u64,
    spans: &str,
    unchecked: bool,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload, "--spans", spans])
        .args(["--seed", &seed.to_string()])
        .args(["--window-ms", &window_ms.to_string()])
        .args(["--spawned-at-ns", &now_ns().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if unchecked {
        cmd.arg("--unchecked");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} child printed nothing"))?;
    ChildReport::from_json(line).map_err(|e| format!("{workload} child report: {e}"))
}

/// The children of one run of one workload: (spans argument, window ms).
fn plan(workload: &str, seconds: u64, traced: bool) -> Vec<(&'static str, u64)> {
    let cold = workload == "exhibits-cold";
    match (traced, cold) {
        // A cold pass is a whole process, about three seconds of it.
        (false, true) => vec![("off", 0); (seconds / 3).max(REPS) as usize],
        (false, false) => vec![("off", seconds * 1000 / REPS); REPS as usize],
        // Traced: an untraced and a traced window side by side give the
        // tracing overhead; a cold pass needs a process for each.
        (true, true) => vec![("off", 0), ("on", 0)],
        (true, false) => vec![("both", seconds * 1000 / 8)],
    }
}

/// Run one workload's children and aggregate them. The second value is
/// the layer metrics the workload itself reports (traced runs only).
fn run_workload(
    name: &str,
    args: &RunArgs,
) -> Result<(WorkloadResult, BTreeMap<String, f64>), String> {
    let mut reports = Vec::new();
    for (spans, window_ms) in plan(name, args.seconds, args.traced) {
        eprintln!("mic-perf: {name} (seed {}, spans {spans})", args.seed);
        reports.push(spawn(name, args.seed, window_ms, spans, args.write_golden)?);
    }
    let mut w = WorkloadResult {
        name: name.to_string(),
        ..WorkloadResult::default()
    };
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in &reports {
        w.ops += r.ops;
        w.failed_ops += r.failed_ops;
        w.failures.extend(r.failures.iter().cloned());
        samples.entry("setup_s".into()).or_default().push(r.setup_s);
        samples
            .entry("peak_rss_mb".into())
            .or_default()
            .push(r.peak_rss_mb);
        for (k, v) in &r.samples {
            samples.entry(k.clone()).or_default().extend(v);
        }
        // Exact values repeat exactly, or something is not deterministic.
        for (k, v) in &r.exact {
            if w.exact.get(k).is_some_and(|seen| seen != v) {
                w.failed_ops += 1;
                w.failures.push(format!("{k} differs between repetitions"));
            }
            w.exact.insert(k.clone(), v.clone());
        }
    }
    for d in catalogue::end_to_end() {
        let s = samples
            .remove(&d.name)
            .ok_or(format!("{name} reported no {}", d.name))?;
        w.end_to_end.push(metric(&d, s));
    }
    let mut layers = BTreeMap::new();
    if args.traced {
        // Spans cost what a traced window costs over an untraced one.
        let cost = |k: &str| samples.get(k).and_then(|v| stats::median(v));
        let ratio = match (cost("cost_traced"), cost("cost_untraced")) {
            (Some(t), Some(u)) => t / u,
            _ => return Err(format!("{name} reported no traced/untraced window pair")),
        };
        layers.extend(reports.iter().flat_map(|r| r.layers.clone()));
        layers.insert("bench.tracing_overhead_ratio".into(), ratio);
        if name.starts_with("exhibits-") {
            // No server in these workloads: it received nothing.
            for c in SERVER_COUNTERS
                .iter()
                .chain(&["cache_hit_ratio", "jobs_per_batch"])
            {
                layers.insert(format!("server.{c}"), 0.0);
            }
        }
    }
    Ok((w, layers))
}

fn metric(d: &MetricDef, samples: Vec<f64>) -> Metric {
    Metric {
        name: d.name.clone(),
        unit: d.unit.to_string(),
        samples,
    }
}

/// A traced workload's `per_layer`: its own layer values plus the probes',
/// in catalogue order with units; every catalogue metric must be there.
fn finish_layers(
    w: &mut WorkloadResult,
    mut layers: BTreeMap<String, f64>,
    probes: &ChildReport,
) -> Result<(), String> {
    layers.extend(probes.layers.clone());
    w.per_layer = catalogue::per_layer()
        .iter()
        .map(|d| {
            let v = layers
                .get(&d.name)
                .ok_or(format!("no value for {}", d.name))?;
            Ok(metric(d, vec![*v]))
        })
        .collect::<Result<_, String>>()?;
    w.ops += probes.ops;
    w.failed_ops += probes.failed_ops;
    w.failures.extend(probes.failures.iter().cloned());
    let exact = probes
        .exact
        .iter()
        .filter(|(k, _)| !k.starts_with("digest."));
    w.exact.extend(exact.map(|(k, v)| (k.clone(), v.clone())));
    Ok(())
}

fn header(args: &RunArgs) -> BTreeMap<String, String> {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    [
        ("nproc", child::nproc().to_string()),
        ("build", mic_eval::buildinfo::stamp()),
        (
            "sweep_threads",
            mic_eval::sweep::default_threads().to_string(),
        ),
        ("rustc", rustc),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("traced", args.traced.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn print(result: &RunResult, traced: bool) {
    for (k, v) in &result.header {
        println!("# {k}: {v}");
    }
    for w in &result.workloads {
        println!(
            "\n== {} — ops {}, failed_ops {}",
            w.name, w.ops, w.failed_ops
        );
        for f in &w.failures {
            println!("   FAILED {f}");
        }
        let shown = if traced { &w.per_layer } else { &w.end_to_end };
        for m in shown {
            print!("{:<40} {:>16.6} {:<6}", m.name, m.median(), m.unit);
            match m.samples.len() {
                1 => println!(),
                n => println!(" min {:.6}  max {:.6}  n {n}", m.min(), m.max()),
            }
        }
    }
}

/// The contract's result line for a single-workload run.
fn result_line(w: &WorkloadResult, traced: bool) -> String {
    let shown = if traced { &w.per_layer } else { &w.end_to_end };
    let metrics = shown
        .iter()
        .map(|m| {
            let fields = vec![
                ("value".to_string(), Value::Num(m.median())),
                ("unit".to_string(), Value::str(m.unit.clone())),
            ];
            (m.name.clone(), Value::Obj(fields))
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(w.failed_ops == 0)),
        ("attempted".into(), Value::Num(w.ops as f64)),
        ("failed".into(), Value::Num(w.failed_ops as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .render()
}

/// `--write-golden`: run everything that produces a digest, unchecked,
/// for each committed seed, and rewrite `golden/fidelity.json`.
fn write_golden() -> Result<(), String> {
    let mut goldens = golden::Goldens::new();
    for seed in GOLDEN_SEEDS {
        for (name, _) in WORKLOADS {
            // Exhibit digests depend on neither the seed nor the cache
            // state: one cold run covers them.
            if name == "exhibits-warm" || (name == "exhibits-cold" && seed != GOLDEN_SEEDS[0]) {
                continue;
            }
            let run = RunArgs {
                workload: None,
                seed,
                seconds: REPS,
                traced: false,
                out: None,
                write_golden: true,
            };
            let (w, _) = run_workload(name, &run)?;
            if w.failed_ops > 0 {
                return Err(format!("{name} (seed {seed}) failed: {:?}", w.failures));
            }
            goldens.extend(
                w.exact
                    .iter()
                    .filter_map(|(k, v)| Some((k.strip_prefix("digest.")?.to_string(), v.clone()))),
            );
        }
    }
    golden::write(&goldens).map_err(|e| e.to_string())?;
    println!(
        "wrote {} digests to {}",
        goldens.len(),
        golden::dir().display()
    );
    Ok(())
}

/// Returns whether every operation of every workload succeeded.
pub fn run(args: RunArgs) -> Result<bool, String> {
    scrub_env();
    if args.write_golden {
        return write_golden().map(|()| true);
    }
    let names: Vec<&str> = match &args.workload {
        Some(one) => vec![WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n == one)
            .ok_or(format!("unknown workload {one:?}"))?],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut result = RunResult {
        header: header(&args),
        workloads: Vec::new(),
    };
    let mut layers = Vec::new();
    for name in names {
        let (w, own) = run_workload(name, &args)?;
        result.workloads.push(w);
        layers.push(own);
    }
    if args.traced {
        // The layer probes do not depend on the workload: once per run.
        eprintln!("mic-perf: layer probes");
        let probes = spawn("probes", args.seed, 0, "on", true)?;
        for (w, own) in result.workloads.iter_mut().zip(layers) {
            finish_layers(w, own, &probes)?;
        }
    }
    print(&result, args.traced);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| child::out_dir().join("result.json"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, result.to_json() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    if args.workload.is_some() {
        println!("{}", result_line(&result.workloads[0], args.traced));
    }
    Ok(result.workloads.iter().all(|w| w.failed_ops == 0))
}
