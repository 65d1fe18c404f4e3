//! Regenerate every exhibit of the paper in one run.
//!
//! Usage: `all [--scale K] [--list] [--only ID|GROUP[,ID|GROUP...]]`
//! — the EXPERIMENTS.md record uses the default (full paper-size) scale.
//!
//! This bin owns no exhibit list of its own: it iterates the
//! [`mic_eval::exhibit`] registry (everything except the `extra` group),
//! so registering a new exhibit there is all it takes to appear here and
//! in `BENCH_sweep.json`. `--list` prints the registry table (the
//! README's exhibit table, diffed in CI) and exits. `--only` runs a
//! selection of exhibit ids and group names (`paper`, `ablation`,
//! `scale-free`, `extra`) in registry order; an unknown name is a usage
//! error. Speed is judged by the `mic-perf` ledger (`benchmark/`), not by
//! this bin.
//!
//! The tables/figures go to stdout exactly as before; a per-exhibit footer
//! goes to stderr (wall time, minor page faults and the rise of the
//! resident high-water mark), and the wall times are also written to
//! `BENCH_sweep.json` in the working directory (disable with
//! `MIC_BENCH_JSON=0`, or point it elsewhere with `MIC_BENCH_JSON=path`).
//!
//! Observability rider (off unless asked for): `MIC_METRICS=1` runs with
//! the metrics registry on and embeds the snapshot in the JSON output;
//! `MIC_METRICS=<path>` additionally writes the Prometheus text snapshot
//! to `<path>`.

use mic_bench::cli::Cli;
use mic_eval::exhibit;
use mic_eval::graph::suite::Scale;
use mic_eval::json;
use mic_eval::sweep::RecordedFailure;
use std::path::Path;
use std::time::Instant;

struct Timings {
    /// Exhibit id, wall seconds, and its [`Usage::since`] footer columns.
    exhibits: Vec<(String, f64, String)>,
}

impl Timings {
    /// Run one exhibit, print its stdout block, record its wall time and
    /// what it cost in page faults and resident high-water mark.
    fn show(&mut self, name: &str, render: impl FnOnce() -> String) {
        let before = Usage::now();
        let start = Instant::now();
        let text = render();
        let secs = start.elapsed().as_secs_f64();
        let usage = Usage::now().since(before);
        self.exhibits.push((name.to_string(), secs, usage));
        println!("{text}");
    }
}

/// Minor page faults (`/proc/self/stat` field 10) and the resident
/// high-water mark (`VmHWM` in `/proc/self/status`, kB), each `None` where
/// `/proc` does not have it.
#[derive(Clone, Copy)]
struct Usage {
    minor_faults: Option<u64>,
    hwm_kb: Option<u64>,
}

impl Usage {
    fn now() -> Self {
        let read = |path| std::fs::read_to_string(path).ok();
        // The command name (field 2) may hold spaces, so count from its
        // closing ')': field 10 is the eighth after it.
        let minor_faults = read("/proc/self/stat").and_then(|s| {
            let after_comm = s.rsplit_once(')')?.1;
            after_comm.split_whitespace().nth(7)?.parse().ok()
        });
        let hwm_kb = read("/proc/self/status").and_then(|s| {
            let kb = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().strip_suffix("kB")?.trim().parse().ok()
        });
        Usage {
            minor_faults,
            hwm_kb,
        }
    }

    /// The footer columns for the rise from `before` to `self`: minor
    /// faults, and the high-water mark in MB; `-` where either is unknown.
    fn since(self, before: Usage) -> String {
        let rise =
            |now: Option<u64>, then: Option<u64>| now.zip(then).map(|(a, b)| a.saturating_sub(b));
        let faults =
            rise(self.minor_faults, before.minor_faults).map_or("-".into(), |f| f.to_string());
        let hwm = rise(self.hwm_kb, before.hwm_kb)
            .map_or("-".into(), |kb| format!("{:.1}", kb as f64 / 1024.0));
        format!("{faults:>10} minflt {hwm:>8} MB HWM")
    }
}

// Panic messages in failure records can contain quotes, backslashes, or
// newlines; escape them with the shared JSON helper.
use json::escape as json_escape;

/// `BENCH_sweep.json`'s `"schema_version"`. Bump when a field changes
/// meaning.
const SCHEMA_VERSION: u64 = 1;

fn write_json(
    path: &Path,
    scale: Scale,
    threads: usize,
    total_s: f64,
    t: &Timings,
    failures: &[RecordedFailure],
    metrics_json: Option<&str>,
) {
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    body.push_str(&format!(
        "  \"build\": \"{}\",\n",
        json_escape(&mic_eval::buildinfo::stamp())
    ));
    body.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    body.push_str(&format!("  \"sweep_threads\": {threads},\n"));
    body.push_str(&format!("  \"total_seconds\": {total_s:.3},\n"));
    body.push_str("  \"exhibits\": [\n");
    for (i, (name, secs, _)) in t.exhibits.iter().enumerate() {
        let comma = if i + 1 < t.exhibits.len() { "," } else { "" };
        body.push_str(&format!(
            "    {{\"name\": \"{name}\", \"seconds\": {secs:.3}}}{comma}\n"
        ));
    }
    body.push_str("  ],\n");
    if let Some(m) = metrics_json {
        body.push_str("  \"metrics\": ");
        body.push_str(m.trim_end());
        body.push_str(",\n");
    }
    body.push_str("  \"failures\": [\n");
    for (i, r) in failures.iter().enumerate() {
        let comma = if i + 1 < failures.len() { "," } else { "" };
        body.push_str(&format!(
            "    {{\"context\": \"{}\", \"point\": {}, \"cause\": \"panic\", \"detail\": \"{}\"}}{comma}\n",
            json_escape(&r.context),
            r.failure.point,
            json_escape(&format!("panic: {}", r.failure.message)),
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("(could not write {}: {e})", path.display());
    }
}

fn main() {
    let mut cli = Cli::parse(
        "all",
        "all [--scale K] [--list] [--only ID|GROUP[,ID|GROUP...]]",
    );
    let scale = cli.scale(Scale::Full);
    let list = cli.flag("--list");
    let exhibits = match cli.opt("--only") {
        Some(names) => exhibit::registry()
            .select(&names)
            .unwrap_or_else(|e| cli.die(&e)),
        None => exhibit::registry().in_all().collect(),
    };
    let config = cli.config();
    cli.done();

    if list {
        print!("{}", exhibit::registry().list_table());
        return;
    }

    mic_eval::metrics::init_from_env();
    let before = Usage::now();
    let start = Instant::now();
    let mut t = Timings {
        exhibits: Vec::new(),
    };

    for e in exhibits {
        eprintln!("== {} ==", e.title);
        t.show(e.id, || (e.run)(scale));
    }

    let total_s = start.elapsed().as_secs_f64();
    let usage = Usage::now().since(before);
    let threads = mic_eval::sweep::default_threads();
    eprintln!("== Timing ({threads} sweep threads) ==");
    for (name, secs, usage) in &t.exhibits {
        eprintln!("{name:<28} {secs:>8.3} s {usage}");
    }
    eprintln!("{:<28} {total_s:>8.3} s {usage}", "total");
    let failures = mic_eval::sweep::take_failures();
    if failures.is_empty() {
        eprintln!("== Failures: none ==");
    } else {
        eprintln!("== Failures: {} point(s) degraded ==", failures.len());
        for r in &failures {
            eprintln!("{:<28} {}", r.context, r.failure);
        }
    }
    // Metrics rider: snapshot once, embed in the JSON, optionally export
    // the Prometheus text form. With MIC_METRICS unset this whole block is
    // inert and the JSON payload is byte-identical to a metrics-free build.
    let metrics_json = if mic_eval::metrics::enabled() {
        let snap = mic_eval::metrics::snapshot();
        for problem in snap.self_check() {
            eprintln!("metrics self-check: {problem}");
        }
        if let Some(path) = mic_eval::metrics::snapshot_path() {
            match std::fs::write(&path, snap.to_prometheus()) {
                Ok(()) => eprintln!("(metrics snapshot written to {})", path.display()),
                Err(e) => eprintln!("(could not write {}: {e})", path.display()),
            }
        }
        Some(snap.to_json())
    } else {
        None
    };

    if let Some(path) = &config.bench_json {
        write_json(
            path,
            scale,
            threads,
            total_s,
            &t,
            &failures,
            metrics_json.as_deref(),
        );
        eprintln!("(timings written to {})", path.display());
    }
}
