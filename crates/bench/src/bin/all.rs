//! Regenerate every exhibit of the paper in one run.
//!
//! Usage: `all [--scale K] [--list] [--only ID|GROUP[,ID|GROUP...]]`
//! — the EXPERIMENTS.md record uses the default (full paper-size) scale.
//!
//! This bin owns no exhibit list of its own: it iterates the
//! [`mic_eval::exhibit`] registry (everything except the `extra` group),
//! so registering a new exhibit there is all it takes to appear here.
//! `--list` prints the registry table (the README's exhibit table, diffed
//! in CI) and exits. `--only` runs a selection of exhibit ids and group
//! names (`paper`, `ablation`, `scale-free`, `extra`) in registry order;
//! an unknown name is a usage error. Speed is judged by the `mic-perf`
//! ledger (`benchmark/`), not by this bin.
//!
//! The tables/figures go to stdout; a per-exhibit footer goes to stderr
//! (wall time, minor page faults and the rise of the resident high-water
//! mark). An exhibit that panics stops the run: stderr names the exhibit
//! id and the panic message, and the exit code is 1.
//!
//! Observability rider (off unless asked for): `MIC_METRICS=1` runs with
//! the metrics registry on and self-checks its snapshot at the end;
//! `MIC_METRICS=<path>` also writes the Prometheus text snapshot to
//! `<path>`.

use mic_bench::cli::Cli;
use mic_eval::exhibit::{self, Exhibit};
use mic_eval::graph::suite::Scale;
use std::time::Instant;

struct Timings {
    /// Exhibit id, wall seconds, and its [`Usage::since`] footer columns.
    exhibits: Vec<(String, f64, String)>,
}

impl Timings {
    /// Run one exhibit, print its stdout block, record its wall time and
    /// what it cost in page faults and resident high-water mark.
    fn show(&mut self, e: &Exhibit, scale: Scale) -> Result<(), String> {
        let before = Usage::now();
        let start = Instant::now();
        let text = run(e, scale)?;
        let secs = start.elapsed().as_secs_f64();
        let usage = Usage::now().since(before);
        self.exhibits.push((e.id.to_string(), secs, usage));
        println!("{text}");
        Ok(())
    }
}

/// Render one exhibit. A panic anywhere in it, a failed sweep job
/// included, comes back as an error naming the exhibit id and the panic
/// message.
fn run(e: &Exhibit, scale: Scale) -> Result<String, String> {
    std::panic::catch_unwind(|| (e.run)(scale)).map_err(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic payload>");
        format!("exhibit {}: {message}", e.id)
    })
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
        if let Err(failure) = t.show(e, scale) {
            eprintln!("all: {failure}");
            std::process::exit(1);
        }
    }

    let total_s = start.elapsed().as_secs_f64();
    let usage = Usage::now().since(before);
    let threads = mic_eval::sweep::default_threads();
    eprintln!("== Timing ({threads} sweep threads) ==");
    for (name, secs, usage) in &t.exhibits {
        eprintln!("{name:<28} {secs:>8.3} s {usage}");
    }
    eprintln!("{:<28} {total_s:>8.3} s {usage}", "total");
    // Metrics rider: with MIC_METRICS unset this whole block is inert.
    if mic_eval::metrics::enabled() {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_eval::exhibit::{GraphFamily, Group, KernelId};

    fn one_job_panics(_: Scale) -> String {
        let jobs = [0usize, 1, 2];
        let out = mic_eval::sweep::map(&jobs, |_, &j| {
            assert_ne!(j, 1, "job {j} hit a bug");
            j
        });
        format!("{out:?}")
    }

    #[test]
    fn a_panicking_sweep_job_fails_the_exhibit_by_id() {
        let e = Exhibit {
            id: "test-one-job-panics",
            title: "one sweep job panics",
            kernel: KernelId::Coloring,
            family: GraphFamily::Mesh,
            axes: "jobs",
            group: Group::Extra,
            run: one_job_panics,
            why: None,
        };
        let failure = run(&e, Scale::Fraction(64)).unwrap_err();
        assert!(
            failure.contains("test-one-job-panics") && failure.contains("point 1"),
            "{failure}"
        );
    }
}
