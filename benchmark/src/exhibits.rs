//! The `exhibits-cold` and `exhibits-warm` children: full passes over the
//! exhibits `all` runs, through the same public entry point (`registry()`
//! and each exhibit's `run`), at a scale where the work dominates noise.

use crate::golden::{self, Goldens};
use crate::report::ChildReport;
use crate::spans::{self, Tracer};
use crate::stats;
use mic_eval::exhibit::registry;
use mic_eval::graph::suite::Scale;
use std::time::{Duration, Instant};

/// Every exhibit takes milliseconds to seconds here; at the `all` bin's
/// gate scale (1/64) most finish inside timer noise.
pub const SCALE: Scale = Scale::Fraction(8);
/// Share of a pass its exhibit spans may leave uncovered.
const MAX_RESIDUAL: f64 = 0.02;

/// One pass: per-exhibit seconds, in registry order, and the pass's wall
/// seconds. Digests are checked (and recorded) as each exhibit renders.
pub struct Pass {
    pub wall_s: f64,
    pub exhibit_s: Vec<(&'static str, f64)>,
}

pub fn pass(tracer: &mut Tracer, goldens: Option<&Goldens>, report: &mut ChildReport) -> Pass {
    let mut exhibit_s = Vec::new();
    let ((), wall_s) = tracer.span("pass", |t| {
        for e in registry().in_all() {
            let (text, secs) = t.span(&format!("exhibit.{}", e.id), |_| (e.run)(SCALE));
            exhibit_s.push((e.id, secs));
            let name = format!("exhibit.{}", e.id);
            let digest = golden::text_digest(&text);
            report.ops += 1;
            if let Some(why) = goldens.and_then(|g| golden::mismatch(g, &name, &digest, true)) {
                report.fail(why);
            }
            report.exact.insert(format!("digest.{name}"), digest);
        }
    });
    let secs: Vec<f64> = exhibit_s.iter().map(|(_, s)| *s).collect();
    let residual = spans::residual(wall_s, &secs);
    if residual > MAX_RESIDUAL {
        report.fail(format!(
            "exhibit spans leave {:.1} % of the pass uncovered",
            residual * 100.0
        ));
    }
    Pass { wall_s, exhibit_s }
}

/// The end-to-end samples one timed pass contributes. `wall_s` is native;
/// throughput and the latency percentiles are the per-exhibit view of the
/// same pass (p99 of 21 exhibits is the slowest one).
pub fn sample_pass(report: &mut ChildReport, p: &Pass) {
    let ms: Vec<f64> = p.exhibit_s.iter().map(|(_, s)| s * 1e3).collect();
    report.sample("wall_s", p.wall_s);
    report.sample("throughput_rps", ms.len() as f64 / p.wall_s);
    report.sample("latency_p50_ms", stats::quantile(&ms, 0.50).unwrap());
    report.sample("latency_p99_ms", stats::quantile(&ms, 0.99).unwrap());
}

/// `exhibits-cold`: the process's first pass is the measurement. One
/// window only — a second pass in this process would be warm. Returns the
/// window's cost (seconds per pass), like `warm`.
pub fn cold(tracer: &mut Tracer, goldens: Option<&Goldens>, report: &mut ChildReport) -> Vec<f64> {
    let p = pass(tracer, goldens, report);
    sample_pass(report, &p);
    vec![p.wall_s]
}

/// `exhibits-warm`, after the untimed first pass has filled the workload
/// cache (that pass is the setup): each window runs whole passes until
/// its time is up, at least one. `windows` holds, per window, whether
/// spans are on; returns the median seconds per pass of each window.
pub fn warm(
    tracer: &mut Tracer,
    goldens: Option<&Goldens>,
    report: &mut ChildReport,
    windows: &[bool],
    window: Duration,
) -> Vec<f64> {
    windows
        .iter()
        .map(|&traced| {
            tracer.set_on(traced);
            let start = Instant::now();
            let mut walls = Vec::new();
            while walls.is_empty() || start.elapsed() < window {
                let p = pass(tracer, goldens, report);
                sample_pass(report, &p);
                walls.push(p.wall_s);
            }
            stats::median(&walls).unwrap()
        })
        .collect()
}
