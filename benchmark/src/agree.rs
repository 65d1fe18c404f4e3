//! `mic-perf agree A.json B.json`: do two result files tell the same
//! story? Every end-to-end metric of every workload is compared against
//! its regression bound; exact values (counts of fixed-length phases,
//! chunk counts, output digests) must be identical.

use crate::catalogue;
use crate::report::{RunResult, WorkloadResult};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Medians within the bound, and the runs steady enough to say so.
    Same,
    /// Medians further apart than the bound.
    Differs,
    /// A run's own spread exceeds the bound: it cannot resolve a change
    /// of that size either way.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Differs => "differs",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare one metric's samples from the two files.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Differs;
    };
    if stats::spread(a).max(stats::spread(b)) > bound {
        Verdict::Unresolved
    } else if (mb - ma).abs() <= bound * ma.abs() {
        Verdict::Same
    } else {
        Verdict::Differs
    }
}

/// Print the comparison; returns whether nothing differs.
pub fn compare(a: &RunResult, b: &RunResult) -> bool {
    let mut agree = true;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("== {}: only in the first file", wa.name);
            agree = false;
            continue;
        };
        println!("== {}", wa.name);
        agree &= compare_workload(wa, wb);
    }
    agree
}

fn compare_workload(a: &WorkloadResult, b: &WorkloadResult) -> bool {
    let mut agree = true;
    if a.failed_ops + b.failed_ops > 0 {
        println!("   failed_ops {} / {}: differs", a.failed_ops, b.failed_ops);
        agree = false;
    }
    println!(
        "   {:<18} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "metric", "median A", "median B", "spread A", "spread B", "bound"
    );
    for d in catalogue::end_to_end() {
        let find = |w: &WorkloadResult| w.end_to_end.iter().find(|m| m.name == d.name).cloned();
        let (Some(ma), Some(mb)) = (find(a), find(b)) else {
            println!("   {:<18} missing from a file: differs", d.name);
            agree = false;
            continue;
        };
        let bound = d.bound.expect("end-to-end metrics have bounds");
        let v = verdict(&ma.samples, &mb.samples, bound);
        agree &= v != Verdict::Differs;
        println!(
            "   {:<18} {:>14.6} {:>14.6} {:>8.4} {:>8.4} {:>6.2}  {}",
            d.name,
            ma.median(),
            mb.median(),
            stats::spread(&ma.samples),
            stats::spread(&mb.samples),
            bound,
            v.name()
        );
    }
    let mut unequal = 0;
    for (k, va) in &a.exact {
        if let Some(vb) = b.exact.get(k).filter(|vb| *vb != va) {
            println!("   exact {k}: {va} / {vb}: differs");
            unequal += 1;
        }
    }
    let shared = a.exact.keys().filter(|k| b.exact.contains_key(*k)).count();
    println!("   exact values: {shared} shared, {unequal} unequal");
    agree && unequal == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&steady, &[104.0, 105.0, 103.0], 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&steady, &[120.0, 121.0, 119.0], 0.10),
            Verdict::Differs
        );
        assert_eq!(
            verdict(&steady, &[80.0, 81.0, 79.0], 0.10),
            Verdict::Differs
        );
        // A run spread wider than the bound resolves nothing, whichever
        // way its median fell.
        assert_eq!(
            verdict(&steady, &[100.0, 130.0, 70.0], 0.10),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&steady, &[], 0.10), Verdict::Differs);
    }

    #[test]
    fn exact_values_must_match() {
        let w = |chunks: &str| WorkloadResult {
            name: "w".into(),
            end_to_end: catalogue::end_to_end()
                .iter()
                .map(|d| crate::report::Metric {
                    name: d.name.clone(),
                    unit: d.unit.into(),
                    samples: vec![1.0, 1.01, 0.99],
                })
                .collect(),
            exact: [("sim.chunks.cilk".to_string(), chunks.to_string())].into(),
            ..WorkloadResult::default()
        };
        assert!(compare_workload(&w("10"), &w("10")));
        assert!(!compare_workload(&w("10"), &w("11")));
    }
}
