//! The observability-off guarantee: with metrics disabled the figure
//! pipeline's numeric outputs are bit-identical to an uninstrumented
//! build, and *enabling* metrics never changes the numbers either — the
//! registry observes the computation, it must not participate in it.
//!
//! Own test binary: metrics enablement is process-global, so these tests
//! must not share a process with tests that assume metrics are off.
//! Everything serializes through `with_session`.

use mic_eval::experiments::fig2::fig2;
use mic_eval::graph::suite::Scale;
use mic_eval::series::Figure;
use mic_eval::sweep;

fn figure_bits(fig: &Figure) -> Vec<(String, Vec<u64>)> {
    fig.series
        .iter()
        .map(|s| (s.label.clone(), s.y.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

#[test]
fn figure_outputs_are_bit_identical_with_metrics_on_and_off() {
    let scale = Scale::Fraction(512);
    // The baseline leg runs inside the session too, switched off by hand:
    // outside it, its sweep jobs and engine runs would be recorded by
    // whichever other test's session happens to be open.
    let ((off, on), snap) = mic_eval::metrics::with_session(|| {
        mic_eval::metrics::set_enabled(false);
        let off = figure_bits(&fig2(scale));
        mic_eval::metrics::set_enabled(true);
        (off, figure_bits(&fig2(scale)))
    });
    assert_eq!(off, on, "metrics must not perturb figure values");
    // The instrumented leg really was instrumented: the sim layer ran.
    assert!(snap.family_total("mic_sim_runs_total") > 0.0);
    assert!(snap.self_check().is_empty(), "{:?}", snap.self_check());
    let _ = sweep::take_failures();
}

#[test]
fn sweep_results_are_bit_identical_under_metrics() {
    let items: Vec<u64> = (0..64).collect();
    let f = |i: usize, &x: &u64| (x as f64).sqrt() * 1e-3 + i as f64;
    let run = || -> Vec<u64> { sweep::map(&items, f).iter().map(|v| v.to_bits()).collect() };
    let ((off, on), snap) = mic_eval::metrics::with_session(|| {
        mic_eval::metrics::set_enabled(false);
        let off = run();
        mic_eval::metrics::set_enabled(true);
        (off, run())
    });
    assert_eq!(off, on);
    assert_eq!(
        snap.value("mic_sweep_jobs_total", &[]),
        Some(items.len() as f64)
    );
}
