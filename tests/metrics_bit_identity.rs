//! The observability-off guarantee: with metrics disabled the figure
//! pipeline's numeric outputs are bit-identical to an uninstrumented
//! build, and *enabling* metrics never changes the numbers either — the
//! registry observes the computation, it must not participate in it.
//!
//! Each "on" leg records into its own session; the baseline leg runs
//! outside every session, with the process default off.

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
    assert!(
        !mic_eval::metrics::enabled(),
        "baseline leg must run with metrics off"
    );
    let off = figure_bits(&fig2(scale));
    let (on, snap) = mic_eval::metrics::with_session(|| figure_bits(&fig2(scale)));
    assert_eq!(off, on, "metrics must not perturb figure values");
    // The instrumented leg really was instrumented: the sim layer ran.
    assert!(snap.family_total("mic_sim_runs_total") > 0.0);
    assert!(snap.self_check().is_empty(), "{:?}", snap.self_check());
}

#[test]
fn sweep_results_are_bit_identical_under_metrics() {
    let items: Vec<u64> = (0..64).collect();
    let f = |i: usize, &x: &u64| (x as f64).sqrt() * 1e-3 + i as f64;
    let off: Vec<u64> = sweep::map(&items, f).iter().map(|v| v.to_bits()).collect();
    let (on, snap) = mic_eval::metrics::with_session(|| {
        sweep::map(&items, f)
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>()
    });
    assert_eq!(off, on);
    assert_eq!(
        snap.value("mic_sweep_jobs_total", &[]),
        Some(items.len() as f64)
    );
}
