//! Chaos matrix for the isolated sweep: under `job-panic` injection and
//! several seeds, a sweep must still complete, report each lost point
//! exactly once, and leave every surviving point bit-identical to the
//! fault-free run. CI drives it under `MIC_FAULT` too: the environment's
//! plan joins the matrix as one more input.

use mic_eval::fault::{with_plan, FaultPlan};
use mic_eval::sweep;
use std::sync::Mutex;

/// Plans are process-global; serialize the whole file so the no-plan test
/// can never observe a neighbour's installed schedule.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A deterministic job with enough floating-point work that any corruption
/// of the result would show up in the bit pattern.
fn job(i: usize, x: &u64) -> f64 {
    let mut acc = (*x as f64).sqrt() + i as f64;
    for k in 1..20u64 {
        acc += ((*x + k) as f64).ln() * 0.125;
    }
    acc
}

fn items() -> Vec<u64> {
    (1..=24u64).map(|v| v * 37 + 5).collect()
}

const THREADS: usize = 4;

/// Fault-free reference, computed serially.
fn baseline(items: &[u64]) -> Vec<f64> {
    sweep::map_serial(items, job)
}

#[test]
fn matrix_completes_and_successes_are_bit_identical() {
    let _guard = serial();
    let items = items();
    let base = baseline(&items);
    let mut plans = Vec::new();
    for seed in [1u64, 7, 42] {
        for spec in [
            "job-panic@0.2",
            "job-panic@0.3",
            "job-panic@0.1,job-panic#5",
        ] {
            let spec = format!("{seed}:{spec}");
            plans.push((FaultPlan::parse(&spec).expect("valid spec"), spec));
        }
    }
    // The plan `MIC_FAULT` configured, if any (the CI chaos leg).
    if let Some(env) = mic_eval::config::current().fault.clone() {
        plans.push((env, "MIC_FAULT".to_string()));
    }
    for (plan, spec) in plans {
        let report = with_plan(plan, || sweep::try_map_with(THREADS, &items, job));
        assert_eq!(
            report.results.len(),
            items.len(),
            "spec {spec}: sweep must cover every point"
        );
        // Every lost point is reported exactly once; every reported
        // point is actually lost.
        let lost: Vec<usize> = report
            .results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_none().then_some(i))
            .collect();
        let mut reported: Vec<usize> = report.failures.iter().map(|f| f.point).collect();
        reported.sort_unstable();
        reported.dedup();
        assert_eq!(
            reported.len(),
            report.failures.len(),
            "spec {spec}: duplicate failure records"
        );
        assert_eq!(
            lost, reported,
            "spec {spec}: failures must match the None points"
        );
        // Survivors are bit-identical to the fault-free run.
        for (i, r) in report.results.iter().enumerate() {
            if let Some(v) = r {
                assert_eq!(
                    v.to_bits(),
                    base[i].to_bits(),
                    "spec {spec}: point {i} drifted under faults"
                );
            }
        }
    }
}

#[test]
fn same_seed_reproduces_the_same_schedule() {
    let _guard = serial();
    let items = items();
    let run = || {
        let plan = FaultPlan::parse("42:job-panic@0.35").unwrap();
        with_plan(plan, || sweep::try_map_with(THREADS, &items, job))
    };
    let (a, b) = (run(), run());
    let pattern = |r: &sweep::SweepReport<f64>| -> Vec<Option<u64>> {
        r.results.iter().map(|v| v.map(f64::to_bits)).collect()
    };
    assert_eq!(
        pattern(&a),
        pattern(&b),
        "same seed must fail the same points"
    );
    assert_eq!(a.failures, b.failures);
    // And a different seed produces a different schedule (with 24 points
    // at 35% the chance of an identical pattern is negligible).
    let other = with_plan(FaultPlan::parse("43:job-panic@0.35").unwrap(), || {
        sweep::try_map_with(THREADS, &items, job)
    });
    assert_ne!(pattern(&a), pattern(&other), "seed must matter");
}

/// The acceptance scenario from the failure-model spec: one point forced
/// to panic. The sweep completes the rest and reports the loss as one
/// structured record.
#[test]
fn forced_panic_point_degrades_cleanly() {
    let _guard = serial();
    let items = items();
    let base = baseline(&items);
    let plan = FaultPlan::parse("7:job-panic#3").unwrap();
    let report = with_plan(plan, || sweep::try_map_with(THREADS, &items, job));
    assert_eq!(report.results.len(), items.len());
    for (i, r) in report.results.iter().enumerate() {
        match i {
            3 => assert!(r.is_none(), "targeted point {i} must be lost"),
            _ => assert_eq!(
                r.expect("untargeted point must survive").to_bits(),
                base[i].to_bits()
            ),
        }
    }
    assert_eq!(report.failures.len(), 1);
    let panic_rec = &report.failures[0];
    assert_eq!(panic_rec.point, 3);
    assert!(
        panic_rec.message.contains("sweep point 3"),
        "the record should carry the injected message, got {panic_rec}"
    );
}

#[test]
fn no_plan_is_bit_identical_with_no_failures() {
    let _guard = serial();
    let items = items();
    let base = baseline(&items);
    // A zero-rate plan never fires; installing it also masks any plan the
    // environment provided (CI runs this binary under MIC_FAULT), so the
    // sweep below really does run fault-free.
    let never = FaultPlan::parse("1:job-panic@0.0").unwrap();
    let report = with_plan(never, || sweep::try_map_with(THREADS, &items, job));
    assert!(report.failures.is_empty());
    let got: Vec<u64> = report
        .results
        .into_iter()
        .map(|r| r.expect("no faults, no losses").to_bits())
        .collect();
    let want: Vec<u64> = base.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);
}

/// `map_degraded` under injection: full-length output, fallback values at
/// the lost points, and the failures land in the global registry under
/// the caller's context label.
#[test]
fn map_degraded_records_failures_under_context() {
    let _guard = serial();
    let items = items();
    let base = baseline(&items);
    let plan = FaultPlan::parse("11:job-panic#5").unwrap();
    let out = with_plan(plan, || {
        sweep::with_context("fault-matrix-test", || {
            sweep::map_degraded(&items, job, |_, _| f64::NAN)
        })
    });
    assert_eq!(out.len(), items.len());
    assert!(out[5].is_nan(), "lost point must take the fallback");
    for (i, v) in out.iter().enumerate() {
        if i != 5 {
            assert_eq!(v.to_bits(), base[i].to_bits());
        }
    }
    let recorded = sweep::take_failures();
    let ours: Vec<_> = recorded
        .iter()
        .filter(|r| r.context == "fault-matrix-test")
        .collect();
    assert_eq!(
        ours.len(),
        1,
        "exactly one recorded failure, got {recorded:?}"
    );
    assert_eq!(ours[0].failure.point, 5);
    assert!(sweep::take_failures().is_empty(), "take must drain");
}
