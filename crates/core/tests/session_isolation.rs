//! Two metrics sessions open at once in one process, beside work that runs
//! in no session. Each session sees exactly its own counts and its own
//! faults; the un-sessioned work records into neither and returns the same
//! bits it returns alone.

use mic_eval::fault::FaultPlan;
use mic_eval::metrics::{self, with_session, Snapshot};
use mic_eval::runtime::{parallel_for_chunks, Schedule, ThreadPool};
use mic_eval::sim::{simulate, simulate_region, Machine, Policy, Region, Work};
use mic_eval::sweep;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

#[test]
fn concurrent_sessions_see_only_their_own_work() {
    let m = Machine::knf();
    let w = Work {
        issue: 5.0,
        dram: 1.0,
        ..Default::default()
    };
    let regions = vec![Region::new(vec![w; 2_000], Policy::OmpDynamic { chunk: 64 }); 5];
    let five_regions = || -> Vec<u64> {
        let report = simulate(&m, 31, &regions);
        report.region_cycles.iter().map(|c| c.to_bits()).collect()
    };
    // `7:job-panic@0.2` fires at these of the first 24 sites (pinned in
    // `fault::tests::committed_seed_schedules_are_pinned`).
    let plan = FaultPlan::parse("7:job-panic@0.2").unwrap();
    let fired = [0, 5, 10, 12, 17, 23];
    // Both sessions and the un-sessioned thread are running before any of
    // them does its work.
    let all_in = Barrier::new(3);

    let ((a_bits, a), (b_failed, b), (outside_bits, outside_sum)) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            with_session(|| {
                all_in.wait();
                sweep::map(&[0u64; 64], |_, &x| x + 1);
                five_regions()
            })
        });
        let b = s.spawn(|| {
            with_session(|| {
                all_in.wait();
                sweep::map(&[0u64; 10], |_, &x| x + 1);
                let failed = |&k: &usize| sweep::try_run(Some(&plan), k, || k).is_err();
                (0..24).filter(failed).collect::<Vec<usize>>()
            })
        });
        let outside = s.spawn(|| {
            all_in.wait();
            // The runtime metrics test's "off" leg: 100 dynamic chunks.
            let pool = ThreadPool::new(4);
            let sum = AtomicU64::new(0);
            parallel_for_chunks(
                &pool,
                0..10_000,
                Schedule::Dynamic { chunk: 100 },
                |r, _| {
                    sum.fetch_add(r.map(|i| i as u64).sum::<u64>(), Ordering::Relaxed);
                },
            );
            (five_regions(), sum.into_inner())
        });
        (
            a.join().unwrap(),
            b.join().unwrap(),
            outside.join().unwrap(),
        )
    });

    let jobs = |snap: &Snapshot| snap.value("mic_sweep_jobs_total", &[]);
    let omp_dynamic = |snap: &Snapshot| {
        let labels = [("runtime", "omp"), ("sched", "dynamic")];
        snap.value("mic_runtime_chunks_total", &labels)
    };
    assert_eq!(jobs(&a), Some(64.0));
    assert_eq!(a.value("mic_sim_runs_total", &[]), Some(5.0));
    assert_eq!(a.family_total("mic_fault_injections_total"), 0.0);
    assert_eq!(omp_dynamic(&a), None);

    assert_eq!(b_failed, fired);
    assert_eq!(jobs(&b), Some(10.0 + 24.0));
    let job_panics = b.value("mic_fault_injections_total", &[("class", "job-panic")]);
    assert_eq!(job_panics, Some(fired.len() as f64));
    assert_eq!(b.value("mic_sim_runs_total", &[]), None);
    assert_eq!(omp_dynamic(&b), None);

    // The un-sessioned work ran with the default off, and got what it
    // gets alone.
    assert!(!metrics::enabled());
    let alone = simulate_region(&m, 31, &regions[0]).to_bits();
    assert_eq!(outside_bits, [alone; 5]);
    assert_eq!(a_bits, [alone; 5]);
    assert_eq!(outside_sum, (0..10_000u64).sum::<u64>());
}
