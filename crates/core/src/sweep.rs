//! Parallel sweep harness for the experiment drivers.
//!
//! Every figure is a cross-product — (variant × graph × thread-grid) — of
//! *independent, pure* simulation jobs. This module fans those jobs out
//! over `mic-runtime`'s own [`ThreadPool`] (the reproduction's parallel
//! runtime drives its own evaluation) while keeping the output
//! **deterministic**: each job writes its result into the slot indexed by
//! its input position, so the assembled vector is identical for any worker
//! count and any interleaving — bit-for-bit equal to the serial reference
//! (see `tests/sweep_determinism.rs`).
//!
//! Worker count comes from `MIC_SWEEP_THREADS` (default: the machine's
//! available parallelism, capped at 16). `MIC_SWEEP_THREADS=1` forces the
//! plain serial loop, which is also used automatically for empty and
//! single-item inputs.
//!
//! Two failure disciplines:
//!
//! - **Strict** ([`map`], [`map_with`]): a panicking job propagates to the
//!   caller, as a plain `rayon`-style harness would. Used where a partial
//!   result is useless (workload construction).
//! - **Isolated** ([`try_map_with`], [`map_degraded`], and [`try_run`] for
//!   one job on the calling thread): every job runs once under
//!   `catch_unwind`; a job that panics is reported as a structured
//!   [`JobFailure`] — the sweep completes every other point. Jobs are pure
//!   and deterministic, so a panic is a bug that would panic again:
//!   nothing is retried. This path is also the only one subject to
//!   `MIC_FAULT` injection (see [`crate::fault`]), so figure sweeps degrade
//!   under chaos testing while workload builders stay exact.
//!
//! Jobs may themselves run parallel regions on *other* pools (the native
//! kernels in `experiments::extras` do); cross-pool nesting is supported
//! by the runtime. A job must not call back into the sweep that spawned
//! it, but nested `sweep::map` calls are fine — each map drives its own
//! pool.

use crate::fault::{self, FaultClass, FaultPlan};
use mic_runtime::ThreadPool;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Worker count for [`map`]: the installed [`crate::config`]'s
/// `sweep_threads` (from `MIC_SWEEP_THREADS` or the builder), otherwise
/// available parallelism capped at 16. A set-but-unusable env value
/// (unparsable, or `0`) is rejected with a one-line warning on stderr —
/// silently falling back used to make `MIC_SWEEP_THREADS=O` typos
/// indistinguishable from the default.
pub fn default_threads() -> usize {
    crate::config::current().effective_sweep_threads()
}

// ---------------------------------------------------------------------------
// Failure records.

/// One sweep point lost to a panicking job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobFailure {
    /// Input index of the failed job.
    pub point: usize,
    /// The panic payload message.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "point {}: panic: {}", self.point, self.message)
    }
}

/// Result of an isolated sweep: per-point values (`None` where the job
/// panicked) plus the structured failure records, in point order.
#[derive(Debug)]
pub struct SweepReport<R> {
    pub results: Vec<Option<R>>,
    pub failures: Vec<JobFailure>,
}

impl<R> SweepReport<R> {
    /// Replace failed points with `fallback(index)`, consuming the report.
    pub fn into_degraded(self, mut fallback: impl FnMut(usize) -> R) -> Vec<R> {
        self.results
            .into_iter()
            .enumerate()
            .map(|(i, v)| v.unwrap_or_else(|| fallback(i)))
            .collect()
    }

    /// All points succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Global failure registry: figure drivers record their degraded points
// here (labelled with the exhibit being built, see [`with_context`]) and
// the bench binaries drain it for their failure-summary footers and
// `BENCH_sweep.json`.

/// A [`JobFailure`] plus the sweep-context label active when it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedFailure {
    /// e.g. `"fig1"` — empty when no context was set.
    pub context: String,
    pub failure: JobFailure,
}

fn registry() -> &'static Mutex<Vec<RecordedFailure>> {
    static REGISTRY: OnceLock<Mutex<Vec<RecordedFailure>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Drain every failure recorded (by [`map_degraded`]) since the last call.
pub fn take_failures() -> Vec<RecordedFailure> {
    std::mem::take(&mut *registry().lock().unwrap_or_else(|e| e.into_inner()))
}

thread_local! {
    static CONTEXT: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
}

/// Run `f` with `label` as the sweep-context label (attached to any
/// failure recorded on this thread). Restores the previous label.
pub fn with_context<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let previous = CONTEXT.with(|c| std::mem::replace(&mut *c.borrow_mut(), label.to_string()));
    let result = f();
    CONTEXT.with(|c| *c.borrow_mut() = previous);
    result
}

fn current_context() -> String {
    CONTEXT.with(|c| c.borrow().clone())
}

// ---------------------------------------------------------------------------
// Strict maps.

/// `f` applied to every item, results in input order, fanned out over
/// [`default_threads`] workers. Strict: a job panic propagates (after the
/// other jobs finish); never subject to fault injection.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    map_with(default_threads(), items, f)
}

/// The serial reference: a plain in-order loop. [`map_with`] must produce
/// exactly this, for any worker count.
pub fn map_serial<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    F: Fn(usize, &T) -> R,
{
    items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
}

/// `f` applied to every item on `threads` pool workers, results in input
/// order. Jobs are claimed dynamically (an atomic cursor), so stragglers
/// do not serialize the sweep; each result lands in its input-index slot,
/// making the output independent of the execution interleaving.
///
/// Strict failure discipline: if any job panicked, this panics with a
/// message naming the job and cause, once every other job has finished.
pub fn map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let report = run_report(threads, None, items, &f);
    if let Some(failure) = report.failures.first() {
        panic!("sweep job failed ({failure})");
    }
    report
        .results
        .into_iter()
        .map(|s| s.expect("no failure recorded, so every slot is filled"))
        .collect()
}

// ---------------------------------------------------------------------------
// Isolated maps.

/// The plan the isolated entry points inject from: whatever is active,
/// after giving the environment (`MIC_FAULT`, `MIC_METRICS`) its chance.
fn active_plan() -> Option<Arc<FaultPlan>> {
    fault::init_from_env();
    crate::metrics::init_from_env();
    fault::active()
}

/// Isolated sweep on `threads` pool workers: every job runs once,
/// panic-isolated; lost points come back as [`JobFailure`] records instead
/// of aborting the sweep. Subject to `MIC_FAULT` injection.
pub fn try_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> SweepReport<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    run_report(threads, active_plan(), items, &f)
}

/// One isolated job, run once on the calling thread: panic-isolated and
/// subject to `job-panic` injection at `site`, which the caller numbers
/// (`mic-serve` passes a shard's execution index). A lost job comes back
/// as a [`JobFailure`] whose `point` is `site`.
pub fn try_run<R>(site: usize, f: impl FnOnce() -> R) -> Result<R, JobFailure> {
    run_job(active_plan().as_deref(), site, f)
}

/// Isolated sweep for figure drivers: failed points degrade to
/// `fallback(index, item)` (typically NaN-shaped), the failures are
/// recorded in the global registry under the current [`with_context`]
/// label, and the sweep always returns a full-length vector.
pub fn map_degraded<T, R, F, G>(items: &[T], f: F, fallback: G) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
    G: Fn(usize, &T) -> R,
{
    let report = try_map_with(default_threads(), items, f);
    if !report.failures.is_empty() {
        let context = current_context();
        let label = if context.is_empty() {
            "sweep"
        } else {
            &context
        };
        for failure in &report.failures {
            eprintln!("mic-eval: {label}: degraded {failure}");
        }
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.extend(report.failures.iter().map(|failure| RecordedFailure {
            context: context.clone(),
            failure: failure.clone(),
        }));
    }
    report.into_degraded(|i| fallback(i, &items[i]))
}

// ---------------------------------------------------------------------------
// The engine shared by both disciplines.

type Slot<R> = OnceLock<Result<R, JobFailure>>;

/// Run every job once, panic-isolated (and, given a `plan`, subject to
/// `job-panic` injection), fanned over a fresh pool of `threads` workers
/// or, for one worker or one item, in a plain loop. The output is in
/// input order either way.
fn run_report<T, R, F>(
    threads: usize,
    plan: Option<Arc<FaultPlan>>,
    items: &[T],
    f: &F,
) -> SweepReport<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let plan = plan.as_deref();
    let slots: Vec<Slot<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let run_into_slot = |i: usize| {
        if slots[i].set(run_job(plan, i, || f(i, &items[i]))).is_err() {
            unreachable!("sweep slot {i} claimed twice");
        }
    };
    if items.len() > 1 && threads > 1 {
        let pool = ThreadPool::new(threads.min(items.len()));
        let next = AtomicUsize::new(0);
        pool.run(|_ctx| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            run_into_slot(i);
        });
    } else {
        (0..items.len()).for_each(run_into_slot);
    }
    let mut results = Vec::with_capacity(items.len());
    let mut failures = Vec::new();
    for slot in slots {
        match slot.into_inner().expect("every job ran") {
            Ok(v) => results.push(Some(v)),
            Err(failure) => {
                failures.push(failure);
                results.push(None);
            }
        }
    }
    SweepReport { results, failures }
}

/// One job, once: injection at site `i`, then panic isolation.
fn run_job<R>(plan: Option<&FaultPlan>, i: usize, f: impl FnOnce() -> R) -> Result<R, JobFailure> {
    let metrics_on = crate::metrics::enabled();
    if metrics_on {
        crate::metrics::counter("mic_sweep_jobs_total", "Sweep jobs started.", &[]).inc();
    }
    let outcome = if plan.is_some_and(|p| p.fires(FaultClass::JobPanic, i as u64)) {
        fault::count_injection_at(FaultClass::JobPanic, i as u64);
        Err(format!("mic-fault: injected job-panic at sweep point {i}"))
    } else {
        panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| payload_message(&p))
    };
    outcome.map_err(|message| {
        if metrics_on {
            crate::metrics::counter(
                "mic_sweep_failures_total",
                "Sweep jobs lost to a panic.",
                &[],
            )
            .inc();
        }
        if mic_obs::enabled() {
            mic_obs::flight::record(mic_obs::flight::EventKind::SweepFailure, i as u64, 0, 0);
        }
        JobFailure { point: i, message }
    })
}

fn payload_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_matches_serial_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, &x: &u64| -> u64 { x * x + i as u64 };
        let serial = map_serial(&items, f);
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(map_with(threads, &items, f), serial, "threads={threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let n = 100;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        let out = map_with(7, &items, |i, &x| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, items);
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_with(8, &empty, |_, &x| x).is_empty());
        assert_eq!(map_with(8, &[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn nested_maps_use_distinct_pools() {
        let outer: Vec<usize> = (0..4).collect();
        let sums = map_with(2, &outer, |_, &base| {
            let inner: Vec<usize> = (0..8).collect();
            map_with(2, &inner, |_, &x| base * 100 + x)
                .iter()
                .sum::<usize>()
        });
        let expect: Vec<usize> = (0..4)
            .map(|b| (0..8).map(|x| b * 100 + x).sum::<usize>())
            .collect();
        assert_eq!(sums, expect);
    }

    // MIC_SWEEP_THREADS grammar is pinned in `crate::env::tests`
    // (`positive_usize_grammar`), where the shared parser now lives.

    #[test]
    fn job_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_with(4, &items, |_, &x| {
                if x == 9 {
                    panic!("job failure");
                }
                x
            })
        }));
        let msg = payload_message(&r.unwrap_err());
        assert!(
            msg.contains("point 9") && msg.contains("job failure"),
            "strict map must name the failed job: {msg}"
        );
    }

    #[test]
    fn try_map_isolates_panics_and_reports_once() {
        let items: Vec<usize> = (0..32).collect();
        for threads in [1, 4] {
            let report = try_map_with(threads, &items, |_, &x| {
                if x == 5 || x == 20 {
                    panic!("bad point {x}");
                }
                x * 2
            });
            assert_eq!(report.results.len(), 32);
            let failed: Vec<usize> = report.failures.iter().map(|f| f.point).collect();
            assert_eq!(failed, vec![5, 20], "threads={threads}");
            for f in &report.failures {
                assert!(f.message.contains("bad point"), "{f}");
            }
            for (i, v) in report.results.iter().enumerate() {
                if i == 5 || i == 20 {
                    assert!(v.is_none());
                } else {
                    assert_eq!(*v, Some(i * 2));
                }
            }
        }
    }

    /// A pure job that panicked would panic again: it runs exactly once,
    /// by worker count and as a lone [`try_run`] alike.
    #[test]
    fn a_panicking_job_is_executed_exactly_once() {
        let items: Vec<usize> = (0..8).collect();
        let runs: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        let job = |i: usize, &x: &usize| -> usize {
            runs[i].fetch_add(1, Ordering::SeqCst);
            if x == 3 {
                panic!("deterministic bug");
            }
            x
        };
        let reports = [try_map_with(1, &items, job), try_map_with(4, &items, job)];
        for report in &reports {
            assert_eq!(report.failures.len(), 1);
            assert_eq!(report.failures[0].point, 3);
        }
        let lone_failures: Vec<usize> = items
            .iter()
            .enumerate()
            .filter_map(|(i, x)| try_run(i, || job(i, x)).err())
            .map(|f| f.point)
            .collect();
        assert_eq!(lone_failures, [3]);
        for (i, n) in runs.iter().enumerate() {
            assert_eq!(n.load(Ordering::SeqCst), reports.len() + 1, "job {i}");
        }
    }

    #[test]
    fn map_degraded_fills_fallbacks_and_records() {
        let _ = take_failures();
        let items: Vec<usize> = (0..8).collect();
        let out = with_context("unit-test", || {
            crate::fault::with_plan(
                FaultPlan::at_index(1, crate::fault::FaultClass::JobPanic, 3),
                || map_degraded(&items, |_, &x| x as f64, |_, _| f64::NAN),
            )
        });
        assert_eq!(out.len(), 8);
        assert!(out[3].is_nan(), "failed point degrades to the fallback");
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, v)| i == 3 || *v == i as f64));
        let recorded = take_failures();
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0].context, "unit-test");
        assert_eq!(recorded[0].failure.point, 3);
        assert!(take_failures().is_empty(), "take drains the registry");
    }

    /// [`try_run`] on the calling thread gives the serial values, isolates a
    /// panic to its own call, and injects at exactly the site it is given.
    #[test]
    fn shared_pool_matches_serial_and_is_reusable() {
        let items: Vec<u64> = (0..97).collect();
        let f = |i: usize, &x: &u64| x * 3 + i as u64;
        let serial = map_serial(&items, f);
        let lone = |g: &dyn Fn(usize, &u64) -> u64| -> Vec<Result<u64, JobFailure>> {
            items
                .iter()
                .enumerate()
                .map(|(i, x)| try_run(i, || g(i, x)))
                .collect()
        };
        for _ in 0..3 {
            let got: Vec<u64> = lone(&f).into_iter().map(Result::unwrap).collect();
            assert_eq!(got, serial);
        }
        // A panic fails its own call only, and the next calls run as before.
        let results = lone(&|_, &x| {
            if x == 13 {
                panic!("bad point");
            }
            x
        });
        let failures: Vec<&JobFailure> = results.iter().filter_map(|r| r.as_ref().err()).collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].point, 13);
        assert!(failures[0].message.contains("bad point"), "{}", failures[0]);
        assert!(lone(&f).iter().all(Result::is_ok));
        // The injection site is the caller's number, not a position.
        let plan = FaultPlan::at_index(1, crate::fault::FaultClass::JobPanic, 40);
        let injected = crate::fault::with_plan(plan, || lone(&f));
        let hit: Vec<usize> = injected
            .iter()
            .filter_map(|r| r.as_ref().err())
            .map(|f| f.point)
            .collect();
        assert_eq!(hit, [40]);
    }

    #[test]
    fn strict_map_ignores_fault_injection() {
        let items: Vec<usize> = (0..16).collect();
        let out = crate::fault::with_plan(
            FaultPlan::with_rate(9, crate::fault::FaultClass::JobPanic, 1.0),
            || map_with(4, &items, |_, &x| x + 1),
        );
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn injected_panics_hit_try_map_deterministically() {
        let items: Vec<usize> = (0..64).collect();
        let plan = FaultPlan::with_rate(77, crate::fault::FaultClass::JobPanic, 0.25);
        let run = || crate::fault::with_plan(plan.clone(), || try_map_with(4, &items, |_, &x| x));
        let a = run();
        let b = run();
        assert!(!a.failures.is_empty(), "rate 0.25 over 64 jobs must fire");
        assert_eq!(a.failures, b.failures, "same seed, same failed points");
        let fail_set: Vec<usize> = a.failures.iter().map(|f| f.point).collect();
        for (i, v) in a.results.iter().enumerate() {
            assert_eq!(v.is_none(), fail_set.contains(&i));
        }
    }
}
