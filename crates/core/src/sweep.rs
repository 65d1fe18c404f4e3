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
//! One failure discipline: [`map`] and [`map_with`] are strict. A job
//! panic propagates to the caller, naming the point, once every other job
//! has finished; a figure with a lost point is wrong, so the exhibit
//! fails. Jobs are pure and deterministic, so a panic is a bug that would
//! panic again: nothing is retried, and the maps never inject faults.
//!
//! The one isolated entry point is [`try_run`]: a single job on the
//! calling thread, panic-isolated and subject to the `job-panic` rules of
//! the plan its caller passes. It is `mic-serve`'s per-request isolation, where one client's failing
//! job must answer that request with an error and leave the server up.
//!
//! Jobs may themselves run parallel regions on *other* pools; cross-pool
//! nesting is supported by the runtime. A job must not call back into the
//! sweep that spawned it, but nested `sweep::map` calls are fine — each
//! map drives its own pool.

use crate::fault::{self, FaultClass, FaultPlan};
use mic_runtime::ThreadPool;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// One job lost to a panic.
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
    run_report(threads, items, &f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|failure| panic!("sweep job failed ({failure})")))
        .collect()
}

// ---------------------------------------------------------------------------
// The isolated single job.

/// One isolated job, run once on the calling thread: panic-isolated and
/// subject to `plan`'s `job-panic` injection at site `i`, which the caller
/// numbers (`mic-serve` passes a shard's execution index; the maps pass
/// no plan). A lost job comes back as a [`JobFailure`] whose `point` is
/// `i`.
pub fn try_run<R>(
    plan: Option<&FaultPlan>,
    i: usize,
    f: impl FnOnce() -> R,
) -> Result<R, JobFailure> {
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

// ---------------------------------------------------------------------------
// The engine behind the maps.

type Slot<R> = OnceLock<Result<R, JobFailure>>;

/// Run every job once, panic-isolated, fanned over a fresh pool of
/// `threads` workers or, for one worker or one item, in a plain loop. The
/// output is in input order either way.
fn run_report<T, R, F>(threads: usize, items: &[T], f: &F) -> Vec<Result<R, JobFailure>>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let slots: Vec<Slot<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let run_into_slot = |i: usize| {
        if slots[i].set(try_run(None, i, || f(i, &items[i]))).is_err() {
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
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job ran"))
        .collect()
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

    #[test]
    fn job_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
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

    /// A pure job that panicked would panic again: it runs exactly once,
    /// in a strict map at any worker count and as a lone [`try_run`] alike.
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
        let threads = [1, 4];
        for t in threads {
            let r = panic::catch_unwind(AssertUnwindSafe(|| map_with(t, &items, job)));
            let msg = payload_message(&r.unwrap_err());
            assert!(msg.contains("point 3: panic: deterministic bug"), "{msg}");
        }
        let lone_failures: Vec<usize> = items
            .iter()
            .enumerate()
            .filter_map(|(i, x)| try_run(None, i, || job(i, x)).err())
            .map(|f| f.point)
            .collect();
        assert_eq!(lone_failures, [3]);
        for (i, n) in runs.iter().enumerate() {
            assert_eq!(n.load(Ordering::SeqCst), threads.len() + 1, "job {i}");
        }
    }

    /// [`try_run`] on the calling thread gives the serial values, isolates a
    /// panic to its own call, and injects at exactly the site it is given.
    #[test]
    fn shared_pool_matches_serial_and_is_reusable() {
        let items: Vec<u64> = (0..97).collect();
        let f = |i: usize, &x: &u64| x * 3 + i as u64;
        let serial = map_serial(&items, f);
        type Job<'a> = &'a dyn Fn(usize, &u64) -> u64;
        let lone = |plan: Option<&FaultPlan>, g: Job| -> Vec<Result<u64, JobFailure>> {
            items
                .iter()
                .enumerate()
                .map(|(i, x)| try_run(plan, i, || g(i, x)))
                .collect()
        };
        for _ in 0..3 {
            let got: Vec<u64> = lone(None, &f).into_iter().map(Result::unwrap).collect();
            assert_eq!(got, serial);
        }
        // A panic fails its own call only, and the next calls run as before.
        let results = lone(None, &|_, &x| {
            if x == 13 {
                panic!("bad point");
            }
            x
        });
        let failures: Vec<&JobFailure> = results.iter().filter_map(|r| r.as_ref().err()).collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].point, 13);
        assert!(failures[0].message.contains("bad point"), "{}", failures[0]);
        assert!(lone(None, &f).iter().all(Result::is_ok));
        // The injection site is the caller's number, not a position.
        let plan = FaultPlan::parse("1:job-panic#40").unwrap();
        let injected = lone(Some(&plan), &f);
        let hit: Vec<usize> = injected
            .iter()
            .filter_map(|r| r.as_ref().err())
            .map(|f| f.point)
            .collect();
        assert_eq!(hit, [40]);
    }

    /// The maps take no plan: a plan that fails every lone job at these
    /// sites leaves a strict map over the same sites untouched.
    #[test]
    fn strict_map_ignores_fault_injection() {
        let items: Vec<usize> = (0..16).collect();
        let plan = FaultPlan::parse("9:job-panic@1.0").unwrap();
        assert!(items
            .iter()
            .all(|&i| try_run(Some(&plan), i, || i).is_err()));
        let out = map_with(4, &items, |_, &x| x + 1);
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }
}
