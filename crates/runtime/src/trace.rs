//! mic-trace, native side: scheduling events from the real runtimes.
//!
//! The simulator's trace (see `mic-sim::trace`) answers "where did the
//! *simulated machine's* time go"; this module answers the companion
//! question for the native runs — which worker executed which chunk, and
//! where work stealing happened. The OpenMP shim records every chunk it
//! hands out, the Cilk/TBB stealing engine additionally records steals,
//! and the pool records each worker's span inside a region.
//!
//! Collection is scoped and off by default: [`capture`] records what its
//! calling thread and the pool regions that thread starts emit, and
//! nothing else, so concurrent captures (parallel tests) and uncaptured
//! work never see each other's events. Every hook is gated on one
//! thread-local read, so the kernels pay nothing measurable when no
//! capture is active.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a native event describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NativeEventKind {
    /// A worker executed one chunk of a parallel loop.
    Chunk { lo: usize, hi: usize },
    /// A worker took a range from the deque of worker `victim`.
    Steal { victim: usize },
    /// One worker's span inside a pool region (`ThreadPool::run`).
    Region { epoch: u64 },
}

/// One native scheduling event. Timestamps are microseconds since the
/// process's trace epoch; instantaneous events have `start_us == end_us`.
#[derive(Clone, Copy, Debug)]
pub struct NativeEvent {
    /// Which runtime shim emitted it ("omp", "cilk", "tbb", "pool").
    pub runtime: &'static str,
    /// Worker id within the pool.
    pub worker: usize,
    pub start_us: f64,
    pub end_us: f64,
    pub kind: NativeEventKind,
}

/// Where one capture collects its events.
pub(crate) type Sink = Arc<Mutex<Vec<NativeEvent>>>;

thread_local! {
    /// The capture this thread records into, if any: set by [`capture`]
    /// on its caller and carried into the pool regions started under it.
    static SINK: RefCell<Option<Sink>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Whether the calling thread records into a capture. The hooks in the
/// runtime shims check this before doing any work.
#[inline]
pub fn enabled() -> bool {
    SINK.with_borrow(Option::is_some)
}

/// The calling thread's capture, to carry into a pool region.
pub(crate) fn current() -> Option<Sink> {
    SINK.with_borrow(Clone::clone)
}

/// Run `f` recording into `sink`, then restore the calling thread's
/// previous capture (on unwind too).
pub(crate) fn with_sink<R>(sink: &Option<Sink>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Sink>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SINK.set(self.0.take());
        }
    }
    let _restore = Restore(SINK.replace(sink.clone()));
    f()
}

/// Run worker `worker`'s share `f` of pool region `epoch` recording into
/// `sink`, and record the worker's span inside the region (a share that
/// panics records none).
pub(crate) fn in_region(sink: &Option<Sink>, epoch: u64, worker: usize, f: impl FnOnce()) {
    with_sink(sink, || {
        let start_us = enabled().then(now_us);
        f();
        if let Some(start_us) = start_us {
            emit(NativeEvent {
                runtime: "pool",
                worker,
                start_us,
                end_us: now_us(),
                kind: NativeEventKind::Region { epoch },
            });
        }
    })
}

/// Microseconds since the process's trace epoch.
pub fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// Record one event (dropped unless the calling thread records into a
/// capture).
pub fn emit(ev: NativeEvent) {
    SINK.with_borrow(|sink| {
        if let Some(sink) = sink {
            sink.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
        }
    });
}

/// Record that `thief` took a range from the deque of worker `victim`.
/// This is the single choke point every stealing runtime reports through,
/// so the metrics layer counts steals here too, labeled by victim.
#[inline]
pub(crate) fn emit_steal(runtime: &'static str, thief: usize, victim: usize) {
    if mic_metrics::enabled() {
        mic_metrics::counter(
            "mic_runtime_steals_total",
            "Work-stealing events observed by the native runtimes, by victim worker",
            &[("runtime", runtime), ("victim", &victim.to_string())],
        )
        .inc();
    }
    if !enabled() {
        return;
    }
    let t = now_us();
    emit(NativeEvent {
        runtime,
        worker: thief,
        start_us: t,
        end_us: t,
        kind: NativeEventKind::Steal { victim },
    });
}

/// Bucket edges for native chunk latencies: 0.1 µs … ≈ 1.7 s.
fn chunk_seconds_buckets() -> Vec<f64> {
    mic_metrics::exp_buckets(1e-7, 4.0, 13)
}

/// Wrap a chunk body so each invocation is timed and recorded when a
/// capture session is active. `sched` names the scheduling discipline
/// that produced the chunk ("static", "dynamic", "guided", "simple",
/// "auto", "affinity") and labels the per-schedule chunk-latency histogram
/// when metrics are enabled.
pub(crate) fn timed_chunk<F>(
    runtime: &'static str,
    sched: &'static str,
    body: F,
) -> impl Fn(Range<usize>, crate::pool::WorkerCtx)
where
    F: Fn(Range<usize>, crate::pool::WorkerCtx),
{
    move |r, ctx| {
        let trace_on = enabled();
        let metrics_on = mic_metrics::enabled();
        if !trace_on && !metrics_on {
            body(r, ctx);
            return;
        }
        let t0 = now_us();
        body(r.clone(), ctx);
        let t1 = now_us();
        if trace_on {
            emit(NativeEvent {
                runtime,
                worker: ctx.id,
                start_us: t0,
                end_us: t1,
                kind: NativeEventKind::Chunk {
                    lo: r.start,
                    hi: r.end,
                },
            });
        }
        if metrics_on {
            let labels = [("runtime", runtime), ("sched", sched)];
            mic_metrics::counter(
                "mic_runtime_chunks_total",
                "Chunks executed by the native runtime shims",
                &labels,
            )
            .inc();
            mic_metrics::histogram(
                "mic_runtime_chunk_seconds",
                "Native chunk execution latency per runtime and schedule",
                &labels,
                &chunk_seconds_buckets(),
            )
            .observe((t1 - t0) * 1e-6);
        }
    }
}

/// Run `f` with native tracing on for the calling thread and the pool
/// regions it starts, and return its result together with every event
/// they emitted while it ran.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<NativeEvent>) {
    let sink = Sink::default();
    let result = with_sink(&Some(Arc::clone(&sink)), f);
    let evs = std::mem::take(&mut *sink.lock().unwrap_or_else(|e| e.into_inner()));
    (result, evs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openmp::{parallel_for_chunks, Schedule};
    use crate::pool::ThreadPool;
    use crate::tbb::{tbb_parallel_for, Partitioner};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn chunk_coverage(evs: &[NativeEvent], runtime: &str, n: usize) -> Vec<bool> {
        let mut seen = vec![false; n];
        for ev in evs {
            if let NativeEventKind::Chunk { lo, hi } = ev.kind {
                if ev.runtime == runtime {
                    assert!(ev.end_us >= ev.start_us);
                    for s in &mut seen[lo..hi] {
                        assert!(!*s, "index covered twice");
                        *s = true;
                    }
                }
            }
        }
        seen
    }

    #[test]
    fn capture_records_openmp_chunks_and_pool_regions() {
        let pool = ThreadPool::new(4);
        let n = 997;
        let hits = AtomicUsize::new(0);
        let ((), evs) = capture(|| {
            parallel_for_chunks(&pool, 0..n, Schedule::Dynamic { chunk: 64 }, |r, _| {
                hits.fetch_add(r.len(), Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), n);
        assert!(chunk_coverage(&evs, "omp", n).into_iter().all(|s| s));
        let regions = evs
            .iter()
            .filter(|e| matches!(e.kind, NativeEventKind::Region { .. }))
            .count();
        assert_eq!(regions, 4, "one region span per worker");
        assert!(!enabled(), "capture must disable tracing on exit");
    }

    #[test]
    fn capture_records_cilk_chunks() {
        let pool = ThreadPool::new(3);
        let n = 500;
        let ((), evs) = capture(|| {
            crate::cilk::cilk_for(&pool, 0..n, 32, |_, _| {});
        });
        assert!(chunk_coverage(&evs, "cilk", n).into_iter().all(|s| s));
    }

    #[test]
    fn capture_records_tbb_chunks_and_auto_steals() {
        let pool = ThreadPool::new(4);
        let n = 2000;
        let ((), evs) = capture(|| {
            tbb_parallel_for(&pool, 0..n, Partitioner::Auto, |_, _| {
                std::hint::black_box(0);
            });
        });
        assert!(chunk_coverage(&evs, "tbb", n).into_iter().all(|s| s));
        // Steals may or may not occur (timing), but any recorded one must
        // name a thief different from its victim.
        for ev in &evs {
            if let NativeEventKind::Steal { victim } = ev.kind {
                assert_ne!(ev.worker, victim);
            }
        }
    }

    #[test]
    fn nothing_recorded_when_disabled() {
        let pool = ThreadPool::new(2);
        parallel_for_chunks(&pool, 0..100, Schedule::Static { chunk: None }, |_, _| {});
        // A later capture starts from a clean slate.
        let ((), evs) = capture(|| {});
        assert!(evs.is_empty());
    }
}
