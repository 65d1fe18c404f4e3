//! In-region synchronization: the OpenMP `critical` and `single`
//! constructs (§II-A of the paper), and the [`EventCount`] park/unpark
//! primitive behind the pool's lock-free dispatch.

use crate::pool::WorkerCtx;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Default spin budget before an [`EventCount`] waiter parks.
pub const DEFAULT_PARK_SPIN: usize = 64;

/// Spin budget before parking, settable via `MIC_STEAL_SPIN` (routed
/// through `SuiteConfig::install`, never read from the environment here).
static PARK_SPIN: AtomicUsize = AtomicUsize::new(DEFAULT_PARK_SPIN);

/// Set the process-wide spin-before-park budget (0 = park immediately).
pub fn set_park_spin(iters: usize) {
    PARK_SPIN.store(iters, Ordering::Relaxed);
}

/// The current spin-before-park budget.
pub fn park_spin() -> usize {
    PARK_SPIN.load(Ordering::Relaxed)
}

/// A futex-style event count: the park/unpark half of a lock-free
/// protocol. State lives elsewhere (atomics); waiters spin on their
/// predicate for [`park_spin`] iterations, then sleep until a
/// [`notify`](EventCount::notify) advances the epoch.
///
/// The notify fast path is one `SeqCst` RMW plus one load — it takes the
/// internal mutex **only when a waiter is actually parked**, so producers
/// (pool submitters, serve enqueuers) never block on a lock when the
/// consumers are running hot. The lost-wakeup race is closed the classic
/// event-count way: a waiter (1) loads the epoch, (2) re-checks its
/// predicate, (3) publishes itself in `parked`, and only sleeps while the
/// epoch still equals its ticket — all `SeqCst`, so whichever of
/// `parked.fetch_add` and `epoch.fetch_add` comes first in the single
/// total order, either the notifier sees the waiter and takes the mutex,
/// or the waiter sees the new epoch and never sleeps (the full argument
/// is in DESIGN.md "Lock-free structures").
pub struct EventCount {
    epoch: AtomicU64,
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    parks: AtomicU64,
    /// Metrics label for park events; `None` = unlabeled/uncounted.
    site: Option<&'static str>,
}

impl EventCount {
    pub fn new() -> EventCount {
        EventCount {
            epoch: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            parks: AtomicU64::new(0),
            site: None,
        }
    }

    /// An event count whose park events are exported as
    /// `mic_runtime_parks_total{site=...}` when metrics are enabled.
    pub fn named(site: &'static str) -> EventCount {
        EventCount {
            site: Some(site),
            ..EventCount::new()
        }
    }

    /// Wake every parked waiter (and fence so unparked spinners re-check
    /// their predicate). Lock-free unless someone is actually asleep.
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            // The mutex orders this notify against a waiter between its
            // epoch check and its cv.wait; without it the wakeup could
            // fall into that window and be lost.
            let _g = self.lock.lock();
            self.cv.notify_all();
        }
    }

    /// Block until `cond()` is true: spin [`park_spin`] iterations, then
    /// park. `cond` must become true only via state changes followed by
    /// [`notify`](EventCount::notify).
    pub fn park_until(&self, mut cond: impl FnMut() -> bool) {
        let spin = park_spin();
        let mut spun = 0usize;
        loop {
            if cond() {
                return;
            }
            if spun < spin {
                spun += 1;
                std::hint::spin_loop();
                if spun % 16 == 0 {
                    // Oversubscribed pools (the paper runs 121 threads on
                    // 31 cores) starve without an occasional yield.
                    std::thread::yield_now();
                }
                continue;
            }
            let ticket = self.epoch.load(Ordering::SeqCst);
            if cond() {
                return;
            }
            self.parked.fetch_add(1, Ordering::SeqCst);
            {
                let mut g = self.lock.lock();
                while self.epoch.load(Ordering::SeqCst) == ticket {
                    self.cv.wait(&mut g);
                }
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
            self.parks.fetch_add(1, Ordering::Relaxed);
            if mic_metrics::enabled() {
                if let Some(site) = self.site {
                    mic_metrics::counter(
                        "mic_runtime_parks_total",
                        "Event-count park episodes (a waiter exhausted its spin budget and slept)",
                        &[("site", site)],
                    )
                    .inc();
                }
            }
        }
    }

    /// Completed park episodes (contention telemetry).
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

impl Default for EventCount {
    fn default() -> Self {
        EventCount::new()
    }
}

/// An OpenMP-style named `critical` section: at most one worker inside at
/// a time. A thin, intention-revealing wrapper over a mutex.
pub struct Critical<T> {
    inner: Mutex<T>,
}

impl<T> Critical<T> {
    /// Protect `value`.
    pub fn new(value: T) -> Self {
        Critical {
            inner: Mutex::new(value),
        }
    }

    /// Run `f` exclusively.
    pub fn section<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.inner.lock())
    }

    /// Unwrap after the region.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

/// An OpenMP `single` construct: the closure runs on exactly one of the
/// workers that reach it (the first), per episode. Reusable across
/// episodes via [`Single::reset`].
pub struct Single {
    taken: AtomicBool,
}

impl Single {
    pub fn new() -> Self {
        Single {
            taken: AtomicBool::new(false),
        }
    }

    /// Run `f` if this worker is the first to arrive; returns whether it
    /// ran here.
    pub fn run(&self, f: impl FnOnce()) -> bool {
        if self
            .taken
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            f();
            true
        } else {
            false
        }
    }

    /// Re-arm for the next episode (call between barriers).
    pub fn reset(&self) {
        self.taken.store(false, Ordering::Release);
    }
}

impl Default for Single {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience: a per-region helper bundling a barrier sized to the
/// context's team.
pub fn team_barrier(ctx: WorkerCtx) -> usize {
    ctx.num_threads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn critical_serializes() {
        let pool = ThreadPool::new(8);
        let acc = Critical::new(Vec::new());
        pool.run(|ctx| {
            for i in 0..100 {
                acc.section(|v| v.push(ctx.id * 1000 + i));
            }
        });
        let v = acc.into_inner();
        assert_eq!(v.len(), 800);
    }

    #[test]
    fn single_runs_once_per_episode() {
        let t = 6;
        let pool = ThreadPool::new(t);
        let barrier = std::sync::Barrier::new(t);
        let single = Single::new();
        let runs = AtomicUsize::new(0);
        pool.run(|_| {
            for _ in 0..20 {
                single.run(|| {
                    runs.fetch_add(1, Ordering::SeqCst);
                });
                if barrier.wait().is_leader() {
                    single.reset();
                }
                barrier.wait();
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn event_count_wakes_parked_waiter() {
        let flag = std::sync::Arc::new(AtomicBool::new(false));
        let ec = std::sync::Arc::new(EventCount::new());
        let (f2, e2) = (std::sync::Arc::clone(&flag), std::sync::Arc::clone(&ec));
        let h = std::thread::spawn(move || {
            e2.park_until(|| f2.load(Ordering::SeqCst));
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        flag.store(true, Ordering::SeqCst);
        ec.notify();
        h.join().unwrap();
    }

    #[test]
    fn event_count_no_lost_wakeup_storm() {
        // Hammer the notify/park window: a consumer parks on an empty
        // counter, producers bump it one at a time with a notify each.
        let count = std::sync::Arc::new(AtomicUsize::new(0));
        let ec = std::sync::Arc::new(EventCount::new());
        let rounds = 2_000usize;
        let (c2, e2) = (std::sync::Arc::clone(&count), std::sync::Arc::clone(&ec));
        let consumer = std::thread::spawn(move || {
            for want in 1..=rounds {
                e2.park_until(|| c2.load(Ordering::SeqCst) >= want);
            }
        });
        for _ in 0..rounds {
            count.fetch_add(1, Ordering::SeqCst);
            ec.notify();
        }
        consumer.join().unwrap();
        assert!(ec.parks() <= rounds as u64);
    }

    #[test]
    fn park_spin_roundtrip() {
        let before = park_spin();
        set_park_spin(7);
        assert_eq!(park_spin(), 7);
        set_park_spin(before);
    }

    #[test]
    fn team_barrier_reports_team_size() {
        let pool = ThreadPool::new(3);
        let sizes = AtomicUsize::new(0);
        pool.run(|ctx| {
            sizes.fetch_max(team_barrier(ctx), Ordering::SeqCst);
        });
        assert_eq!(sizes.load(Ordering::SeqCst), 3);
    }
}
