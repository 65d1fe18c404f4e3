//! The [`EventCount`] park/unpark primitive behind the pool's lock-free
//! dispatch, and its spin-before-park budget.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Spin iterations an [`EventCount`] waiter burns re-checking its
/// predicate before it parks.
const PARK_SPIN: usize = 64;

/// A futex-style event count: the park/unpark half of a lock-free
/// protocol. State lives elsewhere (atomics); waiters spin on their
/// predicate for `PARK_SPIN` iterations, then sleep until a
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

    /// Block until `cond()` is true: spin `PARK_SPIN` iterations, then
    /// park. `cond` must become true only via state changes followed by
    /// [`notify`](EventCount::notify).
    pub fn park_until(&self, mut cond: impl FnMut() -> bool) {
        let mut spun = 0usize;
        loop {
            if cond() {
                return;
            }
            if spun < PARK_SPIN {
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
}

impl Default for EventCount {
    fn default() -> Self {
        EventCount::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

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
    }
}
