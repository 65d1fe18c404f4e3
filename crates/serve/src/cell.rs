//! A one-shot result cell: the lock-free replacement for the per-job
//! `Mutex<Option<Result<..>>>` + `Condvar` pair.
//!
//! The leader that computes a job writes the outcome exactly once; any
//! number of waiters (every request coalesced onto it) block until it
//! lands.
//! Publication is a three-state guard word — `PENDING → WRITING → READY`
//! — following the SNIPPETS guard-word discipline with the orderings done
//! properly: the `Release` store of `READY` publishes the payload write,
//! and every reader `Acquire`-loads the state before touching the
//! payload. Waiters park on an [`EventCount`], so the writer takes no
//! lock unless a waiter is actually asleep.

use mic_eval::runtime::EventCount;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// No value yet; `set` may claim the cell.
const PENDING: usize = 0;
/// A writer has claimed the cell and is storing the payload.
const WRITING: usize = 1;
/// The payload is published and immutable from here on.
const READY: usize = 2;

/// A write-once cell that any number of threads can wait on.
pub(crate) struct ResultCell<T> {
    state: AtomicUsize,
    value: UnsafeCell<Option<T>>,
    waiters: EventCount,
}

// SAFETY: `value` is written by exactly one thread (the CAS winner) while
// the state is WRITING — no reader touches it until an Acquire load sees
// READY, which happens-after the writer's Release store, after which the
// payload is immutable. `&ResultCell` readers only get `&T`, hence T: Sync;
// the payload moves from writer to readers, hence T: Send.
unsafe impl<T: Send + Sync> Sync for ResultCell<T> {}
unsafe impl<T: Send> Send for ResultCell<T> {}

impl<T> ResultCell<T> {
    pub fn new() -> ResultCell<T> {
        ResultCell {
            state: AtomicUsize::new(PENDING),
            value: UnsafeCell::new(None),
            waiters: EventCount::new(),
        }
    }

    /// Publish the outcome and wake all waiters. Exactly one `set` wins;
    /// a second call returns `Err` with the rejected value (the cell is
    /// one-shot by design — a job has one outcome).
    pub fn set(&self, value: T) -> Result<(), T> {
        if self
            .state
            .compare_exchange(PENDING, WRITING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(value);
        }
        // SAFETY: the CAS above grants this thread exclusive write access;
        // readers are fenced out until the READY store below.
        unsafe { *self.value.get() = Some(value) };
        self.state.store(READY, Ordering::Release);
        self.waiters.notify();
        Ok(())
    }

    /// Block (spin, then park) until the outcome is published.
    pub fn wait(&self) -> &T {
        self.waiters
            .park_until(|| self.state.load(Ordering::Acquire) == READY);
        // SAFETY: READY observed with Acquire → the payload write
        // happened-before, and nothing mutates it afterwards.
        unsafe { (*self.value.get()).as_ref().unwrap() }
    }
}

impl<T> Default for ResultCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_then_get() {
        let c: ResultCell<u32> = ResultCell::new();
        c.set(42).unwrap();
        assert_eq!(c.wait(), &42);
    }

    #[test]
    fn second_set_rejected() {
        let c: ResultCell<&str> = ResultCell::new();
        c.set("first").unwrap();
        assert_eq!(c.set("second"), Err("second"));
        assert_eq!(c.wait(), &"first");
    }

    #[test]
    fn many_waiters_wake() {
        let c: Arc<ResultCell<u64>> = Arc::new(ResultCell::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || *c.wait())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(10));
        c.set(7).unwrap();
        for h in handles {
            assert_eq!(h.join().unwrap(), 7);
        }
    }

    #[test]
    fn racing_setters_one_winner() {
        for _ in 0..100 {
            let c: Arc<ResultCell<usize>> = Arc::new(ResultCell::new());
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || c.set(i).is_ok())
                })
                .collect();
            let wins: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(wins.iter().filter(|w| **w).count(), 1);
            assert!(*c.wait() < 4);
        }
    }
}
