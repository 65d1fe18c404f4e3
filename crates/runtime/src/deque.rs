//! A Chase–Lev work-stealing deque: the per-worker queue behind the Cilk
//! and TBB engines.
//!
//! One worker (the *owner*) pushes and pops at the bottom — plain loads
//! and stores, no RMW on the fast path — while any number of thieves
//! `steal` from the top with a CAS. The owner end is LIFO (depth-first,
//! cache-warm subranges), the thief end is FIFO (the oldest, largest
//! subrange), which is exactly Cilk's "steal the shallowest frame"
//! discipline.
//!
//! The memory-ordering protocol is the C11 one from Lê, Pop, Cohen &
//! Zappa Nardelli, "Correct and Efficient Work-Stealing for Weak Memory
//! Models" (PPoPP'13): `SeqCst` fences order the owner's bottom
//! decrement against thief top reads, and the single-element race is
//! resolved by a `SeqCst` CAS on `top`. DESIGN.md ("Lock-free
//! structures") documents each ordering.
//!
//! The buffer is fixed-capacity (no growth): growing a Chase–Lev deque
//! safely requires epoch reclamation of the old buffer, and the stealing
//! engine never needs it — only a deque's owner pushes, and the split
//! depth bounds how many ranges it holds (`cilk::DEQUE_CAP`). `push`
//! hands the task back on a full deque instead of blocking or
//! reallocating; the engine treats that as a broken bound.

use crossbeam_utils::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};

/// Result of a steal attempt (mirrors `crossbeam_deque::Steal`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// One task was taken.
    Success(T),
    /// Lost the `top` CAS to another thief or to the owner's last-element
    /// pop; the task went to the winner.
    Retry,
}

/// A fixed-capacity Chase–Lev deque.
///
/// Ownership discipline: exactly one thread at a time may call the
/// `unsafe` owner ops ([`push`](WsDeque::push) / [`pop`](WsDeque::pop));
/// any thread may call [`steal`](WsDeque::steal). The runtimes uphold
/// this by indexing a `Vec<WsDeque<_>>` with the pool worker id.
pub struct WsDeque<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: i64,
    /// Thief end. Monotonically increasing.
    top: CachePadded<AtomicI64>,
    /// Owner end. Only the owner writes it.
    bottom: CachePadded<AtomicI64>,
    /// Steal CASes lost to a sibling thief or to the owner's last-element
    /// pop (contention telemetry).
    retries: AtomicU64,
}

// SAFETY: the slot at a given index is written by the owner before the
// Release publication of `bottom`, and read by at most one other thread
// (the winner of the `top` CAS) after Acquire loads; the ownership
// discipline (documented on the type) keeps owner ops single-threaded.
unsafe impl<T: Send> Send for WsDeque<T> {}
unsafe impl<T: Send> Sync for WsDeque<T> {}

impl<T> WsDeque<T> {
    /// A deque holding at most `capacity` tasks (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> WsDeque<T> {
        let cap = capacity.max(2).next_power_of_two();
        WsDeque {
            buf: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: cap as i64 - 1,
            top: CachePadded::new(AtomicI64::new(0)),
            bottom: CachePadded::new(AtomicI64::new(0)),
            retries: AtomicU64::new(0),
        }
    }

    #[inline]
    fn slot(&self, i: i64) -> *mut MaybeUninit<T> {
        self.buf[(i & self.mask) as usize].get()
    }

    /// Owner: push a task at the bottom. Returns `Err(task)` when the
    /// deque is full.
    ///
    /// # Safety
    /// Must only be called by the deque's current owner thread, never
    /// concurrently with [`pop`](WsDeque::pop).
    #[inline]
    pub unsafe fn push(&self, task: T) -> Result<(), T> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t > self.mask {
            return Err(task); // full
        }
        // SAFETY: index `b` is outside the live window [t, b), and any
        // previous occupant of the slot was consumed a full lap ago.
        unsafe { (*self.slot(b)).write(task) };
        // Publish: thieves read the slot only after an Acquire load of
        // `bottom` observes this Release store.
        self.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Owner: pop the most recently pushed task (LIFO end).
    ///
    /// # Safety
    /// Must only be called by the deque's current owner thread.
    #[inline]
    pub unsafe fn pop(&self) -> Option<T> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        // Reserve the bottom slot *before* reading `top`: the SeqCst
        // fence makes the store visible to any thief whose top read
        // follows, closing the both-take-the-last-element window.
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Already empty: undo the reservation.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        // SAFETY: slot `b` is inside the live window and this thread
        // wrote it (owner ops are single-threaded).
        let task = unsafe { (*self.slot(b)).assume_init_read() };
        if t == b {
            // Last element: race the thieves for it with a CAS on top.
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                // A thief won and will read the slot; forget our copy.
                std::mem::forget(task);
                self.bottom.store(b + 1, Ordering::Relaxed);
                return None;
            }
            self.bottom.store(b + 1, Ordering::Relaxed);
            return Some(task);
        }
        Some(task)
    }

    /// Thief: take the oldest task (FIFO end). Any thread may call this.
    #[inline]
    pub fn steal(&self) -> Steal<T> {
        let t = self.top.load(Ordering::Acquire);
        // Order this thief's `top` read before its `bottom` read against
        // the owner's pop (which stores `bottom` then fences).
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // SAFETY: read the candidate *before* the CAS: winning the CAS
        // retroactively licenses the copy; losing it means another thief
        // or the owner consumed the slot, so the copy must be forgotten,
        // not dropped.
        let task = unsafe { (*self.slot(t)).assume_init_read() };
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            std::mem::forget(task);
            self.retries.fetch_add(1, Ordering::Relaxed);
            return Steal::Retry;
        }
        Steal::Success(task)
    }

    /// Approximate number of queued tasks (racy, advisory).
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lost steal CASes since construction (contention telemetry).
    pub(crate) fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

impl<T> Drop for WsDeque<T> {
    fn drop(&mut self) {
        // Exclusive access: drop the live window [top, bottom).
        let t = *self.top.get_mut();
        let b = *self.bottom.get_mut();
        for i in t..b {
            // SAFETY: slots in the live window hold initialized tasks.
            unsafe { (*self.slot(i)).assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn owner_lifo_thief_fifo() {
        let d: WsDeque<u32> = WsDeque::new(8);
        unsafe {
            d.push(1).unwrap();
            d.push(2).unwrap();
            d.push(3).unwrap();
        }
        // Thief takes the oldest …
        assert_eq!(d.steal(), Steal::Success(1));
        // … owner takes the newest.
        assert_eq!(unsafe { d.pop() }, Some(3));
        assert_eq!(unsafe { d.pop() }, Some(2));
        assert_eq!(unsafe { d.pop() }, None);
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn overflow_returns_task() {
        let d: WsDeque<u32> = WsDeque::new(2);
        unsafe {
            d.push(1).unwrap();
            d.push(2).unwrap();
            assert_eq!(d.push(3), Err(3));
            // Freeing one slot re-admits.
            assert_eq!(d.pop(), Some(2));
            d.push(3).unwrap();
        }
    }

    #[test]
    fn wraparound_reuses_slots() {
        let d: WsDeque<usize> = WsDeque::new(4);
        for round in 0..100 {
            unsafe {
                d.push(round).unwrap();
                assert_eq!(d.pop(), Some(round));
            }
        }
        assert!(d.is_empty());
    }

    #[test]
    fn storm_every_item_exactly_once() {
        // One owner pushing + popping, three thieves stealing; every
        // pushed item must surface exactly once across all takers.
        let d: Arc<WsDeque<usize>> = Arc::new(WsDeque::new(64));
        let n = 20_000usize;
        let taken = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let d = Arc::clone(&d);
            let taken = Arc::clone(&taken);
            let sum = Arc::clone(&sum);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || loop {
                match d.steal() {
                    Steal::Success(v) => {
                        sum.fetch_add(v, Ordering::Relaxed);
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        if done.load(Ordering::Acquire) == 1 && d.is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }));
        }
        // Owner: push everything, popping when full; drain at the end.
        let mut next = 0usize;
        while next < n {
            // SAFETY: this thread is the sole owner.
            match unsafe { d.push(next) } {
                Ok(()) => next += 1,
                Err(_) => {
                    if let Some(v) = unsafe { d.pop() } {
                        sum.fetch_add(v, Ordering::Relaxed);
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        while let Some(v) = unsafe { d.pop() } {
            sum.fetch_add(v, Ordering::Relaxed);
            taken.fetch_add(1, Ordering::Relaxed);
        }
        done.store(1, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        // Thieves may have drained concurrently with the owner's final
        // drain; together they must account for every item exactly once.
        assert_eq!(taken.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }
}
