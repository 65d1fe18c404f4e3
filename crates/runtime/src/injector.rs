//! Lock-free MPMC queues: the shared [`Injector`] behind the stealing
//! runtimes and the bounded [`BoundedQueue`] ring that is its fast path.
//!
//! Both are built on the *guard-word* technique from the RustSpeak
//! `conc_vec.rs` exemplar (SNIPPETS.md): a producer first reserves a slot
//! index with one atomic RMW, writes the payload, and only then flips a
//! per-slot guard word with a `Release` store; a consumer may touch the
//! payload only after observing the guard with an `Acquire` load, so the
//! guard pair — not the cursor RMW — is what publishes the data. The
//! exemplar's FIXME asks whether its guard re-load "can't be relaxed";
//! it cannot, and DESIGN.md ("Lock-free structures") spells out why along
//! with every ordering used here.
//!
//! [`Injector`] is unbounded and two-tier: a [`BoundedQueue`] ring is the
//! fast path (slots are reused lap after lap, so sustained traffic stays
//! in cache), and a linked chain of fixed-size one-shot guard-word
//! segments absorbs overflow when the ring fills. One-shot segments have
//! no wraparound — a slot has exactly one producer and one consumer for
//! its whole life — and drained segments are kept on the chain until
//! `Drop`: reclaiming them under concurrent thieves would need hazard
//! pointers, and overflow is rare and loop-scoped, so we buy memory
//! safety with a little memory. The price of the two tiers is strict
//! global FIFO: order holds within each tier, but once overflow occurs a
//! later ring push can be stolen before an earlier overflowed task. A
//! work-distribution queue does not need inter-task order (the engines
//! track completion by a remaining-iterations counter), and no current
//! caller assumes it.
//!
//! [`BoundedQueue`] is a fixed-capacity ring with a per-slot sequence
//! number (a generalized guard word that also encodes the lap), after
//! Vyukov's bounded MPMC queue: full and empty are detected from the
//! sequence lag without ever blocking — a full ring hands the value back,
//! never waits.

use crossbeam_utils::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Result of a steal attempt (mirrors `crossbeam_deque::Steal`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The queue was observed empty.
    Empty,
    /// One task was taken.
    Success(T),
    /// Lost a race (or caught a producer mid-publish); try again.
    Retry,
}

impl<T> Steal<T> {
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }

    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(t) => Some(t),
            _ => None,
        }
    }
}

/// Guard-word states for one-shot segment slots.
const EMPTY: usize = 0;
const FULL: usize = 1;
const TAKEN: usize = 2;

/// Slots per segment. Small enough that a loop-scoped injector stays
/// cheap, large enough that segment hops are rare.
const SEG: usize = 128;

struct Slot<T> {
    guard: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct Segment<T> {
    /// Producer cursor: `fetch_add` hands out write indices. Indices
    /// `>= SEG` mean "this segment is exhausted, move to `next`".
    reserve: CachePadded<AtomicUsize>,
    /// Consumer cursor: advanced by CAS only after the slot's guard was
    /// observed `FULL`, so it can never pass a producer.
    consume: CachePadded<AtomicUsize>,
    next: AtomicPtr<Segment<T>>,
    slots: Box<[Slot<T>]>,
}

impl<T> Segment<T> {
    fn new() -> Box<Segment<T>> {
        Box::new(Segment {
            reserve: CachePadded::new(AtomicUsize::new(0)),
            consume: CachePadded::new(AtomicUsize::new(0)),
            next: AtomicPtr::new(ptr::null_mut()),
            slots: (0..SEG)
                .map(|_| Slot {
                    guard: AtomicUsize::new(EMPTY),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
        })
    }
}

/// Fast-path ring size. Sized for steady-state occupancy (a few tasks
/// per worker): the engines keep at most a handful of spilled ranges
/// queued at once, so overflow into segments marks a genuine burst.
const INJ_RING: usize = 256;

/// An unbounded lock-free MPMC FIFO. `push` never blocks and never
/// returns `Retry`; `steal` is lock-free (a stalled thief cannot block
/// the others — at worst they observe `Retry`).
///
/// Two tiers (see the module docs): a slot-reusing [`BoundedQueue`] ring
/// takes all steady-state traffic, and the one-shot segment chain below
/// absorbs bursts past [`INJ_RING`]. `steal` drains the ring before the
/// overflow, so order across the tiers is not strictly FIFO.
pub struct Injector<T> {
    /// Cache-hot fast path; overflow spills to the segment chain.
    ring: BoundedQueue<T>,
    /// Consumer-side segment (lags or equals `tail`).
    head: CachePadded<AtomicPtr<Segment<T>>>,
    /// Producer-side segment.
    tail: CachePadded<AtomicPtr<Segment<T>>>,
    /// The original first segment; `Drop` walks the chain from here.
    first: *mut Segment<T>,
    /// Failed CASes (slot claims lost to a sibling, segment-install races).
    retries: AtomicU64,
}

// SAFETY: all shared state is atomics; payload hand-off is published by
// the per-slot guard (`Release` store by the unique producer of the slot,
// `Acquire` load by its unique consumer — the CAS winner on `consume`).
unsafe impl<T: Send> Send for Injector<T> {}
unsafe impl<T: Send> Sync for Injector<T> {}

impl<T> Injector<T> {
    pub fn new() -> Injector<T> {
        let seg = Box::into_raw(Segment::new());
        Injector {
            ring: BoundedQueue::new(INJ_RING),
            head: CachePadded::new(AtomicPtr::new(seg)),
            tail: CachePadded::new(AtomicPtr::new(seg)),
            first: seg,
            retries: AtomicU64::new(0),
        }
    }

    /// Append one task: onto the ring while it has room, spilling to the
    /// segment chain past that. Lock-free throughout; the spill path adds
    /// at most one allocation per `SEG` overflowed tasks.
    pub fn push(&self, task: T) {
        match self.ring.push(task) {
            Ok(()) => {}
            Err(task) => self.push_overflow(task),
        }
    }

    /// Segment-chain push — the burst path once the ring is full.
    fn push_overflow(&self, task: T) {
        let mut seg = self.tail.load(Ordering::Acquire);
        loop {
            // SAFETY: segments are only freed in Drop (&mut self), so any
            // pointer loaded from head/tail/next stays valid for the
            // whole call.
            let s = unsafe { &*seg };
            let idx = s.reserve.fetch_add(1, Ordering::Relaxed);
            if idx < SEG {
                // SAFETY: `idx` was handed out exactly once, so this
                // producer owns the slot; the guard below publishes it.
                unsafe { (*s.slots[idx].value.get()).write(task) };
                s.slots[idx].guard.store(FULL, Ordering::Release);
                return;
            }
            // Segment exhausted: make sure a successor exists, then move
            // the tail forward (best effort — any tail at or past `seg`
            // is fine, later pushers re-load it).
            let mut next = s.next.load(Ordering::Acquire);
            if next.is_null() {
                let fresh = Box::into_raw(Segment::new());
                match s.next.compare_exchange(
                    ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => next = fresh,
                    Err(existing) => {
                        // SAFETY: `fresh` was never shared.
                        drop(unsafe { Box::from_raw(fresh) });
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        next = existing;
                    }
                }
            }
            if self
                .tail
                .compare_exchange(seg, next, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            seg = self.tail.load(Ordering::Acquire);
        }
    }

    /// Take a task: the ring first (the cache-hot common case), then the
    /// overflow chain. `Retry` means a race was lost (another thief
    /// claimed the slot, or its producer has reserved but not yet
    /// published it) — the caller's loop shape decides how hard to spin.
    pub fn steal(&self) -> Steal<T> {
        if let Some(v) = self.ring.pop() {
            return Steal::Success(v);
        }
        self.steal_overflow()
    }

    /// Segment-chain steal, consulted only once the ring reads empty.
    fn steal_overflow(&self) -> Steal<T> {
        let mut seg_ptr = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: see `push` — segments live until Drop.
            let seg = unsafe { &*seg_ptr };
            let idx = seg.consume.load(Ordering::Acquire);
            if idx >= SEG {
                // Fully drained segment: hop to the successor.
                let next = seg.next.load(Ordering::Acquire);
                if next.is_null() {
                    return Steal::Empty;
                }
                let _ =
                    self.head
                        .compare_exchange(seg_ptr, next, Ordering::AcqRel, Ordering::Acquire);
                seg_ptr = self.head.load(Ordering::Acquire);
                continue;
            }
            let slot = &seg.slots[idx];
            match slot.guard.load(Ordering::Acquire) {
                EMPTY => {
                    // Nothing published at the cursor. If no producer has
                    // even reserved the slot the queue is empty here; a
                    // reserved-but-unpublished slot is a producer mid-write
                    // (the guard-word wait, surfaced as Retry).
                    if seg.reserve.load(Ordering::Acquire) <= idx {
                        return Steal::Empty;
                    }
                    return Steal::Retry;
                }
                FULL => {
                    if seg
                        .consume
                        .compare_exchange(idx, idx + 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        // SAFETY: winning the cursor CAS makes this thief
                        // the unique consumer of `idx`; the Acquire guard
                        // load above pairs with the producer's Release.
                        let v = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.guard.store(TAKEN, Ordering::Release);
                        return Steal::Success(v);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    return Steal::Retry;
                }
                _ => {
                    // TAKEN at the cursor means our `consume` read was
                    // stale (a winner advanced past it already).
                    return Steal::Retry;
                }
            }
        }
    }

    /// Whether the queue is observably empty (racy, advisory — the same
    /// contract callers relied on with the mutexed shim).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate number of queued tasks (ring plus overflow).
    pub fn len(&self) -> usize {
        let mut n = self.ring.len();
        let mut seg_ptr = self.head.load(Ordering::Acquire);
        while !seg_ptr.is_null() {
            // SAFETY: segments live until Drop.
            let seg = unsafe { &*seg_ptr };
            let r = seg.reserve.load(Ordering::Acquire).min(SEG);
            let c = seg.consume.load(Ordering::Acquire).min(SEG);
            n += r.saturating_sub(c);
            seg_ptr = seg.next.load(Ordering::Acquire);
        }
        n
    }

    /// Failed-CAS count since construction, across both tiers
    /// (contention telemetry).
    pub(crate) fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed) + self.ring.retries()
    }
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Injector::new()
    }
}

impl<T> Drop for Injector<T> {
    fn drop(&mut self) {
        // Exclusive access: walk the whole chain from the original first
        // segment, dropping published-but-unconsumed payloads.
        let mut seg_ptr = self.first;
        while !seg_ptr.is_null() {
            // SAFETY: every segment was Box::into_raw'd and appears on
            // the chain exactly once.
            let seg = unsafe { Box::from_raw(seg_ptr) };
            for slot in seg.slots.iter() {
                if slot.guard.load(Ordering::Relaxed) == FULL {
                    // SAFETY: published and never consumed.
                    unsafe { (*slot.value.get()).assume_init_drop() };
                }
            }
            seg_ptr = seg.next.load(Ordering::Relaxed);
        }
    }
}

/// One cell of the bounded ring: `seq` encodes both the publication state
/// and the lap (see `push`/`pop`).
struct Cell<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free MPMC ring (Vyukov). `push` on a full ring fails
/// immediately with the value back, and `pop` on an empty ring returns
/// `None`.
pub struct BoundedQueue<T> {
    cells: Box<[Cell<T>]>,
    mask: usize,
    enqueue: CachePadded<AtomicUsize>,
    dequeue: CachePadded<AtomicUsize>,
    retries: AtomicU64,
}

// SAFETY: payload hand-off is published through each cell's `seq`
// (Release store after write, Acquire load before read); the enqueue and
// dequeue cursors give each cell a unique producer and consumer per lap.
unsafe impl<T: Send> Send for BoundedQueue<T> {}
unsafe impl<T: Send> Sync for BoundedQueue<T> {}

impl<T> BoundedQueue<T> {
    /// A ring holding at least `capacity` items (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        let cap = capacity.max(2).next_power_of_two();
        BoundedQueue {
            cells: (0..cap)
                .map(|i| Cell {
                    seq: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: cap - 1,
            enqueue: CachePadded::new(AtomicUsize::new(0)),
            dequeue: CachePadded::new(AtomicUsize::new(0)),
            retries: AtomicU64::new(0),
        }
    }

    /// Ring capacity (the rounded-up power of two).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Append; `Err(task)` if the ring is full. Lock-free: a failed CAS
    /// means another producer made progress.
    pub fn push(&self, task: T) -> Result<(), T> {
        let mut pos = self.enqueue.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            // `seq == pos`: the cell is free this lap. `seq < pos`: the
            // consumer of the previous lap has not freed it — full.
            // `seq > pos`: our cursor read was stale; reload.
            if seq == pos {
                match self.enqueue.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the cursor CAS gives this
                        // producer the cell for lap `pos`.
                        unsafe { (*cell.value.get()).write(task) };
                        cell.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(cur) => {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        pos = cur;
                    }
                }
            } else if seq < pos {
                return Err(task);
            } else {
                pos = self.enqueue.load(Ordering::Relaxed);
            }
        }
    }

    /// Take the oldest item; `None` if the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            // `seq == pos + 1`: published this lap. `seq <= pos`: nothing
            // published yet — empty. `seq > pos + 1`: stale cursor.
            if seq == pos + 1 {
                match self.dequeue.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the cursor CAS makes this the
                        // unique consumer of the cell for this lap; the
                        // Acquire `seq` load pairs with the producer's
                        // Release store.
                        let v = unsafe { (*cell.value.get()).assume_init_read() };
                        // Free the cell for the producer one lap ahead.
                        cell.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(v);
                    }
                    Err(cur) => {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        pos = cur;
                    }
                }
            } else if seq <= pos {
                return None;
            } else {
                pos = self.dequeue.load(Ordering::Relaxed);
            }
        }
    }

    /// Approximate occupancy (racy, advisory).
    pub fn len(&self) -> usize {
        let e = self.enqueue.load(Ordering::Relaxed);
        let d = self.dequeue.load(Ordering::Relaxed);
        e.saturating_sub(d)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Failed-CAS count since construction (contention telemetry).
    pub(crate) fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

impl<T> Drop for BoundedQueue<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn injector_fifo_order_single_thread() {
        let inj = Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        let mut got = Vec::new();
        loop {
            match inj.steal() {
                Steal::Success(v) => got.push(v),
                Steal::Empty => break,
                Steal::Retry => {}
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(inj.is_empty());
    }

    #[test]
    fn injector_crosses_segment_boundaries() {
        // Push enough to fill the ring and then cross several overflow
        // segment boundaries. Drained single-threaded the order is still
        // 0..n: the ring holds the oldest items and is drained first.
        let inj = Injector::new();
        let n = INJ_RING + SEG * 3 + 17;
        for i in 0..n {
            inj.push(i);
        }
        assert_eq!(inj.len(), n);
        let mut got = Vec::new();
        loop {
            match inj.steal() {
                Steal::Success(v) => got.push(v),
                Steal::Empty => break,
                Steal::Retry => {}
            }
        }
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn injector_drop_releases_unconsumed() {
        // Drop with published-but-unconsumed items in BOTH tiers must not
        // leak or double-free (exercised under the default allocator +
        // miri-less CI by just running it).
        let inj = Injector::new();
        for i in 0..(INJ_RING + SEG + 5) {
            inj.push(vec![i; 4]);
        }
        let _ = inj.steal();
        drop(inj);
    }

    #[test]
    fn injector_concurrent_storm_exactly_once() {
        let inj = Arc::new(Injector::new());
        let producers = 4;
        let consumers = 4;
        let per = 5_000usize;
        let sum = Arc::new(AtomicUsize::new(0));
        let count = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for p in 0..producers {
            let inj = Arc::clone(&inj);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    inj.push(p * per + i);
                }
            }));
        }
        let total = producers * per;
        for _ in 0..consumers {
            let inj = Arc::clone(&inj);
            let sum = Arc::clone(&sum);
            let count = Arc::clone(&count);
            handles.push(std::thread::spawn(move || loop {
                match inj.steal() {
                    Steal::Success(v) => {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                    Steal::Retry => std::thread::yield_now(),
                    Steal::Empty => {
                        if count.load(Ordering::Relaxed) >= total {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(count.load(Ordering::Relaxed), total);
        assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
        assert!(inj.is_empty());
    }

    #[test]
    fn bounded_push_pop_and_full() {
        let q: BoundedQueue<usize> = BoundedQueue::new(4);
        assert_eq!(q.capacity(), 4);
        for i in 0..4 {
            assert!(q.push(i).is_ok());
        }
        assert_eq!(q.push(99), Err(99));
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        // Reusable after wraparound.
        for lap in 0..3 {
            for i in 0..4 {
                assert!(q.push(lap * 10 + i).is_ok());
            }
            for i in 0..4 {
                assert_eq!(q.pop(), Some(lap * 10 + i));
            }
        }
    }

    #[test]
    fn bounded_concurrent_exactly_once() {
        let q = Arc::new(BoundedQueue::new(64));
        let producers = 4;
        let per = 10_000usize;
        let sum = Arc::new(AtomicUsize::new(0));
        let count = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let mut v = p * per + i;
                    loop {
                        match q.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let total = producers * per;
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            let count = Arc::clone(&count);
            handles.push(std::thread::spawn(move || loop {
                match q.pop() {
                    Some(v) => {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        if count.load(Ordering::Relaxed) >= total {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(count.load(Ordering::Relaxed), total);
        assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
    }
}
