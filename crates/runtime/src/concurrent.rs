//! Lock-free concurrent containers shared by the kernels.
//!
//! [`ConcurrentPushVec`] is the paper's conflict-list idiom: "we use an
//! atomic fetch and add to obtain a unique index in the Conflict array"
//! (§IV). [`BlockQueue`] is the paper's main data-structure contribution
//! (§IV-C): a contiguous shared queue where each thread reserves *blocks*
//! of slots with one fetch-and-add per block, and partially filled blocks
//! are padded with a sentinel instead of compacted.

use crossbeam_utils::CachePadded;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-capacity vector supporting concurrent `push` from many threads
/// via a single fetch-and-add per element.
pub struct ConcurrentPushVec<T> {
    data: Vec<UnsafeCell<Option<T>>>,
    len: CachePadded<AtomicUsize>,
}

// SAFETY: `push` hands out a unique index per call, so writes never alias;
// reads only happen through `&mut self` methods after writers are done.
unsafe impl<T: Send> Sync for ConcurrentPushVec<T> {}
unsafe impl<T: Send> Send for ConcurrentPushVec<T> {}

impl<T> ConcurrentPushVec<T> {
    /// An empty vector with room for `capacity` elements.
    pub fn new(capacity: usize) -> Self {
        ConcurrentPushVec {
            data: (0..capacity).map(|_| UnsafeCell::new(None)).collect(),
            len: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Append `v`, returning its index.
    ///
    /// # Panics
    /// Panics if capacity is exceeded.
    #[inline]
    pub fn push(&self, v: T) -> usize {
        let idx = self.len.fetch_add(1, Ordering::Relaxed);
        assert!(idx < self.data.len(), "ConcurrentPushVec capacity exceeded");
        // SAFETY: `idx` is unique to this call.
        unsafe { *self.data[idx].get() = Some(v) };
        idx
    }

    /// Number of elements pushed so far. Exact once all writers are done.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire).min(self.data.len())
    }

    /// Whether no elements have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Drain the contents into a `Vec` (after the parallel region) and
    /// reset to empty.
    pub fn drain(&mut self) -> Vec<T> {
        let n = *self.len.get_mut();
        let out = self.data[..n]
            .iter_mut()
            .map(|c| c.get_mut().take().expect("pushed slot"))
            .collect();
        *self.len.get_mut() = 0;
        out
    }

    /// Reset to empty without reading (contents are dropped).
    pub fn clear(&mut self) {
        let n = *self.len.get_mut();
        for c in &mut self.data[..n] {
            *c.get_mut() = None;
        }
        *self.len.get_mut() = 0;
    }
}

/// The paper's block-accessed shared queue (§IV-C).
///
/// A contiguous array plus one shared cursor. Each writer holds a private
/// block of `block_size` slots obtained with a single
/// `fetch_add(block_size)`; pushes go to the private block until it fills.
/// When a region ends, partially filled blocks are padded with `sentinel`
/// ("an invalid vertex ID, such as -1") — consumers skip sentinel entries
/// instead of paying for compaction. Keeping blocks small bounds the waste;
/// keeping them above one slot bounds the atomics — the tradeoff the paper
/// calls out, and the `ablation` bench sweeps.
///
/// ```
/// use mic_runtime::{BlockQueue, ThreadPool};
/// let pool = ThreadPool::new(4);
/// let q: BlockQueue<u32> = BlockQueue::with_writers(1000, 32, 4, u32::MAX);
/// pool.run(|ctx| {
///     let mut w = q.writer();
///     for i in (ctx.id..1000).step_by(ctx.num_threads) {
///         w.push(i as u32);
///     }
/// });
/// let mut q = q;
/// let mut items = q.items();
/// items.sort_unstable();
/// assert_eq!(items.len(), 1000);
/// ```
pub struct BlockQueue<T> {
    data: Vec<UnsafeCell<T>>,
    cursor: CachePadded<AtomicUsize>,
    block_size: usize,
    sentinel: T,
}

// SAFETY: writers own disjoint blocks (unique fetch_add reservations);
// reads happen through `&mut self` after the region.
unsafe impl<T: Send> Sync for BlockQueue<T> {}
unsafe impl<T: Send> Send for BlockQueue<T> {}

impl<T: Copy + PartialEq> BlockQueue<T> {
    /// A queue holding at most `capacity` useful items. Internally it
    /// over-allocates so that every writer can always grab one more block.
    pub fn new(capacity: usize, block_size: usize, sentinel: T) -> Self {
        assert!(block_size >= 1, "block size must be at least 1");
        // Worst case every active writer strands a partly-filled block;
        // writers are unknown here, so leave modest slack (use
        // `with_writers` when the writer count is known).
        let cap = capacity + block_size * 2;
        BlockQueue {
            data: (0..cap).map(|_| UnsafeCell::new(sentinel)).collect(),
            cursor: CachePadded::new(AtomicUsize::new(0)),
            block_size,
            sentinel,
        }
    }

    /// A queue sized for `capacity` items written by at most `writers`
    /// concurrent threads (each may strand one partly filled block).
    pub fn with_writers(capacity: usize, block_size: usize, writers: usize, sentinel: T) -> Self {
        let block_size = block_size.max(1);
        let cap = capacity + block_size * (writers + 1);
        BlockQueue {
            data: (0..cap).map(|_| UnsafeCell::new(sentinel)).collect(),
            cursor: CachePadded::new(AtomicUsize::new(0)),
            block_size,
            sentinel,
        }
    }

    /// Open a writer handle. Each concurrent writer thread needs its own.
    pub fn writer(&self) -> BlockWriter<'_, T> {
        BlockWriter {
            queue: self,
            cursor: BlockCursor::default(),
        }
    }

    /// Append `v` through an external [`BlockCursor`] — the same protocol
    /// as [`BlockWriter::push`], but with the per-thread block state stored
    /// by the caller (e.g. in a `PerWorker` slot that outlives individual
    /// scheduler chunks, exactly like the paper's per-thread blocks).
    #[inline]
    pub fn push_with(&self, cur: &mut BlockCursor, v: T) {
        debug_assert!(v != self.sentinel, "cannot push the sentinel value");
        if cur.pos == cur.end {
            let base = self.cursor.fetch_add(self.block_size, Ordering::Relaxed);
            assert!(
                base + self.block_size <= self.data.len(),
                "BlockQueue out of space (capacity misconfigured)"
            );
            cur.pos = base;
            cur.end = base + self.block_size;
        }
        // SAFETY: `cur.pos` lies inside a block uniquely reserved via the
        // fetch_add above (cursors must not be shared across threads, which
        // the `&mut` receiver enforces per call site).
        unsafe { *self.data[cur.pos].get() = v };
        cur.pos += 1;
    }

    /// The sentinel value.
    pub fn sentinel(&self) -> T {
        self.sentinel
    }

    /// Slots handed out so far (valid items plus sentinel padding).
    pub fn raw_len(&self) -> usize {
        self.cursor.load(Ordering::Acquire).min(self.data.len())
    }

    /// Read one handed-out slot through a shared reference.
    ///
    /// Only call when no writer is concurrently active on *this* queue —
    /// the layered-BFS pattern reads the current level's (already sealed)
    /// queue while writers fill the *next* level's queue.
    #[inline]
    pub fn slot(&self, idx: usize) -> T {
        debug_assert!(idx < self.data.len());
        // SAFETY: caller guarantees no concurrent writers; slots below
        // raw_len were initialized by writers, the rest at construction.
        unsafe { *self.data[idx].get() }
    }

    /// The written prefix, sentinels included (call after the region).
    pub(crate) fn raw_slice(&mut self) -> &[T] {
        let n = (*self.cursor.get_mut()).min(self.data.len());
        // SAFETY: exclusive access; the prefix was initialized by writers
        // or is sentinel-filled from construction/reset.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr() as *const T, n) }
    }

    /// Collect the non-sentinel items (test/convenience path; kernels
    /// iterate `raw_slice` and skip sentinels inline, as the paper does).
    pub fn items(&mut self) -> Vec<T> {
        let s = self.sentinel;
        self.raw_slice()
            .iter()
            .copied()
            .filter(|v| *v != s)
            .collect()
    }

    /// Reset to empty, re-filling the used prefix with the sentinel.
    pub fn reset(&mut self) {
        let n = (*self.cursor.get_mut()).min(self.data.len());
        for c in &mut self.data[..n] {
            *c.get_mut() = self.sentinel;
        }
        *self.cursor.get_mut() = 0;
    }
}

/// Per-thread block reservation state: the half-open range of slots this
/// thread may still fill. Plain data so it can live anywhere (notably in a
/// `PerWorker` slot).
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockCursor {
    pos: usize,
    end: usize,
}

/// A per-thread handle writing into a [`BlockQueue`].
///
/// Dropping the writer leaves the rest of its current block holding the
/// sentinel (slots are pre-filled at construction/reset), which is the
/// paper's padding scheme.
pub struct BlockWriter<'q, T> {
    queue: &'q BlockQueue<T>,
    cursor: BlockCursor,
}

impl<T: Copy + PartialEq> BlockWriter<'_, T> {
    /// Append one item, grabbing a fresh block if the current one is full.
    ///
    /// # Panics
    /// Panics if the item equals the sentinel or the queue is out of space.
    #[inline]
    pub fn push(&mut self, v: T) {
        self.queue.push_with(&mut self.cursor, v);
    }
}

impl<T> Drop for BlockWriter<'_, T> {
    fn drop(&mut self) {
        // Slots in `pos..end` still hold the sentinel from construction or
        // reset, so nothing to write — the padding is already in place.
        // (The paper describes explicitly writing -1; pre-filling at reset
        // time is equivalent and keeps the hot path shorter.)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openmp::{parallel_for, Schedule};
    use crate::pool::ThreadPool;

    #[test]
    fn push_vec_unique_indices_and_contents() {
        let pool = ThreadPool::new(6);
        let cv: ConcurrentPushVec<usize> = ConcurrentPushVec::new(5000);
        parallel_for(&pool, 0..5000, Schedule::Dynamic { chunk: 7 }, |i, _| {
            if i % 3 == 0 {
                cv.push(i);
            }
        });
        let mut cv = cv;
        let mut out = cv.drain();
        out.sort_unstable();
        let expected: Vec<usize> = (0..5000).filter(|i| i % 3 == 0).collect();
        assert_eq!(out, expected);
        assert!(cv.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn push_vec_overflow_panics() {
        let cv: ConcurrentPushVec<u32> = ConcurrentPushVec::new(2);
        cv.push(1);
        cv.push(2);
        cv.push(3);
    }

    #[test]
    fn block_queue_single_thread_roundtrip() {
        let mut q: BlockQueue<u32> = BlockQueue::new(100, 8, u32::MAX);
        {
            let mut w = q.writer();
            for i in 0..20 {
                w.push(i);
            }
        }
        let mut items = q.items();
        items.sort_unstable();
        assert_eq!(items, (0..20).collect::<Vec<_>>());
        // 20 items in blocks of 8 → 3 blocks → 24 raw slots.
        assert_eq!(q.raw_len(), 24);
    }

    #[test]
    fn block_queue_parallel_no_loss_no_dup() {
        let pool = ThreadPool::new(8);
        let n = 10_000;
        let q: BlockQueue<u32> = BlockQueue::with_writers(n, 32, 8, u32::MAX);
        pool.run(|ctx| {
            let mut w = q.writer();
            let mut i = ctx.id;
            while i < n {
                w.push(i as u32);
                i += ctx.num_threads;
            }
        });
        let mut q = q;
        let mut items = q.items();
        items.sort_unstable();
        assert_eq!(items, (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn block_queue_reset_reusable() {
        let pool = ThreadPool::new(4);
        let mut q: BlockQueue<u32> = BlockQueue::with_writers(1000, 16, 4, u32::MAX);
        for round in 0..3 {
            let qref = &q;
            pool.run(|ctx| {
                let mut w = qref.writer();
                for i in (ctx.id..100).step_by(ctx.num_threads) {
                    w.push((round * 1000 + i) as u32);
                }
            });
            let mut items = q.items();
            items.sort_unstable();
            let expected: Vec<u32> = (0..100).map(|i| (round * 1000 + i) as u32).collect();
            assert_eq!(items, expected, "round {round}");
            q.reset();
            assert_eq!(q.raw_len(), 0);
        }
    }

    #[test]
    fn block_queue_block_size_one_behaves() {
        let mut q: BlockQueue<u32> = BlockQueue::new(10, 1, u32::MAX);
        {
            let mut w = q.writer();
            w.push(5);
            w.push(6);
        }
        assert_eq!(q.items(), vec![5, 6]);
        assert_eq!(q.raw_len(), 2); // no padding waste with block 1
    }

    #[test]
    fn sentinel_padding_is_counted_but_skipped() {
        let mut q: BlockQueue<u32> = BlockQueue::new(64, 16, u32::MAX);
        {
            let mut w = q.writer();
            w.push(1); // occupies one slot of a 16-slot block
        }
        assert_eq!(q.raw_len(), 16);
        assert_eq!(q.items(), vec![1]);
        let raw = q.raw_slice();
        assert_eq!(raw.iter().filter(|&&v| v == u32::MAX).count(), 15);
    }
}
