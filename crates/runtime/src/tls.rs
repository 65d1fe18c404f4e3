//! Thread-local storage and reductions in the styles of all three models.
//!
//! The paper's coloring kernel needs a per-thread `forbiddenColors` array
//! and a max-reduction for the color count, and implements them three ways
//! (§IV-A): thread-id-indexed arrays (OpenMP), holders/reducers (Cilk Plus)
//! and `enumerable_thread_specific`/`combinable` (TBB). [`PerWorker`] is the
//! one mechanism behind all three: a cache-padded, lazily initialized slot
//! per worker id (the coloring kernel's `forbiddenColors`, the BFS
//! thread-local queues). [`ReducerMax`] is the Cilk `reducer_max`
//! equivalent the coloring kernel reduces its color count with.

use crate::pool::WorkerCtx;
use crossbeam_utils::CachePadded;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// One lazily initialized value per worker id.
///
/// Slots are padded to cache lines — the paper stores each thread's
/// `forbiddenColors` "contiguously in memory (but without sharing a cache
/// line)" for the same reason.
pub struct PerWorker<T> {
    slots: Vec<CachePadded<Slot<T>>>,
    init: Box<dyn Fn(usize) -> T + Send + Sync>,
}

struct Slot<T> {
    value: UnsafeCell<Option<T>>,
    /// Guards against aliased access from a buggy caller; toggled around
    /// every borrow.
    borrowed: AtomicBool,
}

// SAFETY: each slot is only accessed by the worker whose id indexes it
// (enforced by taking `WorkerCtx`), and `borrowed` catches violations.
unsafe impl<T: Send> Sync for PerWorker<T> {}
unsafe impl<T: Send> Send for PerWorker<T> {}

impl<T> PerWorker<T> {
    /// Storage for `num_threads` workers; `init(worker_id)` runs on first
    /// access from that worker (TBB's and Cilk's on-demand semantics; the
    /// OpenMP style simply touches every slot up front).
    pub fn new(num_threads: usize, init: impl Fn(usize) -> T + Send + Sync + 'static) -> Self {
        let slots = (0..num_threads)
            .map(|_| {
                CachePadded::new(Slot {
                    value: UnsafeCell::new(None),
                    borrowed: AtomicBool::new(false),
                })
            })
            .collect();
        PerWorker {
            slots,
            init: Box::new(init),
        }
    }

    /// Eagerly initialize every slot (the OpenMP / Cilk-worker-id style:
    /// storage allocated up front, before the parallel region, instead of
    /// on first touch).
    pub fn init_all(&mut self) {
        for id in 0..self.slots.len() {
            let v = self.slots[id].value.get_mut();
            if v.is_none() {
                *v = Some((self.init)(id));
            }
        }
    }

    /// Access this worker's value, initializing it on first use.
    ///
    /// # Panics
    /// Panics if `ctx.id` is out of range or the slot is already borrowed
    /// (which would mean two workers share an id — a pool bug).
    pub fn with<R>(&self, ctx: WorkerCtx, f: impl FnOnce(&mut T) -> R) -> R {
        let slot = &self.slots[ctx.id];
        assert!(
            !slot.borrowed.swap(true, Ordering::Acquire),
            "PerWorker slot {} aliased",
            ctx.id
        );
        // SAFETY: the `borrowed` flag proves exclusive access; only the
        // worker owning `ctx.id` reaches this slot during a region.
        let value = unsafe { &mut *slot.value.get() };
        let v = value.get_or_insert_with(|| (self.init)(ctx.id));
        let out = f(v);
        slot.borrowed.store(false, Ordering::Release);
        out
    }

    /// Iterate over the values of all initialized slots (exclusive access,
    /// for use after the parallel region).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.value.get_mut().as_mut())
    }

    /// Drain all initialized values.
    pub fn take_values(&mut self) -> Vec<T> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.value.get_mut().take())
            .collect()
    }
}

/// Cilk Plus `reducer_max`: write-mostly per-worker maxima reduced at the
/// end of the region.
pub struct ReducerMax<T> {
    inner: PerWorker<T>,
    identity: T,
}

impl<T: Ord + Copy + Send + Sync + 'static> ReducerMax<T> {
    /// A reducer over `num_threads` workers starting from `identity`.
    pub fn new(num_threads: usize, identity: T) -> Self {
        ReducerMax {
            inner: PerWorker::new(num_threads, move |_| identity),
            identity,
        }
    }

    /// Fold `v` into this worker's view.
    #[inline]
    pub fn update(&self, ctx: WorkerCtx, v: T) {
        self.inner.with(ctx, |m| {
            if v > *m {
                *m = v;
            }
        });
    }

    /// Reduce all views (after the region).
    pub fn get(&mut self) -> T {
        let id = self.identity;
        self.inner.iter_mut().fold(id, |acc, &mut v| acc.max(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openmp::{parallel_for, Schedule};
    use crate::pool::ThreadPool;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn per_worker_accumulates_privately() {
        let pool = ThreadPool::new(4);
        let mut acc: PerWorker<u64> = PerWorker::new(4, |_| 0);
        parallel_for(&pool, 0..1000, Schedule::Dynamic { chunk: 16 }, |i, ctx| {
            acc.with(ctx, |a| *a += i as u64);
        });
        let total: u64 = acc.iter_mut().map(|v| *v).sum();
        assert_eq!(total, (0..1000u64).sum());
    }

    #[test]
    fn lazy_init_only_touched_slots() {
        let pool = ThreadPool::new(8);
        let inits = std::sync::Arc::new(AtomicUsize::new(0));
        let inits2 = std::sync::Arc::clone(&inits);
        let mut acc: PerWorker<usize> = PerWorker::new(8, move |id| {
            inits2.fetch_add(1, Ordering::Relaxed);
            id * 100
        });
        // Single-iteration loop: only one worker touches its slot.
        parallel_for(&pool, 0..1, Schedule::Dynamic { chunk: 1 }, |_, ctx| {
            acc.with(ctx, |v| assert_eq!(*v, ctx.id * 100));
        });
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(acc.take_values().len(), 1);
    }

    #[test]
    fn reducer_max_matches_sequential_max() {
        let pool = ThreadPool::new(5);
        let values: Vec<u32> = (0..997)
            .map(|i| (i * 2654435761u64 % 10007) as u32)
            .collect();
        let mut red = ReducerMax::new(5, 0u32);
        parallel_for(
            &pool,
            0..values.len(),
            Schedule::Guided { min_chunk: 8 },
            |i, ctx| {
                red.update(ctx, values[i]);
            },
        );
        assert_eq!(red.get(), *values.iter().max().unwrap());
    }

    #[test]
    fn reducer_identity_when_untouched() {
        let mut red = ReducerMax::new(4, 42u32);
        assert_eq!(red.get(), 42);
    }
}
