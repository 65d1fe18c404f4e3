//! SNAP-style discovery: per-vertex claim with a lock, thread-local
//! queues merged per level.
//!
//! SNAP "locks a vertex before adding it to local queue to guarantee that
//! only one instance of that vertex will be added to any local queues"; the
//! paper adds "one small improvement, by checking if a vertex is traversed
//! before attempting to lock it" — the classic test-and-test-and-set.

use crate::UNREACHED;
use std::sync::atomic::{AtomicU32, Ordering};

/// Try to claim `w` at `level`. Returns `true` exactly once per vertex
/// across all threads (the CAS is the lock).
#[inline]
pub(crate) fn try_claim(levels: &[AtomicU32], w: u32, level: u32, test_first: bool) -> bool {
    let slot = &levels[w as usize];
    if test_first && slot.load(Ordering::Relaxed) != UNREACHED {
        return false;
    }
    slot.compare_exchange(UNREACHED, level, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
}

/// Merge per-thread local queues into the global next-level queue, the way
/// SNAP does it: exclusive-scan the local queue lengths into write offsets,
/// then copy every local queue into its slot concurrently.
pub(crate) fn merge_locals_parallel(
    pool: &mic_runtime::ThreadPool,
    locals: Vec<Vec<u32>>,
) -> Vec<u32> {
    let mut lens: Vec<u64> = locals.iter().map(|l| l.len() as u64).collect();
    let total = mic_runtime::exclusive_scan(pool, &mut lens) as usize;
    let mut out = vec![0u32; total];
    struct Ptr(*mut u32);
    unsafe impl Sync for Ptr {}
    let base = Ptr(out.as_mut_ptr());
    let locals_ref = &locals;
    let lens_ref = &lens;
    pool.run(|ctx| {
        let _ = &base;
        // One local queue per worker slot (locals came from a PerWorker of
        // the same pool, so indices align; extra slots are empty).
        if let Some(l) = locals_ref.get(ctx.id) {
            let off = lens_ref[ctx.id] as usize;
            // SAFETY: the scan makes [off, off + l.len()) disjoint per id.
            let dst = unsafe { std::slice::from_raw_parts_mut(base.0.add(off), l.len()) };
            dst.copy_from_slice(l);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_runtime::{parallel_for, Schedule, ThreadPool};

    #[test]
    fn claim_happens_exactly_once() {
        let pool = ThreadPool::new(8);
        let n = 1000usize;
        let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
        let wins: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        // Every thread tries to claim every vertex.
        parallel_for(&pool, 0..n * 8, Schedule::Dynamic { chunk: 64 }, |i, _| {
            let w = (i % n) as u32;
            if try_claim(&levels, w, 3, true) {
                wins[w as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(wins.iter().all(|w| w.load(Ordering::Relaxed) == 1));
        assert!(levels.iter().all(|l| l.load(Ordering::Relaxed) == 3));
    }

    #[test]
    fn test_first_skips_claimed() {
        let levels: Vec<AtomicU32> = vec![AtomicU32::new(5)];
        assert!(!try_claim(&levels, 0, 7, true));
        assert!(!try_claim(&levels, 0, 7, false));
        assert_eq!(levels[0].load(Ordering::Relaxed), 5);
    }

    #[test]
    fn parallel_merge_matches_sequential() {
        let pool = ThreadPool::new(6);
        let locals: Vec<Vec<u32>> = (0..6u32)
            .map(|t| (0..(t * 13) % 29).map(|i| t * 1000 + i).collect())
            .collect();
        let want = locals.concat();
        let mut got = merge_locals_parallel(&pool, locals);
        // Order across queues is preserved (offsets follow queue order).
        assert_eq!(got.len(), want.len());
        got.sort_unstable();
        let mut want = want;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_merge_with_fewer_queues_than_workers() {
        let pool = ThreadPool::new(8);
        let got = merge_locals_parallel(&pool, vec![vec![9, 9], vec![7]]);
        let mut got = got;
        got.sort_unstable();
        assert_eq!(got, vec![7, 9, 9]);
    }
}
