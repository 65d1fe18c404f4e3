//! BFS-side logic for the paper's block-accessed queue: the discovery
//! protocol in its two flavors.
//!
//! *Locked* guards each vertex with a compare-and-swap so it enters the
//! next queue exactly once. *Relaxed* drops the atomic: the level-array
//! race is benign (both writers store the same value) and duplicates cause
//! only bounded redundant work — the Leiserson–Schardl trick the paper
//! adopts, reporting that "the relaxed queue variants led to consistently
//! better speedup than the lock-based variants".

use crate::UNREACHED;
use std::sync::atomic::{AtomicU32, Ordering};

/// The paper's best-performing block size for the block-accessed queue.
pub(crate) const PAPER_BLOCK: usize = 32;

/// Attempt to discover `w` at `level`. Returns whether the caller should
/// push `w` into the next queue.
#[inline]
pub(crate) fn discover(levels: &[AtomicU32], w: u32, level: u32, relaxed: bool) -> bool {
    let slot = &levels[w as usize];
    if relaxed {
        if slot.load(Ordering::Relaxed) == UNREACHED {
            slot.store(level, Ordering::Relaxed);
            true
        } else {
            false
        }
    } else {
        slot.load(Ordering::Relaxed) == UNREACHED
            && slot
                .compare_exchange(UNREACHED, level, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }
}

/// Queue capacity for a frontier of an `n`-vertex graph written by `t`
/// threads in blocks of `block`: every vertex once, plus one stranded
/// block per writer, plus headroom for the (rare) relaxed duplicates.
pub(crate) fn queue_capacity(n: usize, block: usize, t: usize) -> usize {
    n + block * (t + 1) + n / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_runtime::{parallel_for, Schedule, ThreadPool};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn locked_discovery_is_exactly_once() {
        let pool = ThreadPool::new(8);
        let n = 500;
        let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
        let pushes = AtomicUsize::new(0);
        parallel_for(&pool, 0..n * 16, Schedule::Dynamic { chunk: 32 }, |i, _| {
            if discover(&levels, (i % n) as u32, 2, false) {
                pushes.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(pushes.load(Ordering::Relaxed), n);
    }

    #[test]
    fn relaxed_discovery_sets_correct_level_even_with_duplicates() {
        let pool = ThreadPool::new(8);
        let n = 500;
        let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
        let pushes = AtomicUsize::new(0);
        parallel_for(&pool, 0..n * 16, Schedule::Dynamic { chunk: 32 }, |i, _| {
            if discover(&levels, (i % n) as u32, 9, true) {
                pushes.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Duplicates allowed, loss not; and every vertex ends at level 9.
        assert!(pushes.load(Ordering::Relaxed) >= n);
        assert!(levels.iter().all(|l| l.load(Ordering::Relaxed) == 9));
    }

    #[test]
    fn discovery_respects_prior_levels() {
        let levels = vec![AtomicU32::new(1)];
        assert!(!discover(&levels, 0, 2, true));
        assert!(!discover(&levels, 0, 2, false));
        assert_eq!(levels[0].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn capacity_covers_worst_case_blocks() {
        assert!(queue_capacity(1000, 32, 124) >= 1000 + 32 * 124);
        assert!(queue_capacity(0, 32, 1) >= 32);
    }
}
