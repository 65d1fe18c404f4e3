//! Parallel prefix sums (scan) — the primitive behind SNAP's queue merge:
//! per-thread queue lengths are exclusive-scanned to give every thread its
//! write offset into the global queue, then all copies proceed in parallel.
//!
//! The implementation is the classic two-pass block scan: block-local
//! reductions in parallel, a (short) sequential scan over block totals,
//! then parallel local scans seeded with the block offsets.

use crate::openmp::{parallel_for_chunks, Schedule};
use crate::pool::ThreadPool;
use std::sync::atomic::{AtomicU64, Ordering};

/// Exclusive prefix sum of `values` in place (`values[i]` becomes the sum
/// of the original `values[..i]`); returns the total.
pub(crate) fn exclusive_scan_seq(values: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for v in values.iter_mut() {
        let x = *v;
        *v = acc;
        acc += x;
    }
    acc
}

/// Parallel exclusive prefix sum; semantics identical to
/// `exclusive_scan_seq`. Uses blocks of roughly `n / (4 t)` elements.
pub fn exclusive_scan(pool: &ThreadPool, values: &mut [u64]) -> u64 {
    let n = values.len();
    let t = pool.num_threads();
    if n < 4 * t || t == 1 {
        return exclusive_scan_seq(values);
    }
    let block = n.div_ceil(4 * t);
    let num_blocks = n.div_ceil(block);

    // Pass 1: block totals.
    let totals: Vec<AtomicU64> = (0..num_blocks).map(|_| AtomicU64::new(0)).collect();
    {
        let values_ref = &*values;
        let totals_ref = &totals;
        parallel_for_chunks(
            pool,
            0..num_blocks,
            Schedule::Dynamic { chunk: 1 },
            |blocks, _| {
                for b in blocks {
                    let lo = b * block;
                    let hi = (lo + block).min(n);
                    let sum: u64 = values_ref[lo..hi].iter().sum();
                    totals_ref[b].store(sum, Ordering::Relaxed);
                }
            },
        );
    }
    // Pass 2: sequential scan over the (few) block totals.
    let mut offsets: Vec<u64> = totals.into_iter().map(|a| a.into_inner()).collect();
    let grand_total = exclusive_scan_seq(&mut offsets);
    // Pass 3: local scans seeded with the block offsets. Blocks are
    // disjoint, so hand out raw sub-slices.
    struct Ptr(*mut u64);
    unsafe impl Sync for Ptr {}
    let base = Ptr(values.as_mut_ptr());
    {
        let offsets_ref = &offsets;
        parallel_for_chunks(
            pool,
            0..num_blocks,
            Schedule::Dynamic { chunk: 1 },
            |blocks, _| {
                let _ = &base;
                for b in blocks {
                    let lo = b * block;
                    let hi = (lo + block).min(n);
                    // SAFETY: block b's range [lo, hi) is touched by exactly
                    // one task.
                    let slice = unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), hi - lo) };
                    let mut acc = offsets_ref[b];
                    for v in slice {
                        let x = *v;
                        *v = acc;
                        acc += x;
                    }
                }
            },
        );
    }
    grand_total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential() {
        let pool = ThreadPool::new(5);
        for n in [0usize, 1, 7, 100, 1023, 10_000] {
            let original: Vec<u64> = (0..n as u64).map(|i| (i * 7) % 13).collect();
            let mut a = original.clone();
            let mut b = original.clone();
            let ta = exclusive_scan_seq(&mut a);
            let tb = exclusive_scan(&pool, &mut b);
            assert_eq!(a, b, "n = {n}");
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn scan_of_ones_is_identity_index() {
        let pool = ThreadPool::new(4);
        let mut v = vec![1u64; 500];
        let total = exclusive_scan(&pool, &mut v);
        assert_eq!(total, 500);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn queue_merge_offsets_use_case() {
        // The SNAP pattern: per-thread queue lengths → write offsets.
        let pool = ThreadPool::new(4);
        let mut lens = vec![3u64, 0, 5, 2];
        let total = exclusive_scan(&pool, &mut lens);
        assert_eq!(lens, vec![0, 3, 3, 8]);
        assert_eq!(total, 10);
    }
}
