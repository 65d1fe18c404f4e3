//! Seeded stress test for the work-stealing deque, the lock-free
//! structure behind every Cilk/TBB task hand-off.
//!
//! The storm asserts the one invariant a queue must keep under
//! concurrency: each pushed item is consumed **exactly once** — no loss
//! (a publish that no consumer ever observes), no duplication (two
//! consumers winning the same slot). Interleavings are driven by a
//! seeded splitmix64 stream so a failing seed reproduces.

use mic_eval::runtime::{Steal, WsDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// splitmix64: the seeded decision stream for interleavings.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Assert every one of `n` items was seen exactly once.
fn assert_exactly_once(hits: &[AtomicUsize], seed: u64, what: &str) {
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(
            h.load(Ordering::Relaxed),
            1,
            "{what} (seed {seed}): item {i} seen {} times",
            h.load(Ordering::Relaxed)
        );
    }
}

#[test]
fn deque_storm_every_item_exactly_once() {
    // Seven thieves plus the owner is eight participants, more than the
    // cores of a small runner, so steals race pushes and pops.
    for (thieves, seed) in [3usize, 7]
        .into_iter()
        .flat_map(|t| [1u64, 7, 42].map(|s| (t, s)))
    {
        let n = 40_000usize;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let d: WsDeque<usize> = WsDeque::new(256);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..thieves {
                let d = &d;
                let hits = &hits;
                let done = &done;
                s.spawn(move || loop {
                    match d.steal() {
                        Steal::Success(v) => {
                            hits[v].fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            if done.load(Ordering::Acquire) && d.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
            // Owner: seeded mix of pushes and pops, pops forced on
            // overflow — the engines' split/execute interleave.
            let mut rng = seed;
            let mut next = 0usize;
            while next < n {
                // SAFETY: this thread is the deque's sole owner.
                if splitmix(&mut rng) % 4 == 0 {
                    if let Some(v) = unsafe { d.pop() } {
                        hits[v].fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    match unsafe { d.push(next) } {
                        Ok(()) => next += 1,
                        Err(_) => {
                            if let Some(v) = unsafe { d.pop() } {
                                hits[v].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
            while let Some(v) = unsafe { d.pop() } {
                hits[v].fetch_add(1, Ordering::Relaxed);
            }
            done.store(true, Ordering::Release);
        });
        assert_exactly_once(&hits, seed, &format!("deque storm, {thieves} thieves"));
        assert!(d.is_empty());
    }
}
