//! Seeded stress tests for the lock-free hot-path structures.
//!
//! The storms assert the one invariant every queue must keep under
//! concurrency: each pushed item is consumed **exactly once** — no loss
//! (a publish that no consumer ever observes), no duplication (two
//! consumers winning the same slot). Interleavings are driven by a
//! seeded splitmix64 stream so a failing seed reproduces.

use mic_eval::runtime::{BoundedQueue, Injector, Steal, WsDeque};
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

#[test]
fn injector_storm_every_item_exactly_once() {
    for seed in [3u64, 11, 99] {
        let producers = 4usize;
        let per = 6_000usize;
        let n = producers * per;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let inj: Injector<usize> = Injector::new();
        let consumed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for p in 0..producers {
                let inj = &inj;
                let mut rng = seed.wrapping_add(p as u64);
                s.spawn(move || {
                    for i in 0..per {
                        inj.push(p * per + i);
                        // Seeded stalls push bursts past the ring into the
                        // overflow tier and back.
                        if splitmix(&mut rng) % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..4 {
                let inj = &inj;
                let hits = &hits;
                let consumed = &consumed;
                s.spawn(move || loop {
                    match inj.steal() {
                        Steal::Success(v) => {
                            hits[v].fetch_add(1, Ordering::Relaxed);
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => std::thread::yield_now(),
                        Steal::Empty => {
                            if consumed.load(Ordering::Relaxed) >= n {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_exactly_once(&hits, seed, "injector storm");
        assert!(inj.is_empty());
    }
}

/// A pure burst: everything is pushed before anything is stolen, so the
/// bulk of the traffic crosses the ring → overflow-segment boundary in
/// both directions.
#[test]
fn injector_burst_overflow_exactly_once() {
    let n = 3_000usize;
    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let inj: Injector<usize> = Injector::new();
    for i in 0..n {
        inj.push(i);
    }
    assert_eq!(inj.len(), n);
    let consumed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let inj = &inj;
            let hits = &hits;
            let consumed = &consumed;
            s.spawn(move || loop {
                match inj.steal() {
                    Steal::Success(v) => {
                        hits[v].fetch_add(1, Ordering::Relaxed);
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                    Steal::Retry => std::thread::yield_now(),
                    Steal::Empty => {
                        if consumed.load(Ordering::Relaxed) >= n {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert_exactly_once(&hits, 0, "injector burst");
    assert!(inj.is_empty());
}

#[test]
fn bounded_ring_storm_every_item_exactly_once() {
    for seed in [5u64, 23] {
        let producers = 3usize;
        let per = 8_000usize;
        let n = producers * per;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let q: BoundedQueue<usize> = BoundedQueue::new(64);
        let consumed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for p in 0..producers {
                let q = &q;
                let mut rng = seed.wrapping_mul(0x9e3779b9).wrapping_add(p as u64);
                s.spawn(move || {
                    for i in 0..per {
                        let mut v = p * per + i;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    if splitmix(&mut rng) % 2 == 0 {
                                        std::thread::yield_now();
                                    }
                                }
                            }
                        }
                    }
                });
            }
            for _ in 0..3 {
                let q = &q;
                let hits = &hits;
                let consumed = &consumed;
                s.spawn(move || loop {
                    match q.pop() {
                        Some(v) => {
                            hits[v].fetch_add(1, Ordering::Relaxed);
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if consumed.load(Ordering::Relaxed) >= n {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_exactly_once(&hits, seed, "bounded ring storm");
        assert!(q.is_empty());
    }
}
