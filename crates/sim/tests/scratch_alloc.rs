//! `SimScratch` keeps its promise: once a region has been simulated with
//! it, simulating that region again allocates nothing, under every
//! scheduling policy. Lives in its own test binary because it installs a
//! counting global allocator.

use mic_sim::{simulate_region_with_scratch, Machine, Policy, Region, SimScratch, Work};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's allocations (and reallocations), so other
/// test threads cannot disturb a measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which keeps the
// `GlobalAlloc` contract; the counting itself never allocates (a
// const-initialised thread-local `Cell`, skipped once it is destroyed).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn second_region_with_the_same_scratch_allocates_nothing() {
    let m = Machine::knf();
    let iters: Vec<Work> = (0..5_000usize)
        .map(|i| Work {
            issue: 5.0 + (i % 7) as f64,
            dram: if i % 5 == 0 { 1.0 } else { 0.0 },
            flops: (i % 4) as f64,
            atomics: if i % 11 == 0 { 1.0 } else { 0.0 },
            ..Default::default()
        })
        .collect();
    let policies = [
        Policy::Serial,
        Policy::OmpStatic { chunk: None },
        Policy::OmpStatic { chunk: Some(16) },
        Policy::OmpDynamic { chunk: 100 },
        Policy::OmpGuided { min_chunk: 8 },
        Policy::Cilk { grain: 100 },
        Policy::TbbSimple { grain: 40 },
        Policy::TbbAuto,
        Policy::TbbAffinity,
    ];
    for policy in policies {
        let r = Region::new(iters.clone(), policy);
        for t in [1usize, 31, 121] {
            let mut scratch = SimScratch::new();
            let first = simulate_region_with_scratch(&m, t, &r, &mut scratch);
            let mut second = 0.0;
            let n =
                allocs_during(|| second = simulate_region_with_scratch(&m, t, &r, &mut scratch));
            assert_eq!(n, 0, "{policy:?} t={t}: second run allocated {n} times");
            assert_eq!(first.to_bits(), second.to_bits(), "{policy:?} t={t}");
        }
    }
}
