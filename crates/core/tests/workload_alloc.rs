//! Pricing a workload over a suite graph's cached passes allocates per
//! level, not per vertex: every kernel returns cost handles over the shared
//! gap counts and the shared by-level vertex order, so none copies the
//! counts or materialises a per-iteration `Work` array. Bytes are counted
//! per thread by a counting global allocator, so the cache's own builds
//! (which run on the calling thread) are inside the count.

use mic_eval::bfs::components::components_from_counts;
use mic_eval::bfs::instrument::{instrument_with as bfs_from_counts, SimVariant};
use mic_eval::bfs::seq::{bfs, table1_source, LevelOrder};
use mic_eval::coloring::instrument::from_counts as coloring_from_counts;
use mic_eval::graph::stats::{gap_counts, LocalityWindows};
use mic_eval::graph::suite::{PaperGraph, Scale};
use mic_eval::irregular::instrument::{from_counts as irregular_from_counts, pagerank_from_counts};
use mic_eval::workload_cache::{self, OrderTag};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting the bytes each thread asks for: the
/// count is per thread, so work on other threads does not disturb it.
struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown goes uncounted.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only touches a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The bytes `f` allocated on this thread, and its result (dropped by the
/// caller, outside the count).
fn bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

/// What pricing one vertex-sweep workload may allocate, whatever the graph.
const FLAT: u64 = 8 * 1024;
/// What pricing a BFS workload may allocate per level, on top of [`FLAT`].
const PER_LEVEL: u64 = 256;

#[test]
fn pricing_over_cached_passes_allocates_per_level_not_per_vertex() {
    let scale = Scale::Fraction(64);
    let windows = LocalityWindows::default();
    let variants = [
        SimVariant::Block {
            block: 32,
            relaxed: true,
        },
        SimVariant::Block {
            block: 32,
            relaxed: false,
        },
        SimVariant::Bag { grain: 64 },
        SimVariant::Tls,
    ];
    for pg in PaperGraph::every() {
        let g = workload_cache::graph(pg, scale);
        let n = g.num_vertices() as u64;
        // The passes as the cache holds them.
        let counts = Arc::new(gap_counts(&g, None, windows));
        let order = LevelOrder::of(&bfs(&g, table1_source(&g)).levels);
        let levels = order.widths.len() as u64;
        let bfs_bound = FLAT + PER_LEVEL * levels;
        // A copy of the counts (16 B per vertex) breaks either bound, and a
        // `Vec<Work>` (48 B per vertex) breaks it thrice over.
        assert!(
            16 * n > bfs_bound,
            "{}: the bounds must see a copy",
            pg.name()
        );
        let what = |w: &str| format!("{w} on {} ({n} vertices, {levels} levels)", pg.name());
        let within = |used: u64, bound: u64, w: &str| {
            assert!(used <= bound, "{}: {used} B > {bound} B", what(w));
        };

        let (used, _w) = bytes(|| coloring_from_counts(Arc::clone(&counts)));
        within(used, FLAT, "coloring");
        for iter in [1, 3, 5, 10] {
            let (used, _w) = bytes(|| irregular_from_counts(Arc::clone(&counts), iter));
            within(used, FLAT, &format!("irregular {iter}"));
        }
        let (used, _w) = bytes(|| pagerank_from_counts(Arc::clone(&counts), 20));
        within(used, FLAT, "pagerank");
        let (used, _w) = bytes(|| components_from_counts(Arc::clone(&counts), 20));
        within(used, FLAT, "components");
        for variant in variants {
            let (used, _w) = bytes(|| bfs_from_counts(&order, Arc::clone(&counts), variant));
            within(used, bfs_bound, &format!("{variant:?}"));
        }

        // Through the cache: once one workload has built the graph's passes,
        // every further key prices from them.
        let _ = workload_cache::irregular(pg, scale, OrderTag::Natural, windows, 1);
        let _ = workload_cache::bfs(pg, scale, OrderTag::Natural, windows, variants[0]);
        let _ = workload_cache::coloring(pg, scale, OrderTag::Natural, windows);
        for iter in [3, 5, 10] {
            let (used, _w) =
                bytes(|| workload_cache::irregular(pg, scale, OrderTag::Natural, windows, iter));
            within(used, FLAT, &format!("cached irregular {iter}"));
        }
        for &variant in &variants[1..] {
            let (used, _w) =
                bytes(|| workload_cache::bfs(pg, scale, OrderTag::Natural, windows, variant));
            within(used, bfs_bound, &format!("cached {variant:?}"));
        }
    }
}
