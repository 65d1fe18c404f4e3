//! Direction-optimizing BFS (Beamer-style top-down / bottom-up switching).
//!
//! An extension beyond the paper's experiments: when the frontier grows
//! large, it becomes cheaper to iterate over *unvisited* vertices asking
//! "is any of my neighbors in the frontier?" (bottom-up) than to scan the
//! frontier's out-edges (top-down). This is the standard optimization the
//! Graph 500 community adopted shortly after the paper appeared; it is
//! included here because the paper's queue structures are exactly the
//! machinery a hybrid traversal needs on the top-down steps.

use crate::seq::{BfsResult, LevelOrder};
use crate::UNREACHED;
use mic_graph::stats::{gap_class, gap_counts, LocalityWindows, MemClass};
use mic_graph::{Csr, VertexId};
use mic_sim::{Costs, Pick, Policy, Region, Work};
use std::sync::Arc;

/// Traversal direction of one executed BFS level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    TopDown,
    BottomUp,
}

/// [`hybrid_bfs`] plus the per-level direction trace — the evidence that
/// the Beamer switch actually fired on a given graph.
#[derive(Clone, Debug)]
pub struct HybridResult {
    pub bfs: BfsResult,
    /// Direction chosen for each processed frontier (level 0 onward).
    pub directions: Vec<Direction>,
    /// Direction changes along the traversal; a traversal that starts
    /// bottom-up counts that initial departure from top-down as a switch.
    pub switches: usize,
}

fn count_switches(directions: &[Direction]) -> usize {
    let mut prev = Direction::TopDown;
    let mut switches = 0;
    for &d in directions {
        if d != prev {
            switches += 1;
        }
        prev = d;
    }
    switches
}

/// Heuristic parameters: switch to bottom-up when the frontier's out-edge
/// count exceeds `1/alpha` of the unexplored edges; switch back when the
/// frontier shrinks below `n / beta` vertices. Defaults follow Beamer's.
#[derive(Clone, Copy, Debug)]
pub struct Hybrid {
    pub alpha: usize,
    pub beta: usize,
}

impl Default for Hybrid {
    fn default() -> Self {
        Hybrid {
            alpha: 14,
            beta: 24,
        }
    }
}

/// Direction-optimizing BFS from `source`. Produces exactly the sequential
/// BFS levels.
pub fn hybrid_bfs(g: &Csr, source: VertexId, h: Hybrid) -> BfsResult {
    hybrid_bfs_stats(g, source, h).bfs
}

/// Like [`hybrid_bfs`], but also records which direction each level ran in
/// and how many times the traversal switched.
pub fn hybrid_bfs_stats(g: &Csr, source: VertexId, h: Hybrid) -> HybridResult {
    let n = g.num_vertices();
    assert!((source as usize) < n);
    let mut levels = vec![UNREACHED; n];
    levels[source as usize] = 0;
    let mut frontier: Vec<VertexId> = vec![source];
    let mut level = 1u32;
    let mut max_level = 0u32;
    let mut unexplored_edges: usize = 2 * g.num_edges();
    let mut directions = Vec::new();

    while !frontier.is_empty() {
        let frontier_edges: usize = frontier.iter().map(|&v| g.degree(v)).sum();
        let bottom_up = h.alpha > 0 && frontier_edges * h.alpha > unexplored_edges.max(1);
        directions.push(if bottom_up {
            Direction::BottomUp
        } else {
            Direction::TopDown
        });
        unexplored_edges = unexplored_edges.saturating_sub(frontier_edges);
        let mut next = Vec::new();
        if bottom_up {
            // Scan all unvisited vertices; adopt a parent if any neighbor
            // is in the current frontier (level - 1).
            for v in 0..n as VertexId {
                if levels[v as usize] != UNREACHED {
                    continue;
                }
                if g.neighbors(v)
                    .iter()
                    .any(|&w| levels[w as usize] == level - 1)
                {
                    levels[v as usize] = level;
                    next.push(v);
                }
            }
        } else {
            for &v in &frontier {
                for &w in g.neighbors(v) {
                    if levels[w as usize] == UNREACHED {
                        levels[w as usize] = level;
                        next.push(w);
                    }
                }
            }
        }
        if !next.is_empty() {
            max_level = level;
        }
        // Switch back to top-down when the frontier gets small again.
        let _ = h.beta; // the top-down test above re-evaluates every level
        frontier = next;
        level += 1;
    }
    let switches = count_switches(&directions);
    HybridResult {
        bfs: BfsResult {
            levels,
            num_levels: max_level + 1,
        },
        directions,
        switches,
    }
}

/// Parallel direction-optimizing BFS: top-down steps use the paper's
/// block-accessed queue; bottom-up steps scan the unvisited vertices in
/// parallel asking "is any neighbor on the frontier?". Produces exactly
/// the sequential levels.
pub fn parallel_hybrid_bfs(
    pool: &mic_runtime::ThreadPool,
    g: &Csr,
    source: VertexId,
    h: Hybrid,
) -> BfsResult {
    use crate::queue::block::{discover, queue_capacity};
    use mic_runtime::{parallel_for_chunks, BlockCursor, BlockQueue, PerWorker, Schedule};
    use std::sync::atomic::{AtomicU32, Ordering};

    let n = g.num_vertices();
    assert!((source as usize) < n);
    let t = pool.num_threads();
    let sentinel = VertexId::MAX;
    let block = 32usize;
    let sched = Schedule::Dynamic { chunk: 64 };

    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    levels[source as usize].store(0, Ordering::Relaxed);

    let cap = queue_capacity(n, block, t);
    let mut cur: BlockQueue<VertexId> = BlockQueue::with_writers(cap, block, t, sentinel);
    let mut next: BlockQueue<VertexId> = BlockQueue::with_writers(cap, block, t, sentinel);
    cur.writer().push(source);
    // Track the frontier as explicit vertices for edge counting and for
    // switching into bottom-up mode.
    let mut frontier: Vec<VertexId> = vec![source];
    let mut unexplored_edges: usize = 2 * g.num_edges();
    let mut level = 1u32;

    while !frontier.is_empty() {
        let frontier_edges: usize = frontier.iter().map(|&v| g.degree(v)).sum();
        let bottom_up = h.alpha > 0 && frontier_edges * h.alpha > unexplored_edges.max(1);
        unexplored_edges = unexplored_edges.saturating_sub(frontier_edges);

        if bottom_up {
            // Parallel scan of all unvisited vertices.
            let found = mic_runtime::ConcurrentPushVec::new(n);
            {
                let levels_ref = &levels;
                let found_ref = &found;
                parallel_for_chunks(pool, 0..n, sched, |chunk, _| {
                    for vi in chunk {
                        if levels_ref[vi].load(Ordering::Relaxed) != UNREACHED {
                            continue;
                        }
                        let v = vi as VertexId;
                        if g.neighbors(v)
                            .iter()
                            .any(|&w| levels_ref[w as usize].load(Ordering::Relaxed) == level - 1)
                        {
                            levels_ref[vi].store(level, Ordering::Relaxed);
                            found_ref.push(v);
                        }
                    }
                });
            }
            let mut found = found;
            frontier = found.drain();
            // Rebuild the block queue so a later top-down step can resume.
            cur.reset();
            next.reset();
            let cur_ref = &cur;
            let frontier_ref = &frontier;
            pool.run(|ctx| {
                let mut w = cur_ref.writer();
                let mut i = ctx.id;
                while i < frontier_ref.len() {
                    w.push(frontier_ref[i]);
                    i += ctx.num_threads;
                }
            });
        } else {
            let slots = cur.raw_len();
            {
                let cur_ref = &cur;
                let next_ref = &next;
                let levels_ref = &levels;
                let cursors: PerWorker<BlockCursor> = PerWorker::new(t, |_| BlockCursor::default());
                parallel_for_chunks(pool, 0..slots, sched, |chunk, ctx| {
                    cursors.with(ctx, |bc| {
                        for i in chunk {
                            let v = cur_ref.slot(i);
                            if v == sentinel {
                                continue;
                            }
                            for &w in g.neighbors(v) {
                                if discover(levels_ref, w, level, false) {
                                    next_ref.push_with(bc, w);
                                }
                            }
                        }
                    });
                });
            }
            cur.reset();
            std::mem::swap(&mut cur, &mut next);
            // Collect the new frontier for the edge-count heuristic.
            let mut f = Vec::new();
            for i in 0..cur.raw_len() {
                let v = cur.slot(i);
                if v != sentinel {
                    f.push(v);
                }
            }
            frontier = f;
        }
        level += 1;
    }

    let levels: Vec<u32> = levels.into_iter().map(|l| l.into_inner()).collect();
    let num_levels = levels
        .iter()
        .copied()
        .filter(|&l| l != UNREACHED)
        .max()
        .map_or(0, |m| m + 1);
    BfsResult { levels, num_levels }
}

/// Simulator-facing workload of one hybrid traversal: one region per
/// processed frontier, in the direction the native heuristic chose.
#[derive(Clone)]
pub struct HybridWorkload {
    /// Per-region costs. Top-down regions cover the frontier vertices, a
    /// handle over that level of the by-level order priced from the shared
    /// counts; bottom-up regions cover the *unvisited candidates* the scan
    /// walks (the visited-skip is a bitmap test the model folds into the
    /// candidates' issue cost), an explicit array, since each candidate's
    /// cost depends on where its early-exit scan stops.
    pub level_work: Vec<Costs>,
    /// Iterations per region.
    pub widths: Vec<usize>,
    /// Direction per region, from the native run.
    pub directions: Vec<Direction>,
    /// Direction switches in the native run.
    pub switches: usize,
}

/// Build the hybrid-BFS workload from a native [`hybrid_bfs_stats`] run.
///
/// Top-down levels reuse the paper's relaxed block-queue cost model;
/// bottom-up levels cost each still-unvisited vertex by how many neighbor
/// probes its sequential early-exit scan performs (all of them when no
/// parent is found yet, up to the first frontier neighbor otherwise).
pub fn instrument_hybrid(
    g: &Csr,
    source: VertexId,
    windows: LocalityWindows,
    h: Hybrid,
) -> HybridWorkload {
    use crate::instrument::{vertex_work, SimVariant};

    let r = hybrid_bfs_stats(g, source, h);
    let levels = &r.bfs.levels;
    let by_level = LevelOrder::of(levels);
    let counts = Arc::new(gap_counts(g, None, windows));
    let n = g.num_vertices();
    let block = SimVariant::Block {
        block: 32,
        relaxed: true,
    };

    // Unvisited candidates at the start of each processed level: vertices
    // whose final level is >= the level being discovered, or unreached.
    let ranges: Vec<_> = by_level.levels().collect();
    let level_work: Vec<Costs> = r
        .directions
        .iter()
        .enumerate()
        .map(|(i, &dir)| match dir {
            Direction::TopDown => {
                let pick = Pick::Listed(Arc::clone(&by_level.order), ranges[i].clone());
                Costs::priced(Arc::clone(&counts), pick, move |c| vertex_work(*c, block))
            }
            Direction::BottomUp => {
                let discover_level = i as u32 + 1;
                let work: Vec<Work> = (0..n as VertexId)
                    .filter(|&v| {
                        let l = levels[v as usize];
                        l == UNREACHED || l >= discover_level
                    })
                    .map(|v| bottom_up_work(g, v, levels, discover_level, windows))
                    .collect();
                Costs::from(Arc::new(work))
            }
        })
        .collect();
    let widths = level_work.iter().map(Costs::len).collect();
    HybridWorkload {
        level_work,
        widths,
        directions: r.directions,
        switches: r.switches,
    }
}

/// The top-down level arrays, built by an explicit loop (`None` for a
/// bottom-up level): the bit-identity reference for the level handles.
#[cfg(test)]
fn reference_top_down(
    g: &Csr,
    source: VertexId,
    windows: LocalityWindows,
) -> Vec<Option<Vec<Work>>> {
    use crate::instrument::{vertex_work, SimVariant};
    let r = hybrid_bfs_stats(g, source, Hybrid::default());
    let by_level = LevelOrder::of(&r.bfs.levels);
    let block = SimVariant::Block {
        block: 32,
        relaxed: true,
    };
    let ranges: Vec<_> = by_level.levels().collect();
    r.directions
        .iter()
        .enumerate()
        .map(|(i, &dir)| {
            (dir == Direction::TopDown).then(|| {
                by_level.order[ranges[i].clone()]
                    .iter()
                    .map(|&v| {
                        let c = mic_graph::stats::GapCounts::of(v, g.neighbors(v), |x| x, windows);
                        vertex_work(c, block)
                    })
                    .collect()
            })
        })
        .collect()
}

/// Cost of one bottom-up candidate: probe neighbors in order until one
/// sits on the previous level (then store the level and push), or exhaust
/// them. Deterministic given the final level array.
fn bottom_up_work(
    g: &Csr,
    v: VertexId,
    levels: &[u32],
    discover_level: u32,
    windows: LocalityWindows,
) -> Work {
    let mut w = Work {
        // Bitmap/level test for the candidate itself + loop setup.
        issue: 6.0,
        l1: 1.0,
        ..Default::default()
    };
    let mut probes = 0.0f64;
    let discovered = levels[v as usize] == discover_level;
    for &u in g.neighbors(v) {
        probes += 1.0;
        match gap_class(v, u, windows) {
            MemClass::L1 => w.l1 += 1.0,
            MemClass::L2 => w.l2 += 1.0,
            MemClass::Dram => w.dram += 1.0,
        }
        if discovered && levels[u as usize] == discover_level - 1 {
            break;
        }
    }
    w.issue += 3.0 * probes;
    w.l2 += probes / 16.0; // prefetched adjacency stream
    if discovered {
        w.issue += 4.0; // level store + frontier push bookkeeping
        w.l1 += 1.0;
        w.atomics += 1.0; // concurrent push of the discovery
    }
    w
}

impl HybridWorkload {
    /// The region sequence under `policy`, with the same per-level serial
    /// bookkeeping prefix as the layered-BFS workload (frontier swap,
    /// edge-count heuristic).
    pub fn regions(&self, policy: Policy) -> Vec<Region> {
        self.level_work
            .iter()
            .map(|lw| {
                Region::shared(lw.clone(), policy).with_serial_pre(Work {
                    issue: 140.0,
                    l1: 6.0,
                    ..Default::default()
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::bfs;
    use crate::verify::check_levels;
    use mic_graph::generators::{erdos_renyi_gnm, path, rmat, star, RmatProbs};

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..5 {
            let g = erdos_renyi_gnm(1500, 9000, seed);
            let want = bfs(&g, 3);
            let got = hybrid_bfs(&g, 3, Hybrid::default());
            assert_eq!(got.levels, want.levels, "seed {seed}");
            assert_eq!(got.num_levels, want.num_levels);
        }
    }

    #[test]
    fn matches_on_rmat_where_bottom_up_triggers() {
        let g = rmat(12, 16, RmatProbs::graph500(), 7);
        let want = bfs(&g, 0);
        let got = hybrid_bfs(&g, 0, Hybrid::default());
        assert_eq!(got.levels, want.levels);
        check_levels(&g, 0, &got.levels).unwrap();
    }

    #[test]
    fn star_switches_bottom_up_immediately() {
        let g = star(10_000);
        let got = hybrid_bfs(&g, 0, Hybrid::default());
        assert_eq!(got.num_levels, 2);
    }

    #[test]
    fn chain_stays_top_down() {
        let g = path(500);
        let got = hybrid_bfs(&g, 0, Hybrid::default());
        assert_eq!(got.levels, bfs(&g, 0).levels);
    }

    #[test]
    fn parallel_hybrid_matches_sequential() {
        use mic_runtime::ThreadPool;
        for (g, src) in [
            (rmat(12, 16, RmatProbs::graph500(), 7), 0u32),
            (erdos_renyi_gnm(1500, 9000, 2), 3),
            (star(3000), 0),
            (path(200), 0),
        ] {
            let want = bfs(&g, src);
            for t in [1usize, 4, 8] {
                let pool = ThreadPool::new(t);
                let got = parallel_hybrid_bfs(&pool, &g, src, Hybrid::default());
                assert_eq!(got.levels, want.levels, "t = {t}");
                assert_eq!(got.num_levels, want.num_levels);
            }
        }
    }

    #[test]
    fn alpha_zero_disables_bottom_up() {
        let g = star(100);
        let got = hybrid_bfs(&g, 0, Hybrid { alpha: 0, beta: 24 });
        assert_eq!(got.levels, bfs(&g, 0).levels);
    }

    #[test]
    fn stats_record_switches_on_rmat() {
        let g = rmat(12, 16, RmatProbs::graph500(), 7);
        let r = hybrid_bfs_stats(&g, 0, Hybrid::default());
        assert_eq!(r.bfs.levels, bfs(&g, 0).levels);
        assert!(r.switches > 0, "RMAT must trigger the Beamer switch");
        assert!(r.directions.contains(&Direction::BottomUp));
        assert_eq!(
            r.switches,
            count_switches(&r.directions),
            "switch count must match the trace"
        );
    }

    #[test]
    fn stats_with_alpha_zero_never_switch() {
        let g = path(500);
        let r = hybrid_bfs_stats(&g, 0, Hybrid { alpha: 0, beta: 24 });
        assert_eq!(r.switches, 0);
        assert!(r.directions.iter().all(|&d| d == Direction::TopDown));
    }

    #[test]
    fn hybrid_workload_shape_and_determinism() {
        use mic_graph::stats::LocalityWindows;
        let g = rmat(11, 16, RmatProbs::graph500(), 7);
        let win = LocalityWindows::default();
        let w = instrument_hybrid(&g, 0, win, Hybrid::default());
        assert_eq!(w.level_work.len(), w.directions.len());
        assert_eq!(w.widths.len(), w.directions.len());
        assert!(w.switches > 0);
        assert!(w
            .level_work
            .iter()
            .flat_map(|l| l.to_vec())
            .all(|x| x.is_valid()));
        // Bit-identical on a second native run.
        let w2 = instrument_hybrid(&g, 0, win, Hybrid::default());
        for (a, b) in w.level_work.iter().zip(&w2.level_work) {
            assert_eq!(a.to_vec(), b.to_vec());
        }
        // Bottom-up regions cover the unvisited tail, which on a
        // low-diameter RMAT dwarfs the corresponding frontier width.
        let first_bu = w
            .directions
            .iter()
            .position(|&d| d == Direction::BottomUp)
            .unwrap();
        assert!(w.widths[first_bu] > 0);
    }

    /// Every top-down level handle, and the prefix a region builds from
    /// it, equals the reference array bit for bit, in natural, random and
    /// Cuthill–McKee order.
    #[test]
    fn top_down_handles_match_the_reference_arrays_bit_for_bit() {
        use mic_graph::ordering::{apply, Ordering};
        use mic_graph::stats::LocalityWindows;
        let bits = |ws: &[Work]| -> Vec<[u64; 6]> {
            ws.iter()
                .map(|w| [w.issue, w.l1, w.l2, w.dram, w.flops, w.atomics].map(f64::to_bits))
                .collect()
        };
        let g = rmat(11, 16, RmatProbs::graph500(), 7);
        let win = LocalityWindows::default();
        for order in [
            Ordering::Natural,
            Ordering::Random { seed: 3 },
            Ordering::CuthillMcKee { source: 0 },
        ] {
            // Natural vertex 0, where the switch fires, under its new id.
            let (h, perm) = apply(&g, order);
            let got = instrument_hybrid(&h, perm[0], win, Hybrid::default());
            let want = reference_top_down(&h, perm[0], win);
            assert_eq!(got.level_work.len(), want.len());
            assert!(want.iter().any(Option::is_some) && want.iter().any(Option::is_none));
            let policy = Policy::OmpDynamic { chunk: 64 };
            for (l, (got, want)) in got.level_work.iter().zip(want).enumerate() {
                let Some(want) = want else { continue };
                let what = format!("{order:?} level {l}");
                assert_eq!(bits(&got.to_vec()), bits(&want), "{what}");
                let (got, want) = (
                    Region::shared(got.clone(), policy),
                    Region::new(want, policy),
                );
                assert_eq!(bits(got.prefix_sums()), bits(want.prefix_sums()), "{what}");
            }
        }
    }

    #[test]
    fn hybrid_workload_simulates_faster_than_pure_top_down() {
        use crate::instrument::{instrument, SimVariant};
        use mic_graph::stats::LocalityWindows;
        use mic_sim::{simulate, Machine, Policy};
        let g = rmat(12, 16, RmatProbs::graph500(), 7);
        let win = LocalityWindows::default();
        let pol = Policy::OmpDynamic { chunk: 64 };
        let m = Machine::knf();
        let hybrid = instrument_hybrid(&g, 0, win, Hybrid::default()).regions(pol);
        let layered = instrument(
            &g,
            0,
            win,
            SimVariant::Block {
                block: 32,
                relaxed: true,
            },
        )
        .regions(pol);
        let t = 61;
        let h = simulate(&m, t, &hybrid).cycles;
        let l = simulate(&m, t, &layered).cycles;
        assert!(
            h < l,
            "direction optimization should win on scale-free: hybrid {h} vs layered {l}"
        );
    }
}
