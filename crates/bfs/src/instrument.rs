//! Per-level work descriptors of layered BFS, for the machine simulator —
//! the engine behind Figure 4.
//!
//! A sequential BFS gives the exact level structure; each level becomes one
//! simulated parallel region over its vertices (in ascending id order),
//! followed by the implicit barrier the engine charges per region. Each
//! vertex is priced from its [`GapCounts`], so a workload is one cost
//! handle per level over the by-level vertex order and the counts array,
//! and several variants share both.
//! The per-vertex costs differ by frontier structure:
//!
//! - **Block**: slot read + sentinel check, neighbor level reads (hit class
//!   from the id gap), one amortized fetch-add per block of discoveries;
//!   the locked flavor adds a CAS per discovered vertex;
//! - **Bag**: pointer-chasing inserts and node-granular traversal — the
//!   reason the paper finds it "performs poorly on Intel MIC";
//! - **TLS**: a CAS per discovered vertex plus the per-level merge of the
//!   thread-local queues into the global one (extra copy traffic).

use crate::seq::{bfs, LevelOrder};
use mic_graph::stats::{gap_counts, GapCounts, LocalityWindows};
use mic_graph::{Csr, VertexId};
use mic_sim::{Costs, Pick, Policy, Region, Work};
use std::sync::Arc;

/// Which implementation the workload models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimVariant {
    /// Block-accessed queue (the paper's), locked or relaxed.
    Block { block: usize, relaxed: bool },
    /// Leiserson–Schardl bag with the given grain.
    Bag { grain: usize },
    /// SNAP-style TLS queues (locked, test-first).
    Tls,
}

impl SimVariant {
    /// Legend name, as in Figure 4.
    pub fn name(&self, runtime: &str) -> String {
        match self {
            SimVariant::Block { relaxed, .. } => {
                format!("{runtime}-Block{}", if *relaxed { "-relaxed" } else { "" })
            }
            SimVariant::Bag { .. } => format!("{runtime}-Bag-relaxed"),
            SimVariant::Tls => format!("{runtime}-TLS"),
        }
    }
}

/// Simulator-facing workload of one BFS execution.
#[derive(Clone)]
pub struct BfsWorkload {
    /// One cost handle per level (level 1 onward; level 0 is the source
    /// alone and is folded into the first region): that level's range of
    /// the by-level vertex order, priced from the shared counts.
    pub level_work: Vec<Costs>,
    /// Level widths `x_l`, the analytic model's input.
    pub widths: Vec<usize>,
}

/// Build the workload of a BFS from `source` under `variant`.
pub fn instrument(
    g: &Csr,
    source: VertexId,
    windows: LocalityWindows,
    variant: SimVariant,
) -> BfsWorkload {
    let order = LevelOrder::of(&bfs(g, source).levels);
    instrument_with(&order, Arc::new(gap_counts(g, None, windows)), variant)
}

/// The workload under `variant` of a BFS whose vertices, level by level,
/// are `order`, priced from the [`GapCounts`] of every vertex, indexed by
/// id. A level's region lists its vertices in ascending id order, so only
/// the levels (distances from the source) and the counts matter, not the
/// order inside adjacency lists. Every level shares `order` and `counts`.
pub fn instrument_with(
    order: &LevelOrder,
    counts: Arc<Vec<GapCounts>>,
    variant: SimVariant,
) -> BfsWorkload {
    let level_work = order
        .levels()
        .map(|r| {
            let pick = Pick::Listed(Arc::clone(&order.order), r);
            Costs::priced(Arc::clone(&counts), pick, move |c| vertex_work(*c, variant))
        })
        .collect();
    BfsWorkload {
        level_work,
        widths: order.widths.clone(),
    }
}

pub(crate) fn vertex_work(c: GapCounts, variant: SimVariant) -> Work {
    let (deg, l1, l2, dram) = (c.deg as f64, c.l1 as f64, c.l2 as f64, c.dram as f64);
    // Common: slot/queue read, level checks on every neighbor, adjacency
    // streaming.
    let mut w = Work {
        issue: 8.0 + 4.0 * deg,
        l1,
        l2: l2 + deg / 16.0, // prefetched adjacency stream: L2/ring traffic
        dram,
        flops: 0.0,
        atomics: 0.0,
    };
    // Discovery cost, attributed to the discovered vertex itself (each
    // reached vertex is written + pushed exactly once — relaxed duplicates
    // are rare enough that the paper treats them as noise).
    match variant {
        SimVariant::Block { block, relaxed } => {
            w.issue += 5.0;
            w.l1 += 1.0; // level store + queue slot write land in cache
            w.atomics += 1.0 / block as f64; // one fetch-add per block
            if !relaxed {
                w.atomics += 1.0; // CAS per discovered vertex
            }
        }
        SimVariant::Bag { grain } => {
            // Pennant insert: pointer bookkeeping, allocation amortized
            // over the node, carry unions; traversal re-walks the tree.
            w.issue += 30.0 + 60.0 / grain as f64;
            w.l1 += 3.0;
            w.dram += 0.6; // freshly allocated nodes miss
                           // "The code utilizes dynamic memory for its bag data structure
                           // and uses complex pointer techniques": allocator locks and
                           // steal-deque transfers serialize on shared lines.
            w.atomics += 1.8;
        }
        SimVariant::Tls => {
            w.issue += 8.0;
            w.atomics += 1.0; // CAS lock per discovered vertex
                              // Merge into the global queue: write + re-read.
            w.issue += 4.0;
            w.l1 += 1.0;
            w.dram += 2.0 / 16.0;
        }
    }
    w
}

/// The per-level arrays, built by an explicit loop: the bit-identity
/// reference for the level handles.
#[cfg(test)]
pub(crate) fn reference_levels(
    levels: &[u32],
    counts: &[GapCounts],
    variant: SimVariant,
) -> Vec<Vec<Work>> {
    let mut by_level: Vec<Vec<VertexId>> = vec![Vec::new(); crate::seq::level_widths(levels).len()];
    for (v, &l) in levels.iter().enumerate() {
        if l != crate::UNREACHED {
            by_level[l as usize].push(v as VertexId);
        }
    }
    by_level
        .iter()
        .map(|verts| {
            verts
                .iter()
                .map(|&v| vertex_work(counts[v as usize], variant))
                .collect()
        })
        .collect()
}

impl BfsWorkload {
    /// The region sequence (one per level) under `policy`. Each region
    /// carries a small serial prefix for the queue swap / level
    /// bookkeeping the paper's implementations do between levels.
    pub fn regions(&self, policy: Policy) -> Vec<Region> {
        self.level_work
            .iter()
            .map(|lw| {
                Region::shared(lw.clone(), policy).with_serial_pre(Work {
                    issue: 120.0,
                    l1: 6.0,
                    ..Default::default()
                })
            })
            .collect()
    }

    /// Like [`BfsWorkload::regions`], but modeling a persistent worker
    /// team (no per-level fork; only the in-region barrier is charged) —
    /// the alternative organization the fork-vs-persistent ablation prices.
    pub fn regions_persistent(&self, policy: Policy) -> Vec<Region> {
        self.regions(policy)
            .into_iter()
            .map(|r| r.persistent())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_graph::generators::{path, rgg3d_with_avg_degree, Box3};
    use mic_sim::{simulate, Machine, Policy};

    fn mesh() -> Csr {
        rgg3d_with_avg_degree(6000, Box3::new(10.0, 1.0, 1.0), 14.0, 3)
    }

    /// Every level handle under Block (relaxed and locked), Bag and Tls,
    /// and the prefix a region builds from it, equals the reference arrays
    /// bit for bit, in natural, random and Cuthill–McKee order.
    #[test]
    fn level_handles_match_the_reference_arrays_bit_for_bit() {
        use mic_graph::ordering::{apply, Ordering};
        let bits = |ws: &[Work]| -> Vec<[u64; 6]> {
            ws.iter()
                .map(|w| [w.issue, w.l1, w.l2, w.dram, w.flops, w.atomics].map(f64::to_bits))
                .collect()
        };
        let g = mesh();
        for order in [
            Ordering::Natural,
            Ordering::Random { seed: 3 },
            Ordering::CuthillMcKee { source: 0 },
        ] {
            let (h, _) = apply(&g, order);
            let levels = bfs(&h, (h.num_vertices() / 2) as u32).levels;
            let counts = gap_counts(&h, None, LocalityWindows::default());
            let level_order = LevelOrder::of(&levels);
            for variant in [
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
            ] {
                let got = instrument_with(&level_order, Arc::new(counts.clone()), variant);
                let want = reference_levels(&levels, &counts, variant);
                assert_eq!(got.level_work.len(), want.len());
                let policy = Policy::OmpDynamic { chunk: 32 };
                for (l, (got, want)) in got.level_work.iter().zip(want).enumerate() {
                    let what = format!("{order:?} {variant:?} level {l}");
                    assert_eq!(bits(&got.to_vec()), bits(&want), "{what}");
                    let (got, want) = (
                        Region::shared(got.clone(), policy),
                        Region::new(want, policy),
                    );
                    assert_eq!(bits(got.prefix_sums()), bits(want.prefix_sums()), "{what}");
                }
            }
        }
    }

    #[test]
    fn widths_match_graph_structure() {
        let g = path(50);
        let w = instrument(&g, 0, LocalityWindows::default(), SimVariant::Tls);
        assert_eq!(w.widths, vec![1; 50]);
        assert_eq!(w.level_work.len(), 50);
    }

    #[test]
    fn bag_costs_more_than_block() {
        let g = mesh();
        let src = (g.num_vertices() / 2) as u32;
        let block = instrument(
            &g,
            src,
            LocalityWindows::default(),
            SimVariant::Block {
                block: 32,
                relaxed: true,
            },
        );
        let bag = instrument(
            &g,
            src,
            LocalityWindows::default(),
            SimVariant::Bag { grain: 64 },
        );
        let sum = |w: &BfsWorkload| -> f64 {
            w.level_work
                .iter()
                .flat_map(|l| l.to_vec())
                .map(|x| x.issue + x.dram * 50.0)
                .sum()
        };
        assert!(sum(&bag) > 1.3 * sum(&block));
    }

    #[test]
    fn locked_has_more_atomics_than_relaxed() {
        let g = mesh();
        let src = (g.num_vertices() / 2) as u32;
        let a = |relaxed: bool| -> f64 {
            instrument(
                &g,
                src,
                LocalityWindows::default(),
                SimVariant::Block { block: 32, relaxed },
            )
            .level_work
            .iter()
            .flat_map(|l| l.to_vec())
            .map(|w| w.atomics)
            .sum()
        };
        assert!(a(false) > 5.0 * a(true));
    }

    #[test]
    fn simulated_bfs_speedup_is_sublinear_and_bag_is_worst() {
        let g = mesh();
        let src = (g.num_vertices() / 2) as u32;
        let m = Machine::knf();
        let win = LocalityWindows::default();
        let speedup = |variant: SimVariant, policy: Policy, t: usize| -> f64 {
            let w = instrument(&g, src, win, variant);
            let regions = w.regions(policy);
            simulate(&m, 1, &regions).cycles / simulate(&m, t, &regions).cycles
        };
        let s_block = speedup(
            SimVariant::Block {
                block: 32,
                relaxed: true,
            },
            Policy::OmpDynamic { chunk: 32 },
            61,
        );
        let s_bag = speedup(
            SimVariant::Bag { grain: 64 },
            Policy::Cilk { grain: 64 },
            61,
        );
        assert!(s_block < 61.0, "BFS must be sublinear, got {s_block}");
        assert!(
            s_block > 2.0,
            "block queue should still scale some, got {s_block}"
        );
        assert!(s_bag < s_block, "bag {s_bag} must trail block {s_block}");
    }

    #[test]
    fn names_match_legends() {
        assert_eq!(
            SimVariant::Block {
                block: 32,
                relaxed: true
            }
            .name("OpenMP"),
            "OpenMP-Block-relaxed"
        );
        assert_eq!(
            SimVariant::Block {
                block: 32,
                relaxed: false
            }
            .name("TBB"),
            "TBB-Block"
        );
        assert_eq!(
            SimVariant::Bag { grain: 64 }.name("CilkPlus"),
            "CilkPlus-Bag-relaxed"
        );
        assert_eq!(SimVariant::Tls.name("OpenMP"), "OpenMP-TLS");
    }
}
