//! Instrumented-workload cache for the experiment drivers.
//!
//! A process instruments each distinct (graph, scale, ordering, locality
//! windows[, kernel knob]) combination exactly once, no matter how many
//! figures — or parallel sweep jobs — ask for it. Graphs are cached in
//! natural order only, each with two passes built on first use: the
//! Table-1 BFS as a by-level vertex order ([`LevelOrder`]) and, per
//! locality windows, the [`GapCounts`] of every vertex. Every natural-order
//! workload is priced from those two arrays, and pricing copies neither: a
//! workload is cost handles ([`mic_sim::Costs`]) that share them and
//! compute each iteration's `Work` only while a region builds its prefix,
//! so a cached workload costs O(levels) bytes, not 48 B per iteration.
//! An ordering is a permutation π, made and dropped inside one workload
//! build; its own counts and levels, read from the natural CSR and π, live
//! as long as the workload's handles do. Only the native runs whose result
//! depends on the order inside a list (PageRank's float sums, label
//! propagation, hybrid BFS) run on a relabelled CSR built for that one
//! workload. Two layers:
//!
//! - **In-memory** (always on): process-global maps from key to
//!   `Arc`-shared graph or workload. Entries are built inside a per-key
//!   `OnceLock`, so concurrent sweep jobs that race on the same key block
//!   on one build instead of duplicating it, while distinct keys build in
//!   parallel.
//! - **Durable** (opt-in): when `MIC_STORE` names a mic-store file, it
//!   holds the inputs of pricing, never prices: suite graphs
//!   (`csr1-<graph>-<scale>` keys, `MICCSR01` bytes) and PageRank's
//!   converged iteration count (`pr1-<graph>-<scale>-<order>` keys, one
//!   little-endian `u64`), so *separate* runs skip generation and
//!   PageRank's native run. Every workload is priced again from the cached
//!   passes in each process: a few handles, nothing worth a record.
//!   PageRank's count is the one derived value kept: its
//!   native run to convergence is ≈ 125 ms of a warm 1/8 pass on a 2-core
//!   Xeon, while re-deriving components' and hybrid BFS's native runs
//!   moves an exhibit by ≤ 2 ms there. The count is keyed by ordering because it depends on the
//!   order of the float sums. The store hands back the exact bytes that
//!   were put or a miss; every value is still re-validated here before
//!   use. `csr1` / `pr1` are the semantic versions of the data: bump them
//!   when generation or PageRank's parameters change meaning, or delete
//!   the store file.

use mic_bfs::components::{components_from_counts, components_sync, ComponentsWorkload};
use mic_bfs::direction::{instrument_hybrid, Hybrid, HybridWorkload};
use mic_bfs::instrument::{instrument_with as bfs_from_counts, BfsWorkload, SimVariant};
use mic_bfs::seq::{bfs as bfs_levels, table1_source, LevelOrder};
use mic_coloring::instrument::{from_counts as coloring_from_counts, ColoringWorkload};
use mic_coloring::seq::greedy_color;
use mic_graph::io::{read_csr_bin, write_csr_bin};
use mic_graph::ordering::{permutation, Ordering};
use mic_graph::stats::{gap_counts, GapCounts, LocalityWindows};
use mic_graph::suite::{build, PaperGraph, Scale};
use mic_graph::{Csr, VertexId};
use mic_irregular::apps::pagerank_seq;
use mic_irregular::instrument::{
    from_counts as irregular_from_counts, pagerank_from_counts, IrregularWorkload, PagerankWorkload,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

mod tier;
use tier::persisted;

/// Vertex ordering applied to a suite graph before instrumentation — the
/// hashable subset of [`Ordering`] the experiments use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OrderTag {
    Natural,
    Random { seed: u64 },
    CuthillMcKee { source: u32 },
}

/// A process-global key→value cache where each entry is built exactly
/// once. The map lock is held only to look up the entry's cell; the build
/// itself runs under the cell's `OnceLock`, so different keys build
/// concurrently while same-key racers share one build.
struct Cache<K, V>(OnceLock<Mutex<HashMap<K, Arc<OnceLock<V>>>>>);

impl<K: Eq + Hash, V: Clone> Cache<K, V> {
    const fn new() -> Self {
        Cache(OnceLock::new())
    }

    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<K, Arc<OnceLock<V>>>> {
        let map = self.0.get_or_init(|| Mutex::new(HashMap::new()));
        map.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        let cell = Arc::clone(self.map().entry(key).or_default());
        cell.get_or_init(build).clone()
    }
}

/// A suite graph in natural order and the two passes every natural-order
/// workload of it is priced from, each built once on first use and dropped
/// with the graph: the Table-1 BFS as a by-level vertex order (4 B per
/// vertex) and, per locality windows, the [`GapCounts`] of every vertex
/// (16 B per vertex). Table I's greedy color count rides along, so each
/// process colors a graph once.
struct SuiteGraph {
    csr: Arc<Csr>,
    bfs: OnceLock<LevelOrder>,
    colors: OnceLock<u32>,
    counts: Cache<(usize, usize), Arc<Vec<GapCounts>>>,
}

impl SuiteGraph {
    /// The levels of the BFS from Table I's source, vertex `|V| / 2`.
    fn bfs(&self) -> &LevelOrder {
        self.bfs
            .get_or_init(|| LevelOrder::of(&bfs_levels(&self.csr, table1_source(&self.csr)).levels))
    }

    fn counts(&self, w: LocalityWindows) -> Arc<Vec<GapCounts>> {
        let key = (w.l1_gap, w.l2_gap);
        self.counts
            .get_or_build(key, || Arc::new(gap_counts(&self.csr, None, w)))
    }
}

static GRAPHS: Cache<(PaperGraph, Scale), Arc<SuiteGraph>> = Cache::new();

/// The inputs every workload key shares: graph, scale, ordering, and the
/// locality windows as a hashable `(l1_gap, l2_gap)` pair.
type Site = (PaperGraph, Scale, OrderTag, (usize, usize));

/// Workloads of type `W`, keyed by site plus the kernel's own knob `K`
/// (`()` when there is none).
type Workloads<K, W> = Cache<(Site, K), Arc<W>>;

static COLORING: Workloads<(), ColoringWorkload> = Cache::new();
static IRREGULAR: Workloads<usize, IrregularWorkload> = Cache::new();
static BFS: Workloads<SimVariant, BfsWorkload> = Cache::new();
static PAGERANK: Workloads<(), PagerankWorkload> = Cache::new();
static COMPONENTS: Workloads<(), ComponentsWorkload> = Cache::new();
static HYBRID: Workloads<(), HybridWorkload> = Cache::new();

/// PageRank convergence parameters used by every exhibit and serve job:
/// the standard damping factor, an L1 tolerance tight enough that the
/// iteration count is graph-determined, and a cap so pathological inputs
/// terminate.
pub const PAGERANK_DAMPING: f64 = 0.85;
pub const PAGERANK_TOL: f64 = 1e-8;
pub const PAGERANK_MAX_ITERS: usize = 100;

/// One suite graph at `scale`, in natural order, built (or read from the
/// `MIC_STORE` tier) once per process. Orderings are not graphs here: a
/// workload under one reads this graph and a permutation of it.
pub fn graph(pg: PaperGraph, scale: Scale) -> Arc<Csr> {
    Arc::clone(&suite_graph(pg, scale).csr)
}

fn suite_graph(pg: PaperGraph, scale: Scale) -> Arc<SuiteGraph> {
    GRAPHS.get_or_build((pg, scale), || {
        let csr = persisted(
            || format!("csr1-{}-{scale:?}", pg.name()),
            |bytes| read_csr_bin(bytes).map_err(|e| e.to_string()),
            |g| {
                let mut bytes = Vec::new();
                write_csr_bin(g, &mut bytes).expect("writing to a Vec cannot fail");
                bytes
            },
            || build(pg, scale),
        );
        Arc::new(SuiteGraph {
            csr: Arc::new(csr),
            bfs: OnceLock::new(),
            colors: OnceLock::new(),
            counts: Cache::new(),
        })
    })
}

/// Table I's `#Level` of a suite graph, from the BFS its natural-order BFS
/// workloads share.
pub(crate) fn table1_levels(pg: PaperGraph, scale: Scale) -> u32 {
    suite_graph(pg, scale).bfs().widths.len() as u32
}

/// Table I's `#Color` of a suite graph: the sequential greedy count in
/// natural order, computed once per process.
pub(crate) fn table1_colors(pg: PaperGraph, scale: Scale) -> u32 {
    let suite = suite_graph(pg, scale);
    *suite
        .colors
        .get_or_init(|| greedy_color(&suite.csr).num_colors)
}

/// What one workload build reads: a suite graph with its cached passes,
/// the ordering's permutation (`perm[old] = new`, `None` in natural order)
/// and the locality windows. Under an ordering every pass is built here,
/// for this one workload, from the natural CSR.
struct Passes<'a> {
    suite: &'a SuiteGraph,
    perm: Option<Vec<VertexId>>,
    windows: LocalityWindows,
}

impl Passes<'_> {
    /// The graph in the build's order, for the native runs whose result
    /// depends on the ids or on the order inside each adjacency list (the
    /// order of float additions, which label is the minimum, the order of
    /// bottom-up probes).
    fn graph(&self) -> Cow<'_, Csr> {
        let g = &*self.suite.csr;
        self.perm
            .as_deref()
            .map_or(Cow::Borrowed(g), |p| Cow::Owned(g.permute(p)))
    }

    /// The [`GapCounts`] of every vertex, indexed by id in the build's order.
    fn counts(&self) -> Arc<Vec<GapCounts>> {
        match &self.perm {
            None => self.suite.counts(self.windows),
            Some(p) => Arc::new(gap_counts(&self.suite.csr, Some(p), self.windows)),
        }
    }

    /// The Table-1 BFS's vertices by level, as ids in the build's order.
    /// Levels are distances, so under π they are the natural graph's levels
    /// from the vertex π moves to `|V| / 2`, each moved to its vertex's new
    /// id.
    fn levels(&self) -> LevelOrder {
        let Some(p) = &self.perm else {
            return self.suite.bfs().clone();
        };
        let g = &*self.suite.csr;
        let source = table1_source(g);
        let old = p.iter().position(|&new| new == source);
        let natural = bfs_levels(g, old.expect("perm is a bijection") as VertexId).levels;
        let mut levels = vec![0; p.len()];
        for (v, l) in natural.into_iter().enumerate() {
            levels[p[v] as usize] = l;
        }
        LevelOrder::of(&levels)
    }
}

/// The one keyed body behind every workload function: the in-memory
/// entry, else `price` the site's passes.
fn get_or_build<K: Eq + Hash, W>(
    cache: &Workloads<K, W>,
    (pg, scale, order, windows): (PaperGraph, Scale, OrderTag, LocalityWindows),
    knob: K,
    price: impl FnOnce(&Passes) -> W,
) -> Arc<W> {
    let site = (pg, scale, order, (windows.l1_gap, windows.l2_gap));
    cache.get_or_build((site, knob), || {
        let suite = suite_graph(pg, scale);
        let perm = match order {
            OrderTag::Natural => None,
            OrderTag::Random { seed } => Some(Ordering::Random { seed }),
            OrderTag::CuthillMcKee { source } => Some(Ordering::CuthillMcKee { source }),
        }
        .map(|o| permutation(&suite.csr, o));
        let passes = Passes {
            suite: &suite,
            perm,
            windows,
        };
        Arc::new(price(&passes))
    })
}

/// The coloring workload of a suite graph (Figures 1–2, ablations).
pub fn coloring(
    pg: PaperGraph,
    scale: Scale,
    order: OrderTag,
    windows: LocalityWindows,
) -> Arc<ColoringWorkload> {
    get_or_build(&COLORING, (pg, scale, order, windows), (), |p| {
        coloring_from_counts(p.counts())
    })
}

/// The irregular-microbenchmark workload at `iter` repetitions (Figure 3,
/// placement ablation).
pub fn irregular(
    pg: PaperGraph,
    scale: Scale,
    order: OrderTag,
    windows: LocalityWindows,
    iter: usize,
) -> Arc<IrregularWorkload> {
    get_or_build(&IRREGULAR, (pg, scale, order, windows), iter, |p| {
        irregular_from_counts(p.counts(), iter)
    })
}

/// The BFS workload of a suite graph under `variant`, from the paper's
/// Table-1 source (Figure 4, queue ablations).
pub fn bfs(
    pg: PaperGraph,
    scale: Scale,
    order: OrderTag,
    windows: LocalityWindows,
    variant: SimVariant,
) -> Arc<BfsWorkload> {
    get_or_build(&BFS, (pg, scale, order, windows), variant, |p| {
        bfs_from_counts(&p.levels(), p.counts(), variant)
    })
}

/// The PageRank workload of a suite graph (scale-free exhibits, serve).
/// Convergence parameters are the fixed [`PAGERANK_DAMPING`] /
/// [`PAGERANK_TOL`] / [`PAGERANK_MAX_ITERS`] so the iteration count — and
/// with it the region sequence — is a pure function of the graph. The
/// count comes from the `MIC_STORE` tier when it holds one for this graph,
/// scale and ordering; the native run is what it saves.
pub fn pagerank(
    pg: PaperGraph,
    scale: Scale,
    order: OrderTag,
    windows: LocalityWindows,
) -> Arc<PagerankWorkload> {
    get_or_build(&PAGERANK, (pg, scale, order, windows), (), |p| {
        let iters = persisted(
            || format!("pr1-{}-{scale:?}-{order:?}", pg.name()),
            |bytes| {
                let iters = u64::from_le_bytes(bytes.try_into().map_err(|_| "not 8 bytes")?);
                match usize::try_from(iters) {
                    Ok(n @ 1..=PAGERANK_MAX_ITERS) => Ok(n),
                    _ => Err(format!("{iters} iterations is out of range")),
                }
            },
            |&iters| (iters as u64).to_le_bytes().to_vec(),
            || {
                let (damping, tol, cap) = (PAGERANK_DAMPING, PAGERANK_TOL, PAGERANK_MAX_ITERS);
                pagerank_seq(&p.graph(), damping, tol, cap).1
            },
        );
        pagerank_from_counts(p.counts(), iters)
    })
}

/// The label-propagation components workload of a suite graph.
pub fn components(
    pg: PaperGraph,
    scale: Scale,
    order: OrderTag,
    windows: LocalityWindows,
) -> Arc<ComponentsWorkload> {
    get_or_build(&COMPONENTS, (pg, scale, order, windows), (), |p| {
        let rounds = components_sync(&p.graph()).rounds;
        components_from_counts(p.counts(), rounds)
    })
}

/// The direction-optimizing (hybrid) BFS workload of a suite graph, from
/// the Table-1 source under Beamer's default switch parameters. Each
/// request — cached or fresh — reports the native run's direction switches
/// on the `mic_bfs_direction_switches_total` counter, the observable
/// evidence that the heuristic actually fired.
pub fn hybrid_bfs(
    pg: PaperGraph,
    scale: Scale,
    order: OrderTag,
    windows: LocalityWindows,
) -> Arc<HybridWorkload> {
    let w = get_or_build(&HYBRID, (pg, scale, order, windows), (), |p| {
        let g = p.graph();
        instrument_hybrid(&g, table1_source(&g), windows, Hybrid::default())
    });
    if w.switches > 0 {
        crate::metrics::counter(
            "mic_bfs_direction_switches_total",
            "Direction switches observed by the native hybrid BFS run backing a workload request",
            &[("graph", pg.name())],
        )
        .add(w.switches as f64);
    }
    w
}

/// Drop the in-memory layer and the open store handle, so the next
/// request for any key reopens the store file (or rebuilds). Entries
/// already handed out stay valid. For tests that compare cold, warm and
/// store-off runs in one process, and for long-lived embedders that want
/// the memory back.
pub fn clear_memory() {
    tier::close();
    GRAPHS.map().clear();
    COLORING.map().clear();
    IRREGULAR.map().clear();
    BFS.map().clear();
    PAGERANK.map().clear();
    COMPONENTS.map().clear();
    HYBRID.map().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_cache_shares_one_build() {
        let a = graph(PaperGraph::Hood, Scale::Vertices(500));
        let b = graph(PaperGraph::Hood, Scale::Vertices(500));
        assert!(Arc::ptr_eq(&a, &b), "same key must share one graph");
    }

    #[test]
    fn coloring_cache_is_keyed_by_all_inputs() {
        let scale = Scale::Vertices(400);
        let w1 = coloring(
            PaperGraph::Pwtk,
            scale,
            OrderTag::Natural,
            LocalityWindows::default(),
        );
        let w2 = coloring(
            PaperGraph::Pwtk,
            scale,
            OrderTag::Natural,
            LocalityWindows::default(),
        );
        assert!(Arc::ptr_eq(&w1, &w2));
        let other = LocalityWindows {
            l1_gap: 64,
            l2_gap: 4096,
        };
        let w3 = coloring(PaperGraph::Pwtk, scale, OrderTag::Natural, other);
        assert!(!Arc::ptr_eq(&w1, &w3), "different windows must not share");
        let windows = LocalityWindows::default();
        let w4 = coloring(
            PaperGraph::Pwtk,
            scale,
            OrderTag::Random { seed: 9 },
            windows,
        );
        assert!(!Arc::ptr_eq(&w1, &w4), "different orderings must not share");
        assert_eq!(w1.tentative.len(), w4.tentative.len());
    }

    #[test]
    fn concurrent_requests_build_once() {
        let key_scale = Scale::Vertices(600);
        let results = crate::sweep::map_with(8, &[(); 16], |_, _| {
            coloring(
                PaperGraph::Ldoor,
                key_scale,
                OrderTag::Natural,
                LocalityWindows::default(),
            )
        });
        for w in &results {
            assert!(
                Arc::ptr_eq(w, &results[0]),
                "racing builders must converge on one value"
            );
        }
        // Two racing suites (each itself a sweep) share every graph.
        let suites = crate::sweep::map_with(2, &[(); 2], |_, _| {
            crate::sweep::map(&PaperGraph::all(), |_, &g| {
                (g, graph(g, Scale::Vertices(300)))
            })
        });
        for ((g, a), (h, b)) in suites[0].iter().zip(&suites[1]) {
            assert!(g == h && Arc::ptr_eq(a, b), "{} built twice", g.name());
        }
    }
}
