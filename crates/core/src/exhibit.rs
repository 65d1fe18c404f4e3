//! The exhibit registry: one typed descriptor per table/figure, one
//! static registry every driver iterates.
//!
//! Before this module, wiring a new exhibit meant editing a dozen call
//! sites by hand: the `all` bin's hard-coded sequence, the `why` bin's
//! config list, and serve's job-key strings. Now each exhibit is declared
//! exactly once, in [`register_all`], and everything else — `all`
//! (including `--list` and `--only`), `why`, the serve dispatcher's region
//! lookup — iterates [`registry()`]. Adding a kernel is one `register()`
//! call.
//!
//! The exhibit **id** is the stable key: it names the exhibit in `all`'s
//! footer and failure message, in the `mic-perf` ledger's per-exhibit rows
//! and goldens, and (via [`KernelId::code`]) in serve job keys.

use crate::experiments::{ablation, fig1, fig2, fig3, fig4, scale_free, table1};
use crate::workload_cache::{self, OrderTag};
use mic_bfs::instrument::SimVariant;
use mic_graph::stats::LocalityWindows;
use mic_graph::suite::{PaperGraph, Scale};
use mic_sim::{Policy, Region};
use std::sync::OnceLock;

/// Which kernel an exhibit exercises. The `code` doubles as the kernel
/// field of serve job keys, so it must stay stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// Table I: graph statistics, no simulation.
    Table,
    Coloring,
    Irregular,
    Bfs,
    PageRank,
    Components,
    HybridBfs,
}

impl KernelId {
    /// Stable string code (serve job keys, listings).
    pub fn code(self) -> &'static str {
        match self {
            KernelId::Table => "table",
            KernelId::Coloring => "coloring",
            KernelId::Irregular => "irregular",
            KernelId::Bfs => "bfs",
            KernelId::PageRank => "pagerank",
            KernelId::Components => "components",
            KernelId::HybridBfs => "hybrid-bfs",
        }
    }

    pub fn parse(s: &str) -> Option<KernelId> {
        match s {
            "table" => Some(KernelId::Table),
            "coloring" => Some(KernelId::Coloring),
            "irregular" => Some(KernelId::Irregular),
            "bfs" => Some(KernelId::Bfs),
            "pagerank" => Some(KernelId::PageRank),
            "components" => Some(KernelId::Components),
            "hybrid-bfs" => Some(KernelId::HybridBfs),
            _ => None,
        }
    }
}

/// Which graph family the exhibit sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFamily {
    /// The paper's seven FE meshes (Table I).
    Mesh,
    /// The RMAT companions.
    ScaleFree,
    /// Both.
    Mixed,
}

impl GraphFamily {
    pub fn name(self) -> &'static str {
        match self {
            GraphFamily::Mesh => "mesh",
            GraphFamily::ScaleFree => "scale-free",
            GraphFamily::Mixed => "mixed",
        }
    }
}

/// Which named group the exhibit belongs to; `all --only <group>` runs
/// one group, plain `all` runs every group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// The paper's tables and figures.
    Paper,
    /// Beyond-the-paper ablations.
    Ablation,
    /// The scale-free kernel exhibits.
    ScaleFree,
}

impl Group {
    pub fn name(self) -> &'static str {
        match self {
            Group::Paper => "paper",
            Group::Ablation => "ablation",
            Group::ScaleFree => "scale-free",
        }
    }
}

/// A `why` hook: named region sequences to attribute stalls for.
pub type WhyConfigs = Vec<(String, Vec<Region>)>;

/// One registered exhibit.
pub struct Exhibit {
    /// Stable identifier — the name in the ledger, `all --list` and
    /// `all`'s failure message.
    pub id: &'static str,
    pub title: &'static str,
    pub kernel: KernelId,
    pub family: GraphFamily,
    /// Human-readable sweep axes ("threads × graph", …).
    pub axes: &'static str,
    pub group: Group,
    /// Render the exhibit at a scale (the `all` runner).
    pub run: fn(Scale) -> String,
    /// Headline configurations for the `why` stall-attribution bin.
    pub why: Option<fn(Scale) -> WhyConfigs>,
}

/// The registry: exhibits in presentation order, unique ids.
pub struct ExhibitRegistry {
    exhibits: Vec<Exhibit>,
}

impl ExhibitRegistry {
    fn register(&mut self, e: Exhibit) {
        assert!(self.get(e.id).is_none(), "duplicate exhibit id {:?}", e.id);
        self.exhibits.push(e);
    }

    /// Every exhibit, in presentation order: the set `all` runs.
    pub fn in_all(&self) -> impl Iterator<Item = &Exhibit> {
        self.exhibits.iter()
    }

    pub fn get(&self, id: &str) -> Option<&Exhibit> {
        self.exhibits.iter().find(|e| e.id == id)
    }

    /// Ids of the exhibits `all` runs, in order.
    pub fn all_ids(&self) -> Vec<&'static str> {
        self.in_all().map(|e| e.id).collect()
    }

    /// The exhibits `all --only <names>` runs: `names` is a comma-separated
    /// list of exhibit ids and group names, and the result keeps registry
    /// order whatever order the names come in. An unknown name is an
    /// error.
    pub fn select(&self, names: &str) -> Result<Vec<&Exhibit>, String> {
        let names: Vec<&str> = names.split(',').collect();
        let hit = |e: &Exhibit, n: &str| e.id == n || e.group.name() == n;
        if let Some(bad) = names.iter().find(|n| !self.in_all().any(|e| hit(e, n))) {
            return Err(format!("unknown exhibit or group {bad:?}"));
        }
        Ok(self
            .in_all()
            .filter(|e| names.iter().any(|n| hit(e, n)))
            .collect())
    }

    /// The `all --list` table: one markdown row per exhibit. The README's
    /// exhibit table is this output verbatim; CI diffs the two.
    pub fn list_table(&self) -> String {
        let mut out = String::new();
        out.push_str("| id | kernel | graphs | group | sweep axes | title |\n");
        out.push_str("|----|--------|--------|-------|------------|-------|\n");
        for e in self.in_all() {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} |\n",
                e.id,
                e.kernel.code(),
                e.family.name(),
                e.group.name(),
                e.axes,
                e.title,
            ));
        }
        out
    }
}

/// The process-wide registry.
pub fn registry() -> &'static ExhibitRegistry {
    static REGISTRY: OnceLock<ExhibitRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut r = ExhibitRegistry {
            exhibits: Vec::new(),
        };
        register_all(&mut r);
        r
    })
}

/// Unified kernel → region-sequence dispatch: the one lookup the serve
/// executor (and any other driver that simulates a single kernel
/// configuration) goes through. [`KernelId::Table`] has no simulation and
/// returns no regions.
pub fn kernel_regions(
    kernel: KernelId,
    graph: PaperGraph,
    scale: Scale,
    order: OrderTag,
    windows: LocalityWindows,
    iter: usize,
    policy: Policy,
) -> Vec<Region> {
    match kernel {
        KernelId::Table => Vec::new(),
        KernelId::Coloring => {
            workload_cache::coloring(graph, scale, order, windows).regions(policy)
        }
        KernelId::Irregular => {
            vec![workload_cache::irregular(graph, scale, order, windows, iter).region(policy)]
        }
        KernelId::Bfs => workload_cache::bfs(
            graph,
            scale,
            order,
            windows,
            SimVariant::Block {
                block: 32,
                relaxed: true,
            },
        )
        .regions(policy),
        KernelId::PageRank => {
            workload_cache::pagerank(graph, scale, order, windows).regions(policy)
        }
        KernelId::Components => {
            workload_cache::components(graph, scale, order, windows).regions(policy)
        }
        KernelId::HybridBfs => {
            workload_cache::hybrid_bfs(graph, scale, order, windows).regions(policy)
        }
    }
}

/// Every exhibit, declared once. Presentation order = `all` order.
fn register_all(r: &mut ExhibitRegistry) {
    // why hooks are fn pointers: no captures allowed.
    r.register(Exhibit {
        id: "table1",
        title: "Table I: suite graph statistics",
        kernel: KernelId::Table,
        family: GraphFamily::Mesh,
        axes: "graph",
        group: Group::Paper,
        run: |s| table1::render(&table1::table1(s)),
        why: None,
    });
    r.register(Exhibit {
        id: "fig1-OpenMp",
        title: "Figure 1a: coloring speedup, OpenMP",
        kernel: KernelId::Coloring,
        family: GraphFamily::Mesh,
        axes: "threads × schedule",
        group: Group::Paper,
        run: |s| fig1::fig1(fig1::Panel::OpenMp, s).to_ascii(),
        why: Some(|s| {
            vec![(
                "Fig1a coloring natural, OMP-dyn/100".into(),
                workload_cache::coloring(
                    PaperGraph::Hood,
                    s,
                    OrderTag::Natural,
                    LocalityWindows::default(),
                )
                .regions(Policy::OmpDynamic { chunk: 100 }),
            )]
        }),
    });
    r.register(Exhibit {
        id: "fig1-CilkPlus",
        title: "Figure 1b: coloring speedup, Cilk Plus",
        kernel: KernelId::Coloring,
        family: GraphFamily::Mesh,
        axes: "threads × grain",
        group: Group::Paper,
        run: |s| fig1::fig1(fig1::Panel::CilkPlus, s).to_ascii(),
        why: Some(|s| {
            vec![(
                "Fig1b coloring natural, Cilk/100".into(),
                workload_cache::coloring(
                    PaperGraph::Hood,
                    s,
                    OrderTag::Natural,
                    LocalityWindows::default(),
                )
                .regions(Policy::Cilk { grain: 100 }),
            )]
        }),
    });
    r.register(Exhibit {
        id: "fig1-Tbb",
        title: "Figure 1c: coloring speedup, TBB",
        kernel: KernelId::Coloring,
        family: GraphFamily::Mesh,
        axes: "threads × partitioner",
        group: Group::Paper,
        run: |s| fig1::fig1(fig1::Panel::Tbb, s).to_ascii(),
        why: Some(|s| {
            vec![(
                "Fig1c coloring natural, TBB-simple/40".into(),
                workload_cache::coloring(
                    PaperGraph::Hood,
                    s,
                    OrderTag::Natural,
                    LocalityWindows::default(),
                )
                .regions(Policy::TbbSimple { grain: 40 }),
            )]
        }),
    });
    r.register(Exhibit {
        id: "fig2",
        title: "Figure 2: coloring on shuffled vertices",
        kernel: KernelId::Coloring,
        family: GraphFamily::Mesh,
        axes: "threads × ordering",
        group: Group::Paper,
        run: |s| fig2::fig2(s).to_ascii(),
        why: Some(|s| {
            vec![(
                "Fig2  coloring shuffled, OMP-dyn/100".into(),
                workload_cache::coloring(
                    PaperGraph::Hood,
                    s,
                    OrderTag::Random { seed: 5 },
                    LocalityWindows::default(),
                )
                .regions(Policy::OmpDynamic { chunk: 100 }),
            )]
        }),
    });
    r.register(Exhibit {
        id: "fig3-OpenMp",
        title: "Figure 3a: irregular computation, OpenMP",
        kernel: KernelId::Irregular,
        family: GraphFamily::Mesh,
        axes: "threads × iter",
        group: Group::Paper,
        run: |s| fig3::fig3(fig3::Panel::OpenMp, s).to_ascii(),
        why: Some(|s| {
            [1usize, 10]
                .into_iter()
                .map(|iter| {
                    (
                        format!("Fig3  irregular iter={iter}, OMP-dyn/100"),
                        vec![workload_cache::irregular(
                            PaperGraph::Hood,
                            s,
                            OrderTag::Natural,
                            LocalityWindows::default(),
                            iter,
                        )
                        .region(Policy::OmpDynamic { chunk: 100 })],
                    )
                })
                .collect()
        }),
    });
    r.register(Exhibit {
        id: "fig3-CilkPlus",
        title: "Figure 3b: irregular computation, Cilk Plus",
        kernel: KernelId::Irregular,
        family: GraphFamily::Mesh,
        axes: "threads × iter",
        group: Group::Paper,
        run: |s| fig3::fig3(fig3::Panel::CilkPlus, s).to_ascii(),
        why: None,
    });
    r.register(Exhibit {
        id: "fig3-Tbb",
        title: "Figure 3c: irregular computation, TBB",
        kernel: KernelId::Irregular,
        family: GraphFamily::Mesh,
        axes: "threads × iter",
        group: Group::Paper,
        run: |s| fig3::fig3(fig3::Panel::Tbb, s).to_ascii(),
        why: None,
    });
    r.register(Exhibit {
        id: "fig4-Pwtk",
        title: "Figure 4a: BFS on pwtk, all queue structures",
        kernel: KernelId::Bfs,
        family: GraphFamily::Mesh,
        axes: "threads × queue",
        group: Group::Paper,
        run: |s| fig4::fig4(fig4::Panel::Pwtk, s).to_ascii(),
        why: Some(|s| {
            vec![(
                "Fig4  BFS block-relaxed, OMP-dyn/32".into(),
                workload_cache::bfs(
                    PaperGraph::Hood,
                    s,
                    OrderTag::Natural,
                    LocalityWindows::default(),
                    SimVariant::Block {
                        block: 32,
                        relaxed: true,
                    },
                )
                .regions(Policy::OmpDynamic { chunk: 32 }),
            )]
        }),
    });
    r.register(Exhibit {
        id: "fig4-Inline1",
        title: "Figure 4b: BFS on inline_1, all queue structures",
        kernel: KernelId::Bfs,
        family: GraphFamily::Mesh,
        axes: "threads × queue",
        group: Group::Paper,
        run: |s| fig4::fig4(fig4::Panel::Inline1, s).to_ascii(),
        why: None,
    });
    r.register(Exhibit {
        id: "fig4-AllKnf",
        title: "Figure 4c: BFS best-config geomean, KNF",
        kernel: KernelId::Bfs,
        family: GraphFamily::Mesh,
        axes: "threads × graph",
        group: Group::Paper,
        run: |s| fig4::fig4(fig4::Panel::AllKnf, s).to_ascii(),
        why: None,
    });
    r.register(Exhibit {
        id: "fig4-AllCpu",
        title: "Figure 4d: BFS best-config geomean, CPU",
        kernel: KernelId::Bfs,
        family: GraphFamily::Mesh,
        axes: "threads × graph",
        group: Group::Paper,
        run: |s| fig4::fig4(fig4::Panel::AllCpu, s).to_ascii(),
        why: None,
    });
    r.register(Exhibit {
        id: "ablation-block-size",
        title: "Ablation: BFS queue block size",
        kernel: KernelId::Bfs,
        family: GraphFamily::Mesh,
        axes: "threads × block",
        group: Group::Ablation,
        run: |s| ablation::block_size_sweep(s).to_ascii(),
        why: None,
    });
    r.register(Exhibit {
        id: "ablation-chunk-size",
        title: "Ablation: OpenMP chunk size",
        kernel: KernelId::Coloring,
        family: GraphFamily::Mesh,
        axes: "threads × chunk",
        group: Group::Ablation,
        run: |s| ablation::chunk_size_sweep(s).to_ascii(),
        why: None,
    });
    r.register(Exhibit {
        id: "ablation-locked-vs-relaxed",
        title: "Ablation: locked vs relaxed queue",
        kernel: KernelId::Bfs,
        family: GraphFamily::Mesh,
        axes: "threads × locking",
        group: Group::Ablation,
        run: |s| ablation::locked_vs_relaxed(s).to_ascii(),
        why: None,
    });
    r.register(Exhibit {
        id: "ablation-ordering",
        title: "Ablation: vertex ordering",
        kernel: KernelId::Coloring,
        family: GraphFamily::Mesh,
        axes: "threads × ordering",
        group: Group::Ablation,
        run: |s| ablation::ordering_ablation(s).to_ascii(),
        why: None,
    });
    r.register(Exhibit {
        id: "ablation-placement",
        title: "Ablation: thread placement",
        kernel: KernelId::Irregular,
        family: GraphFamily::Mesh,
        axes: "threads × placement",
        group: Group::Ablation,
        run: |s| ablation::placement_ablation(s).to_ascii(),
        why: None,
    });
    r.register(Exhibit {
        id: "ablation-fork-vs-persistent",
        title: "Ablation: per-level fork vs persistent team",
        kernel: KernelId::Bfs,
        family: GraphFamily::Mesh,
        axes: "threads × team",
        group: Group::Ablation,
        run: |s| ablation::fork_vs_persistent(s).to_ascii(),
        why: None,
    });
    r.register(Exhibit {
        id: "pagerank",
        title: "PageRank scalability on scale-free graphs",
        kernel: KernelId::PageRank,
        family: GraphFamily::Mixed,
        axes: "threads × graph",
        group: Group::ScaleFree,
        run: |s| scale_free::pagerank_fig(s).to_ascii(),
        why: Some(|s| {
            vec![(
                "PageRank rmat-ef16, OMP-dyn/100".into(),
                workload_cache::pagerank(
                    PaperGraph::RmatEf16,
                    s,
                    OrderTag::Natural,
                    LocalityWindows::default(),
                )
                .regions(Policy::OmpDynamic { chunk: 100 }),
            )]
        }),
    });
    r.register(Exhibit {
        id: "components",
        title: "Connected components (label propagation) scalability",
        kernel: KernelId::Components,
        family: GraphFamily::Mixed,
        axes: "threads × graph",
        group: Group::ScaleFree,
        run: |s| scale_free::components_fig(s).to_ascii(),
        why: Some(|s| {
            vec![(
                "Components rmat-ef16, OMP-dyn/100".into(),
                workload_cache::components(
                    PaperGraph::RmatEf16,
                    s,
                    OrderTag::Natural,
                    LocalityWindows::default(),
                )
                .regions(Policy::OmpDynamic { chunk: 100 }),
            )]
        }),
    });
    r.register(Exhibit {
        id: "hybrid-bfs",
        title: "Hybrid (direction-optimizing) vs layered BFS on RMAT",
        kernel: KernelId::HybridBfs,
        family: GraphFamily::ScaleFree,
        axes: "threads × direction",
        group: Group::ScaleFree,
        run: |s| scale_free::hybrid_bfs_fig(s).to_ascii(),
        why: Some(|s| {
            vec![(
                "Hybrid BFS rmat-ef16, OMP-dyn/64".into(),
                workload_cache::hybrid_bfs(
                    PaperGraph::RmatEf16,
                    s,
                    OrderTag::Natural,
                    LocalityWindows::default(),
                )
                .regions(Policy::OmpDynamic { chunk: 64 }),
            )]
        }),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonempty() {
        let r = registry();
        let mut ids: Vec<_> = r.in_all().map(|e| e.id).collect();
        assert!(!ids.is_empty());
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn all_set_matches_ledger_exhibit_ids() {
        // These ids name the `exhibit.<id>.*` ledger rows and goldens: the
        // 18 pre-registry exhibits plus the three scale-free ones.
        let ids = registry().all_ids();
        for legacy in [
            "table1",
            "fig1-OpenMp",
            "fig1-CilkPlus",
            "fig1-Tbb",
            "fig2",
            "fig3-OpenMp",
            "fig3-CilkPlus",
            "fig3-Tbb",
            "fig4-Pwtk",
            "fig4-Inline1",
            "fig4-AllKnf",
            "fig4-AllCpu",
            "ablation-block-size",
            "ablation-chunk-size",
            "ablation-locked-vs-relaxed",
            "ablation-ordering",
            "ablation-placement",
            "ablation-fork-vs-persistent",
        ] {
            assert!(ids.contains(&legacy), "missing {legacy}");
        }
        for new in ["pagerank", "components", "hybrid-bfs"] {
            assert!(ids.contains(&new), "missing {new}");
        }
        assert_eq!(ids.len(), 21);
    }

    #[test]
    fn select_takes_ids_and_groups_in_registry_order() {
        let r = registry();
        let ids =
            |names: &str| -> Vec<&str> { r.select(names).unwrap().iter().map(|e| e.id).collect() };
        assert_eq!(ids("fig2"), ["fig2"]);
        assert_eq!(ids("scale-free"), ["pagerank", "components", "hybrid-bfs"]);
        assert_eq!(ids("paper").len(), 12);
        assert_eq!(
            ids("hybrid-bfs,ablation,table1,ablation-ordering"),
            [
                "table1",
                "ablation-block-size",
                "ablation-chunk-size",
                "ablation-locked-vs-relaxed",
                "ablation-ordering",
                "ablation-placement",
                "ablation-fork-vs-persistent",
                "hybrid-bfs",
            ]
        );
        assert!(matches!(r.select("fig5"), Err(e) if e.contains("\"fig5\"")));
        assert!(r.select("paper,extras").is_err());
        // No group is held back: the registry is the list `all` runs.
        assert!(matches!(r.select("extra"), Err(e) if e.contains("\"extra\"")));
        assert_eq!(r.in_all().count(), 21);
        // `list_table`: a header, a rule, then one row per exhibit.
        assert_eq!(r.list_table().lines().skip(2).count(), 21);
    }

    #[test]
    fn kernel_codes_round_trip() {
        for k in [
            KernelId::Table,
            KernelId::Coloring,
            KernelId::Irregular,
            KernelId::Bfs,
            KernelId::PageRank,
            KernelId::Components,
            KernelId::HybridBfs,
        ] {
            assert_eq!(KernelId::parse(k.code()), Some(k));
        }
    }

    #[test]
    fn list_table_has_one_row_per_exhibit() {
        let table = registry().list_table();
        let rows = table.lines().skip(2).count(); // below header and rule
        assert_eq!(rows, registry().in_all().count());
        assert!(table.contains("| pagerank |"));
        assert!(table.contains("| hybrid-bfs |"));
    }

    #[test]
    fn kernel_regions_dispatches_every_simulable_kernel() {
        let s = Scale::Fraction(256);
        let win = LocalityWindows::default();
        let pol = Policy::OmpDynamic { chunk: 64 };
        assert!(kernel_regions(
            KernelId::Table,
            PaperGraph::Hood,
            s,
            OrderTag::Natural,
            win,
            1,
            pol
        )
        .is_empty());
        for (k, pg) in [
            (KernelId::Coloring, PaperGraph::Hood),
            (KernelId::Irregular, PaperGraph::Hood),
            (KernelId::Bfs, PaperGraph::Hood),
            (KernelId::PageRank, PaperGraph::RmatEf8),
            (KernelId::Components, PaperGraph::RmatEf8),
            (KernelId::HybridBfs, PaperGraph::RmatEf8),
        ] {
            let regions = kernel_regions(k, pg, s, OrderTag::Natural, win, 1, pol);
            assert!(!regions.is_empty(), "{k:?} produced no regions");
        }
    }
}
