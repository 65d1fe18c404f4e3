//! Parallel connected components by label propagation — the classic
//! companion kernel to BFS in graph suites (SNAP ships one), with the same
//! irregular access pattern and another use of the paper's runtime models.
//!
//! Each vertex starts labeled with its own id; rounds of parallel sweeps
//! replace every label by the minimum over the closed neighborhood until a
//! fixed point. The synchronous form takes one round more than the largest
//! hop distance from a vertex to its component's minimum id (at most the
//! diameter plus one), and a BFS flood fill derives that count in O(V + E);
//! the min-combining races are benign (monotone decreasing lattice), so the
//! result is exactly the per-component minimum id regardless of scheduling.

use mic_graph::stats::{gap_counts, GapCounts, LocalityWindows};
use mic_graph::{Csr, VertexId};
use mic_runtime::{RuntimeModel, ThreadPool};
use mic_sim::{Costs, Pick, Policy, Region, Work};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Component labels: `labels[v]` = the smallest vertex id in v's component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    pub labels: Vec<VertexId>,
    pub count: usize,
    pub rounds: usize,
}

/// Sequential reference: a BFS flood fill from each component's smallest
/// id (the first unlabeled vertex in id order), so `labels[v]` is that id.
/// The fill also tracks BFS depth, which gives [`components_sync`]'s round
/// count without running the rounds.
pub fn components_seq(g: &Csr) -> Components {
    let n = g.num_vertices();
    let mut labels = vec![VertexId::MAX; n];
    let mut count = 0usize;
    let mut depth = 0usize;
    let mut queue: Vec<VertexId> = Vec::new();
    for s in 0..n as VertexId {
        if labels[s as usize] != VertexId::MAX {
            continue;
        }
        count += 1;
        labels[s as usize] = s;
        queue.clear();
        queue.push(s);
        // `queue[..level_end]` holds the vertices at most `level` hops from s.
        let (mut head, mut level_end, mut level) = (0usize, 1usize, 0usize);
        while head < queue.len() {
            if head == level_end {
                level += 1;
                level_end = queue.len();
            }
            let v = queue[head];
            head += 1;
            for &w in g.neighbors(v) {
                if labels[w as usize] == VertexId::MAX {
                    labels[w as usize] = s;
                    queue.push(w);
                }
            }
        }
        depth = depth.max(level);
    }
    Components {
        labels,
        count,
        rounds: depth + 1,
    }
}

/// Synchronous (Jacobi / double-buffered) label propagation: every round
/// reads the previous round's labels only, so the round count is a pure
/// function of the graph. This is the deterministic variant the simulator
/// instrumentation replays (the in-place [`components_parallel`] converges
/// in a schedule-dependent number of rounds, which a reproducible workload
/// cannot use).
///
/// After `k` rounds a label is the smallest id within `k` hops, so the last
/// label changes in round `max_v d(v, min id of v's component)` and one more
/// round finds the fixed point: `rounds = 1 + that depth`. The flood fill of
/// [`components_seq`] measures exactly that depth in O(V + E), instead of
/// running `rounds × E` sweeps to learn it.
pub fn components_sync(g: &Csr) -> Components {
    components_seq(g)
}

/// Simulator-facing workload of a synchronous label-propagation run: the
/// same per-vertex sweep repeated `rounds` times. Every round re-reads the
/// whole label vector, so each round pays the real locality classes (there
/// is no warm-cache discount as in the irregular kernel's `iter` knob).
#[derive(Clone)]
pub struct ComponentsWorkload {
    pub round_work: Costs,
    pub rounds: usize,
}

/// Build the components workload from a native [`components_sync`] run.
pub fn instrument_components(g: &Csr, windows: LocalityWindows) -> ComponentsWorkload {
    let rounds = components_sync(g).rounds;
    components_from_counts(Arc::new(gap_counts(g, None, windows)), rounds)
}

/// The workload of `rounds` label-propagation rounds (the native run's
/// count), priced from the [`GapCounts`] of every vertex, indexed by id.
pub fn components_from_counts(counts: Arc<Vec<GapCounts>>, rounds: usize) -> ComponentsWorkload {
    ComponentsWorkload {
        round_work: Costs::priced(counts, Pick::All, round_work),
        rounds,
    }
}

fn round_work(c: &GapCounts) -> Work {
    let (deg, l1, l2, dram) = (c.deg as f64, c.l1 as f64, c.l2 as f64, c.dram as f64);
    Work {
        // Own-label load, per-neighbor load+min+branch, one store.
        issue: 6.0 + 3.0 * deg,
        l1: l1 + 1.0,
        l2: l2 + deg / 16.0, // prefetched adjacency stream
        dram,
        flops: 0.0,
        atomics: 0.0,
    }
}

/// The per-round array, built by an explicit loop: the bit-identity
/// reference for the handle.
#[cfg(test)]
fn reference_round_work(counts: &[GapCounts]) -> Vec<Work> {
    let mut work = Vec::with_capacity(counts.len());
    for c in counts {
        let (deg, l1, l2, dram) = (c.deg as f64, c.l1 as f64, c.l2 as f64, c.dram as f64);
        work.push(Work {
            issue: 6.0 + 3.0 * deg,
            l1: l1 + 1.0,
            l2: l2 + deg / 16.0,
            dram,
            flops: 0.0,
            atomics: 0.0,
        });
    }
    work
}

impl ComponentsWorkload {
    /// One region per round under `policy`, each with a serial prefix for
    /// the changed-flag reduction and buffer swap between rounds.
    pub fn regions(&self, policy: Policy) -> Vec<Region> {
        (0..self.rounds)
            .map(|_| {
                Region::shared(self.round_work.clone(), policy).with_serial_pre(Work {
                    issue: 130.0,
                    l1: 6.0,
                    ..Default::default()
                })
            })
            .collect()
    }
}

/// Parallel label propagation under `model`.
pub fn components_parallel(pool: &ThreadPool, g: &Csr, model: RuntimeModel) -> Components {
    let n = g.num_vertices();
    let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let changed = AtomicBool::new(false);
        {
            let labels_ref = &labels;
            let changed_ref = &changed;
            model.drive(pool, n, |chunk, _| {
                for vi in chunk {
                    let v = vi as VertexId;
                    let mut m = labels_ref[vi].load(Ordering::Relaxed);
                    for &w in g.neighbors(v) {
                        m = m.min(labels_ref[w as usize].load(Ordering::Relaxed));
                    }
                    // Monotone min-update; fetch_min keeps concurrent
                    // lowering from being lost.
                    let prev = labels_ref[vi].fetch_min(m, Ordering::Relaxed);
                    if m < prev {
                        changed_ref.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
        if !changed.load(Ordering::Relaxed) {
            break;
        }
    }
    let labels: Vec<VertexId> = labels.into_iter().map(|l| l.into_inner()).collect();
    let mut count = 0usize;
    for (v, &l) in labels.iter().enumerate() {
        if l == v as VertexId {
            count += 1;
        }
    }
    Components {
        labels,
        count,
        rounds,
    }
}

#[cfg(test)]
#[path = "../tests/support/jacobi.rs"]
mod jacobi;

#[cfg(test)]
mod tests {
    use super::jacobi::jacobi_components;
    use super::*;
    use mic_graph::generators::{erdos_renyi_gnm, path, star};
    use mic_graph::GraphBuilder;
    use mic_runtime::{Partitioner, Schedule};

    fn models() -> Vec<RuntimeModel> {
        vec![
            RuntimeModel::OpenMp(Schedule::Dynamic { chunk: 16 }),
            RuntimeModel::CilkHolder { grain: 16 },
            RuntimeModel::Tbb(Partitioner::Simple { grain: 16 }),
        ]
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        let pool = ThreadPool::new(6);
        for seed in 0..3 {
            // Sparse: plenty of components.
            let g = erdos_renyi_gnm(800, 500, seed);
            let want = components_seq(&g);
            for model in models() {
                let got = components_parallel(&pool, &g, model);
                assert_eq!(got.labels, want.labels, "{model:?} seed {seed}");
                assert_eq!(got.count, want.count);
            }
        }
    }

    #[test]
    fn single_component_structures() {
        let pool = ThreadPool::new(4);
        for g in [path(100), star(50)] {
            let r = components_parallel(&pool, &g, RuntimeModel::OpenMp(Schedule::dynamic100()));
            assert_eq!(r.count, 1);
            assert!(r.labels.iter().all(|&l| l == 0));
        }
    }

    #[test]
    fn isolated_vertices_label_themselves() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(1, 3);
        let g = b.build();
        let pool = ThreadPool::new(3);
        let r = components_parallel(&pool, &g, RuntimeModel::CilkHolder { grain: 2 });
        assert_eq!(r.count, 4);
        assert_eq!(r.labels, vec![0, 1, 2, 1, 4]);
    }

    #[test]
    fn rounds_bounded_by_diameter() {
        let pool = ThreadPool::new(4);
        let g = path(200); // diameter 199, but min-id flooding needs ~n rounds on a path? No:
                           // label 0 propagates one hop per round from vertex 0.
        let r = components_parallel(
            &pool,
            &g,
            RuntimeModel::OpenMp(Schedule::Static { chunk: None }),
        );
        assert_eq!(r.count, 1);
        // In-place sweeps propagate many hops per round when chunks run in
        // ascending order; just sanity-bound it.
        assert!(r.rounds <= 201, "rounds {}", r.rounds);
    }

    #[test]
    fn sync_matches_sequential_labels() {
        for seed in 0..3 {
            let g = erdos_renyi_gnm(600, 400, seed);
            let want = components_seq(&g);
            let got = components_sync(&g);
            assert_eq!(got.labels, want.labels, "seed {seed}");
            assert_eq!(got.count, want.count);
        }
    }

    #[test]
    fn sync_rounds_are_deterministic_and_hop_bounded() {
        let g = path(50);
        let a = components_sync(&g);
        let b = components_sync(&g);
        assert_eq!(a.rounds, b.rounds);
        // Jacobi flooding moves one hop per round: label 0 needs 49 hops to
        // reach the far end, plus the fixed-point-detection round.
        assert_eq!(a.rounds, 50);
    }

    fn assert_matches_jacobi(g: &Csr, what: &str) -> usize {
        let got = components_sync(g);
        let (labels, count, rounds) = jacobi_components(g);
        assert_eq!(got.labels, labels, "{what}: labels");
        assert_eq!(got.count, count, "{what}: count");
        assert_eq!(got.rounds, rounds, "{what}: rounds");
        got.rounds
    }

    #[test]
    fn flood_fill_matches_jacobi_on_the_suite() {
        use mic_graph::suite::{build, PaperGraph, Scale};
        for pg in PaperGraph::every() {
            assert_matches_jacobi(&build(pg, Scale::Fraction(64)), pg.name());
        }
    }

    #[test]
    fn flood_fill_matches_jacobi_on_small_shapes() {
        assert_eq!(assert_matches_jacobi(&path(50), "path(50)"), 50);
        assert_eq!(assert_matches_jacobi(&Csr::empty(0), "empty"), 1);
        assert_eq!(assert_matches_jacobi(&Csr::empty(7), "isolated"), 1);
        // A 3-vertex path on ids 0..3, then a 10-vertex path on ids 3..13:
        // the later, longer component sets the round count.
        let mut b = GraphBuilder::new(13);
        b.extend((0..2).chain(3..12).map(|v| (v, v + 1)));
        assert_eq!(assert_matches_jacobi(&b.build(), "two paths"), 10);
    }

    #[test]
    fn components_workload_replays_native_rounds() {
        use mic_graph::generators::{rmat, RmatProbs};
        use mic_graph::stats::LocalityWindows;
        let g = rmat(10, 8, RmatProbs::graph500(), 3);
        let w = instrument_components(&g, LocalityWindows::default());
        assert_eq!(w.rounds, components_sync(&g).rounds);
        assert_eq!(w.round_work.len(), g.num_vertices());
        assert!(w.round_work.to_vec().iter().all(|x| x.is_valid()));
        let regions = w.regions(mic_sim::Policy::OmpDynamic { chunk: 64 });
        assert_eq!(regions.len(), w.rounds);
        // Scale-free graphs converge in a handful of rounds — that is what
        // makes the kernel simulable at paper scale.
        assert!(w.rounds < 20, "rounds {}", w.rounds);
    }

    /// The round handle, and the prefix a region builds from it, equals the
    /// reference array bit for bit, in natural, random and Cuthill–McKee
    /// order.
    #[test]
    fn round_handle_matches_the_reference_array_bit_for_bit() {
        use mic_graph::generators::{rmat, RmatProbs};
        use mic_graph::ordering::{apply, Ordering};
        let bits = |ws: &[Work]| -> Vec<[u64; 6]> {
            ws.iter()
                .map(|w| [w.issue, w.l1, w.l2, w.dram, w.flops, w.atomics].map(f64::to_bits))
                .collect()
        };
        let g = rmat(10, 8, RmatProbs::graph500(), 3);
        for order in [
            Ordering::Natural,
            Ordering::Random { seed: 3 },
            Ordering::CuthillMcKee { source: 0 },
        ] {
            let (h, _) = apply(&g, order);
            let counts = gap_counts(&h, None, LocalityWindows::default());
            let got = components_from_counts(Arc::new(counts.clone()), 1).round_work;
            let want = reference_round_work(&counts);
            assert_eq!(bits(&got.to_vec()), bits(&want), "{order:?}");
            let policy = Policy::OmpDynamic { chunk: 64 };
            let (got, want) = (Region::shared(got, policy), Region::new(want, policy));
            assert_eq!(
                bits(got.prefix_sums()),
                bits(want.prefix_sums()),
                "{order:?} prefix"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let pool = ThreadPool::new(2);
        let r = components_parallel(
            &pool,
            &mic_graph::Csr::empty(0),
            RuntimeModel::OpenMp(Schedule::dynamic100()),
        );
        assert_eq!(r.count, 0);
        assert_eq!(r.rounds, 1);
    }
}
