//! Per-vertex work descriptors of Algorithm 5, for Figure 3.
//!
//! The `iter` knob multiplies the floating-point work while leaving the
//! *cold* memory traffic unchanged: the first pass over a vertex's
//! neighbors pays the real hit classes, later passes find everything in
//! L1. This is exactly why the paper sees OpenMP/TBB speedups *fall* as
//! `iter` rises (the per-core FPU saturates and SMT stops helping) while
//! Cilk's *rises* (its fixed per-leaf overhead is amortized by the extra
//! flops).

use mic_graph::stats::{gap_counts, GapCounts, LocalityWindows};
use mic_graph::Csr;
use mic_sim::{Costs, Pick, Policy, Region, Work};
use std::sync::Arc;

/// Simulator-facing workload of one microbenchmark sweep: a cost handle
/// over the shared [`GapCounts`], with `iter` a parameter of its cost.
#[derive(Clone)]
pub struct IrregularWorkload {
    pub iter_work: Costs,
    pub iter: usize,
}

/// Build the per-vertex workload for `iter` inner repetitions.
pub fn instrument(g: &Csr, windows: LocalityWindows, iter: usize) -> IrregularWorkload {
    from_counts(Arc::new(gap_counts(g, None, windows)), iter)
}

/// The workload for `iter` inner repetitions, priced from the
/// [`GapCounts`] of every vertex, indexed by id. Costs are degrees and gap
/// counts only, so the counts of a relabelled graph price that graph's
/// workload bit for bit without building it.
pub fn from_counts(counts: Arc<Vec<GapCounts>>, iter: usize) -> IrregularWorkload {
    assert!(iter >= 1);
    let it = iter as f64;
    IrregularWorkload {
        iter_work: Costs::priced(counts, Pick::All, move |c| irregular_work(c, it)),
        iter,
    }
}

fn irregular_work(c: &GapCounts, it: f64) -> Work {
    let (deg, l1, l2, dram) = (c.deg as f64, c.l1 as f64, c.l2 as f64, c.dram as f64);
    Work {
        // Loop control + loads each pass; the state store once.
        issue: 6.0 + it * (3.0 + 2.0 * deg),
        // First pass pays the real classes; the other (iter-1)
        // passes hit L1.
        l1: l1 + (it - 1.0) * deg,
        l2: l2 + deg / 16.0, // prefetched adjacency stream
        dram,
        // One add per neighbor (+ self) per pass, plus the divide.
        flops: it * (deg + 1.0) + 4.0,
        atomics: 0.0,
    }
}

impl IrregularWorkload {
    /// The (single-region) workload under `policy`.
    pub fn region(&self, policy: Policy) -> Region {
        Region::shared(self.iter_work.clone(), policy)
    }
}

/// Simulator-facing workload of a converged PageRank run: the same
/// per-vertex pull sweep repeated for the native iteration count. Unlike
/// the microbenchmark's `iter` knob, every power iteration re-reads the
/// whole rank vector, so each region pays the real locality classes.
#[derive(Clone)]
pub struct PagerankWorkload {
    pub vertex_work: Costs,
    /// Iterations the native run took to converge (the region count).
    pub iters: usize,
}

/// Build the PageRank workload from a native [`crate::apps::pagerank_seq`]
/// run to convergence.
pub fn instrument_pagerank(
    g: &Csr,
    windows: LocalityWindows,
    damping: f64,
    tol: f64,
    max_iters: usize,
) -> PagerankWorkload {
    let (_, iters) = crate::apps::pagerank_seq(g, damping, tol, max_iters);
    pagerank_from_counts(Arc::new(gap_counts(g, None, windows)), iters)
}

/// The PageRank workload of `iters` power iterations (the native run's
/// count), priced from the [`GapCounts`] of every vertex, indexed by id.
pub fn pagerank_from_counts(counts: Arc<Vec<GapCounts>>, iters: usize) -> PagerankWorkload {
    PagerankWorkload {
        vertex_work: Costs::priced(counts, Pick::All, pagerank_work),
        iters,
    }
}

fn pagerank_work(c: &GapCounts) -> Work {
    let (deg, l1, l2, dram) = (c.deg as f64, c.l1 as f64, c.l2 as f64, c.dram as f64);
    Work {
        // Loop control, rank + degree load per neighbor, the store,
        // and this vertex's share of the delta/dangling reductions.
        issue: 10.0 + 3.0 * deg,
        l1: l1 + 1.0,
        l2: l2 + deg / 16.0, // prefetched adjacency stream
        dram,
        // Divide + add per neighbor, base blend, |Δ| contribution.
        flops: 2.0 * deg + 5.0,
        atomics: 0.0,
    }
}

impl PagerankWorkload {
    /// One region per power iteration under `policy`, each with a serial
    /// prefix for the convergence test and buffer swap (the reductions
    /// themselves are charged to the vertices).
    pub fn regions(&self, policy: Policy) -> Vec<Region> {
        (0..self.iters)
            .map(|_| {
                Region::shared(self.vertex_work.clone(), policy).with_serial_pre(Work {
                    issue: 150.0,
                    l1: 8.0,
                    ..Default::default()
                })
            })
            .collect()
    }
}

/// The irregular (at `iter`) and PageRank arrays, built by an explicit
/// loop: the bit-identity reference for the handles.
#[cfg(test)]
pub(crate) fn reference_arrays(counts: &[GapCounts], iter: usize) -> [Vec<Work>; 2] {
    let it = iter as f64;
    let mut work = Vec::with_capacity(counts.len());
    let mut pagerank = Vec::with_capacity(counts.len());
    for c in counts {
        let (deg, l1, l2, dram) = (c.deg as f64, c.l1 as f64, c.l2 as f64, c.dram as f64);
        work.push(Work {
            issue: 6.0 + it * (3.0 + 2.0 * deg),
            l1: l1 + (it - 1.0) * deg,
            l2: l2 + deg / 16.0,
            dram,
            flops: it * (deg + 1.0) + 4.0,
            atomics: 0.0,
        });
        pagerank.push(Work {
            issue: 10.0 + 3.0 * deg,
            l1: l1 + 1.0,
            l2: l2 + deg / 16.0,
            dram,
            flops: 2.0 * deg + 5.0,
            atomics: 0.0,
        });
    }
    [work, pagerank]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_graph::generators::{grid3d, Stencil3};
    use mic_sim::{simulate_region, Machine};

    fn mesh() -> Csr {
        grid3d(40, 40, 40, Stencil3::SevenPoint)
    }

    #[test]
    fn flops_scale_with_iter() {
        let g = mesh();
        let w1 = instrument(&g, LocalityWindows::default(), 1);
        let w10 = instrument(&g, LocalityWindows::default(), 10);
        let f = |w: &IrregularWorkload| w.iter_work.to_vec().iter().map(|x| x.flops).sum::<f64>();
        // f(iter) = iter*(deg+1) + 4, so the ratio approaches 10 for large
        // degrees; the 7-point grid (avg deg ~5.9) lands near 6.7.
        let ratio = f(&w10) / f(&w1);
        assert!(ratio > 5.0 && ratio < 10.5, "flops ratio {ratio}");
        // Cold traffic (DRAM) does not scale with iter.
        let d = |w: &IrregularWorkload| w.iter_work.to_vec().iter().map(|x| x.dram).sum::<f64>();
        assert!((d(&w10) - d(&w1)).abs() < 1e-9);
    }

    #[test]
    fn smt_gain_shrinks_as_iter_grows() {
        // The paper's Figure 3 (OpenMP): speedup at 121 threads decreases
        // when the computation intensity rises.
        let g = mesh();
        let m = Machine::knf();
        let speedup_at = |iter: usize, t: usize| -> f64 {
            let w = instrument(&g, LocalityWindows::default(), iter);
            let r = w.region(Policy::OmpDynamic { chunk: 100 });
            simulate_region(&m, 1, &r) / simulate_region(&m, t, &r)
        };
        let gain1 = speedup_at(1, 121) / speedup_at(1, 31);
        let gain10 = speedup_at(10, 121) / speedup_at(10, 31);
        assert!(
            gain10 < gain1,
            "SMT gain should shrink with iter: iter=1 gain {gain1}, iter=10 gain {gain10}"
        );
        // Yet SMT "can not be ignored": iter=10 at 121 threads still far
        // exceeds the 31-thread speedup.
        assert!(speedup_at(10, 121) > 1.3 * speedup_at(10, 31));
    }

    #[test]
    fn cilk_gains_with_iter() {
        // Figure 3b: more computation amortizes Cilk's per-leaf overhead.
        let g = mesh();
        let m = Machine::knf();
        let speedup = |iter: usize| -> f64 {
            let w = instrument(&g, LocalityWindows::default(), iter);
            let r = w.region(Policy::Cilk { grain: 100 });
            simulate_region(&m, 1, &r) / simulate_region(&m, 121, &r)
        };
        assert!(
            speedup(10) > speedup(1),
            "cilk {} vs {}",
            speedup(10),
            speedup(1)
        );
    }

    #[test]
    fn region_has_one_entry_per_vertex() {
        let g = mesh();
        let w = instrument(&g, LocalityWindows::default(), 3);
        assert_eq!(w.iter_work.len(), g.num_vertices());
        assert!(w.iter_work.to_vec().iter().all(|x| x.is_valid()));
    }

    #[test]
    fn pagerank_workload_replays_native_iterations() {
        use mic_graph::generators::{rmat, RmatProbs};
        let g = rmat(10, 8, RmatProbs::graph500(), 3);
        let w = instrument_pagerank(&g, LocalityWindows::default(), 0.85, 1e-8, 200);
        let (_, native_iters) = crate::apps::pagerank_seq(&g, 0.85, 1e-8, 200);
        assert_eq!(w.iters, native_iters);
        assert!(w.iters > 1 && w.iters < 200, "iters {}", w.iters);
        assert_eq!(w.vertex_work.len(), g.num_vertices());
        assert!(w.vertex_work.to_vec().iter().all(|x| x.is_valid()));
        let regions = w.regions(Policy::OmpDynamic { chunk: 64 });
        assert_eq!(regions.len(), w.iters);
    }

    /// The irregular handle at `iter` 1, 3, 5 and 10 and the PageRank
    /// handle, and the prefixes regions build from them, equal the
    /// reference arrays bit for bit, in natural, random and Cuthill–McKee
    /// order.
    #[test]
    fn handles_match_the_reference_arrays_bit_for_bit() {
        use mic_graph::ordering::{apply, Ordering};
        let bits = |ws: &[Work]| -> Vec<[u64; 6]> {
            ws.iter()
                .map(|w| [w.issue, w.l1, w.l2, w.dram, w.flops, w.atomics].map(f64::to_bits))
                .collect()
        };
        let g = grid3d(20, 20, 20, Stencil3::SevenPoint);
        for order in [
            Ordering::Natural,
            Ordering::Random { seed: 3 },
            Ordering::CuthillMcKee { source: 0 },
        ] {
            let (h, _) = apply(&g, order);
            let counts = gap_counts(&h, None, LocalityWindows::default());
            let shared = Arc::new(counts.clone());
            for iter in [1, 3, 5, 10] {
                let [irregular, pagerank] = reference_arrays(&counts, iter);
                for (what, got, want) in [
                    (
                        "irregular",
                        from_counts(Arc::clone(&shared), iter).iter_work,
                        irregular,
                    ),
                    (
                        "pagerank",
                        pagerank_from_counts(Arc::clone(&shared), 1).vertex_work,
                        pagerank,
                    ),
                ] {
                    assert_eq!(bits(&got.to_vec()), bits(&want), "{order:?} {what} {iter}");
                    let policy = Policy::OmpDynamic { chunk: 100 };
                    let (got, want) = (Region::shared(got, policy), Region::new(want, policy));
                    assert_eq!(
                        bits(got.prefix_sums()),
                        bits(want.prefix_sums()),
                        "{order:?} {what} {iter} prefix"
                    );
                }
            }
        }
    }

    #[test]
    fn pagerank_workload_scales_sublinearly() {
        use mic_graph::generators::{rmat, RmatProbs};
        use mic_sim::simulate;
        let g = rmat(11, 16, RmatProbs::graph500(), 5);
        let m = Machine::knf();
        let w = instrument_pagerank(&g, LocalityWindows::default(), 0.85, 1e-8, 200);
        let regions = w.regions(Policy::OmpDynamic { chunk: 100 });
        let s = simulate(&m, 1, &regions).cycles / simulate(&m, 61, &regions).cycles;
        assert!(s > 2.0 && s < 61.0, "speedup {s}");
    }
}
