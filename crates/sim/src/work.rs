//! Workload descriptors: what one loop iteration costs, in
//! microarchitecture-neutral terms.

use crate::machine::Machine;
use crate::sched::Policy;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The abstract cost of a piece of work. Kernels count these while running
//  natively; the engine prices them on a concrete [`Machine`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Work {
    /// Scalar issue-slot operations: integer ALU, branches, address math,
    /// loads/stores themselves (the *issue* of a memory op costs a slot;
    /// its *latency* is counted by the hit-class fields below).
    pub issue: f64,
    /// Memory references hitting L1.
    pub l1: f64,
    /// Memory references hitting L2.
    pub l2: f64,
    /// Memory references going to DRAM.
    pub dram: f64,
    /// Floating-point operations.
    pub flops: f64,
    /// Operations on contended shared cache lines (fetch-add/CAS).
    pub atomics: f64,
}

impl Work {
    /// Elementwise sum.
    pub fn add(&self, o: &Work) -> Work {
        Work {
            issue: self.issue + o.issue,
            l1: self.l1 + o.l1,
            l2: self.l2 + o.l2,
            dram: self.dram + o.dram,
            flops: self.flops + o.flops,
            atomics: self.atomics + o.atomics,
        }
    }

    /// Elementwise difference. With prefix sums `p`, `p[hi].sub(&p[lo])`
    /// aggregates iterations `lo..hi` in O(1).
    pub fn sub(&self, o: &Work) -> Work {
        Work {
            issue: self.issue - o.issue,
            l1: self.l1 - o.l1,
            l2: self.l2 - o.l2,
            dram: self.dram - o.dram,
            flops: self.flops - o.flops,
            atomics: self.atomics - o.atomics,
        }
    }

    /// Elementwise scale.
    pub fn scale(&self, k: f64) -> Work {
        Work {
            issue: self.issue * k,
            l1: self.l1 * k,
            l2: self.l2 * k,
            dram: self.dram * k,
            flops: self.flops * k,
            atomics: self.atomics * k,
        }
    }

    /// All fields finite and non-negative.
    pub fn is_valid(&self) -> bool {
        [
            self.issue,
            self.l1,
            self.l2,
            self.dram,
            self.flops,
            self.atomics,
        ]
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0)
    }
}

/// `Work` priced on a machine: the composition of a running chunk.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Priced {
    /// Issue cycles (before any single-thread penalty).
    pub issue: f64,
    /// FPU occupancy cycles (flops × reciprocal throughput).
    pub fpu: f64,
    /// Stall cycles waiting on memory and atomics.
    pub stall: f64,
    /// DRAM line transfers (for chip bandwidth accounting).
    pub dram: f64,
    /// L2 line transfers (for ring bandwidth accounting).
    pub l2: f64,
    /// Shared-line operations (for line-serialization accounting).
    pub atomics: f64,
}

impl Priced {
    pub(crate) fn price(w: &Work, m: &Machine) -> Priced {
        Priced {
            issue: w.issue,
            fpu: w.flops * m.fpu_recip_throughput,
            stall: w.l1 * m.l1_latency
                + w.l2 * m.l2_latency
                + w.dram * m.dram_latency
                + w.atomics * m.atomic_latency,
            dram: w.dram,
            l2: w.l2,
            atomics: w.atomics,
        }
    }
}

/// Which of a priced view's items a region iterates, in order.
#[derive(Clone, Debug)]
pub enum Pick {
    /// Every item, in index order.
    All,
    /// Items `0, k, 2k, …` (`k ≥ 1`): a fixed sample.
    Stride(usize),
    /// `order[range]`: the listed item indices, in order (one BFS level of
    /// a by-level vertex order).
    Listed(Arc<[u32]>, Range<usize>),
}

/// Per-iteration `Work` behind a [`Costs`] handle, type-erased.
trait Source: Send + Sync {
    fn len(&self) -> usize;
    /// Each iteration's `Work` plus `extra` or, with `prefix`, their prefix
    /// sums (`n + 1` entries, leading zero). One dynamic call per walk; the
    /// loop inside is monomorphised per item type and cost function.
    fn walk(&self, extra: Option<&Work>, prefix: bool) -> Vec<Work>;
}

/// The `pick` of `items`, each priced by `cost` when walked.
struct View<T, F> {
    items: Arc<Vec<T>>,
    pick: Pick,
    cost: F,
}

impl<T: Send + Sync, F: Fn(&T) -> Work + Send + Sync> Source for View<T, F> {
    fn len(&self) -> usize {
        match &self.pick {
            Pick::All => self.items.len(),
            Pick::Stride(k) => self.items.len().div_ceil(*k),
            Pick::Listed(_, r) => r.len(),
        }
    }

    fn walk(&self, extra: Option<&Work>, prefix: bool) -> Vec<Work> {
        let (items, cost, n) = (&self.items, &self.cost, self.len());
        match &self.pick {
            Pick::All => walk(n, extra, prefix, items.iter().map(cost)),
            Pick::Stride(k) => walk(n, extra, prefix, items.iter().step_by(*k).map(cost)),
            Pick::Listed(order, r) => {
                let works = order[r.clone()].iter().map(|&i| cost(&items[i as usize]));
                walk(n, extra, prefix, works)
            }
        }
    }
}

fn walk(
    n: usize,
    extra: Option<&Work>,
    prefix: bool,
    works: impl Iterator<Item = Work>,
) -> Vec<Work> {
    fn scan(n: usize, works: impl Iterator<Item = Work>) -> Vec<Work> {
        let mut p = Vec::with_capacity(n + 1);
        p.push(Work::default());
        for w in works {
            debug_assert!(w.is_valid(), "invalid Work descriptor");
            let last = *p.last().unwrap();
            p.push(last.add(&w));
        }
        p
    }
    match (extra, prefix) {
        (None, true) => scan(n, works),
        (Some(e), true) => scan(n, works.map(|w| w.add(e))),
        (None, false) => works.collect(),
        (Some(e), false) => works.map(|w| w.add(e)).collect(),
    }
}

/// What each iteration of a region costs: a cloneable handle over shared
/// inputs, never a copy. A priced view ([`Costs::priced`]) computes each
/// iteration's `Work` from its item, such as a suite graph's gap counts,
/// only while a prefix is built; an explicit `Arc<Vec<Work>>` (`From`) is
/// the view of an array under the identity. Clones share one source, and
/// [`Region::same_as`] compares that identity.
#[derive(Clone, Debug)]
pub struct Costs {
    source: Arc<dyn Source>,
    /// Added to every iteration's `Work` (Fig. 1's holder lookup).
    extra: Option<Work>,
}

impl From<Arc<Vec<Work>>> for Costs {
    fn from(works: Arc<Vec<Work>>) -> Costs {
        Costs::priced(works, Pick::All, |w: &Work| *w)
    }
}

impl std::fmt::Debug for dyn Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} iterations", self.len())
    }
}

impl Costs {
    /// The `pick` of `items`, each iteration costing `cost(item)`.
    pub fn priced<T, F>(items: Arc<Vec<T>>, pick: Pick, cost: F) -> Costs
    where
        T: Send + Sync + 'static,
        F: Fn(&T) -> Work + Send + Sync + 'static,
    {
        let source = Arc::new(View { items, pick, cost });
        Costs {
            source,
            extra: None,
        }
    }

    /// These costs with `extra` added to every iteration: a new handle
    /// over the same source.
    pub fn plus(&self, extra: Work) -> Costs {
        assert!(self.extra.is_none(), "costs already carry an extra");
        let source = Arc::clone(&self.source);
        Costs {
            source,
            extra: Some(extra),
        }
    }

    /// Number of iterations.
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// Whether there are no iterations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each iteration's `Work`, materialised.
    pub fn to_vec(&self) -> Vec<Work> {
        self.source.walk(self.extra.as_ref(), false)
    }

    /// Whether `other` is this handle again: the same source by identity
    /// and the same extra.
    fn same_as(&self, other: &Costs) -> bool {
        std::ptr::addr_eq(Arc::as_ptr(&self.source), Arc::as_ptr(&other.source))
            && self.extra == other.extra
    }
}

/// One parallel region: a loop over `iter_work.len()` iterations scheduled
/// under `policy`, optionally preceded by a serial section (queue swaps,
/// level bookkeeping) executed by one thread.
///
/// `iter_work` is a [`Costs`] handle, so sweeping a region over thread
/// counts and scheduling policies copies no per-iteration array, and a
/// workload built over shared per-item inputs holds no `Work` at all.
#[derive(Clone, Debug)]
pub struct Region {
    pub iter_work: Costs,
    pub policy: Policy,
    pub serial_pre: Work,
    /// Whether this region pays the fork cost (waking a fresh team).
    /// `false` models a *persistent team* synchronizing with an in-region
    /// barrier instead (only the barrier is charged).
    pub fork: bool,
    /// Lazily-built prefix sums of `iter_work`, shared (through the outer
    /// `Arc`) by every clone and policy variant of this region so a sweep
    /// over the thread grid pays the O(n) pass once.
    prefix: Arc<OnceLock<Arc<Vec<Work>>>>,
}

impl Region {
    /// A region with no serial prefix over an explicit work array.
    pub fn new(iter_work: Vec<Work>, policy: Policy) -> Region {
        Region::shared(Arc::new(iter_work), policy)
    }

    /// A region over existing costs (a clone of a handle shares its source).
    pub fn shared(iter_work: impl Into<Costs>, policy: Policy) -> Region {
        Region {
            iter_work: iter_work.into(),
            policy,
            serial_pre: Work::default(),
            fork: true,
            prefix: Arc::new(OnceLock::new()),
        }
    }

    /// The same region under a different scheduling policy (cheap; shares
    /// both the costs and the prefix-sum cache).
    pub fn with_policy(&self, policy: Policy) -> Region {
        Region {
            iter_work: self.iter_work.clone(),
            policy,
            serial_pre: self.serial_pre,
            fork: self.fork,
            prefix: Arc::clone(&self.prefix),
        }
    }

    /// Prefix sums of `iter_work` (`n + 1` entries, leading zero), built on
    /// first use and cached. Iterations `lo..hi` aggregate in O(1) as
    /// `prefix[hi].sub(&prefix[lo])`.
    pub fn prefix_sums(&self) -> &Arc<Vec<Work>> {
        self.prefix.get_or_init(|| {
            Arc::new(
                self.iter_work
                    .source
                    .walk(self.iter_work.extra.as_ref(), true),
            )
        })
    }

    /// Whether `other` is this region again: the same costs handle (by
    /// identity, not by value), policy, serial prefix and fork flag, so it
    /// simulates to the same cycles on the same machine and thread count.
    pub(crate) fn same_as(&self, other: &Region) -> bool {
        self.iter_work.same_as(&other.iter_work)
            && self.policy == other.policy
            && self.serial_pre == other.serial_pre
            && self.fork == other.fork
    }

    /// Mark this region as run by a persistent team (no fork cost).
    pub fn persistent(mut self) -> Region {
        self.fork = false;
        self
    }

    /// Attach a serial prefix.
    pub fn with_serial_pre(mut self, w: Work) -> Region {
        self.serial_pre = w;
        self
    }

    /// Number of iterations.
    pub fn len(&self) -> usize {
        self.iter_work.len()
    }

    /// Whether the region has no iterations.
    pub fn is_empty(&self) -> bool {
        self.iter_work.is_empty()
    }

    /// Total work across iterations: the last prefix sum.
    pub fn total(&self) -> Work {
        self.prefix_sums()[self.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_algebra() {
        let a = Work {
            issue: 1.0,
            l1: 2.0,
            l2: 3.0,
            dram: 4.0,
            flops: 5.0,
            atomics: 6.0,
        };
        let b = a.scale(2.0);
        assert_eq!(b.dram, 8.0);
        let c = a.add(&b);
        assert_eq!(c.issue, 3.0);
        assert!(c.is_valid());
    }

    #[test]
    fn pricing_uses_machine_latencies() {
        let m = Machine::knf();
        let w = Work {
            issue: 10.0,
            l1: 1.0,
            l2: 1.0,
            dram: 1.0,
            flops: 4.0,
            atomics: 1.0,
        };
        let p = Priced::price(&w, &m);
        assert!((p.fpu - 4.0 * m.fpu_recip_throughput).abs() < 1e-9);
        let expected_stall = m.l1_latency + m.l2_latency + m.dram_latency + m.atomic_latency;
        assert!((p.stall - expected_stall).abs() < 1e-9);
    }

    #[test]
    fn a_repeated_region_is_not_simulated_again() {
        // Two regions over one costs handle, each with its own prefix cache
        // (as every `PagerankWorkload::regions` call makes them): only the
        // first is run, so only the first ever builds its prefix sums.
        let w = Work {
            l1: 4.0,
            l2: 2.4,
            dram: 1.6,
            ..Work::default()
        };
        let work = Costs::from(Arc::new(vec![w; 64]));
        let policy = Policy::OmpDynamic { chunk: 4 };
        let regions = [
            Region::shared(work.clone(), policy),
            Region::shared(work, policy),
        ];
        let rep = crate::simulate(&Machine::knf(), 8, &regions);
        assert_eq!(
            rep.region_cycles[0].to_bits(),
            rep.region_cycles[1].to_bits()
        );
        assert!(regions[0].prefix.get().is_some());
        assert!(regions[1].prefix.get().is_none());
    }

    /// A priced view under each pick, with and without an extra, walks
    /// and prefixes exactly as the explicit array of the same `Work` does.
    #[test]
    fn priced_views_match_explicit_arrays() {
        let items: Arc<Vec<u32>> = Arc::new((0..100).map(|i| (i * 37) % 11).collect());
        let cost = |&k: &u32| Work {
            issue: 3.0 + k as f64,
            dram: 0.6 * k as f64,
            atomics: 1.8,
            ..Work::default()
        };
        let order: Arc<[u32]> = (0..100).rev().collect::<Vec<_>>().into();
        let picks = [
            (Pick::All, (0..100).collect::<Vec<usize>>()),
            (Pick::Stride(7), (0..100).step_by(7).collect()),
            (
                Pick::Listed(Arc::clone(&order), 10..30),
                (70..90).rev().collect(),
            ),
        ];
        let extra = Work {
            issue: 2.0,
            ..Work::default()
        };
        let policy = Policy::OmpDynamic { chunk: 4 };
        for (pick, indices) in picks {
            let view = Costs::priced(Arc::clone(&items), pick, cost);
            for (got, extra) in [(view.clone(), None), (view.plus(extra), Some(extra))] {
                let want: Vec<Work> = indices
                    .iter()
                    .map(|&i| cost(&items[i]))
                    .map(|w| extra.map_or(w, |e| w.add(&e)))
                    .collect();
                assert_eq!(got.len(), want.len());
                assert_eq!(got.to_vec(), want);
                let want = Region::new(want, policy);
                let got = Region::shared(got, policy);
                assert_eq!(got.prefix_sums().as_slice(), want.prefix_sums().as_slice());
            }
        }
    }

    /// Handles compare by identity: clones are the same costs, a second
    /// view over the same items or the same view plus an extra is not.
    #[test]
    fn costs_compare_by_identity() {
        let items = Arc::new(vec![1.0f64; 8]);
        let cost = |&x: &f64| Work {
            issue: x,
            ..Work::default()
        };
        let a = Costs::priced(Arc::clone(&items), Pick::All, cost);
        let b = Costs::priced(items, Pick::All, cost);
        let extra = Work {
            issue: 2.0,
            ..Work::default()
        };
        assert!(a.same_as(&a.clone()));
        assert!(!a.same_as(&b));
        assert!(!a.same_as(&a.plus(extra)));
        assert!(a.plus(extra).same_as(&a.plus(extra)));
    }

    #[test]
    fn region_total() {
        let r = Region::new(
            vec![
                Work {
                    issue: 1.0,
                    ..Default::default()
                };
                10
            ],
            Policy::OmpDynamic { chunk: 4 },
        );
        assert_eq!(r.len(), 10);
        assert!((r.total().issue - 10.0).abs() < 1e-12);
    }
}
