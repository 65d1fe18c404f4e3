//! Workload descriptors: what one loop iteration costs, in
//! microarchitecture-neutral terms.

use crate::machine::Machine;
use crate::sched::Policy;

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

/// One parallel region: a loop over `iter_work.len()` iterations scheduled
/// under `policy`, optionally preceded by a serial section (queue swaps,
/// level bookkeeping) executed by one thread.
///
/// The iteration work array is shared (`Arc`) so that sweeping a region
/// over thread counts and scheduling policies does not copy it.
#[derive(Clone, Debug)]
pub struct Region {
    pub iter_work: std::sync::Arc<Vec<Work>>,
    pub policy: Policy,
    pub serial_pre: Work,
    /// Whether this region pays the fork cost (waking a fresh team).
    /// `false` models a *persistent team* synchronizing with an in-region
    /// barrier instead (only the barrier is charged).
    pub fork: bool,
    /// Lazily-built prefix sums of `iter_work`, shared (through the outer
    /// `Arc`) by every clone and policy variant of this region so a sweep
    /// over the thread grid pays the O(n) pass once.
    prefix: std::sync::Arc<std::sync::OnceLock<std::sync::Arc<Vec<Work>>>>,
}

impl Region {
    /// A region with no serial prefix.
    pub fn new(iter_work: Vec<Work>, policy: Policy) -> Region {
        Region::shared(std::sync::Arc::new(iter_work), policy)
    }

    /// A region sharing an existing work array.
    pub fn shared(iter_work: std::sync::Arc<Vec<Work>>, policy: Policy) -> Region {
        Region {
            iter_work,
            policy,
            serial_pre: Work::default(),
            fork: true,
            prefix: std::sync::Arc::new(std::sync::OnceLock::new()),
        }
    }

    /// The same region under a different scheduling policy (cheap; shares
    /// both the work array and the prefix-sum cache).
    pub fn with_policy(&self, policy: Policy) -> Region {
        Region {
            iter_work: std::sync::Arc::clone(&self.iter_work),
            policy,
            serial_pre: self.serial_pre,
            fork: self.fork,
            prefix: std::sync::Arc::clone(&self.prefix),
        }
    }

    /// Prefix sums of `iter_work` (`n + 1` entries, leading zero), built on
    /// first use and cached. Iterations `lo..hi` aggregate in O(1) as
    /// `prefix[hi].sub(&prefix[lo])`.
    pub fn prefix_sums(&self) -> &std::sync::Arc<Vec<Work>> {
        self.prefix.get_or_init(|| {
            let mut p = Vec::with_capacity(self.iter_work.len() + 1);
            p.push(Work::default());
            for w in self.iter_work.iter() {
                debug_assert!(w.is_valid(), "invalid Work descriptor");
                let last = *p.last().unwrap();
                p.push(last.add(w));
            }
            std::sync::Arc::new(p)
        })
    }

    /// Whether `other` is this region again: the same work array (by
    /// identity, not by value), policy, serial prefix and fork flag, so it
    /// simulates to the same cycles on the same machine and thread count.
    pub(crate) fn same_as(&self, other: &Region) -> bool {
        std::sync::Arc::ptr_eq(&self.iter_work, &other.iter_work)
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

    /// Total work across iterations.
    pub fn total(&self) -> Work {
        self.iter_work
            .iter()
            .fold(Work::default(), |acc, w| acc.add(w))
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
        // Two regions over one work array, each with its own prefix cache
        // (as every `PagerankWorkload::regions` call makes them): only the
        // first is run, so only the first ever builds its prefix sums.
        let w = Work {
            l1: 4.0,
            l2: 2.4,
            dram: 1.6,
            ..Work::default()
        };
        let work = std::sync::Arc::new(vec![w; 64]);
        let policy = Policy::OmpDynamic { chunk: 4 };
        let regions = [
            Region::shared(std::sync::Arc::clone(&work), policy),
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
