//! Scheduler models mirroring the taxonomy of `mic-runtime`.

use crate::machine::Machine;
use crate::work::Work;
use std::ops::Range;

/// Scheduling policy of a simulated parallel region. Mirrors
/// `mic_runtime::{Schedule, Partitioner}` plus Cilk's `cilk_for`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// OpenMP `schedule(static[, chunk])`.
    OmpStatic { chunk: Option<usize> },
    /// OpenMP `schedule(dynamic, chunk)`.
    OmpDynamic { chunk: usize },
    /// OpenMP `schedule(guided, min_chunk)`.
    OmpGuided { min_chunk: usize },
    /// Cilk Plus `cilk_for` with the given grain.
    Cilk { grain: usize },
    /// TBB `simple_partitioner` with the given grain.
    TbbSimple { grain: usize },
    /// TBB `auto_partitioner`.
    TbbAuto,
    /// TBB `affinity_partitioner`.
    TbbAffinity,
    /// Run everything on thread 0 (serial sections).
    Serial,
}

impl Policy {
    /// Short stable label for traces and tables (knob values omitted).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::OmpStatic { .. } => "omp-static",
            Policy::OmpDynamic { .. } => "omp-dynamic",
            Policy::OmpGuided { .. } => "omp-guided",
            Policy::Cilk { .. } => "cilk",
            Policy::TbbSimple { .. } => "tbb-simple",
            Policy::TbbAuto => "tbb-auto",
            Policy::TbbAffinity => "tbb-affinity",
            Policy::Serial => "serial",
        }
    }

    /// Per-chunk dispatch overhead (issue cycles + shared-line operations),
    /// from the machine's calibrated scheduler costs.
    pub(crate) fn chunk_overhead(&self, m: &Machine) -> Work {
        let s = &m.sched;
        let (issue, atomics) = match self {
            Policy::OmpStatic { .. } | Policy::Serial => (s.static_chunk, 0.0),
            Policy::OmpDynamic { .. } => (s.dynamic_chunk, 1.0),
            Policy::OmpGuided { .. } => (s.dynamic_chunk, 1.0 + s.guided_extra_atomics),
            Policy::Cilk { .. } => (s.cilk_leaf, s.cilk_leaf_atomics),
            Policy::TbbSimple { .. } => (s.tbb_task, s.tbb_task_atomics),
            Policy::TbbAuto => (s.tbb_task, s.tbb_task_atomics * 0.7),
            Policy::TbbAffinity => (s.tbb_task * 0.6, 0.0),
        };
        Work {
            issue,
            atomics,
            ..Default::default()
        }
    }

    /// Coefficient of the runtime's background coherence traffic (see
    /// `SchedCosts::bg_*`); the engine turns it into a global slowdown of
    /// `coeff * threads^2 / cores`.
    pub(crate) fn background_coeff(&self, m: &Machine) -> f64 {
        let s = &m.sched;
        match self {
            Policy::Serial => 0.0,
            Policy::OmpStatic { .. } | Policy::OmpDynamic { .. } | Policy::OmpGuided { .. } => {
                s.bg_omp
            }
            Policy::Cilk { .. } => s.bg_cilk,
            Policy::TbbSimple { .. } => s.bg_tbb,
            Policy::TbbAuto => s.bg_tbb * 12.0,
            Policy::TbbAffinity => s.bg_tbb * 15.0,
        }
    }
}

/// Hands out iteration ranges to simulated threads, in dispatch order.
/// Per-thread state lives in a caller-owned buffer (see [`Cursor::new`]),
/// so a reused buffer makes dispatch allocation-free.
pub(crate) enum Cursor {
    /// One contiguous block for each of the first `owners` threads:
    /// `n` split as evenly as possible, the first blocks one longer.
    Blocks { n: usize, owners: usize },
    /// Cyclic chunks: thread `id` takes chunks `id`, `id + t`, … Used for
    /// static-with-chunk and the (deterministic) affinity partitioner.
    Cyclic { n: usize, chunk: usize, t: usize },
    /// First-come-first-served fixed chunks (dynamic / Cilk / TBB simple &
    /// auto — what differs between those is the per-chunk overhead, not
    /// the dispatch order).
    Fcfs { n: usize, chunk: usize, next: usize },
    /// Guided: FCFS with geometrically shrinking chunk sizes.
    Guided {
        n: usize,
        min_chunk: usize,
        t: usize,
        next: usize,
    },
}

impl Cursor {
    /// The cursor of `policy` over `n` iterations on `t` threads. `taken`
    /// becomes `t` zeros: the chunks each thread has taken so far, which
    /// every [`Cursor::next`] call must be handed back.
    pub(crate) fn new(policy: Policy, n: usize, t: usize, taken: &mut Vec<usize>) -> Cursor {
        taken.clear();
        taken.resize(t, 0);
        match policy {
            Policy::Serial => Cursor::Blocks { n, owners: 1 },
            Policy::OmpStatic { chunk: None } => Cursor::Blocks { n, owners: t },
            Policy::OmpStatic { chunk: Some(c) } => Cursor::Cyclic {
                n,
                chunk: c.max(1),
                t,
            },
            Policy::TbbAffinity => {
                let chunk = n.div_ceil((t * 4).max(1)).max(1);
                Cursor::Cyclic { n, chunk, t }
            }
            Policy::OmpDynamic { chunk } => Cursor::Fcfs {
                n,
                chunk: chunk.max(1),
                next: 0,
            },
            Policy::Cilk { grain } => Cursor::Fcfs {
                n,
                chunk: grain.max(1),
                next: 0,
            },
            Policy::TbbSimple { grain } => Cursor::Fcfs {
                n,
                chunk: grain.max(1),
                next: 0,
            },
            Policy::TbbAuto => {
                let chunk = n.div_ceil((t * 4).max(1)).max(1);
                Cursor::Fcfs { n, chunk, next: 0 }
            }
            Policy::OmpGuided { min_chunk } => Cursor::Guided {
                n,
                min_chunk: min_chunk.max(1),
                t,
                next: 0,
            },
        }
    }

    /// Next chunk for `thread`, or `None` if that thread is out of work.
    pub(crate) fn next(&mut self, thread: usize, taken: &mut [usize]) -> Option<Range<usize>> {
        match self {
            Cursor::Blocks { n, owners } => {
                if thread >= *owners || std::mem::replace(&mut taken[thread], 1) != 0 {
                    return None;
                }
                let (base, extra) = (*n / *owners, *n % *owners);
                let lo = thread * base + thread.min(extra);
                let len = base + usize::from(thread < extra);
                (len > 0).then_some(lo..lo + len)
            }
            Cursor::Cyclic { n, chunk, t } => {
                let lo = (taken[thread] * *t + thread) * *chunk;
                if lo >= *n {
                    return None;
                }
                taken[thread] += 1;
                Some(lo..(lo + *chunk).min(*n))
            }
            Cursor::Fcfs { n, chunk, next } => {
                if *next >= *n {
                    return None;
                }
                let lo = *next;
                *next = (*next + *chunk).min(*n);
                Some(lo..*next)
            }
            Cursor::Guided {
                n,
                min_chunk,
                t,
                next,
            } => {
                if *next >= *n {
                    return None;
                }
                let remaining = *n - *next;
                let chunk = (remaining / (2 * *t)).max(*min_chunk).min(remaining);
                let lo = *next;
                *next += chunk;
                Some(lo..*next)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(policy: Policy, n: usize, t: usize) -> Vec<(usize, Range<usize>)> {
        let mut taken = Vec::new();
        let mut cur = Cursor::new(policy, n, t, &mut taken);
        let mut out = Vec::new();
        // Round-robin polling of threads, like an idealized lockstep run.
        let mut made_progress = true;
        while made_progress {
            made_progress = false;
            for th in 0..t {
                if let Some(r) = cur.next(th, &mut taken) {
                    out.push((th, r));
                    made_progress = true;
                }
            }
        }
        out
    }

    fn covers(chunks: &[(usize, Range<usize>)], n: usize) -> bool {
        let mut seen = vec![false; n];
        for (_, r) in chunks {
            for i in r.clone() {
                if std::mem::replace(&mut seen[i], true) {
                    return false; // duplicate
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    #[test]
    fn all_policies_cover_all_iterations() {
        for policy in [
            Policy::OmpStatic { chunk: None },
            Policy::OmpStatic { chunk: Some(7) },
            Policy::OmpDynamic { chunk: 5 },
            Policy::OmpGuided { min_chunk: 3 },
            Policy::Cilk { grain: 4 },
            Policy::TbbSimple { grain: 6 },
            Policy::TbbAuto,
            Policy::TbbAffinity,
            Policy::Serial,
        ] {
            for (n, t) in [(100, 4), (3, 8), (0, 2), (1000, 13)] {
                let chunks = drain_all(policy, n, t);
                assert!(covers(&chunks, n), "{policy:?} n={n} t={t}");
            }
        }
    }

    #[test]
    fn serial_gives_everything_to_thread_zero() {
        let chunks = drain_all(Policy::Serial, 50, 4);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0], (0, 0..50));
    }

    #[test]
    fn static_blocks_split_evenly_first_blocks_longer() {
        let chunks = drain_all(Policy::OmpStatic { chunk: None }, 10, 4);
        assert_eq!(chunks, [(0, 0..3), (1, 3..6), (2, 6..8), (3, 8..10)]);
        // Fewer iterations than threads: the tail threads get nothing.
        let chunks = drain_all(Policy::OmpStatic { chunk: None }, 2, 4);
        assert_eq!(chunks, [(0, 0..1), (1, 1..2)]);
    }

    #[test]
    fn guided_chunks_shrink() {
        let chunks = drain_all(Policy::OmpGuided { min_chunk: 2 }, 1000, 4);
        let sizes: Vec<usize> = chunks.iter().map(|(_, r)| r.len()).collect();
        assert!(sizes[0] > *sizes.last().unwrap());
        assert_eq!(sizes[0], 125); // 1000 / (2*4)
        assert!(sizes.iter().all(|&s| s >= 2 || s == sizes[sizes.len() - 1]));
    }

    #[test]
    fn overheads_ordered_omp_lightest() {
        let m = Machine::knf();
        let omp = Policy::OmpDynamic { chunk: 100 }.chunk_overhead(&m);
        let tbb = Policy::TbbSimple { grain: 100 }.chunk_overhead(&m);
        let cilk = Policy::Cilk { grain: 100 }.chunk_overhead(&m);
        assert!(omp.issue < tbb.issue && tbb.issue < cilk.issue);
        assert!(omp.atomics < tbb.atomics && tbb.atomics < cilk.atomics);
    }
}
