//! Machine configurations: the KNF prototype and the paper's Xeon host.

/// Per-chunk scheduling costs of the runtime systems, in cycles and in
/// shared-cache-line operations. These express the paper's observation that
/// "the less expensive dynamic scheduling policies perform better than the
/// more complex ones" on a latency-bound many-core: heavier runtimes spend
/// more issue slots *and* more serialized line transfers per chunk.
#[derive(Clone, Copy, Debug)]
pub struct SchedCosts {
    /// Issue cycles a thread spends picking up one chunk under OpenMP
    /// `static` (index arithmetic only).
    pub static_chunk: f64,
    /// Issue cycles per chunk under OpenMP `dynamic`/`guided` (fetch-add
    /// plus loop setup).
    pub dynamic_chunk: f64,
    /// Extra line operations per `guided` chunk (CAS retry traffic).
    pub guided_extra_atomics: f64,
    /// Issue cycles per Cilk leaf task (spawn frames, deque bookkeeping).
    pub cilk_leaf: f64,
    /// Shared-line operations per Cilk leaf (deque pushes/steals).
    pub cilk_leaf_atomics: f64,
    /// Issue cycles per TBB subrange (task allocation, functor dispatch).
    pub tbb_task: f64,
    /// Shared-line operations per TBB subrange.
    pub tbb_task_atomics: f64,
    /// Background coherence traffic of the runtime itself (victim probing,
    /// deque polling), as a slowdown coefficient applied as
    /// `coeff * threads^2 / cores`: each software thread probes shared
    /// state at a rate proportional to the thread count, and the ring
    /// serializes it. Zero for OpenMP's single counter; calibrated to the
    /// paper's Cilk/TBB peak-then-decline curves for the stealing runtimes.
    pub bg_omp: f64,
    pub bg_cilk: f64,
    pub bg_tbb: f64,
}

/// How software threads are placed onto cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Thread `i` on core `i mod cores`: spread over cores first, SMT
    /// siblings filled last (the paper's configuration — 31 threads means
    /// one per core).
    Scatter,
    /// Fill each core's SMT slots before moving on: thread `i` on core
    /// `i / smt_per_core`.
    Compact,
}

/// A simulated machine. See the crate docs for what each knob reproduces.
#[derive(Clone, Debug)]
pub struct Machine {
    pub name: &'static str,
    /// Physical cores available to the application.
    pub cores: usize,
    /// Hardware threads per core.
    pub smt_per_core: usize,
    /// Software-thread placement policy.
    pub placement: Placement,
    /// Issue-rate multiplier for a core running a single thread. KNF's
    /// in-order pipeline cannot issue from one thread in back-to-back
    /// cycles, so this is 2.0 there and 1.0 on the out-of-order Xeon.
    pub single_thread_issue_penalty: f64,
    /// Stall-time multiplier for a lone thread: a single in-order thread
    /// cannot keep its miss pipeline busy (the next miss is not issued
    /// until the stalled instruction retires and the issue gap passes), so
    /// its *effective* per-miss cost exceeds the raw latency. This is why
    /// the paper's 1-thread baselines are so slow that speedups can exceed
    /// the thread count (Figure 2's 153 on 121 threads).
    pub single_thread_stall_penalty: f64,
    /// L1 hit latency (cycles).
    pub l1_latency: f64,
    /// L2 hit latency (cycles).
    pub l2_latency: f64,
    /// Memory latency (cycles); an in-order thread stalls for all of it.
    pub dram_latency: f64,
    /// Chip-wide sustainable DRAM access rate (cache lines per cycle).
    pub dram_lines_per_cycle: f64,
    /// Chip-wide sustainable rate of L2 accesses (lines per cycle) — on
    /// KNF, L2 slices sit on the shared bidirectional ring, so aggregate L2
    /// traffic saturates well before per-core issue does. This is the
    /// resource that caps the paper's *naturally ordered* coloring runs
    /// around 72× while shuffled (DRAM-latency-bound) runs stay linear.
    pub l2_lines_per_cycle: f64,
    /// Cycles per (scalar) floating-point operation of the per-core FPU,
    /// shared by the core's SMT threads.
    pub fpu_recip_throughput: f64,
    /// Latency of an uncontended atomic as seen by the issuing thread.
    pub atomic_latency: f64,
    /// Serialized occupancy of the *line* per atomic operation — the ring
    /// round-trip during which no other thread can operate on that line.
    pub atomic_service: f64,
    /// Barrier cost: fixed part + a log2(threads) tree term + a linear
    /// per-thread term (the sense-reversal line crosses the ring once per
    /// participant). The linear term is what makes deep BFS runs *decline*
    /// past the sweet spot, as in Figure 4.
    pub barrier_base: f64,
    pub barrier_log: f64,
    pub barrier_per_thread: f64,
    /// Cost of entering a parallel region (thread wake / fork), per region.
    pub fork_base: f64,
    pub sched: SchedCosts,
}

impl Machine {
    /// The paper's prototype Knights Ferry card: 31 usable cores, 4-way
    /// SMT, in-order pipelines with the every-other-cycle issue
    /// restriction, ~1 GHz class latencies, GDDR5 memory, bidirectional
    /// ring. Latency values follow public descriptions of the
    /// KNF/KNC microarchitecture family; scheduling costs are calibrated so
    /// the paper's measured plateaus are matched (see EXPERIMENTS.md).
    pub fn knf() -> Machine {
        Machine {
            name: "knf",
            cores: 31,
            smt_per_core: 4,
            placement: Placement::Scatter,
            single_thread_issue_penalty: 2.0,
            single_thread_stall_penalty: 1.35,
            l1_latency: 3.0,
            l2_latency: 22.0,
            dram_latency: 260.0,
            dram_lines_per_cycle: 1.2,
            l2_lines_per_cycle: 1.22,
            fpu_recip_throughput: 10.0,
            atomic_latency: 140.0,
            atomic_service: 110.0,
            barrier_base: 800.0,
            barrier_log: 250.0,
            barrier_per_thread: 90.0,
            fork_base: 600.0,
            sched: SchedCosts {
                static_chunk: 6.0,
                dynamic_chunk: 25.0,
                guided_extra_atomics: 0.6,
                cilk_leaf: 110.0,
                cilk_leaf_atomics: 28.0,
                tbb_task: 70.0,
                tbb_task_atomics: 9.0,
                bg_omp: 0.0001,
                bg_cilk: 0.0008,
                bg_tbb: 0.0005,
            },
        }
    }

    /// The paper's host: dual Xeon X5680 (12 cores total, 2-way
    /// hyper-threading, out-of-order). Out-of-order execution both removes
    /// the single-thread issue penalty and hides a large share of memory
    /// latency within one thread, which is why SMT buys far less here.
    pub fn xeon_host() -> Machine {
        Machine {
            name: "xeon",
            cores: 12,
            smt_per_core: 2,
            placement: Placement::Scatter,
            single_thread_issue_penalty: 1.0,
            single_thread_stall_penalty: 1.0,
            l1_latency: 1.5,
            l2_latency: 10.0,
            dram_latency: 90.0,
            dram_lines_per_cycle: 1.0,
            l2_lines_per_cycle: 1.5,
            fpu_recip_throughput: 0.5,
            atomic_latency: 45.0,
            atomic_service: 35.0,
            barrier_base: 400.0,
            barrier_log: 120.0,
            barrier_per_thread: 20.0,
            fork_base: 300.0,
            sched: SchedCosts {
                static_chunk: 4.0,
                dynamic_chunk: 15.0,
                guided_extra_atomics: 0.5,
                cilk_leaf: 60.0,
                cilk_leaf_atomics: 3.5,
                tbb_task: 40.0,
                tbb_task_atomics: 1.5,
                bg_omp: 0.0,
                bg_cilk: 0.0008,
                bg_tbb: 0.0005,
            },
        }
    }

    /// A projection of the commercial Knights Corner design the paper's
    /// conclusion anticipates ("will feature more than 50 cores"): 60
    /// cores, the same in-order 4-way-SMT pipeline, proportionally more
    /// ring and memory bandwidth, similar latencies. Used by the `whatif`
    /// harness to extrapolate every kernel beyond the prototype.
    pub fn knc_projection() -> Machine {
        let mut m = Machine::knf();
        m.name = "knc-projection";
        m.cores = 60;
        // Ring and memory bandwidth scale roughly with the core count.
        m.l2_lines_per_cycle = m.l2_lines_per_cycle * 60.0 / 31.0;
        m.dram_lines_per_cycle = m.dram_lines_per_cycle * 60.0 / 31.0;
        // More ring stops: costlier shared-line service and barriers.
        m.atomic_service *= 1.3;
        m.atomic_latency *= 1.3;
        m.barrier_log *= 1.2;
        m
    }

    /// The core index executing software thread `i`.
    pub(crate) fn core_of(&self, i: usize) -> usize {
        match self.placement {
            Placement::Scatter => i % self.cores,
            Placement::Compact => (i / self.smt_per_core).min(self.cores - 1),
        }
    }

    /// The SMT slot (within [`Machine::core_of`]'s core) of software
    /// thread `i`, for `i < hw_threads()` — the scatter placement fills
    /// slot 0 of every core before touching slot 1.
    pub(crate) fn slot_of(&self, i: usize) -> usize {
        match self.placement {
            Placement::Scatter => i / self.cores,
            Placement::Compact => i % self.smt_per_core,
        }
    }

    /// The software thread on SMT slot `slot` of `core`: the inverse of
    /// ([`Machine::core_of`], [`Machine::slot_of`]), ascending in `slot`.
    pub(crate) fn thread_at(&self, core: usize, slot: usize) -> usize {
        match self.placement {
            Placement::Scatter => slot * self.cores + core,
            Placement::Compact => core * self.smt_per_core + slot,
        }
    }

    /// Total hardware threads.
    pub fn hw_threads(&self) -> usize {
        self.cores * self.smt_per_core
    }

    /// The paper's thread grid for this machine: 1 then every 10 up to
    /// (almost) the hardware thread count — {1, 11, 21, …, 121} on KNF —
    /// and 1..=24 on the host (Figure 4d plots every count).
    pub fn thread_grid(&self) -> Vec<usize> {
        if self.hw_threads() > 32 {
            let mut g = vec![1];
            let mut t = 11;
            while t <= self.hw_threads() - 3 {
                g.push(t);
                t += 10;
            }
            g
        } else {
            (1..=self.hw_threads()).collect()
        }
    }

    /// Sanity-check the configuration, panicking on the first violation
    /// (the hot-path form; see [`Machine::check`] for the error-returning
    /// one).
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("invalid machine configuration: {msg}");
        }
    }

    /// Sanity-check the configuration, naming the first violated
    /// constraint instead of panicking.
    pub fn check(&self) -> Result<(), String> {
        let constraints: [(&str, bool); 8] = [
            (
                "cores >= 1 && smt_per_core >= 1",
                self.cores >= 1 && self.smt_per_core >= 1,
            ),
            (
                "single_thread_issue_penalty >= 1",
                self.single_thread_issue_penalty >= 1.0,
            ),
            (
                "single_thread_stall_penalty >= 1",
                self.single_thread_stall_penalty >= 1.0,
            ),
            (
                "0 < l1_latency <= l2_latency",
                self.l1_latency > 0.0 && self.l2_latency >= self.l1_latency,
            ),
            (
                "dram_latency >= l2_latency",
                self.dram_latency >= self.l2_latency,
            ),
            (
                "dram/l2 lines_per_cycle > 0",
                self.dram_lines_per_cycle > 0.0 && self.l2_lines_per_cycle > 0.0,
            ),
            ("fpu_recip_throughput > 0", self.fpu_recip_throughput > 0.0),
            (
                "atomic_service >= 0 && atomic_latency >= 0",
                self.atomic_service >= 0.0 && self.atomic_latency >= 0.0,
            ),
        ];
        match constraints.iter().find(|(_, ok)| !ok) {
            Some((name, _)) => Err(format!("machine {:?} violates {name}", self.name)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Machine::knf().validate();
        Machine::xeon_host().validate();
    }

    #[test]
    fn knf_matches_paper_platform() {
        let m = Machine::knf();
        assert_eq!(m.cores, 31);
        assert_eq!(m.hw_threads(), 124);
        let grid = m.thread_grid();
        assert_eq!(grid.first(), Some(&1));
        assert_eq!(grid.last(), Some(&121));
        assert_eq!(grid.len(), 13); // 1, 11, 21, ..., 121
    }

    #[test]
    fn knc_projection_scales_bandwidth() {
        let knf = Machine::knf();
        let knc = Machine::knc_projection();
        knc.validate();
        assert_eq!(knc.cores, 60);
        assert_eq!(knc.hw_threads(), 240);
        assert!(knc.l2_lines_per_cycle > 1.8 * knf.l2_lines_per_cycle);
        assert!(knc.atomic_service > knf.atomic_service);
    }

    #[test]
    fn placement_maps_threads() {
        let mut m = Machine::knf();
        assert_eq!(m.core_of(0), 0);
        assert_eq!(m.core_of(31), 0); // scatter wraps
        assert_eq!(m.core_of(32), 1);
        m.placement = Placement::Compact;
        assert_eq!(m.core_of(0), 0);
        assert_eq!(m.core_of(3), 0); // compact fills SMT first
        assert_eq!(m.core_of(4), 1);
    }

    #[test]
    fn thread_at_inverts_core_and_slot_in_ascending_order() {
        let mut compact = Machine::knf();
        compact.placement = Placement::Compact;
        for m in [Machine::knf(), compact, Machine::xeon_host()] {
            for i in 0..m.hw_threads() {
                let (c, s) = (m.core_of(i), m.slot_of(i));
                assert_eq!(m.thread_at(c, s), i, "{:?}", m.placement);
            }
            // The engine adds a core's demands slot by slot and relies on
            // that being ascending thread order.
            for c in 0..m.cores {
                let ids: Vec<usize> = (0..m.smt_per_core).map(|s| m.thread_at(c, s)).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "core {c}: {ids:?}");
                assert!(ids.iter().all(|&i| i < m.hw_threads() && m.core_of(i) == c));
            }
        }
    }

    #[test]
    fn host_grid_is_dense() {
        let m = Machine::xeon_host();
        assert_eq!(m.thread_grid(), (1..=24).collect::<Vec<_>>());
    }
}
