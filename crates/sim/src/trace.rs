//! mic-trace: structured tracing of the simulated machine.
//!
//! The event loop in [`crate::engine`] already knows, for every inter-event
//! interval, which resource bound each running thread (that is where the
//! [`crate::Bottleneck`] fractions come from). This module exposes that
//! signal as *structured telemetry* instead of a single scalar per region:
//!
//! - a **chunk event** per dispatched chunk: which software thread ran it,
//!   on which core and SMT slot, the iteration range, start/end sim-time
//!   and the stall cause the interval attribution charged it with;
//! - **per-core counter aggregates** at region end: cycles attributed to
//!   issue, FPU hazards, L2/DRAM bandwidth, atomic-ring serialization,
//!   runtime background traffic and plain (latency-bound) execution.
//!
//! Everything flows through the [`TraceSink`] trait. The engine's fast
//! path is generic over the sink and is compiled with `NullSink` when
//! tracing is off, so an untraced `simulate_with_scratch` performs the
//! exact same operations as before this layer existed (pinned bit-for-bit
//! by `engine::tests::cached_prefix_and_scratch_bit_identical_to_seed_path`).

use crate::sched::Policy;

/// The resource an interval of simulated time was attributed to — the
/// argmax of a running thread's slowdown sources, with `Latency` meaning
/// "nothing shared is meaningfully saturated".
///
/// Order matches the fields of [`crate::Bottleneck`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Memory/ALU latency of the chunk itself (the SMT-friendly regime).
    Latency,
    /// Per-core issue bandwidth saturated.
    Issue,
    /// The shared per-core FPU saturated.
    Fpu,
    /// Chip-wide L2/ring bandwidth saturated.
    L2Bandwidth,
    /// Chip-wide DRAM bandwidth saturated.
    DramBandwidth,
    /// Serialized shared-line (atomic) service saturated.
    Atomics,
    /// Runtime background coherence traffic dominating.
    Background,
}

impl StallCause {
    /// All causes, in [`crate::Bottleneck`] field order.
    pub const ALL: [StallCause; 7] = [
        StallCause::Latency,
        StallCause::Issue,
        StallCause::Fpu,
        StallCause::L2Bandwidth,
        StallCause::DramBandwidth,
        StallCause::Atomics,
        StallCause::Background,
    ];

    /// Stable lower-case name (matches [`crate::Bottleneck::dominant`]).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Latency => "latency",
            StallCause::Issue => "issue",
            StallCause::Fpu => "fpu",
            StallCause::L2Bandwidth => "l2_bandwidth",
            StallCause::DramBandwidth => "dram_bandwidth",
            StallCause::Atomics => "atomics",
            StallCause::Background => "background",
        }
    }

    /// Position in [`StallCause::ALL`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).unwrap()
    }

    pub(crate) fn from_index(i: usize) -> StallCause {
        Self::ALL[i]
    }
}

/// One dispatched chunk, as seen by the simulated machine. Times are in
/// simulated cycles, relative to the start of the region's event loop
/// (i.e. excluding the serial prefix and fork costs, which precede it).
#[derive(Clone, Copy, Debug)]
pub struct ChunkEvent {
    /// Software thread that executed the chunk.
    pub thread: usize,
    /// Core the thread is placed on.
    pub core: usize,
    /// SMT slot within the core.
    pub smt_slot: usize,
    /// First iteration of the chunk.
    pub iter_start: usize,
    /// One past the last iteration.
    pub iter_end: usize,
    /// Sim-time the chunk was dispatched.
    pub start: f64,
    /// Sim-time the chunk completed.
    pub end: f64,
    /// Dominant attributed stall cause over the chunk's lifetime.
    pub cause: StallCause,
}

/// Cycles attributed to each stall cause, for one core (or any other
/// aggregation scope). Unlike the normalized [`crate::Bottleneck`], these
/// are raw attributed cycles: summed over all cores of a region they equal
/// the region's event-loop time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoreCounters {
    pub latency: f64,
    pub issue: f64,
    pub fpu: f64,
    pub l2_bandwidth: f64,
    pub dram_bandwidth: f64,
    pub atomics: f64,
    pub background: f64,
}

impl CoreCounters {
    /// Counter for one cause.
    pub fn get(&self, cause: StallCause) -> f64 {
        match cause {
            StallCause::Latency => self.latency,
            StallCause::Issue => self.issue,
            StallCause::Fpu => self.fpu,
            StallCause::L2Bandwidth => self.l2_bandwidth,
            StallCause::DramBandwidth => self.dram_bandwidth,
            StallCause::Atomics => self.atomics,
            StallCause::Background => self.background,
        }
    }

    pub(crate) fn add(&mut self, which: usize, w: f64) {
        match StallCause::from_index(which) {
            StallCause::Latency => self.latency += w,
            StallCause::Issue => self.issue += w,
            StallCause::Fpu => self.fpu += w,
            StallCause::L2Bandwidth => self.l2_bandwidth += w,
            StallCause::DramBandwidth => self.dram_bandwidth += w,
            StallCause::Atomics => self.atomics += w,
            StallCause::Background => self.background += w,
        }
    }

    /// Elementwise accumulate.
    pub(crate) fn accumulate(&mut self, o: &CoreCounters) {
        self.latency += o.latency;
        self.issue += o.issue;
        self.fpu += o.fpu;
        self.l2_bandwidth += o.l2_bandwidth;
        self.dram_bandwidth += o.dram_bandwidth;
        self.atomics += o.atomics;
        self.background += o.background;
    }

    /// Sum over all causes.
    pub fn total(&self) -> f64 {
        StallCause::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// All counters finite (never `inf`/`NaN`).
    pub fn is_finite(&self) -> bool {
        StallCause::ALL.iter().all(|&c| self.get(c).is_finite())
    }
}

/// Receiver of engine trace events. All methods have empty defaults, so a
/// sink implements only what it needs. One region produces exactly one
/// `region_start` … (`chunk`)* … `region_end` bracket, in sim-time order.
pub trait TraceSink {
    /// A region's event loop is about to run on `threads` software threads
    /// over `iters` iterations scheduled by `policy`.
    fn region_start(&mut self, threads: usize, iters: usize, policy: Policy) {
        let _ = (threads, iters, policy);
    }

    /// A chunk completed.
    fn chunk(&mut self, ev: &ChunkEvent) {
        let _ = ev;
    }

    /// The region finished. `per_core[c]` are the cycles attributed on
    /// core `c` (their grand total equals `loop_cycles`, the event-loop
    /// time); `region_cycles` additionally includes the serial prefix,
    /// fork and barrier costs.
    fn region_end(&mut self, per_core: &[CoreCounters], loop_cycles: f64, region_cycles: f64) {
        let _ = (per_core, loop_cycles, region_cycles);
    }
}

/// The no-op sink the untraced entry points are monomorphized with.
pub(crate) struct NullSink;

impl TraceSink for NullSink {}

/// Everything one region emitted, recorded in memory.
#[derive(Clone, Debug, Default)]
pub struct RegionTrace {
    pub threads: usize,
    pub iters: usize,
    pub policy: Option<Policy>,
    pub chunks: Vec<ChunkEvent>,
    pub per_core: Vec<CoreCounters>,
    /// Event-loop time of the region (what the counters sum to).
    pub loop_cycles: f64,
    /// Full region time including serial prefix, fork and barrier.
    pub region_cycles: f64,
    /// Request span this region was simulated under (0 = none): stamped
    /// from [`RecordingSink::span_id`] so serving-stack exports can tie a
    /// simulated region back to the request trace that ran it.
    pub span_id: u64,
}

impl RegionTrace {
    /// Counters summed over all cores.
    pub fn counter_totals(&self) -> CoreCounters {
        let mut t = CoreCounters::default();
        for c in &self.per_core {
            t.accumulate(c);
        }
        t
    }
}

/// A [`TraceSink`] that records every event in memory, region by region —
/// the building block for exporters and tests.
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    pub regions: Vec<RegionTrace>,
    /// Span id stamped into every region recorded from here on (0 = none).
    pub span_id: u64,
}

impl TraceSink for RecordingSink {
    fn region_start(&mut self, threads: usize, iters: usize, policy: Policy) {
        self.regions.push(RegionTrace {
            threads,
            iters,
            policy: Some(policy),
            span_id: self.span_id,
            ..Default::default()
        });
    }

    fn chunk(&mut self, ev: &ChunkEvent) {
        self.regions
            .last_mut()
            .expect("chunk before region_start")
            .chunks
            .push(*ev);
    }

    fn region_end(&mut self, per_core: &[CoreCounters], loop_cycles: f64, region_cycles: f64) {
        let r = self
            .regions
            .last_mut()
            .expect("region_end before region_start");
        r.per_core = per_core.to_vec();
        r.loop_cycles = loop_cycles;
        r.region_cycles = region_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_names_and_indices_roundtrip() {
        for (i, c) in StallCause::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(StallCause::from_index(i), c);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn recording_sink_stamps_span_ids() {
        let mut sink = RecordingSink {
            span_id: 0xfeed,
            ..RecordingSink::default()
        };
        sink.region_start(2, 10, Policy::Serial);
        sink.region_end(&[], 0.0, 0.0);
        assert_eq!(sink.regions[0].span_id, 0xfeed);
        let mut plain = RecordingSink::default();
        plain.region_start(1, 1, Policy::Serial);
        assert_eq!(plain.regions[0].span_id, 0);
    }

    #[test]
    fn counters_accumulate_and_total() {
        let mut a = CoreCounters::default();
        a.add(StallCause::Issue.index(), 2.0);
        a.add(StallCause::Latency.index(), 1.0);
        let mut b = CoreCounters::default();
        b.add(StallCause::Issue.index(), 3.0);
        a.accumulate(&b);
        assert_eq!(a.issue, 5.0);
        assert_eq!(a.get(StallCause::Issue), 5.0);
        assert!((a.total() - 6.0).abs() < 1e-12);
        assert!(a.is_finite());
        a.latency = f64::NAN;
        assert!(!a.is_finite());
    }
}
