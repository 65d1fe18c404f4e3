//! The fluid discrete-event engine.
//!
//! Threads are placed scatter-style (thread *i* on core *i* mod `cores`,
//! matching how the paper spreads software threads over the card). Each
//! running chunk has a *composition* (issue cycles, FPU cycles, stall
//! cycles) and advances at a rate set, between events, by proportional
//! sharing of the bottleneck resource among its demanders:
//!
//! - per-core issue bandwidth (1 op/cycle; a lone thread is further slowed
//!   by the in-order issue penalty),
//! - per-core FPU occupancy,
//! - chip-wide L2/ring bandwidth,
//! - chip-wide DRAM bandwidth,
//! - the serialized shared-line "atomic" service rate.
//!
//! Memory *latency* is private to a thread (an in-order thread simply
//! stalls), so it contributes to the chunk's nominal duration but not to
//! any shared demand — which is exactly why SMT hides it: four stalled
//! threads on a core make four misses in flight where one thread makes one.
//!
//! Events are chunk completions; at each event the finishing thread asks
//! its scheduler cursor for the next chunk (plus the policy's dispatch
//! overhead) and rates are recomputed. A region ends when every thread is
//! out of work, plus a barrier; a simulation is a sequence of regions.

use crate::machine::Machine;
use crate::sched::Cursor;
use crate::trace::{ChunkEvent, CoreCounters, NullSink, StallCause, TraceSink};
use crate::work::{Priced, Region, Work};
use mic_metrics::{Counter, Histogram};
use std::sync::Arc;

/// Result of simulating a sequence of regions.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total cycles, including forks, barriers and serial prefixes.
    pub cycles: f64,
    /// Cycles per region, same order as the input.
    pub region_cycles: Vec<f64>,
}

/// Where the simulated time of a region went: the fraction of
/// thread-cycles for which each resource was the binding constraint.
/// Sums to ~1. The figures' plateaus become self-explanatory with this —
/// e.g. natural-order coloring at 121 threads is `l2_bandwidth`-bound,
/// shuffled is `latency`-bound (which SMT hides), iter-10 irregular is
/// `fpu`-bound.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bottleneck {
    /// Not slowed by any shared resource: memory/ALU latency of the chunk
    /// itself (the SMT-friendly regime).
    pub latency: f64,
    /// Per-core issue bandwidth saturated.
    pub issue: f64,
    /// Per-core FPU saturated.
    pub fpu: f64,
    /// Chip-wide L2/ring bandwidth saturated.
    pub l2_bandwidth: f64,
    /// Chip-wide DRAM bandwidth saturated.
    pub dram_bandwidth: f64,
    /// Serialized shared-line (atomic) service saturated.
    pub atomics: f64,
    /// Runtime background coherence traffic dominating.
    pub background: f64,
}

impl Bottleneck {
    /// `(name, fraction)` pairs in declaration order (the order of
    /// [`StallCause::ALL`]).
    pub fn components(&self) -> [(&'static str, f64); 7] {
        [
            ("latency", self.latency),
            ("issue", self.issue),
            ("fpu", self.fpu),
            ("l2_bandwidth", self.l2_bandwidth),
            ("dram_bandwidth", self.dram_bandwidth),
            ("atomics", self.atomics),
            ("background", self.background),
        ]
    }

    /// The dominant constraint's name.
    pub fn dominant(&self) -> &'static str {
        self.components()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| n)
            .unwrap_or("latency")
    }

    /// All fractions finite (never `inf`/`NaN`).
    pub fn is_finite(&self) -> bool {
        self.components().into_iter().all(|(_, v)| v.is_finite())
    }

    fn add(&mut self, which: usize, w: f64) {
        match which {
            0 => self.latency += w,
            1 => self.issue += w,
            2 => self.fpu += w,
            3 => self.l2_bandwidth += w,
            4 => self.dram_bandwidth += w,
            5 => self.atomics += w,
            _ => self.background += w,
        }
    }
}

const EPS: f64 = 1e-9;

/// A running thread: its chunk and what follows from it on dispatch.
#[derive(Default)]
struct Slot {
    /// Software thread id; slots are kept in ascending `id` order.
    id: usize,
    core: usize,
    comp: Priced,
    /// Remaining fraction of the current chunk (`<= EPS` once retired).
    frac: f64,
    /// Nominal (uncontended) duration of the chunk.
    t0: f64,
    slow: f64,
    /// Demand rates `comp.x / t0`: issue, fpu, dram, l2, atomic service.
    rate: [f64; 5],
}

impl Slot {
    /// Derive `t0` and the demand rates from `comp`; `solo`: alone on its core.
    fn reprice(&mut self, m: &Machine, solo: bool) {
        let (pen_i, pen_s) = if solo {
            (m.single_thread_issue_penalty, m.single_thread_stall_penalty)
        } else {
            (1.0, 1.0)
        };
        // In-order pipeline: issue (possibly penalized) overlaps with
        // FPU execution; stalls serialize.
        let c = self.comp;
        let t0 = ((c.issue * pen_i).max(c.fpu) + c.stall * pen_s).max(EPS);
        self.t0 = t0;
        self.rate = [
            c.issue / t0,
            c.fpu / t0,
            c.dram / t0,
            c.l2 / t0,
            c.atomics * m.atomic_service / t0,
        ];
    }
}

/// Per-core state: running threads, their summed issue and FPU demand,
/// and σ_core = max(issue_d, fpu_d, 1).
#[derive(Clone, Default)]
struct Core {
    occ: usize,
    issue_d: f64,
    fpu_d: f64,
    sigma: f64,
}

/// `slot_of` entry of a thread that is not running.
const IDLE: usize = usize::MAX;

/// Reusable buffers for the event loop. One `SimScratch`, passed to the
/// `*_with_scratch` entry points, makes repeated simulations (thread-grid
/// sweeps, figure regeneration) allocation-free after the first region.
#[derive(Default)]
pub struct SimScratch {
    /// The running threads only, densely, in ascending thread id.
    slots: Vec<Slot>,
    /// Hardware thread → its index in `slots`, or [`IDLE`].
    slot_of: Vec<usize>,
    cores: Vec<Core>,
    /// Cores with stale demand sums, one entry per redispatch or vacated
    /// core. A repeated core is re-added again, harmlessly: 1 472 of the
    /// 5.8 M re-adds over `all --scale 8`.
    touched: Vec<usize>,
    /// Cores whose occupancy changed since their slots were last priced,
    /// each listed once: every core before a region's first event, then
    /// the cores a retire left.
    vacated: Vec<usize>,
    /// Per-thread scheduler state (see [`Cursor::next`]).
    taken: Vec<usize>,
}

impl SimScratch {
    pub fn new() -> SimScratch {
        SimScratch::default()
    }

    /// Size every buffer for `m` with no thread running, and mark every
    /// core vacated so the first event derives every slot and core.
    fn reset(&mut self, m: &Machine) {
        self.slots.clear();
        self.slot_of.clear();
        self.slot_of.resize(m.hw_threads(), IDLE);
        self.cores.clear();
        self.cores.resize(m.cores, Core::default());
        self.touched.clear();
        self.vacated.clear();
        self.vacated.extend(0..m.cores);
    }

    /// Re-add core `c`'s issue and FPU demand over its running threads, in
    /// ascending thread id from `0.0`: the order the per-event sums over
    /// all threads always had, so the totals keep their bits.
    fn resum_core(&mut self, m: &Machine, c: usize) {
        let (mut issue, mut fpu) = (0.0f64, 0.0f64);
        for smt in 0..m.smt_per_core {
            let k = self.slot_of[m.thread_at(c, smt)];
            if k != IDLE {
                issue += self.slots[k].rate[0];
                fpu += self.slots[k].rate[1];
            }
        }
        let core = &mut self.cores[c];
        (core.issue_d, core.fpu_d, core.sigma) = (issue, fpu, issue.max(fpu).max(1.0));
    }
}

/// Simulate one parallel region on `threads` software threads.
///
/// ```
/// use mic_sim::{simulate_region, Machine, Policy, Region, Work};
/// let m = Machine::knf();
/// // A memory-latency-bound loop: SMT keeps scaling past the core count.
/// let w = Work { issue: 5.0, dram: 1.0, ..Default::default() };
/// let r = Region::new(vec![w; 50_000], Policy::OmpDynamic { chunk: 100 });
/// let s = simulate_region(&m, 1, &r) / simulate_region(&m, 124, &r);
/// assert!(s > 100.0);
/// ```
///
/// # Panics
/// Panics if `threads` is zero or exceeds the machine's hardware threads
/// (the paper never oversubscribes the card).
pub fn simulate_region(m: &Machine, threads: usize, region: &Region) -> f64 {
    let metrics = SimMetrics::current();
    let scratch = &mut SimScratch::default();
    simulate_region_impl::<NullSink>(m, threads, region, None, scratch, None, metrics.as_ref()).0
}

/// Like [`simulate_region`], reusing caller-owned scratch buffers so the
/// call allocates nothing.
pub fn simulate_region_with_scratch(
    m: &Machine,
    threads: usize,
    region: &Region,
    scratch: &mut SimScratch,
) -> f64 {
    let metrics = SimMetrics::current();
    simulate_region_impl::<NullSink>(m, threads, region, None, scratch, None, metrics.as_ref()).0
}

/// Like [`simulate_region`], but also reports where the time went.
pub fn simulate_region_telemetry(
    m: &Machine,
    threads: usize,
    region: &Region,
) -> (f64, Bottleneck) {
    let mut b = Bottleneck::default();
    let (c, _) = simulate_region_impl::<NullSink>(
        m,
        threads,
        region,
        Some(&mut b),
        &mut SimScratch::default(),
        None,
        SimMetrics::current().as_ref(),
    );
    (c, b)
}

/// Like [`simulate_region_with_scratch`], emitting per-chunk events and
/// per-core counter aggregates into `sink` (see [`crate::trace`]). The
/// returned cycle count is identical to the untraced entry points — the
/// sink observes the simulation, it never perturbs it.
pub fn simulate_region_traced<S: TraceSink>(
    m: &Machine,
    threads: usize,
    region: &Region,
    scratch: &mut SimScratch,
    sink: &mut S,
) -> f64 {
    let metrics = SimMetrics::current();
    simulate_region_impl(
        m,
        threads,
        region,
        None,
        scratch,
        Some(sink),
        metrics.as_ref(),
    )
    .0
}

/// Per-thread chunk bookkeeping for the traced path; allocated only when a
/// sink is attached (empty otherwise), so the untraced path allocates nothing.
#[derive(Clone, Copy, Default)]
struct ChunkTrack {
    start: f64,
    lo: usize,
    hi: usize,
    acc: [f64; 7],
}

impl ChunkTrack {
    fn begin(start: f64, r: std::ops::Range<usize>) -> ChunkTrack {
        ChunkTrack {
            start,
            lo: r.start,
            hi: r.end,
            acc: [0.0; 7],
        }
    }
}

/// What one region's simulation recorded into the metrics registry, kept
/// so that a repeat of the region records it again without re-running.
#[derive(Clone, Copy, Debug, Default)]
struct Observed {
    stalls: [f64; 7],
    chunks: u64,
    loop_cycles: f64,
}

/// The engine's metric handles, resolved once per `simulate*` call rather
/// than once per region.
struct SimMetrics {
    runs: Arc<Counter>,
    chunks: Arc<Counter>,
    loop_cycles: Arc<Counter>,
    stalls: [Arc<Counter>; 7],
    seconds: Arc<Histogram>,
}

impl SimMetrics {
    /// The handles, if the calling thread's metrics capture is on.
    fn current() -> Option<SimMetrics> {
        use mic_metrics::counter;
        mic_metrics::enabled().then(|| SimMetrics {
            runs: counter(
                "mic_sim_runs_total",
                "Engine region simulations completed",
                &[],
            ),
            chunks: counter(
                "mic_sim_chunks_total",
                "Chunks dispatched by the simulated schedulers",
                &[],
            ),
            loop_cycles: counter(
                "mic_sim_loop_cycles_total",
                "Simulated event-loop cycles (sum of all stall-cycle causes)",
                &[],
            ),
            stalls: StallCause::ALL.map(|cause| {
                counter(
                    "mic_sim_stall_cycles_total",
                    "Simulated cycles attributed to each binding constraint",
                    &[("cause", cause.name())],
                )
            }),
            seconds: mic_metrics::histogram(
                "mic_sim_engine_seconds",
                "Host wall time per engine region simulation",
                &[],
                &mic_metrics::seconds_buckets(),
            ),
        })
    }
}

/// Simulate one region; with `metrics` (capture on), also record what it
/// observed and return that.
fn simulate_region_impl<S: TraceSink>(
    m: &Machine,
    threads: usize,
    region: &Region,
    mut telemetry: Option<&mut Bottleneck>,
    scratch: &mut SimScratch,
    mut trace: Option<&mut S>,
    metrics: Option<&SimMetrics>,
) -> (f64, Option<Observed>) {
    m.validate();
    assert!(threads >= 1, "need at least one thread");
    assert!(
        threads <= m.hw_threads(),
        "{threads} threads exceed {} hardware threads",
        m.hw_threads()
    );

    // Metrics capture: one relaxed load decides, and the accumulators are
    // plain stack scalars, so the disabled path stays allocation-free and
    // bit-identical (the attribution math below never feeds back into the
    // simulated clock).
    let metrics_on = metrics.is_some();
    let metrics_t0 = metrics_on.then(std::time::Instant::now);
    let mut observed = Observed::default();

    let mut cycles = 0.0;

    // Serial prefix, executed by one thread alone on its core.
    if region.serial_pre != Work::default() {
        cycles += solo_time(m, &Priced::price(&region.serial_pre, m));
    }

    let n = region.len();
    if let Some(sink) = trace.as_deref_mut() {
        sink.region_start(threads, n, region.policy);
    }
    if n == 0 {
        if let Some(sink) = trace.as_deref_mut() {
            sink.region_end(&[], 0.0, cycles);
        }
        return (cycles, metrics.map(|h| observed.record(h, metrics_t0)));
    }

    // Trace-side bookkeeping, allocated only on the traced path.
    let mut tr_chunks: Vec<ChunkTrack> = Vec::new();
    let mut tr_cores: Vec<CoreCounters> = Vec::new();
    if trace.is_some() {
        tr_chunks.resize(threads, ChunkTrack::default());
        tr_cores.resize(m.cores, CoreCounters::default());
    }

    // Fork + join costs only exist when a team is actually running; a
    // persistent team (region.fork == false) pays only the barrier.
    if threads > 1 {
        if region.fork {
            cycles += m.fork_base;
        }
        cycles += m.barrier_base
            + m.barrier_log * (threads as f64).log2()
            + m.barrier_per_thread * threads as f64;
    }

    // Prefix sums for O(1) chunk aggregation, built once per work array
    // and cached on the region (shared by clones and policy variants).
    let prefix = std::sync::Arc::clone(region.prefix_sums());
    let overhead = region.policy.chunk_overhead(m);
    let price = |r: &std::ops::Range<usize>| -> Priced {
        Priced::price(&prefix[r.end].sub(&prefix[r.start]).add(&overhead), m)
    };

    let mut cursor = Cursor::new(region.policy, n, threads, &mut scratch.taken);
    // Runtime background coherence traffic: a global slowdown floor that
    // grows with oversubscription (see `Policy::background_coeff`).
    let sigma_bg =
        1.0 + region.policy.background_coeff(m) * (threads * threads) as f64 / m.cores as f64;

    // Initial dispatch.
    scratch.reset(m);
    for i in 0..threads {
        if let Some(r) = cursor.next(i, &mut scratch.taken) {
            let core = m.core_of(i);
            scratch.cores[core].occ += 1;
            scratch.slots.push(Slot {
                id: i,
                core,
                comp: price(&r),
                frac: 1.0,
                ..Slot::default()
            });
            observed.chunks += 1;
            if let Some(tc) = tr_chunks.get_mut(i) {
                *tc = ChunkTrack::begin(0.0, r);
            }
        }
    }

    let mut now = 0.0f64;

    while !scratch.slots.is_empty() {
        // A retire in the last event (or the first event, where every core
        // is vacated): the survivors moved in `slots`, and on a vacated
        // core a lone-thread penalty may have flipped, so its slots are
        // re-priced and its sums re-added. A core whose occupancy did not
        // change keeps its bits: `reprice` depends only on `comp` and solo.
        if !scratch.vacated.is_empty() {
            for (k, s) in scratch.slots.iter().enumerate() {
                scratch.slot_of[s.id] = k;
            }
            while let Some(c) = scratch.vacated.pop() {
                let solo = scratch.cores[c].occ == 1;
                for smt in 0..m.smt_per_core {
                    let k = scratch.slot_of[m.thread_at(c, smt)];
                    if k != IDLE {
                        scratch.slots[k].reprice(m, solo);
                    }
                }
                scratch.touched.push(c);
            }
        }
        while let Some(c) = scratch.touched.pop() {
            scratch.resum_core(m, c);
        }
        // Chip-wide shared-resource demands, summed in thread order.
        let (mut dram_d, mut l2_d, mut atomic_d) = (0.0f64, 0.0f64, 0.0f64);
        for s in scratch.slots.iter() {
            dram_d += s.rate[2];
            l2_d += s.rate[3];
            atomic_d += s.rate[4];
        }
        let sigma_dram = dram_d / m.dram_lines_per_cycle;
        let sigma_l2 = l2_d / m.l2_lines_per_cycle;
        let sigma_global = sigma_dram
            .max(sigma_l2)
            .max(atomic_d)
            .max(sigma_bg)
            .max(1.0);
        // Completion horizon per thread.
        let mut dt = f64::INFINITY;
        for s in scratch.slots.iter_mut() {
            s.slow = scratch.cores[s.core].sigma.max(sigma_global);
            dt = dt.min(s.frac * s.t0 * s.slow);
        }
        debug_assert!(dt.is_finite() && dt >= 0.0);
        // Attribute this interval to each running thread's binding
        // constraint (argmax of its slowdown sources).
        if telemetry.is_some() || trace.is_some() || metrics_on {
            // A degenerate horizon carries no attributable time; guard the
            // division so the telemetry can never go `inf`/`NaN`.
            let w = if dt.is_finite() {
                dt / scratch.slots.len() as f64
            } else {
                0.0
            };
            debug_assert!(w.is_finite(), "telemetry weight dt={dt}");
            // The argmax of the six slowdown sources, ties going to the
            // later one: the four chip-wide sources are folded once per
            // event, then each thread's core's two against them.
            let later_max = |a: (usize, f64), b: (usize, f64)| {
                if b.1.total_cmp(&a.1).is_ge() {
                    b
                } else {
                    a
                }
            };
            let chip = later_max((3, sigma_l2), (4, sigma_dram));
            let chip = later_max(later_max(chip, (5, atomic_d)), (6, sigma_bg));
            let binding = |core: &Core| {
                let own = later_max((1, core.issue_d), (2, core.fpu_d));
                let (which, best) = later_max(own, chip);
                // Nothing shared is meaningfully saturated: the chunk runs
                // at its own (latency-dominated) pace.
                if best <= 1.05 {
                    0
                } else {
                    which
                }
            };
            // Every thread on a core has that core's binding constraint, and
            // each cause's sum takes `w` once per thread, in any order: so
            // the sums are attributed per occupied core, with the same bits.
            for core in scratch.cores.iter().filter(|c| c.occ > 0) {
                let which = binding(core);
                for _ in 0..core.occ {
                    if let Some(tele) = telemetry.as_deref_mut() {
                        tele.add(which, w);
                    }
                    if metrics_on {
                        observed.stalls[which] += w;
                    }
                }
            }
            if trace.is_some() {
                for s in scratch.slots.iter() {
                    let which = binding(&scratch.cores[s.core]);
                    tr_chunks[s.id].acc[which] += w;
                    tr_cores[s.core].add(which, w);
                }
            }
        }
        now += dt;
        // Advance and redispatch finished threads.
        for s in scratch.slots.iter_mut() {
            s.frac -= dt / (s.t0 * s.slow);
            if s.frac > EPS {
                continue;
            }
            if let Some(sink) = trace.as_deref_mut() {
                let tc = &tr_chunks[s.id];
                let cause = tc
                    .acc
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| StallCause::from_index(c))
                    .unwrap_or(StallCause::Latency);
                sink.chunk(&ChunkEvent {
                    thread: s.id,
                    core: s.core,
                    smt_slot: m.slot_of(s.id),
                    iter_start: tc.lo,
                    iter_end: tc.hi,
                    start: tc.start,
                    end: now,
                    cause,
                });
            }
            match cursor.next(s.id, &mut scratch.taken) {
                Some(r) => {
                    s.comp = price(&r);
                    s.frac = 1.0;
                    // (A core-mate retiring later in this pass redoes this.)
                    s.reprice(m, scratch.cores[s.core].occ == 1);
                    scratch.touched.push(s.core);
                    observed.chunks += 1;
                    if let Some(tc) = tr_chunks.get_mut(s.id) {
                        *tc = ChunkTrack::begin(now, r);
                    }
                }
                None => {
                    scratch.cores[s.core].occ -= 1;
                    scratch.slot_of[s.id] = IDLE;
                    if !scratch.vacated.contains(&s.core) {
                        scratch.vacated.push(s.core);
                    }
                }
            }
        }
        if !scratch.vacated.is_empty() {
            scratch.slots.retain(|s| s.frac > EPS);
        }
    }

    if let Some(sink) = trace {
        debug_assert!(tr_cores.iter().all(CoreCounters::is_finite));
        sink.region_end(&tr_cores, now, cycles + now);
    }

    if let Some(tele) = telemetry {
        let total = tele.latency
            + tele.issue
            + tele.fpu
            + tele.l2_bandwidth
            + tele.dram_bandwidth
            + tele.atomics
            + tele.background;
        if total > 0.0 {
            tele.latency /= total;
            tele.issue /= total;
            tele.fpu /= total;
            tele.l2_bandwidth /= total;
            tele.dram_bandwidth /= total;
            tele.atomics /= total;
            tele.background /= total;
        }
        debug_assert!(tele.is_finite(), "non-finite telemetry: {tele:?}");
    }

    observed.loop_cycles = now;
    (
        cycles + now,
        metrics.map(|h| observed.record(h, metrics_t0)),
    )
}

impl Observed {
    /// Add one region's metrics to the registry: a simulated region's, with
    /// its host time since `t0`, or a replayed repeat's (`t0` is `None`).
    /// The stall-cycle counters are the *unnormalized* bottleneck
    /// attribution — their per-cause fractions of `mic_sim_loop_cycles_total`
    /// equal the [`Bottleneck`] fractions the telemetry path reports
    /// (checked to 1e-9 by `--bin metrics --check`).
    fn record(self, h: &SimMetrics, t0: Option<std::time::Instant>) -> Observed {
        h.runs.inc();
        h.chunks.add(self.chunks as f64);
        h.loop_cycles.add(self.loop_cycles);
        for (cause, counter) in StallCause::ALL.iter().zip(&h.stalls) {
            counter.add(self.stalls[cause.index()]);
        }
        if let Some(t0) = t0 {
            h.seconds.observe(t0.elapsed().as_secs_f64());
        }
        self
    }
}

/// Time for one thread, alone on its core, to execute `p`.
fn solo_time(m: &Machine, p: &Priced) -> f64 {
    (p.issue * m.single_thread_issue_penalty).max(p.fpu) + p.stall * m.single_thread_stall_penalty
}

/// Simulate a sequence of regions (levels, rounds, phases) back to back.
pub fn simulate(m: &Machine, threads: usize, regions: &[Region]) -> SimReport {
    simulate_with_scratch(m, threads, regions, &mut SimScratch::default())
}

/// Like [`simulate`], reusing caller-owned scratch across every region.
///
/// A region equal to the one just simulated (every PageRank iteration,
/// every label-propagation round) takes that region's cycles: the engine is
/// a pure function. With metrics capture on, the repeat also records again
/// what that simulation recorded, except its host time.
pub fn simulate_with_scratch(
    m: &Machine,
    threads: usize,
    regions: &[Region],
    scratch: &mut SimScratch,
) -> SimReport {
    let mut region_cycles = Vec::with_capacity(regions.len());
    let metrics = SimMetrics::current().filter(|_| !regions.is_empty());
    let mut prev: Option<(&Region, f64, Option<Observed>)> = None;
    for r in regions {
        let (cycles, observed) = match prev {
            Some((p, cycles, observed)) if r.same_as(p) => (
                cycles,
                observed
                    .zip(metrics.as_ref())
                    .map(|(o, h)| o.record(h, None)),
            ),
            _ => simulate_region_impl::<NullSink>(
                m,
                threads,
                r,
                None,
                scratch,
                None,
                metrics.as_ref(),
            ),
        };
        prev = Some((r, cycles, observed));
        region_cycles.push(cycles);
    }
    SimReport {
        cycles: region_cycles.iter().sum(),
        region_cycles,
    }
}

/// Like [`simulate_with_scratch`], emitting one `region_start` … `region_end`
/// trace bracket per region into `sink`. Cycle counts are identical to the
/// untraced path.
pub fn simulate_traced<S: TraceSink>(
    m: &Machine,
    threads: usize,
    regions: &[Region],
    scratch: &mut SimScratch,
    sink: &mut S,
) -> SimReport {
    let metrics = SimMetrics::current().filter(|_| !regions.is_empty());
    let region_cycles: Vec<f64> = regions
        .iter()
        .map(|r| simulate_region_impl(m, threads, r, None, scratch, Some(sink), metrics.as_ref()).0)
        .collect();
    SimReport {
        cycles: region_cycles.iter().sum(),
        region_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Policy;

    /// Per-thread state of the reference loop below.
    struct ThreadSim {
        core: usize,
        frac: f64,
        comp: Priced,
        running: bool,
    }

    fn uniform_region(n: usize, w: Work, policy: Policy) -> Region {
        Region::new(vec![w; n], policy)
    }

    fn mem_bound() -> Work {
        // A shuffled-graph edge visit: a little issue work, a DRAM miss.
        Work {
            issue: 5.0,
            dram: 1.0,
            ..Default::default()
        }
    }

    fn issue_bound() -> Work {
        Work {
            issue: 50.0,
            l1: 2.0,
            ..Default::default()
        }
    }

    fn flop_bound() -> Work {
        Work {
            issue: 12.0,
            l1: 4.0,
            flops: 10.0,
            ..Default::default()
        }
    }

    fn speedup(m: &Machine, region: &Region, t: usize) -> f64 {
        let base = simulate_region(m, 1, region);
        base / simulate_region(m, t, region)
    }

    #[test]
    fn single_thread_time_matches_solo_formula() {
        let m = Machine::knf();
        let w = mem_bound();
        let n = 1000;
        let r = uniform_region(n, w, Policy::OmpStatic { chunk: None });
        let cycles = simulate_region(&m, 1, &r);
        let p = Priced::price(&w, &m);
        let expected =
            solo_time(&m, &p) * n as f64 + m.sched.static_chunk * m.single_thread_issue_penalty;
        // One chunk of n iterations + its dispatch overhead.
        assert!(
            (cycles - expected).abs() / expected < 0.01,
            "cycles {cycles} vs expected {expected}"
        );
    }

    #[test]
    fn smt_hides_memory_latency() {
        // Memory-bound work must keep scaling past one thread per core:
        // 124 threads ≈ 4x the 31-thread speedup.
        let m = Machine::knf();
        // Plenty of chunks per thread so dispatch quantization is noise.
        let r = uniform_region(200_000, mem_bound(), Policy::OmpDynamic { chunk: 100 });
        let s31 = speedup(&m, &r, 31);
        let s124 = speedup(&m, &r, 124);
        assert!(s31 > 25.0, "31-thread speedup {s31}");
        assert!(s124 > 3.0 * s31, "SMT should keep scaling: {s124} vs {s31}");
        assert!(
            s124 >= 115.0,
            "memory-bound speedup should be ~linear, got {s124}"
        );
    }

    #[test]
    fn issue_bound_work_saturates_at_core_count_times_penalty() {
        // Pure issue work: a core saturates at 1 op/cycle with >= 2
        // threads; a single thread runs at 1/penalty. So the speedup cap
        // is cores * penalty, and 4 SMT threads add nothing over 2.
        let m = Machine::knf();
        let r = uniform_region(20_000, issue_bound(), Policy::OmpDynamic { chunk: 100 });
        let s62 = speedup(&m, &r, 62);
        let s124 = speedup(&m, &r, 124);
        let cap = m.cores as f64 * m.single_thread_issue_penalty;
        assert!(s62 < cap * 1.05);
        assert!(s124 < cap * 1.05);
        assert!(
            (s124 - s62).abs() < 0.15 * s62,
            "SMT beyond 2/core should not help issue-bound work"
        );
    }

    #[test]
    fn fpu_contention_limits_smt_gain() {
        // Flop-heavy work saturates the shared FPU: 4 threads/core barely
        // beat 2 threads/core, unlike memory-bound work.
        let m = Machine::knf();
        let r = uniform_region(20_000, flop_bound(), Policy::OmpDynamic { chunk: 100 });
        let s62 = speedup(&m, &r, 62);
        let s124 = speedup(&m, &r, 124);
        let mem = uniform_region(20_000, mem_bound(), Policy::OmpDynamic { chunk: 100 });
        let gain_flop = s124 / s62;
        let gain_mem = speedup(&m, &mem, 124) / speedup(&m, &mem, 62);
        assert!(
            gain_flop < gain_mem * 0.75,
            "flop gain {gain_flop} vs mem gain {gain_mem}"
        );
    }

    #[test]
    fn work_conservation() {
        // Simulated time can never beat the aggregate issue capacity.
        let m = Machine::knf();
        let n = 50_000;
        let w = issue_bound();
        let r = uniform_region(n, w, Policy::OmpDynamic { chunk: 64 });
        let cycles = simulate_region(&m, 124, &r);
        let min_possible = n as f64 * w.issue / m.cores as f64;
        assert!(cycles >= min_possible, "{cycles} < floor {min_possible}");
    }

    #[test]
    fn more_threads_never_catastrophically_slower() {
        let m = Machine::knf();
        let r = uniform_region(10_000, mem_bound(), Policy::OmpDynamic { chunk: 100 });
        let mut prev = simulate_region(&m, 1, &r);
        for t in [11, 31, 61, 121] {
            let c = simulate_region(&m, t, &r);
            assert!(c <= prev * 1.05, "time went up from {prev} to {c} at t={t}");
            prev = c;
        }
    }

    #[test]
    fn dynamic_beats_static_on_skewed_work() {
        // Front-loaded work: static splits assign the heavy half to the
        // first threads; dynamic balances.
        let m = Machine::knf();
        let mut iters = vec![
            Work {
                issue: 200.0,
                ..Default::default()
            };
            2_000
        ];
        iters.extend(vec![
            Work {
                issue: 5.0,
                ..Default::default()
            };
            18_000
        ]);
        let st = Region::new(iters.clone(), Policy::OmpStatic { chunk: None });
        let dy = Region::new(iters, Policy::OmpDynamic { chunk: 100 });
        let c_static = simulate_region(&m, 62, &st);
        let c_dynamic = simulate_region(&m, 62, &dy);
        assert!(
            c_dynamic < c_static,
            "dynamic {c_dynamic} vs static {c_static}"
        );
    }

    #[test]
    fn heavier_runtimes_pay_more_at_scale() {
        // Same kernel under OpenMP-dynamic vs Cilk: Cilk's per-leaf cost
        // (issue + shared-line ops) must show up at high thread counts.
        let m = Machine::knf();
        let w = Work {
            issue: 8.0,
            l1: 2.0,
            l2: 0.3,
            ..Default::default()
        };
        let omp = uniform_region(50_000, w, Policy::OmpDynamic { chunk: 100 });
        let cilk = uniform_region(50_000, w, Policy::Cilk { grain: 100 });
        let s_omp = speedup(&m, &omp, 121);
        let s_cilk = speedup(&m, &cilk, 121);
        assert!(
            s_omp > s_cilk,
            "OpenMP {s_omp} should beat Cilk {s_cilk} at 121 threads"
        );
    }

    #[test]
    fn empty_region_costs_only_serial_prefix() {
        let m = Machine::knf();
        let r = Region::new(Vec::new(), Policy::OmpDynamic { chunk: 10 }).with_serial_pre(Work {
            issue: 100.0,
            ..Default::default()
        });
        let c = simulate_region(&m, 124, &r);
        assert!(
            (c - 200.0).abs() < 1e-6,
            "serial prefix alone, penalized: {c}"
        );
    }

    #[test]
    fn multi_region_report_sums() {
        let m = Machine::knf();
        let r1 = uniform_region(1000, mem_bound(), Policy::OmpDynamic { chunk: 50 });
        let r2 = uniform_region(500, issue_bound(), Policy::OmpStatic { chunk: None });
        let rep = simulate(&m, 31, &[r1, r2]);
        assert_eq!(rep.region_cycles.len(), 2);
        assert!((rep.cycles - rep.region_cycles.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn rejects_oversubscription() {
        let m = Machine::knf();
        let r = uniform_region(10, mem_bound(), Policy::Serial);
        simulate_region(&m, 125, &r);
    }

    #[test]
    fn compact_placement_hurts_compute_bound_low_thread_counts() {
        // 16 threads compute-bound: scatter gives 16 cores' issue slots,
        // compact squeezes them onto 4 cores.
        let mut compact = Machine::knf();
        compact.placement = crate::machine::Placement::Compact;
        let scatter = Machine::knf();
        let r = uniform_region(50_000, issue_bound(), Policy::OmpDynamic { chunk: 100 });
        let c_scatter = simulate_region(&scatter, 16, &r);
        let c_compact = simulate_region(&compact, 16, &r);
        // Scatter: 16 solo cores at half issue rate each (penalty 2.0)
        // ~ 108 cycles/item-group; compact: 4 saturated cores ~ 200.
        assert!(
            c_compact > 1.5 * c_scatter,
            "compact {c_compact} should trail scatter {c_scatter} on compute-bound work"
        );
    }

    #[test]
    fn knc_projection_extends_scaling() {
        // The projected 60-core part should outrun the 31-core prototype
        // on a memory-bound kernel at full tilt.
        let knf = Machine::knf();
        let knc = Machine::knc_projection();
        let r = uniform_region(200_000, mem_bound(), Policy::OmpDynamic { chunk: 100 });
        let knf_best = simulate_region(&knf, 124, &r);
        let knc_best = simulate_region(&knc, 240, &r);
        // Not the full 124/240 ratio: at 240 threads the dynamic/100
        // dispatch counter itself starts to serialize — a real projection
        // of why finer-grained schedules need rethinking at KNC scale.
        assert!(
            knc_best < 0.75 * knf_best,
            "KNC {knc_best} vs KNF {knf_best}"
        );
    }

    #[test]
    fn telemetry_identifies_the_right_bottleneck() {
        let m = Machine::knf();
        // Memory-latency-bound at full SMT: latency dominates.
        let mem = uniform_region(100_000, mem_bound(), Policy::OmpDynamic { chunk: 100 });
        let (_, b) = simulate_region_telemetry(&m, 124, &mem);
        assert_eq!(b.dominant(), "latency", "{b:?}");
        // Flop-heavy at full SMT: the shared FPU dominates.
        let flop = uniform_region(100_000, flop_bound(), Policy::OmpDynamic { chunk: 100 });
        let (_, b) = simulate_region_telemetry(&m, 124, &flop);
        assert_eq!(b.dominant(), "fpu", "{b:?}");
        // L2-heavy traffic saturates the ring.
        let l2w = Work {
            issue: 4.0,
            l2: 3.0,
            ..Default::default()
        };
        let ring = uniform_region(100_000, l2w, Policy::OmpDynamic { chunk: 100 });
        let (_, b) = simulate_region_telemetry(&m, 124, &ring);
        assert_eq!(b.dominant(), "l2_bandwidth", "{b:?}");
    }

    #[test]
    fn telemetry_fractions_normalized_and_cycles_match() {
        let m = Machine::knf();
        let r = uniform_region(20_000, mem_bound(), Policy::OmpDynamic { chunk: 64 });
        let plain = simulate_region(&m, 61, &r);
        let (with_tele, b) = simulate_region_telemetry(&m, 61, &r);
        assert!((plain - with_tele).abs() < 1e-6);
        let total = b.latency
            + b.issue
            + b.fpu
            + b.l2_bandwidth
            + b.dram_bandwidth
            + b.atomics
            + b.background;
        assert!((total - 1.0).abs() < 1e-9, "{b:?}");
    }

    /// The event loop exactly as the engine shipped before the prefix
    /// cache and scratch reuse: per-call prefix build, per-event demand
    /// vectors. Kept verbatim so the refactored path can be checked
    /// bit-for-bit against it.
    fn reference_simulate_region(m: &Machine, threads: usize, region: &Region) -> f64 {
        m.validate();
        assert!(threads >= 1 && threads <= m.hw_threads());

        let mut cycles = 0.0;
        if region.serial_pre != Work::default() {
            cycles += solo_time(m, &Priced::price(&region.serial_pre, m));
        }
        let n = region.len();
        if n == 0 {
            return cycles;
        }
        if threads > 1 {
            if region.fork {
                cycles += m.fork_base;
            }
            cycles += m.barrier_base
                + m.barrier_log * (threads as f64).log2()
                + m.barrier_per_thread * threads as f64;
        }

        let mut prefix: Vec<Work> = Vec::with_capacity(n + 1);
        prefix.push(Work::default());
        for w in region.iter_work.to_vec().iter() {
            let last = *prefix.last().unwrap();
            prefix.push(last.add(w));
        }
        let range_work = |lo: usize, hi: usize| -> Work {
            let (a, b) = (prefix[lo], prefix[hi]);
            Work {
                issue: b.issue - a.issue,
                l1: b.l1 - a.l1,
                l2: b.l2 - a.l2,
                dram: b.dram - a.dram,
                flops: b.flops - a.flops,
                atomics: b.atomics - a.atomics,
            }
        };

        let mut taken = Vec::new();
        let mut cursor = Cursor::new(region.policy, n, threads, &mut taken);
        let overhead = region.policy.chunk_overhead(m);
        let sigma_bg =
            1.0 + region.policy.background_coeff(m) * (threads * threads) as f64 / m.cores as f64;

        let mut ts: Vec<ThreadSim> = (0..threads)
            .map(|i| ThreadSim {
                core: m.core_of(i),
                frac: 0.0,
                comp: Priced::default(),
                running: false,
            })
            .collect();
        let mut core_occ = vec![0usize; m.cores];

        let mut active = 0usize;
        for i in 0..threads {
            if let Some(r) = cursor.next(i, &mut taken) {
                let w = range_work(r.start, r.end).add(&overhead);
                ts[i].comp = Priced::price(&w, m);
                ts[i].frac = 1.0;
                ts[i].running = true;
                core_occ[ts[i].core] += 1;
                active += 1;
            }
        }

        let mut now = 0.0f64;
        let mut t0 = vec![0.0f64; threads];
        let mut slow = vec![1.0f64; threads];

        while active > 0 {
            for (i, t) in ts.iter().enumerate() {
                if !t.running {
                    continue;
                }
                let (pen_i, pen_s) = if core_occ[t.core] == 1 {
                    (m.single_thread_issue_penalty, m.single_thread_stall_penalty)
                } else {
                    (1.0, 1.0)
                };
                let compute = (t.comp.issue * pen_i).max(t.comp.fpu);
                t0[i] = (compute + t.comp.stall * pen_s).max(EPS);
            }
            let mut issue_d = vec![0.0f64; m.cores];
            let mut fpu_d = vec![0.0f64; m.cores];
            let mut dram_d = 0.0f64;
            let mut l2_d = 0.0f64;
            let mut atomic_d = 0.0f64;
            for (i, t) in ts.iter().enumerate() {
                if !t.running {
                    continue;
                }
                issue_d[t.core] += t.comp.issue / t0[i];
                fpu_d[t.core] += t.comp.fpu / t0[i];
                dram_d += t.comp.dram / t0[i];
                l2_d += t.comp.l2 / t0[i];
                atomic_d += t.comp.atomics * m.atomic_service / t0[i];
            }
            let sigma_dram = dram_d / m.dram_lines_per_cycle;
            let sigma_l2 = l2_d / m.l2_lines_per_cycle;
            let sigma_global = sigma_dram
                .max(sigma_l2)
                .max(atomic_d)
                .max(sigma_bg)
                .max(1.0);
            let mut dt = f64::INFINITY;
            for (i, t) in ts.iter().enumerate() {
                if !t.running {
                    continue;
                }
                let sigma_core = issue_d[t.core].max(fpu_d[t.core]).max(1.0);
                slow[i] = sigma_core.max(sigma_global);
                dt = dt.min(t.frac * t0[i] * slow[i]);
            }
            now += dt;
            for i in 0..threads {
                if !ts[i].running {
                    continue;
                }
                ts[i].frac -= dt / (t0[i] * slow[i]);
                if ts[i].frac <= EPS {
                    match cursor.next(i, &mut taken) {
                        Some(r) => {
                            let w = range_work(r.start, r.end).add(&overhead);
                            ts[i].comp = Priced::price(&w, m);
                            ts[i].frac = 1.0;
                        }
                        None => {
                            ts[i].running = false;
                            core_occ[ts[i].core] -= 1;
                            active -= 1;
                        }
                    }
                }
            }
        }

        cycles + now
    }

    const ALL_POLICIES: [Policy; 9] = [
        Policy::Serial,
        Policy::OmpStatic { chunk: None },
        Policy::OmpStatic { chunk: Some(16) },
        Policy::OmpDynamic { chunk: 100 },
        Policy::OmpGuided { min_chunk: 8 },
        Policy::Cilk { grain: 100 },
        Policy::TbbSimple { grain: 40 },
        Policy::TbbAuto,
        Policy::TbbAffinity,
    ];

    /// The fresh-scratch, reused-scratch and traced entry points must all
    /// return *exactly* the reference loop's cycles for `(m, t, r)`.
    fn assert_matches_reference(m: &Machine, t: usize, r: &Region, scratch: &mut SimScratch) {
        let what = format!(
            "{} {:?} {:?} n={} t={t}",
            m.name,
            m.placement,
            r.policy,
            r.len()
        );
        let expect = reference_simulate_region(m, t, r);
        let fresh = simulate_region(m, t, r);
        let reused = simulate_region_with_scratch(m, t, r, scratch);
        let mut sink = crate::trace::RecordingSink::default();
        let traced = simulate_region_traced(m, t, r, scratch, &mut sink);
        for (path, got) in [("fresh", fresh), ("reused", reused), ("traced", traced)] {
            assert_eq!(
                expect.to_bits(),
                got.to_bits(),
                "{what}: {path}-scratch path diverged: {expect} vs {got}"
            );
        }
    }

    #[test]
    fn cached_prefix_and_scratch_bit_identical_to_seed_path() {
        // Every policy × several thread counts × heterogeneous work: the
        // cached-prefix, scratch-reusing engine must return *exactly* the
        // seed path's cycles — same operations in the same order.
        let m = Machine::knf();
        let mut iters = Vec::new();
        for i in 0..4_000usize {
            iters.push(Work {
                issue: 5.0 + (i % 7) as f64,
                l1: (i % 3) as f64,
                l2: 0.25 * (i % 2) as f64,
                dram: if i % 5 == 0 { 1.0 } else { 0.0 },
                flops: (i % 4) as f64,
                atomics: if i % 11 == 0 { 1.0 } else { 0.0 },
            });
        }
        let mut scratch = SimScratch::new();
        for policy in ALL_POLICIES {
            let r = Region::new(iters.clone(), policy).with_serial_pre(Work {
                issue: 20.0,
                ..Default::default()
            });
            for t in [1usize, 2, 11, 31, 62, 121, 124] {
                assert_matches_reference(&m, t, &r, &mut scratch);
            }
        }
    }

    #[test]
    fn core_bound_work_and_retiring_threads_bit_identical_to_seed_path() {
        // The work above is stall-dominated: σ_core stays 1.0, so a wrong
        // per-core demand sum goes unnoticed. Here issue- and flop-bound
        // iterations make the per-core sums bind, and front-loaded work
        // under cyclic static chunks makes threads run dry while their
        // core-mates keep dispatching, on every machine and placement,
        // with one scratch carried across all of them.
        let iters: Vec<Work> = (0..3_000usize)
            .map(|i| {
                let w = match i % 3 {
                    0 => issue_bound(),
                    1 => flop_bound(),
                    _ => mem_bound(),
                };
                let skew = if i < 300 { 8.0 } else { 1.0 };
                w.scale(skew * (1.0 + (i % 5) as f64 / 4.0))
            })
            .collect();
        let mut compact = Machine::knf();
        compact.placement = crate::machine::Placement::Compact;
        let machines: [(Machine, &[usize]); 4] = [
            (Machine::knf(), &[1, 2, 32, 62, 63, 93, 121, 124]),
            (compact, &[2, 4, 5, 16, 62, 123]),
            (Machine::xeon_host(), &[1, 12, 13, 24]),
            (Machine::knc_projection(), &[60, 61, 121, 240]),
        ];
        let policies = ALL_POLICIES
            .into_iter()
            .chain([Policy::OmpStatic { chunk: Some(7) }]);
        let mut scratch = SimScratch::new();
        for policy in policies {
            let full = Region::new(iters.clone(), policy);
            // Fewer iterations than threads: most threads never start.
            let tiny = Region::new(iters[..40].to_vec(), policy);
            for (m, grid) in &machines {
                for &t in *grid {
                    assert_matches_reference(m, t, &full, &mut scratch);
                    assert_matches_reference(m, t, &tiny, &mut scratch);
                }
            }
        }
    }

    #[test]
    fn retires_rederive_only_vacated_cores_bit_identical_to_seed_path() {
        // Compact placement packs 4 SMT siblings per core, so a retire
        // changes a core whose other threads keep running.
        let mut compact = Machine::knf();
        compact.placement = crate::machine::Placement::Compact;
        let policy = Policy::OmpStatic { chunk: None };
        let block = 200;
        let ends = |m: &Machine, t: usize, r: &Region, scratch: &mut SimScratch| {
            let mut sink = crate::trace::RecordingSink::default();
            simulate_region_traced(m, t, r, scratch, &mut sink);
            let mut ends: Vec<(usize, f64)> = sink.regions[0]
                .chunks
                .iter()
                .map(|ev| (ev.core, ev.end))
                .collect();
            ends.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            ends
        };
        let mut scratch = SimScratch::new();

        // Staggered: thread k's block is (k % 4 + 1)× as heavy, so a
        // core's threads retire one at a time and the last runs on alone —
        // its solo penalty flips while the others have gone.
        let iters: Vec<Work> = (0..8 * block)
            .map(|i| issue_bound().scale((i / block % 4 + 1) as f64))
            .collect();
        let staggered = Region::new(iters, policy);
        let e = ends(&compact, 8, &staggered, &mut scratch);
        assert!(
            e.windows(2).all(|w| w[0] != w[1]),
            "retires not staggered: {e:?}"
        );
        assert_matches_reference(&compact, 8, &staggered, &mut scratch);
        // Four threads on core 0, two on core 1, blocks no longer aligned
        // with the weights.
        assert_matches_reference(&compact, 6, &staggered, &mut scratch);

        // Uniform: the last event retires every slot at once. The same
        // scratch then runs other thread counts (at 5, one thread alone on
        // core 1 from the start) and another machine, so no vacated mark
        // may leak from one run into the next.
        let uniform = uniform_region(8 * block, issue_bound(), policy);
        let e = ends(&compact, 8, &uniform, &mut scratch);
        assert!(e.iter().all(|&(_, end)| end == e[0].1), "{e:?}");
        for (m, t) in [(&compact, 8), (&compact, 5), (&Machine::xeon_host(), 13)] {
            assert_matches_reference(m, t, &uniform, &mut scratch);
            assert_matches_reference(m, t, &staggered, &mut scratch);
        }
    }

    #[test]
    fn repeated_regions_take_the_previous_cycles_exactly() {
        // Consecutive identical regions take the first one's cycles; a
        // neighbour differing in policy, serial prefix, fork flag or work
        // array identity is simulated on its own. (Nothing in this test
        // binary turns metrics on, so the reuse branch is what runs.)
        let m = Machine::knf();
        let r = uniform_region(3_000, flop_bound(), Policy::OmpDynamic { chunk: 64 });
        let regions = [
            r.clone(),
            r.clone(),
            r.with_policy(Policy::OmpGuided { min_chunk: 8 }),
            r.clone().with_serial_pre(mem_bound()),
            r.clone().persistent(),
            r.clone(),
            Region::new(r.iter_work.to_vec(), r.policy),
            uniform_region(0, mem_bound(), r.policy),
            uniform_region(0, mem_bound(), r.policy),
        ];
        let same: Vec<bool> = regions.windows(2).map(|w| w[1].same_as(&w[0])).collect();
        assert_eq!(
            same,
            [true, false, false, false, false, false, false, false]
        );
        let mut scratch = SimScratch::new();
        for t in [1usize, 62, 121] {
            let rep = simulate_with_scratch(&m, t, &regions, &mut scratch);
            assert_eq!(rep.region_cycles.len(), regions.len());
            for (i, (r, c)) in regions.iter().zip(&rep.region_cycles).enumerate() {
                let alone = reference_simulate_region(&m, t, r);
                assert_eq!(alone.to_bits(), c.to_bits(), "t={t} region {i}");
            }
            let total: f64 = rep.region_cycles.iter().sum();
            assert_eq!(total.to_bits(), rep.cycles.to_bits());
        }
    }

    #[test]
    fn trace_chunks_cover_iterations_exactly_once() {
        let m = Machine::knf();
        for policy in [
            Policy::OmpStatic { chunk: Some(16) },
            Policy::OmpDynamic { chunk: 100 },
            Policy::OmpGuided { min_chunk: 8 },
            Policy::Cilk { grain: 64 },
            Policy::TbbAffinity,
            Policy::Serial,
        ] {
            let n = 4_321;
            let r = uniform_region(n, mem_bound(), policy);
            let mut sink = crate::trace::RecordingSink::default();
            let mut scratch = SimScratch::new();
            simulate_region_traced(&m, 61, &r, &mut scratch, &mut sink);
            assert_eq!(sink.regions.len(), 1);
            let reg = &sink.regions[0];
            assert_eq!((reg.threads, reg.iters), (61, n));
            assert_eq!(reg.policy, Some(policy));
            let mut seen = vec![false; n];
            for ev in &reg.chunks {
                assert!(ev.start >= 0.0 && ev.end >= ev.start, "{policy:?}: {ev:?}");
                assert!(ev.end <= reg.loop_cycles * (1.0 + 1e-9));
                assert_eq!(ev.core, m.core_of(ev.thread));
                assert_eq!(ev.smt_slot, m.slot_of(ev.thread));
                for (i, s) in seen[ev.iter_start..ev.iter_end].iter_mut().enumerate() {
                    assert!(
                        !std::mem::replace(s, true),
                        "{policy:?}: dup {}",
                        ev.iter_start + i
                    );
                }
            }
            assert!(seen.into_iter().all(|s| s), "{policy:?}: iterations missed");
        }
    }

    #[test]
    fn trace_counters_sum_to_loop_time_and_match_telemetry() {
        let m = Machine::knf();
        let r = uniform_region(20_000, flop_bound(), Policy::OmpDynamic { chunk: 64 });
        let mut sink = crate::trace::RecordingSink::default();
        let mut scratch = SimScratch::new();
        let cycles = simulate_region_traced(&m, 121, &r, &mut scratch, &mut sink);
        let (tele_cycles, b) = simulate_region_telemetry(&m, 121, &r);
        assert_eq!(cycles.to_bits(), tele_cycles.to_bits());
        let reg = &sink.regions[0];
        assert_eq!(reg.per_core.len(), m.cores);
        assert_eq!(reg.region_cycles.to_bits(), cycles.to_bits());
        let totals = reg.counter_totals();
        assert!(totals.is_finite());
        // The counters are the *unnormalized* bottleneck attribution: their
        // grand total is the event-loop time, and their fractions are the
        // `why`-style breakdown.
        let sum = totals.total();
        assert!(
            (sum - reg.loop_cycles).abs() <= 1e-6 * reg.loop_cycles,
            "counter total {sum} vs loop cycles {}",
            reg.loop_cycles
        );
        for (cause, (name, frac)) in crate::trace::StallCause::ALL.iter().zip(b.components()) {
            assert_eq!(cause.name(), name);
            assert!(
                (totals.get(*cause) / sum - frac).abs() < 1e-9,
                "{name}: counters disagree with telemetry"
            );
        }
    }

    #[test]
    fn empty_region_still_brackets_trace() {
        let m = Machine::knf();
        let r = Region::new(Vec::new(), Policy::OmpDynamic { chunk: 10 }).with_serial_pre(Work {
            issue: 100.0,
            ..Default::default()
        });
        let mut sink = crate::trace::RecordingSink::default();
        let c = simulate_region_traced(&m, 8, &r, &mut SimScratch::new(), &mut sink);
        assert_eq!(sink.regions.len(), 1);
        let reg = &sink.regions[0];
        assert!(reg.chunks.is_empty() && reg.per_core.is_empty());
        assert_eq!(reg.loop_cycles, 0.0);
        assert_eq!(reg.region_cycles.to_bits(), c.to_bits());
    }

    #[test]
    fn prefix_cache_shared_across_policy_variants() {
        let r = Region::new(vec![mem_bound(); 100], Policy::OmpDynamic { chunk: 10 });
        let p1 = std::sync::Arc::clone(r.prefix_sums());
        let variant = r.with_policy(Policy::Cilk { grain: 5 });
        assert!(
            std::sync::Arc::ptr_eq(&p1, variant.prefix_sums()),
            "policy variants must share the prefix cache"
        );
        let clone = r.clone();
        assert!(std::sync::Arc::ptr_eq(&p1, clone.prefix_sums()));
        assert_eq!(p1.len(), 101);
        // A region over a different work array gets its own cache.
        let other = Region::new(vec![mem_bound(); 100], Policy::OmpDynamic { chunk: 10 });
        assert!(!std::sync::Arc::ptr_eq(&p1, other.prefix_sums()));
    }

    #[test]
    fn barrier_cost_hurts_many_small_regions() {
        // 200 tiny regions (a deep BFS) vs one big region of the same
        // total work: the fragmented version must be slower at high t.
        let m = Machine::knf();
        let w = mem_bound();
        let small: Vec<Region> = (0..200)
            .map(|_| uniform_region(50, w, Policy::OmpDynamic { chunk: 8 }))
            .collect();
        let big = uniform_region(10_000, w, Policy::OmpDynamic { chunk: 8 });
        let frag = simulate(&m, 121, &small).cycles;
        let mono = simulate_region(&m, 121, &big);
        assert!(
            frag > 1.5 * mono,
            "fragmentation should cost barriers: {frag} vs {mono}"
        );
    }
}
