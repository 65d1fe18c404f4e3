//! Contention microbenchmark for the lock-free hot-path structures:
//! throughput of the MPMC injector, the Chase–Lev deque, and the serve
//! admission path at 1..N threads, each against a faithful locked
//! baseline (the `Mutex<VecDeque>` designs they replaced).
//!
//! Usage: `contention [--threads N] [--ops N] [--check] [--out PATH]`
//!
//! - `--threads N` — largest thread count in the sweep (default 8; the
//!   sweep is 1, 2, 4, … up to N).
//! - `--ops N` — items moved through each structure per measurement
//!   (default 100000).
//! - `--out PATH` — where to write the JSON exhibit (default
//!   `BENCH_contention.json`).
//! - `--check` — validate conservation invariants (items in == items
//!   out on every run, retry counters sane) and exit nonzero on failure.
//!
//! Thread counts here are *total* participants (producers + consumers /
//! owner + thieves), so `--threads 8` exercises the structures the way
//! an 8-worker pool or an 8-client serve storm would. Every run counts
//! what it moved; the conservation check makes the benchmark double as a
//! stress test, which is why CI runs `contention --check` as a smoke
//! job.

use mic_bench::cli::Cli;
use mic_eval::runtime::{BoundedQueue, EventCount, Injector, Steal, WsDeque};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Version stamp for `BENCH_contention.json`.
const SCHEMA_VERSION: u64 = 1;

/// Admission bound for the admission-path exhibits (the serve default).
const QUEUE_CAP: usize = 64;

/// One measured configuration.
struct Sample {
    structure: &'static str,
    threads: usize,
    lockfree_ops_per_s: f64,
    locked_ops_per_s: f64,
    /// Items that crossed the lock-free structure (== ops when the
    /// conservation invariant holds).
    moved: u64,
    /// CAS retries the lock-free run accumulated (contention telemetry).
    retries: u64,
}

impl Sample {
    fn speedup(&self) -> f64 {
        if self.locked_ops_per_s > 0.0 {
            self.lockfree_ops_per_s / self.locked_ops_per_s
        } else {
            f64::NAN
        }
    }
}

/// items-moved + retry telemetry returned by each lock-free run.
struct RunOut {
    secs: f64,
    moved: u64,
    retries: u64,
}

/// Trials per measurement; throughput takes the fastest (scheduler noise
/// on small hosts only ever slows a run down, never speeds it up).
const TRIALS: usize = 3;

/// Best-of-[`TRIALS`] wrapper. Throughput is the fastest trial, but a
/// conservation violation in *any* trial is preserved in `moved` (and the
/// largest retry count in `retries`) so `--check` still sees it.
fn best_of<F: Fn() -> RunOut>(ops: u64, f: F) -> RunOut {
    let mut out = RunOut {
        secs: f64::INFINITY,
        moved: ops,
        retries: 0,
    };
    for _ in 0..TRIALS {
        let r = f();
        out.secs = out.secs.min(r.secs);
        if r.moved != ops {
            out.moved = r.moved;
        }
        out.retries = out.retries.max(r.retries);
    }
    out
}

// ---------------------------------------------------------------- injector

/// N threads, each publishing then stealing its share of `ops` items
/// through one shared injector — the engines' per-published-item traffic,
/// with every participant making progress (as in a real region: workers
/// that fail to steal have local work; nobody pure-spins).
fn run_injector(threads: usize, ops: u64) -> RunOut {
    let inj: Injector<u64> = Injector::new();
    let moved = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let inj = &inj;
            let moved = &moved;
            let share = ops / threads as u64 + u64::from(t == 0) * (ops % threads as u64);
            s.spawn(move || {
                for i in 0..share {
                    inj.push(i);
                    loop {
                        match inj.steal() {
                            Steal::Success(_) => {
                                moved.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            // Someone else consumed our item: that is
                            // still global progress; stop waiting.
                            Steal::Empty => break,
                            Steal::Retry => std::thread::yield_now(),
                        }
                    }
                }
            });
        }
    });
    // Anything left (picked up by nobody because a producer saw Empty
    // after a sibling consumed its item) drains here.
    loop {
        match inj.steal() {
            Steal::Success(_) => {
                moved.fetch_add(1, Ordering::Relaxed);
            }
            Steal::Empty => break,
            Steal::Retry => {}
        }
    }
    RunOut {
        secs: start.elapsed().as_secs_f64(),
        moved: moved.load(Ordering::Relaxed),
        retries: inj.retries(),
    }
}

/// The locked design the injector replaced, verbatim: a
/// `Mutex<VecDeque>` injector (blocking `lock` + poison
/// branch on push, `try_lock` surfacing `Retry` on steal) driven the way
/// the old engines drove it — every publish was preceded by an
/// occupancy probe under the lock (`if injector.is_empty() { publish }
/// else { keep local }`, and the probe cost its lock cycle on either
/// branch). The lock-free design needs no probe: spill decisions moved
/// to the owner's deque.
fn run_injector_locked(threads: usize, ops: u64) -> RunOut {
    let q: Mutex<VecDeque<u64>> = Mutex::new(VecDeque::new());
    let moved = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let q = &q;
            let moved = &moved;
            let share = ops / threads as u64 + u64::from(t == 0) * (ops % threads as u64);
            s.spawn(move || {
                for i in 0..share {
                    let hungry = q.lock().unwrap_or_else(|e| e.into_inner()).is_empty();
                    std::hint::black_box(hungry);
                    q.lock().unwrap_or_else(|e| e.into_inner()).push_back(i);
                    loop {
                        match q.try_lock() {
                            Ok(mut g) => {
                                // Success and Empty both end the attempt,
                                // as in the lock-free run.
                                if g.pop_front().is_some() {
                                    moved.fetch_add(1, Ordering::Relaxed);
                                }
                                break;
                            }
                            Err(std::sync::TryLockError::WouldBlock) => {
                                std::thread::yield_now(); // Steal::Retry
                            }
                            Err(std::sync::TryLockError::Poisoned(e)) => {
                                if e.into_inner().pop_front().is_some() {
                                    moved.fetch_add(1, Ordering::Relaxed);
                                }
                                break;
                            }
                        }
                    }
                }
            });
        }
    });
    while q
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .pop_front()
        .is_some()
    {
        moved.fetch_add(1, Ordering::Relaxed);
    }
    RunOut {
        secs: start.elapsed().as_secs_f64(),
        moved: moved.load(Ordering::Relaxed),
        retries: 0,
    }
}

// ------------------------------------------------------------------ deque

/// One owner pushing/popping `ops` items, `threads - 1` thieves stealing.
fn run_deque(threads: usize, ops: u64) -> RunOut {
    let d: WsDeque<u64> = WsDeque::new(256);
    let moved = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            let d = &d;
            let moved = &moved;
            let done = &done;
            s.spawn(move || loop {
                match d.steal() {
                    Steal::Success(_) => {
                        moved.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        if done.load(Ordering::Acquire) && d.is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
        let mut next = 0u64;
        while next < ops {
            // SAFETY: this thread is the deque's sole owner.
            match unsafe { d.push(next) } {
                Ok(()) => next += 1,
                Err(_) => {
                    if unsafe { d.pop() }.is_some() {
                        moved.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        while unsafe { d.pop() }.is_some() {
            moved.fetch_add(1, Ordering::Relaxed);
        }
        done.store(true, Ordering::Release);
    });
    RunOut {
        secs: start.elapsed().as_secs_f64(),
        moved: moved.load(Ordering::Relaxed),
        retries: d.retries(),
    }
}

/// Locked stand-in for the deque: owner and thieves share one mutexed
/// deque, owner at the back, thieves at the front.
fn run_deque_locked(threads: usize, ops: u64) -> RunOut {
    let d: Mutex<VecDeque<u64>> = Mutex::new(VecDeque::new());
    let moved = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            let d = &d;
            let moved = &moved;
            let done = &done;
            s.spawn(move || loop {
                let got = d.lock().unwrap().pop_front();
                match got {
                    Some(_) => {
                        moved.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        if done.load(Ordering::Acquire) && d.lock().unwrap().is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
        let mut next = 0u64;
        while next < ops {
            let mut q = d.lock().unwrap();
            if q.len() < 256 {
                q.push_back(next);
                next += 1;
            } else {
                let got = q.pop_back();
                drop(q);
                if got.is_some() {
                    moved.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        loop {
            let got = d.lock().unwrap().pop_back();
            if got.is_some() {
                moved.fetch_add(1, Ordering::Relaxed);
            } else {
                break;
            }
        }
        done.store(true, Ordering::Release);
    });
    RunOut {
        secs: start.elapsed().as_secs_f64(),
        moved: moved.load(Ordering::Relaxed),
        retries: 0,
    }
}

// -------------------------------------------------------------- admission

/// The serve admission path: `threads - 1` producers claim a depth ticket
/// against `QUEUE_CAP` (over → shed, retry after yielding) and push onto
/// the bounded ring; one consumer drains in batches, parking on an
/// event-count when idle — exactly the dispatcher/executor split.
fn run_admission(threads: usize, ops: u64) -> RunOut {
    let q: BoundedQueue<u64> = BoundedQueue::new(QUEUE_CAP);
    let depth = AtomicUsize::new(0);
    let wake = EventCount::new();
    let consumed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let producers = (threads - 1).max(1) as u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        let consumer_q = &q;
        let consumer_depth = &depth;
        let consumer_wake = &wake;
        let consumer_consumed = &consumed;
        let consumer_stop = &stop;
        s.spawn(move || loop {
            consumer_wake
                .park_until(|| consumer_stop.load(Ordering::Acquire) || !consumer_q.is_empty());
            while consumer_q.pop().is_some() {
                consumer_depth.fetch_sub(1, Ordering::AcqRel);
                consumer_consumed.fetch_add(1, Ordering::Relaxed);
            }
            if consumer_stop.load(Ordering::Acquire) && consumer_q.is_empty() {
                break;
            }
        });
        std::thread::scope(|inner| {
            for t in 0..producers {
                let q = &q;
                let depth = &depth;
                let wake = &wake;
                let share = ops / producers + u64::from(t == 0) * (ops % producers);
                inner.spawn(move || {
                    for i in 0..share {
                        loop {
                            let ticket = depth.fetch_add(1, Ordering::AcqRel);
                            if ticket >= QUEUE_CAP {
                                depth.fetch_sub(1, Ordering::AcqRel);
                                std::thread::yield_now(); // shed: back off
                                continue;
                            }
                            q.push(i).expect("ring sized above ticket bound");
                            wake.notify();
                            break;
                        }
                    }
                });
            }
        });
        stop.store(true, Ordering::Release);
        wake.notify();
    });
    RunOut {
        secs: start.elapsed().as_secs_f64(),
        moved: consumed.load(Ordering::Relaxed),
        retries: q.retries(),
    }
}

/// The locked design the admission path replaced: one mutex guarding the
/// queue with the cap checked under it, a condvar waking the consumer —
/// the old dispatcher verbatim.
fn run_admission_locked(threads: usize, ops: u64) -> RunOut {
    let q: Mutex<VecDeque<u64>> = Mutex::new(VecDeque::new());
    let wake = Condvar::new();
    let consumed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let producers = (threads - 1).max(1) as u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        let cq = &q;
        let cwake = &wake;
        let cconsumed = &consumed;
        let cstop = &stop;
        s.spawn(move || loop {
            let mut guard = cq.lock().unwrap();
            while guard.is_empty() && !cstop.load(Ordering::Acquire) {
                guard = cwake.wait(guard).unwrap();
            }
            while guard.pop_front().is_some() {
                cconsumed.fetch_add(1, Ordering::Relaxed);
            }
            let empty = guard.is_empty();
            drop(guard);
            if cstop.load(Ordering::Acquire) && empty {
                break;
            }
        });
        std::thread::scope(|inner| {
            for t in 0..producers {
                let q = &q;
                let wake = &wake;
                let share = ops / producers + u64::from(t == 0) * (ops % producers);
                inner.spawn(move || {
                    for i in 0..share {
                        loop {
                            let mut guard = q.lock().unwrap();
                            if guard.len() >= QUEUE_CAP {
                                drop(guard);
                                std::thread::yield_now(); // shed: back off
                                continue;
                            }
                            guard.push_back(i);
                            drop(guard);
                            wake.notify_one();
                            break;
                        }
                    }
                });
            }
        });
        stop.store(true, Ordering::Release);
        wake.notify_all();
    });
    RunOut {
        secs: start.elapsed().as_secs_f64(),
        moved: consumed.load(Ordering::Relaxed),
        retries: 0,
    }
}

// ------------------------------------------------------------------- main

fn render_json(samples: &[Sample], ops: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!(
        "  \"build\": \"{}\",\n",
        mic_eval::buildinfo::stamp()
    ));
    out.push_str("  \"bench\": \"contention\",\n");
    out.push_str(&format!("  \"ops\": {ops},\n"));
    out.push_str("  \"exhibits\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"structure\": \"{}\", \"threads\": {}, \"lockfree_ops_per_s\": {:.0}, \
             \"locked_ops_per_s\": {:.0}, \"speedup\": {:.3}, \"moved\": {}, \"retries\": {}}}{comma}\n",
            s.structure,
            s.threads,
            s.lockfree_ops_per_s,
            s.locked_ops_per_s,
            s.speedup(),
            s.moved,
            s.retries,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut cli = Cli::parse(
        "contention",
        "contention [--threads N] [--ops N] [--check] [--out PATH]",
    );
    let max_threads = cli.threads(8);
    let ops: u64 = cli
        .opt_parse("--ops", "a positive integer")
        .unwrap_or(100_000);
    let check = cli.check();
    let out = cli
        .out()
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_contention.json"));
    cli.done();

    let mut thread_counts = Vec::new();
    let mut t = 1;
    while t <= max_threads {
        thread_counts.push(t);
        t *= 2;
    }
    if *thread_counts.last().unwrap() != max_threads {
        thread_counts.push(max_threads);
    }

    let mut samples = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    println!("structure     threads   lock-free ops/s      locked ops/s   speedup   retries");
    for &threads in &thread_counts {
        let configs: [(&'static str, RunOut, RunOut); 3] = [
            (
                "injector",
                best_of(ops, || run_injector(threads, ops)),
                best_of(ops, || run_injector_locked(threads, ops)),
            ),
            (
                "deque",
                best_of(ops, || run_deque(threads, ops)),
                best_of(ops, || run_deque_locked(threads, ops)),
            ),
            (
                "admission",
                best_of(ops, || run_admission(threads, ops)),
                best_of(ops, || run_admission_locked(threads, ops)),
            ),
        ];
        for (structure, free, locked) in configs {
            // Conservation: every item pushed must come out, on both sides.
            if free.moved != ops {
                failures.push(format!(
                    "{structure}/{threads}t lock-free moved {} of {ops}",
                    free.moved
                ));
            }
            if locked.moved != ops {
                failures.push(format!(
                    "{structure}/{threads}t locked moved {} of {ops}",
                    locked.moved
                ));
            }
            // Retry counters must stay sane (a runaway would approach the
            // counter range long before it wrapped).
            if free.retries > ops.saturating_mul(10_000) {
                failures.push(format!(
                    "{structure}/{threads}t retry counter implausible: {}",
                    free.retries
                ));
            }
            let sample = Sample {
                structure,
                threads,
                lockfree_ops_per_s: ops as f64 / free.secs,
                locked_ops_per_s: ops as f64 / locked.secs,
                moved: free.moved,
                retries: free.retries,
            };
            println!(
                "{structure:<12} {threads:>8} {:>17.0} {:>17.0} {:>8.2}x {:>9}",
                sample.lockfree_ops_per_s,
                sample.locked_ops_per_s,
                sample.speedup(),
                sample.retries,
            );
            samples.push(sample);
        }
    }

    let json = render_json(&samples, ops);
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            std::process::exit(1);
        }
    }

    if check {
        if failures.is_empty() {
            println!(
                "check: all conservation invariants held across {} run(s)",
                samples.len() * 2 * TRIALS
            );
        } else {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
