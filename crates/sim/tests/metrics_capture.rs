//! Metrics capture in the engine: never perturbs the simulation, and the
//! scraped stall-cycle counters reproduce the telemetry Bottleneck
//! fractions. Observed runs happen inside `with_session`, which scopes
//! them to the test's own registry; the "off" legs run outside it.

use mic_sim::{
    simulate, simulate_region, simulate_region_telemetry, simulate_region_traced, simulate_traced,
    Machine, Policy, RecordingSink, Region, SimScratch, StallCause, Work,
};

fn mem_bound_region(n: usize) -> Region {
    let w = Work {
        issue: 5.0,
        dram: 1.0,
        ..Default::default()
    };
    Region::new(vec![w; n], Policy::OmpDynamic { chunk: 64 })
}

fn mixed_region(n: usize) -> Region {
    let iters: Vec<Work> = (0..n)
        .map(|i| Work {
            issue: 5.0 + (i % 7) as f64,
            l1: (i % 3) as f64,
            l2: 0.25 * (i % 2) as f64,
            dram: if i % 5 == 0 { 1.0 } else { 0.0 },
            flops: (i % 4) as f64,
            atomics: if i % 11 == 0 { 1.0 } else { 0.0 },
        })
        .collect();
    Region::new(iters, Policy::OmpGuided { min_chunk: 8 })
}

#[test]
fn metrics_on_is_bit_identical_to_metrics_off() {
    let m = Machine::knf();
    let r = mixed_region(8_000);
    let run = || {
        [1usize, 31, 61, 124]
            .map(|t| simulate_region(&m, t, &r).to_bits())
            .to_vec()
    };
    let off = run();
    let (on, _snap) = mic_metrics::with_session(run);
    assert_eq!(off, on, "metrics capture must not perturb the simulation");
}

#[test]
fn stall_cycle_metrics_reproduce_bottleneck_fractions() {
    let m = Machine::knf();
    for (region, threads) in [(mem_bound_region(20_000), 124), (mixed_region(12_000), 61)] {
        let ((cycles, b), snap) =
            mic_metrics::with_session(|| simulate_region_telemetry(&m, threads, &region));
        assert!(cycles > 0.0);
        assert_eq!(snap.value("mic_sim_runs_total", &[]), Some(1.0));
        let total: f64 = StallCause::ALL
            .iter()
            .map(|c| {
                snap.value("mic_sim_stall_cycles_total", &[("cause", c.name())])
                    .unwrap()
            })
            .sum();
        assert!(total > 0.0);
        for (name, frac) in b.components() {
            let v = snap
                .value("mic_sim_stall_cycles_total", &[("cause", name)])
                .unwrap();
            assert!(
                (v / total - frac).abs() < 1e-9,
                "{name}: metric fraction {} vs telemetry {frac}",
                v / total
            );
        }
        // The per-cause counters partition the loop-cycle counter.
        let loop_cycles = snap.value("mic_sim_loop_cycles_total", &[]).unwrap();
        assert!(
            (total - loop_cycles).abs() <= 1e-9 * loop_cycles,
            "stall cycles {total} vs loop cycles {loop_cycles}"
        );
        // Exactly one engine wall-time observation for one run.
        let h = snap.hist("mic_sim_engine_seconds", &[]).unwrap();
        assert_eq!(h.count, 1);
        assert!(snap.self_check().is_empty(), "{:?}", snap.self_check());
    }
}

#[test]
fn chunk_counter_agrees_with_trace_sink() {
    let m = Machine::knf();
    let r = mixed_region(6_000);
    // Five identical regions. Unobserved, `simulate` runs the engine once
    // and hands the cycles on; the result is what five separate runs
    // return.
    let regions = vec![r.clone(); 5];
    let alone = simulate_region(&m, 31, &r).to_bits();
    let rep = simulate(&m, 31, &regions);
    let bits: Vec<u64> = rep.region_cycles.iter().map(|c| c.to_bits()).collect();
    assert_eq!(bits, [alone; 5]);

    let ((), snap) = mic_metrics::with_session(|| {
        let mut sink = RecordingSink::default();
        let mut scratch = SimScratch::new();
        simulate_region_traced(&m, 31, &r, &mut scratch, &mut sink);
        let traced_chunks = sink.regions[0].chunks.len() as f64;
        let scraped = mic_metrics::snapshot();
        assert_eq!(
            scraped.value("mic_sim_chunks_total", &[]),
            Some(traced_chunks),
            "metrics and TraceSink must count the same chunks"
        );

        // Observed, the first region runs and the four repeats replay what
        // it recorded: each counter moves by the same delta, in the same
        // order, five times over, as five separate runs would move it.
        mic_metrics::reset();
        simulate_region(&m, 31, &r);
        let one = mic_metrics::snapshot();
        mic_metrics::reset();
        let observed = simulate(&m, 31, &regions);
        let five = mic_metrics::snapshot();
        assert_eq!(observed.cycles.to_bits(), rep.cycles.to_bits());
        assert_eq!(five.value("mic_sim_runs_total", &[]), Some(5.0));
        assert_eq!(
            five.value("mic_sim_chunks_total", &[]),
            Some(5.0 * traced_chunks)
        );
        let times_five = |name: &str, labels: &[(&str, &str)]| {
            let v = one.value(name, labels).unwrap();
            assert_eq!(
                five.value(name, labels),
                Some(v + v + v + v + v),
                "{name} {labels:?}"
            );
        };
        times_five("mic_sim_loop_cycles_total", &[]);
        for c in StallCause::ALL {
            times_five("mic_sim_stall_cycles_total", &[("cause", c.name())]);
        }
        // Host time is observed by the one real simulation only.
        assert_eq!(five.hist("mic_sim_engine_seconds", &[]).unwrap().count, 1);
        assert!(five.self_check().is_empty(), "{:?}", five.self_check());

        // A sink sees one start/end bracket, with all its chunks, per region.
        let mut sink = RecordingSink::default();
        let traced = simulate_traced(&m, 31, &regions, &mut scratch, &mut sink);
        assert_eq!(traced.cycles.to_bits(), rep.cycles.to_bits());
        assert_eq!(sink.regions.len(), 5);
        for reg in &sink.regions {
            assert_eq!(reg.chunks.len() as f64, traced_chunks);
            assert_eq!(reg.region_cycles.to_bits(), alone);
        }
    });
    assert!(snap.value("mic_sim_chunks_total", &[]).unwrap() > 0.0);
}

#[test]
fn empty_region_records_a_run_with_zero_chunks() {
    let m = Machine::knf();
    let r = Region::new(Vec::new(), Policy::OmpDynamic { chunk: 10 });
    let ((), snap) = mic_metrics::with_session(|| {
        simulate_region(&m, 8, &r);
    });
    assert_eq!(snap.value("mic_sim_runs_total", &[]), Some(1.0));
    assert_eq!(snap.value("mic_sim_chunks_total", &[]), Some(0.0));
}
