//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` is this file
//! rendered (`mic-perf spec`); a unit test keeps the two identical.

use mic_eval::exhibit::registry;
use mic_eval::json::Value;

/// Seconds one run measures (the contract's `run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// (name, why it exists).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "exhibits-cold",
        "fresh process per pass over all 21 exhibits at 1/8 scale: graph build, instrument, cache fill, engine and render all work",
    ),
    (
        "exhibits-warm",
        "same passes after the workload cache is full: isolates engine, Region pricing, sweep and render; graph and kernel changes must not move it",
    ),
    (
        "serve-compute",
        "every request a never-seen key at 1/16 scale, depth 1: decode, route, admit, queue, execute, LRU write, serialize; 0 % cache hits",
    ),
    (
        "serve-hot",
        "48 LRU-resident keys, 128 pipelined frames per write: frame codec, router, LRU read, socket; 100 % cache hits, engine idle",
    ),
    (
        "serve-store-warm",
        "4096 persisted keys cycled past the LRU after a reopen: every request an LRU miss and a store hit; populate, persist, recovery in setup",
    ),
];

pub const POLICIES: [&str; 7] = [
    "omp_static",
    "omp_dynamic",
    "omp_guided",
    "cilk",
    "tbb_simple",
    "tbb_auto",
    "tbb_affinity",
];

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, higher_is_better: bool, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better,
        bound,
    }
}

/// Every workload reports every one of these (the contract requires it);
/// README.md says which are native to a workload and which are the
/// reciprocal view.
///
/// One bound covers a metric on all five workloads, so it is set by the
/// noisiest: on the 2-vCPU KVM box this was built on, ten-run quartile
/// spreads reach 7 % (`wall_s`, `throughput_rps`), 11 % (p50), 16 % (p99)
/// and 11 % (peak RSS), and the medians of two ten-run sets half an hour
/// apart differed by up to 21 % (a noisy spell, then a quiet one). A bound
/// has to clear that or it rejects noise; 0.25 is the most the contract
/// allows. README.md has the table.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", false, Some(0.25)),
        def("wall_s", "s", false, Some(0.25)),
        def("throughput_rps", "1/s", true, Some(0.25)),
        def("latency_p50_ms", "ms", false, Some(0.25)),
        def("latency_p99_ms", "ms", false, Some(0.25)),
        def("peak_rss_mb", "MB", false, Some(0.25)),
    ]
}

pub fn per_layer() -> Vec<MetricDef> {
    let lower = |name: &str, unit| def(name, unit, false, None);
    let higher = |name: &str, unit| def(name, unit, true, None);
    let mut m = vec![
        // graph
        lower("graph.build_s", "s"),
        higher("graph.build_edges_per_s", "1/s"),
        lower("graph.reorder_s", "s"),
        // kernels
        lower("coloring.instrument_s", "s"),
        lower("bfs.instrument_s", "s"),
        lower("irregular.instrument_s", "s"),
        lower("pagerank.instrument_s", "s"),
        lower("components.instrument_s", "s"),
        lower("hybrid_bfs.instrument_s", "s"),
        higher("kernels.instrument_edges_per_s", "1/s"),
        // workload cache
        lower("workload_cache.miss_s", "s"),
        lower("workload_cache.hit_ns", "ns"),
        // sim
        lower("sim.prefix_ns_per_iter", "ns"),
        lower("sim.engine_ns_per_chunk", "ns"),
        lower("sim.traced_over_untraced", "ratio"),
    ];
    for p in POLICIES {
        m.push(lower(&format!("sim.engine_ns_per_iter.{p}"), "ns"));
    }
    for p in POLICIES {
        m.push(lower(&format!("sim.chunks.{p}"), "count"));
    }
    m.extend([
        // sweep / runtime
        lower("sweep.job_overhead_us", "us"),
        higher("sweep.parallel_speedup", "ratio"),
        lower("runtime.pool_region_us", "us"),
        lower("runtime.pool_spawn_us", "us"),
    ]);
    for id in registry().all_ids() {
        m.push(lower(&format!("exhibit.{id}.cold_s"), "s"));
        m.push(lower(&format!("exhibit.{id}.warm_s"), "s"));
    }
    m.extend([
        // frame / protocol
        lower("frame.encode_request_ns", "ns"),
        lower("frame.decode_request_ns", "ns"),
        lower("frame.encode_response_ns", "ns"),
        lower("frame.decode_response_ns", "ns"),
        lower("protocol.parse_request_ns", "ns"),
        lower("protocol.job_key_ns", "ns"),
        // router / server / lru
        lower("router.handle_frame_hit_ns", "ns"),
        lower("router.handle_frame_store_hit_ns", "ns"),
        lower("router.handle_frame_miss_us", "us"),
        lower("protocol.compute_us", "us"),
        lower("server.dispatch_overhead_us", "us"),
        lower("serve.transport_us", "us"),
        lower("lru.get_ns", "ns"),
        lower("lru.put_ns", "ns"),
        higher("server.received", "count"),
        higher("server.ok", "count"),
        lower("server.errors", "count"),
        lower("server.shed", "count"),
        higher("server.cache_hits", "count"),
        higher("server.store_hits", "count"),
        lower("server.executed", "count"),
        lower("server.batches", "count"),
        higher("server.coalesced", "count"),
        higher("server.cache_hit_ratio", "ratio"),
        higher("server.jobs_per_batch", "ratio"),
        // store
        lower("store.put_us", "us"),
        lower("store.get_hit_us", "us"),
        lower("store.get_miss_us", "us"),
        lower("store.persist_ms", "ms"),
        lower("store.open_ms", "ms"),
        lower("store.file_bytes_per_record", "count"),
        // telemetry
        lower("telemetry.exhibits_on_over_off", "ratio"),
        lower("telemetry.serve_on_over_off", "ratio"),
        lower("metrics.counter_inc_ns", "ns"),
        lower("obs.flight_record_ns", "ns"),
        lower("bench.tracing_overhead_ratio", "ratio"),
    ]);
    m
}

/// The `server.*` counters a serve child reports for its timed phase.
pub const SERVER_COUNTERS: [&str; 9] = [
    "received",
    "ok",
    "errors",
    "shed",
    "cache_hits",
    "store_hits",
    "executed",
    "batches",
    "coalesced",
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let strs = |v: &[&str]| Value::Arr(v.iter().map(|s| Value::str(*s)).collect());
    let metric = |d: &MetricDef| {
        let mut f = vec![
            ("name".to_string(), Value::str(d.name.clone())),
            ("unit".to_string(), Value::str(d.unit)),
            (
                "better".to_string(),
                Value::str(if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }),
            ),
        ];
        if let Some(b) = d.bound {
            f.push(("bound".to_string(), Value::Num(b)));
        }
        Value::Obj(f)
    };
    let fields = [
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Obj(vec![
                            ("name".into(), Value::str(*name)),
                            ("why".into(), Value::str(*why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(per_layer().iter().map(metric).collect()),
        ),
    ];
    // One top-level key per line: diffs of the file stay readable.
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {}", v.render()))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_fit_the_contract_and_are_used_once() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut seen = HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(e2e.iter().chain(&layers).map(|d| d.name.clone()))
        {
            assert!(name_ok(&name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate name {name:?}");
        }
        for d in e2e.iter().chain(&layers) {
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in &e2e {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        let setup = &e2e[0];
        assert_eq!((setup.name.as_str(), setup.unit), ("setup_s", "s"));
        assert!(!setup.higher_is_better);
        assert!(e2e.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn every_exhibit_and_policy_has_its_layer_metrics() {
        let names: HashSet<String> = per_layer().into_iter().map(|d| d.name).collect();
        assert_eq!(registry().all_ids().len(), 21);
        for id in registry().all_ids() {
            assert!(names.contains(&format!("exhibit.{id}.cold_s")));
            assert!(names.contains(&format!("exhibit.{id}.warm_s")));
        }
        for p in POLICIES {
            assert!(names.contains(&format!("sim.chunks.{p}")));
        }
        for c in SERVER_COUNTERS {
            assert!(names.contains(&format!("server.{c}")));
        }
    }

    #[test]
    fn benchmark_json_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `mic-perf spec > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        assert!(mic_eval::json::parse(&committed).is_ok());
    }
}
