//! The per-layer probes: one fresh child process that calls each layer of
//! the program directly, through public functions only, with the inputs
//! the workloads give it, and reports each layer's unit cost.
//!
//! A probe is a span round the calls into one layer; the metric is the
//! span's time (or time per operation). Probes do not depend on which
//! workload a traced run belongs to — they say what each layer costs on
//! this build, so a change in an end-to-end metric can be traced to the
//! layer that moved.

use crate::catalogue::POLICIES;
use crate::exhibits::{self, SCALE};
use crate::keys::{self, Stream};
use crate::report::ChildReport;
use crate::serve::{Compute, Conn, CACHED_SCALE, HOT_KEYS};
use crate::spans::Tracer;
use crate::stats;
use mic_eval::bfs::components::instrument_components;
use mic_eval::bfs::direction::{instrument_hybrid, Hybrid};
use mic_eval::bfs::instrument::{instrument as bfs_instrument, SimVariant};
use mic_eval::bfs::seq::table1_source;
use mic_eval::coloring::instrument::instrument as coloring_instrument;
use mic_eval::graph::ordering::{self, Ordering};
use mic_eval::graph::stats::LocalityWindows;
use mic_eval::graph::suite::{self, PaperGraph};
use mic_eval::graph::Csr;
use mic_eval::irregular::instrument::{instrument as irregular_instrument, instrument_pagerank};
use mic_eval::obs::{self, flight};
use mic_eval::runtime::ThreadPool;
use mic_eval::sim::{
    simulate_traced, simulate_with_scratch, ChunkEvent, Machine, Policy, RecordingSink, Region,
    SimScratch, TraceSink,
};
use mic_eval::sweep;
use mic_eval::workload_cache::{self, OrderTag};
use mic_serve::frame;
use mic_serve::lru::ShardedLru;
use mic_serve::protocol::{Request, Response, SimMeta};
use mic_serve::server::{ServeOpts, Server};
use mic_store::{Store, StoreOpts};
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr};
use std::path::Path;
use std::time::{Duration, Instant};

/// Seconds per operation of `n` calls of `f`.
fn per_op(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_secs_f64() / n as f64
}

fn set_telemetry(on: bool, out_dir: &Path) {
    mic_metrics::set_enabled(on);
    if on {
        // What MIC_METRICS=1 MIC_OBS=<dir> switch on, through the same
        // public functions the config layer calls.
        obs::install(obs::ObsConfig {
            dir: out_dir.join("obs"),
            ..obs::ObsConfig::default()
        });
    } else {
        obs::disable();
    }
}

struct Probes<'a> {
    tracer: &'a mut Tracer,
    report: &'a mut ChildReport,
    out_dir: &'a Path,
    nproc: usize,
}

impl Probes<'_> {
    fn set(&mut self, name: &str, value: f64) {
        self.report.layers.insert(name.to_string(), value);
    }

    /// Run `f` in a span named `name`; returns its result and seconds.
    fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        self.tracer.span(name, |_| f())
    }
}

/// Run every probe. The exhibit passes come first: the cold one needs a
/// process whose workload cache is still empty.
pub fn run(
    seed: u64,
    nproc: usize,
    out_dir: &Path,
    tracer: &mut Tracer,
    report: &mut ChildReport,
) -> Result<(), String> {
    let mut p = Probes {
        tracer,
        report,
        out_dir,
        nproc,
    };
    p.exhibit_passes();
    p.serve_telemetry(seed)?;
    let graphs = p.graph();
    let (coloring_hood, bfs_pwtk) = p.kernels(&graphs);
    drop(graphs);
    p.workload_cache();
    p.sim(&coloring_hood, &bfs_pwtk);
    p.sweep_and_runtime(&coloring_hood);
    p.codec(seed);
    p.router(seed)?;
    p.store_backed_router(seed)?;
    p.lru();
    p.store()?;
    p.telemetry_primitives();
    Ok(())
}

impl Probes<'_> {
    /// `exhibit.<id>.cold_s` / `.warm_s`, and what telemetry costs a warm
    /// pass: cold, off, on, off — the two off passes bracket the on pass.
    fn exhibit_passes(&mut self) {
        let cold = exhibits::pass(self.tracer, None, self.report);
        let off1 = exhibits::pass(self.tracer, None, self.report);
        set_telemetry(true, self.out_dir);
        let on = exhibits::pass(self.tracer, None, self.report);
        set_telemetry(false, self.out_dir);
        let off2 = exhibits::pass(self.tracer, None, self.report);
        for ((id, c), (_, w)) in cold.exhibit_s.iter().zip(&off1.exhibit_s) {
            self.set(&format!("exhibit.{id}.cold_s"), *c);
            self.set(&format!("exhibit.{id}.warm_s"), *w);
        }
        self.set(
            "telemetry.exhibits_on_over_off",
            on.wall_s / ((off1.wall_s + off2.wall_s) / 2.0),
        );
    }

    /// What telemetry costs a compute-path request: one window off, one
    /// on, same server, fresh keys in both.
    fn serve_telemetry(&mut self, seed: u64) -> Result<(), String> {
        let window = Duration::from_millis(1500);
        // Its own report: the windows' samples and counters are this
        // probe's, not a workload's. Operations and failures still count.
        let mut own = ChildReport::default();
        let mut c = Compute::setup(seed, self.nproc, 2 * window, &mut own)?;
        let off = c.timed(window, self.tracer, &mut own)?;
        set_telemetry(true, self.out_dir);
        let on = c.timed(window, self.tracer, &mut own);
        set_telemetry(false, self.out_dir);
        self.set("telemetry.serve_on_over_off", on? / off);
        c.finish(None, &mut own)?;
        self.report.absorb_ops(own);
        Ok(())
    }

    /// `graph.*`: build every suite graph at the exhibits' scale, and one
    /// reordering (Figure 2's shuffle of hood).
    fn graph(&mut self) -> Vec<(PaperGraph, Csr)> {
        let (graphs, secs) = self.timed("graph.build", || {
            PaperGraph::every()
                .into_iter()
                .map(|g| (g, suite::build(g, SCALE)))
                .collect::<Vec<_>>()
        });
        let edges: usize = graphs.iter().map(|(_, g)| g.num_edges()).sum();
        self.set("graph.build_s", secs);
        self.set("graph.build_edges_per_s", edges as f64 / secs);
        let hood = &graphs
            .iter()
            .find(|(g, _)| *g == PaperGraph::Hood)
            .unwrap()
            .1;
        let (_, secs) = self.timed("graph.reorder", || {
            black_box(ordering::apply(hood, Ordering::Random { seed: 5 }));
        });
        self.set("graph.reorder_s", secs);
        graphs
    }

    /// `<kernel>.instrument_s`: each kernel's native run + instrumentation
    /// over the graphs its exhibits use (the meshes, or the RMAT pair).
    /// Returns the two region sources the sim probes price.
    fn kernels(&mut self, graphs: &[(PaperGraph, Csr)]) -> (Vec<Region>, Vec<Region>) {
        let win = LocalityWindows::default();
        let block = SimVariant::Block {
            block: 32,
            relaxed: true,
        };
        let of = |scale_free: bool| {
            graphs
                .iter()
                .filter(move |(g, _)| g.is_scale_free() == scale_free)
        };
        let pol = Policy::OmpDynamic { chunk: 100 };
        let (mut total_s, mut total_edges) = (0.0, 0usize);
        let (mut coloring_hood, mut bfs_pwtk) = (Vec::new(), Vec::new());
        let mut probe =
            |p: &mut Self, name: &str, scale_free: bool, f: &mut dyn FnMut(PaperGraph, &Csr)| {
                let (_, secs) = p.timed(&format!("{name}.instrument"), || {
                    of(scale_free).for_each(|(pg, g)| f(*pg, g));
                });
                p.set(&format!("{name}.instrument_s"), secs);
                total_s += secs;
                total_edges += of(scale_free).map(|(_, g)| g.num_edges()).sum::<usize>();
            };
        probe(self, "coloring", false, &mut |pg, g| {
            let w = coloring_instrument(g, win);
            if pg == PaperGraph::Hood {
                coloring_hood = w.regions(pol);
            }
        });
        probe(self, "bfs", false, &mut |pg, g| {
            let w = bfs_instrument(g, table1_source(g), win, block);
            if pg == PaperGraph::Pwtk {
                bfs_pwtk = w.regions(pol);
            }
        });
        probe(self, "irregular", false, &mut |_, g| {
            black_box(irregular_instrument(g, win, 1));
        });
        probe(self, "pagerank", true, &mut |_, g| {
            black_box(instrument_pagerank(
                g,
                win,
                workload_cache::PAGERANK_DAMPING,
                workload_cache::PAGERANK_TOL,
                workload_cache::PAGERANK_MAX_ITERS,
            ));
        });
        probe(self, "components", true, &mut |_, g| {
            black_box(instrument_components(g, win));
        });
        probe(self, "hybrid_bfs", true, &mut |_, g| {
            black_box(instrument_hybrid(
                g,
                table1_source(g),
                win,
                Hybrid::default(),
            ));
        });
        self.set(
            "kernels.instrument_edges_per_s",
            total_edges as f64 / total_s,
        );
        (coloring_hood, bfs_pwtk)
    }

    /// `workload_cache.*`: one miss on a key no exhibit uses (reorder +
    /// instrument behind the per-key `OnceLock`), then the hit path.
    fn workload_cache(&mut self) {
        let key = || {
            workload_cache::coloring(
                PaperGraph::Hood,
                SCALE,
                OrderTag::Random { seed: 0x00C0_FFEE },
                LocalityWindows::default(),
            )
        };
        let (_, secs) = self.timed("workload_cache.miss", || {
            black_box(key());
        });
        self.set("workload_cache.miss_s", secs);
        let (per, _) = self.timed("workload_cache.hit", || {
            per_op(200_000, |_| {
                black_box(key());
            })
        });
        self.set("workload_cache.hit_ns", per * 1e9);
    }

    /// `sim.*`: the engine on one host thread over the KNF thread grid,
    /// hood coloring regions then pwtk BFS regions, per policy.
    fn sim(&mut self, coloring_hood: &[Region], bfs_pwtk: &[Region]) {
        let m = Machine::knf();
        let grid = m.thread_grid();
        let base: Vec<&Region> = coloring_hood.iter().chain(bfs_pwtk).collect();
        let iters_per_sweep = (base.iter().map(|r| r.len()).sum::<usize>() * grid.len()) as f64;

        // Prefix sums: fresh regions each round, as every serve request
        // and every exhibit series builds them.
        let (per, _) = self.timed("sim.prefix", || {
            let rounds = 20;
            per_op(rounds, |_| {
                for r in &base {
                    let fresh = Region::shared(r.iter_work.clone(), r.policy);
                    black_box(fresh.prefix_sums());
                }
            }) / base.iter().map(|r| r.len()).sum::<usize>() as f64
        });
        self.set("sim.prefix_ns_per_iter", per * 1e9);

        struct Count(u64);
        impl TraceSink for Count {
            fn chunk(&mut self, _: &ChunkEvent) {
                self.0 += 1;
            }
        }
        let mut scratch = SimScratch::new();
        let (mut all_s, mut all_chunks) = (0.0, 0u64);
        for (name, policy) in POLICIES.iter().zip(probe_policies()) {
            let regions: Vec<Region> = base.iter().map(|r| r.with_policy(policy)).collect();
            regions.iter().for_each(|r| {
                r.prefix_sums();
            });
            // Whole sweeps of the thread grid for at least 100 ms.
            let sweeps = |p: &mut Self, span: &str, sweep: &mut dyn FnMut(usize)| {
                p.timed(span, || {
                    let start = Instant::now();
                    let mut n = 0;
                    while n == 0 || start.elapsed() < Duration::from_millis(100) {
                        grid.iter().for_each(|&t| sweep(t));
                        n += 1;
                    }
                    start.elapsed().as_secs_f64() / n as f64
                })
                .0
            };
            let per = sweeps(self, &format!("sim.engine.{name}"), &mut |t| {
                black_box(simulate_with_scratch(&m, t, &regions, &mut scratch));
            });
            let mut count = Count(0);
            for &t in &grid {
                simulate_traced(&m, t, &regions, &mut scratch, &mut count);
            }
            self.set(
                &format!("sim.engine_ns_per_iter.{name}"),
                per / iters_per_sweep * 1e9,
            );
            self.set(&format!("sim.chunks.{name}"), count.0 as f64);
            self.report
                .exact
                .insert(format!("sim.chunks.{name}"), count.0.to_string());
            all_s += per;
            all_chunks += count.0;
            // What recording every chunk costs over recording none.
            if matches!(policy, Policy::OmpDynamic { .. }) {
                let recorded = sweeps(self, "sim.engine.recording", &mut |t| {
                    let mut sink = RecordingSink::default();
                    black_box(simulate_traced(&m, t, &regions, &mut scratch, &mut sink));
                    black_box(sink.regions.len());
                });
                self.set("sim.traced_over_untraced", recorded / per);
            }
        }
        self.set("sim.engine_ns_per_chunk", all_s / all_chunks as f64 * 1e9);
    }

    /// `sweep.*` and `runtime.*`: the harness the exhibits fan out on.
    fn sweep_and_runtime(&mut self, coloring_hood: &[Region]) {
        let m = Machine::knf();
        let jobs: Vec<(usize, Policy)> = m
            .thread_grid()
            .into_iter()
            .flat_map(|t| probe_policies().into_iter().map(move |p| (t, p)))
            .collect();
        let job = |_: usize, (t, p): &(usize, Policy)| {
            let regions: Vec<Region> = coloring_hood.iter().map(|r| r.with_policy(*p)).collect();
            simulate_with_scratch(&m, *t, &regions, &mut SimScratch::new()).cycles
        };
        let (_, serial) = self.timed("sweep.map_serial", || {
            black_box(sweep::map_serial(&jobs, job));
        });
        let (_, parallel) = self.timed("sweep.map", || {
            black_box(sweep::map(&jobs, job));
        });
        self.set("sweep.parallel_speedup", serial / parallel);
        // Empty jobs: what one `map` (pool spawn included) costs per job.
        let empty = vec![0u8; 1024];
        let (per, _) = self.timed("sweep.overhead", || {
            per_op(20, |_| {
                black_box(sweep::map(&empty, |i, _| i));
            }) / empty.len() as f64
        });
        self.set("sweep.job_overhead_us", per * 1e6);

        let threads = sweep::default_threads();
        let (per, _) = self.timed("runtime.pool_spawn", || {
            per_op(50, |_| drop(ThreadPool::new(threads)))
        });
        self.set("runtime.pool_spawn_us", per * 1e6);
        let pool = ThreadPool::new(threads);
        let (per, _) = self.timed("runtime.pool_region", || per_op(2000, |_| pool.run(|_| {})));
        self.set("runtime.pool_region_us", per * 1e6);
    }

    /// `frame.*` and `protocol.*` over the first block of the stream.
    fn codec(&mut self, seed: u64) {
        let stream = Stream {
            seed,
            scale: CACHED_SCALE,
        };
        let lines: Vec<String> = (0..keys::GOLDEN_BLOCK as u64)
            .map(|i| stream.line(i))
            .collect();
        let requests: Vec<Request> = lines.iter().map(|l| keys::request_of(l)).collect();
        let encoded: Vec<(u8, Vec<u8>)> = requests.iter().map(frame::encode_request).collect();
        let responses: Vec<Response> = (0..lines.len())
            .map(|i| Response::Ok {
                id: i.to_string(),
                cycles: 1.0e6 + i as f64,
                meta: SimMeta::untraced(1, false, false, 0.25),
            })
            .collect();
        let encoded_responses: Vec<(u8, Vec<u8>)> =
            responses.iter().map(frame::encode_response).collect();
        let n = lines.len();
        let rounds = 20 * n;
        let probe = |p: &mut Self, name: &str, f: &mut dyn FnMut(usize)| {
            let (per, _) = p.timed(name, || per_op(rounds, |i| f(i % n)));
            p.set(&format!("{name}_ns"), per * 1e9);
        };
        probe(self, "frame.encode_request", &mut |i| {
            black_box(frame::encode_request(&requests[i]));
        });
        probe(self, "frame.decode_request", &mut |i| {
            black_box(frame::decode_request(encoded[i].0, &encoded[i].1).is_ok());
        });
        probe(self, "frame.encode_response", &mut |i| {
            black_box(frame::encode_response(&responses[i]));
        });
        probe(self, "frame.decode_response", &mut |i| {
            let (tag, payload) = &encoded_responses[i];
            black_box(frame::decode_response(*tag, payload).is_ok());
        });
        probe(self, "protocol.parse_request", &mut |i| {
            black_box(mic_serve::protocol::parse_request(&lines[i]).is_ok());
        });
        let specs: Vec<_> = lines.iter().map(|l| keys::spec_of(l)).collect();
        probe(self, "protocol.job_key", &mut |i| {
            black_box(specs[i].key());
        });
    }

    /// `router.*`, `protocol.compute_us`, `server.dispatch_overhead_us`,
    /// `serve.transport_us`: the request path in process, without the
    /// socket, against the same path over TCP.
    fn router(&mut self, seed: u64) -> Result<(), String> {
        let server =
            Server::start("127.0.0.1:0", ServeOpts::default()).map_err(|e| e.to_string())?;
        let router = server.router();
        let client = router.client(IpAddr::V4(Ipv4Addr::LOCALHOST));
        let stream = Stream {
            seed,
            scale: CACHED_SCALE,
        };
        let payload = |line: &str| frame::encode_request(&keys::request_of(line));
        let ok = |p: &mut Self, resp: Response| {
            p.report.ops += 1;
            if !matches!(resp, Response::Ok { .. }) {
                p.report.fail(format!("router probe: {}", resp.render()));
            }
        };
        // Fill the workload cache at this scale, and the LRU with the hot set.
        for line in keys::warmup_lines(CACHED_SCALE) {
            let (tag, bytes) = payload(&line);
            let resp = router.handle_frame(tag, &bytes, &client);
            ok(self, resp);
        }
        let hot: Vec<(u8, Vec<u8>)> = (0..HOT_KEYS as u64)
            .map(|i| payload(&stream.line(i)))
            .collect();
        for (tag, bytes) in &hot {
            let resp = router.handle_frame(*tag, bytes, &client);
            ok(self, resp);
        }
        let (hit, _) = self.timed("router.handle_frame_hit", || {
            per_op(50_000, |i| {
                let (tag, bytes) = &hot[i % hot.len()];
                black_box(router.handle_frame(*tag, bytes, &client));
            })
        });
        self.set("router.handle_frame_hit_ns", hit * 1e9);

        // The same hot keys at depth 1 over TCP: the difference is the
        // socket and the two thread wake-ups.
        let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
        let hot_frames: Vec<Vec<u8>> = (0..HOT_KEYS as u64)
            .map(|i| keys::frame_of(&stream.line(i)))
            .collect();
        let mut round_trips = Vec::new();
        let (result, _) = self.timed("serve.transport", || -> Result<(), String> {
            for i in 0..4000 {
                let t0 = Instant::now();
                conn.exchange(&hot_frames[i % hot_frames.len()])?;
                round_trips.push(t0.elapsed().as_secs_f64());
            }
            Ok(())
        });
        result?;
        self.set(
            "serve.transport_us",
            (stats::median(&round_trips).unwrap() - hit) * 1e6,
        );

        // Misses: fresh keys past the hot set, through the whole dispatch
        // path (admit, queue, wake, execute, publish) …
        let fresh: Vec<u64> = (1024..1024 + 256).collect();
        let (miss, _) = self.timed("router.handle_frame_miss", || {
            per_op(fresh.len(), |i| {
                let (tag, bytes) = payload(&stream.line(fresh[i]));
                black_box(router.handle_frame(tag, &bytes, &client));
            })
        });
        // … and the same jobs computed directly.
        let specs: Vec<_> = fresh.iter().map(|&i| stream.spec(i)).collect();
        let (compute, _) = self.timed("protocol.compute", || {
            per_op(specs.len(), |i| {
                black_box(specs[i].compute());
            })
        });
        self.set("router.handle_frame_miss_us", miss * 1e6);
        self.set("protocol.compute_us", compute * 1e6);
        self.set("server.dispatch_overhead_us", (miss - compute) * 1e6);
        drop(conn);
        server.shutdown();
        Ok(())
    }

    /// `router.handle_frame_store_hit_ns`: populate a store-backed server,
    /// restart it, and ask for each key once — LRU miss, store hit.
    fn store_backed_router(&mut self, seed: u64) -> Result<(), String> {
        let file = self
            .out_dir
            .join(format!("probe-router-{}.store", std::process::id()));
        let _ = std::fs::remove_file(&file);
        let opts = ServeOpts {
            store_path: Some(file.clone()),
            ..ServeOpts::default()
        };
        let stream = Stream {
            seed,
            scale: CACHED_SCALE,
        };
        let frames: Vec<(u8, Vec<u8>)> = (0..512u64)
            .map(|i| frame::encode_request(&keys::request_of(&stream.line(i))))
            .collect();
        let local = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let first = Server::start("127.0.0.1:0", opts.clone()).map_err(|e| e.to_string())?;
        for (tag, bytes) in &frames {
            black_box(
                first
                    .router()
                    .handle_frame(*tag, bytes, &first.router().client(local)),
            );
        }
        first.shutdown();
        let server = Server::start("127.0.0.1:0", opts).map_err(|e| e.to_string())?;
        let client = server.router().client(local);
        let (per, _) = self.timed("router.handle_frame_store_hit", || {
            per_op(frames.len(), |i| {
                black_box(
                    server
                        .router()
                        .handle_frame(frames[i].0, &frames[i].1, &client),
                );
            })
        });
        let hits = server
            .stats()
            .store_hits
            .load(std::sync::atomic::Ordering::Relaxed);
        self.report.ops += 1;
        if hits != frames.len() as u64 {
            self.report.fail(format!(
                "store-hit probe: {hits} store hits of {}",
                frames.len()
            ));
        }
        self.set("router.handle_frame_store_hit_ns", per * 1e9);
        server.shutdown();
        let _ = std::fs::remove_file(&file);
        Ok(())
    }

    /// `lru.*` on the result LRU at the server's per-shard capacity.
    fn lru(&mut self) {
        let cap = ServeOpts::default().lru_cap;
        let lru = ShardedLru::new(cap);
        let keys: Vec<String> = (0..4 * cap).map(|i| format!("probe/key/{i}")).collect();
        // Twice round a key set four times the capacity: every put evicts.
        let (put, _) = self.timed("lru.put", || {
            per_op(2 * keys.len(), |i| lru.put(&keys[i % keys.len()], i as f64))
        });
        let resident: Vec<&String> = keys.iter().filter(|k| lru.get(k).is_some()).collect();
        let (get, _) = self.timed("lru.get", || {
            per_op(200_000, |i| {
                black_box(lru.get(resident[i % resident.len()]));
            })
        });
        self.set("lru.put_ns", put * 1e9);
        self.set("lru.get_ns", get * 1e9);
    }

    /// `store.*`: the paged store on the records `serve-store-warm` keeps
    /// (job key → eight bytes).
    fn store(&mut self) -> Result<(), String> {
        let file = self
            .out_dir
            .join(format!("probe-{}.store", std::process::id()));
        let _ = std::fs::remove_file(&file);
        let io = |e: std::io::Error| e.to_string();
        let stream = Stream {
            seed: 0,
            scale: CACHED_SCALE,
        };
        let n = 1024;
        let keys: Vec<String> = (0..n as u64).map(|i| stream.spec(i).key()).collect();
        let absent: Vec<String> = keys.iter().map(|k| format!("{k}/absent")).collect();
        let store = Store::open(&file, StoreOpts::default()).map_err(io)?;
        let mut failed = 0;
        let (put, _) = self.timed("store.put", || {
            per_op(n, |i| {
                failed += store
                    .put(keys[i].as_bytes(), &(i as f64).to_le_bytes())
                    .is_err() as u64;
            })
        });
        let (persisted, persist) = self.timed("store.persist", || store.persist());
        persisted.map_err(io)?;
        drop(store);
        let bytes = std::fs::metadata(&file).map_err(io)?.len();
        let (store, open) = self.timed("store.open", || Store::open(&file, StoreOpts::default()));
        let store = store.map_err(io)?;
        let (hit, _) = self.timed("store.get_hit", || {
            per_op(n, |i| {
                failed += (store.get(keys[i].as_bytes()) != Some((i as f64).to_le_bytes().to_vec()))
                    as u64;
            })
        });
        let (miss, _) = self.timed("store.get_miss", || {
            per_op(n, |i| {
                failed += store.get(absent[i].as_bytes()).is_some() as u64;
            })
        });
        drop(store);
        let _ = std::fs::remove_file(&file);
        self.report.ops += 3 * n as u64;
        if failed > 0 {
            self.report
                .fail(format!("store probe: {failed} wrong results"));
        }
        self.set("store.put_us", put * 1e6);
        self.set("store.persist_ms", persist * 1e3);
        self.set("store.open_ms", open * 1e3);
        self.set("store.get_hit_us", hit * 1e6);
        self.set("store.get_miss_us", miss * 1e6);
        self.set("store.file_bytes_per_record", bytes as f64 / n as f64);
        Ok(())
    }

    /// What one enabled counter bump (registry lookup + add, as the
    /// program's hot paths write it) and one flight-recorder event cost.
    fn telemetry_primitives(&mut self) {
        set_telemetry(true, self.out_dir);
        let (inc, _) = self.timed("metrics.counter_inc", || {
            per_op(1_000_000, |_| {
                mic_metrics::counter("mic_perf_probe_total", "Benchmark probe counter.", &[]).inc()
            })
        });
        let (record, _) = self.timed("obs.flight_record", || {
            per_op(1_000_000, |i| {
                flight::record(flight::EventKind::CacheHit, i as u64, 0, 1)
            })
        });
        set_telemetry(false, self.out_dir);
        self.set("metrics.counter_inc_ns", inc * 1e9);
        self.set("obs.flight_record_ns", record * 1e9);
    }
}

/// The seven policies of `catalogue::POLICIES`, at Figure 1's sizes.
fn probe_policies() -> [Policy; 7] {
    [
        Policy::OmpStatic { chunk: Some(40) },
        Policy::OmpDynamic { chunk: 100 },
        Policy::OmpGuided { min_chunk: 100 },
        Policy::Cilk { grain: 100 },
        Policy::TbbSimple { grain: 40 },
        Policy::TbbAuto,
        Policy::TbbAffinity,
    ]
}
