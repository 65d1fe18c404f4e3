//! The seeded request stream: the only thing `--seed` drives.
//!
//! Every request is written as the JSON line a client would send, passed
//! through `protocol::parse_request` (so the stream holds nothing the
//! server would refuse), and pre-encoded as a binary frame during setup
//! so the timed client only writes and reads.
//!
//! What a request costs depends on its (kernel, graph) pair, roughly on
//! its simulated thread count, and on its policy and chunk size. The job
//! space is therefore cut into *cells* — pair × band of 11 thread counts ×
//! policy × band of 8 chunk sizes — and stream position `i` visits cell
//! `perm(i)`, the same for every seed. The seed picks where inside each
//! cell the request lands: which of the 11 thread counts, which of the 8
//! sizes. So every seed asks for the same mix of work in the same order
//! (throughput does not depend on the seed), a seed's stream never
//! repeats a key within `STRIDE` requests (0 % cache hits on
//! `serve-compute`), and two seeds in different slots share no key.

use mic_eval::graph::suite::PaperGraph;
use mic_eval::sim::Machine;
use mic_serve::frame;
use mic_serve::protocol::{self, JobSpec, Kernel, Request};

/// Length of the response block the golden digest covers.
pub const GOLDEN_BLOCK: usize = 1024;

/// The (kernel, graph) pairs the stream draws from: the paper's kernels
/// on the paper's meshes, the scale-free kernels on the RMAT graphs — the
/// pairs the exhibits sweep, except hood under PageRank and components.
/// Power iteration and label propagation on a high-diameter mesh cost 20
/// to 60 times the median request; one such pair would be the whole tail.
const MESH_KERNELS: [Kernel; 3] = [Kernel::Coloring, Kernel::Irregular, Kernel::Bfs];
const SCALE_FREE_KERNELS: [Kernel; 3] = [Kernel::PageRank, Kernel::Components, Kernel::HybridBfs];
const MESH_PAIRS: u64 = 3 * 7;
const PAIRS: u64 = MESH_PAIRS + 3 * 2;

fn pair(i: u64) -> (Kernel, PaperGraph) {
    match i.checked_sub(MESH_PAIRS) {
        None => (
            MESH_KERNELS[(i / 7) as usize],
            PaperGraph::all()[(i % 7) as usize],
        ),
        Some(j) => (
            SCALE_FREE_KERNELS[(j / 2) as usize],
            PaperGraph::scale_free()[(j % 2) as usize],
        ),
    }
}

/// Simulated thread counts 1..=121 (the paper's KNF grid top), as 11
/// bands of 11. The wire clamps `threads` to 1024 but the engine asserts
/// on more than `Machine::knf().hw_threads()` (124); the stream stays
/// inside.
const THREAD_BANDS: u64 = 11;
const THREADS_PER_BAND: u64 = 11;
/// Thread count of the cache-filling requests: legal for the engine,
/// outside the stream's range, so they never collide with a stream key.
const WARMUP_THREADS: u64 = 124;
/// Request fields of the policies that take a size, up to its colon. The
/// two TBB partitioners without one (`auto`, `affinity`) have nothing a
/// seed could vary, so they cannot fill a never-repeating stream; the
/// `sim.*` probes cover them.
const SIZED: [&str; 5] = [
    r#""runtime":"omp","sched":"static","chunk""#,
    r#""runtime":"omp","sched":"dynamic","chunk""#,
    r#""runtime":"omp","sched":"guided","chunk""#,
    r#""runtime":"cilk","grain""#,
    r#""runtime":"tbb","sched":"simple","grain""#,
];
/// Chunk/grain values `SIZE_BASE..SIZE_BASE + 1024`, as 128 bands of 8.
/// Below 64 the engine's cost per request climbs steeply (ten times the
/// median at 16); the exhibits use 40 to 100.
const SIZE_BASE: u64 = 64;
const SIZE_BANDS: u64 = 128;
const SIZES_PER_BAND: u64 = 8;
/// `irregular` instruments once per `iter`, so the stream uses the two
/// values the exhibits use and setup fills the cache for both.
const IRREGULAR_ITERS: [u64; 2] = [1, 10];

const CELLS: u64 = PAIRS * THREAD_BANDS * SIZED.len() as u64 * SIZE_BANDS;
/// A stream visits each cell once, so it is duplicate-free this long.
pub const STRIDE: u64 = CELLS;
/// Seeds map to slots modulo this; seeds in one slot share a stream.
pub const SEED_SLOTS: u64 = THREADS_PER_BAND * SIZES_PER_BAND;
/// Position → cell: `i -> (MUL * i + ADD) mod CELLS`. MUL is prime and is
/// none of CELLS's prime factors (2, 3, 5, 11), so this is a bijection;
/// it makes neighbouring requests differ in every field.
const MUL: u64 = 2_654_435_761;
const ADD: u64 = 7_919;
// The stream outlasts any window, and the driver's ten consecutive seeds
// (and the two golden seeds) land in distinct slots.
const _: () = assert!(STRIDE >= 100_000 && SEED_SLOTS >= 64);

/// A seed's request stream at one input scale (`Scale::Fraction(scale)`).
#[derive(Clone, Copy, Debug)]
pub struct Stream {
    pub seed: u64,
    pub scale: u32,
}

impl Stream {
    /// The JSON request line of stream position `i` (`i < STRIDE`).
    pub fn line(&self, i: u64) -> String {
        assert!(i < STRIDE, "stream position {i} past the unique range");
        let mut cell = (MUL * i + ADD) % CELLS;
        let mut digit = |radix: u64| {
            let d = cell % radix;
            cell /= radix;
            d
        };
        let (kernel, graph) = pair(digit(PAIRS));
        let thread_band = digit(THREAD_BANDS);
        let policy = SIZED[digit(SIZED.len() as u64) as usize];
        let size_band = digit(SIZE_BANDS);
        // The seed's place inside the cell.
        let slot = self.seed % SEED_SLOTS;
        let threads = 1 + thread_band * THREADS_PER_BAND + slot % THREADS_PER_BAND;
        let size = SIZE_BASE + size_band * SIZES_PER_BAND + slot / THREADS_PER_BAND;
        let iter = match kernel {
            Kernel::Irregular => IRREGULAR_ITERS[(size_band % 2) as usize],
            _ => 1,
        };
        line(
            i,
            kernel,
            graph,
            &format!("{policy}:{size}"),
            threads,
            self.scale,
            iter,
        )
    }

    pub fn spec(&self, i: u64) -> JobSpec {
        spec_of(&self.line(i))
    }
}

fn line(
    i: u64,
    kernel: Kernel,
    graph: PaperGraph,
    policy: &str,
    threads: u64,
    scale: u32,
    iter: u64,
) -> String {
    format!(
        r#"{{"id":"{i}","kernel":"{}","graph":"{}",{policy},"threads":{threads},"scale":{scale},"iter":{iter}}}"#,
        kernel.name(),
        graph.name(),
    )
}

/// One request per (kernel, graph[, iter]): after these the process-wide
/// workload cache holds everything a stream at `scale` can ask for.
pub fn warmup_lines(scale: u32) -> Vec<String> {
    assert!(WARMUP_THREADS as usize <= Machine::knf().hw_threads());
    let mut out = Vec::new();
    for (kernel, graph) in (0..PAIRS).map(pair) {
        let iters: &[u64] = match kernel {
            Kernel::Irregular => &IRREGULAR_ITERS,
            _ => &[1],
        };
        for &iter in iters {
            out.push(line(
                out.len() as u64,
                kernel,
                graph,
                r#""runtime":"omp","sched":"dynamic","chunk":100"#,
                WARMUP_THREADS,
                scale,
                iter,
            ));
        }
    }
    out
}

/// Parse a generated line the way the server would.
pub fn request_of(line: &str) -> Request {
    protocol::parse_request(line)
        .unwrap_or_else(|(_, why)| panic!("generated line {line} rejected by parse_request: {why}"))
}

pub fn spec_of(line: &str) -> JobSpec {
    match request_of(line) {
        Request::Simulate { spec, .. } => spec,
        other => panic!("generated line is not a simulate request: {other:?}"),
    }
}

/// The complete wire bytes (header + payload) of a request.
pub fn frame_of(line: &str) -> Vec<u8> {
    let (tag, payload) = frame::encode_request(&request_of(line));
    let mut buf = Vec::with_capacity(frame::HEADER_LEN + payload.len());
    frame::write_frame(&mut buf, tag, &payload).expect("writing to a Vec cannot fail");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn keys(seed: u64, n: u64) -> Vec<String> {
        let s = Stream { seed, scale: 16 };
        (0..n).map(|i| s.spec(i).key()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        let a = Stream { seed: 7, scale: 16 };
        let b = Stream { seed: 7, scale: 16 };
        for i in (0..4096).chain([STRIDE - 1]) {
            assert_eq!(a.line(i), b.line(i));
            assert_eq!(frame_of(&a.line(i)), frame_of(&b.line(i)));
        }
    }

    #[test]
    fn two_seeds_share_no_key_in_their_first_block() {
        let a: HashSet<String> = keys(1, GOLDEN_BLOCK as u64).into_iter().collect();
        let b: HashSet<String> = keys(2, GOLDEN_BLOCK as u64).into_iter().collect();
        assert_eq!(a.len(), GOLDEN_BLOCK);
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn first_100k_keys_are_unique() {
        let all = keys(1, 100_000);
        let distinct: HashSet<&String> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn position_to_cell_is_a_bijection() {
        // CELLS = 27 * 11 * 5 * 128 = 2^7 * 3^3 * 5 * 11.
        assert_eq!(CELLS, 128 * 27 * 5 * 11);
        assert!([2, 3, 5, 11].iter().all(|p| !MUL.is_multiple_of(*p)));
        assert!(MUL.checked_mul(CELLS).is_some(), "no overflow in the map");
    }

    #[test]
    fn every_seed_asks_for_the_same_mix_of_work() {
        // Same position, two seeds: same kernel, graph, policy and iter,
        // thread counts in the same band of 11, sizes in the same band of 8.
        let (a, b) = (
            Stream { seed: 1, scale: 16 },
            Stream {
                seed: 87,
                scale: 16,
            },
        );
        for i in 0..5000 {
            let (x, y) = (a.spec(i), b.spec(i));
            assert_eq!((x.kernel, x.graph, x.iter), (y.kernel, y.graph, y.iter));
            assert_eq!(x.policy.name(), y.policy.name());
            assert_eq!((x.threads - 1) / 11, (y.threads - 1) / 11);
            assert_ne!(x.key(), y.key());
        }
    }

    #[test]
    fn every_request_is_one_the_engine_can_run() {
        let hw = Machine::knf().hw_threads();
        let s = Stream { seed: 3, scale: 64 };
        let mut kernels = HashSet::new();
        let mut policies = HashSet::new();
        for i in 0..20_000 {
            let spec = s.spec(i);
            assert!((1..=hw).contains(&spec.threads));
            assert_eq!(spec.delay_ms, 0);
            kernels.insert(spec.kernel.name());
            policies.insert(spec.policy.name());
            // The binary wire carries the same job.
            let bytes = frame_of(&s.line(i));
            let payload = &bytes[frame::HEADER_LEN..];
            let Ok(Request::Simulate { spec: wire, .. }) =
                frame::decode_request(bytes[frame::HEADER_LEN - 1], payload)
            else {
                panic!("frame {i} did not decode");
            };
            assert_eq!(wire, spec);
        }
        assert_eq!(kernels.len(), 6);
        assert_eq!(policies.len(), 5);
        for l in warmup_lines(64) {
            assert!(spec_of(&l).threads <= hw);
        }
        assert_eq!(warmup_lines(64).len(), 27 + 7);
    }
}
