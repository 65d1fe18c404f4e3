//! The workload cache's durable tier under stress: killed writers, crashes
//! cut through the store file, an unopenable `MIC_STORE`, a fault plan, and
//! whole-exhibit identity across store setups. The tier holds suite graphs
//! (`csr1-` keys) and PageRank's iteration counts (`pr1-` keys). Whatever
//! happened to the file, a read hands back the exact value that was stored
//! or a miss — and a miss is always followed by a working rebuild-and-store.

use mic_eval::config::SuiteConfig;
use mic_eval::graph::suite::{PaperGraph, Scale};
use mic_eval::graph::Csr;
use mic_eval::sim::Work;
use mic_eval::workload_cache::{clear_memory, graph, pagerank, OrderTag};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// The installed config (and with it the store path) is process-global;
/// serialize the tests in this file so each sees only its own store.
static SERIAL: Mutex<()> = Mutex::new(());

/// A store file in a fresh scratch directory, installed as the `MIC_STORE`
/// tier. Dropping it closes the store, restores the env-derived config and
/// removes the directory.
struct Tier {
    file: PathBuf,
    _serial: MutexGuard<'static, ()>,
}

fn install(file: &Path) {
    SuiteConfig::default()
        .store_path(Some(file.to_path_buf()))
        .install();
}

fn tier(tag: &str) -> Tier {
    let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("mic-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    clear_memory();
    install(&dir.join("cache.pg"));
    Tier {
        file: dir.join("cache.pg"),
        _serial: serial,
    }
}

impl Drop for Tier {
    fn drop(&mut self) {
        clear_memory();
        SuiteConfig::from_env().install();
        let _ = std::fs::remove_dir_all(self.file.parent().unwrap());
    }
}

/// The suite graph the session tests persist, with PageRank's count.
const GRAPH: PaperGraph = PaperGraph::Hood;
const SCALE: Scale = Scale::Vertices(300);

/// `f()` in a metrics session on a cold in-memory cache, with the
/// store-tier `(hits, misses)` it counted.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (f64, f64)) {
    clear_memory();
    let (value, snap) = mic_eval::metrics::with_session(f);
    let count = |name: &str| snap.value(name, &[]).unwrap_or(0.0);
    let (hits, misses) = ("mic_cache_hits_total", "mic_cache_misses_total");
    (value, (count(hits), count(misses)))
}

/// The graph, PageRank's count and PageRank's work, read on a cold
/// in-memory cache, with the store-tier traffic.
fn session() -> ((Csr, usize, Vec<Work>), (f64, f64)) {
    counted(|| {
        let pr = pagerank(GRAPH, SCALE, OrderTag::Natural, Default::default());
        let g = graph(GRAPH, SCALE);
        ((*g).clone(), pr.iters, pr.vertex_work.to_vec())
    })
}

/// Record boundaries in a store log: the 8-byte magic, then records of a
/// 24-byte header (`u32` key length, `u32` value length, two checksums)
/// followed by the key and the value.
fn record_ends(log: &[u8]) -> Vec<usize> {
    let mut ends = vec![8];
    while let Some(head) = log.get(ends[ends.len() - 1]..).filter(|r| r.len() >= 24) {
        let len = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().unwrap()) as usize;
        ends.push(ends[ends.len() - 1] + 24 + len(0) + len(4));
    }
    ends
}

/// A writer that bypassed the store's discipline (simulated by putting
/// every truncation of a good `MICCSR01` value straight into the store,
/// behind valid record checksums) must never hand the reader a graph: the
/// CSR reader rejects every prefix, the entry is dropped, and the rebuilt
/// graph — bit-identical — is stored again in its place.
#[test]
fn killed_writer_truncations_all_quarantine_then_recompute_recovers() {
    let tier = tier("kill");
    let scale = Scale::Vertices(64);
    let want = graph(GRAPH, scale);
    let key = format!("csr1-{}-{scale:?}", GRAPH.name());
    // The same handle the cache holds (the store shares one per path), so
    // it stays open while `clear_memory` drops the cache's reference.
    let raw = mic_eval::store::Store::open_shared(&tier.file, Default::default()).unwrap();
    let good = raw.get(key.as_bytes()).expect("stored graph");
    for cut in 0..good.len() {
        raw.put(key.as_bytes(), &good[..cut]).unwrap();
        let (g, traffic) = counted(|| graph(GRAPH, scale));
        assert_eq!(traffic, (0.0, 1.0), "a {cut}-byte torn graph loaded");
        assert!(g == want, "cut {cut}: the rebuilt graph differs");
        let stored = raw.get(key.as_bytes());
        assert!(stored == Some(good.clone()), "cut {cut}: not stored");
    }
}

/// The store is the only durable tier: what one config session stored is
/// served, bit-identical, to a later session that opens the same file cold
/// — and nothing is read once the tier is switched off.
#[test]
fn store_tier_serves_workloads_after_file_cache_loss() {
    let tier = tier("spill");
    let (want, traffic) = session();
    assert_eq!(traffic, (0.0, 2.0), "the graph and the count miss");
    install(&tier.file);
    let (warm, traffic) = session();
    assert!(warm == want, "a second session read other values");
    assert_eq!(traffic, (2.0, 0.0), "a second session must hit the store");
    SuiteConfig::default().install();
    let (off, traffic) = session();
    assert!(off == want, "the store tier off changed the values");
    assert_eq!(traffic, (0.0, 0.0), "no store, no store traffic");
}

/// Crash-mid-append matrix on the store file itself: a cold session writes
/// the graph, then PageRank's count; truncate the file at every record
/// boundary, at every byte of the last record and every 512 bytes, then
/// reload. Whatever state the "crash" left, the cache must hand back the
/// exact graph and workload — a record that ended before the cut as a hit,
/// the rest as a miss and a rebuild — and the rebuild must be stored.
#[test]
fn store_file_crash_matrix_recovers_or_misses_never_corrupts() {
    let tier = tier("crash");
    let (want, _) = session();
    clear_memory();
    let golden = std::fs::read(&tier.file).unwrap();
    let ends = record_ends(&golden);
    assert_eq!(ends.len(), 3, "magic + two records: {ends:?}");
    assert_eq!(ends[2], golden.len(), "the records tile the file");
    let mut cuts: Vec<usize> = (0..=golden.len()).step_by(512).collect();
    cuts.extend(&ends);
    cuts.extend(ends[1]..golden.len());
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        std::fs::write(&tier.file, &golden[..cut]).unwrap();
        let (got, traffic) = session();
        assert!(got == want, "cut {cut}: the values changed");
        let intact = ends[1..].iter().filter(|&&end| end <= cut).count() as f64;
        assert_eq!(traffic, (intact, 2.0 - intact), "cut {cut}");
        // The recovery path every caller takes stored what it rebuilt.
        assert_eq!(session().1, (2.0, 0.0), "cut {cut}: the rebuild not stored");
    }
}

/// A `MIC_STORE` that cannot be opened (its parent is a regular file)
/// costs the durable tier, nothing else: graphs and workloads still build
/// and share in memory, and no store lookup happens.
#[test]
fn unopenable_store_degrades_to_memory_only() {
    use mic_eval::workload_cache::coloring;
    let tier = tier("unopenable");
    let blocker = tier.file.with_file_name("not-a-dir");
    std::fs::write(&blocker, b"x").unwrap();
    install(&blocker.join("cache.pg"));
    let build = || coloring(GRAPH, SCALE, OrderTag::Natural, Default::default());
    let (a, b) = (build(), build());
    assert!(std::sync::Arc::ptr_eq(&a, &b), "the in-memory tier shares");
    assert!(!a.tentative.is_empty());
    let ((_, iters, _), traffic) = session();
    assert!(iters > 0, "PageRank ran");
    assert_eq!(traffic, (0.0, 0.0), "no store, no store traffic");
    assert_eq!(std::fs::read(&blocker).unwrap(), b"x");
}

/// Two whole exhibits — `fig2` and `pagerank` — render byte-identical text
/// with no store, a cold store, a warm store read by a second session, and
/// a warm store with a flipped byte: the tier changes where graphs and
/// PageRank's counts come from, never what they are. The cold session
/// stores nothing but those two kinds of value.
#[test]
fn exhibit_text_is_identical_across_store_setups() {
    let tier = tier("fig2");
    let exhibits = ["fig2", "pagerank"].map(|id| mic_eval::exhibit::registry().get(id).unwrap());
    let scale = Scale::Vertices(1500);
    let render = || counted(|| exhibits.map(|e| (e.run)(scale)).concat());

    SuiteConfig::default().install();
    let (reference, traffic) = render();
    assert_eq!(traffic, (0.0, 0.0), "no store, no store traffic");

    install(&tier.file);
    let (cold, (hits, misses)) = render();
    assert_eq!(cold, reference, "cold store changed the exhibits");
    assert!(hits == 0.0 && misses > 0.0, "a fresh store only misses");
    let log = std::fs::read(&tier.file).unwrap();
    let ends = record_ends(&log);
    assert_eq!(ends.len() as f64, misses + 1.0, "one record per miss");
    for &at in &ends[..ends.len() - 1] {
        let klen = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        let key = String::from_utf8_lossy(&log[at + 24..at + 24 + klen]);
        assert!(key.starts_with("csr1-") || key.starts_with("pr1-"), "{key}");
    }

    install(&tier.file); // a second session on the same file
    let (warm, traffic) = render();
    assert_eq!(warm, reference, "warm store changed the exhibits");
    assert_eq!(traffic, (misses, 0.0), "the warm session reads every value");

    clear_memory();
    let mut bytes = std::fs::read(&tier.file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&tier.file, &bytes).unwrap();
    let (flipped, (hits, _)) = render();
    assert_eq!(flipped, reference, "a flipped byte reached the exhibits");
    assert!(hits > 0.0, "undamaged entries still hit");
}

/// The configured fault plan is the cache tier's IO-fault injector: with
/// every store open failing, `fig2` renders the store-less text and the
/// session counts the injected opens.
#[test]
fn config_fault_plan_reaches_the_store_tier() {
    let tier = tier("fault");
    let fig2 = mic_eval::exhibit::registry().get("fig2").expect("fig2");
    let scale = Scale::Vertices(1500);
    SuiteConfig::default().install();
    let reference = (fig2.run)(scale);
    let plan = mic_eval::fault::FaultPlan::parse("3:io-open-fail@1.0").expect("plan");
    let config = SuiteConfig::default().store_path(Some(tier.file.clone()));
    config.fault(Some(plan)).install();
    clear_memory();
    let (text, snap) = mic_eval::metrics::with_session(|| (fig2.run)(scale));
    assert_eq!(text, reference, "a failing store changed the exhibit");
    let opens = snap.value("mic_fault_injections_total", &[("class", "io-open-fail")]);
    assert!(
        opens >= Some(1.0),
        "no injected open reached the store tier"
    );
}
