//! The workload cache's durable tier under stress: concurrent same-key
//! writers, malformed containers, crashes cut through the store file, an
//! unopenable `MIC_STORE`, and whole-exhibit identity across store setups.
//! Whatever happened to the file, a load hands back the exact arrays that
//! were stored or a miss — and a miss is always followed by a working
//! recompute-and-store.

use mic_eval::config::SuiteConfig;
use mic_eval::sim::Work;
use mic_eval::workload_cache::{clear_memory, load_arrays, store_arrays};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// A payload whose every Work value is derived from its tag, so an entry
/// mixing bytes from two writers fails the consistency check even though
/// all candidate payloads have identical lengths.
fn payload(tag: u64) -> Vec<Work> {
    (0..64)
        .map(|i| Work {
            issue: 1.0 + tag as f64,
            l1: i as f64,
            dram: (tag % 7) as f64 * 0.25,
            ..Default::default()
        })
        .collect()
}

fn store(key: &str, tag: u64) {
    store_arrays(key, &[tag], &[&payload(tag)]);
}

/// The tag of the entry under `key`, checked to be one writer's complete
/// snapshot; `None` on a miss.
fn load(key: &str) -> Option<u64> {
    let (meta, arrays) = load_arrays(key, 1, 1)?;
    assert_eq!(*arrays[0], payload(meta[0]), "entry mixes two writers");
    Some(meta[0])
}

/// Many threads hammer one key while a reader polls it: every observed
/// entry is a complete snapshot from exactly one writer, and what the last
/// persist left on disk parses after a reopen.
#[test]
fn concurrent_writers_never_leave_a_torn_file() {
    let _tier = tier("stress");
    let key = "wl1-stress-key";
    let (writers, rounds) = (8, 30);
    let first_store_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..writers {
            let first_store_done = &first_store_done;
            s.spawn(move || {
                for r in 0..rounds {
                    store(key, w * rounds + r);
                    first_store_done.store(true, Ordering::Release);
                    // Some writer's snapshot, not necessarily ours.
                    load(key).expect("entry must parse after any store");
                }
            });
        }
        s.spawn(|| {
            let mut seen = 0;
            while seen < 200 {
                if first_store_done.load(Ordering::Acquire) {
                    load(key).expect("reader saw no entry");
                    seen += 1;
                }
                std::hint::spin_loop();
            }
        });
    });
    clear_memory(); // close the handle: the next load recovers from disk
    load(key).expect("final entry must parse");
}

/// A writer that bypassed the container discipline (simulated by putting
/// every truncation of a good container straight into the store, behind
/// valid record checksums) must never hand the reader data: the container
/// checksum rejects every prefix, the entry is dropped, and a
/// recompute-and-store round restores a loadable entry.
#[test]
fn killed_writer_truncations_all_quarantine_then_recompute_recovers() {
    let tier = tier("kill");
    let key = "wl1-kill-key";
    store(key, 3);
    // The same handle the cache holds (the store shares one per path).
    let raw = mic_eval::store::Store::open_shared(&tier.file, Default::default()).unwrap();
    let good = raw.get(key.as_bytes()).expect("stored container");
    // Step 7 keeps the test fast while still hitting header, meta,
    // payload, and checksum cuts.
    for cut in (0..good.len()).step_by(7) {
        raw.put(key.as_bytes(), &good[..cut]).unwrap();
        assert_eq!(load(key), None, "a {cut}-byte torn container loaded");
        assert!(raw.get(key.as_bytes()).is_none(), "cut {cut} not dropped");
        store(key, 3);
        assert_eq!(load(key), Some(3), "recompute must recover");
    }
}

/// The store is the only durable tier: a workload stored in one config
/// session is served, bit-identical, to a later session that opens the
/// same file cold — and is a plain miss once the tier is switched off.
#[test]
fn store_tier_serves_workloads_after_file_cache_loss() {
    let tier = tier("spill");
    let key = "wl1-spill-key";
    store(key, 33);
    clear_memory();
    install(&tier.file);
    assert_eq!(load(key), Some(33), "a second session must hit the store");
    SuiteConfig::default().install();
    assert_eq!(load(key), None, "with the store tier off: a miss");
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

/// Crash-mid-append matrix on the store file itself: truncate it at every
/// record boundary, at every byte of the last record and every 512 bytes,
/// then reload. Whatever state the "crash" left,
/// the cache must hand back either the exact workload or a
/// miss-and-recompute — never corrupt arrays — and a record that ended
/// before the cut must still load.
#[test]
fn store_file_crash_matrix_recovers_or_misses_never_corrupts() {
    let tier = tier("crash");
    let (first, key) = ("wl1-crash-first", "wl1-crash-key");
    store(first, 43);
    store(key, 44);
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
        let want_first = (cut >= ends[1]).then_some(43);
        assert!(matches!(load(key), None | Some(44)), "cut {cut}");
        assert_eq!(load(first), want_first, "cut {cut}: an intact record");
        // The recovery path every caller takes: recompute, store, reload.
        store(key, 44);
        assert_eq!(load(key), Some(44), "cut {cut}: recompute must recover");
        clear_memory(); // close the handle before the next "crash"
    }
}

/// A `MIC_STORE` that cannot be opened (its parent is a regular file)
/// costs the durable tier, nothing else: keyed workloads still build and
/// share in memory, stores are no-ops and loads are misses.
#[test]
fn unopenable_store_degrades_to_memory_only() {
    use mic_eval::graph::suite::{PaperGraph, Scale};
    use mic_eval::workload_cache::{coloring, OrderTag};
    let tier = tier("unopenable");
    let blocker = tier.file.with_file_name("not-a-dir");
    std::fs::write(&blocker, b"x").unwrap();
    install(&blocker.join("cache.pg"));
    let build = || {
        let (graph, scale) = (PaperGraph::Hood, Scale::Vertices(300));
        coloring(graph, scale, OrderTag::Natural, Default::default())
    };
    let (a, b) = (build(), build());
    assert!(std::sync::Arc::ptr_eq(&a, &b), "the in-memory tier shares");
    assert!(!a.tentative.is_empty());
    store("wl1-unopenable", 5);
    assert_eq!(load("wl1-unopenable"), None);
    assert_eq!(std::fs::read(&blocker).unwrap(), b"x");
}

/// One whole exhibit renders byte-identical text with no store, a cold
/// store, a warm store read by a second session, and a warm store with a
/// flipped byte: the tier changes where workloads come from, never what
/// they are.
#[test]
fn exhibit_text_is_identical_across_store_setups() {
    let tier = tier("fig2");
    let fig2 = mic_eval::exhibit::registry().get("fig2").expect("fig2");
    let scale = mic_eval::graph::suite::Scale::Vertices(1500);
    // (text, store-tier hits, store-tier misses) of one cold-memory render.
    let render = || {
        clear_memory();
        let (text, snap) = mic_eval::metrics::with_session(|| (fig2.run)(scale));
        let count = |name: &str| snap.value(name, &[]).unwrap_or(0.0);
        let (hits, misses) = ("mic_cache_hits_total", "mic_cache_misses_total");
        (text, count(hits), count(misses))
    };

    SuiteConfig::default().install();
    let (reference, hits, misses) = render();
    assert_eq!((hits, misses), (0.0, 0.0), "no store, no store traffic");

    install(&tier.file);
    let (cold, hits, misses) = render();
    assert_eq!(cold, reference, "cold store changed the exhibit");
    assert!(hits == 0.0 && misses > 0.0, "a fresh store only misses");

    install(&tier.file); // a second session on the same file
    let (warm, hits, _) = render();
    assert_eq!(warm, reference, "warm store changed the exhibit");
    assert!(hits > 0.0, "the second session must read the store");

    clear_memory();
    let mut bytes = std::fs::read(&tier.file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&tier.file, &bytes).unwrap();
    let (flipped, hits, _) = render();
    assert_eq!(flipped, reference, "a flipped byte reached the exhibit");
    assert!(hits > 0.0, "undamaged entries still hit");
}

/// The configured fault plan is the cache tier's IO-fault injector: with
/// every store open failing, `fig2` renders the store-less text and the
/// session counts the injected opens.
#[test]
fn config_fault_plan_reaches_the_store_tier() {
    let tier = tier("fault");
    let fig2 = mic_eval::exhibit::registry().get("fig2").expect("fig2");
    let scale = mic_eval::graph::suite::Scale::Vertices(1500);
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
