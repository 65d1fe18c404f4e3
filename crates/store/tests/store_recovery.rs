//! Crash-recovery invariant tests for `mic-store`.
//!
//! The invariant every test here pins: after ANY injected io fault or
//! simulated mid-persist crash (file truncation, torn header, flipped
//! page bytes), reopening the store either returns the exact bytes a
//! committed `put` stored, or reports a miss / quarantines the file —
//! **never** corrupt data.
//!
//! Each io-fault test opens its store with its own injector in
//! [`StoreOpts::faults`], so no test sees another's faults.

use mic_store::fault::{IoFault, IoFaults, IoOp, IoSite};
use mic_store::{xxh64, Store, StoreOpts};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// On-disk layout constants (fixed by the MICPG1 format, asserted by the
/// page-module unit tests): two 512-byte header slots, pages at 4096.
const HEADER_SLOT: u64 = 512;
const PAGES_START: u64 = 4096;
const PS: usize = 512;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mic-store-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> StoreOpts {
    StoreOpts {
        page_size: PS,
        pool_frames: 8,
        sync_every: 0,
        faults: None,
    }
}

/// A test injector: applies `rule` once armed.
#[derive(Debug)]
struct Hook {
    armed: AtomicBool,
    rule: fn(&IoSite) -> Option<IoFault>,
}

impl IoFaults for Hook {
    fn io_fault(&self, site: &IoSite) -> Option<IoFault> {
        (self.rule)(site).filter(|_| self.armed.load(Ordering::SeqCst))
    }
}

/// A disarmed injector applying `rule`, and the options that carry it.
fn hooked(rule: fn(&IoSite) -> Option<IoFault>) -> (Arc<Hook>, StoreOpts) {
    let armed = AtomicBool::new(false);
    let hook = Arc::new(Hook { armed, rule });
    let faults = Some(hook.clone() as Arc<dyn IoFaults>);
    (hook, StoreOpts { faults, ..opts() })
}

fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect()
}

fn flip_byte(path: &Path, off: u64) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(off)).unwrap();
    f.read_exact(&mut b).unwrap();
    b[0] ^= 0xFF;
    f.seek(SeekFrom::Start(off)).unwrap();
    f.write_all(&b).unwrap();
}

/// `get` must be a miss or the exact committed bytes; anything else is
/// the corruption the store exists to prevent.
fn assert_miss_or_exact(store: &Store, key: &[u8], want: &[u8]) -> bool {
    match store.get(key) {
        None => false,
        Some(got) => {
            assert_eq!(
                got,
                want,
                "store returned WRONG BYTES for {:?}",
                String::from_utf8_lossy(key)
            );
            true
        }
    }
}

#[test]
fn reopen_returns_bit_identical_state() {
    let dir = tmp_dir("reopen");
    let path = dir.join("store.pg");
    let big = payload(1, 3 * PS); // multi-page
    let small = payload(2, 40);
    {
        let store = Store::open(&path, opts()).unwrap();
        store.put(b"big", &big).unwrap();
        store.put(b"small", &small).unwrap();
        store.put(b"empty", b"").unwrap();
        store.persist().unwrap();
    }
    let store = Store::open(&path, opts()).unwrap();
    assert_eq!(store.get(b"big").as_deref(), Some(big.as_slice()));
    assert_eq!(store.get(b"small").as_deref(), Some(small.as_slice()));
    assert_eq!(store.get(b"empty").as_deref(), Some(b"".as_slice()));
    assert_eq!(store.stats().recoveries.load(Ordering::Relaxed), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_page_boundary_is_miss_or_exact() {
    let dir = tmp_dir("truncate");
    let golden = dir.join("golden.pg");
    let keys: Vec<(Vec<u8>, Vec<u8>)> = (0u8..4)
        .map(|i| (vec![b'k', i], payload(i, 200 + 600 * i as usize)))
        .collect();
    {
        let store = Store::open(&golden, opts()).unwrap();
        for (k, v) in &keys {
            store.put(k, v).unwrap();
        }
        store.persist().unwrap();
    }
    let full = std::fs::metadata(&golden).unwrap().len();
    // Every page boundary, plus cuts through both header slots and the
    // middle of a page — the states a kill -9 mid-persist leaves behind.
    let mut cuts: Vec<u64> = (0..)
        .map(|k| PAGES_START + k * PS as u64)
        .take_while(|&c| c < full)
        .collect();
    cuts.extend([0, 17, 256, HEADER_SLOT, 700, 1024, PAGES_START + 100]);
    for cut in cuts {
        let victim = dir.join(format!("cut-{cut}.pg"));
        std::fs::copy(&golden, &victim).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let store = Store::open(&victim, opts()).unwrap();
        for (k, v) in &keys {
            assert_miss_or_exact(&store, k, v);
        }
    }
    // The untruncated copy still yields every value exactly.
    let store = Store::open(&golden, opts()).unwrap();
    for (k, v) in &keys {
        assert_eq!(store.get(k).as_deref(), Some(v.as_slice()), "golden file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_newest_header_falls_back_one_epoch() {
    let dir = tmp_dir("torn-header");
    let path = dir.join("store.pg");
    let old_val = payload(7, 900);
    let new_val = payload(8, 900);
    {
        let store = Store::open(&path, opts()).unwrap();
        store.put(b"k", &old_val).unwrap();
        store.persist().unwrap(); // epoch 1 → slot B (offset 512)
        store.put(b"k", &new_val).unwrap();
        store.persist().unwrap(); // epoch 2 → slot A (offset 0)
    }
    // Tear the epoch-2 slot: flip bytes inside its checksummed prefix.
    flip_byte(&path, 10);
    flip_byte(&path, 30);
    let store = Store::open(&path, opts()).unwrap();
    assert_eq!(
        store.get(b"k").as_deref(),
        Some(old_val.as_slice()),
        "must fall back to the epoch-1 value, bit-identical"
    );
    assert_eq!(
        store.stats().recoveries.load(Ordering::Relaxed),
        1,
        "falling past a torn newer header counts as a recovery"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_headers_corrupt_quarantines_and_starts_fresh() {
    let dir = tmp_dir("quarantine");
    let path = dir.join("store.pg");
    {
        let store = Store::open(&path, opts()).unwrap();
        store.put(b"k", &payload(3, 600)).unwrap();
        store.persist().unwrap();
        store.put(b"k", &payload(4, 600)).unwrap();
        store.persist().unwrap();
    }
    for off in [8, 16, 24, 520, 528, 536] {
        flip_byte(&path, off);
    }
    let store = Store::open(&path, opts()).unwrap();
    assert!(
        store.get(b"k").is_none(),
        "unrecoverable file must read empty"
    );
    assert!(store.is_empty());
    assert_eq!(store.stats().recoveries.load(Ordering::Relaxed), 1);
    let evidence = PathBuf::from(format!("{}.corrupt", path.display()));
    assert!(evidence.exists(), "quarantine must keep the corrupt bytes");
    // A second corruption event claims the next suffix, not the same name.
    {
        let store2 = Store::open(&path, opts()).unwrap();
        store2.put(b"k", &payload(5, 600)).unwrap();
        store2.persist().unwrap();
        store2.put(b"k", &payload(6, 600)).unwrap();
        store2.persist().unwrap();
    }
    drop(store);
    for off in [8, 16, 24, 520, 528, 536] {
        flip_byte(&path, off);
    }
    let _store3 = Store::open(&path, opts()).unwrap();
    assert!(
        PathBuf::from(format!("{}.corrupt.1", path.display())).exists(),
        "second quarantine must get a unique suffix"
    );
    assert!(evidence.exists(), "first evidence file must survive");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_corrupted_page_is_caught_or_harmless() {
    let dir = tmp_dir("page-sweep");
    let golden = dir.join("golden.pg");
    let val = payload(9, 2000); // 5 data pages at page size 512
    {
        let store = Store::open(&golden, opts()).unwrap();
        store.put(b"k", &val).unwrap();
        store.persist().unwrap();
    }
    let full = std::fs::metadata(&golden).unwrap().len();
    let page_count = ((full - PAGES_START) / PS as u64) as usize;
    let value_pages = val.len().div_ceil(PS - 16);
    let mut caught = 0usize;
    for page in 0..page_count {
        let victim = dir.join(format!("page-{page}.pg"));
        std::fs::copy(&golden, &victim).unwrap();
        // Flip one payload byte in the middle of this page.
        flip_byte(&victim, PAGES_START + page as u64 * PS as u64 + 100);
        let store = Store::open(&victim, opts()).unwrap();
        if !assert_miss_or_exact(&store, b"k", &val) {
            caught += 1;
        }
    }
    // 100% catch rate: corrupting any page the value or directory lives
    // on must surface as a miss (value pages + ≥1 dir page), and no
    // corruption anywhere may surface wrong bytes (asserted above).
    assert!(
        caught > value_pages,
        "checksums caught {caught} of {page_count} page corruptions; \
         expected more than the {value_pages} value pages (dir chain too)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_failure_aborts_persist_and_keeps_old_state() {
    let dir = tmp_dir("fsync-fail");
    let path = dir.join("store.pg");
    let old_val = payload(11, 700);
    let (hook, hooked_opts) =
        hooked(|site: &IoSite| (site.op == IoOp::Fsync).then_some(IoFault::Fail));
    let store = Store::open(&path, hooked_opts).unwrap();
    store.put(b"k", &old_val).unwrap();
    store.persist().unwrap();
    hook.armed.store(true, Ordering::SeqCst);
    store.put(b"k", &payload(12, 700)).unwrap();
    let err = store.persist().expect_err("fsync fault must fail persist");
    assert!(err.to_string().contains("mic-fault"), "{err}");
    drop(store);
    let store = Store::open(&path, opts()).unwrap();
    assert_eq!(
        store.get(b"k").as_deref(),
        Some(old_val.as_slice()),
        "a failed persist must leave the last committed epoch intact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_header_write_keeps_old_epoch() {
    let dir = tmp_dir("header-fail");
    let path = dir.join("store.pg");
    let old_val = payload(13, 700);
    // Header-slot writes carry site == NO_PAGE; fail exactly those.
    // (A *short* header write is not a tear: the meaningful 56 bytes fit
    // the landed prefix — that is why the header fits one sector.)
    let (hook, hooked_opts) = hooked(|site: &IoSite| {
        (site.op == IoOp::Write && site.site == mic_store::NO_PAGE).then_some(IoFault::Fail)
    });
    let store = Store::open(&path, hooked_opts).unwrap();
    store.put(b"k", &old_val).unwrap();
    store.persist().unwrap();
    hook.armed.store(true, Ordering::SeqCst);
    store.put(b"k", &payload(14, 700)).unwrap();
    assert!(store.persist().is_err(), "failed header write must error");
    drop(store);
    let store = Store::open(&path, opts()).unwrap();
    assert_eq!(
        store.get(b"k").as_deref(),
        Some(old_val.as_slice()),
        "with no flip written, reopen must resume the committed epoch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_write_mid_chain_aborts_before_the_flip() {
    let dir = tmp_dir("short-chain");
    let path = dir.join("store.pg");
    let old_val = payload(17, 700);
    // Every data-page write (value + dir chain) stops halfway and errors
    // — the persist must abort before it ever reaches the header flip.
    let (hook, hooked_opts) = hooked(|site: &IoSite| {
        (site.op == IoOp::Write && site.site != mic_store::NO_PAGE).then_some(IoFault::ShortWrite)
    });
    let store = Store::open(&path, hooked_opts).unwrap();
    store.put(b"k", &old_val).unwrap();
    store.persist().unwrap();
    hook.armed.store(true, Ordering::SeqCst);
    store.put(b"k", &payload(18, 700)).unwrap();
    assert!(store.persist().is_err(), "short page write must error");
    drop(store);
    let store = Store::open(&path, opts()).unwrap();
    assert_eq!(
        store.get(b"k").as_deref(),
        Some(old_val.as_slice()),
        "torn staging pages must not disturb the committed epoch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_page_writes_never_surface_wrong_bytes() {
    let dir = tmp_dir("torn-pages");
    let path = dir.join("store.pg");
    let val = payload(15, 1500);
    {
        // Every data-page write silently lands corrupted but reports
        // success — persist itself cannot notice.
        let (hook, hooked_opts) = hooked(|site: &IoSite| {
            (site.op == IoOp::Write && site.site != mic_store::NO_PAGE).then_some(IoFault::TornPage)
        });
        let store = Store::open(&path, hooked_opts).unwrap();
        hook.armed.store(true, Ordering::SeqCst);
        store.put(b"k", &val).unwrap();
        store.persist().expect("torn writes report success");
    }
    let store = Store::open(&path, opts()).unwrap();
    // The directory chain itself was torn, so recovery quarantined; a
    // lookup must miss — returning the torn bytes would be corruption.
    assert!(
        store.get(b"k").is_none(),
        "torn pages must read as a miss, never as wrong bytes"
    );
    assert_eq!(store.stats().recoveries.load(Ordering::Relaxed), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_fault_surfaces_as_injected_error() {
    let dir = tmp_dir("open-fail");
    let path = dir.join("store.pg");
    let site = xxh64(path.as_os_str().as_encoded_bytes(), 0);
    let (hook, hooked_opts) = hooked(|s: &IoSite| (s.op == IoOp::Open).then_some(IoFault::Fail));
    hook.armed.store(true, Ordering::SeqCst);
    let err = match Store::open(&path, hooked_opts) {
        Err(e) => e,
        Ok(_) => panic!("open fault must fail the open"),
    };
    assert!(err.to_string().contains("mic-fault"), "{err}");
    assert!(err.to_string().contains(&format!("site: {site}")), "{err}");
    assert!(
        Store::open(&path, opts()).is_ok(),
        "opens cleanly without the injector"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
