//! Crash-recovery invariant tests for `mic-store`'s record log.
//!
//! The invariant every test here pins: after ANY injected io fault or
//! simulated crash (file truncation, flipped bytes, forged lengths, torn
//! or short record writes), reopening the store succeeds and every key
//! reads either as a miss or as the exact bytes a `put` stored — **never**
//! as corrupt data. Keys whose last record lies wholly before the damage
//! read exactly as they did before it.
//!
//! Each io-fault test opens its store with its own injector in
//! [`StoreOpts::faults`], so no test sees another's faults.

use mic_store::fault::{IoFault, IoFaults, IoOp, IoSite};
use mic_store::{xxh64, Store, StoreOpts};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// On-disk layout (the `MICLOG1` format): an 8-byte magic, then records of
/// `u32` key length, `u32` value length (`u32::MAX` = tombstone), the
/// key ‖ value checksum and the checksum of the 16 bytes before it.
const MAGIC: u64 = 8;
const HEADER: usize = 24;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mic-store-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> StoreOpts {
    StoreOpts::default()
}

/// A test injector: `fault` at every `op` site while armed.
#[derive(Debug)]
struct Hook {
    armed: AtomicBool,
    op: IoOp,
    fault: IoFault,
}

impl IoFaults for Hook {
    fn io_fault(&self, site: &IoSite) -> Option<IoFault> {
        (site.op == self.op && self.armed.load(Ordering::SeqCst)).then_some(self.fault)
    }
}

/// A disarmed injector, and the options that carry it.
fn hooked(op: IoOp, fault: IoFault) -> (Arc<Hook>, StoreOpts) {
    let armed = AtomicBool::new(false);
    let hook = Arc::new(Hook { armed, op, fault });
    let faults = Some(hook.clone() as Arc<dyn IoFaults>);
    (hook, StoreOpts { faults, ..opts() })
}

/// Put `a`, then `b` (two 4 KiB fault blocks) under one armed write `fault`, then
/// `c` and `d`, and persist. Returns what `put(b)` said and the store.
fn fault_in_the_middle(path: &Path, fault: IoFault) -> (std::io::Result<()>, Store) {
    let (hook, hooked_opts) = hooked(IoOp::Write, fault);
    let store = Store::open(path, hooked_opts).unwrap();
    store.put(b"a", &payload(1, 200)).unwrap();
    hook.armed.store(true, Ordering::SeqCst);
    let put_b = store.put(b"b", &payload(2, 6000));
    hook.armed.store(false, Ordering::SeqCst);
    // Short records: after a short write, part of b's torn prefix is left
    // past the end of the log.
    store.put(b"c", b"small").unwrap();
    store.put(b"d", b"also").unwrap();
    store.persist().unwrap();
    assert!(store.get(b"b").is_none(), "a faulted put read back");
    (put_b, store)
}

/// Reopen after [`fault_in_the_middle`]: `b` is a miss, the rest exact.
fn reopen_after_fault(path: &Path) -> Store {
    let store = Store::open(path, opts()).unwrap();
    assert_eq!(store.get(b"a"), Some(payload(1, 200)));
    assert!(store.get(b"b").is_none(), "the faulted record read back");
    assert_eq!(store.get(b"c").as_deref(), Some(b"small".as_slice()));
    assert_eq!(store.get(b"d").as_deref(), Some(b"also".as_slice()));
    store
}

fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect()
}

fn recoveries(store: &Store) -> u64 {
    store.stats().recoveries.load(Ordering::Relaxed)
}

/// `get` must be a miss or one of the values `put` stored under `key`;
/// anything else is the corruption the store exists to prevent.
fn get_checked(store: &Store, key: &[u8], allowed: &[&[u8]]) -> Option<Vec<u8>> {
    let got = store.get(key)?;
    assert!(
        allowed.contains(&got.as_slice()),
        "store returned WRONG BYTES for {:?}",
        String::from_utf8_lossy(key)
    );
    Some(got)
}

/// One operation of the reference log: a put, or a remove (tombstone).
type Op = (&'static [u8], Option<Vec<u8>>);

/// The reference file: three value records and a tombstone, persisted.
fn reference_ops() -> Vec<Op> {
    vec![
        (b"a", Some(payload(1, 300))),
        (b"b", Some(payload(2, 40))),
        (b"a", None),
        (b"c", Some(payload(3, 0))),
    ]
}

fn write_log(path: &Path, ops: &[Op]) -> Vec<u64> {
    let store = Store::open(path, opts()).unwrap();
    for (key, val) in ops {
        match val {
            Some(v) => store.put(key, v).unwrap(),
            None => assert!(store.remove(key)),
        }
    }
    store.persist().unwrap();
    let mut ends = vec![MAGIC];
    for (key, val) in ops {
        let len = HEADER + key.len() + val.as_ref().map_or(0, Vec::len);
        ends.push(ends[ends.len() - 1] + len as u64);
    }
    assert_eq!(std::fs::metadata(path).unwrap().len(), ends[ends.len() - 1]);
    ends
}

/// Reopen `path` after damage to record `damaged` (`ops.len()` = none) and
/// check every key: a key whose last record precedes the damage reads as
/// in the undamaged log; any other key is a miss or a value it was given.
fn check_after_damage(path: &Path, ops: &[Op], damaged: usize, case: &str) {
    let store = Store::open(path, opts()).unwrap_or_else(|e| panic!("{case}: reopen: {e}"));
    for key in [b"a", b"b", b"c"].map(|k| k.as_slice()) {
        let puts: Vec<&[u8]> = ops
            .iter()
            .filter(|(k, _)| *k == key)
            .filter_map(|(_, v)| v.as_deref())
            .collect();
        let last = ops.iter().rposition(|(k, _)| *k == key).unwrap();
        let got = get_checked(&store, key, &puts);
        if last < damaged {
            let want = ops[last].1.clone();
            assert_eq!(got, want, "{case}: key {key:?} lost before the damage");
        }
    }
}

fn patch(path: &Path, off: u64, bytes: &[u8]) {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(off)).unwrap();
    f.write_all(bytes).unwrap();
}

/// Write the reference log, then for every `(file bytes, damaged record,
/// case)` that `damage` makes of it (given the log and its record ends),
/// reopen that file and [`check_after_damage`].
fn each_damaged_copy(tag: &str, damage: impl Fn(&[u8], &[u64]) -> Vec<(Vec<u8>, usize, String)>) {
    let dir = tmp_dir(tag);
    let (golden, victim) = (dir.join("golden.log"), dir.join("victim.log"));
    let ops = reference_ops();
    let ends = write_log(&golden, &ops);
    for (bytes, damaged, case) in damage(&std::fs::read(&golden).unwrap(), &ends) {
        std::fs::write(&victim, &bytes).unwrap();
        check_after_damage(&victim, &ops, damaged, &case);
        if bytes.len() as u64 >= MAGIC && bytes[..MAGIC as usize] == *b"MICLOG1\0" {
            let len = std::fs::metadata(&victim).unwrap().len();
            assert!(len >= ends[damaged], "{case}: intact records cut off");
        }
        let _ = std::fs::remove_file(format!("{}.corrupt", victim.display()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_returns_bit_identical_state() {
    let dir = tmp_dir("reopen");
    let path = dir.join("store.log");
    let ops = reference_ops();
    write_log(&path, &ops);
    let store = Store::open(&path, opts()).unwrap();
    assert!(store.get(b"a").is_none(), "the tombstone survives a reopen");
    assert_eq!(store.get(b"b"), ops[1].1);
    assert_eq!(store.get(b"c"), ops[3].1);
    assert_eq!(recoveries(&store), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_byte_is_miss_or_exact() {
    each_damaged_copy("truncate", |log, ends| {
        let whole = |cut: usize| ends.iter().filter(|&&e| e <= cut as u64).count();
        let cut = |n: usize| {
            (
                log[..n].to_vec(),
                whole(n).saturating_sub(1),
                format!("cut {n}"),
            )
        };
        (0..log.len()).map(cut).collect()
    });
}

#[test]
fn every_flipped_byte_is_caught_or_harmless() {
    each_damaged_copy("flip", |log, ends| {
        let record = |off: usize| ends.iter().filter(|&&e| e <= off as u64).count();
        let flip = |off: usize| {
            let mut bytes = log.to_vec();
            bytes[off] ^= 0xFF;
            (bytes, record(off).saturating_sub(1), format!("flip {off}"))
        };
        (0..log.len()).map(flip).collect()
    });
}

#[test]
fn forged_lengths_stop_the_scan_before_eof() {
    each_damaged_copy("lengths", |log, ends| {
        let mut copies = Vec::new();
        for (rec, &start) in ends[..ends.len() - 1].iter().enumerate() {
            let start = start as usize;
            // One byte more than this record's first byte to EOF holds.
            let past_eof = (log.len() - start - HEADER + 1) as u32;
            for field in [0, 4] {
                for (value, reseal) in [
                    (u32::MAX, false),
                    (past_eof, false),
                    (u32::MAX, true),
                    (past_eof, true),
                ] {
                    let mut bytes = log.to_vec();
                    bytes[start + field..start + field + 4].copy_from_slice(&value.to_le_bytes());
                    if reseal {
                        // A forged header that passes its own checksum:
                        // only the length-vs-EOF check stands in the way.
                        let sum = xxh64(&bytes[start..start + 16], 0);
                        bytes[start + 16..start + 24].copy_from_slice(&sum.to_le_bytes());
                    }
                    let case = format!("record {rec} field {field} = {value} reseal {reseal}");
                    copies.push((bytes, rec, case));
                }
            }
        }
        copies
    });
}

#[test]
fn old_paged_format_is_quarantined_and_opens_empty() {
    let dir = tmp_dir("old-format");
    let path = dir.join("store.pg");
    let mut old = b"MICPG1\0\0".to_vec();
    old.resize(4096 + 512, 0x11);
    std::fs::write(&path, &old).unwrap();
    let store = Store::open(&path, opts()).unwrap();
    assert!(store.get(b"k").is_none(), "an old-format file opens empty");
    assert_eq!(recoveries(&store), 1);
    let evidence = PathBuf::from(format!("{}.corrupt", path.display()));
    assert_eq!(std::fs::read(&evidence).unwrap(), old, "evidence kept");
    store.put(b"k", b"new").unwrap();
    store.persist().unwrap();
    drop(store);
    let store = Store::open(&path, opts()).unwrap();
    assert_eq!(store.get(b"k").as_deref(), Some(b"new".as_slice()));
    // A second bad file claims the next suffix, not the same name.
    drop(store);
    std::fs::write(&path, &old).unwrap();
    let _store = Store::open(&path, opts()).unwrap();
    assert!(PathBuf::from(format!("{}.corrupt.1", path.display())).exists());
    assert!(evidence.exists(), "first evidence file must survive");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_newest_record_falls_back_to_the_previous_value() {
    let dir = tmp_dir("torn-newest");
    let path = dir.join("store.log");
    let (old_val, new_val) = (payload(7, 900), payload(8, 900));
    let store = Store::open(&path, opts()).unwrap();
    store.put(b"k", &old_val).unwrap();
    let newest = std::fs::metadata(&path).unwrap().len();
    store.put(b"k", &new_val).unwrap();
    store.persist().unwrap();
    drop(store);
    patch(&path, newest + 10, &[0xEE]);
    let store = Store::open(&path, opts()).unwrap();
    assert_eq!(store.get(b"k"), Some(old_val), "the earlier record wins");
    assert_eq!(recoveries(&store), 1, "cutting a torn tail is a recovery");
    assert_eq!(std::fs::metadata(&path).unwrap().len(), newest);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_failure_fails_persist_and_reopen_is_exact() {
    let dir = tmp_dir("fsync-fail");
    let path = dir.join("store.log");
    let (old_val, new_val) = (payload(11, 700), payload(12, 700));
    let (hook, hooked_opts) = hooked(IoOp::Fsync, IoFault::Fail);
    let store = Store::open(&path, hooked_opts).unwrap();
    store.put(b"k", &old_val).unwrap();
    store.persist().unwrap();
    hook.armed.store(true, Ordering::SeqCst);
    store.put(b"k", &new_val).unwrap();
    let err = store.persist().expect_err("fsync fault must fail persist");
    assert!(err.to_string().contains("mic-fault"), "{err}");
    drop(store);
    let store = Store::open(&path, opts()).unwrap();
    // The record reached the file, only its fsync was refused: the value
    // is the old or the new one, never a mix.
    get_checked(&store, b"k", &[&old_val, &new_val]).expect("not lost");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_record_write_indexes_nothing() {
    let dir = tmp_dir("write-fail");
    let path = dir.join("store.log");
    let (put_b, _) = fault_in_the_middle(&path, IoFault::Fail);
    assert!(put_b.unwrap_err().to_string().contains("mic-fault"));
    assert_eq!(recoveries(&reopen_after_fault(&path)), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_write_mid_file_is_overwritten_and_later_puts_survive() {
    let dir = tmp_dir("short-write");
    let path = dir.join("store.log");
    let (put_b, _) = fault_in_the_middle(&path, IoFault::ShortWrite);
    assert!(put_b.is_err(), "a short write must error");
    let store = reopen_after_fault(&path);
    assert_eq!(recoveries(&store), 1, "the torn remains are cut off");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_page_writes_never_surface_wrong_bytes() {
    let dir = tmp_dir("torn-record");
    let path = dir.join("store.log");
    // The `io-torn-page` class: the record lands corrupted, and the write
    // reports success; the read-time checksum catches it.
    let (put_b, store) = fault_in_the_middle(&path, IoFault::TornPage);
    put_b.expect("torn writes report success");
    // The failed read dropped the entry: a second read is a plain miss.
    assert!(store.get(b"b").is_none());
    assert_eq!(store.stats().checksum_failures.load(Ordering::Relaxed), 1);
    drop(store);
    reopen_after_fault(&path);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_record_that_names_another_key_is_a_miss() {
    let dir = tmp_dir("other-key");
    let path = dir.join("store.log");
    let ops: Vec<Op> = vec![(b"a", Some(payload(20, 64))), (b"b", Some(payload(21, 64)))];
    let ends = write_log(&path, &ops);
    let store = Store::open(&path, opts()).unwrap();
    // Under the open store, b's record (valid checksums, same lengths)
    // replaces a's: only the key check tells them apart.
    let bytes = std::fs::read(&path).unwrap();
    patch(&path, ends[0], &bytes[ends[1] as usize..ends[2] as usize]);
    assert!(store.get(b"a").is_none(), "a read b's value");
    assert_eq!(store.stats().checksum_failures.load(Ordering::Relaxed), 1);
    assert_eq!(store.get(b"b"), ops[1].1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_fault_surfaces_as_injected_error() {
    let dir = tmp_dir("open-fail");
    let path = dir.join("store.log");
    let site = xxh64(path.as_os_str().as_encoded_bytes(), 0);
    let (hook, hooked_opts) = hooked(IoOp::Open, IoFault::Fail);
    hook.armed.store(true, Ordering::SeqCst);
    let err = match Store::open(&path, hooked_opts) {
        Err(e) => e,
        Ok(_) => panic!("open fault must fail the open"),
    };
    assert!(err.to_string().contains("mic-fault"), "{err}");
    assert!(err.to_string().contains(&format!("site: {site}")), "{err}");
    assert!(!path.exists(), "a failed open creates no file");
    assert!(
        Store::open(&path, opts()).is_ok(),
        "opens cleanly without the injector"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A value whose every byte follows from `tag`, so a value mixing bytes
/// from two writers fails [`tag_of`] even though all values have one length.
fn tagged(tag: u64) -> Vec<u8> {
    let mix = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let body = (0..1000u64).map(|i| (i.wrapping_mul(31) ^ mix >> (i % 57)) as u8);
    tag.to_le_bytes().into_iter().chain(body).collect()
}

/// The tag of `key`'s value, checked to be one writer's complete value;
/// `None` on a miss.
fn tag_of(store: &Store, key: &[u8]) -> Option<u64> {
    let val = store.get(key)?;
    let tag = u64::from_le_bytes(val[..8].try_into().expect("an 8-byte tag"));
    assert!(val == tagged(tag), "value mixes two writers");
    Some(tag)
}

/// Many threads put and persist one key while a reader polls it: every
/// value read is one writer's complete value, and what the last persist
/// left on disk reads back after a reopen as the last put.
#[test]
fn concurrent_writers_never_leave_a_torn_file() {
    let dir = tmp_dir("writers");
    let path = dir.join("store.log");
    let store = Store::open(&path, opts()).unwrap();
    let key = b"stress-key";
    let (writers, rounds) = (8, 30);
    let first_put_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..writers {
            let (store, first_put_done) = (&store, &first_put_done);
            s.spawn(move || {
                for r in 0..rounds {
                    store.put(key, &tagged(w * rounds + r)).unwrap();
                    store.persist().unwrap();
                    first_put_done.store(true, Ordering::Release);
                    // Some writer's value, not necessarily ours.
                    tag_of(store, key).expect("value must read after any put");
                }
            });
        }
        s.spawn(|| {
            let mut seen = 0;
            while seen < 200 {
                if first_put_done.load(Ordering::Acquire) {
                    tag_of(&store, key).expect("reader saw no value");
                    seen += 1;
                }
                std::hint::spin_loop();
            }
        });
    });
    let last = tag_of(&store, key).expect("final value");
    drop(store);
    let reopened = tag_of(&Store::open(&path, opts()).unwrap(), key);
    assert_eq!(reopened, Some(last), "reopen lost the last put");
    let _ = std::fs::remove_dir_all(&dir);
}
