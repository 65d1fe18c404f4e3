//! The store proper: an append-only log of checksummed records.
//!
//! ```text
//! b"MICLOG1\0" · record · record · …
//! record = key_len u32 · val_len u32 · xxh64(key ‖ val) u64
//!          · xxh64(the 16 bytes before it) u64 · key · val
//! ```
//!
//! `val_len == u32::MAX` marks a tombstone, which carries no value. Every
//! value the store holds is written once, so `put` appends a record under
//! the writer lock and `persist` is one fsync. `open` rebuilds the key →
//! offset index by reading record headers and keys (values are seeked
//! over), the last record of a key winning. The scan stops at the first
//! header that fails its checksum or whose lengths run past the end of the
//! file, and cuts the file there: that is the torn tail a crash leaves.
//! `get` is one positioned read, verified against the header, the value
//! checksum and the requested key, so it returns the exact bytes `put`
//! stored, or a miss.

use crate::fault::{self, IoFault, IoFaults, IoOp, IoSite};
use crate::xxh64::xxh64;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};

/// Log magic + format version. A file with any other magic, such as the
/// paged `MICPG1` format's, is quarantined at open.
const MAGIC: &[u8; 8] = b"MICLOG1\0";

/// Bytes of framing in front of every record's key.
const HEADER: usize = 24;

/// `val_len` of a tombstone record.
const TOMBSTONE: u32 = u32::MAX;

/// Write fault sites fall every this many bytes of a record: a device
/// tears a large write one block at a time.
const BLOCK: usize = 4096;

/// Write-back policy and fault injection.
#[derive(Clone, Debug, Default)]
pub struct StoreOpts {
    /// Persist after this many `put`s; 0 = only explicit `persist`.
    pub sync_every: usize,
    /// Consulted at every open, record write and fsync; `None` injects
    /// nothing.
    pub faults: Option<Arc<dyn IoFaults>>,
}

/// Monotonic operation counters, readable without any store lock.
#[derive(Default)]
pub struct StoreStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub checksum_failures: AtomicU64,
    pub recoveries: AtomicU64,
    pub persists: AtomicU64,
    pub records_written: AtomicU64,
}

impl StoreStats {
    /// `(name, value)` rows in stable order, for stats surfaces and tests.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        vec![
            ("store_hits", r(&self.hits)),
            ("store_misses", r(&self.misses)),
            ("store_checksum_failures", r(&self.checksum_failures)),
            ("store_recoveries", r(&self.recoveries)),
            ("store_persists", r(&self.persists)),
            ("store_records_written", r(&self.records_written)),
        ]
    }
}

/// Mirror a stats bump into the `mic_store_*` metric family when the
/// registry is on; the atomic in `StoreStats` is always updated.
fn bump(counter: &AtomicU64, name: &str, help: &'static str) {
    counter.fetch_add(1, Ordering::Relaxed);
    if mic_metrics::enabled() {
        mic_metrics::counter(name, help, &[]).inc();
    }
}

/// A decoded record header.
#[derive(Clone, Copy)]
struct Header {
    key_len: u32,
    val_len: u32,
    sum: u64,
}

impl Header {
    /// Value bytes on disk (a tombstone has none).
    fn val_bytes(&self) -> u64 {
        match self.val_len {
            TOMBSTONE => 0,
            n => n as u64,
        }
    }

    /// Whole record length, framing included.
    fn record_len(&self) -> u64 {
        HEADER as u64 + self.key_len as u64 + self.val_bytes()
    }

    /// `None` when the header's own checksum fails.
    fn decode(b: &[u8]) -> Option<Header> {
        let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        (xxh64(&b[..16], 0) == word(16)).then(|| Header {
            key_len: u32::from_le_bytes(b[..4].try_into().unwrap()),
            val_len: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            sum: word(8),
        })
    }
}

/// One framed record; `val == None` is a tombstone.
fn encode_record(key: &[u8], val: Option<&[u8]>) -> io::Result<Vec<u8>> {
    let body = val.unwrap_or_default();
    let len = |n: usize| u32::try_from(n).ok().filter(|&n| n != TOMBSTONE);
    let (Some(key_len), Some(val_len)) = (len(key.len()), len(body.len())) else {
        let what = "mic-store: key or value of 4 GiB or more";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    };
    let mut rec = Vec::with_capacity(HEADER + key.len() + body.len());
    rec.extend_from_slice(&key_len.to_le_bytes());
    rec.extend_from_slice(&val.map_or(TOMBSTONE, |_| val_len).to_le_bytes());
    rec.extend_from_slice(&[0; 16]);
    rec.extend_from_slice(key);
    rec.extend_from_slice(body);
    let sum = xxh64(&rec[HEADER..], 0);
    rec[8..16].copy_from_slice(&sum.to_le_bytes());
    let head_sum = xxh64(&rec[..16], 0);
    rec[16..24].copy_from_slice(&head_sum.to_le_bytes());
    Ok(rec)
}

/// Where a key's live value record starts, and its value length.
#[derive(Clone, Copy)]
struct Entry {
    off: u64,
    val_len: u32,
}

type Index = HashMap<Vec<u8>, Entry>;

/// State only the appender touches.
struct Writer {
    /// File offset the next record lands at.
    end: u64,
    puts_since_persist: usize,
}

/// Crash-safe append-only key→bytes store. Thread-safe: reads are
/// positioned reads on a shared descriptor, writes serialize on one
/// writer lock. Single-process: two *processes* opening the same file is
/// not supported (use [`Store::open_shared`] to share one handle within a
/// process).
pub struct Store {
    file: File,
    index: RwLock<Index>,
    writer: Mutex<Writer>,
    sync_every: usize,
    stats: StoreStats,
    faults: Option<Arc<dyn IoFaults>>,
}

impl Store {
    /// Open (or create) the log at `path` and rebuild its index. A torn
    /// tail is cut off (counted as a recovery); a file that is not a log
    /// of this format is quarantined to a unique `<name>.corrupt[.N]` and
    /// the store starts empty — corruption never aborts the caller.
    pub fn open(path: &Path, opts: StoreOpts) -> io::Result<Store> {
        let open_site = IoSite {
            op: IoOp::Open,
            site: xxh64(path.as_os_str().as_encoded_bytes(), 0),
        };
        if opts.faults.iter().any(|f| f.io_fault(&open_site).is_some()) {
            return Err(fault::injected_error("open failure", &open_site));
        }
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let stats = StoreStats::default();
        let mut file = open_rw(path)?;
        let (index, end) = match scan(&file, path, &stats)? {
            Some(scanned) => scanned,
            None => {
                count_recovery(&stats, u64::MAX);
                quarantine(path);
                file = open_rw(path)?;
                (Index::new(), 0)
            }
        };
        if end == 0 {
            file.write_all_at(MAGIC, 0)?;
        }
        Ok(Store {
            file,
            index: RwLock::new(index),
            writer: Mutex::new(Writer {
                end: end.max(MAGIC.len() as u64),
                puts_since_persist: 0,
            }),
            sync_every: opts.sync_every,
            stats,
            faults: opts.faults,
        })
    }

    /// Open `path`, sharing one `Store` per path within this process —
    /// the workload cache and every serve shard pointing at the same file get
    /// the same handle (the store is single-writer per file). A path that
    /// is already open keeps its first opener's options.
    pub fn open_shared(path: &Path, opts: StoreOpts) -> io::Result<Arc<Store>> {
        static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Weak<Store>>>> = OnceLock::new();
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let key = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
        let mut map = registry.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(live) = map.get(&key).and_then(Weak::upgrade) {
            return Ok(live);
        }
        let store = Arc::new(Store::open(path, opts)?);
        map.insert(key, Arc::downgrade(&store));
        Ok(store)
    }

    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Fetch `key`'s value: the exact bytes the last `put` stored, or
    /// `None`. A record that fails its checksums or names another key is
    /// dropped from the index (counted) and reads as a miss.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let stats = &self.stats;
        let entry = self.index().get(key).copied();
        let val = entry.and_then(|entry| self.read_value(key, entry));
        if let (None, Some(entry)) = (&val, entry) {
            let mut index = self.index_mut();
            if index.get(key).is_some_and(|e| e.off == entry.off) {
                index.remove(key);
            }
            let help = "Store records dropped by a failed checksum or key check.";
            bump(
                &stats.checksum_failures,
                "mic_store_checksum_failures_total",
                help,
            );
        }
        let (counter, name) = match val {
            Some(_) => (&stats.hits, "mic_store_hits_total"),
            None => (&stats.misses, "mic_store_misses_total"),
        };
        bump(counter, name, "Store reads, by outcome.");
        val
    }

    /// Append `key` → `val`. The record is readable at once and durable
    /// after the next `persist` (or automatically every `sync_every`
    /// puts). A failed write indexes nothing, and the next record is
    /// written over its remains.
    pub fn put(&self, key: &[u8], val: &[u8]) -> io::Result<()> {
        let rec = encode_record(key, Some(val))?;
        let mut w = self.writer();
        let off = self.append(&mut w, &rec)?;
        let val_len = val.len() as u32;
        self.index_mut()
            .insert(key.to_vec(), Entry { off, val_len });
        w.puts_since_persist += 1;
        if self.sync_every > 0 && w.puts_since_persist >= self.sync_every {
            self.sync(&mut w)?;
        }
        Ok(())
    }

    /// Drop `key`, appending a tombstone so it stays dropped after a
    /// reopen. Returns whether the key was present.
    pub fn remove(&self, key: &[u8]) -> bool {
        let mut w = self.writer();
        if self.index_mut().remove(key).is_none() {
            return false;
        }
        // A failed tombstone costs one more rejected read after a reopen.
        if let Ok(rec) = encode_record(key, None) {
            let _ = self.append(&mut w, &rec);
        }
        true
    }

    /// Make every appended record durable: one fsync.
    pub fn persist(&self) -> io::Result<()> {
        self.sync(&mut self.writer())
    }

    // -- internals ----------------------------------------------------------

    fn index(&self) -> std::sync::RwLockReadGuard<'_, Index> {
        self.index.read().unwrap_or_else(|e| e.into_inner())
    }

    fn index_mut(&self) -> std::sync::RwLockWriteGuard<'_, Index> {
        self.index.write().unwrap_or_else(|e| e.into_inner())
    }

    fn writer(&self) -> std::sync::MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn io_fault(&self, site: &IoSite) -> Option<IoFault> {
        self.faults.as_ref()?.io_fault(site)
    }

    /// Read and verify `key`'s record at `entry`; `None` = any check failed.
    fn read_value(&self, key: &[u8], entry: Entry) -> Option<Vec<u8>> {
        let mut rec = vec![0u8; HEADER + key.len() + entry.val_len as usize];
        self.file.read_exact_at(&mut rec, entry.off).ok()?;
        let h = Header::decode(&rec[..HEADER])?;
        let body = &rec[HEADER..];
        let ok = h.key_len as usize == key.len()
            && h.val_len == entry.val_len
            && &body[..key.len()] == key
            && xxh64(body, 0) == h.sum;
        ok.then(|| rec.split_off(HEADER + key.len()))
    }

    /// Write `rec` at the end of the log and return its offset. Each
    /// `BLOCK` of the record is one fault site, named by its file offset
    /// (the first block's is the record's): `Fail` lands the blocks before
    /// it and errors, `ShortWrite` also lands half of its own block,
    /// `TornPage` silently corrupts its block and the write succeeds.
    fn append(&self, w: &mut Writer, rec: &[u8]) -> io::Result<u64> {
        let off = w.end;
        let mut bytes = Cow::Borrowed(rec);
        let mut failed = None;
        for start in (0..rec.len()).step_by(BLOCK) {
            let block = start..rec.len().min(start + BLOCK);
            let site = IoSite {
                op: IoOp::Write,
                site: off + start as u64,
            };
            match self.io_fault(&site) {
                None => {}
                Some(IoFault::TornPage) => {
                    let torn = &mut bytes.to_mut()[block];
                    let mid = torn.len() / 2;
                    torn[mid] ^= 0xA5;
                    torn[mid / 2] ^= 0x5A;
                }
                Some(IoFault::Fail) => {
                    failed = Some((start, site, "write failure"));
                    break;
                }
                Some(IoFault::ShortWrite) => {
                    failed = Some((start + block.len() / 2, site, "short write"));
                    break;
                }
            }
        }
        let landed = failed.map_or(rec.len(), |(len, ..)| len);
        self.file.write_all_at(&bytes[..landed], off)?;
        if let Some((_, site, what)) = failed {
            return Err(fault::injected_error(what, &site));
        }
        w.end += rec.len() as u64;
        let help = "Records appended to the store log.";
        bump(
            &self.stats.records_written,
            "mic_store_records_written_total",
            help,
        );
        Ok(off)
    }

    /// One fsync (site = the log length it makes durable).
    fn sync(&self, w: &mut Writer) -> io::Result<()> {
        let site = IoSite {
            op: IoOp::Fsync,
            site: w.end,
        };
        if self.io_fault(&site).is_some() {
            return Err(fault::injected_error("fsync failure", &site));
        }
        self.file.sync_all()?;
        w.puts_since_persist = 0;
        let help = "Successful fsyncs of the store log.";
        bump(&self.stats.persists, "mic_store_persists_total", help);
        Ok(())
    }
}

fn open_rw(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
}

/// Rebuild the index from record headers and keys, seeking over values,
/// and cut a torn tail off. Returns the index and the log length (0 for
/// an empty file); `Ok(None)` when the file is not a log of this format.
fn scan(file: &File, path: &Path, stats: &StoreStats) -> io::Result<Option<(Index, u64)>> {
    let file_len = file.metadata()?.len();
    if file_len == 0 {
        return Ok(Some((Index::new(), 0)));
    }
    if file_len < MAGIC.len() as u64 {
        return Ok(None);
    }
    let mut magic = [0u8; MAGIC.len()];
    file.read_exact_at(&mut magic, 0)?;
    if &magic != MAGIC {
        return Ok(None);
    }
    let mut reader = BufReader::with_capacity(1 << 16, file);
    reader.seek(SeekFrom::Start(MAGIC.len() as u64))?;
    let mut index = Index::new();
    let mut off = MAGIC.len() as u64;
    while let Some((h, key)) = next_record(&mut reader, file_len - off)? {
        match h.val_len {
            TOMBSTONE => index.remove(&key),
            val_len => index.insert(key, Entry { off, val_len }),
        };
        off += h.record_len();
    }
    if off < file_len {
        file.set_len(off)?;
        count_recovery(stats, off);
        eprintln!(
            "mic-store: {} had a torn tail; cut from {file_len} to {off} bytes",
            path.display()
        );
    }
    Ok(Some((index, off)))
}

/// The next record's header and key, or `None` at a header that fails
/// its checksum or runs past the `left` bytes the file still holds.
fn next_record(reader: &mut BufReader<&File>, left: u64) -> io::Result<Option<(Header, Vec<u8>)>> {
    if left < HEADER as u64 {
        return Ok(None);
    }
    let mut head = [0u8; HEADER];
    reader.read_exact(&mut head)?;
    let Some(h) = Header::decode(&head).filter(|h| h.record_len() <= left) else {
        return Ok(None);
    };
    let mut key = vec![0u8; h.key_len as usize];
    reader.read_exact(&mut key)?;
    reader.seek_relative(h.val_bytes() as i64)?;
    Ok(Some((h, key)))
}

/// `at` is the length the log was cut to, or `u64::MAX` when the file
/// was quarantined.
fn count_recovery(stats: &StoreStats, at: u64) {
    mic_obs::flight::record(mic_obs::flight::EventKind::StoreRecovery, at, 0, 0);
    let help = "Opens that cut a torn tail or quarantined the file.";
    bump(&stats.recoveries, "mic_store_recoveries_total", help);
}

/// Move a file that is not a log aside to the first free
/// `<name>.corrupt[.N]`, keeping the evidence of every incident:
/// `hard_link` claims a name atomically, and an existing one moves on to
/// the next suffix. Only a file no name can be claimed for is deleted.
fn quarantine(path: &Path) {
    let shown = path.display();
    let mut moved_to = String::from("nowhere; deleting it");
    for i in 0..100u32 {
        let dest = match i {
            0 => format!("{shown}.corrupt"),
            i => format!("{shown}.corrupt.{i}"),
        };
        match std::fs::hard_link(path, &dest) {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            linked => {
                if linked.is_ok() {
                    moved_to = dest;
                }
                break;
            }
        }
    }
    eprintln!("mic-store: {shown} is not a MICLOG1 log; quarantined to {moved_to}");
    let _ = std::fs::remove_file(path);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mic-store-unit-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{tag}.log"));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn put_get_roundtrip_small_large_and_empty() {
        let path = tmp("roundtrip");
        let store = Store::open(&path, StoreOpts::default()).unwrap();
        let big: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
        store.put(b"small", b"hello").unwrap();
        store.put(b"big", &big).unwrap();
        store.put(b"empty", b"").unwrap();
        assert_eq!(store.get(b"small").as_deref(), Some(b"hello".as_slice()));
        assert_eq!(store.get(b"big").as_deref(), Some(big.as_slice()));
        assert_eq!(store.get(b"empty").as_deref(), Some(b"".as_slice()));
        assert!(store.get(b"absent").is_none());
        assert_eq!(store.stats().hits.load(Ordering::Relaxed), 3);
        assert_eq!(store.stats().misses.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_grows_by_exactly_one_record_per_put() {
        let path = tmp("growth");
        let store = Store::open(&path, StoreOpts::default()).unwrap();
        let mut want = MAGIC.len() as u64;
        for i in 0..100u64 {
            let key = format!("coloring/hood/Natural/1/{i}");
            store.put(key.as_bytes(), &i.to_le_bytes()).unwrap();
            want += 32 + key.len() as u64;
        }
        store.put(b"k", b"").unwrap();
        assert!(store.remove(b"k"), "a tombstone is a record too");
        want += 2 * 25;
        store.persist().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), want);
        assert_eq!(store.stats().records_written.load(Ordering::Relaxed), 102);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_open_returns_one_handle_per_path() {
        let path = tmp("shared");
        let a = Store::open_shared(&path, StoreOpts::default()).unwrap();
        let b = Store::open_shared(&path, StoreOpts::default()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let _ = std::fs::remove_file(&path);
    }
}
