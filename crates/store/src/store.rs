//! The store proper: directory, crash-safe persist, recovery.
//!
//! A `Store` is a key→bytes map backed by one file of fixed-size pages.
//! All mutation is copy-on-write: `put` stages value bytes on *freshly
//! allocated* pages (via the buffer pool), never overwriting a page the
//! last committed header references. `persist` makes the staged state
//! durable with the classic double-header flip:
//!
//! 1. flush every dirty page (new pages only, by construction),
//! 2. serialize the directory onto a fresh page chain,
//! 3. `fsync`,
//! 4. write the new header — epoch `e+1` — into the slot `e+1 % 2`
//!    (the slot the *previous* commit did not touch),
//! 5. `fsync` again.
//!
//! A crash anywhere before step 5 completes leaves the old header
//! intact and every page it references untouched, so reopening yields
//! the last committed state bit-for-bit. A crash *during* step 4 tears
//! the new slot; its checksum fails at open and recovery falls back to
//! the old slot. Torn data pages are caught by per-page checksums, torn
//! values by a whole-value checksum in the directory — a `get` returns
//! the exact bytes that were `put`, or a miss. Never a third thing.

use crate::fault::{self, IoFault, IoFaults, IoOp, IoSite};
use crate::free_list::FreePages;
use crate::page::{
    check_page, page_offset, payload_cap, seal_page, xxh64, Header, HEADER_SLOT, NO_PAGE,
};
use crate::pool::BufferPool;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Store geometry, write-back policy and fault injection.
#[derive(Clone, Debug)]
pub struct StoreOpts {
    /// Page size in bytes; clamped to [512, 1 MiB]. Fixed at file
    /// creation — reopening with a different value keeps the file's.
    pub page_size: usize,
    /// Buffer-pool capacity in frames (resident pages).
    pub pool_frames: usize,
    /// Auto-persist after this many `put`s; 0 = only explicit `persist`.
    pub sync_every: usize,
    /// Consulted at every open, page write and fsync; `None` injects
    /// nothing.
    pub faults: Option<Arc<dyn IoFaults>>,
}

impl Default for StoreOpts {
    fn default() -> StoreOpts {
        StoreOpts {
            page_size: 4096,
            pool_frames: 256,
            sync_every: 0,
            faults: None,
        }
    }
}

/// Monotonic operation counters, readable without the store lock.
#[derive(Default)]
pub struct StoreStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub checksum_failures: AtomicU64,
    pub recoveries: AtomicU64,
    pub persists: AtomicU64,
    pub pages_written: AtomicU64,
}

impl StoreStats {
    /// `(name, value)` rows in stable order, for stats surfaces and tests.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        vec![
            ("store_hits", r(&self.hits)),
            ("store_misses", r(&self.misses)),
            ("store_evictions", r(&self.evictions)),
            ("store_checksum_failures", r(&self.checksum_failures)),
            ("store_recoveries", r(&self.recoveries)),
            ("store_persists", r(&self.persists)),
            ("store_pages_written", r(&self.pages_written)),
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

/// One directory entry: where a value lives and how to verify it.
#[derive(Clone, Debug)]
struct Entry {
    pages: Vec<u64>,
    len: u64,
    checksum: u64,
}

struct Inner {
    file: File,
    page_size: usize,
    sync_every: usize,
    /// Last *committed* epoch; the live header slot is `epoch % 2`.
    epoch: u64,
    /// Key → entry. BTreeMap so serialization is deterministic.
    dir: BTreeMap<Vec<u8>, Entry>,
    /// Pages holding the committed directory chain.
    dir_pages: Vec<u64>,
    free: FreePages,
    pool: BufferPool,
    puts_since_persist: usize,
}

/// Crash-safe paged key→bytes store. Thread-safe; all operations take an
/// internal lock. Single-process single-writer: two *processes* opening
/// the same file concurrently is not supported (use [`Store::open_shared`]
/// to share one handle within a process).
pub struct Store {
    inner: Mutex<Inner>,
    stats: StoreStats,
    faults: Option<Arc<dyn IoFaults>>,
}

impl Store {
    /// Open (or create) the store at `path`, recovering the newest
    /// consistent committed state. A file with no recoverable header is
    /// quarantined to a unique `<name>.corrupt[.N]` and the store starts
    /// fresh — corruption never aborts the caller, and never loads.
    pub fn open(path: &Path, opts: StoreOpts) -> std::io::Result<Store> {
        let page_size = opts.page_size.clamp(512, 1 << 20);
        let stats = StoreStats::default();
        let open_site = IoSite {
            op: IoOp::Open,
            site: xxh64(path.as_os_str().as_encoded_bytes(), 0),
        };
        let faults = opts.faults;
        if faults.iter().any(|f| f.io_fault(&open_site).is_some()) {
            return Err(fault::injected_error("open failure", &open_site));
        }
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = open_rw(path)?;
        let recovered = recover(&mut file, path, &stats)?;
        let (file, epoch, file_page_size, dir, dir_pages, free) = match recovered {
            Some(state) => state,
            None => {
                // Unrecoverable bytes were quarantined (file renamed away):
                // reopen a fresh file under the original name.
                (
                    open_rw(path)?,
                    0,
                    0,
                    BTreeMap::new(),
                    Vec::new(),
                    FreePages::new(),
                )
            }
        };
        // A fresh file (recovered page size 0) adopts the requested
        // geometry; an existing file keeps the size it was created with.
        let page_size = if file_page_size == 0 {
            page_size
        } else {
            file_page_size
        };
        Ok(Store {
            inner: Mutex::new(Inner {
                file,
                page_size,
                sync_every: opts.sync_every,
                epoch,
                dir,
                dir_pages,
                free,
                pool: BufferPool::new(opts.pool_frames),
                puts_since_persist: 0,
            }),
            stats,
            faults,
        })
    }

    /// Open `path`, sharing one `Store` per path within this process —
    /// the wl2 cache and every serve shard pointing at the same file get
    /// the same handle (the store is single-writer per file). A path that
    /// is already open keeps its first opener's options.
    pub fn open_shared(path: &Path, opts: StoreOpts) -> std::io::Result<Arc<Store>> {
        static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Weak<Store>>>> = OnceLock::new();
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let key = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
        let mut map = registry.lock();
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

    /// Fetch `key`'s value. Returns the exact bytes the last `put` stored
    /// — verified page-by-page and whole-value — or `None`. A checksum
    /// failure drops the entry (counted) and reads as a miss; corrupt
    /// bytes are never returned.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock();
        let Some(entry) = inner.dir.get(key).cloned() else {
            bump(
                &self.stats.misses,
                "mic_store_misses_total",
                "Store lookups that found no entry.",
            );
            return None;
        };
        match self.fetch_value(&mut inner, &entry) {
            Some(val) => {
                bump(
                    &self.stats.hits,
                    "mic_store_hits_total",
                    "Store lookups served from a verified entry.",
                );
                Some(val)
            }
            None => {
                // Torn or corrupt on disk: drop the entry so the pages are
                // reclaimed at the next flip, and report a miss.
                self.remove_locked(&mut inner, key);
                bump(
                    &self.stats.checksum_failures,
                    "mic_store_checksum_failures_total",
                    "Store entries dropped because a page or value checksum failed.",
                );
                bump(
                    &self.stats.misses,
                    "mic_store_misses_total",
                    "Store lookups that found no entry.",
                );
                None
            }
        }
    }

    /// Stage `key` → `val` on fresh pages (copy-on-write). The write
    /// becomes durable at the next `persist` (or automatically every
    /// `sync_every` puts). An IO error leaves the last committed state
    /// intact; the staged entry may be lost.
    pub fn put(&self, key: &[u8], val: &[u8]) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        self.remove_locked(&mut inner, key);
        let cap = payload_cap(inner.page_size);
        let mut pages = Vec::with_capacity(val.len().div_ceil(cap));
        for chunk in val.chunks(cap) {
            let page = inner.free.alloc();
            let mut buf = vec![0u8; inner.page_size];
            buf[..chunk.len()].copy_from_slice(chunk);
            seal_page(&mut buf, NO_PAGE);
            pages.push(page);
            if let Err(e) = self.pool_insert(&mut inner, page, buf, true) {
                // Roll the allocation back; the entry is not created.
                for p in pages {
                    inner.pool.remove(p);
                    inner.free.release(p);
                }
                return Err(e);
            }
        }
        let entry = Entry {
            pages,
            len: val.len() as u64,
            checksum: xxh64(val, 0),
        };
        inner.dir.insert(key.to_vec(), entry);
        inner.puts_since_persist += 1;
        if inner.sync_every > 0 && inner.puts_since_persist >= inner.sync_every {
            self.persist_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Remove `key`. Its pages become reusable (immediately if never
    /// committed, after the next flip otherwise). Returns whether the
    /// key existed.
    pub fn remove(&self, key: &[u8]) -> bool {
        let mut inner = self.inner.lock();
        self.remove_locked(&mut inner, key)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().dir.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Make every staged `put`/`remove` durable via the header flip. On
    /// error nothing is committed: reopening yields the previous epoch.
    pub fn persist(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        self.persist_locked(&mut inner)
    }

    // -- internals ----------------------------------------------------------

    /// Insert a frame into the pool, writing back the evicted victim if
    /// it was dirty (safe pre-commit: victims are uncommitted pages).
    fn pool_insert(
        &self,
        inner: &mut Inner,
        page: u64,
        data: Vec<u8>,
        dirty: bool,
    ) -> std::io::Result<()> {
        let before = inner.pool.evictions();
        let victim = inner.pool.insert(page, data, dirty);
        if inner.pool.evictions() > before {
            bump(
                &self.stats.evictions,
                "mic_store_evictions_total",
                "Buffer-pool frames evicted by the clock.",
            );
        }
        if let Some(v) = victim {
            if v.dirty {
                self.write_page(inner, v.page, &v.data)?;
            }
        }
        Ok(())
    }

    fn remove_locked(&self, inner: &mut Inner, key: &[u8]) -> bool {
        let Some(old) = inner.dir.remove(key) else {
            return false;
        };
        for page in old.pages {
            inner.pool.remove(page);
            inner.free.release(page);
        }
        true
    }

    /// Read `entry`'s pages (pool first, then disk with verification)
    /// and reassemble + verify the value. `None` = any checksum failed.
    fn fetch_value(&self, inner: &mut Inner, entry: &Entry) -> Option<Vec<u8>> {
        let cap = payload_cap(inner.page_size);
        let mut val = Vec::with_capacity(entry.len as usize);
        for &page in &entry.pages {
            let take = cap.min(entry.len as usize - val.len());
            if let Some(frame) = inner.pool.get(page) {
                val.extend_from_slice(&frame.data[..take]);
                continue;
            }
            let buf = self.read_page(inner, page).ok()?;
            check_page(&buf)?;
            val.extend_from_slice(&buf[..take]);
            // Best-effort caching: a failed victim write-back must not
            // fail *this* read (the bytes are already assembled), and the
            // victim's entry stays checksum-guarded either way.
            let _ = self.pool_insert(inner, page, buf, false);
        }
        (val.len() as u64 == entry.len && xxh64(&val, 0) == entry.checksum).then_some(val)
    }

    fn io_fault(&self, site: &IoSite) -> Option<IoFault> {
        self.faults.as_ref()?.io_fault(site)
    }

    fn read_page(&self, inner: &mut Inner, page: u64) -> std::io::Result<Vec<u8>> {
        let mut buf = vec![0u8; inner.page_size];
        let off = page_offset(page, inner.page_size);
        inner.file.seek(SeekFrom::Start(off))?;
        inner.file.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Write one sealed page, honoring injected write faults: `Fail`
    /// writes nothing, `ShortWrite` leaves a torn prefix and errors,
    /// `TornPage` silently lands corrupted bytes and reports success.
    fn write_page(&self, inner: &mut Inner, page: u64, buf: &[u8]) -> std::io::Result<()> {
        let site = IoSite {
            op: IoOp::Write,
            site: page,
        };
        let off = page_offset(page, inner.page_size);
        self.write_at(inner, off, buf, &site)?;
        bump(
            &self.stats.pages_written,
            "mic_store_pages_written_total",
            "Pages written to the store file.",
        );
        Ok(())
    }

    fn write_at(
        &self,
        inner: &mut Inner,
        off: u64,
        buf: &[u8],
        site: &IoSite,
    ) -> std::io::Result<()> {
        inner.file.seek(SeekFrom::Start(off))?;
        match self.io_fault(site) {
            None => inner.file.write_all(buf),
            Some(IoFault::Fail) => Err(fault::injected_error("write failure", site)),
            Some(IoFault::ShortWrite) => {
                // Half the bytes land, then the "crash": exactly the torn
                // prefix a killed process leaves behind.
                inner.file.write_all(&buf[..buf.len() / 2])?;
                Err(fault::injected_error("short write", site))
            }
            Some(IoFault::TornPage) => {
                // The lie: corrupted bytes land and the write reports
                // success. Only checksums can catch this later.
                let mut torn = buf.to_vec();
                let mid = torn.len() / 2;
                torn[mid] ^= 0xA5;
                torn[mid / 2] ^= 0x5A;
                inner.file.write_all(&torn)
            }
        }
    }

    fn fsync(&self, inner: &mut Inner, site_id: u64) -> std::io::Result<()> {
        let site = IoSite {
            op: IoOp::Fsync,
            site: site_id,
        };
        if self.io_fault(&site).is_some() {
            return Err(fault::injected_error("fsync failure", &site));
        }
        inner.file.sync_all()
    }

    fn persist_locked(&self, inner: &mut Inner) -> std::io::Result<()> {
        // 1. Flush staged pages. Frames stay dirty until their write
        //    succeeds, so a failed persist can be retried.
        for page in inner.pool.dirty_pages() {
            let data = inner
                .pool
                .get(page)
                .map(|f| f.data.clone())
                .expect("dirty page is resident");
            self.write_page(inner, page, &data)?;
            if let Some(f) = inner.pool.get(page) {
                f.dirty = false;
            }
        }
        // 2. Serialize the directory onto a fresh chain (CoW: the old
        //    chain stays valid for the old header until the flip lands).
        let blob = encode_dir(&inner.dir); // never empty: holds the count word
        let cap = payload_cap(inner.page_size);
        let new_chain: Vec<u64> = (0..blob.len().div_ceil(cap))
            .map(|_| inner.free.alloc())
            .collect();
        let write_chain = |this: &Store, inner: &mut Inner| -> std::io::Result<()> {
            for (i, chunk) in blob.chunks(cap).enumerate() {
                let mut buf = vec![0u8; inner.page_size];
                buf[..chunk.len()].copy_from_slice(chunk);
                let next = new_chain.get(i + 1).copied().unwrap_or(NO_PAGE);
                seal_page(&mut buf, next);
                this.write_page(inner, new_chain[i], &buf)?;
            }
            // 3–5. Sync data, flip the header, sync the flip.
            let epoch = inner.epoch + 1;
            this.fsync(inner, epoch * 2)?;
            let header = Header {
                epoch,
                page_size: inner.page_size as u64,
                page_count: inner.free.high_water(),
                dir_first: new_chain.first().copied().unwrap_or(NO_PAGE),
                dir_len: blob.len() as u64,
            };
            let site = IoSite {
                op: IoOp::Write,
                site: NO_PAGE,
            };
            this.write_at(inner, Header::slot_offset(epoch), &header.encode(), &site)?;
            this.fsync(inner, epoch * 2 + 1)
        };
        if let Err(e) = write_chain(self, inner) {
            // Nothing committed: return the fresh chain pages (uncommitted
            // by definition) to the allocator and keep the old state.
            for p in new_chain {
                inner.free.release(p);
            }
            return Err(e);
        }
        // 6. In-memory commit mirrors the on-disk flip.
        inner.epoch += 1;
        let old_chain = std::mem::replace(&mut inner.dir_pages, new_chain);
        for p in old_chain {
            inner.free.release(p);
        }
        let referenced = referenced_pages(&inner.dir, &inner.dir_pages);
        inner.free.commit(referenced);
        inner.puts_since_persist = 0;
        bump(
            &self.stats.persists,
            "mic_store_persists_total",
            "Successful header flips (durable commits).",
        );
        Ok(())
    }
}

fn open_rw(path: &Path) -> std::io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
}

/// Every page the committed state references: entry pages + dir chain.
fn referenced_pages(dir: &BTreeMap<Vec<u8>, Entry>, dir_pages: &[u64]) -> HashSet<u64> {
    let mut set: HashSet<u64> = dir_pages.iter().copied().collect();
    for entry in dir.values() {
        set.extend(entry.pages.iter().copied());
    }
    set
}

// ---------------------------------------------------------------------------
// Directory serialization: u64 entry count, then per entry
// u32 key_len · key · u64 val_len · u64 val_xxh64 · u64 n_pages · page ids.
// Keys iterate in BTreeMap order, so the blob is deterministic.
// ---------------------------------------------------------------------------

fn encode_dir(dir: &BTreeMap<Vec<u8>, Entry>) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(dir.len() as u64).to_le_bytes());
    for (key, e) in dir {
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(&e.len.to_le_bytes());
        buf.extend_from_slice(&e.checksum.to_le_bytes());
        buf.extend_from_slice(&(e.pages.len() as u64).to_le_bytes());
        for p in &e.pages {
            buf.extend_from_slice(&p.to_le_bytes());
        }
    }
    buf
}

fn decode_dir(bytes: &[u8]) -> Option<BTreeMap<Vec<u8>, Entry>> {
    let mut off = 0usize;
    let take = |off: &mut usize, n: usize| -> Option<&[u8]> {
        let s = bytes.get(*off..*off + n)?;
        *off += n;
        Some(s)
    };
    let read_u64 = |off: &mut usize| -> Option<u64> {
        Some(u64::from_le_bytes(take(off, 8)?.try_into().ok()?))
    };
    let n = read_u64(&mut off)? as usize;
    if n > bytes.len() {
        return None; // implausible count: corrupt
    }
    let mut dir = BTreeMap::new();
    for _ in 0..n {
        let key_len = u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?) as usize;
        let key = take(&mut off, key_len)?.to_vec();
        let len = read_u64(&mut off)?;
        let checksum = read_u64(&mut off)?;
        let n_pages = read_u64(&mut off)? as usize;
        if n_pages > bytes.len() {
            return None;
        }
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            pages.push(read_u64(&mut off)?);
        }
        dir.insert(
            key,
            Entry {
                pages,
                len,
                checksum,
            },
        );
    }
    (off == bytes.len()).then_some(dir)
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

type Recovered = (
    File,
    u64,
    usize,
    BTreeMap<Vec<u8>, Entry>,
    Vec<u64>,
    FreePages,
);

/// Decode both header slots and load the newest consistent state.
/// `Ok(None)` means the file held bytes but no recoverable state — it has
/// been quarantined and the caller should start fresh.
fn recover(file: &mut File, path: &Path, stats: &StoreStats) -> std::io::Result<Option<Recovered>> {
    let file_len = file.metadata()?.len();
    if file_len == 0 {
        // Fresh file: page size 0 tells the caller to use its own.
        return Ok(Some((
            file.try_clone()?,
            0,
            0,
            BTreeMap::new(),
            Vec::new(),
            FreePages::new(),
        )));
    }
    let mut slots = vec![0u8; 2 * HEADER_SLOT];
    file.seek(SeekFrom::Start(0))?;
    let n = file.read(&mut slots)?;
    slots.truncate(n);
    let mut candidates: Vec<Header> = [0, 1]
        .iter()
        .filter_map(|&i| {
            slots
                .get(i * HEADER_SLOT..(i + 1) * HEADER_SLOT)
                .and_then(Header::decode)
        })
        .collect();
    candidates.sort_by_key(|h| std::cmp::Reverse(h.epoch));
    let newest_epoch = candidates.first().map(|h| h.epoch);
    for header in candidates {
        let Some((dir, dir_pages)) = load_dir(file, &header) else {
            continue;
        };
        if Some(header.epoch) != newest_epoch || slot_is_torn(&slots, header.epoch) {
            // We fell past a newer-but-unreadable state (torn header or
            // torn dir chain): this open *recovered* rather than resumed.
            count_recovery(stats, header.epoch);
            eprintln!(
                "mic-store: {} recovered to epoch {} (newer state torn)",
                path.display(),
                header.epoch
            );
        }
        let committed = referenced_pages(&dir, &dir_pages);
        let free = FreePages::recovered(committed, header.page_count);
        return Ok(Some((
            file.try_clone()?,
            header.epoch,
            header.page_size as usize,
            dir,
            dir_pages,
            free,
        )));
    }
    // Bytes, but no consistent state: quarantine the evidence, start over.
    count_recovery(stats, u64::MAX);
    quarantine(path, "no recoverable header");
    Ok(None)
}

/// Is the *other* slot (the one epoch+1 would use) torn — i.e. nonzero
/// bytes that failed to decode? All-zero means never written: normal.
fn slot_is_torn(slots: &[u8], winning_epoch: u64) -> bool {
    let other = ((winning_epoch + 1) % 2) as usize;
    match slots.get(other * HEADER_SLOT..(other + 1) * HEADER_SLOT) {
        Some(slot) => Header::decode(slot).is_none() && slot.iter().any(|&b| b != 0),
        None => false,
    }
}

/// `epoch` is the epoch recovered to, or `u64::MAX` when the file was
/// quarantined with no recoverable state at all.
fn count_recovery(stats: &StoreStats, epoch: u64) {
    mic_obs::flight::record(mic_obs::flight::EventKind::StoreRecovery, epoch, 0, 0);
    bump(
        &stats.recoveries,
        "mic_store_recoveries_total",
        "Opens that fell back past a torn state or quarantined the file.",
    );
}

/// Key → entry map plus the page chain it was read from.
type DirAndChain = (BTreeMap<Vec<u8>, Entry>, Vec<u64>);

/// Follow the dir chain from `header.dir_first`, verifying every page.
fn load_dir(file: &mut File, header: &Header) -> Option<DirAndChain> {
    let page_size = header.page_size as usize;
    if !(512..=1 << 20).contains(&page_size) {
        return None;
    }
    if header.dir_first == NO_PAGE {
        return (header.dir_len == 0).then(|| (BTreeMap::new(), Vec::new()));
    }
    let cap = payload_cap(page_size);
    let mut blob = Vec::with_capacity(header.dir_len as usize);
    let mut chain = Vec::new();
    let mut page = header.dir_first;
    // Cycle guard: a valid chain has at most page_count pages.
    for _ in 0..=header.page_count {
        if page >= header.page_count {
            return None;
        }
        chain.push(page);
        let mut buf = vec![0u8; page_size];
        file.seek(SeekFrom::Start(page_offset(page, page_size)))
            .ok()?;
        file.read_exact(&mut buf).ok()?;
        let next = check_page(&buf)?;
        let take = cap.min(header.dir_len as usize - blob.len());
        blob.extend_from_slice(&buf[..take]);
        if blob.len() == header.dir_len as usize {
            let dir = decode_dir(&blob)?;
            // Every entry page must lie inside the committed extent.
            let in_range = dir
                .values()
                .flat_map(|e| e.pages.iter())
                .all(|&p| p < header.page_count);
            return in_range.then_some((dir, chain));
        }
        if next == NO_PAGE {
            return None; // chain ended before dir_len bytes: torn
        }
        page = next;
    }
    None
}

/// Move an unrecoverable store file aside, keeping every prior piece of
/// evidence: the destination gets a unique numeric suffix instead of
/// clobbering an earlier `.corrupt`. Falls back to deletion only if no
/// candidate name can be claimed.
fn quarantine(path: &Path, why: &str) {
    for i in 0..100u32 {
        let dest = if i == 0 {
            PathBuf::from(format!("{}.corrupt", path.display()))
        } else {
            PathBuf::from(format!("{}.corrupt.{i}", path.display()))
        };
        // hard_link + remove claims the name atomically: an existing
        // destination yields AlreadyExists and we try the next suffix,
        // so two corruption events never share one evidence file.
        match std::fs::hard_link(path, &dest) {
            Ok(()) => {
                eprintln!(
                    "mic-store: {} is unrecoverable ({why}); quarantined to {}",
                    path.display(),
                    dest.display()
                );
                let _ = std::fs::remove_file(path);
                return;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(_) => break,
        }
    }
    eprintln!(
        "mic-store: {} is unrecoverable ({why}); could not quarantine, deleting",
        path.display()
    );
    let _ = std::fs::remove_file(path);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mic-store-unit-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join(format!("{tag}.pg"))
    }

    fn small_opts() -> StoreOpts {
        StoreOpts {
            page_size: 512,
            pool_frames: 4,
            sync_every: 0,
            faults: None,
        }
    }

    #[test]
    fn dir_blob_roundtrips() {
        let mut dir = BTreeMap::new();
        dir.insert(
            b"alpha".to_vec(),
            Entry {
                pages: vec![3, 1, 4],
                len: 1500,
                checksum: 0xDEAD,
            },
        );
        dir.insert(
            b"".to_vec(),
            Entry {
                pages: vec![],
                len: 0,
                checksum: xxh64(&[], 0),
            },
        );
        let blob = encode_dir(&dir);
        let back = decode_dir(&blob).expect("roundtrip");
        assert_eq!(back.len(), 2);
        assert_eq!(back[b"alpha".as_slice()].pages, vec![3, 1, 4]);
        assert_eq!(back[b"alpha".as_slice()].len, 1500);
        // Truncation at any point is caught.
        for cut in 0..blob.len() {
            assert!(decode_dir(&blob[..cut]).is_none(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn put_get_roundtrip_single_and_multi_page() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path, small_opts()).unwrap();
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
    fn overwrites_reuse_pages_and_bound_growth() {
        let path = tmp("reuse");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path, small_opts()).unwrap();
        let val = vec![9u8; 2000]; // ~5 pages at 512
        for round in 0..20 {
            store.put(b"k", &val).unwrap();
            store.persist().unwrap();
            let _ = round;
        }
        let inner = store.inner.lock();
        // CoW double-buffers at worst: committed + staging. 20 rounds of
        // ~6 pages each would hit 120 without reuse.
        assert!(
            inner.free.high_water() < 20,
            "page reuse failed: high water {}",
            inner.free.high_water()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_open_returns_one_handle_per_path() {
        let path = tmp("shared");
        let _ = std::fs::remove_file(&path);
        let a = Store::open_shared(&path, small_opts()).unwrap();
        let b = Store::open_shared(&path, small_opts()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let _ = std::fs::remove_file(&path);
    }
}
