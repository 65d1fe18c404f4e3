//! The durable tier under [`super`]: the `MICWL2` container workloads are
//! stored as, and the `MIC_STORE` handle every persisted value goes through.
//!
//! After the magic, a container is a stream of little-endian 8-byte words:
//!
//! ```text
//!   magic  b"MICWL2\0\0"
//!   u64    number of meta words          u64    number of arrays
//!   meta   u64 × n_meta
//!   per array: u64 length, then length × 6 f64 (issue,l1,l2,dram,flops,atomics)
//!   u64    XXH64 of every preceding byte (seed 0)
//! ```
//!
//! The store's record checksums turn torn or flipped bytes into a miss
//! before they get here; the container's own checksum and structural
//! parse are the second line, so a buggy writer cannot get malformed arrays
//! past them either. An entry that fails them is dropped and recomputed.

use mic_sim::Work;
use mic_store::{xxh64, Store};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 8] = b"MICWL2\0\0";

/// Meta words + work arrays, as stored in one workload container.
pub(crate) type StoredArrays = (Vec<u64>, Vec<Arc<Vec<Work>>>);

/// Serialize meta + arrays into the `MICWL2` container (checksum sealed).
pub(super) fn encode_container(meta: &[u64], arrays: &[&[Work]]) -> Vec<u8> {
    let mut buf = MAGIC.to_vec();
    let mut word = |w: u64| buf.extend_from_slice(&w.to_le_bytes());
    word(meta.len() as u64);
    word(arrays.len() as u64);
    meta.iter().for_each(|&m| word(m));
    for arr in arrays {
        word(arr.len() as u64);
        for w in arr.iter() {
            for v in [w.issue, w.l1, w.l2, w.dram, w.flops, w.atomics] {
                word(v.to_bits());
            }
        }
    }
    let checksum = xxh64(&buf, 0);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Parse a container back: magic, trailing checksum, then every word
/// accounted for. `Err` says why the bytes can never load.
pub(super) fn verify_container(bytes: &[u8]) -> Result<StoredArrays, String> {
    if bytes.len() < 32 || bytes.len() % 8 != 0 || &bytes[..8] != MAGIC {
        return Err("unrecognized or truncated header".into());
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    if xxh64(body, 0).to_le_bytes() != sum {
        return Err("checksum mismatch".into());
    }
    let mut words = body[8..]
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    let mut next = |what: &str| words.next().ok_or_else(|| format!("truncated {what}"));
    let (n_meta, n_arrays) = (next("counts")? as usize, next("counts")? as usize);
    if n_meta.max(n_arrays) > body.len() {
        return Err("implausible counts".into());
    }
    let meta = (0..n_meta)
        .map(|_| next("meta"))
        .collect::<Result<_, _>>()?;
    let mut arrays = Vec::with_capacity(n_arrays);
    for _ in 0..n_arrays {
        let len = next("array header")? as usize;
        if len > body.len() / 48 {
            return Err("array overruns container".into());
        }
        let mut arr = Vec::with_capacity(len);
        for _ in 0..len {
            let mut f = [0.0f64; 6];
            for v in f.iter_mut() {
                *v = f64::from_bits(next("array")?);
            }
            let [issue, l1, l2, dram, flops, atomics] = f;
            let w = Work {
                issue,
                l1,
                l2,
                dram,
                flops,
                atomics,
            };
            if !w.is_valid() {
                return Err("non-finite work entry".into());
            }
            arr.push(w);
        }
        arrays.push(Arc::new(arr));
    }
    match words.next() {
        None => Ok((meta, arrays)),
        Some(_) => Err("trailing bytes after last array".into()),
    }
}

/// The open handle on the `MIC_STORE` file, kept for as long as the
/// configured path stays the same: reopening rescans every record header,
/// which costs more than most cache reads.
static TIER: Mutex<Option<(PathBuf, Arc<Store>)>> = Mutex::new(None);

/// The store named by `MIC_STORE`: one crash-safe append-only log, shared
/// process-wide with mic-serve's result tier when both point at the same
/// path, and single-process (see [`Store`]). `None` when the knob is off or
/// the file cannot be opened — an open failure warns once and the cache
/// carries on in memory only. The configured fault plan is the store's
/// IO-fault injector.
fn store_tier() -> Option<Arc<Store>> {
    let cfg = crate::config::current();
    let path = cfg.store_path.as_ref()?;
    let mut tier = TIER.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, store)) = tier.as_ref().filter(|(open, _)| open == path) {
        return Some(Arc::clone(store));
    }
    let opts = mic_store::StoreOpts {
        sync_every: cfg.store_sync,
        faults: cfg.fault.clone().map(|plan| Arc::new(plan) as _),
    };
    match Store::open_shared(path, opts) {
        Ok(store) => {
            *tier = Some((path.clone(), Arc::clone(&store)));
            Some(store)
        }
        Err(e) => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                let path = path.display();
                eprintln!(
                    "mic-eval: MIC_STORE={path} could not be opened ({e}); \
                     continuing without the durable cache tier"
                );
            });
            None
        }
    }
}

/// Fetch `key` and `decode` it, counting the outcome on
/// `mic_cache_hits_total` / `mic_cache_misses_total`. `Err(why)` from
/// `decode` means bytes that can never load; the store's checksums passed,
/// so that is a broken *writer*, not the disk, and the entry is dropped.
fn load<T>(store: &Store, key: &str, decode: impl FnOnce(&[u8]) -> Result<T, String>) -> Option<T> {
    let loaded = store.get(key.as_bytes()).and_then(|bytes| {
        decode(&bytes)
            .inspect_err(|why| {
                eprintln!("mic-eval: stored entry {key} is corrupt ({why}); dropping it");
                store.remove(key.as_bytes());
            })
            .ok()
    });
    if crate::metrics::enabled() {
        let name = match loaded {
            Some(_) => "mic_cache_hits_total",
            None => "mic_cache_misses_total",
        };
        crate::metrics::counter(name, "Store-tier cache lookups, by outcome.", &[]).inc();
    }
    loaded
}

/// Best-effort write; failure just means no cache hit next run. Cache
/// values are rare and large, so each one persists immediately: the entry
/// survives `kill -9` the moment this returns.
fn save(store: &Store, key: &str, bytes: &[u8]) {
    if store.put(key.as_bytes(), bytes).is_ok() {
        let _ = store.persist();
    }
}

/// `build()`'s value by way of the `MIC_STORE` tier: with the tier on, the
/// value stored under `key()` if it `decode`s, else built and stored.
pub(super) fn persisted<T>(
    key: impl FnOnce() -> String,
    decode: impl FnOnce(&[u8]) -> Result<T, String>,
    encode: impl FnOnce(&T) -> Vec<u8>,
    build: impl FnOnce() -> T,
) -> T {
    let Some(store) = store_tier() else {
        return build();
    };
    let key = key();
    load(&store, &key, decode).unwrap_or_else(|| {
        let value = build();
        save(&store, &key, &encode(&value));
        value
    })
}

/// Store one workload container under `key` in the `MIC_STORE` tier; a
/// no-op when the tier is off. Public for stress tests and
/// cache-maintenance tools; the drivers use the keyed functions of [`super`].
pub fn store_arrays(key: &str, meta: &[u64], arrays: &[&[Work]]) {
    if let Some(store) = store_tier() {
        save(&store, key, &encode_container(meta, arrays));
    }
}

/// Read a workload container; `None` means "cache miss — recompute": the
/// tier is off, the key is absent (or the store dropped it on a checksum
/// failure), the container is malformed (the entry is dropped), or its
/// shape disagrees with `expect_arrays` / `expect_meta` (0 accepts any
/// count; the entry is left alone). Public like [`store_arrays`].
pub fn load_arrays(key: &str, expect_arrays: usize, expect_meta: usize) -> Option<StoredArrays> {
    let fits = |want: usize, got: usize| want == 0 || want == got;
    load(&*store_tier()?, key, verify_container)
        .filter(|(meta, arrays)| fits(expect_meta, meta.len()) && fits(expect_arrays, arrays.len()))
}

/// Close the open store handle; the next use reopens (and recovers) the file.
pub(super) fn close() {
    *TIER.lock().unwrap_or_else(|e| e.into_inner()) = None;
}
