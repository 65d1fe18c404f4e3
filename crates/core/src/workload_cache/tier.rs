//! The durable tier under [`super`]: the `MIC_STORE` handle and the one
//! keyed read-or-build every persisted value goes through. The values are
//! the cache's inputs — a suite graph's `MICCSR01` bytes and PageRank's
//! iteration count — never priced `Work` arrays.
//!
//! The store's record checksums turn torn or flipped bytes into a miss
//! before they get here; each value's own decoder is the second line, so a
//! buggy writer cannot get a malformed value past them either. An entry
//! that fails its decoder is dropped and rebuilt.

use mic_store::Store;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

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

/// `build()`'s value by way of the `MIC_STORE` tier: with the tier on, the
/// value stored under `key()` if it `decode`s, else built and stored. Each
/// lookup counts on `mic_cache_hits_total` / `mic_cache_misses_total`.
/// `Err(why)` from `decode` means bytes that can never load; the store's
/// checksums passed, so that is a broken *writer*, not the disk, and the
/// entry is dropped.
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
    loaded.unwrap_or_else(|| {
        let value = build();
        // Best effort: a failed write only costs the next run a hit. Values
        // are few, so each persists at once and survives `kill -9` the
        // moment this returns.
        if store.put(key.as_bytes(), &encode(&value)).is_ok() {
            let _ = store.persist();
        }
        value
    })
}

/// Close the open store handle; the next use reopens (and recovers) the file.
pub(super) fn close() {
    *TIER.lock().unwrap_or_else(|e| e.into_inner()) = None;
}
