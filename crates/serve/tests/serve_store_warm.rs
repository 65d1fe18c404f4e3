//! Warm-restart coverage for the durable result store tier: a result
//! computed before a full router teardown must be served from the store
//! (bit-identical, no recomputation) by a fresh router on the same path,
//! and a broken store path must degrade to LRU-only serving rather than
//! refuse to start.

use mic_serve::protocol::Response;
use mic_serve::router::Router;
use mic_serve::server::ServeOpts;
use std::net::{IpAddr, Ipv4Addr};
use std::path::PathBuf;
use std::sync::atomic::Ordering;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mic-serve-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const JOB: &str = r#"{"id":"w1","kernel":"coloring","threads":4,"scale":512}"#;

/// Run one simulate request through a router and return its cycles.
fn run_job(router: &Router) -> f64 {
    let client = router.client(IpAddr::V4(Ipv4Addr::LOCALHOST));
    let resp = router.handle_line(JOB, &client);
    let cycles = match resp {
        Response::Ok { cycles, .. } => cycles,
        other => panic!("expected ok, got {other:?}"),
    };
    // The request wrote the store on its way out; make it durable.
    router.persist_store();
    cycles
}

/// The durability exhibit: teardown the whole router (LRU, store
/// handle), reopen on the same path, and the repeat job is answered from
/// the store — counted as a store hit, bit-identical cycles.
#[test]
fn warm_router_restart_serves_results_from_the_store() {
    let dir = tmp_dir("restart");
    let opts = ServeOpts {
        store_path: Some(dir.join("results.pg")),
        shards: 2,
        ..ServeOpts::default()
    };

    let cold = Router::new(opts.clone());
    let cold_cycles = run_job(&cold);
    assert_eq!(
        cold.stats.store_hits.load(Ordering::Relaxed),
        0,
        "the first-ever request cannot be a store hit"
    );
    // Drop every Arc<Store> clone so the shared-open registry expires and
    // the warm router truly reopens the file from disk.
    drop(cold);

    let warm = Router::new(opts);
    let warm_cycles = run_job(&warm);
    assert!(
        warm.stats.store_hits.load(Ordering::Relaxed) >= 1,
        "warm restart must answer the repeat job from the durable store"
    );
    assert_eq!(
        cold_cycles.to_bits(),
        warm_cycles.to_bits(),
        "store round-trip must be bit-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// An unopenable store path (here: a directory) must not refuse startup —
/// the router degrades to LRU-only serving and still answers requests.
#[test]
fn unopenable_store_path_degrades_to_lru_only_serving() {
    let dir = tmp_dir("degrade");
    let opts = ServeOpts {
        // The path IS the directory: opening it as a store file fails.
        store_path: Some(dir.clone()),
        shards: 1,
        ..ServeOpts::default()
    };
    let router = Router::new(opts);
    let cycles = run_job(&router);
    assert!(cycles.is_finite());
    // A second identical request inside the same router comes from the
    // LRU, not the (absent) store.
    let client = router.client(IpAddr::V4(Ipv4Addr::LOCALHOST));
    match router.handle_line(JOB, &client) {
        Response::Ok { meta, .. } => assert!(meta.cached, "LRU must still work"),
        other => panic!("expected ok, got {other:?}"),
    }
    assert_eq!(router.stats.store_hits.load(Ordering::Relaxed), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store file outlives the build that wrote it, so a result is found
/// again only while [`JobSpec::key`](mic_serve::protocol::JobSpec::key)
/// spells the same text. Here the file is written under `JOB`'s key as a
/// literal — what every earlier build put there — and a router opened on
/// it must answer from the store, with that value, running nothing.
#[test]
fn a_store_written_under_the_literal_key_text_still_answers() {
    const JOB_KEY: &str = "coloring/hood/Natural/1/512/OmpDynamic { chunk: 100 }/t4/i1/d0";
    let stored = f64::from_bits(0x4197_d784_0000_0001);
    let dir = tmp_dir("literal-key");
    let path = dir.join("results.pg");
    {
        let store = mic_store::Store::open(&path, mic_store::StoreOpts::default()).unwrap();
        store
            .put(JOB_KEY.as_bytes(), &stored.to_le_bytes())
            .unwrap();
        store.persist().unwrap();
    }
    let router = Router::new(ServeOpts {
        store_path: Some(path),
        ..ServeOpts::default()
    });
    let served = run_job(&router);
    assert_eq!(served.to_bits(), stored.to_bits());
    assert_eq!(router.stats.store_hits.load(Ordering::Relaxed), 1);
    assert_eq!(router.stats.executed.load(Ordering::Relaxed), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
