//! A cache hit allocates only what it sends: routing a hit adds no
//! allocation to decoding its frame (the echoed `id` is the one a hit
//! needs), and encoding a response into a warmed buffer allocates
//! nothing.

use mic_serve::frame;
use mic_serve::protocol::{parse_request, Response, SimMeta};
use mic_serve::router::Router;
use mic_serve::server::ServeOpts;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};

/// The system allocator, counting the allocations each thread makes: the
/// count is per thread, so tests running in parallel do not disturb one
/// another.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only touches a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f`, returning the allocations it made on this thread and its
/// result (dropped by the caller, outside the count).
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn routing_a_cache_hit_adds_no_allocation_to_decoding_it() {
    let router = Router::new(ServeOpts {
        shards: 1,
        ..ServeOpts::default()
    });
    let client = router.client(IpAddr::V4(Ipv4Addr::LOCALHOST));
    let request =
        parse_request(r#"{"id":"hit","kernel":"coloring","graph":"pwtk","threads":7,"scale":512}"#)
            .expect("request parses");
    let (tag, payload) = frame::encode_request(&request);
    // The first request computes the job and leaves it LRU-resident.
    match router.handle_frame(tag, &payload, &client) {
        Response::Ok { meta, .. } => assert!(!meta.cached),
        other => panic!("expected ok, got {other:?}"),
    }
    for _ in 0..3 {
        let (decode, decoded) = allocations(|| frame::decode_request(tag, &payload));
        assert!(decoded.is_ok());
        let (hit, response) = allocations(|| router.handle_frame(tag, &payload, &client));
        match response {
            Response::Ok { meta, .. } => assert!(meta.cached, "expected an LRU hit"),
            other => panic!("expected ok, got {other:?}"),
        }
        assert_eq!(
            hit, decode,
            "a hit allocated {hit} times; decoding its frame alone allocates {decode}"
        );
    }
}

#[test]
fn encoding_into_a_warm_buffer_allocates_nothing() {
    let mut traced = SimMeta::untraced(1, true, false, 0.5);
    traced.trace = 7;
    traced.root_span = 9;
    let responses = [
        Response::Ok {
            id: "r1".into(),
            cycles: 1.0e6,
            meta: SimMeta::untraced(0, false, true, 0.01),
        },
        Response::Ok {
            id: "r2".into(),
            cycles: f64::from_bits(0x7fe1234567abcdef),
            meta: traced,
        },
        Response::Pong { id: "p".into() },
        Response::Stats {
            id: "s".into(),
            fields: vec![("ok".into(), 3.0), ("shed".into(), 0.0)],
            build: "0.1.0+cafe".into(),
        },
        Response::Trace {
            id: "t".into(),
            fields: vec![("spans".into(), 4.0)],
        },
        Response::Shed {
            id: "q".into(),
            detail: "queue full".into(),
        },
        Response::Error {
            id: "e".into(),
            detail: "bad request".into(),
        },
    ];
    let mut buf = Vec::new();
    for response in &responses {
        frame::encode_response_into(response, &mut buf);
    }
    for response in &responses {
        let (n, tag) = allocations(|| frame::encode_response_into(response, &mut buf));
        assert_eq!(n, 0, "encoding {response:?} allocated");
        assert_eq!((tag, buf.clone()), frame::encode_response(response));
    }
}
