//! How many heap allocations the daemon makes to answer one `sim` memo
//! hit on its event loop, counted by a global allocator over 1000 hits
//! through an in-process `Server` over TCP. The client thread's own
//! allocations are counted apart and subtracted, so the figure is the
//! server side's alone.
//!
//! This is a separate test binary on purpose: the counting allocator is
//! process-wide, so no other test may run beside this one.

use m3d_core::report::Json;
use m3d_serve::protocol::{request_line, Method};
use m3d_serve::{Engine, Server, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation, process-wide and on the
/// calling thread.
struct Counting;

static ALL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MINE: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALL.fetch_add(1, Ordering::Relaxed);
    MINE.with(|m| m.set(m.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocations one inline memo hit may cost the server.
const MAX_ALLOCS_PER_HIT: u64 = 5;

#[test]
fn an_inline_memo_hit_costs_at_most_5_allocations() {
    const HITS: u64 = 1000;
    // A Fig. 6/7-style point: one SPEC app on one paper design.
    let params = Json::obj([
        ("app", Json::from("Gcc")),
        ("design", Json::from("M3D-Het")),
        ("seed", Json::from(0xA110_C000u64)),
        ("n_cores", Json::from(1u64)),
        ("warmup", Json::from(1_000u64)),
        ("measure", Json::from(800u64)),
    ]);
    let line = request_line(7, Method::Sim, params, None);

    // Queue cap 0: a request the event loop cannot answer inline is
    // rejected, so every `ok` reply below is an inline hit.
    let server = Server::bind(ServerConfig {
        quick: true,
        queue_cap: 0,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = server.spawn();
    // Warm the memo cache (process-wide) through the serial path.
    let engine = Engine::new(true, 1).expect("engine");
    let want = engine.answer_line(&line);
    assert!(want.contains(r#""ok":true"#), "{want}");

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut request = line.clone().into_bytes();
    request.push(b'\n');
    let mut reply = String::with_capacity(4 * want.len());
    let mut round_trip = |reply: &mut String| {
        writer.write_all(&request).expect("send");
        reply.clear();
        reader.read_line(reply).expect("reply");
    };
    // Let the connection's buffers reach their steady size first.
    for _ in 0..16 {
        round_trip(&mut reply);
        assert_eq!(reply.trim_end(), want);
    }

    let hits_before = m3d_obs::snapshot()
        .counter("serve.inline_hits")
        .unwrap_or(0);
    let (all0, mine0) = (ALL.load(Ordering::SeqCst), MINE.with(Cell::get));
    for _ in 0..HITS {
        round_trip(&mut reply);
    }
    let (all1, mine1) = (ALL.load(Ordering::SeqCst), MINE.with(Cell::get));
    assert_eq!(reply.trim_end(), want, "a hit's reply is the serial one");
    let hits = m3d_obs::snapshot()
        .counter("serve.inline_hits")
        .unwrap_or(0)
        - hits_before;
    handle.shutdown();

    assert_eq!(hits, HITS, "every timed request was an inline hit");
    let server_allocs = (all1 - all0) - (mine1 - mine0);
    let per_hit = server_allocs as f64 / HITS as f64;
    eprintln!("{per_hit:.2} allocations per inline hit");
    assert!(
        server_allocs <= MAX_ALLOCS_PER_HIT * HITS,
        "{per_hit:.2} allocations per inline hit, over {MAX_ALLOCS_PER_HIT}"
    );
}
